"""Portal typology: growth dynamics crossed with relative size.

Places each portal of a network into one of four groups by (a) whether
its visit demand is growing or stable over the analysis period and (b)
whether its share of the network's deduplicated content is large or small.
Cutoffs (growth threshold, median size split) are conventions, not
constants of nature; they are configurable and echoed into reports so a
comparison always states the rules it was made under.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from .errors import DomainError
from .usage import DemandSeries

DEFAULT_GROWTH_THRESHOLD = 0.05

GROWING = "Growing"
STABLE = "Stable"
LARGE = "Large"
SMALL = "Small"

QUADRANT_NAMES = {
    (GROWING, LARGE): "Growing portals with large relative size",
    (GROWING, SMALL): "Growing portals with low relative size",
    (STABLE, LARGE): "Stable portals with large relative size",
    (STABLE, SMALL): "Stable portals with small relative size",
}

DECLINING_ANNOTATION = "declining"
INDETERMINATE_FLAG = "dynamics_indeterminate"
SINGLE_PORTAL_FLAG = "single_portal_network"
UNSEGMENTED = "unsegmented"


@dataclass(frozen=True)
class Dynamics:
    label: str | None
    declining: bool
    indeterminate: bool


@dataclass(frozen=True)
class SegmentLabel:
    """One portal's quadrant; quadrant is None when dynamics is unknown."""

    dynamics: str | None
    size: str
    quadrant: str | None
    annotations: tuple[str, ...] = ()

    def __post_init__(self):
        if self.dynamics is not None:
            expected = QUADRANT_NAMES[(self.dynamics, self.size)]
            if self.quadrant != expected:
                raise DomainError(
                    f"quadrant {self.quadrant!r} does not match "
                    f"({self.dynamics}, {self.size})"
                )


def demand_trend(series: DemandSeries) -> float | None:
    """The least-squares slope of visits per bucket relative to their mean.

    Fits count = a + slope * bucket_index by ordinary least squares and
    returns slope / mean visit count, so 0.05 means demand grows by 5% of
    its average level per bucket. Needs at least 2 buckets. An all-zero
    series has no level to measure change against: it gives None.
    """
    counts = series.counts()
    if len(counts) < 2:
        raise DomainError("trend estimation needs at least 2 buckets")
    if any(c < 0 for c in counts):
        raise DomainError("visit counts cannot be negative")
    mean = statistics.fmean(counts)
    if mean == 0:
        return None
    xs = list(range(len(counts)))
    return statistics.linear_regression(xs, counts).slope / mean


def dynamics_class(relative_slope: float | None,
                   threshold: float = DEFAULT_GROWTH_THRESHOLD) -> Dynamics:
    """Growing when relative slope exceeds the threshold, else Stable.

    Negative slopes are Stable too (the typology is binary) but carry a
    declining annotation. None propagates as indeterminate.
    """
    if threshold <= 0:
        raise DomainError("growth threshold must be positive")
    if relative_slope is None:
        return Dynamics(label=None, declining=False, indeterminate=True)
    if relative_slope > threshold:
        return Dynamics(label=GROWING, declining=False, indeterminate=False)
    return Dynamics(label=STABLE, declining=relative_slope < 0,
                    indeterminate=False)


def relative_size(portal_counts: dict, network_total: int) -> dict:
    """Each portal's share of the network's deduplicated content.

    ``portal_counts`` maps portal id to its distinct-identifier count.
    ``network_total`` is the distinct-identifier count over the whole
    network; identifiers shared between portals count once there, so the
    shares can sum to more than 1.
    """
    if not portal_counts:
        raise DomainError("no portals to size")
    if network_total <= 0:
        raise DomainError("network content total must be positive")
    return {portal: count / network_total
            for portal, count in portal_counts.items()}


def size_class(ratios: dict) -> tuple[dict, tuple[str, ...]]:
    """(size class per portal, network flags) by a median split: Large at
    or above the network median, ties Large.

    A single-portal network is Large by convention and flagged, since a
    median over one value says nothing.
    """
    if not ratios:
        raise DomainError("no portals to classify")
    values = list(ratios.values())
    median = statistics.median(values)
    flags = (SINGLE_PORTAL_FLAG,) if len(values) == 1 else ()
    classes = {portal: (LARGE if ratio >= median else SMALL)
               for portal, ratio in ratios.items()}
    return classes, flags


def segment(dynamics: Dynamics, size: str) -> SegmentLabel:
    """Combine the two classifications into the four-group typology."""
    if size not in (LARGE, SMALL):
        raise DomainError(f"unknown size class {size!r}")
    annotations = []
    if dynamics.declining:
        annotations.append(DECLINING_ANNOTATION)
    if dynamics.indeterminate:
        annotations.append(INDETERMINATE_FLAG)
        return SegmentLabel(dynamics=None, size=size, quadrant=None,
                            annotations=tuple(annotations))
    return SegmentLabel(
        dynamics=dynamics.label,
        size=size,
        quadrant=QUADRANT_NAMES[(dynamics.label, size)],
        annotations=tuple(annotations),
    )
