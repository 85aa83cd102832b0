"""Portal typology: growth dynamics crossed with relative size.

Places each portal of a network into one of four groups by (a) whether
its visit demand is growing or stable over the analysis period and (b)
whether its share of the network's deduplicated content is large or small.
Cutoffs (growth threshold, median size split) are conventions, not
constants of nature; they are configurable and echoed into reports so a
comparison always states the rules it was made under.
"""

from __future__ import annotations

from math import fsum

from .errors import DomainError

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


def demand_trend(counts: list[int]) -> float | None:
    """The least-squares slope of visits per bucket relative to their mean.

    ``counts`` are the visits per bucket in bucket order. Fits count = a +
    slope * bucket_index by ordinary least squares and returns slope /
    mean visit count, so 0.05 means demand grows by 5% of its average
    level per bucket. Needs at least 2 buckets. An all-zero series has no
    level to measure change against: it gives None.

    The sums are exact (``math.fsum``), in the formula that
    ``statistics.linear_regression`` used up to Python 3.11, so the slope
    is the same float on every Python.
    """
    n = len(counts)
    if n < 2:
        raise DomainError("trend estimation needs at least 2 buckets")
    if any(c < 0 for c in counts):
        raise DomainError("visit counts cannot be negative")
    ybar = fsum(counts) / n
    if ybar == 0:
        return None
    xbar = fsum(range(n)) / n
    sxy = fsum((x - xbar) * (y - ybar) for x, y in enumerate(counts))
    sxx = fsum((d := x - xbar) * d for x in range(n))
    return sxy / sxx / ybar


def _median(values: list[float]) -> float:
    """The middle of ``values`` once sorted, or the mean of the two middle
    ones for an even count."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


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
    median = _median(values)
    flags = (SINGLE_PORTAL_FLAG,) if len(values) == 1 else ()
    classes = {portal: (LARGE if ratio >= median else SMALL)
               for portal, ratio in ratios.items()}
    return classes, flags


def segment(relative_slope: float | None, relative_size: float, size: str,
            threshold: float = DEFAULT_GROWTH_THRESHOLD) -> dict:
    """The report's segmentation section: growth dynamics crossed with the
    portal's size class into the four-group typology.

    Dynamics are Growing when the relative slope exceeds the threshold,
    else Stable. Negative slopes are Stable too (the typology is binary)
    but carry a declining annotation. A slope of None leaves dynamics and
    quadrant None, annotated as indeterminate.
    """
    if threshold <= 0:
        raise DomainError("growth threshold must be positive")
    if size not in (LARGE, SMALL):
        raise DomainError(f"unknown size class {size!r}")
    if relative_slope is None:
        dynamics, annotations = None, [INDETERMINATE_FLAG]
    else:
        dynamics = GROWING if relative_slope > threshold else STABLE
        annotations = [DECLINING_ANNOTATION] if relative_slope < 0 else []
    return {
        "relative_slope": relative_slope,
        "relative_size": relative_size,
        "dynamics": dynamics,
        "size": size,
        "quadrant": QUADRANT_NAMES.get((dynamics, size)),
        "annotations": annotations,
    }
