"""Shareable portal reports: assembly, canonical JSON, comparison.

The shareable report carries only the low-sensitivity management metrics
(provision, organization, position) plus the two dimensionless
segmentation inputs (relative demand slope, relative content size). Raw
traffic numbers -- visit counts, recency, views per session -- never enter
it; they go to a separate local-only diagnostics document. The schema
enforces this shape, so a report that smuggles extra fields fails
validation.

REPORT_SCHEMA is a JSON Schema (draft 2020-12) document. It is checked by
a small private checker, ``_check``, that applies only the keywords the
schema uses and reads them as the draft does; the tests hold it to
jsonschema's validator. Every violation is reported, each as
``"a/b/c: message"`` (``"<root>: ..."`` for the document itself), sorted
by path. deserialize also refuses the NaN and Infinity tokens that
Python's json module would accept.

Serialization is canonical: sorted keys, minimal separators, UTF-8, one
trailing newline. Equal reports produce identical bytes, and
deserialize(serialize(r)) == r.

Comparison is guarded: portals are compared only within the same typology
quadrant, over overlapping periods, and under identical threshold and
algorithm metadata. A mismatch refuses loudly rather than producing a
number that means two different things.
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass
from datetime import datetime

from .errors import ComparabilityError, DomainError, ReportValidationError
from .position import PositionProfile
from .segmentation import SegmentLabel, GROWING, STABLE, LARGE, SMALL, QUADRANT_NAMES
from .structure import OrganizationProfile
from .usage import AnalysisPeriod, NavigationSummary

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = "1"
DEFAULT_COMPARE_MARGIN = 0.05

_SECTION_NAMES = ("provision", "organization", "position", "segmentation")

_NULLABLE_UNIT = {"type": ["number", "null"], "minimum": 0.0, "maximum": 1.0}
_NULLABLE_NONNEG = {"type": ["number", "null"], "minimum": 0.0}
_STRING_LIST = {"type": "array", "items": {"type": "string"}}


def _closed(properties: dict, nullable: bool = False) -> dict:
    """An object schema that requires exactly ``properties``, no more."""
    return {
        "type": ["object", "null"] if nullable else "object",
        "additionalProperties": False,
        "required": list(properties),
        "properties": properties,
    }


REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "portal-report.schema.json",
    **_closed({
        "schema_version": {"const": SCHEMA_VERSION},
        "portal_id": {"type": "string", "minLength": 1},
        "period": _closed({
            "start": {"type": "string"},
            "end": {"type": "string"},
            "bucket_seconds": {"type": "number", "exclusiveMinimum": 0},
        }),
        "provision": _closed({
            "diversity_offered_nats": _NULLABLE_NONNEG,
            "evenness_offered": _NULLABLE_UNIT,
            "diversity_accessed_by_visits_nats": _NULLABLE_NONNEG,
            "diversity_accessed_by_visitors_nats": _NULLABLE_NONNEG,
            "richness": _NULLABLE_UNIT,
            "average_age_days": _NULLABLE_NONNEG,
            "high_demand_low_offer": _STRING_LIST,
            "high_offer_low_demand": _STRING_LIST,
        }, nullable=True),
        "organization": _closed({
            "depth": {"type": "number", "minimum": 0},
            "unreachable_pages": {"type": "integer", "minimum": 0},
            "density": {"type": "number", "minimum": 0, "maximum": 1},
            "navigability": _NULLABLE_UNIT,
            "linearity": _NULLABLE_UNIT,
            "navigation": _closed({
                "complexity_mean": _NULLABLE_UNIT,
                "complexity_median": _NULLABLE_UNIT,
                "linearity_mean": _NULLABLE_UNIT,
                "linearity_median": _NULLABLE_UNIT,
                "high_linearity_share": _NULLABLE_UNIT,
                "linearity_band": {"type": "number",
                                   "exclusiveMinimum": 0, "maximum": 1},
            }, nullable=True),
            "flags": _STRING_LIST,
        }, nullable=True),
        "position": _closed({
            "site": {"type": "string"},
            "in_degree": {"type": "integer", "minimum": 0},
            "out_degree": {"type": "integer", "minimum": 0},
            "weighted_in_degree": {"type": "integer", "minimum": 0},
            "weighted_out_degree": {"type": "integer", "minimum": 0},
            "degree": {"type": "integer", "minimum": 0},
            "adjacent_communities": {"type": "integer", "minimum": 0},
            "bridge_score": _NULLABLE_UNIT,
            "authority": {"type": "boolean"},
            "hub": {"type": "boolean"},
            "bridge": {"type": "boolean"},
            "flags": _STRING_LIST,
        }, nullable=True),
        "segmentation": _closed({
            "relative_slope": {"type": ["number", "null"]},
            "relative_size": {"type": "number",
                              "exclusiveMinimum": 0, "maximum": 1},
            "dynamics": {"enum": [GROWING, STABLE, None]},
            "size": {"enum": [LARGE, SMALL]},
            "quadrant": {"enum": sorted(QUADRANT_NAMES.values()) + [None]},
            "annotations": _STRING_LIST,
        }, nullable=True),
        "metadata": _closed({
            "tool_version": {"type": "string"},
            "thresholds": {
                "type": "object",
                "additionalProperties": {
                    "type": ["number", "string", "boolean", "null"],
                },
            },
            "algorithms": {
                "type": "object",
                "additionalProperties": {"type": ["string", "number"]},
            },
            "flags": _STRING_LIST,
            "missing_sections": _STRING_LIST,
        }),
    }),
}


@dataclass(frozen=True)
class PortalReport:
    """One portal's shareable metric bundle; sections are plain dicts so
    the in-memory form and the JSON form coincide."""

    schema_version: str
    portal_id: str
    period: dict
    provision: dict | None
    organization: dict | None
    position: dict | None
    segmentation: dict | None
    metadata: dict

    def section(self, name: str) -> dict | None:
        if name not in _SECTION_NAMES:
            raise DomainError(f"unknown report section {name!r}")
        return getattr(self, name)


def canonical_json(document) -> bytes:
    """Canonical byte encoding: sorted keys, no spaces, UTF-8, newline."""
    try:
        text = json.dumps(document, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False, allow_nan=False)
    except (ValueError, TypeError) as exc:
        raise ReportValidationError(f"document is not JSON-encodable: {exc}")
    return text.encode("utf-8") + b"\n"


# The keywords _check applies. Annotations ("$schema", "$id") are not
# checked; tests/test_report.py fails if REPORT_SCHEMA uses any other keyword.
_CHECKED_KEYWORDS = frozenset({
    "type", "const", "enum", "minimum", "maximum", "exclusiveMinimum",
    "minLength", "required", "properties", "additionalProperties", "items",
})

_IS_TYPE = {
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "integer": lambda v: ((isinstance(v, int) and not isinstance(v, bool))
                          or (isinstance(v, float) and v.is_integer())),
}

# (keyword, test that the value breaks it, wording) for the numeric bounds.
_BOUNDS = (("minimum", operator.lt, "below the minimum"),
           ("exclusiveMinimum", operator.le, "not above"),
           ("maximum", operator.gt, "above the maximum"))


def _check(schema: dict, value, path: tuple, out: list) -> None:
    """Append ``(path, keyword, message)`` to ``out`` for every way
    ``value`` breaks ``schema``, reading the keywords as JSON Schema draft
    2020-12 does: each applies only to values of its own JSON type, a
    failed "type" does not stop the others, "required" fails once per
    missing key and "additionalProperties": false once per object."""
    def fail(keyword: str, message: str) -> None:
        out.append((path, keyword, message))

    if "type" in schema:
        types = schema["type"]
        types = [types] if isinstance(types, str) else types
        if not any(_IS_TYPE[t](value) for t in types):
            fail("type", f"{value!r} is not of type {' or '.join(types)}")
    # const and enum hold only strings and None here, so == is JSON equality.
    if "const" in schema and value != schema["const"]:
        fail("const", f"{schema['const']!r} was expected, not {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        fail("enum", f"{value!r} is not one of {schema['enum']!r}")
    if _IS_TYPE["number"](value):
        for keyword, breaks, words in _BOUNDS:
            if keyword in schema and breaks(value, schema[keyword]):
                fail(keyword, f"{value!r} is {words} {schema[keyword]!r}")
    elif isinstance(value, str):
        if "minLength" in schema and len(value) < schema["minLength"]:
            fail("minLength", f"{value!r} is shorter than "
                              f"{schema['minLength']} character(s)")
    elif isinstance(value, list):
        if "items" in schema:
            for index, item in enumerate(value):
                _check(schema["items"], item, path + (index,), out)
    elif isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                fail("required", f"{key!r} is a required property")
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        unexpected = [key for key in value if key not in properties]
        if extra is False and unexpected:
            fail("additionalProperties", "unexpected properties "
                                         + ", ".join(map(repr, unexpected)))
        for key, item in value.items():
            if key in properties:
                _check(properties[key], item, path + (key,), out)
            elif isinstance(extra, dict):
                _check(extra, item, path + (key,), out)


def _collect_violations(document) -> list[str]:
    found: list = []
    _check(REPORT_SCHEMA, document, (), found)
    found.sort(key=lambda v: ([str(p) for p in v[0]], v[2]))
    return [f"{'/'.join(map(str, path)) or '<root>'}: {message}"
            for path, _keyword, message in found]


def validate_document(document) -> None:
    violations = _collect_violations(document)
    if violations:
        raise ReportValidationError(
            f"report fails schema validation ({len(violations)} violation(s))",
            violations=violations,
        )


def serialize(report: PortalReport) -> bytes:
    """Canonical bytes of a report; validates against the schema first."""
    document = asdict(report)
    validate_document(document)
    return canonical_json(document)


def _reject_constant(name: str):
    raise ReportValidationError(f"report holds {name}, which is not a JSON "
                                "number")


def deserialize(data) -> PortalReport:
    """Parse and validate canonical report bytes back into a PortalReport."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        document = json.loads(data, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ReportValidationError(f"report is not valid JSON: {exc}")
    if not isinstance(document, dict):
        raise ReportValidationError("report document must be a JSON object")
    validate_document(document)
    return PortalReport(**document)


def period_section(period: AnalysisPeriod) -> dict:
    return {
        "start": period.start.isoformat(),
        "end": period.end.isoformat(),
        "bucket_seconds": period.bucket.total_seconds(),
    }


def organization_section(profile: OrganizationProfile,
                         navigation: NavigationSummary | None = None) -> dict:
    nav = None
    if navigation is not None:
        nav = {
            "complexity_mean": navigation.complexity_mean,
            "complexity_median": navigation.complexity_median,
            "linearity_mean": navigation.linearity_mean,
            "linearity_median": navigation.linearity_median,
            "high_linearity_share": navigation.high_linearity_share,
            "linearity_band": navigation.linearity_band,
        }
    return {
        "depth": profile.depth,
        "unreachable_pages": profile.unreachable,
        "density": profile.density,
        "navigability": profile.navigability,
        "linearity": profile.linearity,
        "navigation": nav,
        "flags": list(profile.flags),
    }


def position_section(profile: PositionProfile) -> dict:
    return {
        "site": profile.site,
        "in_degree": profile.in_degree,
        "out_degree": profile.out_degree,
        "weighted_in_degree": profile.weighted_in_degree,
        "weighted_out_degree": profile.weighted_out_degree,
        "degree": profile.degree,
        "adjacent_communities": profile.adjacent_communities,
        "bridge_score": profile.bridge_score,
        "authority": profile.authority,
        "hub": profile.hub,
        "bridge": profile.bridge,
        "flags": list(profile.flags),
    }


def segmentation_section(relative_slope: float | None, relative_size: float,
                         label: SegmentLabel) -> dict:
    return {
        "relative_slope": relative_slope,
        "relative_size": relative_size,
        "dynamics": label.dynamics,
        "size": label.size,
        "quadrant": label.quadrant,
        "annotations": list(label.annotations),
    }


def assemble_report(portal_id: str, period: AnalysisPeriod, *,
                    provision: dict | None = None,
                    organization: dict | None = None,
                    position: dict | None = None,
                    segmentation: dict | None = None,
                    thresholds: dict | None = None,
                    algorithms: dict | None = None,
                    flags=()) -> PortalReport:
    """Bundle section dicts into a report.

    Sections may be absent; their names land in metadata.missing_sections.
    At least one section must be present. Thresholds and algorithm choices
    are echoed verbatim so the comparability guard can hold reports to
    identical methodology.
    """
    sections = {"provision": provision, "organization": organization,
                "position": position, "segmentation": segmentation}
    missing = [name for name in _SECTION_NAMES if sections[name] is None]
    if len(missing) == len(_SECTION_NAMES):
        raise DomainError("refusing to assemble an empty report: "
                          "no module produced output")
    return PortalReport(
        schema_version=SCHEMA_VERSION,
        portal_id=portal_id,
        period=period_section(period),
        provision=provision,
        organization=organization,
        position=position,
        segmentation=segmentation,
        metadata={
            "tool_version": TOOL_VERSION,
            "thresholds": dict(thresholds or {}),
            "algorithms": dict(algorithms or {}),
            "flags": list(flags),
            "missing_sections": missing,
        },
    )


def build_diagnostics(portal_id: str, period: AnalysisPeriod, *,
                      demand, recency_result, session_count, tallies,
                      activity=None, navigation=None) -> dict:
    """Local-only companion document holding the sensitive raw numbers.

    This is the file that stays on the portal operator's machine: visit
    counts per bucket, recency, views per session. Never ship it; the
    shareable report schema rejects these fields by construction.
    """
    seconds = None
    if recency_result.mean_between_visits is not None:
        seconds = recency_result.mean_between_visits.total_seconds()
    navigation_block = None
    if navigation is not None:
        navigation_block = {
            "sessions_measured": navigation.sessions_measured,
            "sessions_skipped": navigation.sessions_skipped,
        }
    return {
        "kind": "local-diagnostics",
        "portal_id": portal_id,
        "period": period_section(period),
        "demand": {
            "bucket_starts": [start.isoformat() for start, _ in demand.buckets],
            "visit_counts": [count for _, count in demand.buckets],
            "total_visits": demand.total,
        },
        "recency": {
            "mean_seconds_between_visits": seconds,
            "eligible_visitors": recency_result.eligible_visitors,
            "single_visit_visitors": recency_result.single_visit_visitors,
        },
        "views_per_session": activity,
        "session_count": session_count,
        "navigation_sessions": navigation_block,
        "tallies": dict(tallies),
    }


# Metrics eligible for within-segment ranking. direction "higher"/"lower"
# says which end is better; None means the metric has no agreed better
# direction (linearity: 1 is a rigid corridor, 0 a trackless mesh), so it
# appears in deltas but never in rankings or learning pointers.
COMPARED_METRICS = (
    ("provision", "diversity_offered_nats", "higher"),
    ("provision", "evenness_offered", "higher"),
    ("provision", "richness", "higher"),
    ("provision", "average_age_days", "lower"),
    ("provision", "diversity_accessed_by_visits_nats", "higher"),
    ("provision", "diversity_accessed_by_visitors_nats", "higher"),
    ("organization", "depth", "lower"),
    ("organization", "density", "higher"),
    ("organization", "navigability", "higher"),
    ("organization", "linearity", None),
    ("position", "in_degree", "higher"),
    ("position", "out_degree", "higher"),
    ("position", "adjacent_communities", "higher"),
)


@dataclass(frozen=True)
class NetworkComparison:
    """Within-segment rankings, pairwise deltas, and learning pointers."""

    groups: dict
    rankings: dict
    deltas: dict
    pointers: dict
    skipped: tuple[str, ...]
    margin: float

    def to_document(self) -> dict:
        return {
            "kind": "network-comparison",
            "margin": self.margin,
            "groups": self.groups,
            "rankings": self.rankings,
            "deltas": self.deltas,
            "pointers": self.pointers,
            "skipped": list(self.skipped),
        }

    def to_json(self) -> bytes:
        return canonical_json(self.to_document())

    def to_text(self) -> str:
        lines = [f"Within-segment comparison (margin {self.margin:.1%})"]
        if self.skipped:
            lines.append(f"Unsegmented portals skipped: {', '.join(self.skipped)}")
        for quadrant in sorted(self.groups):
            lines.append("")
            lines.append(f"Segment: {quadrant}")
            lines.append(f"  Portals: {', '.join(self.groups[quadrant])}")
            for metric, ranked in self.rankings[quadrant].items():
                shown = " > ".join(f"{r['portal']} ({r['value']:.4g})" for r in ranked)
                lines.append(f"  {metric}: {shown}")
            group_pointers = self.pointers[quadrant]
            if group_pointers:
                lines.append("  Learning pointers:")
                for p in group_pointers:
                    lines.append(
                        f"    {p['portal']} could study {p['leader']} on "
                        f"{p['metric']} (trails by {p['relative_gap']:.1%})"
                    )
            else:
                lines.append("  Learning pointers: none above margin")
        return "\n".join(lines) + "\n"


def _parse_period(section: dict) -> tuple[datetime, datetime]:
    return (datetime.fromisoformat(section["start"]),
            datetime.fromisoformat(section["end"]))


def _guard_group(quadrant: str, reports: list[PortalReport]) -> None:
    first = reports[0]
    for other in reports[1:]:
        if other.metadata["thresholds"] != first.metadata["thresholds"]:
            differing = sorted(
                k for k in set(first.metadata["thresholds"])
                | set(other.metadata["thresholds"])
                if first.metadata["thresholds"].get(k)
                != other.metadata["thresholds"].get(k)
            )
            raise ComparabilityError(
                f"refusing to compare {first.portal_id!r} and "
                f"{other.portal_id!r} in segment {quadrant!r}: threshold "
                f"metadata differs on {', '.join(differing)}"
            )
        if other.metadata["algorithms"] != first.metadata["algorithms"]:
            raise ComparabilityError(
                f"refusing to compare {first.portal_id!r} and "
                f"{other.portal_id!r} in segment {quadrant!r}: algorithm "
                f"metadata differs"
            )
    for i, a in enumerate(reports):
        a_start, a_end = _parse_period(a.period)
        for b in reports[i + 1:]:
            b_start, b_end = _parse_period(b.period)
            if max(a_start, b_start) >= min(a_end, b_end):
                raise ComparabilityError(
                    f"refusing to compare {a.portal_id!r} and "
                    f"{b.portal_id!r}: analysis periods do not overlap"
                )


def compare_within_segment(reports,
                           margin: float = DEFAULT_COMPARE_MARGIN
                           ) -> NetworkComparison:
    """Rank same-segment portals per metric and emit learning pointers.

    A pointer names the segment leader for every portal trailing it by
    more than ``margin`` (relative to the leader's value) on a direction-
    bearing metric. Refuses with ComparabilityError when reports in a
    shared segment differ in threshold/algorithm metadata or their periods
    do not overlap.
    """
    reports = list(reports)
    if len(reports) < 2:
        raise DomainError("comparison needs at least 2 reports")
    if margin < 0:
        raise DomainError("comparison margin cannot be negative")
    seen = set()
    for r in reports:
        if r.portal_id in seen:
            raise DomainError(f"duplicate report for portal {r.portal_id!r}")
        seen.add(r.portal_id)

    by_quadrant: dict = {}
    skipped: list[str] = []
    for r in reports:
        quadrant = (r.segmentation or {}).get("quadrant")
        if quadrant is None:
            skipped.append(r.portal_id)
        else:
            by_quadrant.setdefault(quadrant, []).append(r)
    groups = {q: sorted(rs, key=lambda r: r.portal_id)
              for q, rs in by_quadrant.items() if len(rs) >= 2}
    if not groups:
        raise DomainError("no two reports share a segment; nothing to compare")

    group_names: dict = {}
    rankings: dict = {}
    deltas: dict = {}
    pointers: dict = {}
    for quadrant in sorted(groups):
        members = groups[quadrant]
        _guard_group(quadrant, members)
        group_names[quadrant] = [r.portal_id for r in members]
        rankings[quadrant] = {}
        deltas[quadrant] = []
        pointers[quadrant] = []
        for section_name, key, direction in COMPARED_METRICS:
            metric = f"{section_name}.{key}"
            values = []
            for r in members:
                section = r.section(section_name)
                if section is None:
                    continue
                value = section.get(key)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    values.append((r.portal_id, float(value)))
            if len(values) < 2:
                continue
            for i, (pa, va) in enumerate(values):
                for pb, vb in values[i + 1:]:
                    deltas[quadrant].append({
                        "metric": metric, "portal_a": pa, "portal_b": pb,
                        "difference": va - vb,
                    })
            if direction is None:
                continue
            best_first = sorted(
                values, key=lambda pv: (-pv[1] if direction == "higher" else pv[1], pv[0])
            )
            rankings[quadrant][metric] = [
                {"portal": p, "value": v} for p, v in best_first
            ]
            leader, best = best_first[0]
            for portal, value in best_first[1:]:
                shortfall = best - value if direction == "higher" else value - best
                if shortfall <= 0:
                    continue
                # Leader at exactly 0 (e.g. depth): fall back to the
                # trailing value as the scale so the gap stays finite.
                denom = abs(best) if best != 0 else abs(value)
                rel = shortfall / denom
                if rel > margin:
                    pointers[quadrant].append({
                        "metric": metric, "portal": portal, "leader": leader,
                        "relative_gap": rel,
                    })
    return NetworkComparison(groups=group_names, rankings=rankings,
                             deltas=deltas, pointers=pointers,
                             skipped=tuple(sorted(skipped)), margin=margin)
