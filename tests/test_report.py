"""Report schema, canonical serialization, and within-segment comparison."""

import copy
import hashlib
import json
import math
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from portalmetrics import report
from portalmetrics.errors import (ComparabilityError, DomainError,
                                  ReportValidationError)
from portalmetrics.usage import AnalysisPeriod

T0 = datetime(2026, 3, 2, tzinfo=timezone.utc)
PERIOD = AnalysisPeriod(start=T0, end=T0 + timedelta(days=3))

GROW_LARGE = "Growing portals with large relative size"
STABLE_SMALL = "Stable portals with small relative size"

THRESHOLDS = {"growth_threshold": 0.05, "gap_threshold": 0.10}
ALGORITHMS = {"community": "synchronous-label-propagation", "community_seed": 0}


def _provision(**over):
    base = {
        "diversity_offered_nats": 1.2,
        "evenness_offered": 0.8,
        "diversity_accessed_by_visits_nats": 1.0,
        "diversity_accessed_by_visitors_nats": 0.9,
        "richness": 0.5,
        "average_age_days": 120.0,
        "high_demand_low_offer": [],
        "high_offer_low_demand": [],
    }
    base.update(over)
    return base


def _organization(**over):
    base = {
        "depth": 2.0,
        "unreachable_pages": 0,
        "density": 0.25,
        "navigability": 0.8,
        "linearity": 0.4,
        "navigation": None,
        "flags": [],
    }
    base.update(over)
    return base


def _position(**over):
    base = {
        "site": "a.example",
        "in_degree": 2,
        "out_degree": 1,
        "weighted_in_degree": 4,
        "weighted_out_degree": 2,
        "degree": 3,
        "adjacent_communities": 1,
        "bridge_score": 0.5,
        "authority": False,
        "hub": False,
        "bridge": False,
        "flags": [],
    }
    base.update(over)
    return base


def _segmentation(quadrant=GROW_LARGE, **over):
    dynamics, size = {
        GROW_LARGE: ("Growing", "Large"),
        STABLE_SMALL: ("Stable", "Small"),
    }[quadrant]
    base = {
        "relative_slope": 0.5,
        "relative_size": 0.5,
        "dynamics": dynamics,
        "size": size,
        "quadrant": quadrant,
        "annotations": [],
    }
    base.update(over)
    return base


def _report(portal_id="alpha", *, period=PERIOD, quadrant=GROW_LARGE,
            thresholds=None, algorithms=None, **sections):
    kwargs = {
        "provision": _provision(),
        "organization": _organization(),
        "position": _position(),
        "segmentation": _segmentation(quadrant),
    }
    kwargs.update(sections)
    return report.assemble_report(
        portal_id, period,
        thresholds=THRESHOLDS if thresholds is None else thresholds,
        algorithms=ALGORITHMS if algorithms is None else algorithms,
        **kwargs)


class TestCanonicalJson:
    def test_key_order_independence(self):
        a = report.canonical_json({"b": 1, "a": [1, 2]})
        b = report.canonical_json({"a": [1, 2], "b": 1})
        assert a == b

    def test_compact_utf8_with_trailing_newline(self):
        data = report.canonical_json({"k": "héllo"})
        assert data == '{"k":"héllo"}\n'.encode("utf-8")

    def test_nan_rejected(self):
        with pytest.raises(ReportValidationError):
            report.canonical_json({"x": math.nan})

    def test_infinity_rejected(self):
        with pytest.raises(ReportValidationError):
            report.canonical_json({"x": math.inf})

    def test_unencodable_type_rejected(self):
        with pytest.raises(ReportValidationError):
            report.canonical_json({"x": T0})


class TestSchemaAndRoundTrip:
    def test_full_report_round_trips_identically(self):
        original = _report()
        data = report.serialize(original)
        restored = report.deserialize(data)
        assert restored == original
        assert report.serialize(restored) == data

    def test_serialization_is_byte_stable(self):
        assert report.serialize(_report()) == report.serialize(_report())

    def test_missing_sections_recorded_and_valid(self):
        r = _report(provision=None, position=None)
        assert r["metadata"]["missing_sections"] == ["provision", "position"]
        restored = report.deserialize(report.serialize(r))
        assert restored["provision"] is None

    def test_all_sections_missing_rejected(self):
        with pytest.raises(DomainError):
            report.assemble_report("alpha", PERIOD, thresholds={},
                                   algorithms={})

    def test_nullable_accessed_diversity_round_trips(self):
        r = _report(provision=_provision(
            diversity_accessed_by_visits_nats=None,
            diversity_accessed_by_visitors_nats=None))
        restored = report.deserialize(report.serialize(r))
        provision = restored["provision"]
        assert provision["diversity_accessed_by_visits_nats"] is None

    def test_violation_lists_path(self):
        r = _report(organization=_organization(density=1.5))
        with pytest.raises(ReportValidationError) as excinfo:
            report.serialize(r)
        assert any("organization/density" in v for v in excinfo.value.violations)

    def test_negative_degree_rejected(self):
        r = _report(position=_position(in_degree=-1))
        with pytest.raises(ReportValidationError):
            report.serialize(r)

    def test_unknown_field_rejected(self):
        r = _report(provision=dict(_provision(), visit_counts=[5, 6]))
        with pytest.raises(ReportValidationError) as excinfo:
            report.serialize(r)
        assert any("visit_counts" in v for v in excinfo.value.violations)

    def test_wrong_schema_version_rejected(self):
        document = json.loads(report.serialize(_report()))
        document["schema_version"] = "999"
        with pytest.raises(ReportValidationError):
            report.validate_document(document)

    def test_bad_quadrant_string_rejected(self):
        document = json.loads(report.serialize(_report()))
        document["segmentation"]["quadrant"] = "Growing portals, large"
        with pytest.raises(ReportValidationError):
            report.validate_document(document)

    def test_deserialize_rejects_non_json(self):
        with pytest.raises(ReportValidationError):
            report.deserialize(b"not json at all")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_deserialize_rejects_non_finite_numbers(self, token):
        data = report.serialize(_report())
        assert b'"density":0.25' in data
        data = data.replace(b'"density":0.25', b'"density":' + token.encode())
        with pytest.raises(ReportValidationError, match=token):
            report.deserialize(data)

    @pytest.mark.parametrize("number", [b"1e400", b"-1e400", b"9" * 309,
                                        b"1" + b"0" * 5000])
    def test_deserialize_rejects_numbers_beyond_floats(self, number):
        data = report.serialize(_report())
        assert b'"depth":2.0' in data
        data = data.replace(b'"depth":2.0', b'"depth":' + number)
        with pytest.raises(ReportValidationError,
                           match="does not fit a finite float"):
            report.deserialize(data)

    def test_deserialize_keeps_the_largest_floats(self):
        data = report.serialize(_report()).replace(
            b'"depth":2.0', b'"depth":' + b"9" * 308)
        assert report.deserialize(data)["organization"]["depth"] == int(
            "9" * 308)

    # The last seven are read by Python 3.11's fromisoformat, not by
    # README's grammar.
    @pytest.mark.parametrize("bound", [
        "2026-03-02T00:00:00", "2026-03-02", "March 2, 2026", "",
        "2026-03-02T00:00:00Z", "2026-03-02T00:00:00+0000",
        "2026-03-02T00:00:00+00", "2026-03-02T00:00:00.5+00:00",
        "2026-03-02T00:00:00,123+00:00", "20260301", "2026-W09-7"])
    def test_deserialize_rejects_period_bounds_without_offset(self, bound):
        document = json.loads(report.serialize(_report()))
        document["period"]["start"] = bound
        with pytest.raises(ReportValidationError,
                           match="period/start: .* is not an ISO date-time "
                                 "with a UTC offset"):
            report.deserialize(json.dumps(document))


SENSITIVE_FIELD_NAMES = {
    "visit_counts", "total_visits", "session_count", "views_per_session",
    "mean_seconds_between_visits", "eligible_visitors",
    "single_visit_visitors", "sessions_measured", "sessions_skipped",
    "demand", "recency",
}


def _schema_property_names(node):
    names = set()
    if isinstance(node, dict):
        for key, value in node.get("properties", {}).items():
            names.add(key)
            names |= _schema_property_names(value)
        for sub in ("items", "additionalProperties"):
            if isinstance(node.get(sub), dict):
                names |= _schema_property_names(node[sub])
    return names


class TestSensitivityGuard:
    def test_schema_names_no_sensitive_field(self):
        names = _schema_property_names(report.REPORT_SCHEMA)
        assert names, "schema walk found no properties; walker is broken"
        assert names & SENSITIVE_FIELD_NAMES == set()

    def test_smuggled_visit_counts_fail_validation(self):
        document = json.loads(report.serialize(_report()))
        document["demand"] = {"visit_counts": [10, 20, 30]}
        with pytest.raises(ReportValidationError):
            report.validate_document(document)

    def test_diagnostics_hold_the_raw_numbers_instead(self):
        rec = {"mean_seconds_between_visits": 172_800.0,
               "eligible_visitors": 4, "single_visit_visitors": 1}
        diag = report.build_diagnostics(
            "alpha", PERIOD, demand=[10, 20, 30], recency=rec, activity=3.0,
            session_count=60, tallies={"bot_entries": 45})
        assert diag["kind"] == "local-diagnostics"
        assert diag["demand"]["bucket_starts"] == [
            start.isoformat() for start in PERIOD.bucket_starts()]
        assert diag["demand"]["visit_counts"] == [10, 20, 30]
        assert diag["demand"]["total_visits"] == 60
        assert diag["recency"] == rec
        assert diag["views_per_session"] == 3.0
        assert diag["tallies"] == {"bot_entries": 45}
        # and the shareable schema refuses the whole thing
        with pytest.raises(ReportValidationError):
            report.validate_document(diag)


class TestComparison:
    def test_pointer_names_leader_and_gap(self):
        strong = _report("alpha", organization=_organization(navigability=0.9))
        weak = _report("beta", organization=_organization(navigability=0.3))
        comparison = report.compare_within_segment([strong, weak])
        pointers = comparison["pointers"][GROW_LARGE]
        nav = [p for p in pointers if p["metric"] == "organization.navigability"]
        assert len(nav) == 1
        assert nav[0]["portal"] == "beta"
        assert nav[0]["leader"] == "alpha"
        assert nav[0]["relative_gap"] == pytest.approx((0.9 - 0.3) / 0.9)
        text = report.comparison_text(comparison)
        assert "beta could study alpha on organization.navigability" in text

    def test_rankings_orient_by_direction(self):
        shallow = _report("alpha", organization=_organization(depth=1.5))
        deep = _report("beta", organization=_organization(depth=4.0))
        comparison = report.compare_within_segment([shallow, deep])
        ranked = comparison["rankings"][GROW_LARGE]["organization.depth"]
        assert [r["portal"] for r in ranked] == ["alpha", "beta"]

    def test_margin_is_strict_relative_threshold(self):
        top = _report("alpha", provision=_provision(richness=1.0))
        near = _report("beta", provision=_provision(richness=0.97))
        wide = report.compare_within_segment([top, near], margin=0.05)
        assert not any(p["metric"] == "provision.richness"
                       for p in wide["pointers"][GROW_LARGE])
        tight = report.compare_within_segment([top, near], margin=0.01)
        assert any(p["metric"] == "provision.richness"
                   for p in tight["pointers"][GROW_LARGE])

    def test_linearity_in_deltas_but_never_ranked(self):
        a = _report("alpha", organization=_organization(linearity=0.9))
        b = _report("beta", organization=_organization(linearity=0.1))
        comparison = report.compare_within_segment([a, b])
        rankings = comparison["rankings"][GROW_LARGE]
        assert "organization.linearity" not in rankings
        assert not any(p["metric"] == "organization.linearity"
                       for p in comparison["pointers"][GROW_LARGE])
        linearity_deltas = [d for d in comparison["deltas"][GROW_LARGE]
                            if d["metric"] == "organization.linearity"]
        assert len(linearity_deltas) == 1
        assert linearity_deltas[0]["difference"] == pytest.approx(0.8)

    def test_zero_leader_value_keeps_gap_finite(self):
        best = _report("alpha", organization=_organization(depth=0.0))
        worse = _report("beta", organization=_organization(depth=2.0))
        comparison = report.compare_within_segment([best, worse])
        depth_pointers = [p for p in comparison["pointers"][GROW_LARGE]
                          if p["metric"] == "organization.depth"]
        assert depth_pointers[0]["relative_gap"] == pytest.approx(1.0)
        report.canonical_json(comparison)  # JSON-encodable: no infinities

    @pytest.mark.parametrize("section,key", [
        ("organization", "depth"), ("provision", "average_age_days")])
    def test_gap_beyond_floats_is_refused_by_name(self, section, key):
        # A lower-is-better leader near the smallest float: the shortfall
        # over the leader's value overflows to infinity.
        parts = {"organization": _organization, "provision": _provision}
        best = _report("alpha", **{section: parts[section](**{key: 5e-324})})
        worse = _report("beta", **{section: parts[section](**{key: 1e308})})
        with pytest.raises(ComparabilityError) as info:
            report.compare_within_segment([best, worse])
        assert str(info.value) == (
            f"refusing to compare 'alpha' and 'beta' in segment "
            f"{GROW_LARGE!r}: the relative gap on {section}.{key} (1e+308 "
            f"against 5e-324) is not a finite number")

    def test_largest_finite_gap_is_kept(self):
        best = _report("alpha", organization=_organization(depth=1e-300))
        worse = _report("beta", organization=_organization(depth=1e7))
        comparison = report.compare_within_segment([best, worse])
        (gap,) = [p["relative_gap"] for p in comparison["pointers"][GROW_LARGE]
                  if p["metric"] == "organization.depth"]
        assert gap == (1e7 - 1e-300) / 1e-300
        report.canonical_json(comparison)

    def test_missing_section_metric_skipped(self):
        a = _report("alpha", position=None)
        b = _report("beta", position=None)
        comparison = report.compare_within_segment([a, b])
        assert not any(m.startswith("position.")
                       for m in comparison["rankings"][GROW_LARGE])

    def test_third_portal_in_other_segment_left_out(self):
        a = _report("alpha")
        b = _report("beta")
        c = _report("gamma", quadrant=STABLE_SMALL)
        comparison = report.compare_within_segment([a, b, c])
        assert comparison["groups"] == {GROW_LARGE: ["alpha", "beta"]}
        assert comparison["skipped"] == []

    def test_unsegmented_portal_skipped_and_listed(self):
        a = _report("alpha")
        b = _report("beta")
        c = _report("gamma", segmentation=None)
        comparison = report.compare_within_segment([a, b, c])
        assert comparison["skipped"] == ["gamma"]

    def test_two_reports_without_shared_segment_refused(self):
        a = _report("alpha")
        b = _report("beta", quadrant=STABLE_SMALL)
        with pytest.raises(DomainError):
            report.compare_within_segment([a, b])

    def test_fewer_than_two_reports_refused(self):
        with pytest.raises(DomainError):
            report.compare_within_segment([_report("alpha")])

    def test_duplicate_portal_ids_refused(self):
        with pytest.raises(DomainError):
            report.compare_within_segment([_report("alpha"), _report("alpha")])

    def test_threshold_mismatch_refused_naming_key(self):
        a = _report("alpha")
        b = _report("beta", thresholds={"growth_threshold": 0.10,
                                        "gap_threshold": 0.10})
        with pytest.raises(ComparabilityError, match="growth_threshold"):
            report.compare_within_segment([a, b])

    def test_algorithm_mismatch_refused(self):
        a = _report("alpha")
        b = _report("beta", algorithms={"community": "louvain"})
        with pytest.raises(ComparabilityError):
            report.compare_within_segment([a, b])

    def test_non_overlapping_periods_refused(self):
        later = AnalysisPeriod(start=T0 + timedelta(days=3),
                               end=T0 + timedelta(days=6))
        a = _report("alpha")
        b = _report("beta", period=later)
        with pytest.raises(ComparabilityError):
            report.compare_within_segment([a, b])

    def test_touching_periods_do_not_overlap(self):
        # [0,3) and [3,6): boundary contact is not overlap
        later = AnalysisPeriod(start=T0 + timedelta(days=3),
                               end=T0 + timedelta(days=6))
        a = _report("alpha")
        b = _report("beta", period=later)
        with pytest.raises(ComparabilityError):
            report.compare_within_segment([a, b])

    def test_partially_overlapping_periods_allowed(self):
        shifted = AnalysisPeriod(start=T0 + timedelta(days=1),
                                 end=T0 + timedelta(days=4))
        a = _report("alpha")
        b = _report("beta", period=shifted)
        comparison = report.compare_within_segment([a, b])
        assert comparison["groups"][GROW_LARGE] == ["alpha", "beta"]

    def test_comparison_document_is_canonical(self):
        a = _report("alpha", organization=_organization(navigability=0.9))
        b = _report("beta", organization=_organization(navigability=0.3))
        comparison = report.compare_within_segment([a, b])
        assert json.loads(report.canonical_json(comparison)) == comparison
        assert comparison["kind"] == "network-comparison"


# sha256 of canonical_json(REPORT_SCHEMA). The schema is the contract
# between portals: a change to it must update this digest on purpose.
SCHEMA_DIGEST = "674c465440687957238b807093bc6ee50d4794418ecdad81dc6f0d5c71523434"

ANNOTATIONS = {"$schema", "$id"}


def _subschemas(node):
    """``node`` and every subschema below it."""
    yield node
    for sub in node.get("properties", {}).values():
        yield from _subschemas(sub)
    for key in ("items", "additionalProperties"):
        if isinstance(node.get(key), dict):
            yield from _subschemas(node[key])


NAVIGATION = {
    "complexity_mean": 0.3, "complexity_median": 0.25,
    "linearity_mean": 0.6, "linearity_median": None,
    "high_linearity_share": 0.1, "linearity_band": 0.8,
}

# A valid report with every section, a navigation block and threshold and
# algorithm values of each allowed type; the oracle test mutates copies.
VALID = json.loads(report.serialize(_report(
    organization=_organization(navigation=NAVIGATION),
    provision=_provision(high_demand_low_offer=["algebra", "biology"]),
    thresholds={"growth_threshold": 0.05, "distance_k": None,
                "bridge_min_communities": 2, "use_auth_user": True,
                "visitor_key": "auth-user"},
    algorithms={"community": "synchronous-label-propagation",
                "community_seed": 0},
)))

FIELD_NAMES = sorted(_schema_property_names(report.REPORT_SCHEMA))

NUMBERS = st.one_of(
    st.integers(-2, 2), st.integers(),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, -3.0, 0.5, 1.5, -0.5, 1e300,
                     math.nan, math.inf, -math.inf]),
    st.floats(),
)
# Numbers at the schema's bounds and types: integral floats, negative
# fractions, signed zeros, non-finite values and bools.
EDGE_NUMBERS = st.sampled_from([0, 0.0, -0.0, 1, 1.0, -1, 0.5, -0.5, 1.5, 2.0,
                                math.nan, math.inf, -math.inf, True, False])
SCALARS = st.one_of(
    st.none(), st.booleans(), NUMBERS, st.text(max_size=4),
    st.sampled_from(["", "1", "Growing", "Stable", "Large", "Small",
                     GROW_LARGE, STABLE_SMALL]),
)
KEYS = st.text(max_size=3) | st.sampled_from(FIELD_NAMES)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6)
SECTIONS = st.sampled_from(
    [VALID[name] for name in VALID if isinstance(VALID[name], dict)]
).map(copy.deepcopy)


def _nodes(value, path=()):
    """(path, value) for ``value`` and everything inside it, root first."""
    yield path, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _nodes(item, path + (key,))


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parent(nodes, path):
    return next(node for p, node in nodes if p == path[:-1])


@st.composite
def mutated_reports(draw):
    """A copy of VALID with one to three mutations: a value replaced, a
    number set to an edge value, a key or item deleted or added at any
    depth, or a whole section replaced."""
    doc = copy.deepcopy(VALID)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "number", "number", "delete",
                                   "add", "section"]))
        nodes = list(_nodes(doc))
        if op == "number":
            numbers = [path for path, n in nodes if path and _is_number(n)]
            if numbers:
                path = draw(st.sampled_from(numbers))
                _parent(nodes, path)[path[-1]] = draw(EDGE_NUMBERS)
        elif op == "section" and isinstance(doc, dict):
            name = draw(st.sampled_from(sorted(VALID)))
            doc[name] = draw(SECTIONS | JSON_VALUES)
        elif op == "replace":
            path, _ = draw(st.sampled_from(nodes))
            value = draw(st.one_of(NUMBERS, SCALARS, JSON_VALUES, SECTIONS))
            if not path:
                doc = value
                continue
            _parent(nodes, path)[path[-1]] = value
        else:
            containers = [n for _, n in nodes if isinstance(n, (dict, list))
                          and (n or op == "add")]
            if not containers:
                continue
            node = draw(st.sampled_from(containers))
            if op == "add" and isinstance(node, dict):
                node[draw(KEYS)] = draw(JSON_VALUES)
            elif op == "add":
                node.append(draw(JSON_VALUES))
            elif isinstance(node, dict):
                del node[draw(st.sampled_from(list(node)))]
            else:
                del node[draw(st.integers(0, len(node) - 1))]
    return doc


def _with(path, value):
    doc = copy.deepcopy(VALID)
    _parent(list(_nodes(doc)), path)[path[-1]] = value
    return doc


class TestSchemaChecker:
    def test_schema_digest_is_pinned(self):
        digest = hashlib.sha256(
            report.canonical_json(report.REPORT_SCHEMA)).hexdigest()
        assert digest == SCHEMA_DIGEST

    def test_checker_handles_every_keyword_the_schema_uses(self):
        subschemas = list(_subschemas(report.REPORT_SCHEMA))
        used = set().union(*subschemas) - ANNOTATIONS
        assert used == report._CHECKED_KEYWORDS
        # The checker compares const and enum values with ==, which is JSON
        # equality only for strings and null (in Python, True == 1).
        for sub in subschemas:
            for value in sub.get("enum", []) + [sub.get("const")]:
                assert value is None or isinstance(value, str)

    def test_violations_sorted_by_path(self):
        doc = _with(("position", "in_degree"), -0.5)
        doc["organization"]["density"] = 1.5
        del doc["period"]["end"]
        with pytest.raises(ReportValidationError) as excinfo:
            report.validate_document(doc)
        assert [v.split(":")[0] for v in excinfo.value.violations] == [
            "organization/density", "period", "position/in_degree",
            "position/in_degree"]

    @given(mutated_reports())
    @example(_with(("organization", "density"), True))  # bool: not a number
    @example(_with(("position", "in_degree"), -0.5))  # type and minimum fail
    @example(_with(("position", "in_degree"), 3.0))  # an integral float
    @example(_with(("organization", "depth"), math.nan))
    @example(_with(("organization", "depth"), -math.inf))
    @example(_with(("provision", "visit_counts"), [1]) | {"demand": 1,
                                                          "recency": 2})
    @example(_with(("metadata", "thresholds", "x"), [math.inf]))
    @example(_with(("portal_id",), ""))
    @example(_with(("period", "bucket_seconds"), 0))
    @example(_with(("schema_version",), 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_jsonschema_draft_2020_12(self, doc):
        jsonschema = pytest.importorskip("jsonschema")
        oracle = jsonschema.Draft202012Validator(report.REPORT_SCHEMA)
        expected = Counter((tuple(err.absolute_path), err.validator)
                           for err in oracle.iter_errors(doc))
        found: list = []
        report._check(report.REPORT_SCHEMA, doc, (), found)
        assert Counter((path, keyword) for path, keyword, _ in found) \
            == expected
        if expected:
            with pytest.raises(ReportValidationError) as excinfo:
                report.validate_document(doc)
            assert len(excinfo.value.violations) == sum(expected.values())
        else:
            report.validate_document(doc)
