"""Typology of portals: demand trend crossed with relative content size."""

import pytest
from hypothesis import given, strategies as st

from portalmetrics import segmentation
from portalmetrics.errors import DomainError

import cross_python
from oracles import ols_slope


def _oracle_relative_slope(counts):
    return ols_slope(counts) / (sum(counts) / len(counts))


class TestDemandTrend:
    def test_flat_series_zero_slope(self):
        assert segmentation.demand_trend([10, 10, 10]) == 0.0

    def test_linear_growth(self):
        result = segmentation.demand_trend([10, 20, 30])
        # slope 10 over a mean of 20
        assert result == pytest.approx(0.5, abs=1e-9)
        assert result == pytest.approx(
            _oracle_relative_slope([10, 20, 30]), abs=1e-12)

    def test_against_closed_form_oracle(self):
        counts = [5, 9, 6, 12, 10]
        result = segmentation.demand_trend(counts)
        assert result == pytest.approx(
            _oracle_relative_slope(counts), abs=1e-12)

    def test_declining_series(self):
        result = segmentation.demand_trend([30, 20, 10])
        # slope -10 over a mean of 20
        assert result == pytest.approx(-0.5)
        assert result == pytest.approx(
            _oracle_relative_slope([30, 20, 10]), abs=1e-12)

    def test_needs_two_buckets(self):
        with pytest.raises(DomainError):
            segmentation.demand_trend([10])

    def test_negative_counts_rejected(self):
        with pytest.raises(DomainError):
            segmentation.demand_trend([5, -1, 5])

    def test_all_zero_is_indeterminate(self):
        assert segmentation.demand_trend([0, 0, 0]) is None

    def test_slope_is_the_same_float_on_every_python(self):
        # statistics.linear_regression gave ...169 here on Python 3.12+.
        assert repr(segmentation.demand_trend(cross_python.SLOPE_SERIES)) == (
            cross_python.SLOPE_REPR)

    def test_seeded_slopes_match_their_pinned_digest(self):
        assert cross_python.slopes_sha256() == cross_python.SLOPES_SHA256

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=2,
                    max_size=30).filter(lambda c: sum(c) > 0),
           st.integers(min_value=2, max_value=9))
    def test_relative_slope_scale_invariant(self, counts, k):
        base = segmentation.demand_trend(counts)
        scaled = segmentation.demand_trend([c * k for c in counts])
        assert scaled == pytest.approx(base, abs=1e-9)
        assert base == pytest.approx(
            _oracle_relative_slope(counts), abs=1e-9)


def _segment(slope, size=segmentation.LARGE, **kwargs):
    return segmentation.segment(slope, 0.5, size, **kwargs)


class TestDynamicsClass:
    def test_above_threshold_grows(self):
        result = _segment(0.0501, threshold=0.05)
        assert result["dynamics"] == segmentation.GROWING
        assert result["annotations"] == []

    def test_exactly_at_threshold_is_stable(self):
        result = _segment(0.05, threshold=0.05)
        assert result["dynamics"] == segmentation.STABLE

    def test_negative_slope_stable_and_declining(self):
        result = _segment(-0.2)
        assert result["dynamics"] == segmentation.STABLE
        assert result["annotations"] == [segmentation.DECLINING_ANNOTATION]

    def test_none_propagates_indeterminate(self):
        result = _segment(None)
        assert result["dynamics"] is None
        assert result["annotations"] == [segmentation.INDETERMINATE_FLAG]

    def test_threshold_must_be_positive(self):
        with pytest.raises(DomainError, match="growth threshold"):
            _segment(0.1, threshold=0.0)


class TestRelativeSize:
    def test_disjoint_portals(self):
        shares = segmentation.relative_size({"a": 30, "b": 10}, 40)
        assert shares == {"a": 0.75, "b": 0.25}

    def test_shared_content_uses_network_total(self):
        # both portals carry the same 10 identifiers: each holds 100%
        shares = segmentation.relative_size({"a": 10, "b": 10},
                                            network_total=10)
        assert shares == {"a": 1.0, "b": 1.0}
        assert sum(shares.values()) > 1.0

    def test_zero_total_rejected(self):
        with pytest.raises(DomainError):
            segmentation.relative_size({"a": 0, "b": 0}, 0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            segmentation.relative_size({}, 1)

    @given(st.dictionaries(st.sampled_from(["a", "b", "c", "d"]),
                           st.integers(min_value=0, max_value=100),
                           min_size=1).filter(lambda d: sum(d.values()) > 0))
    def test_default_total_shares_sum_to_one(self, counts):
        shares = segmentation.relative_size(counts, sum(counts.values()))
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(0.0 <= s <= 1.0 for s in shares.values())


class TestSizeClass:
    def test_median_split(self):
        classes, _ = segmentation.size_class({"a": 0.25, "b": 0.75})
        assert classes == {"a": segmentation.SMALL, "b": segmentation.LARGE}

    def test_ties_go_large(self):
        classes, _ = segmentation.size_class({"a": 0.5, "b": 0.5})
        assert classes["a"] == segmentation.LARGE
        assert classes["b"] == segmentation.LARGE

    def test_three_portals(self):
        classes, _ = segmentation.size_class({"a": 0.1, "b": 0.2, "c": 0.7})
        assert classes == {"a": segmentation.SMALL,
                           "b": segmentation.LARGE,
                           "c": segmentation.LARGE}

    def test_single_portal_large_with_flag(self):
        classes, flags = segmentation.size_class({"solo": 1.0})
        assert classes["solo"] == segmentation.LARGE
        assert segmentation.SINGLE_PORTAL_FLAG in flags

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            segmentation.size_class({})

    @pytest.mark.parametrize("values,median", [
        ([3.0], 3.0), ([0.7, 0.1, 0.2], 0.2), ([0.75, 0.25], 0.5),
        ([0.4, 0.1, 0.3, 0.2], 0.25), ([4, 1, 3, 2], 2.5)])
    def test_median_is_the_middle_or_the_mean_of_the_two(self, values,
                                                         median):
        assert segmentation._median(values) == median

    @given(st.dictionaries(st.text(min_size=1, max_size=3),
                           st.floats(min_value=0.0, max_value=1.0,
                                     allow_subnormal=False),
                           min_size=1, max_size=9),
           st.floats(min_value=0.1, max_value=10.0))
    def test_classification_scale_invariant(self, ratios, scale):
        base, _ = segmentation.size_class(ratios)
        scaled, _ = segmentation.size_class(
            {p: r * scale for p, r in ratios.items()})
        assert scaled == base

    @given(st.dictionaries(st.text(min_size=1, max_size=3),
                           st.floats(min_value=0.0, max_value=1.0),
                           min_size=2, max_size=9))
    def test_at_least_one_large(self, ratios):
        classes, _ = segmentation.size_class(ratios)
        assert segmentation.LARGE in classes.values()


class TestSegment:
    def test_all_four_quadrant_names(self):
        cases = [
            (0.5, segmentation.LARGE, "Growing portals with large relative size"),
            (0.5, segmentation.SMALL, "Growing portals with low relative size"),
            (0.0, segmentation.LARGE, "Stable portals with large relative size"),
            (0.0, segmentation.SMALL, "Stable portals with small relative size"),
        ]
        for slope, size, expected in cases:
            assert _segment(slope, size)["quadrant"] == expected

    def test_declining_annotation_carried(self):
        section = _segment(-0.3, segmentation.LARGE)
        assert section["quadrant"] == "Stable portals with large relative size"
        assert segmentation.DECLINING_ANNOTATION in section["annotations"]

    def test_indeterminate_is_unsegmented(self):
        section = _segment(None, segmentation.SMALL)
        assert section["quadrant"] is None
        assert section["dynamics"] is None
        assert segmentation.INDETERMINATE_FLAG in section["annotations"]

    def test_unknown_size_rejected(self):
        with pytest.raises(DomainError, match="unknown size class"):
            _segment(0.5, "Medium")


class TestEndToEnd:
    def test_planted_growth_pipeline(self):
        slope = segmentation.demand_trend([10, 20, 30])
        shares = segmentation.relative_size({"p": 40, "q": 40},
                                            network_total=80)
        classes, _ = segmentation.size_class(shares)
        section = segmentation.segment(slope, shares["p"], classes["p"])
        assert section["quadrant"] == (
            "Growing portals with large relative size")
