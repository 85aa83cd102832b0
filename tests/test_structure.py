"""Site graph parsing and the four organization metrics.

Converted distances are checked against an independent oracle that finds
shortest path lengths by repeated adjacency-matrix multiplication.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from portalmetrics import structure, usage
from portalmetrics.errors import DomainError, FormatError
from portalmetrics.fixtures import GeneratorSpec, gen_graph

from oracles import (
    indexed_edges,
    matrix_power_distances,
    oracle_compactness,
    oracle_converted,
    oracle_depth,
    oracle_stratum,
)


def _graph(kind, n, seed=0, edge_factor=2.0):
    return gen_graph(GeneratorSpec(kind=kind, size=n, seed=seed,
                                   edge_factor=edge_factor))


def _from_edges(edges, root):
    nodes = {root} | {a for a, _ in edges} | {b for _, b in edges}
    return structure.SiteGraph(nodes=frozenset(nodes),
                               edges=frozenset(edges), root=root)


# A small strategy of seeded random digraphs, regenerated via fixtures so
# shrinking stays meaningful (the seed is the only degree of freedom).
digraphs = st.builds(
    _graph,
    st.just("random-digraph"),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.0, max_value=3.0),
)


class TestBuildSiteGraph:
    def test_basic_edges_and_default_root(self):
        g, dropped = structure.build_site_graph(io.StringIO("/home,/a\n/a,/b\n"))
        assert g.root == "/home"
        assert g.nodes == {"/home", "/a", "/b"}
        assert g.edges == {("/home", "/a"), ("/a", "/b")}
        assert dropped["self_loops_dropped"] == 0
        assert dropped["parallel_links_collapsed"] == 0

    def test_tab_separated(self):
        g, _ = structure.build_site_graph(io.StringIO("/home\t/a\n"))
        assert g.edges == {("/home", "/a")}

    def test_self_loop_dropped_and_tallied(self):
        g, dropped = structure.build_site_graph(io.StringIO("/home,/home\n/home,/a\n"))
        assert g.edges == {("/home", "/a")}
        assert dropped["self_loops_dropped"] == 1

    def test_parallel_edges_collapsed_and_tallied(self):
        g, dropped = structure.build_site_graph(io.StringIO("/home,/a\n/home,/a\n/home,/a\n"))
        assert g.edges == {("/home", "/a")}
        assert dropped["parallel_links_collapsed"] == 2

    def test_isolated_node_declaration(self):
        g, _ = structure.build_site_graph(io.StringIO("# node: /orphan\n/home,/a\n"))
        assert "/orphan" in g.nodes
        # the declaration came first, so it is the default root
        assert g.root == "/orphan"

    @pytest.mark.parametrize("lines,line_no", [
        (["# node:\n", "a,b\n"], 1),
        (["a,b\n", "#node:   \n"], 2),
        (["a,b\n", ",c\n"], 2),
    ])
    def test_nameless_node_rejected_like_an_empty_endpoint(self, lines,
                                                           line_no):
        with pytest.raises(FormatError,
                           match=f"edge line {line_no} has an empty endpoint"):
            structure.build_site_graph(lines)

    def test_empty_stream_rejected(self):
        with pytest.raises(DomainError):
            structure.build_site_graph(io.StringIO("\n# just a comment\n"))

    def test_malformed_line_rejected_with_line_number(self):
        with pytest.raises(FormatError, match="line 2"):
            structure.build_site_graph(io.StringIO("/a,/b\nnot-an-edge\n"))

    def test_self_loop_in_constructor_rejected(self):
        with pytest.raises(DomainError):
            structure.SiteGraph(nodes=frozenset({"/a"}),
                                edges=frozenset({("/a", "/a")}), root="/a")


class TestDepth:
    def test_chain_of_four(self):
        g = _graph("chain", 4)
        result = structure.organization_profile(g)
        assert result["depth"] == 2.0
        assert result["unreachable_pages"] == 0

    def test_unreachable_excluded_and_counted(self):
        g = _from_edges([("/h", "/a")], root="/h")
        g = structure.SiteGraph(nodes=g.nodes | {"/lost"}, edges=g.edges,
                                root="/h")
        result = structure.organization_profile(g)
        assert result["depth"] == 1.0
        assert result["unreachable_pages"] == 1

    def test_single_node_flagged(self):
        g = structure.SiteGraph(nodes=frozenset({"/h"}), edges=frozenset(),
                                root="/h")
        result = structure.organization_profile(g)
        assert result["depth"] == 0.0
        assert structure.DEGENERATE_SINGLE_NODE in result["flags"]

    def test_root_reaching_nothing_flagged(self):
        g = _from_edges([("/a", "/h")], root="/h")
        result = structure.organization_profile(g)
        assert result["depth"] == 0.0
        assert result["unreachable_pages"] == 1
        assert structure.DEGENERATE_NO_REACHABLE in result["flags"]

    @given(digraphs)
    def test_matches_oracle(self, g):
        result = structure.organization_profile(g)
        mean, unreachable = oracle_depth(g)
        assert result["depth"] == pytest.approx(mean, abs=1e-12)
        assert result["unreachable_pages"] == unreachable


class TestDensity:
    def test_quarter(self):
        g = _from_edges([("/h", "/a"), ("/a", "/b"), ("/b", "/c")], root="/h")
        profile = structure.organization_profile(g)
        assert profile["density"] == 0.25
        assert profile["flags"] == []

    def test_complete_graph_is_one(self):
        assert structure.organization_profile(
            _graph("complete", 4))["density"] == 1.0

    def test_single_node_flagged(self):
        g = structure.SiteGraph(nodes=frozenset({"/h"}), edges=frozenset(),
                                root="/h")
        profile = structure.organization_profile(g)
        assert profile["density"] == 0.0
        assert structure.DEGENERATE_SINGLE_NODE in profile["flags"]


def _navigability(g, K=None):
    return structure.organization_profile(g, K)["navigability"]


def _linearity(g):
    return structure.organization_profile(g)["linearity"]


class TestNavigability:
    def test_chain_of_three_exact(self):
        # distances: 0,1,2 / K,0,1 / K,K,0 with K=3 -> sum 3+4+6=13... no:
        # finite sum 1+2+1 = 4, unreachable pairs 3 at K=3 -> total 13;
        # Max=18, Min=6 -> (18-13)/12 = 5/12.
        value = _navigability(_graph("chain", 3))
        assert value == pytest.approx(5 / 12, abs=1e-12)

    def test_complete_is_one(self):
        assert _navigability(_graph("complete", 5)) == 1.0

    def test_edgeless_is_zero(self):
        g = structure.SiteGraph(nodes=frozenset({"/a", "/b", "/c"}),
                                edges=frozenset(), root="/a")
        assert _navigability(g) == 0.0

    def test_single_node_is_none(self):
        g = structure.SiteGraph(nodes=frozenset({"/a"}), edges=frozenset(),
                                root="/a")
        assert _navigability(g) is None

    def test_custom_conversion_constant(self):
        # K=10 on the 3-chain: converted sum = 4 + 3*10 = 34,
        # Max = 60, Min = 6 -> 26/54 = 13/27.
        value = _navigability(_graph("chain", 3), K=10)
        assert value == pytest.approx(13 / 27, abs=1e-12)

    def test_invalid_conversion_constant(self):
        with pytest.raises(DomainError):
            _navigability(_graph("chain", 3), K=0)

    @given(digraphs)
    def test_matches_oracle_and_range(self, g):
        value = _navigability(g)
        assert value == pytest.approx(oracle_compactness(g), abs=1e-12)
        assert 0.0 <= value <= 1.0


class TestLinearity:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_directed_chain_is_one(self, n):
        assert _linearity(_graph("chain", n)) == pytest.approx(
            1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_directed_cycle_is_zero(self, n):
        assert _linearity(_graph("cycle", n)) == pytest.approx(
            0.0, abs=1e-12)

    def test_complete_is_zero(self):
        assert _linearity(_graph("complete", 4)) == pytest.approx(
            0.0, abs=1e-12)

    def test_single_node_is_none(self):
        g = structure.SiteGraph(nodes=frozenset({"/a"}), edges=frozenset(),
                                root="/a")
        assert _linearity(g) is None

    @given(digraphs)
    def test_matches_oracle_and_range(self, g):
        value = _linearity(g)
        assert value == pytest.approx(oracle_stratum(g), abs=1e-12)
        assert 0.0 <= value <= 1.0


class TestConvertedDistances:
    def test_small_graph_exact(self):
        g = _from_edges([("/h", "/a"), ("/a", "/b")], root="/h")
        assert g.node_order() == ["/a", "/b", "/h"]
        status, contrastatus, root_distances, reached = \
            structure._distance_summary(g, g.n)
        assert status == [1, 3, 0]
        assert contrastatus == [1, 0, 3]
        assert root_distances == [1, 2, 0]
        # Three pages each reach themselves, /h reaches /a and /b, and /a
        # reaches /b; /a cannot reach /h, whose cell is K, the node count.
        assert reached == 6
        assert oracle_converted(g)[0][2] == 3
        assert structure._navigability(g.n, g.n, status, reached) == \
            pytest.approx(oracle_compactness(g), abs=1e-12)


# Random digraphs of 2 to 40 pages, from edgeless to dense.
shape_digraphs = st.builds(
    _graph,
    st.just("random-digraph"),
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.0, max_value=6.0),
)


def _assert_summary_matches_oracle(g) -> None:
    """Check the distance summary of ``g`` against the matrix-power
    distances."""
    order, edges = indexed_edges(g)
    d = matrix_power_distances(len(order), edges)
    finite = np.where(d < 0, 0, d)
    status, contrastatus, root_distances, reached = \
        structure._distance_summary(g, g.n)
    assert status == finite.sum(axis=0).tolist()
    assert contrastatus == finite.sum(axis=1).tolist()
    assert root_distances == d[order.index(g.root)].tolist()
    assert reached == int((d >= 0).sum())
    # The converted total: finite distances plus K per unconnected pair.
    assert sum(status) + (g.n * g.n - reached) * g.n == \
        int(np.where(d < 0, g.n, d).sum())


class TestOracleAgreement:
    """The bitset sweeps, along and against the edges, must agree exactly
    with the matrix-power oracle."""

    @given(shape_digraphs)
    @settings(max_examples=150, deadline=None)
    def test_summary_matches_oracle(self, g):
        _assert_summary_matches_oracle(g)

    @pytest.mark.parametrize("n, seed, edge_factor",
                             [(200, 3, 4.0), (300, 7, 2.5)])
    def test_dense_reachability_takes_the_reversed_sweep(self, n, seed,
                                                          edge_factor):
        _assert_summary_matches_oracle(
            _graph("random-digraph", n, seed=seed, edge_factor=edge_factor))

    @pytest.mark.parametrize("kind", ["chain", "cycle", "star"])
    def test_session_sized_graphs_take_the_bit_walk(self, kind):
        # Session shapes take the per-page bitset search of
        # usage._metrics_for_shape; it must agree with the sweeps.
        g = _graph(kind, 24)
        _assert_summary_matches_oracle(g)
        order, edges = indexed_edges(g)
        successors = [0] * len(order)
        for a, b in edges:
            successors[a] |= 1 << b
        profile = structure.organization_profile(g)
        assert usage._metrics_for_shape(tuple(successors)) == (
            profile["navigability"], profile["linearity"])

    def test_sparse_to_dense_thirty_page_graphs_match_oracle(self):
        for edge_factor in (0.5, 1.5, 2.0, 6.0):
            _assert_summary_matches_oracle(
                _graph("random-digraph", 30, seed=11, edge_factor=edge_factor))

    def test_profile_above_old_threshold_matches_oracle(self):
        # 300 nodes: above 256, the size at which the code once switched
        # to a second shortest-path backend.
        g = _graph("random-digraph", 300, seed=7, edge_factor=2.5)
        profile = structure.organization_profile(g)
        mean, unreachable = oracle_depth(g)
        assert profile["depth"] == pytest.approx(mean, abs=1e-12)
        assert profile["unreachable_pages"] == unreachable
        assert profile["density"] == len(g.edges) / (300 * 299)
        assert profile["navigability"] == pytest.approx(oracle_compactness(g),
                                                     abs=1e-12)
        assert profile["linearity"] == pytest.approx(oracle_stratum(g),
                                                  abs=1e-12)


class TestConversionConstant:
    def test_below_longest_distance_rejected(self):
        # The longest distance on a 5-cycle is 4; K=2 would give -0.5.
        g = _graph("cycle", 5)
        with pytest.raises(DomainError, match="longest finite distance, 4"):
            structure.organization_profile(g, K=2)
        with pytest.raises(DomainError, match="longest finite distance, 4"):
            structure.organization_profile(g, K=3)

    def test_longest_distance_accepted(self):
        g = _graph("cycle", 5)
        value = _navigability(g, K=4)
        assert value == pytest.approx(oracle_compactness(g, K=4), abs=1e-12)

    def test_k_of_one_rejected_for_metrics(self):
        # Max equals Min at K=1, so compactness would divide by zero.
        with pytest.raises(DomainError):
            _navigability(_graph("complete", 3), K=1)


class TestOrganizationProfile:
    def test_single_node_profile(self):
        g = structure.SiteGraph(nodes=frozenset({"/h"}), edges=frozenset(),
                                root="/h")
        profile = structure.organization_profile(g)
        assert profile["navigability"] is None
        assert profile["linearity"] is None
        assert structure.DEGENERATE_SINGLE_NODE in profile["flags"]

    @given(digraphs)
    @settings(max_examples=60)
    def test_relabeling_invariance(self, g):
        mapping = {node: f"/renamed{i:03d}" for i, node in
                   enumerate(sorted(g.nodes, key=hash))}
        relabeled = structure.SiteGraph(
            nodes=frozenset(mapping.values()),
            edges=frozenset((mapping[a], mapping[b]) for a, b in g.edges),
            root=mapping[g.root],
        )
        a = structure.organization_profile(g)
        b = structure.organization_profile(relabeled)
        assert b["depth"] == pytest.approx(a["depth"], abs=1e-9)
        assert b["unreachable_pages"] == a["unreachable_pages"]
        assert b["density"] == pytest.approx(a["density"], abs=1e-12)
        assert b["navigability"] == pytest.approx(a["navigability"], abs=1e-9)
        assert b["linearity"] == pytest.approx(a["linearity"], abs=1e-9)
