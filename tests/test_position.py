"""Cross-site graph aggregation, communities, and network-role flags."""

import io

import pytest
from hypothesis import example, given, settings, strategies as st

from portalmetrics import position
from portalmetrics.errors import DomainError
from portalmetrics.fixtures import GeneratorSpec, gen_graph

from oracles import reference_communities


def _cross(weights, extra_sites=()):
    sites = set(extra_sites)
    for a, b in weights:
        sites.add(a)
        sites.add(b)
    return position.CrossSiteGraph(sites=frozenset(sites), weights=dict(weights))


def _bridged(n=6):
    return gen_graph(GeneratorSpec(kind="two-community", size=n,
                                   bridge_node=True))


cross_graphs = st.builds(
    lambda n, seed, ef: gen_graph(GeneratorSpec(
        kind="random-cross", size=n, seed=seed, edge_factor=ef)),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=5_000),
    st.floats(min_value=0.5, max_value=3.0),
)


class TestBuildCrossSiteGraph:
    def test_multiplicity_aggregates(self):
        lines = "\n".join([
            "https://a.example/p1\thttps://b.example/q1",
            "https://a.example/p2\thttps://b.example/q1",
            "https://a.example/p3\thttps://b.example/q2",
            "https://b.example/r\thttps://a.example/p1",
        ])
        g, dropped = position.build_cross_site_graph(io.StringIO(lines))
        assert g.weights == {("a.example", "b.example"): 3,
                             ("b.example", "a.example"): 1}
        assert dropped["intra_site_dropped"] == 0

    def test_intra_site_links_dropped_and_tallied(self):
        lines = ("https://a.example/p1,https://a.example/p2\n"
                 "https://a.example/p1,https://b.example/q\n")
        g, dropped = position.build_cross_site_graph(io.StringIO(lines))
        assert dropped["intra_site_dropped"] == 1
        assert g.edge_count == 1

    def test_domain_fallback_tallied_per_url(self):
        lines = "https://a.example/p\thttps://b.example/q\n"
        _, dropped = position.build_cross_site_graph(io.StringIO(lines))
        assert dropped["domain_fallbacks"] == 2

    def test_site_map_longest_prefix_wins(self):
        site_map = {"https://a.example/hub": "HUB", "https://a.example": "A"}
        lines = ("https://a.example/hub/page\thttps://a.example/other\n")
        g, dropped = position.build_cross_site_graph(io.StringIO(lines),
                                                     site_map=site_map)
        assert g.weights == {("HUB", "A"): 1}
        assert dropped["domain_fallbacks"] == 0

    def test_mixed_mapped_and_fallback(self):
        site_map = {"https://portal.example": "portal"}
        lines = "https://portal.example/p\thttps://other.example/q\n"
        g, _ = position.build_cross_site_graph(io.StringIO(lines),
                                               site_map=site_map)
        assert ("portal", "other.example") in g.weights

    def test_malformed_lines_tallied(self):
        lines = ("just-one-field\n"
                 "https://a.example/p\thttps://b.example/q\n")
        _, dropped = position.build_cross_site_graph(io.StringIO(lines))
        assert dropped["malformed_lines"] == 1

    def test_empty_graph_is_fatal(self):
        with pytest.raises(DomainError):
            position.build_cross_site_graph(io.StringIO("# nothing\n"))

    def test_self_link_rejected_in_constructor(self):
        with pytest.raises(DomainError):
            position.CrossSiteGraph(sites=frozenset({"a"}),
                                    weights={("a", "a"): 1})

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(DomainError):
            _cross({("a", "b"): 0})


class TestRegistrableDomain:
    def test_two_label_suffix(self):
        assert position.registrable_domain(
            "https://www.portal.example.org/p") == "example.org"

    def test_bare_host(self):
        assert position.registrable_domain("host.example/x") == "host.example"

    def test_single_label_host(self):
        assert position.registrable_domain("http://localhost/p") == "localhost"

    def test_empty_is_none(self):
        assert position.registrable_domain("") is None

    @pytest.mark.parametrize("url,domain", [
        ("http://[x]/y", None),
        ("http://[::1]/y", "::1"),
        ("http://[1.2.3.4]/y", None),
        ("http://[2001:db8::1]:8080/y", "2001:db8::1"),
        ("http://[v1.x]/y", "v1.x"),
        ("http://[vg.x]/y", None),
        ("http://[x]@b.example/y", None),
    ])
    def test_bracketed_host_must_be_ipv6_or_ipvfuture(self, url, domain):
        # Python 3.10's urlparse reads any bracketed text as a host and
        # 3.11's refuses all but these two forms; both give the same here.
        assert position.registrable_domain(url) == domain


def _profile(g, site):
    return position.position_profile(g, site, position.detect_communities(g))


class TestDegrees:
    def test_in_and_out_degree(self):
        g = _cross({("a", "c"): 2, ("b", "c"): 5, ("c", "a"): 1})
        c = _profile(g, "c")
        assert c["in_degree"] == 2
        assert c["weighted_in_degree"] == 7
        assert c["out_degree"] == 1
        assert c["weighted_out_degree"] == 1

    def test_unknown_site_rejected(self):
        g = _cross({("a", "b"): 1})
        with pytest.raises(DomainError):
            _profile(g, "zzz")

    @given(cross_graphs)
    def test_handshake_sums(self, g):
        profiles = [_profile(g, s) for s in g.site_order()]
        total_in_distinct = sum(p["in_degree"] for p in profiles)
        total_out_distinct = sum(p["out_degree"] for p in profiles)
        assert total_in_distinct == total_out_distinct == g.edge_count
        total_in_weight = sum(p["weighted_in_degree"] for p in profiles)
        total_out_weight = sum(p["weighted_out_degree"] for p in profiles)
        assert total_in_weight == total_out_weight == sum(g.weights.values())


class TestDetectCommunities:
    def test_two_disjoint_triangles(self):
        g = gen_graph(GeneratorSpec(kind="two-community", size=6))
        # remove the joining edge to make the components disjoint
        weights = {e: w for e, w in g.weights.items()
                   if e != ("c0.example", "d0.example")}
        disjoint = position.CrossSiteGraph(sites=g.sites, weights=weights)
        result = position.detect_communities(disjoint)
        assert result.community_count == 2
        assert result.converged
        labels = result.labels
        assert labels["c0.example"] == labels["c1.example"] == labels["c2.example"]
        assert labels["d0.example"] == labels["d1.example"] == labels["d2.example"]
        assert labels["c0.example"] != labels["d0.example"]

    def test_joined_triangles_still_two_communities(self):
        g = gen_graph(GeneratorSpec(kind="two-community", size=6))
        result = position.detect_communities(g)
        assert result.community_count == 2

    def test_complete_graph_single_community(self):
        weights = {(a, b): 1 for a in "abcd" for b in "abcd" if a != b}
        result = position.detect_communities(_cross(weights))
        assert result.community_count == 1

    def test_labels_canonical_from_zero(self):
        g = _bridged()
        labels = position.detect_communities(g).labels
        assert set(labels.values()) == set(range(len(set(labels.values()))))
        # first site in sorted order always carries label 0
        assert labels[sorted(g.sites)[0]] == 0

    def test_deterministic_for_same_seed(self):
        g = _bridged()
        a = position.detect_communities(g, seed=7)
        b = position.detect_communities(g, seed=7)
        assert a == b

    def test_labels_never_span_components(self):
        weights = {("a", "b"): 1, ("c", "d"): 1}
        labels = position.detect_communities(_cross(weights)).labels
        assert labels["a"] == labels["b"]
        assert labels["c"] == labels["d"]
        assert labels["a"] != labels["c"]

    def test_isolated_site_keeps_own_community(self):
        g = _cross({("a", "b"): 1}, extra_sites=("lonely",))
        labels = position.detect_communities(g).labels
        assert labels["lonely"] not in (labels["a"],)

    def test_empty_graph_rejected(self):
        with pytest.raises(DomainError):
            position.detect_communities(
                position.CrossSiteGraph(sites=frozenset(), weights={}))

    @given(cross_graphs, st.integers(min_value=0, max_value=50))
    @settings(max_examples=40)
    def test_always_terminates_with_full_cover(self, g, seed):
        result = position.detect_communities(g, seed=seed)
        assert set(result.labels) == set(g.sites)
        assert result.rounds <= position.LPA_MAX_ROUNDS
        k = result.community_count
        assert set(result.labels.values()) == set(range(k))


    # Seeded random-cross graphs whose rounds fall into a 2-cycle. Unshuffled,
    # the 10-site graphs find it at an odd round (seed 0), where the 100th
    # round's labels are the older of the pair, and at an even one (seed 2),
    # where they are the newer.
    @pytest.mark.parametrize("size, seed, edge_factor",
                             [(10, 0, 1.0), (10, 2, 1.0), (50, 4, 1.0),
                              (120, 7, 2.0)])
    @pytest.mark.parametrize("shuffle", [0, 5])
    def test_two_cycle_stop_equals_running_to_the_cap(self, size, seed,
                                                      edge_factor, shuffle):
        g = gen_graph(GeneratorSpec(kind="random-cross", size=size,
                                    seed=seed, edge_factor=edge_factor))
        result = position.detect_communities(g, seed=shuffle)
        assert result == reference_communities(g, seed=shuffle)
        assert result.rounds == position.LPA_MAX_ROUNDS
        assert not result.converged

    @pytest.mark.parametrize("shuffle", [0, 1, 2, 3])
    def test_two_clique_fixture_equals_reference(self, shuffle):
        g = gen_graph(GeneratorSpec(kind="two-community", size=8,
                                    bridge_node=True))
        result = position.detect_communities(g, seed=shuffle)
        assert result == reference_communities(g, seed=shuffle)

    @given(cross_graphs, st.integers(min_value=0, max_value=50))
    @settings(max_examples=60)
    def test_equals_reference(self, g, seed):
        assert position.detect_communities(g, seed=seed) \
            == reference_communities(g, seed=seed)

class TestBridging:
    def test_bridge_between_two_cliques(self):
        g = _bridged()
        communities = position.detect_communities(g)
        assessment = position.position_profile(g, "x0.example", communities)
        assert assessment["adjacent_communities"] == 2
        assert assessment["bridge_score"] == 1.0
        assert assessment["degree"] == 2
        assert assessment["bridge"]

    def test_clique_interior_is_not_bridge(self):
        g = _bridged()
        communities = position.detect_communities(g)
        assessment = position.position_profile(g, "c1.example", communities)
        assert assessment["adjacent_communities"] == 1
        assert not assessment["bridge"]

    def test_isolated_site_flagged(self):
        g = _cross({("a", "b"): 1}, extra_sites=("lonely",))
        communities = position.detect_communities(g)
        assessment = position.position_profile(g, "lonely", communities)
        assert assessment["bridge_score"] is None
        assert not assessment["bridge"]
        assert position.ISOLATED_SITE_FLAG in assessment["flags"]

    def test_single_community_graph_flagged(self):
        weights = {(a, b): 1 for a in "abc" for b in "abc" if a != b}
        g = _cross(weights)
        communities = position.detect_communities(g)
        assessment = position.position_profile(g, "a", communities)
        assert position.SINGLE_COMMUNITY_FLAG in assessment["flags"]
        assert not assessment["bridge"]

    def test_mismatched_assignment_rejected(self):
        g = _cross({("a", "b"): 1})
        other = position.detect_communities(_cross({("x", "y"): 1}))
        with pytest.raises(DomainError):
            position.position_profile(g, "a", other)

    def test_high_degree_site_not_bridge(self):
        # hub touches both communities but its degree tops the median
        g = _bridged()
        weights = dict(g.weights)
        for s in sorted(g.sites - {"x0.example"}):
            weights[("x0.example", s)] = 1
        busy = position.CrossSiteGraph(sites=g.sites, weights=weights)
        communities = position.detect_communities(busy)
        if communities.community_count >= 2:
            assessment = position.position_profile(busy, "x0.example", communities)
            assert not assessment["bridge"]


class TestPositionProfile:
    def test_two_clique_bridge_profile(self):
        g = _bridged()
        communities = position.detect_communities(g)
        profile = position.position_profile(g, "x0.example", communities)
        assert profile["in_degree"] == 0
        assert profile["out_degree"] == 2
        assert profile["weighted_out_degree"] == 2
        assert profile["degree"] == 2
        assert profile["adjacent_communities"] == 2
        assert profile["bridge"]
        assert not profile["authority"]  # zero in-links can never be authority

    def test_authority_requires_positive_inlinks(self):
        g = _cross({("a", "b"): 1}, extra_sites=("c",))
        communities = position.detect_communities(g)
        # in-degrees: a 0, b 1, c 0; only b clears the cut
        for site, expected in (("a", False), ("b", True), ("c", False)):
            profile = position.position_profile(g, site, communities)
            assert profile["authority"] is expected

    def test_star_center_is_authority(self):
        weights = {(f"leaf{i}", "hub"): 1 for i in range(5)}
        g = _cross(weights)
        communities = position.detect_communities(g)
        hub_profile = position.position_profile(g, "hub", communities)
        assert hub_profile["authority"]
        assert not hub_profile["hub"]
        leaf = position.position_profile(g, "leaf0", communities)
        assert not leaf["authority"]
        assert leaf["hub"]  # every leaf shares the top out-degree

    def test_uniform_degrees_flag_everyone(self):
        # directed 4-cycle: all in/out degrees equal -> cut equals the value
        weights = {("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1, ("d", "a"): 1}
        g = _cross(weights)
        communities = position.detect_communities(g)
        for site in g.site_order():
            profile = position.position_profile(g, site, communities)
            assert profile["authority"]
            assert profile["hub"]

    @pytest.mark.parametrize("percentile", [-1.0, 150.0])
    def test_percentile_outside_range_rejected(self, percentile):
        g = _bridged()
        communities = position.detect_communities(g)
        with pytest.raises(ValueError):
            position.position_profile(g, "c0.example", communities,
                                      authority_percentile=percentile)


class TestPercentileCut:
    @given(st.lists(st.integers(min_value=-1_000, max_value=100_000),
                    min_size=1, max_size=60),
           st.floats(min_value=0, max_value=100))
    @example([4, 1, 9, 7], 0.0)
    @example([4, 1, 9, 7], 50.0)
    @example([3, 1, 7, 2, 8], 75.0)
    @example([4, 1, 9, 7], 100.0)
    @example([1, 4, 9], 25.0)  # index 0.5: t is exactly 0.5
    @settings(max_examples=300)
    def test_matches_numpy_linear_bit_for_bit(self, values, q):
        np = pytest.importorskip("numpy")
        expected = float(np.percentile(np.asarray(values, float), q))
        assert position._percentile_cut(values, q) == expected
