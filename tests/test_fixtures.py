"""Synthetic fixture generators: planted ground truth must be exact, and
writer output must survive the round trip through the real parsers."""

from __future__ import annotations

import math
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portalmetrics import fixtures as fx
from portalmetrics.catalog import (
    average_age,
    offer_distribution,
    parse_catalog,
    parse_taxonomy,
    shannon_diversity,
)
from portalmetrics.config import build_config
from portalmetrics.errors import DomainError
from portalmetrics.position import build_cross_site_graph, detect_communities
from portalmetrics.structure import SiteGraph, build_site_graph
from portalmetrics.usage import (
    AnalysisPeriod,
    ingest,
    overall_demand,
    parse_link_map,
    read_log_lines,
    sessionize,
)

from oracles import reference_filter_agents, reference_parse_log

UTC = timezone.utc
START = datetime(2026, 3, 2, tzinfo=UTC)


def _pages(*indices: int) -> set[str]:
    return {f"/p{i:04d}" for i in indices}


class TestGenSiteGraph:
    def test_chain_shape(self):
        g = fx.gen_graph(fx.GeneratorSpec(kind="chain", size=4))
        assert g.root == "/p0000"
        assert g.nodes == frozenset(_pages(0, 1, 2, 3))
        assert g.edges == frozenset({("/p0000", "/p0001"),
                                     ("/p0001", "/p0002"),
                                     ("/p0002", "/p0003")})

    def test_cycle_wraps_to_root(self):
        g = fx.gen_graph(fx.GeneratorSpec(kind="cycle", size=3))
        assert len(g.edges) == 3
        assert ("/p0002", "/p0000") in g.edges

    def test_single_node(self):
        g = fx.gen_graph(fx.GeneratorSpec(kind="cycle", size=1))
        assert g.nodes == frozenset({"/p0000"})
        assert g.edges == frozenset()

    def test_complete_edge_count(self):
        g = fx.gen_graph(fx.GeneratorSpec(kind="complete", size=3))
        assert len(g.edges) == 6

    def test_star_edges_leave_root(self):
        g = fx.gen_graph(fx.GeneratorSpec(kind="star", size=5))
        assert len(g.edges) == 4
        assert all(a == g.root for a, _ in g.edges)

    @pytest.mark.parametrize("n,factor", [(2, 2.0), (5, 1.0), (8, 3.0),
                                          (8, 0.0), (10, 9.5)])
    def test_random_digraph_edge_count(self, n, factor):
        g = fx.gen_graph(fx.GeneratorSpec(kind="random-digraph", size=n,
                                          edge_factor=factor, seed=4))
        assert len(g.edges) == min(int(round(factor * n)), n * (n - 1))

    @given(n=st.integers(2, 10), factor=st.floats(0.0, 4.0),
           seed=st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_random_digraph_well_formed(self, n, factor, seed):
        g = fx.gen_graph(fx.GeneratorSpec(kind="random-digraph", size=n,
                                          edge_factor=factor, seed=seed))
        assert len(g.nodes) == n
        assert len(g.edges) == min(int(round(factor * n)), n * (n - 1))
        for a, b in g.edges:
            assert a != b
            assert a in g.nodes and b in g.nodes

    def test_same_seed_same_graph(self):
        spec = fx.GeneratorSpec(kind="random-digraph", size=12,
                                edge_factor=2.0, seed=9)
        assert fx.gen_graph(spec) == fx.gen_graph(spec)

    def test_seed_changes_graph(self):
        a = fx.gen_graph(fx.GeneratorSpec(kind="random-digraph", size=12,
                                          edge_factor=2.0, seed=0))
        b = fx.gen_graph(fx.GeneratorSpec(kind="random-digraph", size=12,
                                          edge_factor=2.0, seed=1))
        assert a.edges != b.edges

    def test_zero_size_rejected(self):
        with pytest.raises(DomainError):
            fx.gen_graph(fx.GeneratorSpec(kind="chain", size=0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError, match="spiral"):
            fx.gen_graph(fx.GeneratorSpec(kind="spiral", size=3))


class TestGenCrossGraph:
    def test_two_community_direct_edge(self):
        g = fx.gen_graph(fx.GeneratorSpec(kind="two-community", size=6))
        left = {f"c{i}.example" for i in range(3)}
        right = {f"d{i}.example" for i in range(3)}
        assert g.sites == frozenset(left | right)
        # two 3-cliques (6 directed edges each) plus the joining edge
        assert len(g.weights) == 13
        assert g.weights[("c0.example", "d0.example")] == 1
        assert all(w == 1 for w in g.weights.values())

    def test_two_community_bridge_node(self):
        g = fx.gen_graph(fx.GeneratorSpec(kind="two-community", size=6,
                                          bridge_node=True))
        assert "x0.example" in g.sites
        assert g.weights[("x0.example", "c0.example")] == 1
        assert g.weights[("x0.example", "d0.example")] == 1
        assert ("c0.example", "d0.example") not in g.weights

    def test_odd_size_splits_small_left(self):
        g = fx.gen_graph(fx.GeneratorSpec(kind="two-community", size=5))
        assert {s for s in g.sites if s.startswith("c")} == {"c0.example",
                                                             "c1.example"}
        assert len({s for s in g.sites if s.startswith("d")}) == 3

    def test_two_community_minimum_size(self):
        with pytest.raises(DomainError):
            fx.gen_graph(fx.GeneratorSpec(kind="two-community", size=3))

    def test_random_cross_weights(self):
        g = fx.gen_graph(fx.GeneratorSpec(kind="random-cross", size=6,
                                          edge_factor=2.0, seed=5))
        assert len(g.sites) == 6
        assert len(g.weights) == 12
        assert all(1 <= w <= 3 for w in g.weights.values())

    def test_random_cross_minimum_size(self):
        with pytest.raises(DomainError):
            fx.gen_graph(fx.GeneratorSpec(kind="random-cross", size=1))

    def test_planted_communities_recovered(self):
        g = fx.gen_graph(fx.GeneratorSpec(kind="two-community", size=8))
        got = detect_communities(g)
        assert got.converged
        assert {got.labels[f"c{i}.example"] for i in range(4)} == {0}
        assert {got.labels[f"d{i}.example"] for i in range(4)} == {1}

    def test_bridge_node_joins_first_community(self):
        g = fx.gen_graph(fx.GeneratorSpec(kind="two-community", size=8,
                                          bridge_node=True))
        got = detect_communities(g)
        assert got.community_count == 2
        assert got.labels["x0.example"] == got.labels["c0.example"]

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_planted_split_stable_under_seed(self, seed):
        g = fx.gen_graph(fx.GeneratorSpec(kind="two-community", size=8))
        got = detect_communities(g, seed=seed)
        assert {got.labels[f"c{i}.example"] for i in range(4)} == {0}
        assert {got.labels[f"d{i}.example"] for i in range(4)} == {1}


class TestGenLog:
    def test_planted_demand_recovered(self):
        lines = fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                            visits_per_bucket=(3, 2),
                                            visitors=2, start=START))
        views, counts = ingest(lines)
        assert (counts["malformed_lines"], counts["bot_entries"]) == (0, 0)
        period = AnalysisPeriod(start=START, end=START + timedelta(days=2))
        demand = overall_demand(sessionize(views), period)
        assert demand == [3, 2]

    def test_visits_dealt_round_robin(self):
        lines = fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                            visits_per_bucket=(5,),
                                            visitors=2, start=START))
        sessions = sessionize(ingest(lines)[0])
        by_visitor: dict = {}
        for s in sessions:
            by_visitor[s.visitor_key] = by_visitor.get(s.visitor_key, 0) + 1
        assert by_visitor == {"user:user000": 3, "user:user001": 2}

    def test_views_per_visit(self):
        lines = fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                            visits_per_bucket=(4,),
                                            views_per_visit=5, start=START))
        sessions = sessionize(ingest(lines)[0])
        assert [len(s) for s in sessions] == [5, 5, 5, 5]

    def test_views_one_minute_apart(self):
        lines = fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                            visits_per_bucket=(1,),
                                            start=START))
        (session,) = sessionize(ingest(lines)[0])
        gaps = [session.views[i + 1][0] - session.views[i][0]
                for i in range(len(session) - 1)]
        assert gaps == [60] * (len(session) - 1)

    def test_bot_lines_planted_exactly(self):
        # 12 human lines at fraction 1/4 need exactly 4 bot lines
        lines = fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                            visits_per_bucket=(4,),
                                            visitors=2, bot_fraction=0.25,
                                            start=START))
        assert len(lines) == 16
        humans, bots = reference_filter_agents(reference_parse_log(lines).entries)
        assert (len(humans), len(bots)) == (12, 4)
        assert sorted(e.path for e in bots) == ["/p0001", "/p0002",
                                                "/p0003", "/robots.txt"]
        views, counts = ingest(lines)
        assert (sum(map(len, views.values())),
                counts["bot_entries"]) == (12, 4)

    def test_half_bot_traffic(self):
        lines = fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                            visits_per_bucket=(4,),
                                            visitors=2, bot_fraction=0.5,
                                            start=START))
        views, counts = ingest(lines)
        assert sum(map(len, views.values())) == counts["bot_entries"] == 12

    def test_bots_carry_no_auth_user(self):
        lines = fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                            visits_per_bucket=(2,),
                                            bot_fraction=0.3, start=START))
        _, bots = reference_filter_agents(reference_parse_log(lines).entries)
        assert bots and all(e.visitor_key.startswith("anon:") for e in bots)

    def test_no_humans_means_no_bots(self):
        assert fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                           visits_per_bucket=(),
                                           bot_fraction=0.5,
                                           start=START)) == []

    def test_lines_sorted_by_timestamp(self):
        lines = fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                            visits_per_bucket=(6, 6),
                                            visitors=3, bot_fraction=0.2,
                                            start=START))
        stamps = [e.timestamp for e in reference_parse_log(lines).entries]
        assert stamps == sorted(stamps)

    def test_determinism(self):
        spec = fx.GeneratorSpec(kind="synthetic-log",
                                visits_per_bucket=(5, 3), visitors=2,
                                bot_fraction=0.2, start=START)
        assert fx.gen_log(spec) == fx.gen_log(spec)

    def test_zero_visitors_with_visits_rejected(self):
        with pytest.raises(DomainError, match="visitors"):
            fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                        visits_per_bucket=(1,),
                                        visitors=0, start=START))

    def test_zero_views_rejected(self):
        with pytest.raises(DomainError):
            fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                        visits_per_bucket=(1,),
                                        views_per_visit=0, start=START))

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5])
    def test_bot_fraction_range(self, fraction):
        with pytest.raises(DomainError, match="fraction"):
            fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                        visits_per_bucket=(1,),
                                        bot_fraction=fraction, start=START))

    def test_naive_start_rejected(self):
        with pytest.raises(DomainError, match="timezone"):
            fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                        visits_per_bucket=(1,),
                                        start=datetime(2026, 3, 2)))

    def test_visit_too_long_for_slot(self):
        with pytest.raises(DomainError, match="slot"):
            fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                        visits_per_bucket=(1,),
                                        views_per_visit=91, start=START))

    def test_bucket_overfull_rejected(self):
        # 12 two-hour slots per day: 13 visits by one visitor cannot fit
        with pytest.raises(DomainError, match="slot"):
            fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                        visits_per_bucket=(13,),
                                        visitors=1, start=START))

    def test_bucket_shorter_than_slot_rejected(self):
        with pytest.raises(DomainError, match="bucket"):
            fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                        visits_per_bucket=(1,),
                                        bucket=timedelta(hours=1),
                                        start=START))

    def test_negative_visit_count_rejected(self):
        with pytest.raises(DomainError, match="negative"):
            fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                        visits_per_bucket=(2, -1),
                                        start=START))


class TestGenCatalog:
    def test_planted_topic_counts(self):
        records = fx.gen_catalog(fx.GeneratorSpec(
            kind="synthetic-catalog",
            topic_counts=(("algebra", 2), ("biology", 3))))
        assert len(records) == 5
        dist = offer_distribution(records)
        assert dist == {"algebra": 2, "biology": 3}

    def test_identifiers_sequential_and_unique(self):
        records = fx.gen_catalog(fx.GeneratorSpec(
            kind="synthetic-catalog", portal_id="edu-x",
            topic_counts=(("a", 2), ("b", 1))))
        assert [r.identifier for r in records] == ["edu-x-00000",
                                                   "edu-x-00001",
                                                   "edu-x-00002"]

    def test_planted_mean_age(self):
        records = fx.gen_catalog(fx.GeneratorSpec(
            kind="synthetic-catalog", topic_counts=(("a", 4),),
            ages_days=(10, 20), reference=date(2026, 3, 1)))
        assert average_age(records, date(2026, 3, 1)) == 15.0
        assert records[0].published == date(2026, 2, 19)
        assert records[1].published == date(2026, 2, 9)

    def test_planted_entropy(self):
        records = fx.gen_catalog(fx.GeneratorSpec(
            kind="synthetic-catalog",
            topic_counts=tuple((t, 25) for t in "abcd")))
        entropy, evenness = shannon_diversity(offer_distribution(records))
        assert entropy == pytest.approx(math.log(4), abs=1e-12)
        assert evenness == pytest.approx(1.0, abs=1e-12)

    def test_resource_types_cycle(self):
        records = fx.gen_catalog(fx.GeneratorSpec(
            kind="synthetic-catalog", topic_counts=(("a", 4),),
            resource_types=("text", "video")))
        assert [r.resource_type for r in records] == ["text", "video",
                                                      "text", "video"]

    def test_empty_plan_rejected(self):
        with pytest.raises(DomainError):
            fx.gen_catalog(fx.GeneratorSpec(kind="synthetic-catalog"))

    def test_nonpositive_count_rejected(self):
        with pytest.raises(DomainError):
            fx.gen_catalog(fx.GeneratorSpec(kind="synthetic-catalog",
                                            topic_counts=(("a", 0),)))

    def test_negative_age_rejected(self):
        with pytest.raises(DomainError):
            fx.gen_catalog(fx.GeneratorSpec(kind="synthetic-catalog",
                                            topic_counts=(("a", 1),),
                                            ages_days=(-1,)))


class TestWriterRoundTrips:
    def test_site_graph_round_trip(self, tmp_path):
        g = fx.gen_graph(fx.GeneratorSpec(kind="random-digraph", size=9,
                                          edge_factor=1.0, seed=3))
        path = tmp_path / "edges.tsv"
        fx.write_site_graph(g, path)
        with open(path, encoding="utf-8") as fh:
            rebuilt, dropped = build_site_graph(fh)
        assert rebuilt == g
        assert dropped["self_loops_dropped"] == 0
        assert dropped["parallel_links_collapsed"] == 0

    def test_nonsorted_root_survives(self, tmp_path):
        # the root sorts after other nodes, so only the declaration order
        # in the file can carry it through the first-seen default
        g = SiteGraph(nodes=frozenset({"/a", "/b", "/z"}),
                      edges=frozenset({("/z", "/a")}), root="/z")
        path = tmp_path / "edges.tsv"
        fx.write_site_graph(g, path)
        with open(path, encoding="utf-8") as fh:
            rebuilt, _ = build_site_graph(fh)
        assert rebuilt.root == "/z"
        assert rebuilt.nodes == g.nodes

    def test_isolated_nodes_survive(self, tmp_path):
        g = fx.gen_graph(fx.GeneratorSpec(kind="random-digraph", size=12,
                                          edge_factor=0.5, seed=2))
        touched = {n for e in g.edges for n in e}
        assert touched != g.nodes  # fixture must actually exercise the case
        path = tmp_path / "edges.tsv"
        fx.write_site_graph(g, path)
        with open(path, encoding="utf-8") as fh:
            rebuilt, _ = build_site_graph(fh)
        assert rebuilt.nodes == g.nodes

    def test_cross_links_round_trip(self, tmp_path):
        g = fx.gen_graph(fx.GeneratorSpec(kind="two-community", size=5,
                                          bridge_node=True))
        path = tmp_path / "links.tsv"
        fx.write_cross_links(g, path)
        with open(path, encoding="utf-8") as fh:
            rebuilt, dropped = build_cross_site_graph(fh)
        assert rebuilt.weights == g.weights
        assert rebuilt.sites == g.sites
        assert dropped["intra_site_dropped"] == 0

    def test_weighted_cross_links_round_trip(self, tmp_path):
        g = fx.gen_graph(fx.GeneratorSpec(kind="random-cross", size=4,
                                          edge_factor=2.5, seed=8))
        path = tmp_path / "links.tsv"
        fx.write_cross_links(g, path)
        with open(path, encoding="utf-8") as fh:
            rebuilt, _ = build_cross_site_graph(fh)
        assert rebuilt.weights == g.weights

    def test_catalog_round_trip(self, tmp_path):
        records = fx.gen_catalog(fx.GeneratorSpec(
            kind="synthetic-catalog", portal_id="rt",
            topic_counts=(("algebra", 3), ("biology", 2)),
            ages_days=(5, 7, 11)))
        path = tmp_path / "catalog.csv"
        fx.write_catalog(records, path)
        with open(path, encoding="utf-8", newline="") as fh:
            parsed = parse_catalog(fh)
        assert parsed.records == records
        assert parsed.duplicates_dropped == 0
        assert parsed.row_errors == []

    def test_link_map_round_trip(self, tmp_path):
        pairs = [("/p0000", "rt-00000"), ("/p0001", "rt-00001")]
        path = tmp_path / "map.tsv"
        fx.write_link_map(pairs, path)
        with open(path, encoding="utf-8") as fh:
            assert parse_link_map(fh) == dict(pairs)

    def test_taxonomy_round_trip(self, tmp_path):
        path = tmp_path / "taxonomy.txt"
        fx.write_taxonomy(("algebra", "biology"), path)
        with open(path, encoding="utf-8") as fh:
            taxonomy = parse_taxonomy(fh)
        assert taxonomy == ("algebra", "biology")

    def test_log_file_round_trip(self, tmp_path):
        lines = fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                            visits_per_bucket=(3,),
                                            start=START))
        path = tmp_path / "access.log"
        fx.write_lines(path, lines)
        _, counts = ingest(read_log_lines([str(path)]))
        assert counts["log_lines"] == len(lines)
        assert counts["malformed_lines"] == 0


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    return fx.write_demo_network(tmp_path_factory.mktemp("demo"))


class TestDemoNetwork:
    def test_layout_complete(self, demo):
        import os
        assert set(demo["portals"]) == {"alpha", "beta"}
        for key in ("taxonomy", "cross_links"):
            assert os.path.exists(demo[key])
        for portal in demo["portals"].values():
            for key in ("catalog", "edges", "log", "link_map", "config"):
                assert os.path.exists(portal[key])

    def test_configs_parse(self, demo):
        for name, portal in demo["portals"].items():
            cfg = build_config(file_path=portal["config"])
            assert cfg.portal_id == name
            assert cfg.site == f"{name}.example"
            assert cfg.period_start.isoformat() == fx.DEMO_PERIOD_START
            assert cfg.period_end.isoformat() == fx.DEMO_PERIOD_END
            assert cfg.reference_date.isoformat() == fx.DEMO_REFERENCE
            assert len(cfg.network_catalogs) == 2

    def test_catalogs_planted(self, demo):
        with open(demo["portals"]["alpha"]["catalog"], encoding="utf-8",
                  newline="") as fh:
            parsed = parse_catalog(fh)
        assert len(parsed.records) == 100
        dist = offer_distribution(parsed.records)
        assert sorted(dist.values()) == [25, 25, 25, 25]
        got = average_age(parsed.records, date.fromisoformat(fx.DEMO_REFERENCE))
        assert got == 15.0

    def test_cross_links_aggregate(self, demo):
        with open(demo["cross_links"], encoding="utf-8") as fh:
            g, _ = build_cross_site_graph(fh)
        assert len(g.sites) == 6
        assert len(g.weights) == 9
        assert g.weights[("ministry.example", "alpha.example")] == 3

    def test_logs_planted(self, demo):
        views, counts = ingest(
            read_log_lines([demo["portals"]["alpha"]["log"]]))
        assert counts["malformed_lines"] == 0
        # 60 visits of 3 views at bot fraction 0.2: 180 human, 45 bot lines
        assert (sum(map(len, views.values())),
                counts["bot_entries"]) == (180, 45)
        period = AnalysisPeriod(
            start=datetime.fromisoformat(fx.DEMO_PERIOD_START),
            end=datetime.fromisoformat(fx.DEMO_PERIOD_END))
        demand = overall_demand(sessionize(views), period)
        assert demand == [10, 20, 30]

    def test_byte_determinism(self, tmp_path):
        a = fx.write_demo_network(tmp_path / "one")
        b = fx.write_demo_network(tmp_path / "two")
        for key in ("log", "edges", "catalog"):
            one = Path(a["portals"]["beta"][key]).read_bytes()
            two = Path(b["portals"]["beta"][key]).read_bytes()
            assert one == two
