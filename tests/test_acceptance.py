"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line with its measured evidence. A red line here means the build fails."""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from portalmetrics import cli, segmentation, structure
from portalmetrics import fixtures as fx
from portalmetrics import position as position_mod
from portalmetrics import usage as usage_mod
from portalmetrics.catalog import (
    TopicDistribution,
    offer_distribution,
    shannon_diversity,
)
from portalmetrics.report import REPORT_SCHEMA, deserialize
from portalmetrics.structure import SiteGraph

from oracles import (
    LogEntry,
    brute_sessionize,
    oracle_converted,
    sessions_as_set,
    views_by_visitor,
)

UTC = timezone.utc
START = datetime(2026, 3, 2, tzinfo=UTC)


def _verdict(capsys, number: int, failures: list[str], detail: str):
    status = "PASS" if not failures else "FAIL"
    note = detail if not failures else f"{detail}; first: {failures[0]}"
    with capsys.disabled():
        print(f"CRITERION {number}: {status} - {note}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_1_shannon_suite(capsys):
    t0 = time.perf_counter()
    failures: list[str] = []

    single, _ = shannon_diversity(TopicDistribution.from_counts({"only": 17}))
    if single != 0.0:
        failures.append(f"single topic gave H={single}")

    for k in (2, 4, 8):
        records = fx.gen_catalog(fx.GeneratorSpec(
            kind="synthetic-catalog",
            topic_counts=tuple((f"t{i}", 25) for i in range(k))))
        entropy, evenness = shannon_diversity(offer_distribution(records))
        if abs(entropy - math.log(k)) > 1e-12:
            failures.append(f"uniform k={k} gave H={entropy}")
        if abs(evenness - 1.0) > 1e-12:
            failures.append(f"uniform k={k} gave evenness={evenness}")

    for counts in ({"a": 3, "b": 5}, {"a": 1, "b": 2, "c": 7},
                   {"a": 10, "b": 1, "c": 1, "d": 5}):
        base, _ = shannon_diversity(TopicDistribution.from_counts(counts))
        for m in (2, 5, 97):
            scaled, _ = shannon_diversity(TopicDistribution.from_counts(
                {t: c * m for t, c in counts.items()}))
            if abs(scaled - base) > 1e-12:
                failures.append(f"scale {m} moved H for {counts}")

    rng = random.Random(1)
    for _ in range(200):
        counts = {f"t{i}": rng.randint(1, 50)
                  for i in range(rng.randint(1, 9))}
        _, evenness = shannon_diversity(TopicDistribution.from_counts(counts))
        if not 0.0 <= evenness <= 1.0:
            failures.append(f"evenness {evenness} outside [0,1]")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict(capsys, 1, failures,
             f"H extremes, k in (2,4,8), scale invariance in {elapsed:.2f}s")


def test_criterion_2_structure_extremes(capsys):
    failures: list[str] = []
    profile = structure.organization_profile
    for n in range(3, 9):
        complete = fx.gen_graph(fx.GeneratorSpec(kind="complete", size=n))
        if profile(complete).navigability != 1.0:
            failures.append(f"complete n={n} navigability != 1.0")
        edgeless = SiteGraph(
            nodes=frozenset(f"/p{i:04d}" for i in range(n)),
            edges=frozenset(), root="/p0000")
        if profile(edgeless).navigability != 0.0:
            failures.append(f"edgeless n={n} navigability != 0.0")
        chain = fx.gen_graph(fx.GeneratorSpec(kind="chain", size=n))
        if profile(chain).linearity != 1.0:
            failures.append(f"chain n={n} linearity != 1.0")
        cycle = fx.gen_graph(fx.GeneratorSpec(kind="cycle", size=n))
        if profile(cycle).linearity != 0.0:
            failures.append(f"cycle n={n} linearity != 0.0")

    chain3 = fx.gen_graph(fx.GeneratorSpec(kind="chain", size=3))
    got = profile(chain3).navigability
    if abs(got - 5 / 12) > 1e-12:
        failures.append(f"chain-3 navigability {got} != 5/12")
    _verdict(capsys, 2, failures,
             "extremes exact for n in 3..8, chain-3 = 5/12")


def _relabeled(g: SiteGraph) -> SiteGraph:
    rename = {node: "/r" + hashlib.sha1(node.encode()).hexdigest()[:10]
              for node in g.nodes}
    return SiteGraph(nodes=frozenset(rename.values()),
                     edges=frozenset((rename[a], rename[b])
                                     for a, b in g.edges),
                     root=rename[g.root])


def test_criterion_3_graph_oracle(capsys):
    t0 = time.perf_counter()
    failures: list[str] = []
    checked = 0
    for seed in range(10_000):
        n = 2 + seed % 7
        factor = (seed % 13) / 4.0
        g = fx.gen_graph(fx.GeneratorSpec(kind="random-digraph", size=n,
                                          edge_factor=factor, seed=seed))
        converted = structure.converted_distances(g)
        if not np.array_equal(converted.d, oracle_converted(g)):
            failures.append(f"distances differ from oracle at seed {seed}")
            break
        profile = structure.organization_profile(g)
        for name, value in (("density", profile.density),
                            ("navigability", profile.navigability),
                            ("linearity", profile.linearity)):
            if value is not None and not 0.0 <= value <= 1.0:
                failures.append(f"{name}={value} outside [0,1] at seed {seed}")
        if seed % 10 == 0:
            twin = structure.organization_profile(_relabeled(g))
            if (twin.density, twin.navigability, twin.linearity) != (
                    profile.density, profile.navigability, profile.linearity):
                failures.append(f"relabeling moved metrics at seed {seed}")
        checked += 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _verdict(capsys, 3, failures,
             f"{checked} seeded digraphs (n<=8) vs matrix-power oracle "
             f"in {elapsed:.1f}s")


def test_criterion_4_sessionize_oracle(capsys):
    t0 = time.perf_counter()
    failures: list[str] = []
    rng = random.Random(2026)
    fixtures_checked = 0
    for _ in range(1000):
        entries = []
        for _ in range(rng.randint(0, 40)):
            entries.append(LogEntry(
                visitor_key=f"user:v{rng.randint(0, 3)}",
                timestamp=START + timedelta(seconds=rng.randint(0, 10_800)),
                path=f"/p{rng.randint(0, 5):04d}",
                status=200,
                user_agent="x",
                referrer="",
            ))
        timeout = timedelta(minutes=rng.choice((5, 30)))
        sessions = usage_mod.sessionize(views_by_visitor(entries), timeout)
        if sessions_as_set(sessions) != brute_sessionize(entries, timeout):
            failures.append(f"mismatch vs brute oracle (fixture "
                            f"{fixtures_checked})")
            break
        if sum(len(s) for s in sessions) != len(entries):
            failures.append(f"partition lost views (fixture "
                            f"{fixtures_checked})")
            break
        fixtures_checked += 1

    timeout = timedelta(minutes=30)
    at_timeout = [
        LogEntry("user:a", START, "/x", 200, "x", ""),
        LogEntry("user:a", START + timeout, "/y", 200, "x", ""),
    ]
    if len(usage_mod.sessionize(views_by_visitor(at_timeout), timeout)) != 1:
        failures.append("gap of exactly the timeout split the session")
    past_timeout = [
        LogEntry("user:a", START, "/x", 200, "x", ""),
        LogEntry("user:a", START + timeout + timedelta(seconds=1),
                 "/y", 200, "x", ""),
    ]
    if len(usage_mod.sessionize(views_by_visitor(past_timeout), timeout)) != 2:
        failures.append("gap of timeout+1s did not split the session")

    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _verdict(capsys, 4, failures,
             f"{fixtures_checked} random fixtures vs brute grouping plus "
             f"timeout boundary in {elapsed:.1f}s")


def test_criterion_5_planted_recovery(capsys):
    failures: list[str] = []
    lines = fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                        visits_per_bucket=(10, 20, 30),
                                        visitors=5, bot_fraction=0.2,
                                        start=START))
    tally = usage_mod.IngestTally()
    views = usage_mod.ingest(lines, tally)
    humans = sum(len(v) for v in views.values())
    if (humans, tally.bot_entries) != (180, 45):
        failures.append(f"bot removal inexact: {humans} human, "
                        f"{tally.bot_entries} bot")
    period = usage_mod.AnalysisPeriod(start=START,
                                      end=START + timedelta(days=3))
    demand = usage_mod.overall_demand(usage_mod.sessionize(views), period)
    if demand.counts() != [10, 20, 30]:
        failures.append(f"planted demand came back as {demand.counts()}")
    slope = segmentation.demand_trend(demand)
    if abs(slope - 0.5) > 1e-9:
        failures.append(f"relative slope {slope} != 0.5")
    if segmentation.dynamics_class(slope).label != (
            segmentation.GROWING):
        failures.append("growing series not labeled Growing")

    flat_lines = fx.gen_log(fx.GeneratorSpec(kind="synthetic-log",
                                             visits_per_bucket=(7, 7, 7),
                                             visitors=4, start=START))
    flat_sessions = usage_mod.sessionize(
        usage_mod.ingest(flat_lines, usage_mod.IngestTally()))
    flat = segmentation.demand_trend(
        usage_mod.overall_demand(flat_sessions, period))
    if segmentation.dynamics_class(flat).label != (
            segmentation.STABLE):
        failures.append("constant series not labeled Stable")
    _verdict(capsys, 5, failures,
             "slope 0.5 from [10,20,30], Stable from [7,7,7], "
             "45/225 bot lines removed exactly")


def test_criterion_6_position_suite(capsys):
    failures: list[str] = []
    for seed in range(200):
        g = fx.gen_graph(fx.GeneratorSpec(kind="random-cross",
                                          size=3 + seed % 8,
                                          edge_factor=2.0, seed=seed))
        communities = position_mod.detect_communities(g)
        profiles = [position_mod.position_profile(g, s, communities)
                    for s in g.site_order()]
        if sum(p.in_degree for p in profiles) != sum(p.out_degree
                                                     for p in profiles):
            failures.append(f"distinct handshake broke at seed {seed}")
        if sum(p.weighted_in_degree for p in profiles) != sum(
                p.weighted_out_degree for p in profiles):
            failures.append(f"weighted handshake broke at seed {seed}")

    bridged = fx.gen_graph(fx.GeneratorSpec(kind="two-community", size=8,
                                            bridge_node=True))
    communities = position_mod.detect_communities(bridged)
    got = position_mod.position_profile(bridged, "x0.example", communities)
    if got.adjacent_communities != 2:
        failures.append(f"bridge adjacent_communities {got.adjacent_communities}")
    if got.bridge_score != 1.0:
        failures.append(f"bridge score {got.bridge_score} != 1.0")
    if not got.bridge:
        failures.append("bridge node not flagged as bridge")
    for site in sorted(bridged.sites - {"x0.example"}):
        interior = position_mod.position_profile(bridged, site, communities)
        if interior.bridge:
            failures.append(f"clique site {site} wrongly flagged as bridge")

    for seed in (0, 3):
        first = position_mod.detect_communities(bridged, seed=seed)
        second = position_mod.detect_communities(bridged, seed=seed)
        if first.labels != second.labels or first.rounds != second.rounds:
            failures.append(f"community detection unstable at seed {seed}")
    _verdict(capsys, 6, failures,
             "handshake on 200 graphs, two-clique bridge fixture, "
             "repeat-run determinism")


def test_criterion_7_segmentation_totality(capsys):
    failures: list[str] = []
    growing = segmentation.dynamics_class(0.5)
    stable = segmentation.dynamics_class(0.0)
    expected = {
        (growing, segmentation.LARGE): "Growing portals with large relative size",
        (growing, segmentation.SMALL): "Growing portals with low relative size",
        (stable, segmentation.LARGE): "Stable portals with large relative size",
        (stable, segmentation.SMALL): "Stable portals with small relative size",
    }
    seen = set()
    for (dynamics, size), name in expected.items():
        label = segmentation.segment(dynamics, size)
        if label.quadrant != name:
            failures.append(f"quadrant {name!r} came back as "
                            f"{label.quadrant!r}")
        seen.add(label.quadrant)
    if len(seen) != 4:
        failures.append(f"only {len(seen)} quadrants reachable")

    for counts in ([5, 9, 6, 12, 10], [10, 20, 30]):
        period = usage_mod.AnalysisPeriod(
            start=START, end=START + timedelta(days=len(counts)))
        def _series(values):
            starts = period.bucket_starts()
            return usage_mod.DemandSeries(buckets=tuple(zip(starts, values)))
        base = segmentation.demand_trend(_series(counts))
        scaled = segmentation.demand_trend(_series([c * 13 for c in counts]))
        if abs(base - scaled) > 1e-12:
            failures.append(f"demand scaling moved the slope for {counts}")
        if segmentation.dynamics_class(base).label != (
                segmentation.dynamics_class(scaled).label):
            failures.append(f"demand scaling moved the class for {counts}")

    sizes = {"a": 120, "b": 30, "c": 50}
    for m in (1, 7):
        ratios = segmentation.relative_size(
            {k: v * m for k, v in sizes.items()}, 200 * m)
        classes, _flags = segmentation.size_class(ratios)
        if classes != {"a": segmentation.LARGE, "b": segmentation.SMALL,
                       "c": segmentation.LARGE}:
            failures.append(f"size classes changed under scale {m}")
    _verdict(capsys, 7, failures,
             "all four quadrant names exact; both classifiers "
             "scale-invariant")


def _perf_workspace(root) -> str:
    """One large portal: 100k+ log lines and a 5k-page site graph."""
    os.makedirs(root, exist_ok=True)
    catalog_path = os.path.join(root, "catalog.csv")
    fx.write_catalog(fx.gen_catalog(fx.GeneratorSpec(
        kind="synthetic-catalog", portal_id="big",
        topic_counts=(("algebra", 250), ("biology", 250)))), catalog_path)
    taxonomy_path = os.path.join(root, "taxonomy.txt")
    fx.write_taxonomy(("algebra", "biology"), taxonomy_path)
    graph = fx.gen_graph(fx.GeneratorSpec(kind="random-digraph", size=5000,
                                          edge_factor=3.0, seed=1))
    edges_path = os.path.join(root, "edges.tsv")
    fx.write_site_graph(graph, edges_path)
    log_path = os.path.join(root, "access.log")
    fx.write_lines(log_path, fx.gen_log(fx.GeneratorSpec(
        kind="synthetic-log", visits_per_bucket=(420,) * 6, visitors=50,
        views_per_visit=40, start=START)))
    links_path = os.path.join(root, "links.tsv")
    fx.write_cross_links(fx.gen_graph(fx.GeneratorSpec(
        kind="two-community", size=6)), links_path)
    map_path = os.path.join(root, "map.tsv")
    fx.write_link_map([(f"/p{i:04d}", f"big-{i:05d}") for i in range(4)],
                      map_path)
    config_path = os.path.join(root, "big.config")
    fx.write_lines(config_path, [
        "portal_id = big",
        "site = c0.example",
        f"catalog = {catalog_path}",
        f"network_catalogs = {catalog_path}",
        f"edges = {edges_path}",
        f"logs = {log_path}",
        f"link_map = {map_path}",
        f"cross_links = {links_path}",
        f"taxonomy = {taxonomy_path}",
        "period_start = 2026-03-02T00:00:00+00:00",
        "period_end = 2026-03-08T00:00:00+00:00",
        "reference_date = 2026-03-01",
        f"output_dir = {os.path.join(root, 'out')}",
    ])
    return config_path


def test_criterion_8_end_to_end(capsys, tmp_path):
    failures: list[str] = []
    demo = fx.write_demo_network(tmp_path / "demo")
    report_paths = []
    for name, portal in sorted(demo["portals"].items()):
        if cli.main(["report", "--config", portal["config"]]) != 0:
            failures.append(f"report command failed for {name}")
        report_paths.append(os.path.join(portal["dir"], "out",
                                         f"{name}.report.json"))
    capsys.readouterr()
    for path in report_paths:
        with open(path, encoding="utf-8") as fh:
            deserialize(fh.read())  # schema-valid or it raises

    code = cli.main(["compare", "--output-dir", str(tmp_path / "cmp"),
                     *report_paths])
    compare_out = capsys.readouterr().out
    if code != 0:
        failures.append("within-segment comparison refused matching reports")
    if "could study" not in compare_out:
        failures.append("comparison emitted no learning pointer")

    variant_dir = tmp_path / "variant"
    if cli.main(["report", "--config", demo["portals"]["beta"]["config"],
                 "--growth-threshold", "0.07",
                 "--output-dir", str(variant_dir)]) != 0:
        failures.append("variant report failed")
    code = cli.main(["compare", "--output-dir", str(tmp_path / "cmp2"),
                     report_paths[0], str(variant_dir / "beta.report.json")])
    capsys.readouterr()
    if code != 1:
        failures.append(f"threshold mismatch not refused (exit {code})")

    config_path = _perf_workspace(tmp_path / "big")
    t0 = time.perf_counter()
    code = cli.main(["report", "--config", config_path])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    if code != 0:
        failures.append("large pipeline run failed")
    if elapsed >= 10.0:
        failures.append(f"large pipeline took {elapsed:.1f}s >= 10s")
    _verdict(capsys, 8, failures,
             f"demo reports schema-valid, pointer emitted, mismatch "
             f"refused; 100k lines + 5k pages in {elapsed:.1f}s")


def _schema_property_names(node) -> set[str]:
    names: set[str] = set()
    if isinstance(node, dict):
        for key, value in node.get("properties", {}).items():
            names.add(key)
            names |= _schema_property_names(value)
        for key in ("items", "additionalProperties"):
            if isinstance(node.get(key), dict):
                names |= _schema_property_names(node[key])
    return names


def test_criterion_9_sensitivity_guard(capsys):
    failures: list[str] = []
    names = _schema_property_names(REPORT_SCHEMA)
    sensitive = {
        "demand", "recency", "visit_counts", "total_visits",
        "bucket_starts", "session_count", "views_per_session",
        "mean_seconds_between_visits", "eligible_visitors",
        "single_visit_visitors", "sessions_measured", "sessions_skipped",
    }
    leaked = sorted(names & sensitive)
    if leaked:
        failures.append(f"schema admits sensitive fields: {leaked}")
    if not json.dumps(sorted(names)):
        failures.append("schema walk produced nothing")
    _verdict(capsys, 9, failures,
             f"{len(names)} schema properties, no raw visit-count or "
             f"recency fields")
