"""Command-line driver: exit codes, canonical output, file placement."""

from __future__ import annotations

import codecs
import csv
import gzip
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from portalmetrics import catalog, cli, segmentation, usage
from portalmetrics import config as config_mod
from portalmetrics import fixtures as fx
from portalmetrics.config import RunConfig, build_config
from portalmetrics.errors import FormatError
from portalmetrics.report import (REPORT_SCHEMA, _check, canonical_json,
                                  deserialize)

from oracles import reference_content_counts, reference_ingest, sessions_as_set
import pins
from pins import DEMO_DIGESTS, DEMO_STDOUT_DIGESTS

START = "2026-03-02T00:00:00+00:00"
END = "2026-03-05T00:00:00+00:00"


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    return fx.write_demo_network(tmp_path_factory.mktemp("cli-demo"))


def _catalog_file(tmp_path, topics=(("algebra", 2), ("biology", 2))):
    records = fx.gen_catalog(fx.GeneratorSpec(kind="synthetic-catalog",
                                              portal_id="p1",
                                              topic_counts=tuple(topics)))
    path = tmp_path / "catalog.csv"
    fx.write_catalog(records, path)
    return str(path)


class TestCatalogCommand:
    def test_happy_path_prints_canonical_json(self, tmp_path, capsys):
        code = cli.main(["catalog", "--catalog", _catalog_file(tmp_path),
                         "--portal-id", "p1",
                         "--reference-date", "2026-03-01"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "catalog-metrics"
        assert doc["portal_id"] == "p1"
        assert doc["records"] == 4
        assert doc["provision"]["diversity_offered_nats"] == pytest.approx(
            0.6931471805599453)
        assert canonical_json(doc) == out.encode("utf-8")

    def test_taxonomy_enables_richness(self, tmp_path, capsys):
        tax = tmp_path / "taxonomy.txt"
        fx.write_taxonomy(("algebra", "biology", "chemistry", "history"), tax)
        code = cli.main(["catalog", "--catalog", _catalog_file(tmp_path),
                         "--taxonomy", str(tax),
                         "--reference-date", "2026-03-01"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["provision"]["richness"] == 0.5
        assert "no_taxonomy" not in doc["flags"]

    def test_missing_catalog_file_is_config_error(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.csv")
        code = cli.main(["catalog", "--catalog", missing,
                         "--reference-date", "2026-03-01"])
        err = capsys.readouterr().err
        assert code == 2
        assert "absent.csv" in err

    def test_missing_reference_is_config_error(self, tmp_path, capsys):
        code = cli.main(["catalog", "--catalog", _catalog_file(tmp_path)])
        assert code == 2
        assert "reference" in capsys.readouterr().err

    def test_catalog_input_required(self, capsys):
        code = cli.main(["catalog", "--reference-date", "2026-03-01"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--catalog" in err


class TestStructureCommand:
    def test_chain_metrics(self, tmp_path, capsys):
        g = fx.gen_graph(fx.GeneratorSpec(kind="chain", size=3))
        path = tmp_path / "edges.tsv"
        fx.write_site_graph(g, path)
        code = cli.main(["structure", "--edges", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["kind"] == "organization-profile"
        assert doc["pages"] == 3
        assert doc["links"] == 2
        assert doc["organization"]["navigability"] == pytest.approx(5 / 12)

    @pytest.mark.parametrize("k,code", [("1", 2), ("2", 1), ("4", 0)])
    def test_distance_k_on_five_cycle(self, tmp_path, capsys, k, code):
        # The longest distance on a 5-cycle is 4. K=1 is a bad setting;
        # K=2 would give navigability -0.5.
        path = tmp_path / "edges.tsv"
        fx.write_site_graph(fx.gen_graph(fx.GeneratorSpec(kind="cycle",
                                                          size=5)), path)
        assert cli.main(["structure", "--edges", str(path),
                         "--distance-k", k]) == code
        if code:
            assert "distance" in capsys.readouterr().err

    def test_malformed_edge_file_is_format_error(self, tmp_path, capsys):
        path = tmp_path / "edges.tsv"
        path.write_text("no-second-column\n", encoding="utf-8")
        code = cli.main(["structure", "--edges", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err


@pytest.mark.parametrize("bucket_days", ["1e-12", "1e-9"])
def test_bucket_too_small_for_the_period_exits_2(demo, tmp_path, capsys,
                                                 bucket_days):
    # `catalog` builds no demand series, so a regression exits 0 here
    # instead of allocating billions of buckets.
    code = cli.main(["catalog", "--config", demo["portals"]["alpha"]["config"],
                     "--bucket-days", bucket_days,
                     "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "bucket_days" in err
    assert "Traceback" not in err


class TestUsageCommand:
    def test_diagnostics_written_with_warning(self, tmp_path, capsys):
        lines = fx.gen_log(fx.GeneratorSpec(
            kind="synthetic-log", visits_per_bucket=(3, 2), visitors=2,
            start=__import__("datetime").datetime.fromisoformat(START)))
        log_path = tmp_path / "access.log"
        fx.write_lines(log_path, lines)
        out_dir = tmp_path / "out"
        code = cli.main(["usage", "--logs", str(log_path),
                         "--portal-id", "p1",
                         "--period-start", START, "--period-end", END,
                         "--output-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["kind"] == "local-diagnostics"
        assert doc["demand"]["visit_counts"] == [3, 2, 0]
        assert doc["demand"]["total_visits"] == 5
        assert "not for sharing" in captured.err
        assert (out_dir / "p1.diagnostics.json").exists()

    def test_missing_period_is_config_error(self, tmp_path, capsys):
        log_path = tmp_path / "access.log"
        log_path.write_text("", encoding="utf-8")
        code = cli.main(["usage", "--logs", str(log_path)])
        assert code == 2

    def test_instant_outside_datetime_range_is_malformed(self, tmp_path,
                                                         capsys):
        log_path = tmp_path / "access.log"
        fx.write_lines(log_path, [
            'h - - [02/Mar/2026:10:00:00 +0000] "GET /a" 200 1 "-" "A"',
            'h - - [01/Jan/0001:00:30:00 +0100] "GET /a" 200 1 "-" "A"',
        ])
        code = cli.main(["usage", "--logs", str(log_path),
                         "--period-start", START, "--period-end", END,
                         "--output-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err
        tallies = json.loads(captured.out)["tallies"]
        assert tallies["log_lines"] == 2
        assert tallies["malformed_lines"] == 1
        assert tallies["sessions"] == 1


@pytest.mark.parametrize("command", ["report", "usage"])
def test_a_visit_before_the_period_moves_only_the_tallies(demo, tmp_path,
                                                          capsys, command):
    # One 8-view visit on 23 Feb, before alpha's period starts on 2 Mar.
    # Navigation, views per session and the session count cover the
    # sessions that start in the period, as demand does; the tallies
    # still count every line read and every session built.
    portal = demo["portals"]["alpha"]
    log = tmp_path / "access.log"
    shutil.copyfile(os.path.join(portal["dir"], "access.log"), log)
    with open(log, "a", encoding="utf-8") as fh:
        for minute, page in enumerate((0, 1, 2, 0, 3, 1, 4, 2)):
            fh.write(f'192.0.2.250 - - [23/Feb/2026:10:{minute:02d}:00 +0000] '
                     f'"GET /p{page:04d} HTTP/1.1" 200 1024 "-" '
                     f'"{fx.HUMAN_AGENT}"\n')
    outputs = []
    for name, flags in (("plain", []), ("early", ["--logs", str(log)])):
        out = tmp_path / name
        assert cli.main([command, "--config", portal["config"],
                         "--output-dir", str(out), *flags]) == 0
        capsys.readouterr()
        diagnostics = json.loads((out / "alpha.diagnostics.json").read_text())
        tallies = diagnostics.pop("tallies")
        report = out / "alpha.report.json"
        outputs.append((report.read_bytes() if report.exists() else None,
                        diagnostics, tallies))
    (plain, plain_diagnostics, plain_tallies), (early, early_diagnostics,
                                                early_tallies) = outputs
    assert early == plain and early_diagnostics == plain_diagnostics
    assert early_diagnostics["session_count"] == 60
    assert early_tallies == dict(plain_tallies,
                                 log_lines=plain_tallies["log_lines"] + 8,
                                 sessions=plain_tallies["sessions"] + 1)


class TestPositionCommand:
    def test_two_community_profile(self, tmp_path, capsys):
        g = fx.gen_graph(fx.GeneratorSpec(kind="two-community", size=6,
                                          bridge_node=True))
        path = tmp_path / "links.tsv"
        fx.write_cross_links(g, path)
        code = cli.main(["position", "--cross-links", str(path),
                         "--site", "x0.example"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["kind"] == "position-profile"
        assert doc["communities"] == 2
        assert doc["position"]["site"] == "x0.example"
        assert doc["position"]["adjacent_communities"] == 2
        assert doc["position"]["bridge"] is True

    def test_unbalanced_bracket_url_is_a_malformed_line(self, demo, tmp_path,
                                                        capsys):
        # urlparse raises on the unbalanced "[" of "http://[::1/x": the
        # line has no site, so it is malformed and the run goes on.
        config = demo["portals"]["alpha"]["config"]
        links = tmp_path / "cross_links.tsv"
        links.write_text(
            Path(build_config(config).cross_links).read_text(encoding="utf-8")
            + "http://[::1/x\thttps://alpha.example/landing\n",
            encoding="utf-8")
        outputs = {}
        for name, extra in (("plain", []),
                            ("bracket", ["--cross-links", str(links)])):
            for command in ("position", "report"):
                code = cli.main([command, "--config", config, *extra,
                                 "--output-dir", str(tmp_path / name)])
                captured = capsys.readouterr()
                assert code == 0, captured.err
                assert "Traceback" not in captured.err
                outputs[name, command] = json.loads(captured.out)
        assert outputs["plain", "position"]["malformed_lines"] == 0
        assert outputs["bracket", "position"]["malformed_lines"] == 1
        assert outputs["bracket", "report"] == outputs["plain", "report"]

    def test_bracketed_non_ipv6_host_is_a_malformed_line(self, tmp_path,
                                                         capsys):
        # Python 3.10 read "[x]" as host x, a third site, while 3.11
        # refused the URL; now both versions count the line as malformed.
        links = tmp_path / "cross_links.tsv"
        links.write_text("https://a.example/x\thttp://[x]/y\n"
                         "https://a.example/x\thttps://b.example/z\n",
                         encoding="utf-8")
        code = cli.main(["position", "--cross-links", str(links),
                         "--site", "a.example"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (doc["sites"], doc["malformed_lines"]) == (2, 1)
        assert doc["position"]["out_degree"] == 1

    def test_site_flag_required(self, tmp_path, capsys):
        g = fx.gen_graph(fx.GeneratorSpec(kind="two-community", size=4))
        path = tmp_path / "links.tsv"
        fx.write_cross_links(g, path)
        code = cli.main(["position", "--cross-links", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "--site" in err

    def test_unknown_site_is_domain_error(self, tmp_path, capsys):
        g = fx.gen_graph(fx.GeneratorSpec(kind="two-community", size=4))
        path = tmp_path / "links.tsv"
        fx.write_cross_links(g, path)
        code = cli.main(["position", "--cross-links", str(path),
                         "--site", "nowhere.example"])
        assert code == 1


class TestSegmentCommand:
    def test_demo_alpha_quadrant(self, demo, capsys):
        code = cli.main(["segment", "--config",
                         demo["portals"]["alpha"]["config"]])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["kind"] == "segmentation"
        seg = doc["segmentation"]
        assert seg["dynamics"] == "Growing"
        assert seg["relative_slope"] == pytest.approx(0.5)
        assert seg["relative_size"] == pytest.approx(0.5)
        assert seg["quadrant"] == "Growing portals with large relative size"


@pytest.mark.parametrize("edges,flags", [
    ("# node: /h\n", ["single_node_graph"]),
    ("# node: /h\n/a,/h\n", ["no_page_reachable_from_root"]),
    (None, [segmentation.INDETERMINATE_FLAG]),
], ids=["single-node", "root-reaches-nothing", "all-zero-demand"])
def test_degenerate_sections_fit_the_report_schema(demo, tmp_path, capsys,
                                                   edges, flags):
    if edges is None:
        # Bot hits only, so every demand bucket is zero.
        section, key = "segmentation", "annotations"
        log = tmp_path / "bots.log"
        log.write_text(_clf_line("198.51.100.7", "-", 0, 0, "/robots.txt",
                                 200, "ExampleBot/2.1") + "\n",
                       encoding="utf-8")
        argv = ["segment", "--config", demo["portals"]["alpha"]["config"],
                "--logs", str(log)]
    else:
        section, key = "organization", "flags"
        path = tmp_path / "edges.tsv"
        path.write_text(edges, encoding="utf-8")
        argv = ["structure", "--edges", str(path)]
    code = cli.main(argv)
    document = json.loads(capsys.readouterr().out)[section]
    assert code == 0
    assert document[key] == flags
    subschema = REPORT_SCHEMA["properties"][section]
    found: list = []
    _check(subschema, document, (), found)
    assert found == []
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.Draft202012Validator(subschema).validate(document)


class TestReportCommand:
    def test_full_report_all_sections(self, demo, capsys):
        code = cli.main(["report", "--config",
                         demo["portals"]["alpha"]["config"]])
        captured = capsys.readouterr()
        assert code == 0
        report = deserialize(captured.out)
        assert report["portal_id"] == "alpha"
        assert report["metadata"]["missing_sections"] == []
        for section in ("provision", "organization", "position",
                        "segmentation"):
            assert report[section] is not None
        assert "report written to" in captured.err
        assert "not for sharing" in captured.err
        out_dir = os.path.join(demo["portals"]["alpha"]["dir"], "out")
        assert os.path.exists(os.path.join(out_dir, "alpha.report.json"))
        assert os.path.exists(os.path.join(out_dir, "alpha.diagnostics.json"))

    def test_reruns_are_byte_identical(self, demo, capsys):
        config = demo["portals"]["beta"]["config"]
        path = os.path.join(demo["portals"]["beta"]["dir"], "out",
                            "beta.report.json")
        assert cli.main(["report", "--config", config]) == 0
        first = Path(path).read_bytes()
        assert cli.main(["report", "--config", config]) == 0
        capsys.readouterr()
        assert Path(path).read_bytes() == first

    def test_gzip_log_gives_the_same_report(self, demo, tmp_path, capsys):
        portal = demo["portals"]["alpha"]
        log = os.path.join(portal["dir"], "access.log")
        packed = tmp_path / "access.log.gz"
        with open(log, "rb") as src:
            packed.write_bytes(gzip.compress(src.read()))
        reports = []
        for logs, out in ((log, "plain"), (str(packed), "gz")):
            assert cli.main(["report", "--config", portal["config"],
                             "--logs", logs,
                             "--output-dir", str(tmp_path / out)]) == 0
            reports.append((tmp_path / out / "alpha.report.json").read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("content",
                             [None, b"\x1f\x8b\x08\x00", b"plain text\n",
                              "corrupt-deflate"],
                             ids=["missing", "truncated-gzip", "not-gzip",
                                  "corrupt-deflate"])
    def test_unreadable_log_is_config_error(self, demo, tmp_path, capsys,
                                            content):
        portal = demo["portals"]["alpha"]
        good = os.path.join(portal["dir"], "access.log")
        log = tmp_path / "rotated.log.gz"
        if content == "corrupt-deflate":
            # Bytes 40-59 inverted: the deflate stream fails with zlib.error.
            with open(good, "rb") as fh:
                data = bytearray(gzip.compress(fh.read(), mtime=0))
            data[40:60] = bytes(b ^ 0xFF for b in data[40:60])
            content = bytes(data)
        if content is not None:
            log.write_bytes(content)
        code = cli.main(["report", "--config", portal["config"],
                         "--logs", f"{good},{log}",
                         "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot read log file {log}:" in err
        assert "Traceback" not in err

    def test_mostly_malformed_log_writes_nothing(self, demo, tmp_path,
                                                 capsys):
        portal = demo["portals"]["alpha"]
        log = tmp_path / "access.log"
        fx.write_lines(log, [
            'h - - [02/Mar/2026:10:00:00 +0000] "GET /a" 200 1 "-" "A"',
            "junk", "more junk"])
        out = tmp_path / "out"
        code = cli.main(["report", "--config", portal["config"],
                         "--logs", str(log), "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert ("error: log stream is mostly unparseable: "
                "2 of 3 lines malformed") in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,what", [
        ("--taxonomy", "taxonomy"),
        ("--link-map", "link map"),
        ("--bot-list", "bot signature list"),
        ("--site-map", "site map"),
    ])
    @pytest.mark.parametrize("content", [None, b"\xff\xfe not utf-8\n"],
                             ids=["missing", "not-utf8"])
    def test_unreadable_side_file_exits_2(self, demo, tmp_path, capsys,
                                          flag, what, content):
        side = tmp_path / "side.txt"
        if content is not None:
            side.write_bytes(content)
        code = cli.main(["report", "--config", demo["portals"]["alpha"]["config"],
                         flag, str(side),
                         "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        if content is None:
            assert f"cannot read {what} file {side}:" in err
        else:
            assert f"{what} file {side} is not UTF-8" in err
        assert "Traceback" not in err

    def test_report_keeps_raw_visit_counts_out(self, demo, capsys):
        code = cli.main(["report", "--config",
                         demo["portals"]["alpha"]["config"]])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        text_keys = json.dumps(sorted(_all_keys(doc)))
        for name in ("visit_counts", "total_visits", "session_count",
                     "views_per_session", "mean_seconds_between_visits"):
            assert name not in text_keys


def _all_keys(node):
    keys = set()
    if isinstance(node, dict):
        for k, v in node.items():
            keys.add(k)
            keys |= _all_keys(v)
    elif isinstance(node, list):
        for item in node:
            keys |= _all_keys(item)
    return keys


@pytest.fixture(scope="module")
def reports(demo):
    paths = {}
    for name in ("alpha", "beta"):
        assert cli.main(["report", "--config",
                         demo["portals"][name]["config"]]) == 0
        paths[name] = os.path.join(demo["portals"][name]["dir"], "out",
                                   f"{name}.report.json")
    return paths


_T0 = datetime(2026, 3, 2, tzinfo=timezone.utc)


def _clf_line(host, user, seconds, offset_hours, path, status, agent):
    local = (_T0 + timedelta(seconds=seconds)).astimezone(
        timezone(timedelta(hours=offset_hours)))
    when = (f"{local.day:02d}/{fx._MONTH_ABBR[local.month - 1]}/{local.year}:"
            f"{local:%H:%M:%S %z}")
    return (f'{host} - {user} [{when}] "GET {path} HTTP/1.1" {status} 10 '
            f'"-" "{agent}"')


_INGEST_LINE = st.builds(
    _clf_line,
    st.sampled_from(["198.51.100.9", "203.0.113.7"]),
    st.sampled_from(["-", "-", "alice"]),
    st.integers(min_value=0, max_value=4 * 3600),
    st.sampled_from([0, -7]),
    st.sampled_from(["/a", "/b", "/c", "/robots.txt"]),
    st.sampled_from([200, 200, 304, 404]),
    st.sampled_from(["Mozilla/5.0", "ExampleBot/2.1", "AgentX/1.0"]))
_JUNK_LINE = st.sampled_from([
    "garbage", "", 'h - - [99/Xyz/2026:00:00:00 +0000] "GET /a" 200 1 "-" "A"'])
# Few visitors, so sessions form and split; bots by signature, by a
# custom signature list and by robots fetches; 404s; two offsets; and
# junk lines, about one in four, so that some logs are mostly junk.
_INGEST_LINES = st.lists(
    st.one_of(_INGEST_LINE, _INGEST_LINE, _INGEST_LINE, _JUNK_LINE),
    max_size=40)


class TestStreamingIngest:
    @given(_INGEST_LINES, st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_load_sessions_matches_the_eager_path(self, lines, use_auth_user,
                                                  custom_bots):
        with tempfile.TemporaryDirectory() as tmp:
            log = os.path.join(tmp, "access.log")
            fx.write_lines(log, lines)
            bot_list = signatures = None
            if custom_bots:
                bot_list = os.path.join(tmp, "bots.txt")
                fx.write_lines(bot_list, ["# custom", "AgentX"])
                with open(bot_list, encoding="utf-8") as fh:
                    signatures = usage.parse_signatures(fh)
            cfg = RunConfig(logs=(log,), bot_list=bot_list,
                            use_auth_user=use_auth_user)
            try:
                expected, counts = reference_ingest(
                    lines, cfg.session_timeout(), use_auth_user, signatures)
            except FormatError as exc:
                with pytest.raises(FormatError) as streamed:
                    cli._load_sessions(cfg)
                assert str(streamed.value) == str(exc)
                return
            sessions, tallies = cli._load_sessions(cfg)
        assert sessions_as_set(sessions) == expected
        assert len(sessions) == len(expected)
        # Sessions come out in (visitor, start) order.
        order = [(s.visitor_key, s.views[0]) for s in sessions]
        assert order == sorted(order)
        assert tallies == {**counts, "sessions": len(expected)}


class TestNetworkCatalogs:
    HEADER = "identifier,resource_type,topic,published,portal_id"

    @pytest.mark.parametrize("command", ["segment", "report"])
    def test_identifier_shared_across_files_counts_once(self, demo, tmp_path,
                                                        capsys, command):
        # "shared" is in both files (two portals); alpha's x1 row is in
        # both files too. A per-file reset of the network-wide identifier
        # set would count "shared" twice in the network total.
        first = tmp_path / "net-a.csv"
        second = tmp_path / "net-b.csv"
        fx.write_lines(first, [self.HEADER,
                               "x1,text,algebra,2025-01-01,alpha",
                               "x2,text,algebra,2025-01-01,alpha",
                               "shared,text,biology,2025-01-01,alpha"])
        fx.write_lines(second, [self.HEADER,
                                "y1,text,biology,2025-01-01,beta",
                                "shared,text,biology,2025-01-01,beta",
                                "x1,text,algebra,2025-01-01,alpha"])
        records = []
        for path in (first, second):
            with open(path, encoding="utf-8") as fh:
                records += catalog.parse_catalog(fh).records
        per_portal, network_total = reference_content_counts(records)
        assert (per_portal, network_total) == ({"alpha": 3, "beta": 2}, 4)
        ratios = segmentation.relative_size(per_portal, network_total)

        out = tmp_path / "out"
        code = cli.main([command, "--config", demo["portals"]["alpha"]["config"],
                         "--network-catalogs", f"{first},{second}",
                         "--output-dir", str(out)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["segmentation"]["relative_size"] == ratios["alpha"]
        if command == "segment":
            assert doc["network_size_classes"] == \
                segmentation.size_class(ratios)[0]


    @pytest.mark.parametrize("flag", ["--catalog", "--network-catalogs"])
    def test_nul_byte_in_a_catalog_exits_2(self, demo, tmp_path, capsys,
                                           flag):
        # The own catalog is parsed into records, a network catalog only
        # counted through content_keys; both refuse the NUL byte and name
        # the file.
        path = tmp_path / "nul.csv"
        fx.write_lines(path, [self.HEADER, "x1,text,algebra,2025-01-01,alpha",
                              "x\x002,text,algebra,2025-01-01,alpha"])
        out = tmp_path / "out"
        code = cli.main(["report", "--config",
                         demo["portals"]["alpha"]["config"], flag, str(path),
                         "--output-dir", str(out)])
        what = "catalog" if flag == "--catalog" else "network catalog"
        assert (code, capsys.readouterr().err) == (
            2, f"error: {what} file {path}: line 3: line contains NUL\n")
        assert not out.exists()

    def test_every_listed_catalog_is_read_once_more(self, demo, tmp_path,
                                                    capsys, monkeypatch):
        # The demo configs list each portal's own catalog again among the
        # network catalogs; report reads it as the portal's catalog and
        # again as a network catalog, each time through the row checker,
        # just as it reads a copy of it, and the report is the same.
        config = demo["portals"]["alpha"]["config"]
        cfg = build_config(config)
        own = cfg.catalog
        others = [p for p in cfg.network_catalogs
                  if os.path.abspath(p) != os.path.abspath(own)]
        assert len(others) == len(cfg.network_catalogs) - 1
        # report reads catalogs in a worker process, so the counters log
        # to files, which every process appends to.
        passes_log, reads_log = tmp_path / "passes", tmp_path / "reads"
        checked_rows = catalog._checked_rows
        opened = cli.opened

        def log(path, line):
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")

        def logged(path):
            return path.read_text(encoding="utf-8").splitlines()

        def counting_passes(*args, **kwargs):
            log(passes_log, "1")
            return checked_rows(*args, **kwargs)

        def counting_opens(path, what):
            if "catalog" in what:
                log(reads_log, os.path.abspath(path))
            return opened(path, what)
        monkeypatch.setattr(catalog, "_checked_rows", counting_passes)
        monkeypatch.setattr(cli, "opened", counting_opens)

        def report(name, *network):
            passes_log.write_text("")
            reads_log.write_text("")
            out = tmp_path / name
            args = ["report", "--config", config, "--output-dir", str(out)]
            if network:
                args += ["--network-catalogs", ",".join(network)]
            assert cli.main(args) == 0
            capsys.readouterr()
            passes, reads = logged(passes_log), logged(reads_log)
            assert len(reads) == len(passes)
            return reads, (out / "alpha.report.json").read_bytes()

        reads, listed = report("listed")
        assert sorted(reads) == sorted(
            map(os.path.abspath, [own, *cfg.network_catalogs]))
        respelled = os.path.join(os.path.dirname(own), ".",
                                 os.path.basename(own))
        copy = tmp_path / "copy.csv"
        shutil.copyfile(own, copy)
        for name, path in (("respelled", respelled), ("copied", str(copy))):
            reads, report_bytes = report(name, path, *others)
            assert len(reads) == 2 + len(others)
            assert report_bytes == listed


class TestCatalogFormatErrors:
    """A catalog that cannot be read as a catalog exits 2 with a message
    that names its file, whether it is the portal's own catalog or one of
    the network catalogs."""

    HEADER = "identifier,resource_type,topic,published,portal_id"

    @staticmethod
    def _run(argv, capsys):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return code, captured.err

    @staticmethod
    def _oversized(demo, tmp_path):
        # One quoted field past the csv module's field size limit.
        path = tmp_path / "oversized.csv"
        shutil.copyfile(build_config(demo["portals"]["alpha"]["config"]).catalog,
                        path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('big,text,"' + "a" * (csv.field_size_limit() + 1)
                     + '",2025-01-01,alpha\n')
        return str(path)

    @pytest.mark.parametrize("command", ["catalog", "report"])
    def test_oversized_field_in_own_catalog(self, demo, tmp_path, capsys,
                                            command):
        bad = self._oversized(demo, tmp_path)
        code, err = self._run([command, "--config",
                               demo["portals"]["alpha"]["config"],
                               "--catalog", bad,
                               "--output-dir", str(tmp_path / "out")], capsys)
        assert code == 2
        assert f"catalog file {bad}: line " in err
        assert "field larger than field limit" in err

    @pytest.mark.parametrize("command", ["segment", "report"])
    def test_oversized_field_in_network_catalog(self, demo, tmp_path, capsys,
                                                command):
        cfg = build_config(demo["portals"]["alpha"]["config"])
        bad = self._oversized(demo, tmp_path)
        code, err = self._run([command, "--config",
                               demo["portals"]["alpha"]["config"],
                               "--network-catalogs", f"{cfg.catalog},{bad}",
                               "--output-dir", str(tmp_path / "out")], capsys)
        assert code == 2
        assert f"network catalog file {bad}: line " in err
        assert "field larger than field limit" in err

    @pytest.mark.parametrize("lines,message", [
        ([], "catalog stream is empty"),
        (["identifier,topic,published,portal_id"],
         "missing mandatory column(s): resource_type"),
    ])
    def test_unreadable_network_catalog_is_named(self, demo, tmp_path,
                                                 capsys, lines, message):
        cfg = build_config(demo["portals"]["alpha"]["config"])
        good = tmp_path / "good.csv"
        fx.write_lines(good, [self.HEADER, "y1,text,biology,2025-01-01,beta"])
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(line + "\n" for line in lines),
                       encoding="utf-8")
        code, err = self._run(["report", "--config",
                               demo["portals"]["alpha"]["config"],
                               "--network-catalogs",
                               f"{cfg.catalog},{good},{bad}",
                               "--output-dir", str(tmp_path / "out")], capsys)
        assert code == 2
        assert f"network catalog file {bad}: " in err
        assert message in err


class TestCatalogsWithNoUsableRow:
    """An own catalog that keeps no record, and network catalogs that hold
    no usable row between them, end in one line that names them."""

    HEADER = "identifier,resource_type,topic,published,portal_id"

    @pytest.mark.parametrize("command", ["catalog", "report"])
    @pytest.mark.parametrize("rows,skipped", [
        ([], 0), (["x1,text,algebra,2026-13-01,alpha"], 1)],
        ids=["header only", "bad date"])
    def test_own_catalog(self, demo, tmp_path, capsys, command, rows,
                         skipped):
        path = tmp_path / "catalog.csv"
        fx.write_lines(path, [self.HEADER, *rows])
        out = tmp_path / "out"
        code = cli.main([command, "--config",
                         demo["portals"]["alpha"]["config"],
                         "--catalog", str(path), "--output-dir", str(out)])
        assert (code, capsys.readouterr().err) == (1, (
            f"error: catalog file {path}: catalog holds no usable row "
            f"({skipped} skipped as malformed)\n"))
        assert not out.exists()

    @pytest.mark.parametrize("command", ["segment", "report"])
    def test_network_catalogs(self, demo, tmp_path, capsys, command):
        path = tmp_path / "network.csv"
        fx.write_lines(path, [self.HEADER])
        out = tmp_path / "out"
        code = cli.main([command, "--config",
                         demo["portals"]["alpha"]["config"],
                         "--network-catalogs", f"{path},{path}",
                         "--output-dir", str(out)])
        assert (code, capsys.readouterr().err) == (1, (
            "error: no file of network_catalogs holds a usable row\n"))
        assert not out.exists()


def test_report_refuses_a_linked_identifier_held_with_two_topics(
        demo, tmp_path, capsys):
    # Another portal's record of alpha-00001, which /p0001 links, with a
    # topic of its own: its views would count for either topic.
    cfg = build_config(demo["portals"]["alpha"]["config"])
    path = tmp_path / "catalog.csv"
    shutil.copyfile(cfg.catalog, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("alpha-00001,text,history,2026-02-19,beta\n")
    out = tmp_path / "out"
    code = cli.main(["report", "--config", demo["portals"]["alpha"]["config"],
                     "--catalog", str(path), "--output-dir", str(out)])
    assert (code, capsys.readouterr().err) == (1, (
        f"error: link map file {cfg.link_map}: path '/p0001' links "
        "identifier 'alpha-00001', which the catalog holds with two topics: "
        "('alpha', 'algebra') and ('beta', 'history')\n"))
    assert not out.exists()


def test_demo_network_outputs_match_their_pinned_digests(tmp_path, capsys):
    root = tmp_path / "demo"
    assert cli.main(["gen", str(root)]) == 0
    configs = json.loads(capsys.readouterr().out)["configs"]
    outputs = {}
    for name in ("alpha", "beta"):
        out = tmp_path / name
        assert cli.main(["report", "--config", configs[name],
                         "--output-dir", str(out)]) == 0
        for kind in ("report", "diagnostics"):
            outputs[f"{name}.{kind}.json"] = out / f"{name}.{kind}.json"
    capsys.readouterr()
    assert cli.main(["compare", "--output-dir", str(tmp_path / "cmp"),
                     str(outputs["alpha.report.json"]),
                     str(outputs["beta.report.json"])]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    outputs["comparison.json"] = tmp_path / "cmp" / "comparison.json"
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in outputs.items()}
    assert digests == DEMO_DIGESTS
    stdout_digests = {"comparison.stdout": hashlib.sha256(stdout).hexdigest()}
    assert stdout_digests == DEMO_STDOUT_DIGESTS
    # The same check as CI makes it, through the pins' entry point.
    outputs["comparison.stdout"] = tmp_path / "comparison.stdout"
    outputs["comparison.stdout"].write_bytes(stdout)
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("pins.py")),
         *(f"{name}={path}" for name, path in outputs.items())],
        capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout.count(": OK (")) == (0, 6), \
        done.stdout


def test_pins_refuse_a_wrong_digest_an_unknown_name_and_a_missing_file(
        tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_bytes(b"{}\n")
    for arg in (f"alpha.report.json={other}", f"gamma.report.json={other}",
                f"comparison.json={tmp_path / 'missing'}",
                "comparison.json"):
        assert pins.main([f"comparison.json={other}", arg]) == 1, arg
    assert pins.main([]) == 1
    capsys.readouterr()


def test_traced_benchmark_operation_on_demo_alpha(tmp_path, capsys):
    """perfbench/op.py with a spans file runs `report` under the layer
    tracer, which reads the shapes of the values the pipeline returns, in
    this process and in report's worker. It must exit 0 and write alpha's
    pinned outputs."""
    assert cli.main(["gen", str(tmp_path / "demo")]) == 0
    config = json.loads(capsys.readouterr().out)["configs"]["alpha"]
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "op.py"), config,
         str(result), str(tmp_path / "spans.json"), "op1"],
        env=env, cwd=root, capture_output=True, timeout=120)
    assert (proc.returncode, b"Traceback" in proc.stderr) == (0, False), \
        proc.stderr
    assert json.loads(result.read_text())["code"] == 0
    out = Path(config).parent / "out"
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("alpha.report.json", "alpha.diagnostics.json")}
    assert digests == {name: DEMO_DIGESTS[name] for name in digests}


# sha256 of what each single-section command writes on the demo network:
# its stdout, and the diagnostics file `usage` writes. Same rule as above.
SINGLE_COMMAND_DIGESTS = {
    "alpha.catalog.stdout":
        "6a8c9491616cc17d75855a0b04bf89157577c66faa877c53da9fda93cf401d6f",
    "alpha.structure.stdout":
        "76b2aeab3e66062ba9ec429d2835ffe85a4563cf360e9e3dbb6bba312f18afc0",
    "alpha.usage.stdout":
        "41f6bd07bad1467e41c5a9a419d62466e6f034ec7ca9fa0051b566de725c6a04",
    "alpha.usage.alpha.diagnostics.json":
        "41f6bd07bad1467e41c5a9a419d62466e6f034ec7ca9fa0051b566de725c6a04",
    "alpha.position.stdout":
        "5441ba5fc19d55733697ecb16ea48a66cab5efb2e3a3f7ccb0921f214f13073b",
    "alpha.segment.stdout":
        "5d1adcf7eb70d4a5c311f371c9d16e596ac7ab28e51e080f44e7f4d2e2e4a2ca",
    "beta.catalog.stdout":
        "491ba0cfd8842615c3cc9de0982991c72f400eb780788a29b62b4d33268ea8bc",
    "beta.structure.stdout":
        "5611269bc38ff334523c5e26473b52504b721456f2fdb6b8d3482f05c7313ac1",
    "beta.usage.stdout":
        "6c4c78ddaec6c2c9dad96e7c1debb042ae89d13cbf369b08f323bb6bd8e0edbb",
    "beta.usage.beta.diagnostics.json":
        "6c4c78ddaec6c2c9dad96e7c1debb042ae89d13cbf369b08f323bb6bd8e0edbb",
    "beta.position.stdout":
        "41f5da3a31a7fe60b0716cc8a88ff9ec5a68de59a545ebd612ddcb79069a78fe",
    "beta.segment.stdout":
        "a275746e5c1676b369e4dc355f1371aa3e7ab94f94485125f8b62959b92420d8",
}


def test_single_section_commands_match_their_pinned_digests(tmp_path, capsys):
    root = tmp_path / "demo"
    assert cli.main(["gen", str(root)]) == 0
    configs = json.loads(capsys.readouterr().out)["configs"]
    digests = {}
    for name in ("alpha", "beta"):
        for command in ("catalog", "structure", "usage", "position",
                        "segment"):
            out = tmp_path / f"{name}-{command}"
            assert cli.main([command, "--config", configs[name],
                             "--output-dir", str(out)]) == 0
            stdout = capsys.readouterr().out.encode("utf-8")
            digests[f"{name}.{command}.stdout"] = hashlib.sha256(
                stdout).hexdigest()
            for written in sorted(out.iterdir()) if out.exists() else ():
                digests[f"{name}.{command}.{written.name}"] = hashlib.sha256(
                    written.read_bytes()).hexdigest()
    assert digests == SINGLE_COMMAND_DIGESTS


class TestCompareCommand:
    def test_within_segment_comparison(self, reports, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        code = cli.main(["compare", "--output-dir", str(out_dir),
                         reports["alpha"], reports["beta"]])
        captured = capsys.readouterr()
        assert code == 0
        assert "alpha" in captured.out and "beta" in captured.out
        assert "could study" in captured.out
        assert (out_dir / "comparison.json").exists()

    def test_threshold_mismatch_refused(self, reports, demo, tmp_path,
                                        capsys):
        variant_dir = tmp_path / "variant"
        assert cli.main(["report", "--config",
                         demo["portals"]["beta"]["config"],
                         "--growth-threshold", "0.07",
                         "--output-dir", str(variant_dir)]) == 0
        capsys.readouterr()
        code = cli.main(["compare", "--output-dir", str(tmp_path / "cmp"),
                         reports["alpha"],
                         str(variant_dir / "beta.report.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert "growth_threshold" in err

    def test_single_report_refused(self, reports, tmp_path, capsys):
        code = cli.main(["compare", "--output-dir", str(tmp_path / "cmp"),
                         reports["alpha"]])
        assert code == 1

    def test_non_report_json_is_format_error(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{\"kind\": \"other\"}", encoding="utf-8")
        code = cli.main(["compare", "--output-dir", str(tmp_path / "cmp"),
                         str(bogus), str(bogus)])
        assert code == 2

    @staticmethod
    def _with_density(reports, tmp_path, token):
        data = Path(reports["beta"]).read_bytes()
        data, count = re.subn(rb'"density":[^,}]+',
                              b'"density":' + token, data)
        assert count == 1
        path = tmp_path / f"beta-{token.decode()}.report.json"
        path.write_bytes(data)
        return str(path)

    @pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"-Infinity"])
    def test_non_finite_number_names_the_report(self, reports, tmp_path,
                                                capsys, token):
        bad = self._with_density(reports, tmp_path, token)
        code = cli.main(["compare", "--output-dir", str(tmp_path / "cmp"),
                         reports["alpha"], bad])
        err = capsys.readouterr().err
        assert code == 2
        assert bad in err and token.decode() in err
        assert "Traceback" not in err
        assert not (tmp_path / "cmp").exists()

    def test_violation_is_printed_once(self, reports, tmp_path, capsys):
        bad = self._with_density(reports, tmp_path, b"1.5")
        code = cli.main(["compare", "--output-dir", str(tmp_path / "cmp"),
                         reports["alpha"], bad])
        err = capsys.readouterr().err
        assert code == 2
        assert bad in err
        assert err.count("organization/density") == 1
        assert len(err.splitlines()) == 1


class TestGenCommand:
    def test_writes_workspace(self, tmp_path, capsys):
        target = tmp_path / "demo"
        code = cli.main(["gen", str(target)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["kind"] == "demo-network"
        assert set(doc["configs"]) == {"alpha", "beta"}
        for path in doc["configs"].values():
            assert os.path.exists(path)


class TestNonUtf8Input:
    @pytest.mark.parametrize("command,flag", [
        ("catalog", "--catalog"),
        ("catalog", "--taxonomy"),
        ("catalog", "--config"),
        ("structure", "--edges"),
        ("position", "--cross-links"),
        ("position", "--site-map"),
        ("compare", None),
    ])
    def test_is_format_error(self, tmp_path, capsys, command, flag):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe not utf-8\n")
        links = tmp_path / "links.tsv"
        fx.write_cross_links(fx.gen_graph(fx.GeneratorSpec(
            kind="two-community", size=4)), links)
        args = {
            "catalog": ["--catalog", _catalog_file(tmp_path),
                        "--reference-date", "2026-03-01"],
            "structure": [],
            "position": ["--cross-links", str(links), "--site", "x0.example"],
            "compare": [str(bad), str(bad)],
        }[command]
        if flag is not None:
            args += [flag, str(bad)]  # a repeated flag overrides the first
        code = cli.main([command, "--output-dir", str(tmp_path / "out")]
                        + args)
        assert code == 2
        assert "not UTF-8" in capsys.readouterr().err


class TestErrorsNameTheirFile:
    """A side file that cannot be read, decoded or parsed, or whose
    content is outside the domain, ends in one stderr line that names
    the file."""

    @staticmethod
    def _bad_catalog(path):
        # A byte that is not UTF-8 past the first 8 KiB of the file.
        fx.write_catalog(fx.gen_catalog(fx.GeneratorSpec(
            kind="synthetic-catalog", portal_id="p1",
            topic_counts=(("algebra", 400),))), path)
        assert path.stat().st_size > 8192
        with open(path, "ab") as fh:
            fh.write(b"r\xff,text,algebra,2026-01-01,p1\n")

    @pytest.mark.parametrize("flag,content,code,message", [
        ("--edges", "/a,/b\nnot-an-edge\n", 2,
         "edge list file {path}: edge line 2 is not a (from, to) pair: "
         "'not-an-edge'"),
        ("--taxonomy", "algebra\nalgebra\n", 1,
         "taxonomy file {path}: taxonomy labels must be unique"),
        ("--taxonomy", "# no labels\n\n", 1,
         "taxonomy file {path}: taxonomy must contain at least one topic"),
        ("--cross-links", "# no links\n", 1,
         "cross-site link file {path}: no cross-site links found; the "
         "graph is empty"),
        ("--config", "nope = 1\n", 2,
         "config file {path}: line 1: unknown setting 'nope'"),
        ("--catalog", None, 2,
         "catalog file {path} is not UTF-8 text: invalid start byte"),
    ], ids=["edge-line", "duplicate-taxonomy", "empty-taxonomy",
            "no-cross-links", "config-key", "catalog-decode"])
    def test_one_line_names_the_file(self, tmp_path, capsys, flag, content,
                                     code, message):
        path = tmp_path / "side.txt"
        if content is None:
            self._bad_catalog(path)
        else:
            path.write_text(content, encoding="utf-8")
        command = {"--edges": ["structure"],
                   "--cross-links": ["position", "--site", "a.example"]}.get(
            flag, ["catalog", "--catalog", _catalog_file(tmp_path),
                   "--reference-date", "2026-03-01"])
        assert cli.main(command + [flag, str(path)]) == code
        err = capsys.readouterr().err
        assert err == f"error: {message.format(path=path)}\n"


class TestByteOrderMark:
    """A side file saved with a leading UTF-8 byte-order mark gives the
    same outputs as the same file saved without it."""

    @staticmethod
    def _copies(tmp_path, data: bytes):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_bytes(data)
        marked.write_bytes(codecs.BOM_UTF8 + data)
        return str(plain), str(marked)

    @staticmethod
    def _outputs(capsys, out, argv):
        code = cli.main(argv + ["--output-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out, {p.name: p.read_bytes()
                              for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("flag", [
        "--catalog", "--network-catalogs", "--taxonomy", "--edges",
        "--link-map", "--bot-list", "--site-map", "--cross-links",
        "--config"])
    def test_report_side_file(self, demo, tmp_path, capsys, flag):
        alpha = demo["portals"]["alpha"]
        cfg = build_config(alpha["config"])
        if flag == "--bot-list":
            data = "\n".join(usage.DEFAULT_BOT_SIGNATURES).encode()
        elif flag == "--site-map":
            # Its first line merges two sites, so a misread first line
            # moves the portal's position.
            data = b"https://hub2.example\thub1.example\n"
        else:
            source = {"--catalog": cfg.catalog,
                      "--network-catalogs": cfg.network_catalogs[-1],
                      "--taxonomy": cfg.taxonomy, "--edges": cfg.edges,
                      "--link-map": cfg.link_map,
                      "--cross-links": cfg.cross_links,
                      "--config": alpha["config"]}[flag]
            with open(source, "rb") as fh:
                data = fh.read()
        outputs = []
        for i, path in enumerate(self._copies(tmp_path, data)):
            if flag == "--network-catalogs":
                path = f"{cfg.catalog},{path}"
            argv = ["report", "--config", alpha["config"], flag, path]
            outputs.append(self._outputs(capsys, tmp_path / f"out{i}", argv))
        assert outputs[0] == outputs[1]

    def test_compared_report(self, reports, tmp_path, capsys):
        with open(reports["beta"], "rb") as fh:
            plain, marked = self._copies(tmp_path, fh.read())
        outputs = [self._outputs(capsys, tmp_path / f"out{i}",
                                 ["compare", reports["alpha"], path])
                   for i, path in enumerate((plain, marked))]
        assert outputs[0] == outputs[1]


class TestInputsThatCarryNoInformation:
    """Demo alpha's report and diagnostics keep their bytes when its inputs
    change only in line order, in how the log is split into files, or in
    line ends."""

    @staticmethod
    def _outputs(capsys, out, argv):
        code = cli.main(["report", *argv, "--output-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.fixture
    def alpha(self, demo, tmp_path, capsys):
        config = demo["portals"]["alpha"]["config"]
        baseline = self._outputs(capsys, tmp_path / "baseline",
                                 ["--config", config])
        assert sorted(baseline) == ["alpha.diagnostics.json",
                                    "alpha.report.json"]
        return config, build_config(config), baseline

    @staticmethod
    def _shuffled(lines, seed=7):
        shuffled = list(lines)
        random.Random(seed).shuffle(shuffled)
        assert shuffled != list(lines)
        return shuffled

    def test_log_lines_shuffled_and_split_across_two_files(self, alpha,
                                                           tmp_path, capsys):
        config, cfg, baseline = alpha
        lines = self._shuffled(Path(cfg.logs[0]).read_bytes()
                               .splitlines(keepends=True))
        half = len(lines) // 2
        first, second = tmp_path / "first.log", tmp_path / "second.log"
        first.write_bytes(b"".join(lines[:half]))
        second.write_bytes(b"".join(lines[half:]))
        assert self._outputs(capsys, tmp_path / "out",
                             ["--config", config,
                              "--logs", f"{first},{second}"]) == baseline

    def test_cross_link_lines_shuffled(self, alpha, tmp_path, capsys):
        config, cfg, baseline = alpha
        lines = Path(cfg.cross_links).read_bytes().splitlines(keepends=True)
        shuffled = tmp_path / "cross_links.tsv"
        shuffled.write_bytes(b"".join(self._shuffled(lines)))
        assert self._outputs(capsys, tmp_path / "out",
                             ["--config", config,
                              "--cross-links", str(shuffled)]) == baseline

    def test_catalog_rows_shuffled(self, alpha, tmp_path, capsys):
        # Order matters only between rows that share an identifier, where
        # the first one wins; alpha's catalog has no such rows.
        config, cfg, baseline = alpha
        header, *rows = Path(cfg.catalog).read_bytes().splitlines(
            keepends=True)
        identifiers = [row.split(b",", 1)[0] for row in rows]
        assert len(set(identifiers)) == len(identifiers)
        shuffled = tmp_path / "catalog.csv"
        shuffled.write_bytes(header + b"".join(self._shuffled(rows)))
        others = [path for path in cfg.network_catalogs
                  if path != cfg.catalog]
        assert self._outputs(capsys, tmp_path / "out",
                             ["--config", config, "--catalog", str(shuffled),
                              "--network-catalogs",
                              ",".join([str(shuffled), *others])]) == baseline

    def test_crlf_line_ends_in_every_input(self, alpha, tmp_path, capsys):
        config, _cfg, baseline = alpha
        copies: dict = {}

        def crlf(path):
            if path not in copies:
                copy = tmp_path / f"{len(copies)}-{os.path.basename(path)}"
                copy.write_bytes(Path(path).read_bytes()
                                 .replace(b"\n", b"\r\n"))
                copies[path] = str(copy)
            return copies[path]

        lines = []
        for line in Path(config).read_text(encoding="utf-8").splitlines():
            key, sep, value = line.partition(" = ")
            if key in ("catalog", "network_catalogs", "edges", "logs",
                       "link_map", "cross_links", "taxonomy"):
                value = ",".join(map(crlf, value.split(",")))
            lines.append(f"{key}{sep}{value}\r\n")
        assert len(copies) == 7
        crlf_config = tmp_path / "alpha.config"
        crlf_config.write_bytes("".join(lines).encode("utf-8"))
        assert self._outputs(capsys, tmp_path / "out",
                             ["--config", str(crlf_config)]) == baseline


# Characters that str.splitlines treats as line breaks but a file read
# does not; a value that holds one stays on its line in every input.
_LINE_BREAKS_OF_SPLITLINES = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@pytest.mark.parametrize("char", _LINE_BREAKS_OF_SPLITLINES)
class TestOneSplitRule:
    def _run(self, capsys, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return json.loads(captured.out)

    def test_taxonomy(self, tmp_path, capsys, char):
        taxonomy = tmp_path / "taxonomy.txt"
        fx.write_lines(taxonomy, ["algebra", "biology", f"x{char}y"])
        doc = self._run(capsys, ["catalog", "--catalog", _catalog_file(tmp_path),
                                 "--taxonomy", str(taxonomy),
                                 "--reference-date", "2026-03-01"])
        assert doc["provision"]["richness"] == pytest.approx(2 / 3)

    def test_bot_list(self, demo, tmp_path, capsys, char):
        tallies = []
        for signature in ("nomatch", f"nomatch{char}PortalBrowser"):
            bots = tmp_path / "bots.txt"
            fx.write_lines(bots, [signature])
            doc = self._run(capsys, [
                "usage", "--config", demo["portals"]["alpha"]["config"],
                "--bot-list", str(bots), "--output-dir", str(tmp_path)])
            tallies.append(doc["tallies"])
        assert tallies[0] == tallies[1]

    def test_link_map(self, demo, tmp_path, capsys, char):
        alpha = demo["portals"]["alpha"]
        with open(alpha["link_map"], encoding="utf-8") as fh:
            pairs = fh.read().split("\n")
        link_map = tmp_path / "link_map.tsv"
        fx.write_lines(link_map, [f"/nowhere{char}{pair}" for pair in pairs])
        doc = self._run(capsys, ["report", "--config", alpha["config"],
                                 "--link-map", str(link_map),
                                 "--output-dir", str(tmp_path)])
        assert "accessed_join_empty" in doc["metadata"]["flags"]

    def test_edge_list(self, tmp_path, capsys, char):
        edges = tmp_path / "edges.tsv"
        fx.write_lines(edges, [f"/a{char}/b,/c", "/c,/d"])
        doc = self._run(capsys, ["structure", "--edges", str(edges)])
        assert (doc["pages"], doc["links"]) == (3, 2)

    def test_cross_links(self, tmp_path, capsys, char):
        links = tmp_path / "links.tsv"
        fx.write_lines(links, [
            f"http://a.example/x{char}http://b.example/y,http://c.example/z",
            "http://c.example/,http://a.example/"])
        doc = self._run(capsys, ["position", "--cross-links", str(links),
                                 "--site", "a.example"])
        assert (doc["sites"], doc["malformed_lines"]) == (2, 0)

    def test_config_file(self, tmp_path, capsys, char):
        config = tmp_path / "run.config"
        fx.write_lines(config, [f"portal_id = p{char}q"])
        doc = self._run(capsys, ["catalog", "--config", str(config),
                                 "--catalog", _catalog_file(tmp_path),
                                 "--reference-date", "2026-03-01"])
        assert doc["portal_id"] == f"p{char}q"


# Values that each kind of setting must refuse. Every field of
# _FIELD_PARSERS is run with the values of its parser, as a flag and as a
# config-file line.
_BAD_VALUES = {
    config_mod._parse_text: ("", "  "),
    config_mod._parse_paths: ("", " ", ",", " , "),
    config_mod._parse_float: ("", "x", "nan", "inf", "-inf", "1e400", "1,5"),
    int: ("", "x", "1.5", "1e3", "nan"),
    config_mod._parse_datetime: ("", "x", "nan", "2026-02-30T00:00:00",
                                 "2026-03-02T00:00:00Z"),
    config_mod._parse_date: ("", "x", "2026-02-30", "03/01/2026", "20260301"),
    config_mod._parse_bool: ("", "x", "maybe", "2"),
}
_BAD_FLAGS = [(field, value)
              for field, parser in config_mod._FIELD_PARSERS.items()
              for value in _BAD_VALUES[parser]]


class TestFlagValues:
    def test_every_field_has_bad_values(self):
        assert {field for field, _ in _BAD_FLAGS} == set(
            config_mod._FIELD_PARSERS)

    @pytest.mark.parametrize("command", ["report", "compare"])
    def test_bad_value_exits_2_and_names_the_flag(self, demo, tmp_path,
                                                  capsys, command):
        alpha = demo["portals"]["alpha"]["config"]
        for field, value in _BAD_FLAGS:
            flag = "--" + field.replace("_", "-")
            args = [command, "--output-dir", str(tmp_path / "out"),
                    f"{flag}={value}"]
            args += ["--config", alpha] if command == "report" else [alpha]
            code = cli.main(args)
            err = capsys.readouterr().err
            assert (code, err.count("\n")) == (2, 1), (flag, value, err)
            assert err.startswith(f"error: {flag}: "), (flag, value, err)
            # The same value on a config-file line gives the same message.
            line = tmp_path / "line.config"
            line.write_text(f"{field} = {value}\n", encoding="utf-8")
            assert cli.main([command, "--config", str(line)]
                            + ([] if command == "report" else [alpha])) == 2
            assert capsys.readouterr().err == err.replace(
                f"{flag}: ", f"config file {line}: line 1: ", 1)
        assert not (tmp_path / "out").exists()

    def test_value_after_the_flag_reaches_its_parser(self, demo, tmp_path,
                                                      capsys):
        # argparse reads a value such as "-inf" as an option unless it is
        # glued to its flag; the flag's full name must glue it.
        alpha = demo["portals"]["alpha"]["config"]

        def run(*flag_args):
            code = cli.main(["report", "--config", alpha, "--output-dir",
                             str(tmp_path / "out"), *flag_args])
            return code, capsys.readouterr().err

        for field, value in _BAD_FLAGS:
            flag = "--" + field.replace("_", "-")
            assert run(flag, value) == run(f"{flag}={value}"), (flag, value)
        # A flag is matched by its full name only: an abbreviation is
        # refused before anything runs.
        with pytest.raises(SystemExit) as refused:
            run("--bucket", "-inf")
        assert refused.value.code == 2
        assert "--bucket" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", sorted(
        field for field, parser in config_mod._FIELD_PARSERS.items()
        if parser in (config_mod._parse_text, config_mod._parse_paths)))
    def test_nul_byte_in_a_text_or_path_value_exits_2(self, demo, tmp_path,
                                                     capsys, field):
        # Every other setting comes from a working config, so the value
        # would reach the file it names if it were not refused.
        alpha = Path(demo["portals"]["alpha"]["config"])
        settings = tmp_path / "nul.config"
        settings.write_text(alpha.read_text(encoding="utf-8")
                            + f"{field} = a\x00b\n", encoding="utf-8")
        flag = "--" + field.replace("_", "-")
        for args in (["--config", str(settings)],
                     ["--config", str(alpha), flag, "a\x00b"]):
            code = cli.main(["report", "--output-dir", str(tmp_path / "out"),
                             *args])
            err = capsys.readouterr().err
            assert (code, err.count("\n")) == (2, 1), (args, err)
            assert err.startswith("error: ") and "NUL byte" in err, err
        assert not (tmp_path / "out").exists()

    def test_flag_value_is_stripped_like_a_file_value(self, demo, tmp_path,
                                                      capsys):
        alpha = demo["portals"]["alpha"]["config"]
        outputs = []
        for seed in ("0", " 0 "):
            out = tmp_path / f"seed-{len(outputs)}"
            assert cli.main(["report", "--config", alpha, "--seed", seed,
                             "--output-dir", str(out)]) == 0
            outputs.append((out / "alpha.report.json").read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_output_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code = cli.main(["usage", "--logs", str(blocker),
                         "--period-start", START, "--period-end", END,
                         "--output-dir", str(blocker)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"cannot write output file {blocker}" in err


def _src_dir():
    return os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def test_cli_import_loads_only_the_standard_library():
    # Modules loaded before the import (site hooks) are not the package's.
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import portalmetrics.cli; "
         "print(sorted({name.split('.')[0] for name in sys.modules}"
         " - {name.split('.')[0] for name in before}"
         " - set(sys.stdlib_module_names) - {'portalmetrics'}))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": _src_dir()})
    assert result.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # report imports its process pool when it runs, so no other command
    # pays for the import at start-up.
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; import portalmetrics.cli; "
         "print(sorted(name for name in sys.modules"
         " if name.split('.')[0] in ('concurrent', 'multiprocessing')))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": _src_dir()})
    assert result.stdout.strip() == "[]"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # The records on the import path are named tuples: dataclasses, and
    # the inspect, ast and tokenize it pulls in, cost more start-up than
    # the rest of the package. So is the generator spec of the fixtures
    # that `gen` imports. gzip is loaded only for a .gz log. Means,
    # medians and slopes are written out, so statistics and the fractions,
    # decimal and numbers it pulls in stay out too, and annotations take
    # their types from collections.abc, not typing. -S keeps site hooks
    # from loading any of them first.
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; before = set(sys.modules); "
         "import portalmetrics.cli, portalmetrics.fixtures; "
         "print(sorted({'dataclasses', 'inspect', 'gzip', 'statistics',"
         " 'fractions', 'decimal', 'numbers', 'typing'}"
         " & (set(sys.modules) - before)))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": _src_dir()})
    assert result.stdout.strip() == "[]"


def test_plain_logs_are_read_without_gzip(tmp_path):
    log = tmp_path / "access.log"
    log.write_text(_clf_line("198.51.100.9", "-", 60, 0, "/a", 200,
                             "Mozilla/5.0") + "\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules)\n"
         "from portalmetrics.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "print(code, 'gzip' in set(sys.modules) - before)",
         "usage", "--logs", str(log), "--period-start", START,
         "--period-end", END, "--output-dir", str(tmp_path / "out")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": _src_dir()})
    assert result.stdout.splitlines()[-1] == "0 False"


def test_report_and_compare_run_with_test_packages_blocked(tmp_path, capsys):
    # Blocking the test-only packages also catches an import made inside a
    # function, which the import check above cannot see.
    assert cli.main(["gen", str(tmp_path / "demo")]) == 0
    configs = json.loads(capsys.readouterr().out)["configs"]

    def commands(out):
        reports = [["report", "--config", configs[name],
                    "--output-dir", str(out)] for name in ("alpha", "beta")]
        return reports + [["compare", "--output-dir", str(out),
                           str(out / "alpha.report.json"),
                           str(out / "beta.report.json")]]

    blocked = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n"
         "sys.modules['numpy'] = sys.modules['jsonschema'] = None\n"
         "from portalmetrics.cli import main\n"
         "for argv in json.loads(sys.argv[1]):\n"
         "    if main(argv) != 0:\n"
         "        sys.exit(1)\n",
         json.dumps(commands(tmp_path / "blocked"))],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": _src_dir()})
    assert blocked.returncode == 0, blocked.stderr
    for argv in commands(tmp_path / "free"):
        assert cli.main(argv) == 0
    capsys.readouterr()
    for name in ("alpha.report.json", "beta.report.json", "comparison.json"):
        assert ((tmp_path / "blocked" / name).read_bytes()
                == (tmp_path / "free" / name).read_bytes())


def test_readme_quick_start_writes_both_reports_and_the_comparison(tmp_path):
    script = os.path.join(os.path.dirname(_src_dir()), "scripts",
                          "run_demo_network.py")
    root = tmp_path / "demo-workspace"
    result = subprocess.run(
        [sys.executable, script, "--dir", str(root)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": _src_dir()})
    assert result.returncode == 0, result.stderr
    for path in (root / "portals" / "alpha" / "out" / "alpha.report.json",
                 root / "portals" / "beta" / "out" / "beta.report.json",
                 root / "out" / "comparison.json"):
        assert path.is_file()


# The sha256 of each --help text at 80 columns: the top level (None)
# and every command's. Python 3.13 words argparse's help differently.
HELP_SHA256 = {
    None:
        "a8b9e6debe06928c98672081f5b3aaebbdf479cf63ba020ca757521d8ecfa451",
    "catalog":
        "d3eb0b2680437881569db63ef35612b725bfd7b2adcaa60bbeb65248f382f265",
    "structure":
        "a29d31ef12eddafb583d6a6acf5fc25534f8e555575b6e5a7a3479b0a3222947",
    "usage":
        "30afeb1d76cf1466f335131cfedeb5f6d49042d11905cb13394b376fa8aef40e",
    "position":
        "ef6c018508aaf860811211e14c2af10f7ebb1f2d79daed81337464ea1e16fff3",
    "segment":
        "7e105b65ca67d83e3daa89ca3e63906eec9fd45a308122e5f1838e80fcd1986b",
    "report":
        "5730bf2f91457a4f15f8fef0bc3095dc317524350979de9733a0f1b6fdd9ceb9",
    "compare":
        "f885143f1392df7b29305ba9da4f47a0876b0ffa77db8154032741b27042f9ea",
    "gen":
        "eada0a346441a3f035fecf31395280a56ae016729f6e437857da7e1bee6648fd",
}


@pytest.mark.skipif(sys.version_info[:2] not in ((3, 10), (3, 11)),
                    reason="help digests are pinned on Python 3.10 and 3.11")
@pytest.mark.parametrize("command", HELP_SHA256)
def test_help_texts_match_their_pinned_digests(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        cli.main([command, "--help"] if command else ["--help"])
    assert done.value.code == 0
    help_text = capsys.readouterr().out
    assert hashlib.sha256(help_text.encode()).hexdigest() == \
        HELP_SHA256[command]


def test_help_names_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one line per command
    with pytest.raises(SystemExit) as done:
        cli.main(["--help"])
    assert done.value.code == 0
    listed = dict(line.split(None, 1)
                  for line in capsys.readouterr().out.splitlines()
                  if line.startswith("    "))
    assert listed == {name: entry[0] for name, entry in cli._COMMANDS.items()}
