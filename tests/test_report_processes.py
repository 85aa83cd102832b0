"""`report` across its two processes: which error it prints when several
inputs are bad, that no process outlives it, and a sweep of mutated input
files that must each end in a report or in one error line."""

from __future__ import annotations

import multiprocessing
import os
import random
import threading

import pytest

from portalmetrics import cli, structure, usage
from portalmetrics import fixtures as fx
from portalmetrics.config import build_config
from portalmetrics.report import deserialize


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    return fx.write_demo_network(tmp_path_factory.mktemp("report-demo"))


@pytest.fixture(scope="module")
def alpha(demo):
    return demo["portals"]["alpha"]["config"]


@pytest.fixture
def bad(tmp_path):
    """Paths of bad input files, and of a file that does not exist."""
    paths = {"missing": str(tmp_path / "missing")}
    for name, text in (("log", "garbage\nmore garbage\n"), ("edges", "a\n"),
                       ("catalog", ""), ("cross_links", "one-field\n"),
                       ("taxonomy", "")):
        (tmp_path / name).write_text(text, encoding="utf-8")
        paths[name] = str(tmp_path / name)
    return paths


def _report(capsys, config, out, *flags):
    code = cli.main(["report", "--config", config, "--output-dir", str(out),
                     *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# One bad input of demo alpha each: the flags that set it (formatted with
# the `bad` paths), and the exit code and message `report` gives for it
# alone.
BAD = {
    "log": (["--logs", "{log}"], 2,
            "log stream is mostly unparseable: 2 of 2 lines malformed"),
    "catalog": (["--catalog", "{catalog}"], 2,
                "catalog file {catalog}: catalog stream is empty "
                "(no header row)"),
    "taxonomy": (["--taxonomy", "{taxonomy}"], 1,
                 "taxonomy file {taxonomy}: taxonomy must contain at least "
                 "one topic"),
    "link map": (["--link-map", "{missing}"], 2,
                 "cannot read link map file {missing}: No such file or "
                 "directory"),
    "edge list": (["--edges", "{edges}"], 2,
                  "edge list file {edges}: edge line 1 is not a (from, to) "
                  "pair: 'a'"),
    "distance_k": (["--distance-k", "2"], 1,
                   "conversion constant K=2 is too small: it must be at "
                   "least 2 and at least the longest finite distance, 6"),
    "cross links": (["--cross-links", "{cross_links}"], 1,
                    "cross-site link file {cross_links}: no cross-site "
                    "links found; the graph is empty"),
    "site": (["--site", "nowhere.example"], 1,
             "unknown site 'nowhere.example'"),
    "network catalog": (["--network-catalogs", "{missing}"], 2,
                        "cannot read network catalog file {missing}: No "
                        "such file or directory"),
    "bucket": (["--bucket-days", "3"], 1,
               "trend estimation needs at least 2 buckets"),
}

# Pairs of bad inputs, the one `report` names first. The expected lines
# are those `report` printed when it computed every section in one
# process, one section after another.
PAIRS = [("log", "edge list"), ("catalog", "cross links"),
         ("edge list", "network catalog"), ("distance_k", "site"),
         ("taxonomy", "link map"), ("link map", "edge list"),
         ("bucket", "network catalog")]


def _flags(names, bad):
    return [flag.format(**bad) for name in names for flag in BAD[name][0]]


def _expected(name, bad):
    _, code, message = BAD[name]
    return code, f"error: {message.format(**bad)}\n"


@pytest.mark.parametrize("first,second", PAIRS,
                         ids=[f"{a} before {b}" for a, b in PAIRS])
def test_the_input_first_in_section_order_is_named(alpha, bad, tmp_path,
                                                   capsys, first, second):
    for names, expected in (((second,), second), ((first, second), first),
                            ((second, first), first)):
        out = tmp_path / "out"
        code, _out, err = _report(capsys, alpha, out, *_flags(names, bad))
        assert (code, err) == _expected(expected, bad), names
        assert not out.exists()


@pytest.mark.parametrize("name", [None, "log", "bucket", "edge list", "site"],
                         ids=["exit 0", "exit 2 in this process",
                              "exit 1 in this process", "exit 2 in the worker",
                              "exit 1 in the worker"])
def test_no_process_outlives_report(alpha, bad, tmp_path, capsys, name):
    flags = _flags([name], bad) if name else []
    code, _out, _err = _report(capsys, alpha, tmp_path / "out", *flags)
    assert code == (BAD[name][1] if name else 0)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("module,function", [
    (usage, "summarize_navigation"),  # this process
    (structure, "organization_profile"),  # the worker
])
def test_no_process_outlives_an_unexpected_error(alpha, tmp_path, capsys,
                                                 monkeypatch, module,
                                                 function):
    def broken(*args, **kwargs):
        raise RuntimeError(f"{function} broke")
    monkeypatch.setattr(module, function, broken)
    with pytest.raises(RuntimeError, match=f"{function} broke"):
        _report(capsys, alpha, tmp_path / "out")
    assert multiprocessing.active_children() == []


def test_worker_error_carries_the_worker_traceback(alpha, tmp_path, capsys,
                                                   monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("organization_profile broke")
    monkeypatch.setattr(structure, "organization_profile", broken)
    with pytest.raises(ValueError, match="organization_profile broke") as info:
        _report(capsys, alpha, tmp_path / "out")
    trace = str(info.value.__cause__)
    assert trace.startswith("Traceback (most recent call last):")
    assert "in _sections_without_logs" in trace
    assert trace.endswith("ValueError: organization_profile broke\n")
    assert multiprocessing.active_children() == []


def test_worker_error_that_cannot_be_pickled(alpha, tmp_path, capsys,
                                             monkeypatch):
    class Unpicklable(Exception):  # a local class cannot be pickled
        pass

    def broken(*args, **kwargs):
        raise Unpicklable("organization_profile broke")
    monkeypatch.setattr(structure, "organization_profile", broken)
    with pytest.raises(RuntimeError) as info:
        _report(capsys, alpha, tmp_path / "out")
    assert str(info.value) == (
        "report's worker raised Unpicklable: organization_profile broke "
        "(the exception cannot be pickled)")
    trace = str(info.value.__cause__)
    assert "in _sections_without_logs" in trace
    assert trace.endswith("Unpicklable: organization_profile broke\n")
    assert multiprocessing.active_children() == []


def test_worker_that_exits_without_a_result(alpha, tmp_path, capsys,
                                            monkeypatch):
    monkeypatch.setattr(structure, "organization_profile",
                        lambda *args, **kwargs: os._exit(3))
    with pytest.raises(RuntimeError, match="^report's worker process exited "
                       "with code 3 before sending its result$"):
        _report(capsys, alpha, tmp_path / "out")
    assert multiprocessing.active_children() == []


def test_no_thread_shares_this_process_while_report_reads_logs(
        alpha, tmp_path, capsys, monkeypatch):
    """The worker is a plain process with a pipe: no helper thread here
    competes with ingest and navigation for the interpreter lock."""
    counts = []
    summarize = usage.summarize_navigation

    def counted(*args, **kwargs):
        counts.append(threading.active_count())
        return summarize(*args, **kwargs)
    monkeypatch.setattr(usage, "summarize_navigation", counted)
    code, _out, _err = _report(capsys, alpha, tmp_path / "out")
    assert (code, counts) == (0, [1])


TOKENS = [b'"', b",", b"\t", b"[", b"]", b"#", b"=", b" ", b"\n", b"\r",
          b"\x00", b"\xff", b"\xef\xbb\xbf", b"-1", b"0", b"nan", b"1e999",
          b"9999-99-99", b"http://[x]/", b"::", b"%"]


def _mutated(data: bytes, kind: str, rng: random.Random) -> bytes:
    at = rng.randrange(len(data) + 1)
    if kind == "token inserted":
        return data[:at] + rng.choice(TOKENS) + data[at:]
    if kind == "byte changed":
        at = min(at, len(data) - 1)
        return data[:at] + bytes([rng.randrange(256)]) + data[at + 1:]
    if kind == "bytes deleted":
        return data[:at] + data[at + rng.randint(1, 16):]
    if kind == "truncated":
        return data[:at]
    lines = data.splitlines(keepends=True)
    lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    return b"".join(lines)


KINDS = ["token inserted", "byte changed", "bytes deleted", "truncated",
         "line duplicated"]
TARGETS = ["alpha catalog", "alpha edge list", "alpha log", "alpha link map",
           "alpha config", "taxonomy", "cross links", "beta catalog"]
CASES_PER_KIND = 5


def _target(demo, target):
    """The file a target names, and the flags that make `report` on demo
    alpha read a copy at PATH in its place."""
    config = demo["portals"]["alpha"]["config"]
    cfg = build_config(config)
    own, beta = cfg.catalog, build_config(
        demo["portals"]["beta"]["config"]).catalog
    if target == "alpha config":
        return config, ["--config", "PATH"]
    source, flags = {
        "alpha catalog": (own, ["--catalog", "PATH", "--network-catalogs",
                                f"PATH,{beta}"]),
        "alpha edge list": (cfg.edges, ["--edges", "PATH"]),
        "alpha log": (cfg.logs[0], ["--logs", "PATH"]),
        "alpha link map": (cfg.link_map, ["--link-map", "PATH"]),
        "taxonomy": (cfg.taxonomy, ["--taxonomy", "PATH"]),
        "cross links": (cfg.cross_links, ["--cross-links", "PATH"]),
        "beta catalog": (beta, ["--network-catalogs", f"{own},PATH"]),
    }[target]
    return source, ["--config", config, *flags]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("target", TARGETS)
def test_mutated_input_gives_a_report_or_one_error_line(demo, tmp_path,
                                                        capsys, target, kind):
    source, flags = _target(demo, target)
    with open(source, "rb") as fh:
        data = fh.read()
    for case in range(CASES_PER_KIND):
        rng = random.Random(f"{target}/{kind}/{case}")
        path = tmp_path / f"case{case}"
        path.write_bytes(_mutated(data, kind, rng))
        argv = ["report", *[flag.replace("PATH", str(path)) for flag in flags],
                "--output-dir", str(tmp_path / f"out{case}")]
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback for the user
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc}")
        captured = capsys.readouterr()
        if code == 0:
            deserialize(captured.out)
        else:
            assert code in (1, 2), case
            assert len(captured.err.splitlines()) == 1, (case, captured.err)
            assert captured.err.startswith("error: "), (case, captured.err)
