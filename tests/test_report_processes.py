"""`report` across its two processes: which error it prints when several
inputs are bad, that no process outlives it, and a sweep of mutated input
files that must each end in a report or in one error line; and the same
sweep of `compare` over mutated copies of a report, with the edits of a
report that `compare` refuses by name. The sweeps themselves are in
``mutation_sweep.py``, which also runs on its own."""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
from multiprocessing.reduction import ForkingPickler

import pytest

from portalmetrics import cli, structure, usage
from portalmetrics import fixtures as fx
from portalmetrics.catalog import ContentRecord
from portalmetrics.config import build_config
from portalmetrics.position import CommunityAssignment
from portalmetrics.report import deserialize

from mutation_sweep import (
    KINDS,
    TARGETS,
    compare_failures,
    demo_reports,
    report_failures,
)


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

# Pairs of bad inputs, the one `report` names first. `report` raises its
# own errors first (logs, demand trend), then the worker's first (catalog,
# taxonomy, link map, edge list, cross links, network catalogs), then
# segmentation's.
PAIRS = [("log", "edge list"), ("catalog", "cross links"),
         ("edge list", "network catalog"), ("distance_k", "site"),
         ("taxonomy", "link map"), ("link map", "edge list"),
         ("bucket", "network catalog"), ("bucket", "catalog")]


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


def test_worker_result_crosses_the_pipe_unchanged(alpha):
    # Pickled as the worker's pipe pickles it, the sections come back
    # equal, and the community assignment of its own type, not as the
    # plain tuple it also compares equal to. The provision section ends in
    # the topic of each linked path; no catalog record crosses the pipe.
    sections = cli._sections_without_logs(build_config(alpha))
    data = ForkingPickler.dumps(sections)
    back = pickle.loads(data)
    assert type(back) is dict and back == sections
    assert sorted(sections) == ["network", "organization", "position",
                                "provision"]
    topics = sections["provision"][-1]
    assert topics and {type(v) for v in topics.values()} == {str}
    assert ContentRecord.__name__.encode() not in bytes(data)
    communities, copy = sections["position"][1], back["position"][1]
    assert copy == communities and type(copy) is CommunityAssignment
    assert copy.community_count == communities.community_count


def test_link_map_is_not_read_without_logs(alpha, bad, tmp_path, capsys):
    with open(alpha, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("logs =")]
    config = tmp_path / "no-logs.config"
    config.write_text("".join(lines), encoding="utf-8")
    code, out, _err = _report(capsys, str(config), tmp_path / "out",
                              "--link-map", bad["missing"])
    flags = deserialize(out)["metadata"]["flags"]
    assert (code, flags) == (0, ["no_accessed_distribution"])


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
    # Raised here, the error reaches the caller as it is; raised in the
    # worker, it ends the worker with exit code 1.
    def broken(*args, **kwargs):
        raise RuntimeError(f"{function} broke")
    monkeypatch.setattr(module, function, broken)
    with pytest.raises(RuntimeError, match=f"{function} broke"
                       if module is usage else "exited with code 1 "):
        _report(capsys, alpha, tmp_path / "out")
    assert multiprocessing.active_children() == []


def _raise_value_error(*args, **kwargs):
    raise ValueError("organization_profile broke")


def _kill_this_process(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)


# Each way a section can end the worker before it sends anything: the
# broken organization_profile, and the exit code that `report` names.
WORKER_ENDS = {
    "ValueError": (_raise_value_error, 1),
    # The sections are pickled when they are sent, and a lambda cannot be.
    "unpicklable result": (lambda *args, **kwargs: lambda: None, 1),
    "os._exit(3)": (lambda *args, **kwargs: os._exit(3), 3),
    "SIGKILL": (_kill_this_process, -9),
}


@pytest.mark.parametrize("end", [
    pytest.param(name, marks=pytest.mark.skipif(
        name == "SIGKILL" and not hasattr(signal, "SIGKILL"),
        reason="no SIGKILL on this platform")) for name in WORKER_ENDS])
def test_worker_that_ends_without_sections(alpha, tmp_path, capfd,
                                           monkeypatch, end):
    broken, code = WORKER_ENDS[end]
    monkeypatch.setattr(structure, "organization_profile", broken)
    with pytest.raises(RuntimeError, match=f"^report's worker process "
                       f"exited with code {code} before sending its result$"):
        cli.main(["report", "--config", alpha,
                  "--output-dir", str(tmp_path / "out")])
    assert multiprocessing.active_children() == []
    if end == "ValueError":
        # The worker prints its own traceback, as any failed process does.
        err = capfd.readouterr().err
        assert "Traceback (most recent call last):" in err
        assert "in _sections_without_logs" in err
        assert err.endswith("ValueError: organization_profile broke\n")


# Runs `report` on a config in a fresh interpreter whose default start
# method is the one named, with organization_profile broken in this
# process only, and prints what `report` raised and how many children
# are left. A broken worker prints its traceback on stderr.
_BROKEN_REPORT = """
import json, multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1])
from portalmetrics import cli, structure
def broken(*args, **kwargs):
    raise RuntimeError("organization_profile broke")
structure.organization_profile = broken
try:
    cli.main(["report", "--config", sys.argv[2], "--output-dir", sys.argv[3]])
    raised = None
except RuntimeError as exc:
    raised = str(exc)
print(json.dumps([raised, len(multiprocessing.active_children())]))
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="report forks its worker only where it can")
@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_worker_is_forked_whatever_the_default_start_method(alpha, tmp_path,
                                                            method):
    # A worker started any other way would import structure afresh and
    # write a report; a forked one sees the broken function.
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _BROKEN_REPORT, method, alpha,
         str(tmp_path / "out")], env=env, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [
        "report's worker process exited with code 1 before sending its "
        "result", 0]
    assert done.stderr.endswith("RuntimeError: organization_profile broke\n")


def _random_cross_flags(demo, root):
    """Flags that give demo alpha a seeded 240-site random-cross graph, with
    its site one that links out and is linked to, and three more network
    catalogs."""
    cross = fx.gen_graph(fx.GeneratorSpec(kind="random-cross", size=240,
                                          edge_factor=3.0, seed=7))
    cross_links = root / "cross_links.tsv"
    fx.write_cross_links(cross, cross_links)
    site = min({a for a, _ in cross.weights} & {b for _, b in cross.weights})
    catalogs = [demo["portals"]["alpha"]["catalog"]]
    for j in range(3):
        catalogs.append(str(root / f"net{j}.csv"))
        fx.write_catalog(fx.gen_catalog(fx.GeneratorSpec(
            kind="synthetic-catalog", portal_id=f"net{j}",
            topic_counts=tuple((topic, 5 + 7 * ((i + j) % 4))
                               for i, topic in enumerate(fx.DEMO_TAXONOMY)),
            ages_days=(10, 200, 800))), catalogs[-1])
    return ["--cross-links", str(cross_links), "--site", site,
            "--network-catalogs", ",".join(catalogs)]


@pytest.mark.parametrize("workspace", ["demo alpha", "random-cross"])
def test_report_bytes_do_not_depend_on_the_hash_seed(demo, alpha, tmp_path,
                                                     workspace):
    # String hashes order sets and dicts, which feed the communities and
    # the topic counts.
    flags = ([] if workspace == "demo alpha"
             else _random_cross_flags(demo, tmp_path))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / f"hash-seed-{seed}"
        done = subprocess.run(
            [sys.executable, "-m", "portalmetrics.cli", "report", "--config",
             alpha, "--output-dir", str(out), *flags],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append({path.name: path.read_bytes()
                        for path in out.iterdir()})
    assert sorted(outputs[0]) == ["alpha.diagnostics.json",
                                  "alpha.report.json"]
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("target", TARGETS)
def test_mutated_input_gives_a_report_or_one_error_line(demo, tmp_path,
                                                        target, kind):
    assert report_failures(demo, target, kind, str(tmp_path)) == []


@pytest.fixture(scope="module")
def reports(demo, tmp_path_factory):
    """The demo portals' reports; alpha and beta share a segment."""
    return demo_reports(demo, str(tmp_path_factory.mktemp("demo-reports")))


def _compare(capsys, reports, path, out):
    """Exit code and stderr of `compare` on alpha's report and ``path``."""
    capsys.readouterr()
    code = cli.main(["compare", "--output-dir", str(out), reports["alpha"],
                     str(path)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("kind", KINDS)
def test_mutated_report_gives_a_comparison_or_one_error_line(
        reports, tmp_path, kind):
    assert compare_failures(reports, kind, str(tmp_path)) == []


# Edits of beta's report that keep it valid JSON under the schema, and the
# error `compare` gives for each, after "error: report file <path>: ".
REPORT_EDITS = {
    "naive period start": (
        b'"start":"2026-03-02T00:00:00+00:00"', b'"start":"2026-03-02T00:00:00"',
        "period/start: '2026-03-02T00:00:00' is not an ISO date-time with a "
        "UTC offset"),
    # Python 3.11's fromisoformat reads "Z" as UTC; report files are read
    # by README's date-time grammar on every Python.
    "period start with Z": (
        b'"start":"2026-03-02T00:00:00+00:00"', b'"start":"2026-03-02T00:00:00Z"',
        "period/start: '2026-03-02T00:00:00Z' is not an ISO date-time with a "
        "UTC offset"),
    "period end not ISO": (
        b'"end":"2026-03-05T00:00:00+00:00"', b'"end":"5 March 2026"',
        "period/end: '5 March 2026' is not an ISO date-time with a UTC "
        "offset"),
    "number beyond floats": (
        b'"depth":15.0', b'"depth":1e400',
        "report holds the number 1e400, which does not fit a finite float"),
    "309-digit integer": (
        b'"in_degree":2', b'"in_degree":' + b"9" * 309,
        "report holds the number 99999999999999999999..., which does not "
        "fit a finite float"),
    "repeated key": (
        b'"depth":15.0', b'"depth":0.0,"depth":15.0',
        "report holds the key 'depth' twice in one object"),
}


@pytest.mark.parametrize("edit", REPORT_EDITS)
def test_edited_report_is_refused_by_name(reports, tmp_path, capsys, edit):
    old, new, message = REPORT_EDITS[edit]
    with open(reports["beta"], "rb") as fh:
        data = fh.read()
    assert data.count(old) == 1
    path = tmp_path / "beta.report.json"
    path.write_bytes(data.replace(old, new))
    out = tmp_path / "out"
    code, err = _compare(capsys, reports, path, out)
    assert (code, err) == (2, f"error: report file {path}: {message}\n")
    assert not out.exists()


# The value of a lower-is-better metric in each demo report. Alpha leads
# on both; with alpha's value edited to the smallest float and beta's to
# 1e308, beta's shortfall relative to alpha overflows a float.
GAP_METRICS = {
    "organization.depth": (b'"depth":3.1481481481481484', b'"depth":15.0'),
    "provision.average_age_days": (b'"average_age_days":15.0',
                                   b'"average_age_days":50.0'),
}


@pytest.mark.parametrize("metric", GAP_METRICS)
def test_gap_beyond_floats_is_refused_by_name(reports, tmp_path, capsys,
                                              metric):
    key = metric.split(".")[1].encode()
    paths = []
    for name, old, value in (("alpha", GAP_METRICS[metric][0], b"5e-324"),
                             ("beta", GAP_METRICS[metric][1], b"1e308")):
        with open(reports[name], "rb") as fh:
            data = fh.read()
        assert data.count(old) == 1
        path = tmp_path / f"{name}.report.json"
        path.write_bytes(data.replace(old, b'"' + key + b'":' + value))
        paths.append(str(path))
    out = tmp_path / "out"
    capsys.readouterr()
    code = cli.main(["compare", "--output-dir", str(out), *paths])
    err = capsys.readouterr().err
    assert (code, err) == (1, (
        "error: refusing to compare 'alpha' and 'beta' in segment 'Growing "
        f"portals with large relative size': the relative gap on {metric} "
        "(1e+308 against 5e-324) is not a finite number\n"))
    assert not out.exists()
