"""Seeded mutation sweeps of `report` and `compare` over the demo network.

Each case copies one input file of demo alpha, or beta's report, changes
it in one seeded way (a token inserted, a byte changed, bytes deleted,
the file truncated or a line duplicated) and runs the command on the
copy. The command must then end in a valid report or comparison, or
exit 1 or 2 with exactly one ``error:`` line on stderr; a traceback or a
second line fails the case. There are 200 `report` cases (8 targets, 5
kinds, 5 cases each) and 200 `compare` cases (5 kinds, 40 cases each).

The module needs only the standard library and the package. The tests
in ``test_report_processes.py`` run it one target and kind at a time;
from the repository root,

    PYTHONPATH=src python tests/mutation_sweep.py DEMO_DIR

writes the demo network into DEMO_DIR, runs every case under
DEMO_DIR/mutation-sweep, prints one line per failed case, a count and
the sha256 of every case's (label, exit code, error line), with DEMO_DIR
written as ``<root>``. It exits 1 if any case failed or if that digest
is not ``OUTCOMES_SHA256``, so that a run on any Python shows that every
case ends the same way there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys

from portalmetrics import cli
from portalmetrics import fixtures as fx
from portalmetrics.config import build_config
from portalmetrics.report import deserialize

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
COMPARE_CASES_PER_KIND = 40
# The digest of every case's outcome that main prints: the same on Python
# 3.10 to 3.13, and wherever the demo is written.
OUTCOMES_SHA256 = (
    "adf8818bafa5198d9323836a48a37dd89715e6f11cb3ebd3123e476b77a56be9")


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


def _run(argv):
    """Exit code, stdout and stderr of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _error_problem(code, err):
    """Why a failed run did not end in one error line, or None."""
    if code not in (1, 2):
        return f"exit code {code!r}"
    if len(err.splitlines()) != 1 or not err.startswith("error: "):
        return f"stderr {err!r}"
    return None


def _cases(label, data, kind, count, workdir, suffix, check, root=None):
    """The outcomes of ``count`` seeded mutations of ``data``: each
    mutated copy is written to ``workdir`` and passed to ``check(path,
    out_dir)``, which returns the run's exit code and stderr after
    checking its output on exit 0. An outcome is (case label, exit code,
    error line, why the case failed or None); the error line is None on
    exit 0.

    Where ``data`` names a file under the demo ``root``, it holds
    ``<root>`` in its place, and the root is put back after the mutation:
    so each case changes the same bytes wherever the demo is written."""
    outcomes = []
    for case in range(count):
        rng = random.Random(f"{label}/{kind}/{case}")
        path = os.path.join(workdir, f"case{case}{suffix}")
        mutated = _mutated(data, kind, rng)
        if root is not None:
            mutated = mutated.replace(b"<root>", root.encode())
        with open(path, "wb") as fh:
            fh.write(mutated)
        try:
            code, err = check(path, os.path.join(workdir, f"out{case}"))
            problem = _error_problem(code, err) if code else None
        except Exception as exc:  # a traceback for the user
            code, err = None, ""
            problem = f"{type(exc).__name__}: {exc}"
        outcomes.append((f"{label}/{kind}/case {case}", code,
                         err.rstrip("\n") if code else None, problem))
    return outcomes


def _failures(outcomes) -> list[str]:
    return [f"{case}: {problem}" for case, _code, _line, problem in outcomes
            if problem is not None]


def report_outcomes(demo, target, kind, workdir) -> list[tuple]:
    """The outcomes of the `report` cases of one target and kind."""
    source, flags = _target(demo, target)
    with open(source, "rb") as fh:
        data = fh.read().replace(demo["root"].encode(), b"<root>")

    def check(path, out):
        code, stdout, err = _run(
            ["report", *[flag.replace("PATH", path) for flag in flags],
             "--output-dir", out])
        if code == 0:
            deserialize(stdout)
        return code, err
    return _cases(target, data, kind, CASES_PER_KIND, workdir, "", check,
                  demo["root"])


def report_failures(demo, target, kind, workdir) -> list[str]:
    """The failed `report` cases of one target and kind, as lines."""
    return _failures(report_outcomes(demo, target, kind, workdir))


def demo_reports(demo, out) -> dict:
    """The demo portals' report paths, written to ``out``; alpha and beta
    share a segment."""
    for name in ("alpha", "beta"):
        code, _stdout, err = _run(["report", "--config",
                                   demo["portals"][name]["config"],
                                   "--output-dir", str(out)])
        if code != 0:
            raise RuntimeError(f"report on demo {name} exited {code}: {err}")
    return {name: os.path.join(out, f"{name}.report.json")
            for name in ("alpha", "beta")}


def compare_outcomes(reports, kind, workdir) -> list[tuple]:
    """The outcomes of the `compare` cases of one kind: alpha's report
    beside a mutated copy of beta's."""
    with open(reports["beta"], "rb") as fh:
        data = fh.read()

    def check(path, out):
        code, _stdout, err = _run(["compare", "--output-dir", out,
                                   reports["alpha"], path])
        if code == 0:
            with open(os.path.join(out, "comparison.json"), "rb") as fh:
                json.loads(fh.read())
        return code, err
    return _cases("beta report", data, kind, COMPARE_CASES_PER_KIND,
                  workdir, ".report.json", check)


def compare_failures(reports, kind, workdir) -> list[str]:
    """The failed `compare` cases of one kind, as lines."""
    return _failures(compare_outcomes(reports, kind, workdir))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.stderr.write("usage: mutation_sweep.py DEMO_DIR\n")
        return 2
    demo = fx.write_demo_network(args[0])
    root = os.path.join(demo["root"], "mutation-sweep")
    outcomes = []
    for target in TARGETS:
        for kind in KINDS:
            workdir = os.path.join(root, "report", target, kind)
            os.makedirs(workdir, exist_ok=True)
            outcomes += report_outcomes(demo, target, kind, workdir)
    reports = demo_reports(demo, os.path.join(root, "reports"))
    for kind in KINDS:
        workdir = os.path.join(root, "compare", kind)
        os.makedirs(workdir, exist_ok=True)
        outcomes += compare_outcomes(reports, kind, workdir)
    failures = _failures(outcomes)
    for line in failures:
        print(line)
    print(f"{len(outcomes) - len(failures)} of {len(outcomes)} mutation "
          "cases passed")
    digest = hashlib.sha256(json.dumps([
        [case, code, line and line.replace(demo["root"], "<root>")]
        for case, code, line, _problem in outcomes]).encode()).hexdigest()
    print(f"outcomes sha256 {digest}")
    if digest != OUTCOMES_SHA256:
        print(f"expected outcomes sha256 {OUTCOMES_SHA256}")
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
