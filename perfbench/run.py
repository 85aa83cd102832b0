"""End-to-end benchmark of `portalmetrics report`.

Usage (from the repository root):

    python3 perfbench/run.py --workload {crit8,walks} --seed N \
        --seconds S --trace {0,1}

Writes the seeded workspace under .bench_work/, then runs one client in a
closed loop for S seconds: each operation is one `report` in a fresh
interpreter (perfbench/op.py), so every run pays for imports and starts
with a cold navigation cache, as a user's does. Every operation's report
and diagnostics are checked against the workspace's planted truth, and
its sha256 must match every other run of the same sources and seed.

--trace 0 reports the end-to-end metrics: medians of report_s, setup_s
and peak_rss_mb. --trace 1 alternates untraced and traced operations and
reports the per-layer metrics of the traced ones (medians), plus import
times from `python -X importtime`. The last line of stdout is the JSON
result; the lines before it name every metric with its unit.

On `walks` one extra, untimed report reads the older log gzip-rotated.
It is reported as `probe.gzip_failures` and in the failed share printed
above the result, not in the result's `failed` count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from checks import check_report
from layertrace import import_times, layer_metrics, unattributed_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OP_TIMEOUT_S = 170
IMPORTTIME_RUNS = 3

END_TO_END = {"report_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {"_s": "s", "_mb": "MiB", "_ratio": "ratio"}


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "portalmetrics")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


class Runner:
    """Runs and checks `report` operations over one workspace."""

    def __init__(self, ws, workload: str, seed: int):
        from portalmetrics.report import deserialize

        self.ws = ws
        self.deserialize = deserialize
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.ledger_key = f"{workload}-{seed}-{_source_digest()}"
        self.digests: set = set()
        self.count = 0

    def run(self, config: str, traced: bool = False) -> dict:
        """One operation; returns its timings, spans and any problems."""
        self.count += 1
        result_path = os.path.join(WORK, "op-result.json")
        spans_path = os.path.join(WORK, "op-spans.json")
        report_path = self._output(config, ".report.json")
        diagnostics_path = self._output(config, ".diagnostics.json")
        # An operation that exits 0 without writing its outputs must not
        # be checked against the previous operation's files.
        for path in (result_path, spans_path, report_path, diagnostics_path):
            if os.path.exists(path):
                os.remove(path)
        argv = [sys.executable, os.path.join(HERE, "op.py"), config,
                result_path]
        if traced:
            argv += [spans_path, f"op{self.count}"]
        proc = subprocess.run(argv, env=self.env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=OP_TIMEOUT_S)
        stderr = proc.stderr.decode("utf-8", "replace")
        if proc.returncode != 0 or "Traceback" in stderr:
            last = stderr.strip().splitlines()[-1:] or ["no message"]
            return {"problems": [f"exit {proc.returncode}: {last[0]}"]}
        try:
            with open(result_path, encoding="utf-8") as fh:
                op = json.load(fh)
            with open(report_path, "rb") as fh:
                report = fh.read()
            with open(diagnostics_path, "rb") as fh:
                diagnostics = fh.read()
            if traced:
                with open(spans_path, encoding="utf-8") as fh:
                    trace = json.load(fh)
        except (OSError, ValueError) as exc:
            return {"problems": [f"missing or unreadable output: {exc}"]}
        op["problems"] = check_report(self.ws, report, diagnostics,
                                      self.deserialize)
        op["digest"] = hashlib.sha256(report).hexdigest()
        if traced:
            op["spans"], op["calls"] = trace["spans"], trace["calls"]
        return op

    def _output(self, config: str, suffix: str) -> str:
        out = os.path.join(os.path.dirname(config), "out")
        return os.path.join(out, os.path.basename(config)[:-len(".config")]
                            + suffix)

    def timed(self, traced: bool = False) -> dict:
        op = self.run(self.ws.config, traced)
        if "digest" in op:
            self.digests.add(op["digest"])
            if len(self.digests) > 1:
                op["problems"].append("report bytes differ between runs")
        return op

    def check_ledger(self) -> list:
        """Digest agreement with earlier benchmark runs in this checkout."""
        path = os.path.join(WORK, "digests.json")
        ledger = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                ledger = json.load(fh)
        if len(self.digests) != 1:
            return []
        digest = next(iter(self.digests))
        earlier = ledger.setdefault(self.ledger_key, digest)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ledger, fh, indent=1, sort_keys=True)
        if earlier != digest:
            return [f"report sha256 {digest[:16]} differs from an earlier "
                    f"run's {earlier[:16]} with the same sources and seed"]
        return []


def import_split(env: dict) -> dict:
    """Median per-package import times over IMPORTTIME_RUNS processes."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import portalmetrics.cli"],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S, check=True)
        runs.append(import_times(proc.stderr.decode("utf-8", "replace")))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("crit8", "walks"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "portalmetrics", "cli.py")):
        sys.stderr.write(f"error: no portalmetrics sources under {SRC}; run "
                         "from a checkout of the repository\n")
        return 2
    sys.path.insert(0, SRC)
    from workloads import BUILDERS

    # One workspace at a time: the last run's is replaced, not kept.
    root = os.path.join(WORK, "workspace")
    shutil.rmtree(root, ignore_errors=True)
    ws = BUILDERS[args.workload](root, args.seed)
    runner = Runner(ws, args.workload, args.seed)
    # Untimed: writes the bytecode caches a user's install would have.
    subprocess.run([sys.executable, "-c", "import portalmetrics.cli"],
                   env=runner.env, cwd=ROOT, check=True, timeout=OP_TIMEOUT_S)

    ops = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        ops.append(runner.timed(traced))
        if time.monotonic() - start >= args.seconds and (
                not args.trace or len(ops) >= 2):
            break
    problems = [p for op in ops for p in op["problems"]]
    problems += runner.check_ledger()
    failed = sum(1 for op in ops if op["problems"])
    # Timings of operations that ran to the end, even if a check failed:
    # `correct` already reports the failure.
    finished = [op for op in ops if "report_s" in op]
    untraced = [op for op in finished if "spans" not in op]
    traced_ops = [op for op in finished if "spans" in op]

    probe_failures = 0
    probe_note = "not run on this workload"
    if ws.gzip_config is not None:
        probe = runner.run(ws.gzip_config)
        if not probe["problems"] and probe["digest"] not in runner.digests:
            probe["problems"].append("gzip-rotated input changed the report")
        probe_failures = int(bool(probe["problems"]))
        probe_note = probe["problems"][0] if probe_failures else "ok"

    if not untraced or (args.trace and not traced_ops):
        sys.stderr.write("error: no operation ran to the end: "
                         f"{problems[0] if problems else 'unknown'}\n")
        return 1

    print(f"workload {args.workload}  seed {args.seed}  inputs sha256 "
          f"{ws.fingerprint()[:16]}  report sha256 "
          f"{','.join(d[:16] for d in sorted(runner.digests))}")
    print(f"  closed loop, 1 client, one fresh process per report; "
          f"{len(ops)} operations in {time.monotonic() - start:.1f} s")
    print("  report_s per operation: "
          + " ".join(f"{op['report_s']:.3f}" for op in finished))
    attempted = len(ops) + (ws.gzip_config is not None)
    print(f"  failed_share {failed + probe_failures}/{attempted} ratio "
          f"(gzip probe: {probe_note})")
    for problem in problems[:10]:
        print(f"  FAILED CHECK: {problem}")

    def median(key, sample):
        return statistics.median(op[key] for op in sample)

    if args.trace:
        per_run = [layer_metrics(op["spans"], op["calls"])
                   for op in traced_ops]
        metrics = {key: statistics.median(run[key] for run in per_run)
                   for key in per_run[0]}
        metrics["trace.overhead_s"] = (median("report_s", traced_ops)
                                       - median("report_s", untraced))
        metrics["probe.gzip_failures"] = probe_failures
        metrics.update(import_split(runner.env))
        residual = max(abs(unattributed_s(run)) for run in per_run)
        spans = max(len(op["spans"]) for op in traced_ops)
        print(f"  {len(traced_ops)} traced, {len(untraced)} untraced; up to "
              f"{spans} spans per report; self times leave {residual:.2e} s "
              "of the root unattributed")
        metrics = dict(sorted(metrics.items()))
        units = {key: _unit(key) for key in metrics}
    else:
        metrics = {key: median(key, untraced) for key in END_TO_END}
        units = END_TO_END
    for key in metrics:
        print(f"  {key:<48} {metrics[key]:>14.6f} {units[key]}"
              f"  (median of {len(per_run) if args.trace else len(untraced)})")
    print(json.dumps({
        "correct": not problems, "attempted": len(ops), "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
