"""One `portalmetrics report` in a fresh interpreter: the timed operation.

Usage: python3 perfbench/op.py CONFIG RESULT_JSON [SPANS_JSON RUN_ID]

Times `import portalmetrics.cli` (set-up) and then
`cli.main(["report", "--config", CONFIG])`, and writes both times, the
exit code and the process's peak RSS to RESULT_JSON. With SPANS_JSON the
report runs under the layer tracer and its spans are written there.
`portalmetrics` must be importable (PYTHONPATH=src).
"""

import json
import resource
import sys
import time


def main(argv) -> int:
    config, result_path = argv[0], argv[1]
    t0 = time.perf_counter()
    from portalmetrics import cli
    t1 = time.perf_counter()
    args = ["report", "--config", config]
    tracer = None
    if len(argv) > 2:
        import layertrace
        tracer = layertrace.Tracer(run_id=argv[3])
        tracer.install()
    t2 = time.perf_counter()
    code = tracer.root(cli.main, args) if tracer else cli.main(args)
    t3 = time.perf_counter()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.dump(argv[2])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"code": code, "setup_s": t1 - t0, "report_s": t3 - t2,
                   "peak_rss_mb": peak_kib / 1024}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
