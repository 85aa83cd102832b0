"""End-to-end walkthrough on the synthetic two-portal demo network.

Generates the workspace, builds the shareable report for each portal, and
prints the within-segment comparison. Everything is deterministic: two
runs write byte-identical reports.

    python3 scripts/run_demo_network.py [--dir demo-workspace]
"""

import argparse
import os
import sys

from portalmetrics import cli
from portalmetrics.fixtures import write_demo_network


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default="demo-workspace",
                        help="where to write the workspace (default: %(default)s)")
    args = parser.parse_args()

    layout = write_demo_network(args.dir)
    print(f"demo network written to {layout['root']}")

    report_paths = []
    for name, portal in sorted(layout["portals"].items()):
        code = cli.main(["report", "--config", portal["config"]])
        if code != 0:
            print(f"report for {name} failed with exit code {code}",
                  file=sys.stderr)
            return code
        report_paths.append(os.path.join(portal["dir"], "out",
                                         f"{name}.report.json"))
        print(f"report for {name}: {report_paths[-1]}")

    print()
    return cli.main(["compare", "--output-dir",
                     os.path.join(layout["root"], "out"), *report_paths])


if __name__ == "__main__":
    sys.exit(main())
