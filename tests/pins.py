"""The pinned sha256 of the demo network's outputs, in one place for the
tests and for CI. Standard library only.

Run from the repository root after writing the demo outputs,

    python tests/pins.py alpha.report.json=demo/portals/alpha/out/alpha.report.json

checks each named file against the pin of that name, prints one line per
file and exits 1 unless every file matches.
"""

from __future__ import annotations

import hashlib
import sys

# sha256 of the demo network's outputs: both portals' report and
# diagnostics, and their comparison. A change that moves any byte must
# update the digest and say why.
DEMO_DIGESTS = {
    "alpha.report.json":
        "f96cab93335dc176e7f0c382083e8e39a632848e25fee91b23b855ea528713c0",
    "alpha.diagnostics.json":
        "41f6bd07bad1467e41c5a9a419d62466e6f034ec7ca9fa0051b566de725c6a04",
    "beta.report.json":
        "4f217381163ff39ec6c2e12b8fbac7d186240cffffe452e06c60dfec69b5e822",
    "beta.diagnostics.json":
        "6c4c78ddaec6c2c9dad96e7c1debb042ae89d13cbf369b08f323bb6bd8e0edbb",
    "comparison.json":
        "73942e2e0d4e5d8145629cf7d1133c1aace8d5ba3562076a24e203ebd46fc15f",
}
# sha256 of the text the demo network's comparison prints. Same rule.
DEMO_STDOUT_DIGESTS = {
    "comparison.stdout":
        "e7b9fd34b36189e9a200cfcb194590aa0f4353dc820ece68b99a21187b08b060",
}


def main(argv: list[str]) -> int:
    """Check each ``NAME=PATH`` of ``argv``; 0 if every file matches."""
    pins = {**DEMO_DIGESTS, **DEMO_STDOUT_DIGESTS}
    if not argv:
        print("usage: python tests/pins.py NAME=PATH ...", file=sys.stderr)
        return 1
    failed = False
    for arg in argv:
        name, _, path = arg.partition("=")
        if name not in pins or not path:
            print(f"{arg}: not NAME=PATH with NAME one of {sorted(pins)}")
            failed = True
            continue
        try:
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        except OSError as exc:
            print(f"{path}: cannot read: {exc.strerror}")
            failed = True
            continue
        matches = digest == pins[name]
        print(f"{path}: {'OK' if matches else 'FAILED'} "
              f"({name}, sha256 {digest})")
        failed = failed or not matches
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
