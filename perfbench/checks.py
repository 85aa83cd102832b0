"""Output checks for one `report` run against the workspace's planted truth.

Everything here is computed from the generator's data; the only code
under test it calls is `report.deserialize`, the documented schema check.
"""

from __future__ import annotations

import json
import math

# Keys both documents legitimately carry; any other diagnostics key found
# in the shareable report is a privacy leak.
SHARED_KEYS = {"portal_id", "period", "start", "end", "bucket_seconds"}


def _keys(node) -> set:
    if isinstance(node, dict):
        found = set(node)
        for value in node.values():
            found |= _keys(value)
        return found
    if isinstance(node, list):
        return set().union(*map(_keys, node)) if node else set()
    return set()


def _section(document: dict, key: str) -> dict:
    """``document[key]`` if it is an object, else an empty one, so a
    malformed section fails the checks below instead of raising."""
    value = document.get(key)
    return value if isinstance(value, dict) else {}


def _close(value, want: float, rel_tol: float) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isclose(value, want, rel_tol=rel_tol))


def check_report(ws, report_bytes: bytes, diagnostics_bytes: bytes,
                 deserialize) -> list:
    """Problems found in one run's report and diagnostics; empty if none."""
    problems = []
    try:
        deserialize(report_bytes)
    except Exception as exc:  # any refusal is a failed operation
        problems.append(f"report is not schema-valid: {exc}")
    try:
        report = json.loads(report_bytes)
        diagnostics = json.loads(diagnostics_bytes)
    except ValueError as exc:
        return problems + [f"report or diagnostics is not JSON: {exc}"]
    if not isinstance(report, dict) or not isinstance(diagnostics, dict):
        return problems + ["report or diagnostics is not a JSON object"]

    leaked = sorted((_keys(report) & _keys(diagnostics)) - SHARED_KEYS)
    if leaked:
        problems.append(f"diagnostics fields in the report: {leaked}")

    tallies = _section(diagnostics, "tallies")
    for key, want in ws.tallies.items():
        if tallies.get(key) != want:
            problems.append(f"tallies.{key} = {tallies.get(key)}, planted {want}")
    if diagnostics.get("session_count") != ws.tallies["sessions"]:
        problems.append(f"session_count = {diagnostics.get('session_count')}, "
                        f"planted {ws.tallies['sessions']}")
    got = _section(diagnostics, "demand").get("visit_counts")
    if got != ws.visit_counts:
        problems.append(f"visits per bucket {got}, planted {ws.visit_counts}")

    org = _section(report, "organization")
    density = ws.links / (ws.pages * (ws.pages - 1))
    if not _close(org.get("density"), density, rel_tol=1e-12):
        problems.append(f"density {org.get('density')}, expected {density}")
    if not _close(org.get("depth"), ws.depth, rel_tol=1e-9):
        problems.append(f"depth {org.get('depth')}, BFS gives {ws.depth}")
    if org.get("unreachable_pages") != ws.unreachable:
        problems.append(f"unreachable_pages {org.get('unreachable_pages')}, "
                        f"BFS gives {ws.unreachable}")

    position = _section(report, "position")
    if position.get("site") != ws.site:
        problems.append(f"position.site {position.get('site')}, want {ws.site}")
    for key, want in ws.degrees.items():
        if position.get(key) != want:
            problems.append(f"position.{key} = {position.get(key)}, "
                            f"cross graph gives {want}")
    return problems
