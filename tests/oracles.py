"""Independent reference implementations used to check the package.

Deliberately different algorithms from the ones under test: distances via
boolean matrix powers rather than BFS or sparse shortest-path, session
grouping via per-visitor scans, log parsing into one ``LogEntry`` per line
with aware ``datetime`` timestamps and no value cached between lines, bot
filtering with no verdict cached between entries, bucket placement by
``datetime`` arithmetic, regression via the closed-form normal equations,
content counts from whole parsed records rather than from row keys.
Slow is fine here; disagreement is the signal.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import NamedTuple

import numpy as np

from portalmetrics.errors import FormatError
from portalmetrics.position import (
    COMMUNITY_ALGORITHM,
    LPA_MAX_ROUNDS,
    CommunityAssignment,
)
from portalmetrics.structure import SiteGraph
from portalmetrics.usage import (
    _MONTHS,
    DEFAULT_BOT_SIGNATURES,
    ROBOTS_PATH,
)

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

# The NCSA Combined Log Format line with all nine fields captured: host,
# ident, authenticated user, timestamp, request, status, size, referrer
# and agent. ``usage.ingest`` must accept exactly the lines it accepts.
# The timestamp has the fixed layout dd/Mon/yyyy:HH:MM:SS +ZZZZ in ASCII
# digits.
COMBINED_RE = re.compile(
    r'^(\S+) (\S+) (\S+) \[((?a:\d\d/[A-Z][a-z]{2}/\d{4}:\d\d:\d\d:\d\d [+-]\d{4}))\] '
    r'"([^"]*)" (\d{3}) (\S+) "([^"]*)" "([^"]*)"\s*$'
)


def matrix_power_distances(n: int, edges) -> np.ndarray:
    """d[i][j] = smallest k with a length-k path i -> j; -1 if none.

    Computed by repeated boolean multiplication: reach_k = reach_{k-1} @ A.
    """
    adjacency = np.zeros((n, n), dtype=np.int32)
    for a, b in edges:
        adjacency[a][b] = 1
    distances = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(distances, 0)
    reach = np.eye(n, dtype=np.int32)
    for step in range(1, n):
        reach = (reach @ adjacency > 0).astype(np.int32)
        newly = (reach > 0) & (distances < 0)
        distances[newly] = step
        if not newly.any():
            break
    return distances


def indexed_edges(graph):
    """Graph edges as index pairs in the graph's canonical node order."""
    order = graph.node_order()
    index = {node: i for i, node in enumerate(order)}
    return order, [(index[a], index[b]) for a, b in graph.edges]


def oracle_converted(graph, K=None) -> np.ndarray:
    order, edges = indexed_edges(graph)
    n = len(order)
    k = n if K is None else K
    d = matrix_power_distances(n, edges)
    return np.where(d < 0, k, d)


def oracle_depth(graph) -> tuple[float, int]:
    order, edges = indexed_edges(graph)
    n = len(order)
    if n == 1:
        return 0.0, 0
    root = order.index(graph.root)
    d = matrix_power_distances(n, edges)[root]
    reachable = [d[j] for j in range(n) if j != root and d[j] >= 0]
    unreachable = n - 1 - len(reachable)
    mean = sum(reachable) / len(reachable) if reachable else 0.0
    return mean, unreachable


def oracle_compactness(graph, K=None) -> float | None:
    order, _ = indexed_edges(graph)
    n = len(order)
    if n < 2:
        return None
    k = n if K is None else K
    converted = oracle_converted(graph, k)
    total = int(converted.sum())
    top = (n * n - n) * k
    bottom = n * n - n
    return (top - total) / (top - bottom)


def oracle_stratum(graph) -> float | None:
    order, edges = indexed_edges(graph)
    n = len(order)
    if n < 2:
        return None
    d = matrix_power_distances(n, edges)
    finite = np.where(d < 0, 0, d)
    status = finite.sum(axis=0)        # distances into each node
    contrastatus = finite.sum(axis=1)  # distances out of each node
    absolute_prestige = int(np.abs(status - contrastatus).sum())
    if n % 2 == 0:
        linear_max = n ** 3 / 4
    else:
        linear_max = (n ** 3 - n) / 4
    return absolute_prestige / linear_max


def session_path_graph(session) -> SiteGraph | None:
    """Directed graph of the session's page transitions.

    Nodes are the distinct paths; edges join consecutive distinct views
    (reload self-transitions are dropped). Root is the entry page. None
    when the session visits fewer than 2 distinct pages.
    """
    paths = [p for _, p in session.views]
    distinct = set(paths)
    if len(distinct) < 2:
        return None
    edges = set()
    for a, b in zip(paths, paths[1:]):
        if a != b:
            edges.add((a, b))
    return SiteGraph(nodes=frozenset(distinct), edges=frozenset(edges),
                     root=paths[0])



def reference_communities(g, seed: int = 0) -> CommunityAssignment:
    """Synchronous label propagation that runs every round up to the cap,
    with no shortcut for a 2-cycle; otherwise the same votes, ties, seed
    shuffle and renumbering as ``position.detect_communities``."""
    order = g.site_order()
    initial = list(range(len(order)))
    if seed != 0:
        random.Random(seed).shuffle(initial)
    labels = dict(zip(order, initial))
    undirected: dict = {site: {} for site in order}
    for (a, b), w in g.weights.items():
        undirected[a][b] = undirected[a].get(b, 0) + w
        undirected[b][a] = undirected[b].get(a, 0) + w
    adjacency = {site: sorted(nbrs.items()) for site, nbrs in undirected.items()}
    rounds = 0
    converged = False
    while rounds < LPA_MAX_ROUNDS:
        rounds += 1
        new = {}
        for site in order:
            nbrs = adjacency[site]
            if not nbrs:
                new[site] = labels[site]
                continue
            counts: dict = {labels[site]: 1}
            for other, weight in nbrs:
                lab = labels[other]
                counts[lab] = counts.get(lab, 0) + weight
            best = max(counts.values())
            new[site] = min(lab for lab, c in counts.items() if c == best)
        if new == labels:
            converged = True
            break
        labels = new
    renumber: dict = {}
    canonical = {site: renumber.setdefault(labels[site], len(renumber))
                 for site in order}
    return CommunityAssignment(labels=canonical, seed=seed,
                               algorithm=COMMUNITY_ALGORITHM,
                               rounds=rounds, converged=converged)

class LogEntry(NamedTuple):
    """One parsed access-log line."""

    visitor_key: str
    timestamp: datetime
    path: str
    status: int
    user_agent: str
    referrer: str

    @property
    def is_page_view(self) -> bool:
        """Only successful and redirect responses count as page views."""
        return 200 <= self.status < 400


@dataclass
class ParsedLog:
    entries: list[LogEntry]
    malformed: int
    total_lines: int


def _reference_clf_timestamp(text: str) -> datetime:
    # The layout that COMBINED_RE fixes (locale-independent).
    day = int(text[0:2])
    month = _MONTHS[text[3:6]]
    year = int(text[7:11])
    hour = int(text[12:14])
    minute = int(text[15:17])
    second = int(text[18:20])
    offset_minutes = int(text[24:26])
    if offset_minutes > 59:
        raise ValueError(f"bad timezone {text[21:]!r}")
    offset = timedelta(hours=int(text[22:24]), minutes=offset_minutes)
    tz = timezone(offset if text[21] == "+" else -offset)
    return datetime(year, month, day, hour, minute, second, tzinfo=tz)


def _reference_visitor_key(host: str, authuser: str, user_agent: str,
                           use_auth_user: bool) -> str:
    if use_auth_user and authuser not in ("-", ""):
        return f"user:{authuser}"
    digest = hashlib.sha1(f"{host}|{user_agent}".encode("utf-8")).hexdigest()
    return f"anon:{digest[:16]}"


def reference_parse_log(line_stream, use_auth_user: bool = True) -> ParsedLog:
    """Reference log parser: every line pays for its own timestamp, time
    zone, visitor hash and LogEntry, with no value shared between lines."""
    if isinstance(line_stream, (str, bytes)):
        text = line_stream if isinstance(line_stream, str) else line_stream.decode()
        line_stream = text.splitlines()
    entries: list[LogEntry] = []
    malformed = 0
    total = 0
    for raw in line_stream:
        total += 1
        m = COMBINED_RE.match(raw)
        if m is None:
            malformed += 1
            continue
        host, _ident, authuser, when, request, status, _size, referrer, agent = m.groups()
        try:
            ts = _reference_clf_timestamp(when).astimezone(timezone.utc)
        except (ValueError, KeyError, IndexError, OverflowError):
            # OverflowError: the UTC instant is outside the datetime range.
            malformed += 1
            continue
        parts = request.split()
        if len(parts) < 2 or not parts[1]:
            malformed += 1
            continue
        entries.append(LogEntry(
            visitor_key=_reference_visitor_key(host, authuser, agent, use_auth_user),
            timestamp=ts,
            path=parts[1],
            status=int(status),
            user_agent=agent,
            referrer="" if referrer == "-" else referrer,
        ))
    if total > 0 and malformed * 2 > total:
        raise FormatError(
            f"log stream is mostly unparseable: {malformed} of {total} lines malformed"
        )
    return ParsedLog(entries=entries, malformed=malformed, total_lines=total)


def reference_filter_agents(entries, signatures=None):
    """Split entries into (human, bot) lists: a bot hit's user agent
    contains a signature (case-insensitive), or it requests the
    robots-exclusion file. Every entry is tested on its own."""
    sigs = DEFAULT_BOT_SIGNATURES if signatures is None else signatures
    humans: list[LogEntry] = []
    bots: list[LogEntry] = []
    for e in entries:
        agent = e.user_agent.lower()
        if any(s.lower() in agent for s in sigs) or e.path == ROBOTS_PATH:
            bots.append(e)
        else:
            humans.append(e)
    return humans, bots


def reference_ingest(lines, timeout: timedelta, use_auth_user: bool = True,
                     signatures=None):
    """The eager oracle chain: ``reference_parse_log`` ->
    ``reference_filter_agents`` -> page-view filter -> ``brute_sessionize``.

    Returns (sessions as ``brute_sessionize`` gives them, counts keyed as
    ``usage.ingest`` keys them); raises the parser's FormatError.
    """
    parsed = reference_parse_log(lines, use_auth_user=use_auth_user)
    humans, bots = reference_filter_agents(parsed.entries, signatures)
    views = [e for e in humans if e.is_page_view]
    counts = {"log_lines": parsed.total_lines,
              "malformed_lines": parsed.malformed,
              "bot_entries": len(bots),
              "non_page_view_entries": len(humans) - len(views)}
    return brute_sessionize(views, timeout), counts


def epoch_seconds(instant: datetime) -> int:
    """Whole UTC epoch seconds of an aware datetime (rounded down)."""
    return (instant - EPOCH) // timedelta(seconds=1)


def views_by_visitor(entries) -> dict:
    """Entries as ``usage.sessionize`` takes them: per visitor, a list of
    (epoch seconds, path) views in entry order."""
    grouped: dict = {}
    for e in entries:
        grouped.setdefault(e.visitor_key, []).append(
            (epoch_seconds(e.timestamp), e.path))
    return grouped


def brute_sessionize(entries, timeout: timedelta):
    """Reference grouping: per visitor, walk views in time order and cut
    whenever the gap is strictly greater than the timeout.

    Returns a set of (visitor, (timestamps...), (paths...)) triples.
    """
    per_visitor: dict = {}
    for e in entries:
        per_visitor.setdefault(e.visitor_key, []).append(e)
    result = set()
    for visitor, items in per_visitor.items():
        items.sort(key=lambda e: (e.timestamp, e.path))
        group = [items[0]]
        for e in items[1:]:
            if e.timestamp - group[-1].timestamp > timeout:
                result.add((visitor,
                            tuple(x.timestamp for x in group),
                            tuple(x.path for x in group)))
                group = [e]
            else:
                group.append(e)
        result.add((visitor,
                    tuple(x.timestamp for x in group),
                    tuple(x.path for x in group)))
    return result


def sessions_as_set(sessions):
    """Sessions as ``brute_sessionize`` gives them, with each view's epoch
    seconds as a UTC datetime."""
    return {(s.visitor_key,
             tuple(EPOCH + timedelta(seconds=ts) for ts, _ in s.views),
             tuple(p for _, p in s.views)) for s in sessions}


def reference_bucket_index(period, instant: datetime) -> int | None:
    """The bucket of ``instant`` by ``datetime`` arithmetic: the floor of
    its distance from the period start over the bucket length, or None
    outside the half-open period."""
    if instant < period.start or instant >= period.end:
        return None
    return (instant - period.start) // period.bucket


def ols_slope(ys) -> float:
    """Closed-form least squares of y against x = 0..n-1."""
    n = len(ys)
    xs = range(n)
    x_mean = (n - 1) / 2
    y_mean = sum(ys) / n
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    sxx = sum((x - x_mean) ** 2 for x in xs)
    return sxy / sxx


def shannon(counts) -> float:
    total = sum(counts)
    return -sum((c / total) * math.log(c / total) for c in counts if c > 0)


def reference_content_counts(records) -> tuple[dict[str, int], int]:
    """Per-portal and network-wide content counts from whole parsed
    records: distinct identifiers per portal, and distinct identifiers
    over every portal."""
    per_portal: dict[str, set[str]] = {}
    network: set[str] = set()
    for r in records:
        per_portal.setdefault(r.portal_id, set()).add(r.identifier)
        network.add(r.identifier)
    return {p: len(ids) for p, ids in sorted(per_portal.items())}, len(network)
