"""Access-log analytics: parsing, bot filtering, sessionization, demand.

Ingests web-server access logs in NCSA Combined Log Format, splits human
from automated-agent traffic, groups page views into visits (sessions),
and computes the demand-side metrics: overall demand per time bucket,
recency (mean time between visits by the same visitor), activity level
(page views per visit), accessed-content distributions joined against the
catalog, and per-session navigation complexity/linearity derived from the
structure-module metrics on the session's path graph.

Visitor identity: the authenticated-user field of the log line when
present, otherwise a stable hash of (client address, user agent). The
latter is an approximation -- one machine and browser counts as one
visitor -- and reports label which method was in effect.

Ingest costs one regex match per line plus one pass per distinct date,
visitor and agent: the UTC midnight of each distinct date and offset,
the hash of each distinct (address, agent) pair and the bot verdict of
each distinct agent are computed once per call and reused for every line
that repeats them.

Ingest streams: ``iter_log`` yields each entry as its line is read and
``human_page_views`` passes on only the human page views, so a pipeline
of the two into ``sessionize`` holds no list of entries. Its memory
follows the human page views that the sessions keep, not the number of
log lines; every view of one request path shares one path string.
"""

from __future__ import annotations

import gzip
import hashlib
import re
import statistics
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from typing import Iterator, NamedTuple

from . import structure
from .catalog import ContentRecord, TopicDistribution
from .errors import DomainError, FormatError

DEFAULT_SESSION_TIMEOUT = timedelta(minutes=30)
DEFAULT_LINEARITY_BAND = 0.8

# Case-insensitive substrings that mark an automated agent. User-extendable
# via filter_agents(signatures=...) or a signature file.
DEFAULT_BOT_SIGNATURES = (
    "bot",
    "crawler",
    "spider",
    "slurp",
    "archiver",
    "scraper",
    "curl",
    "wget",
    "python-requests",
    "httpclient",
    "facebookexternalhit",
    "headlesschrome",
)

ROBOTS_PATH = "/robots.txt"

_COMBINED_RE = re.compile(
    r'^(\S+) (\S+) (\S+) \[([^\]]+)\] "([^"]*)" (\d{3}) (\S+) "([^"]*)" "([^"]*)"\s*$'
)

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}


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


@dataclass(frozen=True)
class Session:
    """A visit: one visitor's page views with no gap above the timeout."""

    visitor_key: str
    views: tuple[tuple[datetime, str], ...]

    @property
    def start(self) -> datetime:
        return self.views[0][0]

    @property
    def end(self) -> datetime:
        return self.views[-1][0]

    def __len__(self) -> int:
        return len(self.views)


@dataclass(frozen=True)
class AnalysisPeriod:
    """Half-open observation window [start, end) cut into equal buckets.

    The last bucket may be partial. All instants must be timezone-aware.
    """

    start: datetime
    end: datetime
    bucket: timedelta = timedelta(days=1)

    def __post_init__(self):
        if self.start >= self.end:
            raise DomainError("period start must precede period end")
        if self.bucket <= timedelta(0):
            raise DomainError("bucket duration must be positive")

    @property
    def bucket_count(self) -> int:
        span = self.end - self.start
        count = span // self.bucket
        return int(count) + (1 if count * self.bucket < span else 0)

    def bucket_index(self, instant: datetime) -> int | None:
        """Index of the bucket containing ``instant``; None when outside."""
        if instant < self.start or instant >= self.end:
            return None
        return int((instant - self.start) // self.bucket)

    def bucket_starts(self) -> list[datetime]:
        return [self.start + i * self.bucket for i in range(self.bucket_count)]


@dataclass
class ParsedLog:
    entries: list[LogEntry]
    malformed: int
    total_lines: int


@dataclass(frozen=True)
class DemandSeries:
    """Visit counts per bucket over one analysis period."""

    buckets: tuple[tuple[datetime, int], ...]
    period: AnalysisPeriod

    @property
    def total(self) -> int:
        return sum(c for _, c in self.buckets)

    def counts(self) -> list[int]:
        return [c for _, c in self.buckets]


@dataclass(frozen=True)
class RecencyResult:
    """Mean time between visits by the same visitor within a period.

    ``mean_between_visits`` is None (with defined=False) when no visitor
    had two or more visits in the period; single-visit visitors are never
    imputed, only counted.
    """

    mean_between_visits: timedelta | None
    eligible_visitors: int
    single_visit_visitors: int

    @property
    def defined(self) -> bool:
        return self.mean_between_visits is not None


@dataclass(frozen=True)
class AccessedContent:
    """Accessed-content distributions, by views and by unique visitors."""

    per_bucket_views: tuple[TopicDistribution, ...]
    per_bucket_visitors: tuple[TopicDistribution, ...]
    views_total: TopicDistribution
    visitors_total: TopicDistribution
    uncatalogued_views: int


@dataclass(frozen=True)
class NavigationMetrics:
    """Complexity and linearity of one session's path graph.

    Sessions visiting fewer than 2 distinct pages carry None metrics and
    the degenerate flag; summaries skip them.
    """

    complexity: float | None
    linearity: float | None
    distinct_pages: int
    degenerate: bool


@dataclass(frozen=True)
class NavigationSummary:
    complexity_mean: float | None
    complexity_median: float | None
    linearity_mean: float | None
    linearity_median: float | None
    high_linearity_share: float | None
    linearity_band: float
    sessions_measured: int
    sessions_skipped: int


def _clf_date(text: str) -> tuple[datetime, int]:
    """UTC midnight of a CLF timestamp's calendar date, and its offset in
    seconds east of UTC.

    Fixed layout: dd/Mon/yyyy:HH:MM:SS +ZZZZ (locale-independent). Only
    the date and the offset are read here; raises ValueError or KeyError
    on an invalid day, month, year or offset.
    """
    day = int(text[0:2])
    month = _MONTHS[text[3:6]]
    year = int(text[7:11])
    tz_text = text[21:].strip()
    if len(tz_text) != 5 or tz_text[0] not in "+-":
        raise ValueError(f"bad timezone {tz_text!r}")
    offset = int(tz_text[1:3]) * 3600 + int(tz_text[3:5]) * 60
    if not -86400 < offset < 86400:  # the offsets timezone() accepts
        raise ValueError(f"bad timezone {tz_text!r}")
    # The offset is applied per line, not folded into this midnight, so
    # that an instant near datetime.min or .max overflows exactly when the
    # instant itself is out of range.
    return (datetime(year, month, day, tzinfo=timezone.utc),
            offset if tz_text[0] == "+" else -offset)


def visitor_key_method(use_auth_user: bool = True) -> str:
    """Label for report metadata describing how visitors were identified."""
    if use_auth_user:
        return "auth-user-else-address-agent-hash"
    return "address-agent-hash"


@dataclass
class IngestTally:
    """What a streamed ingest read and dropped. Each count is complete once
    the stream that fills it has been read to the end."""

    total_lines: int = 0
    malformed: int = 0
    bot_entries: int = 0
    non_page_view_entries: int = 0


def iter_log(line_stream, tally: IngestTally,
             use_auth_user: bool = True) -> Iterator[LogEntry]:
    """Parse NCSA Combined Log Format lines, yielding one LogEntry per
    well-formed line as the lines are read.

    Malformed lines (including blank ones, and timestamps whose UTC instant
    is outside the datetime range) are skipped and counted in ``tally``,
    as are all lines. Non-2xx/3xx responses are yielded but are not page
    views (``LogEntry.is_page_view``). Once the stream ends, raises
    FormatError when more than half of the lines failed to parse.

    Each line costs one regex match and its time-of-day arithmetic; the
    date and offset part of the timestamp is resolved once per distinct
    value, the anonymous visitor hash once per distinct (address, agent)
    pair, and every entry of one request path shares one path string.
    """
    if isinstance(line_stream, (str, bytes)):
        text = line_stream if isinstance(line_stream, str) else line_stream.decode()
        line_stream = text.splitlines()
    malformed = 0
    total = 0
    dates: dict[str, tuple[datetime, int]] = {}
    anonymous: dict[tuple[str, str], str] = {}
    paths: dict[str, str] = {}
    for raw in line_stream:
        total += 1
        m = _COMBINED_RE.match(raw)
        if m is None:
            malformed += 1
            continue
        host, _ident, authuser, when, request, status, _size, referrer, agent = m.groups()
        try:
            hour = int(when[12:14])
            minute = int(when[15:17])
            second = int(when[18:20])
            if not (0 <= hour < 24 and 0 <= minute < 60 and 0 <= second < 60):
                raise ValueError(f"bad time of day in {when!r}")
            # Date and offset; the separators between fields are not read.
            date_key = when[:11] + when[21:]
            date = dates.get(date_key)
            if date is None:
                date = dates[date_key] = _clf_date(when)
            midnight, offset = date
            timestamp = midnight + timedelta(
                0, hour * 3600 + minute * 60 + second - offset)
        except (ValueError, KeyError, OverflowError):
            malformed += 1
            continue
        parts = request.split()
        if len(parts) < 2 or not parts[1]:
            malformed += 1
            continue
        if use_auth_user and authuser not in ("-", ""):
            visitor = f"user:{authuser}"
        else:
            visitor = anonymous.get((host, agent))
            if visitor is None:
                digest = hashlib.sha1(f"{host}|{agent}".encode("utf-8")).hexdigest()
                visitor = anonymous[host, agent] = f"anon:{digest[:16]}"
        path = paths.setdefault(parts[1], parts[1])
        yield LogEntry(visitor, timestamp, path, int(status), agent,
                       "" if referrer == "-" else referrer)
    tally.total_lines += total
    tally.malformed += malformed
    if total > 0 and malformed * 2 > total:
        raise FormatError(
            f"log stream is mostly unparseable: {malformed} of {total} lines malformed"
        )


def parse_log(line_stream, use_auth_user: bool = True) -> ParsedLog:
    """Every entry of ``iter_log`` at once, with its line counts.

    Raises FormatError when more than half of the lines fail to parse.
    """
    tally = IngestTally()
    entries = list(iter_log(line_stream, tally, use_auth_user))
    return ParsedLog(entries=entries, malformed=tally.malformed,
                     total_lines=tally.total_lines)


def read_log_lines(paths):
    """Iterate lines over several log files; .gz files are decompressed."""
    for path in paths:
        opener = gzip.open if str(path).endswith(".gz") else open
        with opener(path, "rt", encoding="utf-8", errors="replace") as fh:
            yield from fh


def load_link_map(path) -> dict:
    """Join table from request path to catalog identifier, one delimited
    pair per line (tab wins over comma, # starts a comment)."""
    mapping: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            sep = "\t" if "\t" in line else ","
            parts = [p.strip() for p in line.split(sep)]
            if len(parts) == 2 and parts[0] and parts[1]:
                mapping[parts[0]] = parts[1]
    return mapping


def load_signatures(path) -> tuple[str, ...]:
    """Bot signature file: one case-insensitive substring per line."""
    signatures = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                signatures.append(line.lower())
    return tuple(signatures)


def _bot_test(signatures=None):
    """The bot test of one ingest: an entry is a bot hit when its user
    agent contains any signature (case-insensitive) or it requests the
    robots-exclusion file. Signatures are matched once per distinct user
    agent; the robots-exclusion test runs on every entry."""
    sigs = DEFAULT_BOT_SIGNATURES if signatures is None else tuple(signatures)
    sigs = tuple(s.lower() for s in sigs)
    verdicts: dict[str, bool] = {}

    def is_bot(entry: LogEntry) -> bool:
        verdict = verdicts.get(entry.user_agent)
        if verdict is None:
            agent = entry.user_agent.lower()
            verdict = verdicts[entry.user_agent] = any(s in agent for s in sigs)
        return verdict or entry.path == ROBOTS_PATH
    return is_bot


def filter_agents(entries, signatures=None) -> tuple[list[LogEntry], list[LogEntry]]:
    """Split entries into (human, bot) partitions.

    An entry is a bot hit when its user agent contains any signature
    (case-insensitive) or it requests the robots-exclusion file. The
    partition is exhaustive and disjoint.
    """
    is_bot = _bot_test(signatures)
    humans: list[LogEntry] = []
    bots: list[LogEntry] = []
    for entry in entries:
        if is_bot(entry):
            bots.append(entry)
        else:
            humans.append(entry)
    return humans, bots


def human_page_views(entries, tally: IngestTally,
                     signatures=None) -> Iterator[LogEntry]:
    """The entries that are human page views, as ``filter_agents`` and
    ``LogEntry.is_page_view`` would keep them, yielded as they are read.

    Bot hits and human non-page-views are counted in ``tally``.
    """
    is_bot = _bot_test(signatures)
    bots = non_page_views = 0
    for entry in entries:
        if is_bot(entry):
            bots += 1
        elif entry.is_page_view:
            yield entry
        else:
            non_page_views += 1
    tally.bot_entries += bots
    tally.non_page_view_entries += non_page_views


def sessionize(entries, timeout: timedelta = DEFAULT_SESSION_TIMEOUT) -> list[Session]:
    """Group entries into visits: per visitor, a new session starts when
    the gap to the previous view exceeds the timeout (strictly).

    Every entry lands in exactly one session. Input order does not matter:
    views are grouped by visitor, and sessions come out in (visitor,
    timestamp, path) order.
    """
    by_visitor: dict[str, list[tuple[datetime, str]]] = {}
    for entry in entries:
        views = by_visitor.get(entry.visitor_key)
        if views is None:
            by_visitor[entry.visitor_key] = [(entry.timestamp, entry.path)]
        else:
            views.append((entry.timestamp, entry.path))
    sessions: list[Session] = []
    for visitor in sorted(by_visitor):
        views = by_visitor[visitor]
        views.sort()
        first = 0
        last_ts = views[0][0]
        for i, (ts, _path) in enumerate(views):
            if ts - last_ts > timeout:
                sessions.append(Session(visitor, tuple(views[first:i])))
                first = i
            last_ts = ts
        sessions.append(Session(visitor, tuple(views[first:])))
    return sessions


def overall_demand(sessions, period: AnalysisPeriod) -> DemandSeries:
    """Visits per bucket; a session counts in the bucket of its start."""
    counts = [0] * period.bucket_count
    for session in sessions:
        idx = period.bucket_index(session.start)
        if idx is not None:
            counts[idx] += 1
    starts = period.bucket_starts()
    return DemandSeries(buckets=tuple(zip(starts, counts)), period=period)


def recency(sessions, period: AnalysisPeriod) -> RecencyResult:
    """Mean over visitors of their mean gap between consecutive visit starts.

    Only sessions starting inside the period count; visitors with a single
    visit are excluded and tallied, not imputed.
    """
    starts_by_visitor: dict[str, list[datetime]] = {}
    for session in sessions:
        if period.bucket_index(session.start) is not None:
            starts_by_visitor.setdefault(session.visitor_key, []).append(session.start)
    gaps: list[timedelta] = []
    single = 0
    for starts in starts_by_visitor.values():
        if len(starts) < 2:
            single += 1
            continue
        starts.sort()
        deltas = [b - a for a, b in zip(starts, starts[1:])]
        gaps.append(sum(deltas, timedelta()) / len(deltas))
    if not gaps:
        return RecencyResult(mean_between_visits=None, eligible_visitors=0,
                             single_visit_visitors=single)
    return RecencyResult(
        mean_between_visits=sum(gaps, timedelta()) / len(gaps),
        eligible_visitors=len(gaps),
        single_visit_visitors=single,
    )


def activity_level(sessions) -> float:
    """Total page views over total visits (ratio of totals, not a mean of
    per-session means)."""
    if not sessions:
        raise DomainError("cannot compute activity level without sessions")
    return sum(len(s) for s in sessions) / len(sessions)


def accessed_distribution(sessions, records: list[ContentRecord],
                          path_map: dict[str, str], axis: str,
                          period: AnalysisPeriod) -> AccessedContent:
    """Accessed-content distributions per bucket, by views and by visitors.

    ``path_map`` joins request paths to catalog identifiers; views whose
    path or identifier has no catalog record are tallied as uncatalogued.
    Raises DomainError when nothing joins at all. Each distinct path is
    joined once.
    """
    if axis not in ("topic", "resource_type"):
        raise DomainError(f"unknown distribution axis {axis!r}")
    by_id = {r.identifier: r for r in records}
    nbuckets = period.bucket_count
    view_counts = [dict() for _ in range(nbuckets)]
    visitor_sets = [dict() for _ in range(nbuckets)]
    total_views: dict[str, int] = {}
    total_visitors: dict[str, set[str]] = {}
    uncatalogued = 0
    joined = 0
    labels: dict[str, str | None] = {}  # path -> label; None: uncatalogued
    for session in sessions:
        for ts, path in session.views:
            idx = period.bucket_index(ts)
            if idx is None:
                continue
            try:
                label = labels[path]
            except KeyError:
                identifier = path_map.get(path)
                record = by_id.get(identifier) if identifier else None
                if record is None:
                    label = None
                else:
                    label = record.topic if axis == "topic" else record.resource_type
                labels[path] = label
            if label is None:
                uncatalogued += 1
                continue
            joined += 1
            view_counts[idx][label] = view_counts[idx].get(label, 0) + 1
            visitor_sets[idx].setdefault(label, set()).add(session.visitor_key)
            total_views[label] = total_views.get(label, 0) + 1
            total_visitors.setdefault(label, set()).add(session.visitor_key)
    if joined == 0:
        raise DomainError(
            f"no page view joined the catalog ({uncatalogued} uncatalogued views)"
        )
    return AccessedContent(
        per_bucket_views=tuple(TopicDistribution.from_counts(c) for c in view_counts),
        per_bucket_visitors=tuple(
            TopicDistribution.from_counts({k: len(v) for k, v in s.items()})
            for s in visitor_sets
        ),
        views_total=TopicDistribution.from_counts(total_views),
        visitors_total=TopicDistribution.from_counts(
            {k: len(v) for k, v in total_visitors.items()}
        ),
        uncatalogued_views=uncatalogued,
    )


@lru_cache(maxsize=4096)
def _metrics_for_shape(n: int, edges: tuple[tuple[int, int], ...]) -> tuple[float, float]:
    # Both metrics are invariant under node relabeling, so sessions sharing
    # a transition shape share their metrics; the cache exploits that.
    summary = structure._shape_summary(n, edges)
    return (structure._navigability_from_summary(summary),
            structure._linearity_from_summary(summary))


def navigation_metrics(session: Session) -> NavigationMetrics:
    """Complexity and linearity of one session.

    Complexity is the structure-module navigability of the session's path
    graph; linearity is its stratum. Degenerate sessions (fewer than 2
    distinct pages) carry None metrics.
    """
    paths = [p for _, p in session.views]
    order: dict[str, int] = {}
    for p in paths:
        if p not in order:
            order[p] = len(order)
    if len(order) < 2:
        return NavigationMetrics(complexity=None, linearity=None,
                                 distinct_pages=len(order), degenerate=True)
    edges = set()
    for a, b in zip(paths, paths[1:]):
        if a != b:
            edges.add((order[a], order[b]))
    complexity, linearity = _metrics_for_shape(len(order), tuple(sorted(edges)))
    return NavigationMetrics(complexity=complexity, linearity=linearity,
                             distinct_pages=len(order), degenerate=False)


def summarize_navigation(sessions,
                         linearity_band: float = DEFAULT_LINEARITY_BAND
                         ) -> NavigationSummary:
    """Portal-level distribution of per-session navigation metrics.

    ``high_linearity_share`` is the share of measured sessions whose
    linearity exceeds ``linearity_band`` -- tediously linear navigation.
    """
    complexities: list[float] = []
    linearities: list[float] = []
    skipped = 0
    for session in sessions:
        metrics = navigation_metrics(session)
        if metrics.degenerate:
            skipped += 1
            continue
        complexities.append(metrics.complexity)
        linearities.append(metrics.linearity)
    if not complexities:
        return NavigationSummary(
            complexity_mean=None, complexity_median=None,
            linearity_mean=None, linearity_median=None,
            high_linearity_share=None, linearity_band=linearity_band,
            sessions_measured=0, sessions_skipped=skipped,
        )
    high = sum(1 for v in linearities if v > linearity_band)
    return NavigationSummary(
        complexity_mean=statistics.fmean(complexities),
        complexity_median=statistics.median(complexities),
        linearity_mean=statistics.fmean(linearities),
        linearity_median=statistics.median(linearities),
        high_linearity_share=high / len(linearities),
        linearity_band=linearity_band,
        sessions_measured=len(complexities),
        sessions_skipped=skipped,
    )
