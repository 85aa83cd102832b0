"""Access-log analytics: parsing, bot filtering, sessionization, demand.

Ingests web-server access logs in NCSA Combined Log Format, splits human
from automated-agent traffic, groups page views into visits (sessions),
and computes the demand-side metrics: overall demand per time bucket,
recency (mean time between visits by the same visitor), activity level
(page views per visit), the accessed-content distributions of the whole
period (by views and by unique visitors) joined against the catalog, and
per-session navigation complexity/linearity derived from the structure
metrics on the session's path graph.

Visitor identity: the authenticated-user field of the log line when
present, otherwise a stable hash of (client address, user agent). The
latter is an approximation -- one machine and browser counts as one
visitor -- and reports label which method was in effect.

Ingest is one loop: each log line is matched once, tested for being
malformed, a bot hit or a non-page-view in that order, and, when kept,
appended as an ``(epoch seconds, path)`` view to its visitor's list. No
per-line record or ``datetime`` is built. A line in the same minute as
the last resolved one parses only its seconds; the UTC midnight of each
distinct date and offset, the hash of each distinct (address, agent)
pair, the bot verdict of each distinct agent and the page-view verdict
of each distinct status are computed once per call and reused for every
line that repeats them. Memory follows the human page views that
sessions keep, not the number of log lines; every view of one request
path shares one path string.

Navigation metrics are computed once per session shape: the pages as
first-visit indices, each with the bitmask of its successors. One
breadth-first search per page over those masks gives the distance sums
that both metrics read.
"""

from __future__ import annotations

import gzip
import hashlib
import re
import statistics
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from functools import lru_cache

from . import structure
from .catalog import ContentRecord, TopicDistribution
from .errors import DomainError, FormatError
from .inputs import data_lines, delimiter

DEFAULT_SESSION_TIMEOUT = timedelta(minutes=30)
DEFAULT_LINEARITY_BAND = 0.8

# Case-insensitive substrings that mark an automated agent. Replaced by
# ingest(signatures=...), as from a signature file (parse_signatures).
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

# The acceptance rule for a log line. It captures only the fields ingest
# reads: host, authenticated user, timestamp, request, status and agent.
_COMBINED_RE = re.compile(
    r'^(\S+) \S+ (\S+) \[([^\]]+)\] "([^"]*)" (\d{3}) \S+ "[^"]*" "([^"]*)"\s*$'
)

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_SECOND = timedelta(seconds=1)
_MICROSECOND = timedelta(microseconds=1)
_EPOCH_ORDINAL = _EPOCH.toordinal()
# The whole epoch seconds that a datetime can hold.
_MIN_SECONDS = (datetime.min.replace(tzinfo=timezone.utc) - _EPOCH) // _SECOND
_MAX_SECONDS = (datetime.max.replace(tzinfo=timezone.utc) - _EPOCH) // _SECOND


@dataclass(frozen=True)
class Session:
    """A visit: one visitor's page views with no gap above the timeout.

    Each view is (UTC epoch seconds, request path).
    """

    visitor_key: str
    views: tuple[tuple[int, str], ...]

    def __len__(self) -> int:
        return len(self.views)


@dataclass(frozen=True)
class AnalysisPeriod:
    """Half-open observation window [start, end) cut into equal buckets.

    The last bucket may be partial. Both bounds must be timezone-aware.
    Views are placed in buckets by their epoch seconds, against the bounds
    and bucket length held exactly in integer microseconds.
    """

    start: datetime
    end: datetime
    bucket: timedelta = timedelta(days=1)
    _start_us: int = field(init=False, repr=False, compare=False)
    _span_us: int = field(init=False, repr=False, compare=False)
    _bucket_us: int = field(init=False, repr=False, compare=False)
    # The first and last whole epoch second inside [start, end); the first
    # exceeds the last when the window holds no whole second.
    _first_s: int = field(init=False, repr=False, compare=False)
    _last_s: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.start.utcoffset() is None or self.end.utcoffset() is None:
            raise DomainError("period start and end must be timezone-aware")
        if self.start >= self.end:
            raise DomainError("period start must precede period end")
        if self.bucket <= timedelta(0):
            raise DomainError("bucket duration must be positive")
        object.__setattr__(self, "_start_us", (self.start - _EPOCH) // _MICROSECOND)
        object.__setattr__(self, "_span_us", (self.end - self.start) // _MICROSECOND)
        object.__setattr__(self, "_bucket_us", self.bucket // _MICROSECOND)
        end_us = self._start_us + self._span_us
        object.__setattr__(self, "_first_s", -(-self._start_us // 1_000_000))
        object.__setattr__(self, "_last_s", -(-end_us // 1_000_000) - 1)

    @property
    def bucket_count(self) -> int:
        return -(-self._span_us // self._bucket_us)

    def bucket_index(self, seconds: int) -> int | None:
        """Index of the bucket containing the instant ``seconds`` (UTC
        epoch seconds); None when outside."""
        offset = seconds * 1_000_000 - self._start_us
        if offset < 0 or offset >= self._span_us:
            return None
        return offset // self._bucket_us

    def bucket_starts(self) -> list[datetime]:
        return [self.start + i * self.bucket for i in range(self.bucket_count)]


@dataclass(frozen=True)
class DemandSeries:
    """Visit counts per bucket over one analysis period."""

    buckets: tuple[tuple[datetime, int], ...]

    @property
    def total(self) -> int:
        return sum(c for _, c in self.buckets)

    def counts(self) -> list[int]:
        return [c for _, c in self.buckets]


@dataclass(frozen=True)
class RecencyResult:
    """Mean time between visits by the same visitor within a period.

    ``mean_between_visits`` is None when no visitor had two or more visits
    in the period; single-visit visitors are never imputed, only counted.
    """

    mean_between_visits: timedelta | None
    eligible_visitors: int
    single_visit_visitors: int


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


def _clf_base(text: str) -> int:
    """UTC epoch seconds of a CLF timestamp's local midnight: the UTC
    midnight of its calendar date minus its offset east of UTC.

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
    midnight = (date(year, month, day).toordinal() - _EPOCH_ORDINAL) * 86400
    return midnight - offset if tz_text[0] == "+" else midnight + offset


def visitor_key_method(use_auth_user: bool = True) -> str:
    """Label for report metadata describing how visitors were identified."""
    if use_auth_user:
        return "auth-user-else-address-agent-hash"
    return "address-agent-hash"


@dataclass
class IngestTally:
    """What an ingest read and dropped; complete once ``ingest`` returns
    or raises."""

    total_lines: int = 0
    malformed: int = 0
    bot_entries: int = 0
    non_page_view_entries: int = 0


def ingest(lines, tally: IngestTally, *, use_auth_user: bool = True,
           signatures=None) -> dict[str, list[tuple[int, str]]]:
    """The human page views of NCSA Combined Log Format lines, grouped by
    visitor: ``{visitor: [(UTC epoch seconds, path), ...]}``, each list in
    line order.

    Each line is counted in ``tally`` under the first of these tests that
    it meets, in this order:

    - malformed: it fails the line pattern, its timestamp is invalid or
      its UTC instant is outside the datetime range, or its request has
      no path;
    - bot hit: its user agent contains a signature (case-insensitive;
      ``DEFAULT_BOT_SIGNATURES`` unless ``signatures`` is given), or it
      requests the robots-exclusion file;
    - not a page view: its status is not 2xx or 3xx;

    and otherwise it is kept. Lines are read one at a time and none is
    held. Once they are all read, raises FormatError when more than half
    of them were malformed.

    Each line costs one regex match. A timestamp in the same minute as
    the last one that resolved costs only its seconds; otherwise its hour
    and minute are parsed and its date and offset are resolved once per
    distinct value. A bot verdict is found once per distinct agent, a
    page-view verdict once per distinct status and the anonymous visitor
    hash once per distinct (address, agent) pair, and every view of one
    request path shares one path string.
    """
    if signatures is None:
        signatures = DEFAULT_BOT_SIGNATURES
    sigs = tuple(s.lower() for s in signatures)
    total = malformed = bots = non_page_views = 0
    bases: dict[str, int] = {}
    verdicts: dict[str, bool] = {}
    page_views: dict[str, bool] = {}
    anonymous: dict[tuple[str, str], str] = {}
    paths: dict[str, str] = {}
    views_by_visitor: dict[str, list[tuple[int, str]]] = {}
    # The epoch seconds of the last minute that resolved, keyed by the
    # timestamp text before and after its seconds. The memo is exact: the
    # parse reads no position of the text other than the seconds (18-19)
    # outside the key, and the key's tail pins the text's length. A minute
    # resolves only with a five-character offset after position 21, so a
    # stored tail is never empty.
    memo_head = memo_tail = None
    memo_minute = 0
    match = _COMBINED_RE.match
    for raw in lines:
        total += 1
        m = match(raw)
        if m is None:
            malformed += 1
            continue
        host, authuser, when, request, status, agent = m.groups()
        head = when[:17]
        tail = when[20:]
        try:
            second = int(when[18:20])
            if not 0 <= second < 60:
                raise ValueError(f"bad time of day in {when!r}")
            if head != memo_head or tail != memo_tail:
                hour = int(when[12:14])
                minute = int(when[15:17])
                if not (0 <= hour < 24 and 0 <= minute < 60):
                    raise ValueError(f"bad time of day in {when!r}")
                # Date and offset; the separators between fields are not
                # read.
                date_key = when[:11] + when[21:]
                base = bases.get(date_key)
                if base is None:
                    base = bases[date_key] = _clf_base(when)
                memo_head, memo_tail = head, tail
                memo_minute = base + hour * 3600 + minute * 60
        except (ValueError, KeyError):
            malformed += 1
            continue
        seconds = memo_minute + second
        parts = request.split()
        if (not _MIN_SECONDS <= seconds <= _MAX_SECONDS
                or len(parts) < 2 or not parts[1]):
            malformed += 1
            continue
        path = parts[1]
        verdict = verdicts.get(agent)
        if verdict is None:
            lowered = agent.lower()
            verdict = verdicts[agent] = any(s in lowered for s in sigs)
        if verdict or path == ROBOTS_PATH:
            bots += 1
            continue
        page_view = page_views.get(status)
        if page_view is None:
            page_view = page_views[status] = 200 <= int(status) < 400
        if not page_view:
            non_page_views += 1
            continue
        if use_auth_user and authuser not in ("-", ""):
            visitor = f"user:{authuser}"
        else:
            visitor = anonymous.get((host, agent))
            if visitor is None:
                digest = hashlib.sha1(f"{host}|{agent}".encode("utf-8")).hexdigest()
                visitor = anonymous[host, agent] = f"anon:{digest[:16]}"
        view = (seconds, paths.setdefault(path, path))
        views = views_by_visitor.get(visitor)
        if views is None:
            views_by_visitor[visitor] = [view]
        else:
            views.append(view)
    tally.total_lines += total
    tally.malformed += malformed
    tally.bot_entries += bots
    tally.non_page_view_entries += non_page_views
    if total > 0 and malformed * 2 > total:
        raise FormatError(
            f"log stream is mostly unparseable: {malformed} of {total} lines malformed"
        )
    return views_by_visitor


def read_log_lines(paths):
    """Iterate lines over several log files; .gz files are decompressed."""
    for path in paths:
        opener = gzip.open if str(path).endswith(".gz") else open
        with opener(path, "rt", encoding="utf-8", errors="replace") as fh:
            yield from fh


def parse_link_map(lines) -> dict:
    """Join table from request path to catalog identifier, from the lines
    of a link-map file: one delimited pair per line (tab wins over comma,
    # starts a comment)."""
    mapping: dict = {}
    for _, line in data_lines(lines):
        parts = [p.strip() for p in line.split(delimiter(line))]
        if len(parts) == 2 and parts[0] and parts[1]:
            mapping[parts[0]] = parts[1]
    return mapping


def parse_signatures(lines) -> tuple[str, ...]:
    """Bot signatures from the lines of a signature file: one
    case-insensitive substring per line, # starts a comment."""
    return tuple(line.lower() for _, line in data_lines(lines))


def sessionize(views_by_visitor,
               timeout: timedelta = DEFAULT_SESSION_TIMEOUT) -> list[Session]:
    """Group each visitor's views into visits: a new session starts when
    the gap to the previous view exceeds the timeout (strictly).

    ``views_by_visitor`` maps each visitor to a non-empty list of (epoch
    seconds, path) views in any order, as ``ingest`` returns it; each list
    is sorted in place. Every view lands in exactly one session, and
    sessions come out in (visitor, seconds, path) order.
    """
    # A gap of whole seconds exceeds the timeout exactly when it exceeds
    # the timeout's whole seconds.
    limit = timeout // _SECOND
    sessions: list[Session] = []
    for visitor in sorted(views_by_visitor):
        views = views_by_visitor[visitor]
        views.sort()
        first = 0
        last = views[0][0]
        for i, (seconds, _path) in enumerate(views):
            if seconds - last > limit:
                sessions.append(Session(visitor, tuple(views[first:i])))
                first = i
            last = seconds
        sessions.append(Session(visitor, tuple(views[first:])))
    return sessions


def overall_demand(sessions, period: AnalysisPeriod) -> DemandSeries:
    """Visits per bucket; a session counts in the bucket of its start."""
    counts = [0] * period.bucket_count
    for session in sessions:
        idx = period.bucket_index(session.views[0][0])
        if idx is not None:
            counts[idx] += 1
    starts = period.bucket_starts()
    return DemandSeries(buckets=tuple(zip(starts, counts)))


def recency(sessions, period: AnalysisPeriod) -> RecencyResult:
    """Mean over visitors of their mean gap between consecutive visit starts.

    Only sessions starting inside the period count; visitors with a single
    visit are excluded and tallied, not imputed.
    """
    starts_by_visitor: dict[str, list[int]] = {}
    for session in sessions:
        start = session.views[0][0]
        if period.bucket_index(start) is not None:
            starts_by_visitor.setdefault(session.visitor_key, []).append(start)
    gaps: list[timedelta] = []
    single = 0
    for starts in starts_by_visitor.values():
        if len(starts) < 2:
            single += 1
            continue
        # The consecutive gaps sum to the span from first to last start.
        gaps.append(timedelta(seconds=max(starts) - min(starts)) / (len(starts) - 1))
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
                          path_map: dict[str, str], period: AnalysisPeriod
                          ) -> tuple[TopicDistribution, TopicDistribution, int]:
    """Accessed-topic distributions over the period, by views and by
    unique visitors, and the count of uncatalogued views:
    ``(by_views, by_visitors, uncatalogued)``.

    Only views inside the period count. ``path_map`` joins request paths
    to catalog identifiers; views whose path or identifier has no catalog
    record are tallied as uncatalogued. Raises DomainError when nothing
    joins at all. Each distinct path is joined once.
    """
    by_id = {r.identifier: r for r in records}
    total_views: dict[str, int] = {}  # labels in order of first view
    visitors: dict[str, set[str]] = {}
    uncatalogued = 0
    labels: dict[str, str | None] = {}  # path -> label; None: uncatalogued
    first, last = period._first_s, period._last_s
    for session in sessions:
        visitor = session.visitor_key
        for seconds, path in session.views:
            if seconds < first or seconds > last:
                continue
            try:
                label = labels[path]
            except KeyError:
                identifier = path_map.get(path)
                record = by_id.get(identifier) if identifier else None
                label = labels[path] = None if record is None else record.topic
            if label is None:
                uncatalogued += 1
                continue
            count = total_views.get(label)
            if count is None:
                total_views[label] = 1
                visitors[label] = {visitor}
            else:
                total_views[label] = count + 1
                visitors[label].add(visitor)
    if not total_views:
        raise DomainError(
            f"no page view joined the catalog ({uncatalogued} uncatalogued views)"
        )
    return (TopicDistribution.from_counts(total_views),
            TopicDistribution.from_counts(
                {label: len(visitors[label]) for label in total_views}),
            uncatalogued)


@lru_cache(maxsize=None)
def _metrics_for_shape(successors: tuple[int, ...]) -> tuple[float, float]:
    """Navigability and linearity of the graph on pages 0..n-1 in which
    bit b of ``successors[a]`` marks the edge a -> b.

    Both metrics are invariant under node relabeling, so sessions sharing
    a transition shape share their metrics; the cache exploits that. One
    breadth-first search per source page runs over the successor masks:
    a level's frontier is the union of the previous frontier's successors
    less the pages already seen. K is n, which no distance reaches.
    """
    n = len(successors)
    status = [0] * n
    contrastatus = [0] * n
    reached = 0
    for source in range(n):
        seen = frontier = 1 << source
        level = 0
        out_sum = 0
        while frontier:
            pushed = 0
            while frontier:
                low = frontier & -frontier
                page = low.bit_length() - 1
                status[page] += level
                pushed |= successors[page]
                frontier ^= low
            level += 1
            frontier = pushed & ~seen
            seen |= frontier
            out_sum += level * frontier.bit_count()
        contrastatus[source] = out_sum
        reached += seen.bit_count()
    return (structure._navigability(
                n, n, float(sum(status) + (n * n - reached) * n)),
            structure._linearity(status, contrastatus))


def navigation_metrics(session: Session) -> tuple[float, float] | None:
    """(complexity, linearity) of one session, or None for a degenerate
    session (fewer than 2 distinct pages).

    Complexity is the structure-module navigability of the session's path
    graph; linearity is its stratum.
    """
    # Each view as its page's first-visit index; the shape key is each
    # page's successors as a bitmask over those indices.
    first: dict[str, int] = {}
    visits = [first.setdefault(p, len(first)) for _, p in session.views]
    n = len(first)
    if n < 2:
        return None
    successors = [0] * n
    for a, b in zip(visits, visits[1:]):
        if a != b:
            successors[a] |= 1 << b
    return _metrics_for_shape(tuple(successors))


def summarize_navigation(sessions,
                         linearity_band: float = DEFAULT_LINEARITY_BAND
                         ) -> NavigationSummary:
    """Portal-level distribution of per-session navigation metrics.

    ``high_linearity_share`` is the share of measured sessions whose
    linearity exceeds ``linearity_band`` -- tediously linear navigation.
    Each call starts with an empty shape cache.
    """
    _metrics_for_shape.cache_clear()
    complexities: list[float] = []
    linearities: list[float] = []
    skipped = 0
    for session in sessions:
        metrics = navigation_metrics(session)
        if metrics is None:
            skipped += 1
            continue
        complexity, linearity = metrics
        complexities.append(complexity)
        linearities.append(linearity)
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
