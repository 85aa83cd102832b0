"""Access-log analytics: parsing, bot filtering, sessionization, demand.

Ingests web-server access logs in NCSA Combined Log Format, splits human
from automated-agent traffic, groups page views into visits (sessions),
and computes the demand-side metrics: overall demand per time bucket,
recency (mean time between visits by the same visitor), activity level
(page views per visit), the accessed-content distributions of the whole
period (by views and by unique visitors) over the topics of linked
paths, and per-session navigation complexity/linearity derived from the
structure metrics on the session's path graph. Each returns the plain
value its one reader needs: demand is visits per bucket, recency the
diagnostics' recency block, ingest's drop counts a dict keyed as the
diagnostics print them, and the accessed distributions topic-count dicts.

:func:`read_log_lines` is the one log reader: plain or gzip files, read
in turn, and a file that cannot be read or decompressed raises
ConfigError naming it.

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

import hashlib
import re
import zlib
from collections import namedtuple
from datetime import date, datetime, timedelta, timezone
from functools import lru_cache
from math import fsum

from . import structure
from .errors import ConfigError, DomainError, FormatError
from .inputs import data_lines, delimiter
from .segmentation import _median

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
# The timestamp has the fixed CLF layout dd/Mon/yyyy:HH:MM:SS +ZZZZ in
# ASCII digits, captured in three parts: up to its minute, its seconds and
# its offset.
_COMBINED_RE = re.compile(
    r'^(\S+) \S+ (\S+) \[([0-9]{2}/[A-Z][a-z]{2}/[0-9]{4}:[0-9]{2}:[0-9]{2})'
    r':([0-9]{2}) ([+-][0-9]{4})\] "([^"]*)" (\d{3}) \S+ "[^"]*" "([^"]*)"\s*$'
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


class Session(namedtuple("Session", "visitor_key views")):
    """A visit: one visitor's page views with no gap above the timeout.

    ``views`` is a tuple of (UTC epoch seconds, request path); the length
    of a session is its number of views.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.views)


class AnalysisPeriod(namedtuple("AnalysisPeriod", "start end bucket")):
    """Half-open observation window [start, end) cut into equal buckets of
    the timedelta ``bucket``.

    The last bucket may be partial. Both bounds must be timezone-aware.
    Views are placed in buckets by their epoch seconds, against the bounds
    and bucket length held exactly in integer microseconds: ``_start_us``,
    ``_span_us`` and ``_bucket_us``, set with the first and last whole
    epoch seconds inside [start, end), ``_first_s`` and ``_last_s`` (the
    first exceeds the last when the window holds no whole second). These
    are attributes, not fields, so they take no part in equality.
    """

    def __new__(cls, start, end, bucket=timedelta(days=1)):
        if start.utcoffset() is None or end.utcoffset() is None:
            raise DomainError("period start and end must be timezone-aware")
        if start >= end:
            raise DomainError("period start must precede period end")
        if bucket <= timedelta(0):
            raise DomainError("bucket duration must be positive")
        self = super().__new__(cls, start, end, bucket)
        self._start_us = (start - _EPOCH) // _MICROSECOND
        self._span_us = (end - start) // _MICROSECOND
        self._bucket_us = bucket // _MICROSECOND
        self._first_s = -(-self._start_us // 1_000_000)
        self._last_s = -(-(self._start_us + self._span_us) // 1_000_000) - 1
        return self

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


def _clf_base(text: str) -> int:
    """UTC epoch seconds of a CLF timestamp's local midnight: the UTC
    midnight of its calendar date minus its offset east of UTC.

    ``text`` is the date and the offset of a timestamp that _COMBINED_RE
    matched, as dd/Mon/yyyy+ZZZZ (locale-independent); raises ValueError
    or KeyError on an invalid day, month, year or offset.
    """
    day = int(text[0:2])
    month = _MONTHS[text[3:6]]
    year = int(text[7:11])
    hours, minutes = int(text[12:14]), int(text[14:16])
    if hours > 23 or minutes > 59:
        raise ValueError(f"bad timezone {text[11:]!r}")
    offset = hours * 3600 + minutes * 60
    midnight = (date(year, month, day).toordinal() - _EPOCH_ORDINAL) * 86400
    return midnight - offset if text[11] == "+" else midnight + offset


def visitor_key_method(use_auth_user: bool = True) -> str:
    """Label for report metadata describing how visitors were identified."""
    if use_auth_user:
        return "auth-user-else-address-agent-hash"
    return "address-agent-hash"


def ingest(lines, *, use_auth_user: bool = True, signatures=None
           ) -> tuple[dict[str, list[tuple[int, str]]], dict[str, int]]:
    """The human page views of NCSA Combined Log Format lines, grouped by
    visitor as ``{visitor: [(UTC epoch seconds, path), ...]}`` in line
    order, and the counts of ``log_lines``, ``malformed_lines``,
    ``bot_entries`` and ``non_page_view_entries``, keyed as the
    diagnostics print them (two calls' counts merge by summing).

    Each line is counted under the first of these tests that it meets, in
    this order:

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
    # timestamp's text up to its minute and by its offset: all that the
    # parse reads but the seconds.
    memo_stamp = memo_zone = None
    memo_minute = 0
    match = _COMBINED_RE.match
    for raw in lines:
        total += 1
        m = match(raw)
        if m is None:
            malformed += 1
            continue
        host, authuser, stamp, second, zone, request, status, agent = m.groups()
        if stamp != memo_stamp or zone != memo_zone:
            hour = int(stamp[12:14])
            minute = int(stamp[15:17])
            date_key = stamp[:11] + zone
            base = bases.get(date_key)
            if base is None:
                try:
                    base = bases[date_key] = _clf_base(date_key)
                except (ValueError, KeyError):
                    malformed += 1
                    continue
            if hour > 23 or minute > 59:
                malformed += 1
                continue
            memo_stamp, memo_zone = stamp, zone
            memo_minute = base + hour * 3600 + minute * 60
        second = int(second)
        if second > 59:
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
    if total > 0 and malformed * 2 > total:
        raise FormatError(
            f"log stream is mostly unparseable: {malformed} of {total} lines malformed"
        )
    return views_by_visitor, {"log_lines": total, "malformed_lines": malformed,
                              "bot_entries": bots,
                              "non_page_view_entries": non_page_views}


def read_log_lines(paths):
    """Lines of every log file in turn; .gz files are decompressed. A file
    that cannot be read or decompressed raises ConfigError naming it."""
    for path in paths:
        opener = open
        if str(path).endswith(".gz"):
            import gzip  # loaded only when a log is compressed
            opener = gzip.open
        try:
            with opener(path, "rt", encoding="utf-8", errors="replace") as fh:
                yield from fh
        # EOFError: a truncated .gz log; zlib.error: a corrupt deflate stream.
        except (OSError, EOFError, zlib.error) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(
                f"cannot read log file {path}: {reason}") from None


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


def sessions_in(sessions, period: AnalysisPeriod) -> list[Session]:
    """The sessions that start inside the period, in order: the visits
    that recency, views per session and navigation are measured over."""
    first, last = period._first_s, period._last_s
    return [s for s in sessions if first <= s.views[0][0] <= last]


def overall_demand(sessions, period: AnalysisPeriod) -> list[int]:
    """Visits per bucket, in bucket order; a session counts in the bucket
    of its start."""
    counts = [0] * period.bucket_count
    for session in sessions:
        idx = period.bucket_index(session.views[0][0])
        if idx is not None:
            counts[idx] += 1
    return counts


def recency(sessions, period: AnalysisPeriod) -> dict:
    """The diagnostics' recency block: the mean over visitors of their mean
    gap between consecutive visit starts, in seconds, and the visitor
    counts behind it.

    Only sessions starting inside the period count; visitors with a single
    visit are excluded and tallied, not imputed. The mean is None when no
    visitor had two or more visits in the period.
    """
    starts_by_visitor: dict[str, list[int]] = {}
    for visitor, views in sessions_in(sessions, period):
        starts_by_visitor.setdefault(visitor, []).append(views[0][0])
    gaps: list[timedelta] = []
    single = 0
    for starts in starts_by_visitor.values():
        if len(starts) < 2:
            single += 1
            continue
        # The consecutive gaps sum to the span from first to last start.
        gaps.append(timedelta(seconds=max(starts) - min(starts)) / (len(starts) - 1))
    mean = None
    if gaps:
        # Averaged as timedeltas and converted last, so the mean rounds
        # to whole microseconds before it becomes a float.
        mean = (sum(gaps, timedelta()) / len(gaps)).total_seconds()
    return {
        "mean_seconds_between_visits": mean,
        "eligible_visitors": len(gaps),
        "single_visit_visitors": single,
    }


def activity_level(sessions) -> float:
    """Total page views over total visits (ratio of totals, not a mean of
    per-session means)."""
    if not sessions:
        raise DomainError("cannot compute activity level without sessions")
    return sum(len(s) for s in sessions) / len(sessions)


def accessed_distribution(sessions, topics_by_path: dict[str, str],
                          period: AnalysisPeriod
                          ) -> tuple[dict[str, int], dict[str, int], int]:
    """Accessed-topic distributions over the period, by views and by
    unique visitors, and the count of uncatalogued views:
    ``(by_views, by_visitors, uncatalogued)``, topics in first-view order.

    Only views inside the period count. ``topics_by_path`` is the catalog
    topic of each linked request path, as catalog.topics_by_path gives
    it; a view of any other path is tallied as uncatalogued. Raises
    DomainError when nothing joins at all.
    """
    total_views: dict[str, int] = {}  # labels in order of first view
    visitors: dict[str, set[str]] = {}
    uncatalogued = 0
    first, last = period._first_s, period._last_s
    for session in sessions:
        visitor = session.visitor_key
        for seconds, path in session.views:
            if seconds < first or seconds > last:
                continue
            label = topics_by_path.get(path)
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
    by_visitors = {label: len(members) for label, members in visitors.items()}
    return total_views, by_visitors, uncatalogued


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
    return (structure._navigability(n, n, status, reached),
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
                         ) -> tuple[dict, int, int]:
    """Portal-level distribution of per-session navigation metrics: the
    report's navigation section, the number of sessions measured and the
    number skipped as degenerate.

    ``high_linearity_share`` is the share of measured sessions whose
    linearity exceeds ``linearity_band`` -- tediously linear navigation.
    The means, medians and share are None when no session was measured.
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
    section = dict.fromkeys(("complexity_mean", "complexity_median",
                             "linearity_mean", "linearity_median",
                             "high_linearity_share"))
    section["linearity_band"] = linearity_band
    if complexities:
        high = sum(1 for v in linearities if v > linearity_band)
        section.update(
            complexity_mean=fsum(complexities) / len(complexities),
            complexity_median=_median(complexities),
            linearity_mean=fsum(linearities) / len(linearities),
            linearity_median=_median(linearities),
            high_linearity_share=high / len(linearities),
        )
    return section, len(complexities), skipped
