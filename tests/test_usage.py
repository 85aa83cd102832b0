"""Access-log ingest, sessionization, and the demand-side metrics."""

import gc
import gzip
import hashlib
import random
import weakref
from datetime import date, datetime, timedelta, timezone
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from portalmetrics import usage
from portalmetrics.catalog import ContentRecord
from portalmetrics.config import RunConfig
from portalmetrics.errors import DomainError, FormatError
from portalmetrics.structure import SiteGraph, organization_profile

from oracles import (
    COMBINED_RE,
    EPOCH,
    LogEntry,
    brute_sessionize,
    epoch_seconds,
    oracle_compactness,
    oracle_stratum,
    reference_bucket_index,
    reference_filter_agents,
    reference_ingest,
    reference_parse_log,
    session_path_graph,
    sessions_as_set,
    views_by_visitor,
)

UTC = timezone.utc
T0 = datetime(2026, 3, 2, tzinfo=UTC)
T0_S = epoch_seconds(T0)

GOLDEN_LINE = ('203.0.113.7 - alice [10/Oct/2000:13:55:36 -0700] '
               '"GET /apache_pb.gif HTTP/1.0" 200 2326 '
               '"http://www.example.com/start.html" '
               '"Mozilla/4.08 [en] (Win98; I ;Nav)"')


def _line(agent="PortalBrowser/1.0", path="/a", status=200,
          when="02/Mar/2026:10:00:00 +0000", host="198.51.100.9", user="-"):
    return (f'{host} - {user} [{when}] "GET {path} HTTP/1.1" {status} 10 '
            f'"-" "{agent}"')


def _ingest(lines, **options):
    tally = usage.IngestTally()
    views = usage.ingest(lines, tally, **options)
    return views, tally


def _entry(visitor="user:alice", seconds=0, path="/a"):
    """An oracle entry, for the oracles that take entries."""
    return LogEntry(visitor_key=visitor, timestamp=T0 + timedelta(seconds=seconds),
                    path=path, status=200, user_agent="PortalBrowser/1.0",
                    referrer="")


def _views(rows):
    """(visitor, seconds after T0, path) rows as ``sessionize`` takes them."""
    grouped: dict = {}
    for visitor, seconds, path in rows:
        grouped.setdefault(visitor, []).append((T0_S + seconds, path))
    return grouped


def _session(paths, visitor="user:alice", start=0, step=60):
    views = tuple((T0_S + start + i * step, p) for i, p in enumerate(paths))
    return usage.Session(visitor_key=visitor, views=views)


# Timestamp fields (day, month, year, hour, minute, second, offset,
# separator): plausible values, among them days past the month's end
# (29/Feb only in leap years) and years at the ends of the datetime
# range, where the UTC instant itself can overflow; then one field at
# most is replaced by an odd value such as hour 24, minute 60, second
# 60, a bad month or offset, or a signed or padded number.
_PLAUSIBLE_FIELDS = (
    ["01", "09", "28", "29", "30", "31"],
    ["Jan", "Feb", "Apr", "Dec"],
    ["2024", "2026", "2000", "1900", "0001", "9999"],
    ["00", "13", "23"],
    ["00", "30", "59"],
    ["00", "36", "59"],
    [" +0000", " +0530", " -0700", " +1400", " -2359", " -0030"],
    [":"],
)
_ODD_FIELDS = (
    ["00", "32", " 7", "-1", "1_"],
    ["feb", "Xyz"],
    ["0000", "20a6"],
    ["24", "-1", " 5", "+1"],
    ["60", "-0"],
    ["60", "5 "],
    [" +2400", " 0000", " +05:30", " +ab00", "  +0100 ", "", " +01000"],
    ["/", "-", "x"],
)


def _clf_timestamp(fields, odd):
    if odd is not None:
        index, value = odd
        fields = fields[:index] + (value,) + fields[index + 1:]
    day, month, year, hour, minute, second, offset, sep = fields
    return f"{day}/{month}/{year}{sep}{hour}:{minute}{sep}{second}{offset}"


_CLF_TIMESTAMPS = st.builds(
    _clf_timestamp,
    st.tuples(*(st.sampled_from(v) for v in _PLAUSIBLE_FIELDS)),
    st.one_of(st.none(), st.one_of(*(st.tuples(st.just(i), st.sampled_from(v))
                                     for i, v in enumerate(_ODD_FIELDS)))),
)


def _log_line(host, user, when, request, status, referrer, agent, junk):
    if junk is not None:
        return junk
    return (f'{host} - {user} [{when}] "{request}" {status} 10 '
            f'"{referrer}" "{agent}"')


# Few hosts, users and agents, so (host, agent) pairs and dates repeat;
# about one line in eight fails the line pattern.
_LOG_LINES = st.builds(
    _log_line,
    st.sampled_from(["198.51.100.9", "203.0.113.7", "::1"]),
    st.sampled_from(["-", "alice", "bob"]),
    _CLF_TIMESTAMPS,
    st.sampled_from(["GET /a HTTP/1.1", "GET /b", "POST  /c", "GET /a",
                     "HEAD /b?q=1 HTTP/1.1", "GET /c", "-", "GET  HTTP/1.0",
                     "GET /robots.txt"]),
    st.sampled_from(["200", "302", "404"]),
    st.sampled_from(["-", "http://ref.example/"]),
    st.sampled_from(["AgentX/1.0", "ExampleBot/2.1", "Mozilla/5.0 (X11)"]),
    st.sampled_from([None] * 7 + ["garbage"]),
)


def _low_repetition_lines(rows):
    # A new agent on every line, so every anonymous visitor and every bot
    # verdict is new; some agents are bots by signature.
    return [_line(agent=f"Agent{i}/{'bot' if bot else 'web'}", path=path,
                  status=status, host=host, user=user,
                  when=f"{day:02d}/{month}/{year:04d}:{hour:02d}:{minute:02d}:"
                       f"{second:02d} {offset}")
            for i, (year, month, day, hour, minute, second, offset, path,
                    status, host, user, bot) in enumerate(rows)]


# Dates decades apart over the whole datetime range, so nearly every line
# has a date and offset of its own.
_LOW_REPETITION_ROWS = st.lists(st.tuples(
    st.integers(min_value=0, max_value=999).map(lambda d: 1 + 10 * d),
    st.sampled_from(["Jan", "Feb", "Jun", "Dec"]),
    st.integers(min_value=1, max_value=28),
    st.integers(min_value=0, max_value=23),
    st.integers(min_value=0, max_value=59),
    st.integers(min_value=0, max_value=59),
    st.sampled_from(["+0000", "-2359", "+1400", "-0700", "+0530"]),
    st.sampled_from(["/a", "/b", "/robots.txt"]),
    st.sampled_from([200, 304, 404]),
    st.sampled_from(["198.51.100.9", "203.0.113.7"]),
    st.sampled_from(["-", "-", "alice"]),
    st.booleans()), max_size=30)


# Well-formed lines (and one with a short status), and single insertions
# or deletions of the characters where the line pattern is hard to mirror:
# quotes, brackets, Unicode whitespace (which \S and \s read) and a
# non-ASCII digit (which \d reads).
_GOOD_LOG_LINES = st.builds(
    _log_line,
    st.sampled_from(["198.51.100.9", "::1", "h"]),
    st.sampled_from(["-", "alice"]),
    st.sampled_from(["02/Mar/2026:10:00:00 +0000",
                     "10/Oct/2000:13:55:36 -0700"]),
    st.sampled_from(["GET /a HTTP/1.1", "GET /b", "-", ""]),
    # A status one digit short: inserting a non-ASCII digit completes it.
    st.sampled_from(["200", "404", "20"]),
    st.sampled_from(["-", "http://ref.example/", ""]),
    st.sampled_from(["AgentX/1.0", "Mozilla/5.0 (X11)", ""]),
    st.none(),
) | st.just(GOLDEN_LINE)
_MUTATION_CHARS = '"[] \t\x0b\xa0\u2028\u0663'


@st.composite
def _mutated_lines(draw):
    line = draw(_GOOD_LOG_LINES)
    deletable = [i for i, ch in enumerate(line) if ch in _MUTATION_CHARS]
    if deletable and draw(st.booleans()):
        i = draw(st.sampled_from(deletable))
        return line[:i] + line[i + 1:]
    i = draw(st.integers(min_value=0, max_value=len(line)))
    return line[:i] + draw(st.sampled_from(_MUTATION_CHARS)) + line[i:]


# Runs of timestamps within a minute, each one field or one character
# away from the last: the cases where a memo of the last resolved minute
# could hand a line the wrong instant.
_MINUTE_STARTS = ("02/Mar/2026:10:59:07 +0000", "31/Dec/9999:23:59:00 -0100",
                  "01/Jan/0001:00:30:00 +0100", "29/Feb/2024:23:59:59 -2359")
_BAD_SECONDS = ("60", "99", "6", "-1", " 5", "5 ", "+1", "1_", "\u0663\u0664",
                "\u0663")


@st.composite
def _minute_runs(draw):
    current = draw(st.sampled_from(_MINUTE_STARTS))
    whens = [current]
    for _ in range(draw(st.integers(min_value=1, max_value=16))):
        kind = draw(st.sampled_from(
            ["second", "second", "bad-second", "date", "offset", "time",
             "separator", "alternate", "cut"]))
        seconds = draw(st.sampled_from(["00", "01", "30", "59"]))
        if kind == "second":
            current = current[:18] + seconds + current[20:]
        elif kind == "bad-second":
            # Right after a good line of the same minute.
            whens.append(current[:18] + draw(st.sampled_from(_BAD_SECONDS))
                         + current[20:])
        elif kind == "date":
            i = draw(st.sampled_from([0, 1, 3, 4, 5, 7, 8, 9, 10]))
            current = (current[:i] + draw(st.sampled_from("0129JFMDaecn"))
                       + current[i + 1:])
        elif kind == "offset":
            current = current[:21] + draw(st.sampled_from(
                ["+0000", "+0001", "-0000", "+1400", "+05:30", "+0100 "]))
        elif kind == "time":
            i = draw(st.sampled_from([12, 13, 15, 16]))
            current = (current[:i] + draw(st.sampled_from("01259"))
                       + current[i + 1:])
        elif kind == "separator":
            i = draw(st.sampled_from([11, 14, 17, 20]))
            current = (current[:i] + draw(st.sampled_from(": /x"))
                       + current[i + 1:])
        elif kind == "alternate":
            other = draw(st.sampled_from(["+0000", "-0700", "+0530"]))
            for s in ("10", "11", "12", "13"):
                whens.append(current[:18] + s + current[20:])
                whens.append(current[:18] + s + " " + other)
        else:
            whens.append(current[:draw(st.integers(min_value=15,
                                                   max_value=22))])
        whens.append(current)
    return whens


@st.composite
def _successor_masks(draw):
    """Shapes of 2 to 40 pages, from edgeless to dense: bit b of mask a
    marks the edge a -> b."""
    n = draw(st.integers(min_value=2, max_value=40))
    density = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    return tuple(sum(1 << b for b in range(n)
                     if b != a and rng.random() < density)
                 for a in range(n))


def _assert_matches_oracle(lines, use_auth_user=True, signatures=None):
    timeout = usage.DEFAULT_SESSION_TIMEOUT
    try:
        expected, counts = reference_ingest(lines, timeout, use_auth_user,
                                            signatures)
    except FormatError as exc:
        tally = usage.IngestTally()
        with pytest.raises(FormatError) as ours:
            usage.ingest(lines, tally, use_auth_user=use_auth_user,
                         signatures=signatures)
        assert str(ours.value) == str(exc)
        return
    views, tally = _ingest(lines, use_auth_user=use_auth_user,
                           signatures=signatures)
    sessions = usage.sessionize(views, timeout)
    assert sessions_as_set(sessions) == expected
    assert len(sessions) == len(expected)
    assert vars(tally) == counts


class TestParseLog:
    def test_golden_line(self):
        views, tally = _ingest([GOLDEN_LINE])
        assert tally.malformed == 0
        # -0700 offset normalizes to UTC
        stamp = epoch_seconds(datetime(2000, 10, 10, 20, 55, 36, tzinfo=UTC))
        assert views == {"user:alice": [(stamp, "/apache_pb.gif")]}
        assert vars(tally) == {"total_lines": 1, "malformed": 0,
                               "bot_entries": 0, "non_page_view_entries": 0}

    def test_anonymous_visitor_hash(self):
        line = ('198.51.100.9 - - [02/Mar/2026:10:00:00 +0000] '
                '"GET /a HTTP/1.1" 200 10 "-" "AgentX/1.0"')
        views, _ = _ingest([line])
        digest = hashlib.sha1(b"198.51.100.9|AgentX/1.0").hexdigest()[:16]
        assert list(views) == [f"anon:{digest}"]

    def test_auth_user_can_be_disabled(self):
        views, _ = _ingest([GOLDEN_LINE], use_auth_user=False)
        (visitor,) = views
        assert visitor.startswith("anon:")

    def test_same_host_agent_same_anonymous_key(self):
        line_a = ('198.51.100.9 - - [02/Mar/2026:10:00:00 +0000] '
                  '"GET /a HTTP/1.1" 200 10 "-" "AgentX/1.0"')
        line_b = ('198.51.100.9 - - [02/Mar/2026:11:00:00 +0000] '
                  '"GET /b HTTP/1.1" 200 10 "-" "AgentX/1.0"')
        views, _ = _ingest([line_a, line_b])
        assert [[p for _, p in v] for v in views.values()] == [["/a", "/b"]]

    def test_positive_offset_timestamp(self):
        line = ('198.51.100.9 - - [02/Mar/2026:10:30:00 +0530] '
                '"GET /a HTTP/1.1" 200 10 "-" "AgentX/1.0"')
        views, _ = _ingest([line])
        [[(seconds, _path)]] = views.values()
        assert seconds == epoch_seconds(datetime(2026, 3, 2, 5, 0, tzinfo=UTC))

    def test_error_status_kept_but_not_page_view(self):
        line = ('198.51.100.9 - - [02/Mar/2026:10:00:00 +0000] '
                '"GET /missing HTTP/1.1" 404 10 "-" "AgentX/1.0"')
        views, tally = _ingest([line])
        assert views == {}
        assert (tally.malformed, tally.non_page_view_entries) == (0, 1)

    def test_redirect_is_page_view(self):
        views, tally = _ingest([_line(status=302, path="/moved"),
                                _line(status=500, path="/broken")])
        assert [[p for _, p in v] for v in views.values()] == [["/moved"]]
        assert tally.non_page_view_entries == 1

    def test_malformed_lines_tallied(self):
        lines = [GOLDEN_LINE, "garbage", GOLDEN_LINE]
        views, tally = _ingest(lines)
        assert tally.malformed == 1
        assert tally.total_lines == 3
        assert len(views["user:alice"]) == 2

    def test_bad_month_abbreviation_is_malformed(self):
        line = ('198.51.100.9 - - [02/Foo/2026:10:00:00 +0000] '
                '"GET /a HTTP/1.1" 200 10 "-" "AgentX/1.0"')
        assert _ingest([line, GOLDEN_LINE])[1].malformed == 1

    def test_majority_malformed_is_fatal(self):
        lines = [GOLDEN_LINE, "junk1", "junk2"]
        with pytest.raises(FormatError):
            _ingest(lines)

    def test_exactly_half_malformed_is_tolerated(self):
        _, tally = _ingest([GOLDEN_LINE, "junk"])
        assert tally.malformed == 1

    def test_empty_stream(self):
        views, tally = _ingest([])
        assert views == {}
        assert tally.total_lines == 0

    def test_request_without_path_is_malformed(self):
        line = ('198.51.100.9 - - [02/Mar/2026:10:00:00 +0000] '
                '"-" 408 10 "-" "AgentX/1.0"')
        assert _ingest([line, GOLDEN_LINE])[1].malformed == 1

    @pytest.mark.parametrize("when", ["01/Jan/0001:00:30:00 +0100",
                                      "31/Dec/9999:23:00:00 -0100"])
    def test_instant_outside_datetime_range_is_malformed(self, when):
        line = f'h - - [{when}] "GET /a" 200 1 "-" "A"'
        views, tally = _ingest([line, GOLDEN_LINE])
        assert tally.malformed == 1
        assert [p for v in views.values() for _, p in v] == ["/apache_pb.gif"]

    def test_lines_are_not_held(self):
        class Line(str):
            """A line that a weak reference can follow."""

        read: list = []

        def lines():
            for i in range(6):
                # By the time a line is asked for, the one read two
                # lines earlier has been dropped.
                gc.collect()
                if i >= 2:
                    assert read[i - 2]() is None
                line = Line(_line(path=f"/p{i}"))
                read.append(weakref.ref(line))
                yield line
                del line
        views, _ = _ingest(lines())
        assert [[p for _, p in v] for v in views.values()] == \
            [[f"/p{i}" for i in range(6)]]

    def test_mostly_unparseable_stream_fails_at_its_end(self):
        read = []

        def lines():
            for line in (GOLDEN_LINE, "junk1", "junk2"):
                read.append(line)
                yield line
        tally = usage.IngestTally()
        with pytest.raises(FormatError, match="2 of 3 lines malformed"):
            usage.ingest(lines(), tally)
        assert len(read) == 3
        assert (tally.total_lines, tally.malformed) == (3, 2)

    def test_views_of_one_path_share_its_string(self):
        views, _ = _ingest([GOLDEN_LINE, GOLDEN_LINE])
        (first, path_a), (second, path_b) = views["user:alice"]
        assert path_a == "/apache_pb.gif"
        assert path_a is path_b

    @given(st.lists(_LOG_LINES, max_size=30), st.booleans(), st.booleans())
    @settings(max_examples=300)
    # Instants next to the ends of the datetime range: the first is in
    # range only after the offset is applied; the others are out of range
    # in UTC, so both parsers count them as malformed.
    @example([f'h - - [{ts}] "GET /a" 200 1 "-" "A"'
              for ts in ("01/Jan/0001:01:30:00 +0100",
                         "31/Dec/9999:22:59:59 -0100")], True, True)
    @example(['h - - [01/Jan/0001:00:30:00 +0100] "GET /a" 200 1 "-" "A"'], True, True)
    @example(['h - - [31/Dec/9999:23:00:00 -0100] "GET /a" 200 1 "-" "A"'], True, True)
    # Both ends again, unpadded: one malformed line of one is fatal.
    @example(['h - - [01/Jan/0001:00:30:00 +0100] "GET /a" 200 1 "-" "A"',
              'h - - [31/Dec/9999:23:00:00 -0100] "GET /a" 200 1 "-" "A"'],
             False, False)
    # A seconds field of 60 (no leap seconds), and the widest offset
    # next to one digit too many.
    @example(['h - - [02/Mar/2026:10:00:60 +0000] "GET /a" 200 1 "-" "A"'], True, True)
    @example([f'h - {user} [01/Jan/2026:00:00:00 {offset}] "GET /a" 200 1 "-" "A"'
              for user in ("-", "u") for offset in ("-2359", "+01000")],
             True, False)
    def test_matches_reference_parser(self, lines, use_auth_user, pad):
        # As many well-formed lines again keep the malformed share at or
        # below one half, so that the sessions are compared; unpadded,
        # some inputs fail as a whole, and the error text is compared.
        if pad:
            lines = lines + [GOLDEN_LINE] * len(lines)
        _assert_matches_oracle(lines, use_auth_user)

    @given(_LOW_REPETITION_ROWS, st.booleans(),
           st.sampled_from([None, ("agent1/",)]))
    @settings(max_examples=150)
    def test_low_repetition_matches_reference(self, rows, use_auth_user,
                                              signatures):
        _assert_matches_oracle(_low_repetition_lines(rows), use_auth_user,
                               signatures)


    @given(_mutated_lines())
    @settings(max_examples=500)
    def test_pattern_accepts_what_the_oracle_accepts(self, line):
        ours = usage._COMBINED_RE.match(line)
        reference = COMBINED_RE.match(line)
        assert (ours is None) == (reference is None)
        if reference is not None:
            assert ours.groups() == itemgetter(0, 2, 3, 4, 5, 8)(
                reference.groups())

    @given(_minute_runs(), st.booleans())
    @settings(max_examples=300)
    def test_minute_memo_matches_reference(self, whens, pad):
        lines = [_line(when=when, path=f"/p{i % 3}")
                 for i, when in enumerate(whens)]
        if pad:
            lines += [GOLDEN_LINE] * len(lines)
        _assert_matches_oracle(lines)


class TestAgentFiltering:
    def _kept(self, views):
        return [p for v in views.values() for _, p in v]

    def test_default_signatures_catch_common_bots(self):
        lines = [_line("Mozilla/5.0 PortalBrowser/1.0"),
                 _line("ExampleBot/2.1 (+https://bots.example/info)"),
                 _line("some-crawler/3.0"),
                 _line("curl/8.0")]
        views, tally = _ingest(lines)
        assert len(self._kept(views)) == 1
        assert tally.bot_entries == 3

    def test_robots_path_flags_any_agent(self):
        views, tally = _ingest([_line("Mozilla/5.0 PortalBrowser/1.0",
                                      path="/robots.txt")])
        assert views == {}
        assert tally.bot_entries == 1

    def test_custom_signatures_replace_defaults(self):
        lines = [_line("ExampleBot/2.1", path="/kept"),
                 _line("WeirdAgent/1.0", path="/dropped")]
        views, tally = _ingest(lines, signatures=("weirdagent",))
        assert self._kept(views) == ["/kept"]
        assert tally.bot_entries == 1

    def test_matching_is_case_insensitive(self):
        views, tally = _ingest([_line("EXAMPLEBOT/2.1")],
                               signatures=("ExampleBot",))
        assert tally.bot_entries == 1
        assert views == {}

    def test_robots_fetch_does_not_mark_the_agent(self):
        # The signature verdict is shared by every line of an agent; the
        # robots-exclusion test is not.
        lines = [_line("Mozilla/5.0 PortalBrowser/1.0", path="/robots.txt"),
                 _line("Mozilla/5.0 PortalBrowser/1.0", path="/a")]
        views, tally = _ingest(lines)
        assert self._kept(views) == ["/a"]
        assert tally.bot_entries == 1

    def test_kept_views_match_the_oracle_filter(self):
        lines = [_line("Mozilla/5.0"), _line("ExampleBot/2.1"),
                 _line("Mozilla/5.0", path="/robots.txt"),
                 _line("Mozilla/5.0", path="/gone", status=404),
                 _line("Mozilla/5.0", path="/b")]
        views, tally = _ingest(lines)
        humans, bots = reference_filter_agents(reference_parse_log(lines).entries)
        assert self._kept(views) == [e.path for e in humans if e.is_page_view]
        assert self._kept(views) == ["/a", "/b"]
        assert (tally.bot_entries, tally.non_page_view_entries) == (len(bots), 1)
        assert len(bots) == 2

    def test_partition_is_exhaustive_and_disjoint(self):
        lines = [_line(a, status=s) for a in
                 ("x", "boty", "spider z", "Mozilla", "wget/1.2")
                 for s in (200, 404)]
        views, tally = _ingest(lines + ["junk"])
        kept = sum(len(v) for v in views.values())
        assert (kept, tally.bot_entries, tally.non_page_view_entries,
                tally.malformed) == (2, 6, 2, 1)
        assert kept + tally.bot_entries + tally.non_page_view_entries \
            + tally.malformed == tally.total_lines


class TestSessionize:
    def test_gap_equal_to_timeout_keeps_session(self):
        views = _views([("user:alice", 0, "/a"), ("user:alice", 1800, "/b")])
        sessions = usage.sessionize(views, timeout=timedelta(minutes=30))
        assert len(sessions) == 1
        assert len(sessions[0]) == 2

    def test_gap_one_second_over_timeout_splits(self):
        views = _views([("user:alice", 0, "/a"), ("user:alice", 1801, "/b")])
        sessions = usage.sessionize(views, timeout=timedelta(minutes=30))
        assert len(sessions) == 2

    @pytest.mark.parametrize("minutes", [0.5, 0.5001])
    def test_fractional_timeout_splits_past_its_whole_seconds(self, minutes):
        # 0.5001 minutes is 30.006 s: a gap of 30 s stays, 31 s splits.
        timeout = RunConfig(session_timeout_minutes=minutes).session_timeout()
        for gap, count in ((30, 1), (31, 2)):
            views = _views([("user:a", 0, "/a"), ("user:a", gap, "/b")])
            assert len(usage.sessionize(views, timeout)) == count
            entries = [_entry("user:a", 0, "/a"), _entry("user:a", gap, "/b")]
            assert len(brute_sessionize(entries, timeout)) == count

    def test_visitors_never_share_a_session(self):
        sessions = usage.sessionize(_views([("user:a", 0, "/a"),
                                            ("user:b", 0, "/a")]))
        assert len(sessions) == 2
        assert {s.visitor_key for s in sessions} == {"user:a", "user:b"}

    def test_input_order_does_not_matter(self):
        rows = [("user:alice", s, f"/p{s}") for s in (0, 60, 4000, 4060)]
        forward = usage.sessionize(_views(rows))
        backward = usage.sessionize(_views(list(reversed(rows))))
        assert forward == backward

    def test_interleaved_visitors_with_equal_timestamps(self):
        rows = [("user:b", 0, "/b"), ("user:a", 0, "/b"), ("user:a", 0, "/a"),
                ("user:b", 0, "/a"), ("user:a", 4000, "/c"),
                ("user:b", 1800, "/c"), ("user:a", 4000, "/c")]
        sessions = usage.sessionize(_views(rows))
        entries = [_entry(v, s, p) for v, s, p in rows]
        assert sessions_as_set(sessions) == brute_sessionize(
            entries, usage.DEFAULT_SESSION_TIMEOUT)
        assert [(s.visitor_key, [p for _, p in s.views]) for s in sessions] == [
            ("user:a", ["/a", "/b"]), ("user:a", ["/c", "/c"]),
            ("user:b", ["/a", "/b", "/c"])]

    def test_every_entry_lands_in_exactly_one_session(self):
        rows = [("user:alice", s, "/a") for s in (0, 10, 7200, 7300)]
        sessions = usage.sessionize(_views(rows))
        assert sum(len(s) for s in sessions) == len(rows)

    @given(st.lists(
        st.tuples(st.sampled_from(["user:a", "user:b", "anon:1"]),
                  st.integers(min_value=0, max_value=12_000),
                  st.sampled_from(["/a", "/b", "/c"])),
        max_size=40),
        st.integers(min_value=1, max_value=3600))
    def test_matches_brute_force_oracle(self, rows, timeout_seconds):
        entries = [_entry(v, s, p) for v, s, p in rows]
        timeout = timedelta(seconds=timeout_seconds)
        ours = usage.sessionize(views_by_visitor(entries), timeout=timeout)
        assert sessions_as_set(ours) == brute_sessionize(entries, timeout)
        assert sum(len(s) for s in ours) == len(entries)
        for session in ours:
            gaps = [b - a for (a, _), (b, _) in zip(session.views,
                                                    session.views[1:])]
            assert all(g <= timeout_seconds for g in gaps)
            assert all(g >= 0 for g in gaps)


class TestAnalysisPeriod:
    def test_whole_buckets(self):
        period = usage.AnalysisPeriod(start=T0, end=T0 + timedelta(days=3))
        assert period.bucket_count == 3
        assert period.bucket_starts() == [T0 + timedelta(days=i)
                                          for i in range(3)]

    def test_partial_last_bucket_counts(self):
        period = usage.AnalysisPeriod(start=T0,
                                      end=T0 + timedelta(days=2, hours=12))
        assert period.bucket_count == 3

    def test_bucket_index_is_half_open(self):
        period = usage.AnalysisPeriod(start=T0, end=T0 + timedelta(days=3))
        assert period.bucket_index(T0_S) == 0
        assert period.bucket_index(T0_S + 86_400) == 1
        assert period.bucket_index(T0_S + 3 * 86_400) is None
        assert period.bucket_index(T0_S - 1) is None

    def test_degenerate_periods_rejected(self):
        with pytest.raises(DomainError):
            usage.AnalysisPeriod(start=T0, end=T0)
        with pytest.raises(DomainError):
            usage.AnalysisPeriod(start=T0, end=T0 + timedelta(days=1),
                                 bucket=timedelta(0))

    def test_naive_bounds_rejected(self):
        naive = datetime(2026, 3, 2)
        with pytest.raises(DomainError, match="timezone-aware"):
            usage.AnalysisPeriod(start=naive, end=naive + timedelta(days=1))

    @given(st.integers(min_value=-10**9, max_value=10**9),
           st.integers(min_value=0, max_value=999_999),
           st.sampled_from([0.3, 1.0, 0.25, 1 / 3, 2.5, 1e-5, 7.000001]),
           st.integers(min_value=1, max_value=4_000_000),
           st.lists(st.integers(min_value=-3, max_value=3), max_size=8))
    @settings(max_examples=300)
    @example(0, 500_000, 0.3, 3 * 86_400, [0, 1, -1])
    def test_bucket_index_matches_datetime_rule(self, start_s, start_us,
                                                bucket_days, span_s, nudges):
        start = EPOCH + timedelta(seconds=start_s, microseconds=start_us)
        end = start + timedelta(seconds=span_s)
        bucket = timedelta(days=bucket_days)
        period = usage.AnalysisPeriod(start=start, end=end, bucket=bucket)
        span = end - start
        count = span // bucket
        assert period.bucket_count == count + (count * bucket < span)
        # Whole seconds at and around both ends and every bucket edge.
        edges = [start + i * bucket for i in range(min(count, 50) + 1)] + [end]
        for edge in edges:
            for nudge in [0, 1, -1, *nudges]:
                seconds = epoch_seconds(edge) + nudge
                assert period.bucket_index(seconds) == reference_bucket_index(
                    period, EPOCH + timedelta(seconds=seconds))


class TestOverallDemand:
    def test_counts_by_session_start(self):
        period = usage.AnalysisPeriod(start=T0, end=T0 + timedelta(days=3))
        sessions = [
            _session(["/a", "/b"], start=0),
            _session(["/a"], start=3600, visitor="user:b"),
            _session(["/a"], start=86_400 + 60, visitor="user:c"),
        ]
        series = usage.overall_demand(sessions, period)
        assert series.counts() == [2, 1, 0]
        assert series.total == 3

    def test_sessions_outside_period_ignored(self):
        period = usage.AnalysisPeriod(start=T0, end=T0 + timedelta(days=1))
        sessions = [_session(["/a"], start=-60),
                    _session(["/a"], start=90_000)]
        assert usage.overall_demand(sessions, period).counts() == [0]

    def test_spanning_session_counts_once_at_its_start(self):
        period = usage.AnalysisPeriod(start=T0, end=T0 + timedelta(days=2))
        late = 86_400 - 60  # starts near the end of bucket 0
        sessions = [_session(["/a", "/b", "/c"], start=late, step=90)]
        assert usage.overall_demand(sessions, period).counts() == [1, 0]


class TestRecency:
    PERIOD = usage.AnalysisPeriod(start=T0, end=T0 + timedelta(days=10))

    def test_mean_of_per_visitor_means(self):
        day = 86_400
        sessions = [
            _session(["/a"], visitor="user:a", start=0),
            _session(["/a"], visitor="user:a", start=day),
            _session(["/a"], visitor="user:b", start=0),
            _session(["/a"], visitor="user:b", start=3 * day),
        ]
        result = usage.recency(sessions, self.PERIOD)
        # per-visitor means 1d and 3d -> overall 2d
        assert result.mean_between_visits == timedelta(days=2)
        assert result.eligible_visitors == 2
        assert result.single_visit_visitors == 0

    def test_single_visit_visitors_tallied_not_imputed(self):
        sessions = [
            _session(["/a"], visitor="user:a", start=0),
            _session(["/a"], visitor="user:a", start=86_400),
            _session(["/a"], visitor="user:b", start=0),
        ]
        result = usage.recency(sessions, self.PERIOD)
        assert result.mean_between_visits == timedelta(days=1)
        assert result.single_visit_visitors == 1

    def test_undefined_when_no_returning_visitor(self):
        sessions = [_session(["/a"], visitor="user:a", start=0)]
        result = usage.recency(sessions, self.PERIOD)
        assert result.mean_between_visits is None

    def test_sessions_outside_period_excluded(self):
        day = 86_400
        sessions = [
            _session(["/a"], visitor="user:a", start=0),
            _session(["/a"], visitor="user:a", start=2 * day),
            _session(["/a"], visitor="user:a", start=30 * day),  # outside
        ]
        result = usage.recency(sessions, self.PERIOD)
        assert result.mean_between_visits == timedelta(days=2)

    @given(st.lists(st.lists(st.integers(min_value=0, max_value=10 * 86_400 - 1),
                             min_size=1, max_size=6), max_size=6))
    def test_equals_the_mean_of_summed_gaps(self, starts_per_visitor):
        sessions = [_session(["/a"], visitor=f"user:{v}", start=s)
                    for v, starts in enumerate(starts_per_visitor)
                    for s in starts]
        # The rule as sums of timedeltas between consecutive starts.
        gaps = []
        for starts in starts_per_visitor:
            instants = sorted(T0 + timedelta(seconds=s) for s in starts)
            deltas = [b - a for a, b in zip(instants, instants[1:])]
            if deltas:
                gaps.append(sum(deltas, timedelta()) / len(deltas))
        result = usage.recency(sessions, self.PERIOD)
        assert result.mean_between_visits == (
            sum(gaps, timedelta()) / len(gaps) if gaps else None)
        assert result.eligible_visitors == len(gaps)


class TestActivityLevel:
    def test_ratio_of_totals(self):
        sessions = [_session(["/a", "/b"]),
                    _session(["/a", "/b", "/c", "/d"], visitor="user:b")]
        assert usage.activity_level(sessions) == 3.0

    def test_no_sessions_rejected(self):
        with pytest.raises(DomainError):
            usage.activity_level([])


class TestAccessedDistribution:
    PERIOD = usage.AnalysisPeriod(start=T0, end=T0 + timedelta(days=2))
    RECORDS = [
        ContentRecord(identifier="c1", resource_type="text", topic="algebra",
                      published=date(2026, 1, 1), portal_id="p"),
        ContentRecord(identifier="c2", resource_type="video", topic="biology",
                      published=date(2026, 1, 1), portal_id="p"),
    ]
    PATH_MAP = {"/a": "c1", "/b": "c2"}

    def test_views_and_visitors_axes(self):
        sessions = [
            _session(["/a", "/a", "/b"], visitor="user:x"),
            _session(["/a"], visitor="user:y"),
        ]
        by_views, by_visitors, uncatalogued = usage.accessed_distribution(
            sessions, self.RECORDS, self.PATH_MAP, self.PERIOD)
        assert by_views.counts == {"algebra": 3, "biology": 1}
        # user:x viewed /a twice but counts once per topic
        assert by_visitors.counts == {"algebra": 2, "biology": 1}
        assert uncatalogued == 0

    def test_visitor_counts_once_in_total_across_buckets(self):
        sessions = [
            _session(["/a", "/b"], visitor="user:x", start=0),
            _session(["/a"], visitor="user:x", start=86_400 + 10),
            _session(["/a"], visitor="user:y", start=86_400 + 20),
        ]
        _, by_visitors, _ = usage.accessed_distribution(
            sessions, self.RECORDS, self.PATH_MAP, self.PERIOD)
        assert by_visitors.counts == {"algebra": 2, "biology": 1}

    def test_unsorted_views_across_a_bucket_edge(self):
        # The last bucket is cut short by the period's end at 36 h.
        period = usage.AnalysisPeriod(start=T0, end=T0 + timedelta(hours=36))
        hour = 3600
        views = ((T0_S + 24 * hour + 5, "/a"),
                 (T0_S + 24 * hour - 5, "/b"),
                 (T0_S + 24 * hour, "/a"),
                 (T0_S + 36 * hour, "/a"),      # past the end
                 (T0_S + 24 * hour - 1, "/a"),
                 (T0_S - 1, "/b"))              # before the start
        sessions = [usage.Session(visitor_key="user:x", views=views)]
        by_views, _, _ = usage.accessed_distribution(
            sessions, self.RECORDS, self.PATH_MAP, period)
        assert by_views.counts == {"algebra": 3, "biology": 1}

    @pytest.mark.parametrize("start_us,end_us", [
        (0, 600_000_000), (250_000, 600_000_000), (0, 600_750_000),
        (999_999, 600_000_001), (250_000, 750_000), (0, 1)])
    def test_sub_second_period_bounds_match_bucket_index(self, start_us,
                                                         end_us):
        # Views at the whole seconds around both bounds count exactly when
        # bucket_index places them; (250_000, 750_000) holds no whole second.
        period = usage.AnalysisPeriod(
            start=T0 + timedelta(microseconds=start_us),
            end=T0 + timedelta(microseconds=end_us),
            bucket=timedelta(minutes=7))
        end_s = T0_S + end_us // 1_000_000
        for seconds in (T0_S - 1, T0_S, T0_S + 1, end_s - 1, end_s, end_s + 1):
            sessions = [usage.Session(visitor_key="user:x",
                                      views=((seconds, "/a"),))]
            if period.bucket_index(seconds) is None:
                with pytest.raises(DomainError):
                    usage.accessed_distribution(sessions, self.RECORDS,
                                                self.PATH_MAP, period)
            else:
                by_views, _, _ = usage.accessed_distribution(
                    sessions, self.RECORDS, self.PATH_MAP, period)
                assert by_views.counts == {"algebra": 1}

    def test_unmapped_views_tallied(self):
        sessions = [_session(["/a", "/nope"], visitor="user:x")]
        _, _, uncatalogued = usage.accessed_distribution(
            sessions, self.RECORDS, self.PATH_MAP, self.PERIOD)
        assert uncatalogued == 1

    def test_mapped_but_uncatalogued_identifier_tallied(self):
        sessions = [_session(["/a", "/ghost"], visitor="user:x")]
        path_map = dict(self.PATH_MAP, **{"/ghost": "no-such-id"})
        _, _, uncatalogued = usage.accessed_distribution(
            sessions, self.RECORDS, path_map, self.PERIOD)
        assert uncatalogued == 1

    def test_zero_joins_rejected(self):
        sessions = [_session(["/zzz"], visitor="user:x")]
        with pytest.raises(DomainError):
            usage.accessed_distribution(
                sessions, self.RECORDS, self.PATH_MAP, self.PERIOD)


class TestNavigationMetrics:
    def test_chain_session(self):
        metrics = usage.navigation_metrics(_session(["/a", "/b", "/c"]))
        assert metrics is not None
        complexity, linearity = metrics
        # 3-node directed chain: compactness 5/12, stratum 1
        assert complexity == pytest.approx(5 / 12, abs=1e-12)
        assert linearity == pytest.approx(1.0, abs=1e-12)

    def test_reloads_do_not_create_self_loops(self):
        plain = usage.navigation_metrics(_session(["/a", "/b", "/c"]))
        reloaded = usage.navigation_metrics(
            _session(["/a", "/a", "/b", "/b", "/c"]))
        assert reloaded == plain

    def test_single_page_session_degenerate(self):
        assert usage.navigation_metrics(_session(["/a", "/a", "/a"])) is None

    def test_back_and_forth_is_symmetric(self):
        _, linearity = usage.navigation_metrics(
            _session(["/a", "/b", "/a", "/b"]))
        assert linearity == pytest.approx(0.0, abs=1e-12)

    def test_metrics_depend_only_on_shape(self):
        a = usage.navigation_metrics(_session(["/x", "/y", "/z"]))
        b = usage.navigation_metrics(_session(["/q1", "/q2", "/q3"]))
        assert a == b

    @given(st.lists(st.sampled_from(["/a", "/b", "/c", "/d", "/e", "/f"]),
                    min_size=2, max_size=16))
    @settings(max_examples=60)
    def test_matches_oracle_on_path_graph(self, paths):
        session = _session(paths)
        metrics = usage.navigation_metrics(session)
        graph = session_path_graph(session)
        if graph is None:
            assert metrics is None
            return
        complexity, linearity = metrics
        assert complexity == pytest.approx(oracle_compactness(graph),
                                           abs=1e-12)
        assert linearity == pytest.approx(oracle_stratum(graph), abs=1e-12)

    @given(_successor_masks())
    @settings(max_examples=150, deadline=None)
    def test_shape_kernel_matches_oracle_and_profile(self, masks):
        n = len(masks)
        # Zero-padded names keep the canonical node order the index order.
        names = [f"/p{i:02d}" for i in range(n)]
        graph = SiteGraph(
            nodes=frozenset(names),
            edges=frozenset((names[a], names[b]) for a in range(n)
                            for b in range(n) if masks[a] >> b & 1),
            root=names[0])
        metrics = usage._metrics_for_shape(masks)
        assert metrics == (oracle_compactness(graph), oracle_stratum(graph))
        profile = organization_profile(graph)
        assert metrics == (profile.navigability, profile.linearity)

    def test_path_graph_root_is_entry_page(self):
        graph = session_path_graph(_session(["/b", "/a", "/c"]))
        assert graph.root == "/b"

    def test_path_graph_none_when_degenerate(self):
        assert session_path_graph(_session(["/a"])) is None


class TestSummarizeNavigation:
    def test_mixed_sessions(self):
        sessions = [
            _session(["/a", "/b", "/c"]),            # linearity 1.0
            _session(["/a", "/b", "/a", "/b"]),      # linearity 0.0
            _session(["/a"]),                        # degenerate, skipped
        ]
        summary = usage.summarize_navigation(sessions, linearity_band=0.8)
        assert summary.sessions_measured == 2
        assert summary.sessions_skipped == 1
        assert summary.linearity_mean == pytest.approx(0.5)
        assert summary.high_linearity_share == pytest.approx(0.5)

    def test_band_is_strict(self):
        sessions = [_session(["/a", "/b", "/c"])]  # linearity exactly 1.0
        summary = usage.summarize_navigation(sessions, linearity_band=1.0)
        assert summary.high_linearity_share == 0.0

    def test_all_degenerate(self):
        summary = usage.summarize_navigation([_session(["/a"])])
        assert summary.sessions_measured == 0
        assert summary.complexity_mean is None
        assert summary.high_linearity_share is None

    def test_median_is_positional(self):
        sessions = [
            _session(["/a", "/b", "/c"]),
            _session(["/a", "/b", "/c", "/d"]),
            _session(["/a", "/b", "/a", "/b"]),
        ]
        summary = usage.summarize_navigation(sessions)
        assert summary.linearity_median == pytest.approx(1.0, abs=1e-12)



def _walk_sessions(seed=20261018, pages=400, count=6000):
    """Seeded random-walk visits over a random site: back-steps, reloads,
    2 to 24 views each."""
    rng = random.Random(seed)
    out = [[p for p in rng.sample(range(pages), rng.randint(0, 6)) if p != u]
           for u in range(pages)]
    sessions = []
    for i in range(count):
        start = 0 if rng.random() < 0.3 else rng.randrange(pages)
        stack, visited = [start], [start]
        length = rng.randint(2, 24)
        while len(visited) < length:
            here = stack[-1]
            if rng.random() < 0.08:
                pass  # a reload: the same page again
            elif len(stack) > 1 and (rng.random() < 0.25 or not out[here]):
                stack.pop()
            elif out[here]:
                stack.append(rng.choice(out[here]))
            else:
                stack = [rng.randrange(pages)]
            visited.append(stack[-1])
        sessions.append(usage.Session(
            visitor_key=f"v{i}",
            views=tuple((T0_S + 60 * j, f"/p{p:03d}")
                        for j, p in enumerate(visited))))
    return sessions


# The NavigationSummary of _walk_sessions(), floats by repr. A change that
# moves any value must update it and say why.
WALK_NAVIGATION = {
    "complexity_mean": "0.5163154166188093",
    "complexity_median": "0.4722222222222222",
    "linearity_mean": "0.759808590509068",
    "linearity_median": "0.8666666666666667",
    "high_linearity_share": "0.5915398762748704",
    "linearity_band": "0.8",
    "sessions_measured": "5981",
    "sessions_skipped": "19",
}


def test_walk_sessions_navigation_summary_is_pinned():
    sessions = _walk_sessions()
    # Distinct transition graphs, pages numbered by first visit: several
    # thousand, so the pin covers far more shapes than the demo network.
    shapes = set()
    for session in sessions:
        paths = [p for _, p in session.views]
        first = {p: i for i, p in enumerate(dict.fromkeys(paths))}
        shapes.add(frozenset((first[a], first[b])
                             for a, b in zip(paths, paths[1:]) if a != b))
    assert len(shapes - {frozenset()}) == 2887
    summary = usage.summarize_navigation(sessions)
    assert {name: repr(value) for name, value in vars(summary).items()} \
        == WALK_NAVIGATION

class TestFileHelpers:
    def test_read_log_lines_mixed_plain_and_gzip(self, tmp_path):
        plain = tmp_path / "a.log"
        plain.write_text("line1\nline2\n")
        zipped = tmp_path / "b.log.gz"
        with gzip.open(zipped, "wt", encoding="utf-8") as fh:
            fh.write("line3\n")
        lines = [l.strip() for l in usage.read_log_lines([plain, zipped])]
        assert lines == ["line1", "line2", "line3"]

    def test_load_link_map(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("# comment\n/a\tc1\n/b,c2\n\nbroken-line\n")
        with open(path, encoding="utf-8") as fh:
            assert usage.parse_link_map(fh) == {"/a": "c1", "/b": "c2"}

    def test_load_signatures(self, tmp_path):
        path = tmp_path / "bots.txt"
        path.write_text("# bots\nExampleBot\nscraper\n")
        with open(path, encoding="utf-8") as fh:
            assert usage.parse_signatures(fh) == ("examplebot", "scraper")

    def test_visitor_key_method_labels(self):
        assert usage.visitor_key_method(True) != usage.visitor_key_method(False)
