"""The date and date-time grammar of ``inputs``: a text in one of the
forms README's "Dates and date-times" lists reads as its fields say, and
a text one character away from those forms is refused."""

from __future__ import annotations

from datetime import datetime, time, timedelta, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from portalmetrics.inputs import iso_date, iso_datetime

# The admitted forms with every ASCII digit written as "d": a date alone,
# or a date, "T" or one space, a time and an optional offset.
_DATE = "dddd-dd-dd"
_TIMES = ("dd", "dd:dd", "dd:dd:dd", "dd:dd:dd.ddd", "dd:dd:dd.dddddd")
_OFFSETS = ("", "+dd:dd", "+dd:dd:dd", "+dd:dd:dd.dddddd",
            "-dd:dd", "-dd:dd:dd", "-dd:dd:dd.dddddd")
FORMS = {_DATE} | {_DATE + sep + clock + offset for sep in "T "
                   for clock in _TIMES for offset in _OFFSETS}


def _form(text):
    return "".join("d" if c in "0123456789" else c for c in text)


def _field(draw, digits, low, high):
    """A field of ``digits`` digits: mostly in [low, high], else any."""
    return draw(st.one_of(st.integers(low, high),
                          st.integers(0, 10 ** digits - 1)))


@st.composite
def written(draw):
    """A text in an admitted form, built from its fields, and the naive
    date-time and the UTC offset (None without one) that the fields give,
    or None where a field is out of range."""
    fields = [_field(draw, 4, 1, 9999), _field(draw, 2, 1, 12),
              _field(draw, 2, 1, 31)]
    text = "{:04d}-{:02d}-{:02d}".format(*fields)
    time_fields = draw(st.integers(0, 3))
    fraction = offset = zone = None
    if time_fields:
        text += draw(st.sampled_from("T "))
        times = [_field(draw, 2, 0, 23)] + [
            _field(draw, 2, 0, 59) for _ in range(time_fields - 1)]
        fields += times
        text += ":".join(f"{v:02d}" for v in times)
        digits = draw(st.sampled_from((0, 3, 6))) if time_fields == 3 else 0
        if digits:
            fraction = draw(st.integers(0, 10 ** digits - 1))
            text += f".{fraction:0{digits}d}"
            fraction *= 10 ** (6 - digits)
        offset_fields = draw(st.integers(1, 4))
        if offset_fields > 1:
            sign = draw(st.sampled_from("+-"))
            hours, minutes, seconds = (_field(draw, 2, 0, 23),
                                       _field(draw, 2, 0, 59),
                                       _field(draw, 2, 0, 59))
            text += f"{sign}{hours:02d}:{minutes:02d}"
            microseconds = 0
            if offset_fields > 2:
                text += f":{seconds:02d}"
            else:
                seconds = 0
            if offset_fields > 3:
                # An offset with a fraction has a whole second before it.
                if (hours, minutes, seconds) == (0, 0, 0):
                    seconds = 1
                    text = text[:-2] + "01"
                microseconds = draw(st.integers(0, 999_999))
                text += f".{microseconds:06d}"
            zone = (hours, minutes, seconds)
            offset = (timedelta(hours=hours, minutes=minutes,
                                seconds=seconds, microseconds=microseconds)
                      * (1 if sign == "+" else -1))
    try:
        naive = datetime(*fields, fraction or 0)
        if zone is not None:
            time(*zone)  # refuses an offset field out of range
    except ValueError:
        return text, None
    return text, (naive, offset)


@given(written())
@settings(max_examples=1000)
@example(("2026-03-02T12:00:00.123456+00:00", (
    datetime(2026, 3, 2, 12, 0, 0, 123456), timedelta(0))))
@example(("2026-03-02 23:59:59-23:59:59.999999", (
    datetime(2026, 3, 2, 23, 59, 59),
    timedelta(microseconds=1) - timedelta(hours=24))))
@example(("2026-03-02T24:00", None))
@example(("2026-03-02T12:00+00:60", None))
@example(("2026-03-02T12:00-01:00:99.000001", None))
@example(("2026-02-29", None))
def test_a_text_in_the_grammar_reads_as_its_fields(case):
    text, expected = case
    assert _form(text) in FORMS
    if expected is None:
        with pytest.raises(ValueError):
            iso_datetime(text)
        return
    value = iso_datetime(text)
    assert (value.replace(tzinfo=None), value.utcoffset()) == expected
    # A zero offset is UTC itself.
    assert (value.tzinfo is timezone.utc) == (expected[1] == timedelta(0))
    if len(text) == 10:
        assert iso_date(text) == expected[0].date()
    else:
        with pytest.raises(ValueError, match="^not an ISO date: "):
            iso_date(text)


_EDIT_CHARACTERS = list("0123456789:.,+-Tt xZz/\x00\n") + [
    "é", "\N{ARABIC-INDIC DIGIT ONE}", "\N{FULLWIDTH DIGIT ONE}"]


@given(written().map(lambda case: case[0]),
       st.sampled_from(("insert", "delete", "replace")),
       st.integers(0, 40), st.sampled_from(_EDIT_CHARACTERS))
@settings(max_examples=1000)
# The forms that Python 3.10's fromisoformat reads and the grammar does
# not: any one separating character, a stray character before the offset,
# ":fff" after the seconds, a NUL at the end, a fraction after the hour
# and ":ffffff" in the offset.
@example("2026-03-02T12:00", "replace", 10, "x")
@example("2026-03-02T12", "replace", 10, "\n")
@example("2026-03-02T12:00+01:00", "insert", 16, "a")
@example("2026-03-02T12:00:00.123", "replace", 19, ":")
@example("2026-03-02T12", "insert", 13, "\x00")
@example("2026-03-02T12:30", "replace", 13, ".")
@example("2026-03-02T12:00+01:00:00.000001", "replace", 25, ":")
def test_an_edit_off_the_grammar_is_refused(text, kind, at, character):
    at %= len(text) + 1
    if kind == "insert":
        edited = text[:at] + character + text[at:]
    elif kind == "delete":
        edited = text[:at] + text[at + 1:]
    else:
        edited = text[:at] + character + text[at + 1:]
    if _form(edited) in FORMS:
        return
    with pytest.raises(ValueError, match="^not an ISO date-time: "):
        iso_datetime(edited)
    with pytest.raises(ValueError, match="^not an ISO date: "):
        iso_date(edited)

