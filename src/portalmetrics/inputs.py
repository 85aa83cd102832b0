"""Every input file but the access logs is opened by :func:`opened` and
parsed line by line. The line formats share two rules, written here
once: blank lines and ``#`` comments carry no data (:func:`data_lines`),
and a delimited line splits at tabs if it holds one, else at commas
(:func:`delimiter`). Every date-time is read by one grammar
(:func:`iso_datetime`), and every date by its ten-character form
(:func:`iso_date`).
"""

from __future__ import annotations

import contextlib
import re
from collections.abc import Iterable, Iterator
from datetime import date, datetime, timedelta, timezone

from .errors import ConfigError, DomainError, FormatError

# The grammar of Python 3.10's datetime.fromisoformat, the stray character
# and the NUL that it reads included, so that no text it read is refused.
# Python 3.11 widened the grammar ("Z", "+0000", "20260301", "2026-W09-7",
# ...); none of that is read here, so a text means the same date-time, or
# nothing, on every Python.
_ISO_DATETIME = re.compile(r"""
    (\d{4})-(\d{2})-(\d{2})                   # YYYY-MM-DD
    (?:[\s\S]                                 # any one character
       (\d{2})(?::(\d{2})(?::(\d{2}))?)?      # HH[:MM[:SS]]
       (?:(?(6)[.:]|\.)(\d{3}|\d{6})          # .fff[fff]; :fff[fff] after SS
         |[\x00-\x2a\x2c\x2e-\x7f](?=[+-])    # or ASCII but +-, then an offset
         |\x00\Z)?                             # or a NUL that ends the text
       # an offset: +HH:MM[:SS[.ffffff]]
       (?:([+-])(\d{2}):(\d{2})(?::(\d{2})(?:[.:](\d{6}))?)?)?
    )?""", re.ASCII | re.VERBOSE)


@contextlib.contextmanager
def opened(path, what: str):
    """The UTF-8 text file at ``path``, open to be read line by line with
    a leading byte-order mark skipped and ``\\r\\n`` and ``\\r`` read as
    ``\\n``. A file that cannot be read raises ConfigError, one that is
    not UTF-8 FormatError; a FormatError or DomainError raised while it
    is open keeps its class and gains ``"<what> file <path>: "``.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: "
                          f"{exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} file {path} is not UTF-8 text: "
                          f"{exc.reason}") from None
    except (FormatError, DomainError) as exc:
        exc.args = (f"{what} file {path}: {exc}",)
        raise


def data_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each line that is neither blank
    nor a ``#`` comment."""
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield number, line


def delimiter(line: str) -> str:
    """The field separator of a delimited line: a tab if it holds one,
    a comma otherwise."""
    return "\t" if "\t" in line else ","


def iso_datetime(text: str) -> datetime:
    """The date-time that Python 3.10's ``datetime.fromisoformat`` reads
    from ``text``, on every Python: naive without an offset, UTC for a
    zero one. Raises ValueError for a text outside its grammar or a field
    out of range.
    """
    match = _ISO_DATETIME.fullmatch(text)
    if match is None:
        raise ValueError(f"not an ISO date-time: {text!r}")
    (year, month, day, hour, minute, second, fraction,
     sign, off_hour, off_minute, off_second, off_fraction) = match.groups()
    tzinfo = None
    if sign:
        whole = (int(off_hour) * 3600 + int(off_minute) * 60
                 + int(off_second or 0))
        # As in Python 3.10, an offset of zero whole seconds is UTC,
        # whatever its fraction.
        tzinfo = timezone.utc
        if whole:
            offset = timedelta(seconds=whole,
                               microseconds=int(off_fraction or 0))
            tzinfo = timezone(-offset if sign == "-" else offset)
    return datetime(int(year), int(month), int(day), int(hour or 0),
                    int(minute or 0), int(second or 0),
                    int((fraction or "0").ljust(6, "0")), tzinfo)


def iso_date(text: str) -> date:
    """The ``YYYY-MM-DD`` date that :func:`iso_datetime` reads from a
    ten-character text; raises ValueError for any other text."""
    # A date alone is the one ISO date-time that is ten characters long.
    if len(text) == 10:
        with contextlib.suppress(ValueError):
            return iso_datetime(text).date()
    raise ValueError(f"not an ISO date: {text!r}")
