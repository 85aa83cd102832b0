"""Every input file but the access logs is opened by :func:`opened` and
parsed line by line. The line formats share two rules, written here
once: blank lines and ``#`` comments carry no data (:func:`data_lines`),
and a delimited line splits at tabs if it holds one, else at commas
(:func:`delimiter`). Every date-time (:func:`iso_datetime`) and every
date (:func:`iso_date`) is refused unless it has one of the forms that
README's "Dates and date-times" lists, and read by ``fromisoformat``.
"""

from __future__ import annotations

import contextlib
import re
from collections.abc import Iterable, Iterator
from datetime import date, datetime

from .errors import ConfigError, DomainError, FormatError

# The forms README's "Dates and date-times" lists, and no other, so that
# fromisoformat reads the fields alike on every Python: Python 3.10 takes
# any one separating character, and 3.11 also takes "Z", "+0000",
# "20260301", "2026-W09-7" and more. Every Python reads an offset under a
# second, such as +00:00:00.500000, as +00:00, and an offset's minutes or
# seconds past 59 as more hours or minutes, so neither is admitted.
_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)
_ISO_DATETIME = re.compile(_ISO_DATE.pattern + r"""
    (?:[T\ ]                                          # T or one space
       \d{2}(?::\d{2}(?::\d{2}(?:\.\d{3}(?:\d{3})?)?)?)?  # HH[:MM[:SS[.fff[fff]]]]
       (?:[+-](?!00:00:00\.)                          # +HH:MM[:SS[.ffffff]], a
          \d{2}:[0-5]\d(?::[0-5]\d(?:\.\d{6})?)?)?    # second or more if .ffffff
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
    """The date-time ``datetime.fromisoformat`` reads from ``text``, a
    README form: naive without an offset, UTC for a zero one. Raises
    ValueError for any other form or a field out of range.
    """
    if _ISO_DATETIME.fullmatch(text) is None:
        raise ValueError(f"not an ISO date-time: {text!r}")
    return datetime.fromisoformat(text)


def iso_date(text: str) -> date:
    """The date ``date.fromisoformat`` reads from a ``YYYY-MM-DD``
    ``text``; raises ValueError for any other text or a field out of
    range."""
    if _ISO_DATE.fullmatch(text) is not None:
        with contextlib.suppress(ValueError):
            return date.fromisoformat(text)
    raise ValueError(f"not an ISO date: {text!r}")
