"""Every input file but the access logs is opened by :func:`opened` and
parsed line by line. The line formats share two rules, written here
once: blank lines and ``#`` comments carry no data (:func:`data_lines`),
and a delimited line splits at tabs if it holds one, else at commas
(:func:`delimiter`).
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Iterator

from .errors import ConfigError, DomainError, FormatError


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
