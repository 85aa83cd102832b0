"""Results that must read the same on every supported Python (3.10-3.13).

Two pins and one agreement, each checked by a tier-1 test and, with the
standard library alone, by running this file:

- **Demand slopes.** ``segmentation.demand_trend`` of one fixed series
  has a pinned repr, and one sha256 covers the repr of its slope over
  2,000 seeded series. ``statistics.linear_regression`` changed its sums
  in Python 3.12, which moved 281 of those slopes by an ulp or so.
- **ISO date-times.** Each text of the seeded corpus of
  :func:`date_corpus` is read as a config date-time, a config date and a
  report period bound; one sha256 covers every text with what each of
  the three read from it, or ``None`` where it refused. The package
  admits only the forms that README's "Dates and date-times" lists and
  lets ``fromisoformat`` read their fields, so the pin holds only if every
  Python's ``fromisoformat`` reads those forms alike and the grammar
  refuses the forms that later Pythons added, such as a ``Z`` offset or
  ``20260301``.
- **Catalog dates.** A one-row catalog keeps its row for a corpus text,
  or one of :data:`CATALOG_DATES`, exactly when a config date reads the
  stripped text, and with the same date (:func:`catalog_date_mismatches`).

From the repository root,

    PYTHONPATH=src python -W error tests/cross_python.py

prints each digest and exits 1 if one of them is not its pin, or if a
catalog reads a date unlike a config.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys

from portalmetrics.catalog import parse_catalog
from portalmetrics.config import _parse_date, _parse_datetime
from portalmetrics.errors import FormatError
from portalmetrics.report import _parse_period
from portalmetrics.segmentation import demand_trend

SLOPE_SERIES = [30, 40, 37, 4, 38, 0, 58]
SLOPE_REPR = "0.006038647342995164"
# Of the slopes over slope_corpus(); Python 3.12's statistics gave 43a82dd2…
SLOPES_SHA256 = (
    "c8da4ace19f6eaac75be4bd57595ea2a6327ad6c2742ede1d76ba2f792728365")
DATES_SHA256 = (
    "c5013de9ccb10af4947526353cdb6080f5241a195f662a42c1b6bfe42311a1e5")


def slope_corpus() -> list[list[int]]:
    """2,000 seeded demand series: 2 to 40 buckets of 0 to 5,000 visits."""
    rng = random.Random(27)
    return [[rng.randint(0, 5000) for _ in range(rng.randint(2, 40))]
            for _ in range(2000)]


def slopes_sha256() -> str:
    return hashlib.sha256("\n".join(
        repr(demand_trend(counts)) for counts in slope_corpus()
    ).encode()).hexdigest()


_DATES = ["2026-03-01", "2024-02-29", "2026-02-29", "0000-01-01",
          "0001-01-01", "9999-12-31", "2026-13-01", "2026-00-10",
          "2026-3-01", "20260301", "2026-W09-7", "2026-060", "2026/03/01",
          "２０２６-03-01"]
_SEPARATORS = ["T", " ", "t", "x", "\n", "\x00", "+", "é", "\ud800",
               "\U0001f600", ""]
_TIMES = ["", "12", "12:30", "12:30:45", "12:30:45.5", "12:30:45.123",
          "12:30:45.1234", "12:30:45.123456", "12:30:45.1234567",
          "12:30:45,123", "12:30:45:123456", "12.123", "12:30.123456",
          "12:30:123456", "1230", "123045", "24:00", "24:00:00", "23:59:60",
          "12:60", "7:30", "12:", "12:30:", "12.", "12x", "12\x00",
          "12:30\x00", "12:30:45.123\x00", "12:30x"]
_OFFSETS = ["", "Z", "z", "+00:00", "-00:00", "+0000", "+00", "+05:30",
            "-05:30", "+05:30:15", "+00:00:00.500000", "-00:00:01.500000",
            "+00:00:00:000001", "+05:30:15.123", "+23:59", "+23:59:59.999999",
            "+24:00", "-24:00", "+00:99", "+0530", "+05:3", " +05:30",
            "++05:30", "+05:30:"]
_ALPHABET = list("0123456789:.,+-TZWz x\x00\n/") + [
    "é", "\ud800", "１", "١"]


def date_corpus() -> list[str]:
    """Texts around the ISO date-time grammar: every date with every
    separator, every time with every offset after four separators, and
    3,000 seeded edits of valid date-times."""
    texts = [d + s + t for d in _DATES for s in _SEPARATORS
             for t in ("", "12:30:45+01:00")]
    texts += ["2026-03-01" + s + t + o for s in ("T", " ", "é", "\ud800")
              for t in _TIMES for o in _OFFSETS]
    rng = random.Random(27)
    valid = ["2026-03-01T12:30:45.123456+05:30", "2026-03-01 12:30",
             "2026-03-01T12:30:45.123-00:00:01.500000", "2026-03-01",
             "2026-03-01T12:30:45:123+01:00:30", "2026-03-01T12.123+00:00"]
    for _ in range(3000):
        text = rng.choice(valid)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            edit = rng.randrange(3)
            if edit == 0:
                text = text[:at] + rng.choice(_ALPHABET) + text[at:]
            elif edit == 1:
                text = text[:at] + text[at + 1:]
            else:
                text = text[:at] + rng.choice(_ALPHABET) + text[at + 1:]
        texts.append(text)
    return texts


# Dates that strptime("%Y-%m-%d") read as the catalog's published date
# once did, and that the ISO grammar refuses: unpadded fields, a day
# padded with a space and a non-ASCII digit. Kept out of date_corpus(), so
# that DATES_SHA256 stays what it is.
CATALOG_DATES = ["2026-3-1", "2026-03-1", "2026-03- 1",
                 "20\N{ARABIC-INDIC DIGIT THREE}6-03-01"]


def _catalog_date(text):
    """The isoformat of the date a one-row catalog keeps for a published
    ``text``, or None when it keeps no row."""
    # Quoted by hand: Python 3.10's csv.writer cannot write a NUL.
    published = '"' + text.replace('"', '""') + '"'
    lines = io.StringIO("identifier,resource_type,topic,published,portal_id\n"
                        f"r1,text,algebra,{published},p\n")
    try:
        records = parse_catalog(lines).records
    except FormatError:
        return None
    return records[0].published.isoformat() if records else None


def catalog_date_mismatches() -> list[tuple[str, str | None, str | None]]:
    """(text, what a catalog reads, what a config date reads from the
    stripped text) for each text on which the two differ."""
    mismatches = []
    for text in date_corpus() + CATALOG_DATES:
        ours, config = _catalog_date(text), _read(_parse_date, text.strip())
        if ours != config:
            mismatches.append((text, ours, config))
    return mismatches


def _period_start(text):
    return _parse_period({"start": text, "end": text})[0]


def _read(parse, text):
    """The isoformat of what ``parse`` reads from ``text``, or None."""
    try:
        return parse(text).isoformat()
    except (ValueError, FormatError):
        return None


def date_outcomes():
    """Each corpus text with what a config date-time, a config date and a
    report period start read from it."""
    return [(text, *(_read(read, text)
                     for read in (_parse_datetime, _parse_date, _period_start)))
            for text in date_corpus()]


def dates_sha256(outcomes) -> str:
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


def main() -> int:
    failed = False
    slope = repr(demand_trend(SLOPE_SERIES))
    print(f"demand_trend({SLOPE_SERIES}) = {slope}")
    digests = [("slopes", slopes_sha256(), SLOPES_SHA256)]
    digests.append(("dates", dates_sha256(date_outcomes()), DATES_SHA256))
    for text, ours, config in catalog_date_mismatches():
        failed = True
        print(f"{text!r}: a catalog reads {ours}, a config date {config}")
    if slope != SLOPE_REPR:
        failed = True
        print(f"expected {SLOPE_REPR}")
    for name, digest, pin in digests:
        print(f"{name} sha256 {digest}")
        if digest != pin:
            failed = True
            print(f"expected {name} sha256 {pin}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
