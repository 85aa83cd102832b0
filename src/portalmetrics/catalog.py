"""Content-catalog ingestion and provision metrics.

Reads delimited catalog exports (one row per catalogued educational
resource), deduplicates them on the portal-scoped identifier, and computes
the provision metrics: topic diversity (Shannon entropy, in nats), taxonomy
richness, average content age, and the offered-vs-accessed gap analysis.
Topic distributions are ``{topic: count}`` dicts; a taxonomy is a tuple.

Every row of every catalog passes one row checker, so a portal's own
catalog and the network catalogs follow the same rules. The own catalog
becomes records (:func:`parse_catalog`), joined to link-map paths by
:func:`topics_by_path`; a network catalog only gives the (portal_id,
identifier) pairs that :func:`content_counts` counts network sizes from.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator
from datetime import date
from operator import itemgetter

from .errors import DomainError, FormatError
from .inputs import data_lines, delimiter, iso_date

# Accepted header aliases, Dublin Core names included.
_COLUMN_ALIASES = {
    "identifier": ("identifier", "dc:identifier", "dc_identifier", "id"),
    "resource_type": ("resource_type", "dc:type", "dc_type", "type"),
    "topic": ("topic", "dc:subject", "dc_subject", "subject"),
    "published": ("published", "dc:date", "dc_date", "date"),
    "portal_id": ("portal_id", "portal"),
}

DEFAULT_GAP_THRESHOLD = 0.10


class ContentRecord(namedtuple("ContentRecord", "identifier resource_type "
                               "topic published portal_id")):
    """One catalogued educational resource; ``published`` is a date, the
    other fields are text."""

    __slots__ = ()


def parse_taxonomy(lines) -> tuple[str, ...]:
    """The network-wide topic labels from the lines of a taxonomy file,
    one per line (# starts a comment); no list is bundled. Raises
    DomainError when there is no label or a label repeats."""
    topics = tuple(label for _, label in data_lines(lines))
    if not topics:
        raise DomainError("taxonomy must contain at least one topic")
    if len(set(topics)) != len(topics):
        raise DomainError("taxonomy labels must be unique")
    return topics


class ParsedCatalog(namedtuple("ParsedCatalog",
                               "records duplicates_dropped row_errors")):
    """Result of parsing one catalog: its list of ContentRecords, the count
    of duplicates dropped and the (line number, message) of each skipped
    row."""

    __slots__ = ()


def _resolve_header(header: list[str]) -> dict[str, int]:
    """Map canonical column names to indices, honoring the alias table."""
    lowered = [h.strip().lower() for h in header]
    mapping = {}
    for canonical, aliases in _COLUMN_ALIASES.items():
        for alias in aliases:
            if alias in lowered:
                mapping[canonical] = lowered.index(alias)
                break
    missing = [c for c in _COLUMN_ALIASES if c not in mapping]
    if missing:
        raise FormatError(
            "catalog header is missing mandatory column(s): " + ", ".join(missing)
        )
    return mapping


def _without_nul(lines):
    for line_no, line in enumerate(lines, start=1):
        if "\x00" in line:
            raise FormatError(f"line {line_no}: line contains NUL")
        yield line


def _checked_rows(lines, row_errors: list[tuple[int, str]]):
    """The checked fields of each catalog row, as
    (portal_id, identifier, resource_type, topic, published).

    This is the one place the row rules live. The delimiter is sniffed
    from the header row, whose names are resolved through the alias
    table. A blank or whitespace-only row is skipped silently. A row too
    short for the mandatory columns, with an empty identifier or with a
    date that inputs.iso_date does not read once stripped (YYYY-MM-DD) is
    skipped and appended to ``row_errors`` as (the physical line it
    starts on, message). Each distinct date string is parsed once. A
    missing header, a missing mandatory column and a row the csv module
    cannot read (such as a field over its size limit) raise FormatError,
    as does a line holding a NUL byte, which the csv module reads on some
    Python versions and refuses on others.
    """
    lines = _without_nul(lines)
    try:
        header_line = next(lines)
    except StopIteration:
        raise FormatError("catalog stream is empty (no header row)")
    separator = delimiter(header_line)
    try:
        header = next(csv.reader([header_line], delimiter=separator))
    except csv.Error as exc:
        raise FormatError(f"line 1: {exc}") from None
    columns = _resolve_header(header)
    i_id, i_type, i_topic = (columns["identifier"], columns["resource_type"],
                             columns["topic"])
    i_published, i_portal = columns["published"], columns["portal_id"]
    last = max(columns.values())
    dates: dict[str, date] = {}
    reader = csv.reader(lines, delimiter=separator)
    next_line = 2  # the physical line the next row starts on
    try:
        for row in reader:
            line_no, next_line = next_line, reader.line_num + 2
            if len(row) <= last:
                error = f"expected {len(header)} columns, got {len(row)}"
            elif not (identifier := row[i_id].strip()):
                error = "empty identifier"
            else:
                text = row[i_published]
                published = dates.get(text)
                if published is None:
                    try:
                        published = dates[text] = iso_date(text.strip())
                    except ValueError as exc:
                        row_errors.append((line_no, str(exc)))
                        continue
                yield (row[i_portal].strip(), identifier, row[i_type].strip(),
                       row[i_topic].strip(), published)
                continue
            # A row that passed has an identifier, so only a failed row can
            # be blank.
            if "".join(row).strip():
                row_errors.append((line_no, error))
    except csv.Error as exc:
        # The physical line, counting the header the reader did not read.
        raise FormatError(f"line {reader.line_num + 1}: {exc}") from None


def parse_catalog(lines) -> ParsedCatalog:
    """Parse the lines of a delimited catalog into deduplicated records.

    The lines, each with its newline as an open file gives them, are
    comma- or tab-separated (sniffed from the header row), with a header
    naming at least identifier, resource_type, topic, published and
    portal_id; Dublin Core aliases are accepted. Dates must be ISO-8601
    (YYYY-MM-DD), as in a config.

    Duplicate identifiers within one portal are collapsed to the first
    occurrence and tallied. Malformed rows are skipped and tallied with
    their line number; a missing mandatory column, or a row the csv
    module cannot read, is fatal.
    """
    records: list[ContentRecord] = []
    seen: set[tuple[str, str]] = set()
    duplicates = 0
    row_errors: list[tuple[int, str]] = []
    for portal_id, identifier, resource_type, topic, published in \
            _checked_rows(lines, row_errors):
        key = (portal_id, identifier)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        records.append(ContentRecord(identifier, resource_type, topic,
                                     published, portal_id))
    return ParsedCatalog(records=records, duplicates_dropped=duplicates,
                         row_errors=row_errors)


def content_keys(lines) -> Iterator[tuple[str, str]]:
    """(portal_id, identifier) of each row of a catalog's lines that
    :func:`parse_catalog` keeps or tallies as a duplicate, with no record
    built. Read lazily; reading raises the FormatErrors parse_catalog
    raises."""
    return map(itemgetter(0, 1), _checked_rows(lines, []))


def topics_by_path(records: list[ContentRecord],
                   path_map: dict[str, str]) -> dict[str, str]:
    """The topic of each path of ``path_map`` (path -> identifier) that
    links to a record. Records of several portals may share an
    identifier; a path that links one they hold with two topics raises
    DomainError naming the path, the identifier and both (portal, topic)
    pairs."""
    first: dict[str, ContentRecord] = {}
    clashes: dict[str, tuple] = {}
    for r in records:
        if first.setdefault(r.identifier, r).topic != r.topic:
            clashes.setdefault(r.identifier, (first[r.identifier], r))
    for path, i in path_map.items():
        if i in clashes:
            a, b = ((r.portal_id, r.topic) for r in clashes[i])
            raise DomainError(f"path {path!r} links identifier {i!r}, which "
                              f"the catalog holds with two topics: {a} and {b}")
    return {path: first[i].topic for path, i in path_map.items() if i in first}


def shannon_diversity(counts: dict[str, int]) -> tuple[float, float]:
    """(entropy in nats, evenness) of topic counts: Shannon entropy
    H = -sum(p_i * ln p_i) over labels with positive count, summed in the
    dict's order.

    Natural log, so the value is in nats; 0 <= H <= ln(S) where S is the
    number of positive labels. Evenness divides by ln(S), so it is taken
    over the labels present, and is defined as 0.0 when S == 1.
    """
    total = sum(counts.values())
    if total <= 0:
        raise DomainError("no content: cannot compute diversity of an "
                          "empty distribution")
    positive = [c for c in counts.values() if c > 0]
    entropy = 0.0
    for count in positive:
        p = count / total
        entropy -= p * math.log(p)
    entropy = max(entropy, 0.0)
    s = len(positive)
    evenness = 0.0 if s == 1 else entropy / math.log(s)
    return entropy, evenness


def richness(records: list[ContentRecord],
             taxonomy: tuple[str, ...]) -> tuple[float, list[str]]:
    """Fraction of the taxonomy's topics covered by at least one record.

    Returns (ratio, warnings) where warnings lists topics that appear in
    records but are absent from the taxonomy; those are excluded from the
    numerator.
    """
    present = {r.topic for r in records}
    known = set(taxonomy)
    covered = present & known
    unknown = sorted(present - known)
    return len(covered) / len(taxonomy), unknown


def average_age(records: list[ContentRecord], reference: date) -> float:
    """Mean age of the catalog's records in days at the reference date;
    a record published after it is refused."""
    if not records:
        raise DomainError("cannot compute average age of an empty catalog")
    for r in records:
        if r.published > reference:
            raise DomainError(
                f"record {r.identifier!r} published {r.published} is later "
                f"than the reference date {reference}"
            )
    ages = [(reference - r.published).days for r in records]
    return sum(ages) / len(ages)


def offer_distribution(records: list[ContentRecord]) -> dict[str, int]:
    """Count records per topic, topics in record order."""
    return dict(Counter(r.topic for r in records))


def demand_offer_gap(offer: dict[str, int], accessed: dict[str, int],
                     threshold: float = DEFAULT_GAP_THRESHOLD
                     ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Per-topic comparison of offered share vs accessed (demanded) share:
    (high-demand/low-offer topics, high-offer/low-demand topics), each
    sorted.

    gap = demand share - offer share. Topics with gap above ``threshold``
    are flagged high-demand/low-offer; below ``-threshold``, the reverse.
    Labels missing from one distribution count as zero there.
    """
    offer_total, accessed_total = sum(offer.values()), sum(accessed.values())
    if offer_total == 0 or accessed_total == 0:
        raise DomainError("both distributions must have positive totals")
    labels = sorted(set(offer) | set(accessed))
    high_demand = []
    high_offer = []
    for label in labels:
        gap = (accessed.get(label, 0) / accessed_total
               - offer.get(label, 0) / offer_total)
        if gap > threshold:
            high_demand.append(label)
        elif gap < -threshold:
            high_offer.append(label)
    return tuple(high_demand), tuple(high_offer)


def content_counts(keys: Iterable[tuple[str, str]]) -> tuple[dict[str, int], int]:
    """Content counts per portal plus the network-wide total, from the
    (portal_id, identifier) pairs of every catalog in the network.

    A pair seen again counts once. Per-portal counts keep identifiers that
    several portals share; the network total collapses them, so it can be
    smaller than the sum of the per-portal counts. ``keys`` is read once,
    so it may be a stream over several catalogs (see :func:`content_keys`).
    """
    per_portal: dict[str, set[str]] = {}
    network: set[str] = set()
    for portal_id, identifier in keys:
        per_portal.setdefault(portal_id, set()).add(identifier)
        network.add(identifier)
    return {p: len(ids) for p, ids in sorted(per_portal.items())}, len(network)
