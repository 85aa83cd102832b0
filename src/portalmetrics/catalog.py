"""Content-catalog ingestion and provision metrics.

Reads delimited catalog exports (one row per catalogued educational
resource), deduplicates them on the portal-scoped identifier, and computes
the provision metrics: topic diversity (Shannon entropy, in nats), taxonomy
richness, average content age, and the offered-vs-accessed gap analysis.

Every row of every catalog passes one row checker, so a portal's own
catalog and the network catalogs follow the same rules. The own catalog
becomes records (:func:`parse_catalog`); a network catalog only gives the
(portal_id, identifier) pairs that network sizes are counted from
(:func:`content_keys`, :func:`content_counts`).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date, datetime
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import DomainError, FormatError
from .inputs import data_lines, delimiter

# Accepted header aliases, Dublin Core names included.
_COLUMN_ALIASES = {
    "identifier": ("identifier", "dc:identifier", "dc_identifier", "id"),
    "resource_type": ("resource_type", "dc:type", "dc_type", "type"),
    "topic": ("topic", "dc:subject", "dc_subject", "subject"),
    "published": ("published", "dc:date", "dc_date", "date"),
    "portal_id": ("portal_id", "portal"),
}

DEFAULT_GAP_THRESHOLD = 0.10


@dataclass(frozen=True)
class ContentRecord:
    """One catalogued educational resource."""

    identifier: str
    resource_type: str
    topic: str
    published: date
    portal_id: str


@dataclass(frozen=True)
class TopicTaxonomy:
    """The network-wide agreed list of topic labels.

    The taxonomy is always an input (file or argument), never hard-coded:
    there is no canonical list bundled with the package.
    """

    topics: tuple[str, ...]

    def __post_init__(self):
        if not self.topics:
            raise DomainError("taxonomy must contain at least one topic")
        if len(set(self.topics)) != len(self.topics):
            raise DomainError("taxonomy labels must be unique")

    @classmethod
    def from_lines(cls, lines) -> "TopicTaxonomy":
        """A taxonomy from the lines of a taxonomy file: one label per
        line, # starts a comment."""
        return cls(tuple(label for _, label in data_lines(lines)))


@dataclass(frozen=True)
class TopicDistribution:
    """Counts of content per topic."""

    counts: dict[str, int]
    total: int

    @classmethod
    def from_counts(cls, counts: dict[str, int]) -> "TopicDistribution":
        if any(c < 0 for c in counts.values()):
            raise DomainError("distribution counts must be non-negative")
        return cls(counts=dict(counts), total=sum(counts.values()))


@dataclass
class ParsedCatalog:
    """Result of parsing one catalog."""

    records: list[ContentRecord]
    duplicates_dropped: int
    row_errors: list[tuple[int, str]] = field(default_factory=list)


@dataclass(frozen=True)
class DiversityResult:
    """Shannon entropy of a distribution plus its evenness over the labels
    present."""

    entropy_nats: float
    evenness: float


@dataclass(frozen=True)
class AverageAgeResult:
    mean_age_days: float


@dataclass(frozen=True)
class GapReport:
    high_demand_low_offer: tuple[str, ...]
    high_offer_low_demand: tuple[str, ...]


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


def _parse_date(text: str) -> date:
    return datetime.strptime(text.strip(), "%Y-%m-%d").date()


def _checked_rows(lines, row_errors: list[tuple[int, str]]):
    """The checked fields of each catalog row, as
    (portal_id, identifier, resource_type, topic, published).

    This is the one place the row rules live. The delimiter is sniffed
    from the header row, whose names are resolved through the alias
    table. A blank or whitespace-only row is skipped silently. A row too
    short for the mandatory columns, with an empty identifier or with a
    date that is not ISO-8601 (YYYY-MM-DD) is skipped and appended to
    ``row_errors`` as (the physical line it starts on, message). Each
    distinct date string is parsed once. A missing header, a missing
    mandatory column and a row the csv module cannot read (such as a field
    over its size limit) raise FormatError.
    """
    lines = iter(lines)
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
                        published = dates[text] = _parse_date(text)
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
    (YYYY-MM-DD).

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


def shannon_diversity(dist: TopicDistribution) -> DiversityResult:
    """Shannon entropy H = -sum(p_i * ln p_i) over labels with positive count.

    Natural log, so the value is in nats; 0 <= H <= ln(S) where S is the
    number of positive labels. Evenness divides by ln(S), so it is taken
    over the labels present, and is defined as 0.0 when S == 1.
    """
    if dist.total <= 0:
        raise DomainError("no content: cannot compute diversity of an "
                          "empty distribution")
    positive = [c for c in dist.counts.values() if c > 0]
    entropy = 0.0
    for count in positive:
        p = count / dist.total
        entropy -= p * math.log(p)
    entropy = max(entropy, 0.0)
    s = len(positive)
    evenness = 0.0 if s == 1 else entropy / math.log(s)
    return DiversityResult(entropy_nats=entropy, evenness=evenness)


def richness(records: list[ContentRecord],
             taxonomy: TopicTaxonomy) -> tuple[float, list[str]]:
    """Fraction of taxonomy topics covered by at least one record.

    Returns (ratio, warnings) where warnings lists topics that appear in
    records but are absent from the taxonomy; those are excluded from the
    numerator.
    """
    present = {r.topic for r in records}
    known = set(taxonomy.topics)
    covered = present & known
    unknown = sorted(present - known)
    return len(covered) / len(taxonomy.topics), unknown


def average_age(records: list[ContentRecord],
                reference: date) -> AverageAgeResult:
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
    return AverageAgeResult(mean_age_days=sum(ages) / len(ages))


def offer_distribution(records: list[ContentRecord]) -> TopicDistribution:
    """Count records per topic."""
    counts: dict[str, int] = {}
    for r in records:
        counts[r.topic] = counts.get(r.topic, 0) + 1
    return TopicDistribution.from_counts(counts)


def demand_offer_gap(offer: TopicDistribution, accessed: TopicDistribution,
                     threshold: float = DEFAULT_GAP_THRESHOLD) -> GapReport:
    """Per-topic comparison of offered share vs accessed (demanded) share.

    gap = demand share - offer share. Topics with gap above ``threshold``
    are flagged high-demand/low-offer; below ``-threshold``, the reverse.
    Labels missing from one distribution count as zero there.
    """
    if offer.total == 0 or accessed.total == 0:
        raise DomainError("both distributions must have positive totals")
    labels = sorted(set(offer.counts) | set(accessed.counts))
    high_demand = []
    high_offer = []
    for label in labels:
        gap = (accessed.counts.get(label, 0) / accessed.total
               - offer.counts.get(label, 0) / offer.total)
        if gap > threshold:
            high_demand.append(label)
        elif gap < -threshold:
            high_offer.append(label)
    return GapReport(high_demand_low_offer=tuple(high_demand),
                     high_offer_low_demand=tuple(high_offer))


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
