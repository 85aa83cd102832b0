"""Content provision metrics: parsing, diversity, richness, age, gaps."""

import csv
import io
import math
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from portalmetrics import catalog, inputs
from portalmetrics.errors import DomainError, FormatError

from oracles import reference_content_counts, shannon

REF = date(2026, 3, 1)


def _rec(ident="r1", rtype="text", topic="algebra", published=date(2026, 1, 1),
         portal="p"):
    return catalog.ContentRecord(identifier=ident, resource_type=rtype,
                                 topic=topic, published=published,
                                 portal_id=portal)


CSV_BASIC = """identifier,resource_type,topic,published,portal_id
r1,text,algebra,2026-01-01,p
r2,video,biology,2026-02-01,p
r3,text,algebra,2025-12-15,p
"""


_COLUMNS = tuple(catalog._COLUMN_ALIASES)
_IDENTIFIERS = ("r1", " r1 ", "r2", "shared", "x,y", 'say "hi"', "two\nlines")
_PORTALS = ("A", " A", "B")
_GOOD_DATES = ("2026-01-01", " 2025-12-31 ")
_BAD_DATES = ("not-a-date", "2026-02-30", "", "01/02/2026", "2026-3-1")


@st.composite
def _catalog_texts(draw):
    """A catalog as (text, kept keys, error lines): the (portal_id,
    identifier) of every row the parser must keep, duplicates included,
    and the physical line that each row it must report as malformed starts
    on (an identifier may hold a newline). Rows are good, short, without
    identifier, with a bad date or blank; the header uses random aliases,
    case, order and delimiter, and one header in ten misses a mandatory
    column (kept keys None)."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    names = {c: draw(st.sampled_from(catalog._COLUMN_ALIASES[c]))
             for c in _COLUMNS}
    order = draw(st.permutations(_COLUMNS + ("notes",)))
    missing = draw(st.sampled_from((None,) * 9 + _COLUMNS))
    order = [c for c in order if c != missing]
    header = [names.get(c, c) for c in order]
    if draw(st.booleans()):
        header = [h.upper() for h in header]
    last = max(order.index(c) for c in _COLUMNS if c != missing)
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n",
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL,
                                                      csv.QUOTE_ALL])))
    writer.writerow(header)
    kept, error_lines = [], []
    kinds = draw(st.lists(st.sampled_from(
        ["good"] * 4 + ["short", "no-id", "bad-date", "blank"]), max_size=12))
    for kind in kinds:
        line_no = buffer.getvalue().count("\n") + 1
        identifier = draw(st.sampled_from(_IDENTIFIERS))
        portal = draw(st.sampled_from(_PORTALS))
        dates = _BAD_DATES if kind == "bad-date" else _GOOD_DATES
        values = {"identifier": "  " if kind == "no-id" else identifier,
                  "resource_type": "text", "topic": "algebra",
                  "published": draw(st.sampled_from(dates)),
                  "portal_id": portal, "notes": ""}
        row = [values[c] for c in order]
        if kind == "short":
            row = row[:draw(st.integers(1, last))]
        if kind == "blank":
            row = [draw(st.sampled_from(["", " ", "\t "])) for _ in row]
            if draw(st.booleans()):
                row = []
        if row:
            writer.writerow(row)
        else:
            buffer.write("\n")
        if kind == "good":
            kept.append((portal.strip(), identifier.strip()))
        elif kind != "blank" and any(cell.strip() for cell in row):
            error_lines.append(line_no)
    return buffer.getvalue(), None if missing else kept, error_lines


class TestParseCatalog:
    def test_three_distinct_rows(self):
        parsed = catalog.parse_catalog(io.StringIO(CSV_BASIC))
        assert len(parsed.records) == 3
        assert parsed.duplicates_dropped == 0
        assert parsed.records[0].identifier == "r1"
        assert parsed.records[0].published == date(2026, 1, 1)

    def test_duplicate_identifier_first_wins(self):
        text = CSV_BASIC + "r1,video,chemistry,2026-02-20,p\n"
        parsed = catalog.parse_catalog(io.StringIO(text))
        assert len(parsed.records) == 3
        assert parsed.duplicates_dropped == 1
        kept = [r for r in parsed.records if r.identifier == "r1"]
        assert kept[0].topic == "algebra"

    def test_same_identifier_other_portal_is_kept(self):
        text = CSV_BASIC + "r1,video,chemistry,2026-02-20,q\n"
        parsed = catalog.parse_catalog(io.StringIO(text))
        assert len(parsed.records) == 4
        assert parsed.duplicates_dropped == 0

    def test_unparseable_date_skipped_and_tallied(self):
        text = CSV_BASIC + "r9,text,algebra,not-a-date,p\n"
        parsed = catalog.parse_catalog(io.StringIO(text))
        assert len(parsed.records) == 3
        assert len(parsed.row_errors) == 1
        line_number, message = parsed.row_errors[0]
        assert line_number == 5
        assert "not-a-date" in message

    def test_repeated_dates_keep_their_own_verdicts(self):
        # Dates are parsed once per distinct string: a repeated bad date is
        # still reported on each of its lines. Surrounding blanks are
        # stripped; an unpadded field is not ISO-8601.
        text = CSV_BASIC + ("r9,text,algebra,not-a-date,p\n"
                            "r10,text,algebra,2026-3-1,p\n"
                            "r11,text,algebra,not-a-date,p\n"
                            "r12,text,algebra, 2026-03-01 ,p\n"
                            "r13,text,algebra,2026-3-1,p\n")
        parsed = catalog.parse_catalog(io.StringIO(text))
        assert [line for line, _ in parsed.row_errors] == [5, 6, 7, 9]
        assert [r.identifier for r in parsed.records[3:]] == ["r12"]
        assert parsed.records[3].published == date(2026, 3, 1)

    def test_row_error_gives_the_physical_line_after_a_quoted_newline(self):
        text = ("identifier,resource_type,topic,published,portal_id\n"
                '"a\nb",text,x,2026-01-01,p\n'
                "r2,text,x,bad,p\n"
                '"c\n\nd",text,x,bad,p\n'
                "r3,text,x,bad,p\n")
        parsed = catalog.parse_catalog(io.StringIO(text))
        assert [r.identifier for r in parsed.records] == ["a\nb"]
        assert [line for line, _ in parsed.row_errors] == [4, 5, 8]

    @pytest.mark.parametrize("text", [
        "identifier,resource_type,topic,published,portal_id\r\n"
        "r1,text,x,2026-01-01,p\r\nr2,text,x,bad,p\r\n",
        "identifier,resource_type,topic,published,portal_id\n"
        '"a\nb",text,x,2026-01-01,p\nr2,text,x,bad,p\n',
        "identifier,resource_type,topic,published,portal_id\n"
        "r\x0b1,text,x,2026-01-01,p\nr\u20282,text,x,bad,p\n"
        "r3,te\u2028xt,x,2026-01-01,p\n",
        "identifier,resource_type,topic,published,portal_id\n"
        "r1,text,x,2026-01-01,p\nr2,text,x,bad,p",
        "identifier,resource_type,topic,published,portal_id\r\n"
        '"a\r\nb",text,x,bad,p\r\nr2\rtext,x,2026-01-01,p\n',
        "identifier,resource_type,topic,published,portal_id\n"
        '"r1,text,x,2026-01-01,p\nr2,text,x,bad,p',
    ])
    def test_text_and_stream_give_the_same_rows(self, tmp_path, text):
        # A file is read through the one opener, an in-memory stream
        # directly; both split lines with universal newlines. Both must
        # give the same rows, lines and errors, and the file's error also
        # names the file.
        path = tmp_path / "catalog.csv"
        path.write_bytes(text.encode("utf-8"))

        def parse(lines):
            parsed = catalog.parse_catalog(lines)
            return parsed.records, parsed.row_errors

        try:
            expected = parse(io.StringIO(text, newline=None))
        except FormatError as exc:
            expected = f"catalog file {path}: {exc}"
        try:
            with inputs.opened(path, "catalog") as lines:
                got = parse(lines)
        except FormatError as exc:
            got = str(exc)
        assert got == expected

    @pytest.mark.parametrize("reader", [
        catalog.parse_catalog, lambda lines: list(catalog.content_keys(lines))
    ], ids=["parse_catalog", "content_keys"])
    @pytest.mark.parametrize("text,line", [
        (CSV_BASIC + "r9,text,alg\x00ebra,2026-01-01,p\n", 5),
        ('identifier,resource_type,topic,published,portal_id\n'
         '"r1\n\x00",text,x,2026-01-01,p\n', 3),
        ("identifier,resource_type,topic,published,portal_id\x00\n", 1),
    ], ids=["in a field", "in a quoted newline", "in the header"])
    def test_nul_byte_is_refused_on_every_python(self, reader, text, line):
        # The csv module reads a NUL byte on some Python versions and
        # refuses it on others; the catalog readers refuse it on all.
        with pytest.raises(FormatError,
                           match=f"^line {line}: line contains NUL$"):
            reader(io.StringIO(text))

    def test_tab_separated_with_dublin_core_aliases(self):
        text = ("dc:identifier\tdc:type\tdc:subject\tdc:date\tportal\n"
                "x1\tguide\thistory\t2025-11-30\tp\n")
        parsed = catalog.parse_catalog(io.StringIO(text))
        assert len(parsed.records) == 1
        record = parsed.records[0]
        assert record.identifier == "x1"
        assert record.resource_type == "guide"
        assert record.topic == "history"

    def test_missing_mandatory_column_is_fatal(self):
        text = "identifier,topic,published,portal_id\nr1,algebra,2026-01-01,p\n"
        with pytest.raises(FormatError):
            catalog.parse_catalog(io.StringIO(text))

    def test_short_row_tallied_not_fatal(self):
        text = CSV_BASIC + "only-two,fields\n"
        parsed = catalog.parse_catalog(io.StringIO(text))
        assert len(parsed.records) == 3
        assert len(parsed.row_errors) == 1


class TestShannonDiversity:
    def test_single_topic_is_zero(self):
        dist = {"math": 10}
        entropy, evenness = catalog.shannon_diversity(dist)
        assert entropy == 0.0
        assert evenness == 0.0

    def test_uniform_four_topics(self):
        dist = {"a": 5, "b": 5, "c": 5, "d": 5}
        entropy, evenness = catalog.shannon_diversity(dist)
        assert entropy == pytest.approx(math.log(4), abs=1e-12)
        assert evenness == pytest.approx(1.0, abs=1e-12)

    def test_eighty_twenty_split(self):
        dist = {"a": 8, "b": 2}
        entropy, _ = catalog.shannon_diversity(dist)
        assert entropy == pytest.approx(
            -(0.8 * math.log(0.8) + 0.2 * math.log(0.2)), abs=1e-12)
        assert entropy == pytest.approx(0.500402, abs=1e-6)

    def test_empty_distribution_rejected(self):
        dist = {}
        with pytest.raises(DomainError):
            catalog.shannon_diversity(dist)

    @given(st.dictionaries(st.text(min_size=1, max_size=5),
                           st.integers(min_value=1, max_value=500),
                           min_size=1, max_size=12),
           st.integers(min_value=2, max_value=9))
    def test_scale_invariance_and_bounds(self, counts, k):
        scaled = {t: c * k for t, c in counts.items()}
        base, evenness = catalog.shannon_diversity(counts)
        result, _ = catalog.shannon_diversity(scaled)
        assert result == pytest.approx(base, abs=1e-9)
        assert 0.0 <= base <= math.log(len(counts)) + 1e-12
        assert 0.0 <= evenness <= 1.0 + 1e-12
        assert base == pytest.approx(shannon(counts.values()), abs=1e-9)


class TestRichness:
    def test_full_coverage(self):
        taxonomy = tuple(f"t{i}" for i in range(12))
        records = [_rec(ident=f"r{i}", topic=f"t{i}") for i in range(12)]
        ratio, unknown = catalog.richness(records, taxonomy)
        assert ratio == 1.0
        assert unknown == []

    def test_empty_records(self):
        taxonomy = ("a", "b")
        ratio, unknown = catalog.richness([], taxonomy)
        assert ratio == 0.0

    def test_partial_coverage(self):
        taxonomy = tuple(f"t{i}" for i in range(12))
        records = [_rec(ident=f"r{i}", topic=f"t{i}") for i in range(9)]
        ratio, _ = catalog.richness(records, taxonomy)
        assert ratio == 0.75

    def test_unknown_topic_warned_not_counted(self):
        taxonomy = ("a", "b")
        records = [_rec(ident="r1", topic="a"), _rec(ident="r2", topic="zzz")]
        ratio, unknown = catalog.richness(records, taxonomy)
        assert ratio == 0.5
        assert unknown == ["zzz"]

    def test_monotone_under_added_records(self):
        taxonomy = ("a", "b", "c")
        records = [_rec(ident="r1", topic="a")]
        before, _ = catalog.richness(records, taxonomy)
        records.append(_rec(ident="r2", topic="b"))
        after, _ = catalog.richness(records, taxonomy)
        assert after >= before

    def test_taxonomy_must_be_valid(self):
        with pytest.raises(DomainError, match="^taxonomy must contain at "
                           "least one topic$"):
            catalog.parse_taxonomy(["# only a comment\n", "\n"])
        with pytest.raises(DomainError,
                           match="^taxonomy labels must be unique$"):
            catalog.parse_taxonomy(["a\n", "a\n"])


class TestAverageAge:
    def test_published_on_reference_is_zero(self):
        records = [_rec(published=REF)]
        assert catalog.average_age(records, REF) == 0.0

    def test_ten_and_twenty_days(self):
        records = [
            _rec(ident="r1", published=date(2026, 2, 19)),
            _rec(ident="r2", published=date(2026, 2, 9)),
        ]
        assert catalog.average_age(records, REF) == 15.0

    def test_future_publication_rejected(self):
        records = [_rec(published=date(2026, 3, 2))]
        with pytest.raises(DomainError):
            catalog.average_age(records, REF)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            catalog.average_age([], REF)

    @given(st.lists(st.integers(min_value=0, max_value=2000), min_size=1,
                    max_size=30),
           st.lists(st.integers(min_value=0, max_value=2000), min_size=1,
                    max_size=30))
    def test_union_mean_between_parts(self, ages_a, ages_b):
        from datetime import timedelta
        part_a = [_rec(ident=f"a{i}", published=REF - timedelta(days=d))
                  for i, d in enumerate(ages_a)]
        part_b = [_rec(ident=f"b{i}", published=REF - timedelta(days=d))
                  for i, d in enumerate(ages_b)]
        mean_a = catalog.average_age(part_a, REF)
        mean_b = catalog.average_age(part_b, REF)
        union = catalog.average_age(part_a + part_b, REF)
        assert min(mean_a, mean_b) - 1e-9 <= union <= max(mean_a, mean_b) + 1e-9


class TestOfferDistribution:
    def test_topic_counts(self):
        records = [_rec(ident=f"r{i}", topic=t)
                   for i, t in enumerate(["a", "a", "b", "c"])]
        dist = catalog.offer_distribution(records)
        assert dist == {"a": 2, "b": 1, "c": 1}
        assert sum(dist.values()) == 4

    def test_empty(self):
        dist = catalog.offer_distribution([])
        assert dist == {}
        assert sum(dist.values()) == 0

    def test_topics_in_record_order(self):
        # Diversity sums its float terms in this order.
        records = [_rec(ident=f"r{i}", topic=t)
                   for i, t in enumerate(["c", "a", "c", "b"])]
        assert list(catalog.offer_distribution(records).items()) == [
            ("c", 2), ("a", 1), ("b", 1)]


class TestTopicsByPath:
    def test_each_linked_path_gets_its_records_topic(self):
        records = [_rec(ident="r1", topic="algebra"),
                   _rec(ident="r2", topic="", portal="q")]
        path_map = {"/a": "r1", "/b": "r2", "/c": "r1", "/ghost": "r9"}
        assert catalog.topics_by_path(records, path_map) == {
            "/a": "algebra", "/b": "", "/c": "algebra"}

    def test_last_record_of_a_shared_identifier_wins(self):
        # Two portals may catalog the same identifier.
        records = [_rec(ident="r1", topic="algebra", portal="p"),
                   _rec(ident="r1", topic="biology", portal="q")]
        assert catalog.topics_by_path(records, {"/a": "r1"}) == {
            "/a": "biology"}


class TestDemandOfferGap:
    def test_identical_distributions_no_flags(self):
        dist = {"a": 3, "b": 7}
        assert catalog.demand_offer_gap(dist, dist) == ((), ())

    def test_inverted_shares_flag_both_sides(self):
        offer = {"a": 9, "b": 1}
        demand = {"a": 1, "b": 9}
        high_demand, high_offer = catalog.demand_offer_gap(offer, demand)
        assert high_demand == ("b",)
        assert high_offer == ("a",)

    def test_zero_total_rejected(self):
        offer = {"a": 9}
        empty = {}
        with pytest.raises(DomainError):
            catalog.demand_offer_gap(offer, empty)

    def test_gap_equal_to_threshold_not_flagged(self):
        offer = {"a": 5, "b": 5}
        demand = {"a": 6, "b": 4}
        assert catalog.demand_offer_gap(offer, demand,
                                        threshold=0.10) == ((), ())

    @given(st.dictionaries(st.sampled_from("abcdef"),
                           st.integers(min_value=0, max_value=50)),
           st.dictionaries(st.sampled_from("abcdef"),
                           st.integers(min_value=0, max_value=50)))
    def test_flags_follow_the_share_gap(self, offer_counts, demand_counts):
        offer_total = sum(offer_counts.values())
        demand_total = sum(demand_counts.values())
        if offer_total == 0 or demand_total == 0:
            with pytest.raises(DomainError):
                catalog.demand_offer_gap(offer_counts, demand_counts)
            return
        high_demand, high_offer = catalog.demand_offer_gap(offer_counts,
                                                           demand_counts)
        gaps = {label: demand_counts.get(label, 0) / demand_total
                - offer_counts.get(label, 0) / offer_total
                for label in sorted(set(offer_counts) | set(demand_counts))}
        assert high_demand == tuple(
            label for label, gap in gaps.items() if gap > 0.10)
        assert high_offer == tuple(
            label for label, gap in gaps.items() if gap < -0.10)


class TestContentCounts:
    def test_shared_identifier_counted_once_network_wide(self):
        keys = [("A", "shared"), ("B", "shared"), ("A", "only-a"),
                ("A", "shared")]
        per_portal, network_total = catalog.content_counts(keys)
        assert per_portal == {"A": 2, "B": 1}
        assert network_total == 2

    def test_disjoint_identifiers(self):
        keys = [("A" if i < 3 else "B", f"r{i}") for i in range(5)]
        per_portal, network_total = catalog.content_counts(keys)
        assert per_portal == {"A": 3, "B": 2}
        assert network_total == 5

    @given(st.lists(_catalog_texts(), min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_counts_from_keys_match_the_record_oracle(self, catalogs):
        texts = [text for text, _, _ in catalogs]
        try:
            expected = reference_content_counts(
                r for text in texts
                for r in catalog.parse_catalog(io.StringIO(text)).records)
        except FormatError as exc:
            with pytest.raises(FormatError) as raised:
                catalog.content_counts(
                    k for text in texts
                    for k in catalog.content_keys(io.StringIO(text)))
            assert str(raised.value) == str(exc)
            assert any(kept is None for _, kept, _ in catalogs)
            return
        got = catalog.content_counts(
            k for text in texts
            for k in catalog.content_keys(io.StringIO(text)))
        assert got == expected
        # The generator knows which rows are kept: the row rules hold
        # in both readers, not just the same in both.
        assert got == reference_content_counts(
            catalog.ContentRecord(identifier, "", "", REF, portal)
            for _, kept, _ in catalogs for portal, identifier in kept)
        for text, _, error_lines in catalogs:
            parsed = catalog.parse_catalog(io.StringIO(text))
            assert [line for line, _ in parsed.row_errors] == error_lines


class TestTaxonomyFile:
    def test_from_file(self, tmp_path):
        path = tmp_path / "taxonomy.txt"
        path.write_text("algebra\nbiology\n# comment\n\nchemistry\n")
        with open(path, encoding="utf-8") as fh:
            taxonomy = catalog.parse_taxonomy(fh)
        assert taxonomy == ("algebra", "biology", "chemistry")
