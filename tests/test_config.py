"""Configuration parsing, precedence, and validation."""

from __future__ import annotations

import io
import re
from datetime import date, datetime, timedelta, timezone

import pytest

from portalmetrics import cli, position
from portalmetrics.config import (
    MAX_BUCKETS,
    RunConfig,
    _FIELD_PARSERS,
    build_config,
    load_config,
    parse_config_lines,
)
from portalmetrics.errors import ConfigError

import cross_python

UTC = timezone.utc


def _parse(text):
    return parse_config_lines(io.StringIO(text))


class TestParseConfigText:
    def test_comments_and_blanks_skipped(self):
        text = "# a comment\n\nportal_id = alpha\n   \n# another\n"
        assert _parse(text) == {"portal_id": "alpha"}

    def test_values_are_typed(self):
        got = _parse(
            "gap_threshold = 0.2\n"
            "seed = 7\n"
            "use_auth_user = no\n"
            "bridge_min_communities = 3\n"
        )
        assert got == {"gap_threshold": 0.2, "seed": 7,
                       "use_auth_user": False, "bridge_min_communities": 3}

    def test_spacing_around_equals_is_free(self):
        assert _parse("portal_id=alpha") == {"portal_id": "alpha"}
        assert _parse("portal_id   =   alpha") == {
            "portal_id": "alpha"}

    def test_paths_split_on_comma(self):
        got = _parse("logs = a.log, b.log,,c.log")
        assert got == {"logs": ("a.log", "b.log", "c.log")}

    def test_naive_datetime_becomes_utc(self):
        got = _parse("period_start = 2026-03-02T00:00:00")
        assert got["period_start"] == datetime(2026, 3, 2, tzinfo=UTC)

    def test_dates_are_read_as_pinned(self):
        # tests/cross_python.py checks the same pin on Python 3.10-3.13.
        outcomes = cross_python.date_outcomes()
        assert cross_python.dates_sha256(outcomes) == (
            cross_python.DATES_SHA256)

    def test_catalog_dates_are_read_as_config_dates(self):
        # strptime once kept the unpadded, space-padded and non-ASCII
        # CATALOG_DATES; a catalog now refuses them, as a config does.
        assert cross_python.catalog_date_mismatches() == []

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match=r"^line 3: unknown setting 'colour'"):
            _parse("# one\nportal_id = a\ncolour = red\n")

    def test_missing_equals_names_line(self):
        with pytest.raises(ConfigError, match=r"^line 2: expected"):
            _parse("portal_id = a\njust words\n")

    def test_bad_value_names_key_and_value(self):
        with pytest.raises(ConfigError, match=r"seed: 'seven'"):
            _parse("seed = seven")

    # The last nine are forms that Python 3.11's fromisoformat reads and
    # README's grammar does not; every Python refuses them, word for word.
    # It refuses the seven before them too, which Python 3.10's
    # fromisoformat reads as a date-time that no one wrote (the last two
    # of them, every Python's).
    @pytest.mark.parametrize("line,fragment", [
        ("use_auth_user = maybe", "boolean"),
        ("period_start = tomorrow", "date-time"),
        ("reference_date = 03/01/2026", "date"),
        *((f"period_start = {text}", f"not an ISO date-time: {text!r}")
          for text in ("2026-03-02x12:00", "2026-03-02T12:00a+01:00",
                       "2026-03-02T12:00:00:123", "2026-03-02T12.123",
                       "2026-03-02T12:30.123456",
                       "2026-03-02T12:00-00:00:00.500000",
                       "2026-03-02T12:00+00:99",
                       "2026-03-02T00:00:00Z", "2026-03-02T00:00:00+0000",
                       "2026-03-02T00:00:00+00", "2026-03-02T00:00:00.5+00:00",
                       "2026-03-02T00:00:00,123+00:00", "20260301",
                       "2026-W09-7")),
        *((f"reference_date = {text}", f"not an ISO date: {text!r}")
          for text in ("20260301", "2026-W09-7")),
    ])
    def test_parser_specific_messages(self, line, fragment):
        with pytest.raises(ConfigError, match=re.escape(fragment)):
            _parse(line)

    @pytest.mark.parametrize("text,value", [
        ("true", True), ("Yes", True), ("1", True), ("on", True),
        ("false", False), ("No", False), ("0", False), ("off", False),
    ])
    def test_bool_spellings(self, text, value):
        assert _parse(f"use_auth_user = {text}") == {
            "use_auth_user": value}

    def test_every_field_has_a_parser(self):
        assert set(_FIELD_PARSERS) == set(RunConfig._fields)

    def test_key_set_twice_names_both_lines(self):
        with pytest.raises(ConfigError, match=r"^line 4: setting 'catalog' "
                                              r"is already set on line 1$"):
            _parse("catalog = a.csv\n# b.csv below\nportal_id = x\n"
                   "catalog = b.csv\n")

    def test_key_set_twice_exits_2(self, tmp_path, capsys):
        # Before, the second catalog line won without a word.
        path = tmp_path / "twice.config"
        path.write_text("catalog = a.csv\ncatalog = b.csv\n",
                        encoding="utf-8")
        assert cli.main(["catalog", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: config file {path}: line 2: setting 'catalog' is "
            "already set on line 1\n")


class TestBuildConfig:
    def test_defaults(self):
        cfg = build_config()
        assert cfg.portal_id == "portal"
        assert cfg.bucket_days == 1.0
        assert cfg.session_timeout_minutes == 30.0
        assert cfg.gap_threshold == 0.10
        assert cfg.growth_threshold == 0.05
        assert cfg.authority_percentile == 75.0
        assert cfg.distance_k is None
        assert cfg.seed == 0
        assert cfg.use_auth_user is True

    def test_file_beats_default(self, tmp_path):
        path = tmp_path / "run.config"
        path.write_text("portal_id = alpha\nseed = 3\n", encoding="utf-8")
        cfg = build_config(file_path=str(path))
        assert cfg.portal_id == "alpha"
        assert cfg.seed == 3
        assert cfg.bucket_days == 1.0

    def test_override_beats_file(self, tmp_path):
        path = tmp_path / "run.config"
        path.write_text("seed = 3\nportal_id = alpha\n", encoding="utf-8")
        cfg = build_config(file_path=str(path), overrides={"seed": 9})
        assert cfg.seed == 9
        assert cfg.portal_id == "alpha"

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="colour"):
            build_config(overrides={"colour": "red"})

    def test_missing_file_rejected(self, tmp_path):
        missing = tmp_path / "absent.config"
        with pytest.raises(ConfigError, match="absent.config"):
            build_config(file_path=str(missing))

    def test_file_values_validated(self, tmp_path):
        path = tmp_path / "run.config"
        path.write_text("gap_threshold = 1.5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="gap_threshold"):
            build_config(file_path=str(path))

    def test_load_config_reports_source_path(self, tmp_path):
        path = tmp_path / "run.config"
        path.write_text("nope = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=(
                rf"^config file {re.escape(str(path))}: line 1: "
                "unknown setting 'nope'$")):
            load_config(str(path))


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("bucket_days", 0.0),
        ("bucket_days", -1.0),
        ("session_timeout_minutes", 0.0),
        ("gap_threshold", 0.0),
        ("gap_threshold", 1.0),
        ("growth_threshold", 0.0),
        ("bridge_score_threshold", 0.0),
        ("bridge_score_threshold", 1.2),
        ("bridge_min_communities", 0),
        ("authority_percentile", -1.0),
        ("authority_percentile", 101.0),
        ("hub_percentile", 150.0),
        ("distance_k", 0),
        ("distance_k", 1),
        ("linearity_band", 0.0),
        ("linearity_band", 1.1),
        ("compare_margin", -0.01),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            build_config(overrides={field: value})

    @pytest.mark.parametrize("field,value", [
        ("bucket_days", 1e10),
        ("bucket_days", float("inf")),
        ("session_timeout_minutes", 1e20),
        ("session_timeout_minutes", float("inf")),
    ])
    def test_span_too_long_for_a_timedelta_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            build_config(overrides={field: value})

    @pytest.mark.parametrize("period", [False, True])
    def test_bucket_below_a_microsecond_rejected(self, period):
        bounds = {}
        if period:
            start = datetime(2026, 3, 2, tzinfo=UTC)
            bounds = {"period_start": start,
                      "period_end": start + timedelta(days=3)}
        with pytest.raises(ConfigError, match="bucket_days.*microsecond"):
            build_config(overrides={"bucket_days": 1e-12, **bounds})

    @pytest.mark.parametrize("extra_seconds,accepted", [(0, True),
                                                        (1, False)])
    def test_bucket_count_bounded(self, extra_seconds, accepted):
        # One-second buckets over MAX_BUCKETS seconds, then one more second.
        start = datetime(2026, 3, 2, tzinfo=UTC)
        overrides = {"bucket_days": 1 / 86400, "period_start": start,
                     "period_end": start + timedelta(
                         seconds=MAX_BUCKETS + extra_seconds)}
        if accepted:
            assert build_config(overrides=overrides).period().bucket_count \
                == MAX_BUCKETS
        else:
            with pytest.raises(ConfigError, match="bucket_days"):
                build_config(overrides=overrides)

    def test_tiny_bucket_over_a_period_rejected(self):
        start = datetime(2026, 3, 2, tzinfo=UTC)
        with pytest.raises(ConfigError, match="bucket_days"):
            build_config(overrides={"bucket_days": 1e-9, "period_start": start,
                                    "period_end": start + timedelta(days=3)})

    def test_boundary_values_accepted(self):
        build_config(overrides={"bridge_score_threshold": 1.0,
                                "authority_percentile": 0.0,
                                "hub_percentile": 100.0,
                                "linearity_band": 1.0,
                                "compare_margin": 0.0,
                                "distance_k": 2})

    def test_period_must_come_as_pair(self):
        with pytest.raises(ConfigError, match="pair"):
            build_config(overrides={
                "period_start": datetime(2026, 3, 2, tzinfo=UTC)})

    def test_period_must_be_ordered(self):
        start = datetime(2026, 3, 2, tzinfo=UTC)
        with pytest.raises(ConfigError, match="precede"):
            build_config(overrides={"period_start": start,
                                    "period_end": start})


class TestAccessors:
    def _with_period(self) -> RunConfig:
        return build_config(overrides={
            "period_start": datetime(2026, 3, 2, tzinfo=UTC),
            "period_end": datetime(2026, 3, 5, tzinfo=UTC),
            "bucket_days": 0.5,
        })

    def test_period_object(self):
        period = self._with_period().period()
        assert period.bucket == timedelta(hours=12)
        assert period.bucket_count == 6

    def test_period_requires_bounds(self):
        with pytest.raises(ConfigError, match="period"):
            build_config().period()

    def test_session_timeout(self):
        cfg = build_config(overrides={"session_timeout_minutes": 45.0})
        assert cfg.session_timeout() == timedelta(minutes=45)

    def test_position_thresholds_mirror_config(self, tmp_path, monkeypatch):
        # Each of the four settings reaches position_profile as its keyword.
        links = tmp_path / "links.tsv"
        links.write_text("https://a.example/x\thttps://b.example/y\n")
        seen = []
        real = position.position_profile

        def spy(*args, **kwargs):
            seen.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(position, "position_profile", spy)
        inputs = {"cross_links": str(links), "site": "a.example"}
        cli._position_profile(build_config(overrides={
            **inputs, "bridge_score_threshold": 0.7,
            "authority_percentile": 90.0}))
        cli._position_profile(build_config(overrides={
            **inputs, "bridge_min_communities": 3, "hub_percentile": 60.0}))
        assert seen == [
            {"bridge_score_threshold": 0.7, "bridge_min_communities": 2,
             "authority_percentile": 90.0, "hub_percentile": 75.0},
            {"bridge_score_threshold": 0.5, "bridge_min_communities": 3,
             "authority_percentile": 75.0, "hub_percentile": 60.0},
        ]

    def test_reference_prefers_explicit_date(self):
        cfg = build_config(overrides={
            "reference_date": date(2026, 2, 1),
            "period_start": datetime(2026, 3, 2, tzinfo=UTC),
            "period_end": datetime(2026, 3, 5, tzinfo=UTC)})
        assert cfg.reference() == date(2026, 2, 1)

    def test_reference_falls_back_to_period_end(self):
        assert self._with_period().reference() == date(2026, 3, 5)

    def test_reference_requires_something(self):
        with pytest.raises(ConfigError, match="reference"):
            build_config().reference()

    def test_thresholds_metadata_key_set_is_stable(self):
        meta = build_config().thresholds_metadata()
        assert set(meta) == {
            "session_timeout_minutes", "bucket_days", "gap_threshold",
            "growth_threshold", "bridge_score_threshold",
            "bridge_min_communities", "authority_percentile",
            "hub_percentile", "distance_k", "linearity_band",
        }

    def test_thresholds_metadata_mirrors_values(self):
        cfg = build_config(overrides={"growth_threshold": 0.08,
                                      "distance_k": 12})
        meta = cfg.thresholds_metadata()
        assert meta["growth_threshold"] == 0.08
        assert meta["distance_k"] == 12
