"""Run configuration: one flat key = value file plus flag overrides.

Every tunable of the pipeline lives here so a run is fully described by
(inputs, config, seed) and can be reproduced byte for byte. Precedence is
command-line flag over config file over built-in default. The effective
thresholds are echoed into report metadata, which is what makes two
reports comparable at all.
"""

from __future__ import annotations

import math
from collections import namedtuple
from datetime import date, datetime, timedelta, timezone

from .catalog import DEFAULT_GAP_THRESHOLD
from .errors import ConfigError
from .inputs import data_lines, iso_date, iso_datetime, opened
from .position import (DEFAULT_BRIDGE_MIN_COMMUNITIES,
                       DEFAULT_BRIDGE_SCORE_THRESHOLD, DEFAULT_DEGREE_PERCENTILE)
from .report import DEFAULT_COMPARE_MARGIN
from .segmentation import DEFAULT_GROWTH_THRESHOLD
from .usage import (DEFAULT_LINEARITY_BAND, DEFAULT_SESSION_TIMEOUT,
                    AnalysisPeriod)

# The most buckets a period may be cut into; a year of one-minute buckets
# is 525,600. Demand keeps one count per bucket.
MAX_BUCKETS = 1_000_000
_MICROSECOND = timedelta(microseconds=1)
_MINUTE = timedelta(minutes=1)


def _refuse_nul(text: str) -> None:
    # A path with a NUL byte cannot be opened, and portal_id names files.
    if "\x00" in text:
        raise ConfigError(f"a NUL byte is not allowed: {text!r}")


def _parse_text(text: str) -> str:
    if not text:
        raise ConfigError("empty value")
    _refuse_nul(text)
    return text


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _parse_datetime(text: str) -> datetime:
    try:
        value = iso_datetime(text)
    except ValueError:
        raise ConfigError(f"not an ISO date-time: {text!r}")
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    return value


def _parse_date(text: str) -> date:
    try:
        return iso_date(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_paths(text: str) -> tuple[str, ...]:
    _refuse_nul(text)
    paths = tuple(p.strip() for p in text.split(",") if p.strip())
    if not paths:
        raise ConfigError(f"no path given: {text!r}")
    return paths


class _Settings:
    """Every setting of a run, in field order, with its type and default."""

    # inputs
    catalog: str | None = None
    network_catalogs: tuple[str, ...] = ()
    edges: str | None = None
    logs: tuple[str, ...] = ()
    link_map: str | None = None
    cross_links: str | None = None
    site_map: str | None = None
    taxonomy: str | None = None
    bot_list: str | None = None
    output_dir: str = "out"
    # identity and period
    portal_id: str = "portal"
    site: str | None = None
    period_start: datetime | None = None
    period_end: datetime | None = None
    bucket_days: float = 1.0
    reference_date: date | None = None
    # thresholds
    session_timeout_minutes: float = DEFAULT_SESSION_TIMEOUT / _MINUTE
    gap_threshold: float = DEFAULT_GAP_THRESHOLD
    growth_threshold: float = DEFAULT_GROWTH_THRESHOLD
    bridge_score_threshold: float = DEFAULT_BRIDGE_SCORE_THRESHOLD
    bridge_min_communities: int = DEFAULT_BRIDGE_MIN_COMMUNITIES
    authority_percentile: float = DEFAULT_DEGREE_PERCENTILE
    hub_percentile: float = DEFAULT_DEGREE_PERCENTILE
    distance_k: int | None = None
    linearity_band: float = DEFAULT_LINEARITY_BAND
    compare_margin: float = DEFAULT_COMPARE_MARGIN
    # reproducibility
    seed: int = 0
    use_auth_user: bool = True


class RunConfig(namedtuple("RunConfig", _Settings.__annotations__,
                           defaults=[vars(_Settings)[name]
                                     for name in _Settings.__annotations__])):
    """Everything a pipeline run needs, one field per setting of
    :class:`_Settings`; None paths mean 'not provided'."""

    __slots__ = ()

    def validate(self) -> None:
        checks = [
            (self.bucket_days > 0, "bucket_days must be positive"),
            (self.session_timeout_minutes > 0,
             "session_timeout_minutes must be positive"),
            (0 < self.gap_threshold < 1, "gap_threshold must lie in (0, 1)"),
            (self.growth_threshold > 0, "growth_threshold must be positive"),
            (0 < self.bridge_score_threshold <= 1,
             "bridge_score_threshold must lie in (0, 1]"),
            (self.bridge_min_communities >= 1,
             "bridge_min_communities must be at least 1"),
            (0 <= self.authority_percentile <= 100,
             "authority_percentile must lie in [0, 100]"),
            (0 <= self.hub_percentile <= 100,
             "hub_percentile must lie in [0, 100]"),
            (self.distance_k is None or self.distance_k >= 2,
             "distance_k must be at least 2"),
            (0 < self.linearity_band <= 1,
             "linearity_band must lie in (0, 1]"),
            (self.compare_margin >= 0, "compare_margin cannot be negative"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        for name, unit in (("bucket_days", "days"),
                           ("session_timeout_minutes", "minutes")):
            try:
                timedelta(**{unit: getattr(self, name)})
            except OverflowError:
                raise ConfigError(f"{name} is longer than a time span can be "
                                  f"({timedelta.max.days} days)") from None
        if (self.period_start is None) != (self.period_end is None):
            raise ConfigError("period_start and period_end come as a pair")
        bucket = timedelta(days=self.bucket_days)
        if bucket < _MICROSECOND:
            raise ConfigError("bucket_days must be at least one microsecond "
                              f"({_MICROSECOND / timedelta(days=1):.3g} days)")
        if self.period_start is None:
            return
        if self.period_start >= self.period_end:
            raise ConfigError("period_start must precede period_end")
        buckets = -(-(self.period_end - self.period_start) // bucket)
        if buckets > MAX_BUCKETS:
            raise ConfigError(f"bucket_days = {self.bucket_days} cuts the period "
                              f"into {buckets} buckets; at most {MAX_BUCKETS} "
                              "are allowed")
        # The diagnostics list the start of every bucket as a date-time.
        try:
            self.period_start + (buckets - 1) * bucket
        except OverflowError:
            raise ConfigError(
                "period_end: the last bucket of the period would start "
                f"after {datetime.max.isoformat()}") from None

    def period(self) -> AnalysisPeriod:
        if self.period_start is None or self.period_end is None:
            raise ConfigError("this command needs period_start and period_end")
        return AnalysisPeriod(start=self.period_start, end=self.period_end,
                              bucket=timedelta(days=self.bucket_days))

    def session_timeout(self) -> timedelta:
        return timedelta(minutes=self.session_timeout_minutes)

    def reference(self) -> date:
        if self.reference_date is not None:
            return self.reference_date
        if self.period_end is not None:
            return self.period_end.date()
        raise ConfigError("reference_date (or a period) is required here")

    def thresholds_metadata(self) -> dict:
        """The methodology echo embedded in every report; the comparability
        guard tests these for equality, so key set and types stay stable."""
        return {
            "session_timeout_minutes": self.session_timeout_minutes,
            "bucket_days": self.bucket_days,
            "gap_threshold": self.gap_threshold,
            "growth_threshold": self.growth_threshold,
            "bridge_score_threshold": self.bridge_score_threshold,
            "bridge_min_communities": self.bridge_min_communities,
            "authority_percentile": self.authority_percentile,
            "hub_percentile": self.hub_percentile,
            "distance_k": self.distance_k,
            "linearity_band": self.linearity_band,
        }


# The parser of each field type of RunConfig, by its annotation.
_TYPE_PARSERS = {
    "str": _parse_text,
    "str | None": _parse_text,
    "tuple[str, ...]": _parse_paths,
    "datetime | None": _parse_datetime,
    "date | None": _parse_date,
    "float": _parse_float,
    "int": int,
    "int | None": int,
    "bool": _parse_bool,
}

# Each setting's parser, in field order, from the text of its annotation
# in _Settings; a field type with no parser fails here, at import.
_FIELD_PARSERS = {name: _TYPE_PARSERS[annotation]
                  for name, annotation in _Settings.__annotations__.items()}


def _parse_value(key: str, text: str, where: str):
    """One setting's text, stripped, as its typed value; an error names
    ``where``."""
    text = text.strip()
    try:
        return _FIELD_PARSERS[key](text)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    except (ValueError, TypeError):
        raise ConfigError(f"{where}: bad value for {key}: {text!r}") from None


def parse_config_lines(lines) -> dict:
    """key = value lines into a typed mapping; # starts a comment. An
    error names its line; a key set twice, once both values parse, names
    both lines."""
    values: dict = {}
    lines_of: dict[str, int] = {}
    for lineno, line in data_lines(lines):
        where = f"line {lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"{where}: unknown setting {key!r}")
        value = _parse_value(key, value, where)
        if key in lines_of:
            raise ConfigError(f"{where}: setting {key!r} is already set on "
                              f"line {lines_of[key]}")
        lines_of[key] = lineno
        values[key] = value
    return values


def parse_flags(flags: dict[str, str]) -> dict:
    """Command-line flag values, as text keyed by setting name, into a
    typed mapping; each value is parsed as the same line in a config file
    would be, and an error names the flag."""
    return {key: _parse_value(key, text, "--" + key.replace("_", "-"))
            for key, text in flags.items()}


def load_config(path) -> dict:
    """The typed settings of the config file at ``path``."""
    with opened(path, "config") as lines:
        return parse_config_lines(lines)


def build_config(file_path=None, overrides: dict | None = None) -> RunConfig:
    """Assemble the effective config: defaults, then file, then overrides."""
    config = RunConfig()
    if file_path is not None:
        config = config._replace(**load_config(file_path))
    if overrides:
        unknown = set(overrides) - set(_FIELD_PARSERS)
        if unknown:
            raise ConfigError(f"unknown settings: {', '.join(sorted(unknown))}")
        config = config._replace(**overrides)
    config.validate()
    return config
