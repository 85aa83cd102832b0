"""Management and segmentation metrics for networks of educational portals.

Submodules:
  catalog       content provision: diversity, richness, age, demand gaps
  structure     site organization: depth, density, navigability, linearity
  usage         access logs: sessions, demand, recency, navigation
  position      cross-site standing: degrees, communities, bridges
  segmentation  growth/size typology quadrants
  report        shareable reports and within-segment comparison
  fixtures      deterministic synthetic inputs with planted ground truth
  inputs        opening side files, and the line rules they share
  config, cli   configuration and the command-line driver

Every input file but the access logs is opened by ``inputs.opened`` and
parsed line by line; the parsers take lines, not whole texts.
"""

from .errors import (
    ComparabilityError,
    ConfigError,
    DomainError,
    FormatError,
    PortalMetricsError,
    ReportValidationError,
)
from .report import TOOL_VERSION as __version__

__all__ = [
    "__version__",
    "PortalMetricsError",
    "DomainError",
    "FormatError",
    "ConfigError",
    "ComparabilityError",
    "ReportValidationError",
]
