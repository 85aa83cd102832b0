"""Command-line driver: one subcommand per pipeline stage.

Exit codes: 0 success, 1 domain errors (bad data semantics, refused
comparisons), 2 format and configuration errors (unparseable inputs,
missing files, invalid settings). Every tunable comes from defaults, then
an optional key = value config file, then command-line flags, in that
order of precedence. Outputs are canonical JSON with no timestamps, so
identical inputs and settings give byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import catalog as catalog_mod
from . import position as position_mod
from . import report as report_mod
from . import segmentation as segmentation_mod
from . import structure as structure_mod
from . import usage as usage_mod
from .config import RunConfig, _FIELD_PARSERS, build_config, parse_flags
from .errors import ConfigError, DomainError, FormatError
from .inputs import opened


def _require(cfg: RunConfig, field: str):
    value = getattr(cfg, field)
    if value is None or value == ():
        raise ConfigError(f"this command needs the {field!r} input "
                          f"(flag --{field.replace('_', '-')})")
    return value


def _write_output(cfg: RunConfig, name: str, data: bytes) -> str:
    path = os.path.join(cfg.output_dir, name)
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc.strerror}")
    return path


def _emit(document) -> None:
    sys.stdout.write(report_mod.canonical_json(document).decode("utf-8"))


def _load_catalog(cfg: RunConfig) -> catalog_mod.ParsedCatalog:
    with opened(_require(cfg, "catalog"), "catalog") as lines:
        return catalog_mod.parse_catalog(lines)


def _load_taxonomy(cfg: RunConfig) -> catalog_mod.TopicTaxonomy | None:
    if cfg.taxonomy is None:
        return None
    with opened(cfg.taxonomy, "taxonomy") as lines:
        return catalog_mod.TopicTaxonomy.from_lines(lines)


def _load_site_graph(cfg: RunConfig):
    with opened(_require(cfg, "edges"), "edge list") as lines:
        return structure_mod.build_site_graph(lines)


def _log_lines(paths):
    """Lines of every log in turn; a read failure names its file."""
    for path in paths:
        try:
            yield from usage_mod.read_log_lines([path])
        except (OSError, EOFError) as exc:  # EOFError: a truncated .gz log
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"cannot read log file {path}: {reason}")


def _load_sessions(cfg: RunConfig):
    """Ingest the logs line by line, keeping only human page views, and
    sessionize them.

    Returns (sessions, tallies) where tallies records what was dropped on
    the way; those counts go to local diagnostics only.
    """
    signatures = None
    if cfg.bot_list is not None:
        with opened(cfg.bot_list, "bot signature list") as lines:
            signatures = usage_mod.parse_signatures(lines)
    tally = usage_mod.IngestTally()
    views = usage_mod.ingest(_log_lines(_require(cfg, "logs")), tally,
                             use_auth_user=cfg.use_auth_user,
                             signatures=signatures)
    sessions = usage_mod.sessionize(views, cfg.session_timeout())
    tallies = {
        "log_lines": tally.total_lines,
        "malformed_lines": tally.malformed,
        "bot_entries": tally.bot_entries,
        "non_page_view_entries": tally.non_page_view_entries,
        "sessions": len(sessions),
    }
    return sessions, tallies


def _provision_summary(cfg: RunConfig, parsed, taxonomy, sessions, period):
    """The provision section of a report, plus the flags explaining
    whatever it lacks.

    Accessed diversity is given twice, weighted by views and by unique
    visitors, because both readings of "resources accessed" are
    defensible. A field is None, or a list empty, when its data was not
    supplied. ``period`` is read only when ``sessions`` is given.
    """
    flags: list[str] = []
    records = parsed.records
    offered = catalog_mod.offer_distribution(records)
    entropy, evenness = catalog_mod.shannon_diversity(offered)
    section = {
        "diversity_offered_nats": entropy,
        "evenness_offered": evenness,
        "diversity_accessed_by_visits_nats": None,
        "diversity_accessed_by_visitors_nats": None,
        "richness": None,
        "average_age_days": None,
        "high_demand_low_offer": [],
        "high_offer_low_demand": [],
    }
    if taxonomy is not None:
        section["richness"], unknown = catalog_mod.richness(records, taxonomy)
        if unknown:
            flags.append("topics_outside_taxonomy")
    else:
        flags.append("no_taxonomy")
    section["average_age_days"] = catalog_mod.average_age(records,
                                                          cfg.reference())

    if sessions is not None and cfg.link_map is not None:
        with opened(cfg.link_map, "link map") as lines:
            path_map = usage_mod.parse_link_map(lines)
        try:
            by_views, by_visitors, uncatalogued = \
                usage_mod.accessed_distribution(sessions, records, path_map,
                                                period)
        except DomainError:
            flags.append("accessed_join_empty")
        else:
            section["diversity_accessed_by_visits_nats"] = \
                catalog_mod.shannon_diversity(by_views)[0]
            section["diversity_accessed_by_visitors_nats"] = \
                catalog_mod.shannon_diversity(by_visitors)[0]
            high_demand, high_offer = catalog_mod.demand_offer_gap(
                offered, by_views, cfg.gap_threshold)
            section["high_demand_low_offer"] = list(high_demand)
            section["high_offer_low_demand"] = list(high_offer)
            if uncatalogued:
                flags.append("uncatalogued_views_present")
    else:
        flags.append("no_accessed_distribution")
    return section, flags


def cmd_catalog(cfg: RunConfig) -> int:
    parsed = _load_catalog(cfg)
    taxonomy = _load_taxonomy(cfg)
    provision, flags = _provision_summary(cfg, parsed, taxonomy, None, None)
    _emit({
        "kind": "catalog-metrics",
        "portal_id": cfg.portal_id,
        "records": len(parsed.records),
        "duplicates_dropped": parsed.duplicates_dropped,
        "malformed_rows": len(parsed.row_errors),
        "provision": provision,
        "flags": sorted(flags),
    })
    return 0


def cmd_structure(cfg: RunConfig) -> int:
    graph, tally = _load_site_graph(cfg)
    profile = structure_mod.organization_profile(graph, K=cfg.distance_k)
    _emit({
        "kind": "organization-profile",
        "portal_id": cfg.portal_id,
        "pages": graph.n,
        "links": len(graph.edges),
        "self_loops_dropped": tally.self_loops_dropped,
        "parallel_links_collapsed": tally.parallel_edges_collapsed,
        "organization": report_mod.organization_section(profile),
    })
    return 0


def _write_diagnostics(cfg: RunConfig, period, sessions, tallies, demand,
                       navigation) -> dict:
    """Build the local diagnostics, write them and say so on stderr."""
    diagnostics = report_mod.build_diagnostics(
        cfg.portal_id, period, demand=demand,
        recency_result=usage_mod.recency(sessions, period),
        activity=usage_mod.activity_level(sessions) if sessions else None,
        session_count=len(sessions), navigation=navigation, tallies=tallies,
    )
    path = _write_output(cfg, f"{cfg.portal_id}.diagnostics.json",
                         report_mod.canonical_json(diagnostics))
    sys.stderr.write(f"local diagnostics written to {path}; "
                     "this file is not for sharing\n")
    return diagnostics


def cmd_usage(cfg: RunConfig) -> int:
    period = cfg.period()
    sessions, tallies = _load_sessions(cfg)
    _emit(_write_diagnostics(
        cfg, period, sessions, tallies,
        usage_mod.overall_demand(sessions, period),
        usage_mod.summarize_navigation(sessions, cfg.linearity_band)))
    return 0


def _position_profile(cfg: RunConfig):
    site_map = None
    if cfg.site_map is not None:
        with opened(cfg.site_map, "site map") as lines:
            site_map = usage_mod.parse_link_map(lines)
    with opened(_require(cfg, "cross_links"), "cross-site link") as lines:
        graph, tally = position_mod.build_cross_site_graph(lines, site_map)
    site = _require(cfg, "site")
    communities = position_mod.detect_communities(graph, seed=cfg.seed)
    profile = position_mod.position_profile(graph, site, communities,
                                            cfg.position_thresholds())
    return profile, communities, graph, tally


def cmd_position(cfg: RunConfig) -> int:
    profile, communities, graph, tally = _position_profile(cfg)
    _emit({
        "kind": "position-profile",
        "portal_id": cfg.portal_id,
        "sites": len(graph.sites),
        "site_links": graph.edge_count,
        "communities": communities.community_count,
        "community_algorithm": communities.algorithm,
        "community_seed": communities.seed,
        "converged": communities.converged,
        "intra_site_dropped": tally.intra_site_dropped,
        "domain_fallbacks": tally.domain_fallbacks,
        "malformed_lines": tally.malformed_lines,
        "position": report_mod.position_section(profile),
    })
    return 0


def _network_sizes(cfg: RunConfig, parsed=None):
    """Relative sizes over every portal catalog in the network, counted
    from the (portal_id, identifier) pair of each row the catalog parser
    would keep, one file at a time; no record is built for them.

    ``parsed``, when given, is the portal's own catalog, already parsed; a
    network catalog at the same path is counted from its records instead
    of being read again. A catalog format error names its file.
    """
    own = os.path.abspath(cfg.catalog) if parsed is not None else None

    def keys():
        for path in _require(cfg, "network_catalogs"):
            if os.path.abspath(path) == own:
                yield from ((r.portal_id, r.identifier) for r in parsed.records)
                continue
            with opened(path, "network catalog") as lines:
                yield from catalog_mod.content_keys(lines)
    per_portal, network_total = catalog_mod.content_counts(keys())
    ratios = segmentation_mod.relative_size(per_portal, network_total)
    return ratios, *segmentation_mod.size_class(ratios)


def _segmentation_parts(cfg: RunConfig, demand, parsed=None):
    """The portal's segmentation section, plus the size class of every
    portal in the network and the network's flags."""
    slope = segmentation_mod.demand_trend(demand)
    dynamics = segmentation_mod.dynamics_class(slope, cfg.growth_threshold)
    ratios, classes, network_flags = _network_sizes(cfg, parsed)
    if cfg.portal_id not in ratios:
        raise ConfigError(
            f"portal {cfg.portal_id!r} does not appear in the network "
            "catalogs; cannot compute its relative size"
        )
    label = segmentation_mod.segment(dynamics, classes[cfg.portal_id])
    section = report_mod.segmentation_section(slope, ratios[cfg.portal_id],
                                              label)
    return section, classes, network_flags


def cmd_segment(cfg: RunConfig) -> int:
    sessions, _tallies = _load_sessions(cfg)
    demand = usage_mod.overall_demand(sessions, cfg.period())
    section, classes, network_flags = _segmentation_parts(cfg, demand)
    _emit({
        "kind": "segmentation",
        "portal_id": cfg.portal_id,
        "segmentation": section,
        "network_size_classes": classes,
        "network_flags": list(network_flags),
    })
    return 0


def cmd_report(cfg: RunConfig) -> int:
    """Full pipeline for one portal; writes report + local diagnostics."""
    period = cfg.period()  # the report needs it even without logs
    flags: list[str] = []
    provision = organization = position = segmentation = None
    sessions = parsed = None
    tallies: dict = {}
    navigation = demand = None

    if cfg.logs:
        sessions, tallies = _load_sessions(cfg)
        demand = usage_mod.overall_demand(sessions, period)

    if cfg.catalog is not None:
        parsed = _load_catalog(cfg)
        taxonomy = _load_taxonomy(cfg)
        provision, provision_flags = _provision_summary(cfg, parsed, taxonomy,
                                                        sessions, period)
        flags.extend(provision_flags)

    if cfg.edges is not None:
        graph, _tally = _load_site_graph(cfg)
        profile = structure_mod.organization_profile(graph, K=cfg.distance_k)
        if sessions is not None:
            navigation = usage_mod.summarize_navigation(sessions,
                                                        cfg.linearity_band)
        organization = report_mod.organization_section(profile, navigation)

    communities = None
    if cfg.cross_links is not None and cfg.site is not None:
        profile, communities, _graph, _cross_tally = _position_profile(cfg)
        position = report_mod.position_section(profile)

    if sessions is not None and cfg.network_catalogs:
        segmentation, _classes, _flags = _segmentation_parts(cfg, demand,
                                                             parsed)

    algorithms = {
        "visitor_key": usage_mod.visitor_key_method(cfg.use_auth_user),
    }
    if communities is not None:
        algorithms["community"] = communities.algorithm
        algorithms["community_seed"] = communities.seed

    portal_report = report_mod.assemble_report(
        cfg.portal_id, period,
        provision=provision, organization=organization,
        position=position, segmentation=segmentation,
        thresholds=cfg.thresholds_metadata(),
        algorithms=algorithms, flags=sorted(set(flags)),
    )
    data = report_mod.serialize(portal_report)
    path = _write_output(cfg, f"{cfg.portal_id}.report.json", data)

    if sessions is not None:
        _write_diagnostics(cfg, period, sessions, tallies, demand, navigation)
    sys.stdout.write(data.decode("utf-8"))
    sys.stderr.write(f"report written to {path}\n")
    return 0


def cmd_compare(cfg: RunConfig, report_paths) -> int:
    reports = []
    for path in report_paths:
        with opened(path, "report") as lines:
            reports.append(report_mod.deserialize("".join(lines)))
    comparison = report_mod.compare_within_segment(reports, cfg.compare_margin)
    _write_output(cfg, "comparison.json", comparison.to_json())
    sys.stdout.write(comparison.to_text())
    return 0


def cmd_gen(cfg: RunConfig, demo_dir: str) -> int:
    from .fixtures import write_demo_network

    layout = write_demo_network(demo_dir)
    _emit({
        "kind": "demo-network",
        "root": layout["root"],
        "taxonomy": layout["taxonomy"],
        "cross_links": layout["cross_links"],
        "configs": {p: info["config"] for p, info in layout["portals"].items()},
    })
    return 0


# Each setting's flag, and every option string a subcommand accepts.
_FLAGS = {"--" + name.replace("_", "-"): name for name in _FIELD_PARSERS}
_VALUE_OPTIONS = frozenset(("--config", *_FLAGS))
_OPTIONS = frozenset(("-h", "--help", *_VALUE_OPTIONS))


def _glue_flag_values(argv: list[str]) -> list[str]:
    """``argv`` with each value-taking flag joined to the value after it as
    ``flag=value``, unless that value is a bare ``--`` or an option itself,
    with or without an ``=value``.

    argparse reads a token that begins with "-" and is not a plain
    negative number as an option, so ``--bucket-days -inf`` would end in
    "expected one argument" before the value reached its parser. Flags are
    matched by their full names only; the parsers accept no abbreviation.
    Nothing after a bare ``--`` is touched.
    """
    glued: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--":
            return glued + argv[i:]
        i += 1
        if (token in _VALUE_OPTIONS and i < len(argv) and argv[i] != "--"
                and argv[i].split("=", 1)[0] not in _OPTIONS):
            token = f"{token}={argv[i]}"
            i += 1
        glued.append(token)
    return glued


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portalmetrics", allow_abbrev=False,
        description="Management and segmentation metrics for networks of "
                    "educational web portals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "catalog": "content provision metrics from a catalog export",
        "structure": "site organization metrics from an edge list",
        "usage": "demand metrics from access logs (local diagnostics)",
        "position": "cross-site standing of one portal",
        "segment": "typology quadrant for one portal",
        "report": "full pipeline: assemble the shareable report",
        "compare": "within-segment comparison of shareable reports",
        "gen": "generate the synthetic two-portal demo workspace",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="key = value settings file")
        for flag, field_name in _FLAGS.items():
            p.add_argument(flag, dest=field_name, metavar="VALUE")
        if name == "compare":
            p.add_argument("reports", nargs="+",
                           help="shareable report JSON files")
        if name == "gen":
            p.add_argument("demo_dir", help="directory for the demo network")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _glue_flag_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        flags = {name: getattr(args, name) for name in _FIELD_PARSERS
                 if getattr(args, name) is not None}
        cfg = build_config(args.config, parse_flags(flags))
        if args.command == "catalog":
            return cmd_catalog(cfg)
        if args.command == "structure":
            return cmd_structure(cfg)
        if args.command == "usage":
            return cmd_usage(cfg)
        if args.command == "position":
            return cmd_position(cfg)
        if args.command == "segment":
            return cmd_segment(cfg)
        if args.command == "report":
            return cmd_report(cfg)
        if args.command == "compare":
            return cmd_compare(cfg, args.reports)
        if args.command == "gen":
            return cmd_gen(cfg, args.demo_dir)
        parser.error(f"unknown command {args.command!r}")
    except FormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
