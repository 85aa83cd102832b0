"""Command-line driver: one subcommand per pipeline stage.

Exit codes: 0 success, 1 domain errors (bad data semantics, refused
comparisons), 2 format and configuration errors (unparseable inputs,
missing files, invalid settings). Every tunable comes from defaults, then
an optional key = value config file, then command-line flags, in that
order of precedence. Outputs are canonical JSON with no timestamps, so
identical inputs and settings give byte-identical files.

``report`` uses up to two cores (see :func:`cmd_report`). One worker
process reads every input but the logs and the bot list that filters
them: the catalog, the taxonomy, the link map, the edge list, the cross
links and the network catalogs, the own catalog again if they list it.
It sends the offered provision, organization, position and network
sizes, with the topic of each linked request path for the catalog's
records, or the package error that stopped them. Meanwhile this process
reads the logs and measures demand, its trend and navigation; it then
counts the topics viewed, segments the portal and writes the outputs.
The other commands run in one process.
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
        parsed = catalog_mod.parse_catalog(lines)
        if not parsed.records:
            raise DomainError("catalog holds no usable row ("
                              f"{len(parsed.row_errors)} skipped as malformed)")
    return parsed


def _load_taxonomy(cfg: RunConfig) -> tuple[str, ...] | None:
    if cfg.taxonomy is None:
        return None
    with opened(cfg.taxonomy, "taxonomy") as lines:
        return catalog_mod.parse_taxonomy(lines)


def _load_site_graph(cfg: RunConfig):
    with opened(_require(cfg, "edges"), "edge list") as lines:
        return structure_mod.build_site_graph(lines)


def _load_sessions(cfg: RunConfig):
    """Ingest the logs line by line, keeping only human page views, and
    sessionize them.

    Returns (sessions, tallies): ingest's counts and the session count,
    which go to local diagnostics only.
    """
    signatures = None
    if cfg.bot_list is not None:
        with opened(cfg.bot_list, "bot signature list") as lines:
            signatures = usage_mod.parse_signatures(lines)
    views, counts = usage_mod.ingest(
        usage_mod.read_log_lines(_require(cfg, "logs")),
        use_auth_user=cfg.use_auth_user, signatures=signatures)
    sessions = usage_mod.sessionize(views, cfg.session_timeout())
    return sessions, {**counts, "sessions": len(sessions)}


def _offer_provision(cfg: RunConfig, parsed, taxonomy):
    """The provision section of a report as far as the catalog alone
    gives it, the flags explaining whatever it lacks so far, and the
    offer distribution that :func:`_add_accessed` sets demand against.

    A field is None, or a list empty, when its data was not supplied.
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
    return section, flags, offered


def _add_accessed(cfg: RunConfig, section: dict, flags: list, offered,
                  sessions, topics, period) -> None:
    """Fill in the accessed fields of a provision section from the
    sessions and the catalog ``topics`` by request path, or add the flag
    that says why they stay empty.

    Accessed diversity is given twice, weighted by views and by unique
    visitors, because both readings of "resources accessed" are
    defensible. ``topics`` is None when there are no logs or no link map;
    ``sessions`` and ``period`` are read only when it is given.
    """
    if topics is None:
        flags.append("no_accessed_distribution")
        return
    try:
        by_views, by_visitors, uncatalogued = \
            usage_mod.accessed_distribution(sessions, topics, period)
    except DomainError:
        flags.append("accessed_join_empty")
        return
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


def cmd_catalog(cfg: RunConfig) -> int:
    parsed = _load_catalog(cfg)
    provision, flags, _ = _offer_provision(cfg, parsed, _load_taxonomy(cfg))
    flags.append("no_accessed_distribution")
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
    graph, dropped = _load_site_graph(cfg)
    organization = structure_mod.organization_profile(graph, K=cfg.distance_k)
    organization["navigation"] = None
    _emit({
        "kind": "organization-profile",
        "portal_id": cfg.portal_id,
        "pages": graph.n,
        "links": len(graph.edges),
        **dropped,
        "organization": organization,
    })
    return 0


def _write_diagnostics(cfg: RunConfig, period, sessions, tallies, demand,
                       navigation_sessions) -> dict:
    """Build the local diagnostics of the ``sessions`` that start in the
    period, write them and say so on stderr."""
    diagnostics = report_mod.build_diagnostics(
        cfg.portal_id, period, demand=demand,
        recency=usage_mod.recency(sessions, period),
        activity=usage_mod.activity_level(sessions) if sessions else None,
        session_count=len(sessions), navigation_sessions=navigation_sessions,
        tallies=tallies,
    )
    path = _write_output(cfg, f"{cfg.portal_id}.diagnostics.json",
                         report_mod.canonical_json(diagnostics))
    sys.stderr.write(f"local diagnostics written to {path}; "
                     "this file is not for sharing\n")
    return diagnostics


def cmd_usage(cfg: RunConfig) -> int:
    period = cfg.period()
    sessions, tallies = _load_sessions(cfg)
    started = usage_mod.sessions_in(sessions, period)
    _navigation, measured, skipped = usage_mod.summarize_navigation(
        started, cfg.linearity_band)
    _emit(_write_diagnostics(
        cfg, period, started, tallies,
        usage_mod.overall_demand(started, period), (measured, skipped)))
    return 0


def _position_profile(cfg: RunConfig):
    site_map = None
    if cfg.site_map is not None:
        with opened(cfg.site_map, "site map") as lines:
            site_map = usage_mod.parse_link_map(lines)
    with opened(_require(cfg, "cross_links"), "cross-site link") as lines:
        graph, dropped = position_mod.build_cross_site_graph(lines, site_map)
    site = _require(cfg, "site")
    communities = position_mod.detect_communities(graph, seed=cfg.seed)
    section = position_mod.position_profile(
        graph, site, communities,
        bridge_score_threshold=cfg.bridge_score_threshold,
        bridge_min_communities=cfg.bridge_min_communities,
        authority_percentile=cfg.authority_percentile,
        hub_percentile=cfg.hub_percentile)
    return section, communities, graph, dropped


def cmd_position(cfg: RunConfig) -> int:
    section, communities, graph, dropped = _position_profile(cfg)
    _emit({
        "kind": "position-profile",
        "portal_id": cfg.portal_id,
        "sites": len(graph.sites),
        "site_links": graph.edge_count,
        "communities": communities.community_count,
        "community_algorithm": communities.algorithm,
        "community_seed": communities.seed,
        "converged": communities.converged,
        **dropped,
        "position": section,
    })
    return 0


def _network_sizes(cfg: RunConfig):
    """Relative sizes over every portal catalog in the network, the own
    one too if listed, counted from the (portal_id, identifier) pair of
    each row the catalog parser would keep, one file at a time; no record
    is built for them. A catalog format error names its file; catalogs
    with no usable row between them name the setting."""
    def keys():
        for path in _require(cfg, "network_catalogs"):
            with opened(path, "network catalog") as lines:
                yield from catalog_mod.content_keys(lines)
    per_portal, network_total = catalog_mod.content_counts(keys())
    if not per_portal:
        raise DomainError("no file of network_catalogs holds a usable row")
    ratios = segmentation_mod.relative_size(per_portal, network_total)
    return ratios, *segmentation_mod.size_class(ratios)


def _segmentation_parts(cfg: RunConfig, slope, sizes):
    """The portal's segmentation section, plus the size class of every
    portal in the network and the network's flags, from the relative
    demand ``slope`` and the network ``sizes`` of :func:`_network_sizes`."""
    ratios, classes, network_flags = sizes
    if cfg.portal_id not in ratios:
        raise ConfigError(
            f"portal {cfg.portal_id!r} does not appear in the network "
            "catalogs; cannot compute its relative size"
        )
    section = segmentation_mod.segment(slope, ratios[cfg.portal_id],
                                       classes[cfg.portal_id],
                                       cfg.growth_threshold)
    return section, classes, network_flags


def cmd_segment(cfg: RunConfig) -> int:
    sessions, _tallies = _load_sessions(cfg)
    demand = usage_mod.overall_demand(sessions, cfg.period())
    slope = segmentation_mod.demand_trend(demand)
    section, classes, network_flags = _segmentation_parts(
        cfg, slope, _network_sizes(cfg))
    _emit({
        "kind": "segmentation",
        "portal_id": cfg.portal_id,
        "segmentation": section,
        "network_size_classes": classes,
        "network_flags": list(network_flags),
    })
    return 0


def _sections_without_logs(cfg: RunConfig) -> dict:
    """Every report section that reads no log, by name, computed in the
    order in which ``report`` names their errors; the first FormatError
    or DomainError stops them and is raised.

    ``report`` runs this in a worker process while it reads the logs. The
    link map is read, and the network catalogs counted, only when logs
    are given. The provision section ends in the topic of each linked
    request path, or None without a link map, so no record leaves the
    worker; the own catalog is read again if the network lists it.
    """
    sections: dict = {}
    if cfg.catalog is not None:
        parsed = _load_catalog(cfg)
        offer = _offer_provision(cfg, parsed, _load_taxonomy(cfg))
        topics = None
        if cfg.logs and cfg.link_map is not None:
            with opened(cfg.link_map, "link map") as lines:
                topics = catalog_mod.topics_by_path(
                    parsed.records, usage_mod.parse_link_map(lines))
        sections["provision"] = (*offer, topics)
    if cfg.edges is not None:
        sections["organization"] = structure_mod.organization_profile(
            _load_site_graph(cfg)[0], K=cfg.distance_k)
    if cfg.cross_links is not None and cfg.site is not None:
        sections["position"] = _position_profile(cfg)[:2]
    if cfg.logs and cfg.network_catalogs:
        sections["network"] = _network_sizes(cfg)
    return sections


def _report_worker(cfg: RunConfig, sender) -> None:
    """What ``report``'s worker process runs: it sends the sections of
    :func:`_sections_without_logs` or the package error that stopped
    them. Any other exception ends it as any failed process ends, with
    its traceback on stderr, exit code 1 and nothing sent."""
    with sender:
        try:
            message = _sections_without_logs(cfg)
        except (FormatError, DomainError) as exc:
            message = exc
        sender.send(message)


def cmd_report(cfg: RunConfig) -> int:
    """Full pipeline for one portal; writes report + local diagnostics.

    One worker process, started before any log is read, reads every input
    but the logs and computes the sections that need no log
    (:func:`_sections_without_logs`), while this one reads the logs and
    measures demand, its trend and navigation. It is a plain process with
    a one-way pipe, so no helper thread in this process competes with
    ingest; its result is read from the pipe only once this process's log
    work is done. Errors are raised in one fixed order: this process's
    own (logs, demand trend), then the first error the worker met
    (catalog, taxonomy, link map, edges, position, network catalogs),
    then segmentation. A worker that ends any other way sends nothing
    (an exception prints its traceback), and this raises a RuntimeError
    naming its exit code; no worker outlives this call.
    """
    import multiprocessing

    # Forked where the platform can fork, whatever the default start
    # method is (forkserver on Linux from Python 3.14, spawn on macOS), so
    # the worker runs the modules as they are in this process.
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
    period = cfg.period()  # the report needs it even without logs
    sessions = demand = slope = navigation = navigation_sessions = None
    tallies: dict = {}
    receiver, sender = context.Pipe(duplex=False)
    worker = context.Process(target=_report_worker, args=(cfg, sender))
    with receiver:
        with sender:
            # Started before the logs are read, so the fork copies no view.
            worker.start()
        try:
            if cfg.logs:
                sessions, tallies = _load_sessions(cfg)
                started = usage_mod.sessions_in(sessions, period)
                demand = usage_mod.overall_demand(started, period)
                if cfg.network_catalogs:
                    slope = segmentation_mod.demand_trend(demand)
                if cfg.edges is not None:
                    navigation, measured, skipped = \
                        usage_mod.summarize_navigation(started,
                                                       cfg.linearity_band)
                    navigation_sessions = (measured, skipped)
            try:
                sections = receiver.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(
                    f"report's worker process exited with code "
                    f"{worker.exitcode} before sending its result") from None
        finally:
            if worker.is_alive():
                worker.terminate()
            worker.join()
    if isinstance(sections, Exception):
        raise sections

    flags: list[str] = []
    provision = organization = segmentation = None
    if "provision" in sections:
        provision, flags, offered, topics = sections["provision"]
        _add_accessed(cfg, provision, flags, offered, sessions, topics,
                      period)

    if "organization" in sections:
        organization = sections["organization"]
        organization["navigation"] = navigation

    position, communities = sections.get("position", (None, None))

    if "network" in sections:
        segmentation = _segmentation_parts(cfg, slope, sections["network"])[0]

    algorithms = {
        "visitor_key": usage_mod.visitor_key_method(cfg.use_auth_user),
    }
    if communities is not None:
        algorithms["community"] = communities.algorithm
        algorithms["community_seed"] = communities.seed

    document = report_mod.assemble_report(
        cfg.portal_id, period,
        provision=provision, organization=organization,
        position=position, segmentation=segmentation,
        thresholds=cfg.thresholds_metadata(),
        algorithms=algorithms, flags=sorted(set(flags)),
    )
    data = report_mod.serialize(document)
    path = _write_output(cfg, f"{cfg.portal_id}.report.json", data)

    if sessions is not None:
        _write_diagnostics(cfg, period, started, tallies, demand,
                           navigation_sessions)
    sys.stdout.write(data.decode("utf-8"))
    sys.stderr.write(f"report written to {path}\n")
    return 0


def cmd_compare(cfg: RunConfig, report_paths) -> int:
    reports = []
    for path in report_paths:
        with opened(path, "report") as lines:
            reports.append(report_mod.deserialize("".join(lines)))
    document = report_mod.compare_within_segment(reports, cfg.compare_margin)
    _write_output(cfg, "comparison.json", report_mod.canonical_json(document))
    sys.stdout.write(report_mod.comparison_text(document))
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


# Each command: its help line, its handler, and the (name, nargs, help)
# of the operand it takes after its options, if any.
_COMMANDS = {
    "catalog": ("content provision metrics from a catalog export",
                cmd_catalog, None),
    "structure": ("site organization metrics from an edge list",
                  cmd_structure, None),
    "usage": ("demand metrics from access logs (local diagnostics)",
              cmd_usage, None),
    "position": ("cross-site standing of one portal", cmd_position, None),
    "segment": ("typology quadrant for one portal", cmd_segment, None),
    "report": ("full pipeline: assemble the shareable report", cmd_report,
               None),
    "compare": ("within-segment comparison of shareable reports",
                cmd_compare, ("reports", "+", "shareable report JSON files")),
    "gen": ("generate the synthetic two-portal demo workspace", cmd_gen,
            ("demo_dir", None, "directory for the demo network")),
}

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
    for name, (help_text, _handler, operand) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="key = value settings file")
        for flag, field_name in _FLAGS.items():
            p.add_argument(flag, dest=field_name, metavar="VALUE")
        if operand is not None:
            operand_name, nargs, operand_help = operand
            p.add_argument(operand_name, nargs=nargs, help=operand_help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _glue_flag_values(sys.argv[1:] if argv is None else list(argv)))
    _help, handler, operand = _COMMANDS[args.command]
    try:
        flags = {name: getattr(args, name) for name in _FIELD_PARSERS
                 if getattr(args, name) is not None}
        cfg = build_config(args.config, parse_flags(flags))
        if operand is None:
            return handler(cfg)
        return handler(cfg, getattr(args, operand[0]))
    except FormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
