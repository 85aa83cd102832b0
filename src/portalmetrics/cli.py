"""Command-line driver: one subcommand per pipeline stage.

Exit codes: 0 success, 1 domain errors (bad data semantics, refused
comparisons), 2 format and configuration errors (unparseable inputs,
missing files, invalid settings). Every tunable comes from defaults, then
an optional key = value config file, then command-line flags, in that
order of precedence. Outputs are canonical JSON with no timestamps, so
identical inputs and settings give byte-identical files.

``report`` uses up to two cores. One worker process parses the catalog and
the taxonomy, the edge list, the cross links and the network catalogs, and
computes the offered provision, organization, position and network sizes.
Meanwhile this process reads the logs and measures demand and navigation;
it then joins the logs to the catalog, segments the portal and writes the
outputs. The worker is a plain ``multiprocessing.Process``, started before
any log is read, with a one-way pipe back: no helper thread runs here to
compete with ingest for the interpreter lock, and the worker's result is
read from the pipe only after this process's log work. The other commands
run in one process.
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
                  records, sessions, period) -> None:
    """Fill in the accessed fields of a provision section from the
    sessions and the link map, or add the flag that says why they stay
    empty.

    Accessed diversity is given twice, weighted by views and by unique
    visitors, because both readings of "resources accessed" are
    defensible. ``period`` is read only when ``sessions`` is given.
    """
    if sessions is None or cfg.link_map is None:
        flags.append("no_accessed_distribution")
        return
    with opened(cfg.link_map, "link map") as lines:
        path_map = usage_mod.parse_link_map(lines)
    try:
        by_views, by_visitors, uncatalogued = \
            usage_mod.accessed_distribution(sessions, records, path_map,
                                            period)
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
    provision, flags, offered = _offer_provision(cfg, parsed,
                                                 _load_taxonomy(cfg))
    _add_accessed(cfg, provision, flags, offered, parsed.records, None, None)
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
    organization = structure_mod.organization_profile(graph, K=cfg.distance_k)
    organization["navigation"] = None
    _emit({
        "kind": "organization-profile",
        "portal_id": cfg.portal_id,
        "pages": graph.n,
        "links": len(graph.edges),
        "self_loops_dropped": tally.self_loops_dropped,
        "parallel_links_collapsed": tally.parallel_edges_collapsed,
        "organization": organization,
    })
    return 0


def _write_diagnostics(cfg: RunConfig, period, sessions, tallies, demand,
                       navigation_sessions) -> dict:
    """Build the local diagnostics, write them and say so on stderr."""
    diagnostics = report_mod.build_diagnostics(
        cfg.portal_id, period, demand=demand,
        recency_result=usage_mod.recency(sessions, period),
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
    _navigation, measured, skipped = usage_mod.summarize_navigation(
        sessions, cfg.linearity_band)
    _emit(_write_diagnostics(
        cfg, period, sessions, tallies,
        usage_mod.overall_demand(sessions, period), (measured, skipped)))
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
    section = position_mod.position_profile(graph, site, communities,
                                            cfg.position_thresholds())
    return section, communities, graph, tally


def cmd_position(cfg: RunConfig) -> int:
    section, communities, graph, tally = _position_profile(cfg)
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
        "position": section,
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


def _sections_without_logs(cfg: RunConfig, with_network: bool):
    """Every report section that reads no log, in the order ``report``
    checks them: (the sections computed, by name; the package error that
    stopped the rest, or None).

    ``report`` runs this in a worker process while it reads the logs, and
    raises the error where its order of sections puts it. The network
    catalogs are counted only ``with_network``, reusing the own catalog's
    records, so that file is parsed once.
    """
    sections: dict = {}
    parsed = None
    try:
        if cfg.catalog is not None:
            parsed = _load_catalog(cfg)
            sections["provision"] = (parsed.records, *_offer_provision(
                cfg, parsed, _load_taxonomy(cfg)))
        if cfg.edges is not None:
            graph, _tally = _load_site_graph(cfg)
            sections["organization"] = structure_mod.organization_profile(
                graph, K=cfg.distance_k)
        if cfg.cross_links is not None and cfg.site is not None:
            sections["position"] = _position_profile(cfg)[:2]
        if with_network:
            sections["network"] = _network_sizes(cfg, parsed)
    except (FormatError, DomainError) as exc:
        return sections, exc
    return sections, None


class _WorkerTraceback(Exception):
    """The traceback text of an exception raised in ``report``'s worker
    process, chained as the cause of that exception when it is raised
    again in this one."""


def _report_worker(cfg: RunConfig, with_network: bool, sender) -> None:
    """What ``report``'s worker process runs. It sends (sections, error,
    None) from :func:`_sections_without_logs`, or (None, the exception,
    its traceback text) if that raised any other exception, and exits.
    An exception that does not survive pickling is sent as a RuntimeError
    naming its type and message."""
    import pickle
    import traceback

    try:
        message = (*_sections_without_logs(cfg, with_network), None)
    except Exception as exc:
        trace = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"report's worker raised {type(exc).__name__}:"
                               f" {exc} (the exception cannot be pickled)")
        message = (None, exc, trace)
    with sender:
        sender.send(message)


def cmd_report(cfg: RunConfig) -> int:
    """Full pipeline for one portal; writes report + local diagnostics.

    One worker process, started before any log is read, computes the
    sections that read no log (:func:`_sections_without_logs`) while this
    one reads the logs and measures demand and navigation. It is a plain
    process with a one-way pipe, so no helper thread in this process
    competes with ingest; its result is read from the pipe only once this
    process's log work is done. An error is raised in the order of
    sections below, whichever process met it: logs, catalog, taxonomy,
    link map, edges, position, demand trend, network catalogs,
    segmentation. Any other exception in the worker is raised here with
    the worker's traceback as its cause, and a worker that exits without
    a result raises a RuntimeError; no worker outlives this call.
    """
    import multiprocessing

    period = cfg.period()  # the report needs it even without logs
    sessions = demand = navigation = navigation_sessions = None
    tallies: dict = {}
    receiver, sender = multiprocessing.Pipe(duplex=False)
    worker = multiprocessing.Process(
        target=_report_worker,
        args=(cfg, bool(cfg.logs and cfg.network_catalogs), sender))
    with receiver:
        with sender:
            # Started before the logs are read, so the fork copies no view.
            worker.start()
        try:
            if cfg.logs:
                sessions, tallies = _load_sessions(cfg)
                demand = usage_mod.overall_demand(sessions, period)
                if cfg.edges is not None:
                    navigation, measured, skipped = \
                        usage_mod.summarize_navigation(sessions,
                                                       cfg.linearity_band)
                    navigation_sessions = (measured, skipped)
            try:
                sections, error, trace = receiver.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(
                    f"report's worker process exited with code "
                    f"{worker.exitcode} before sending its result") from None
            if trace is not None:
                raise error from _WorkerTraceback(trace)
        finally:
            if worker.is_alive():
                worker.terminate()
            worker.join()

    def section(name):
        if name not in sections:
            raise error
        return sections[name]

    flags: list[str] = []
    provision = organization = position = segmentation = communities = None
    if cfg.catalog is not None:
        records, provision, flags, offered = section("provision")
        _add_accessed(cfg, provision, flags, offered, records, sessions,
                      period)

    if cfg.edges is not None:
        organization = section("organization")
        organization["navigation"] = navigation

    if cfg.cross_links is not None and cfg.site is not None:
        position, communities = section("position")

    if sessions is not None and cfg.network_catalogs:
        slope = segmentation_mod.demand_trend(demand)
        segmentation = _segmentation_parts(cfg, slope, section("network"))[0]

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
        _write_diagnostics(cfg, period, sessions, tallies, demand,
                           navigation_sessions)
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
