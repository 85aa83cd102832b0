"""Outside-in layer trace of one `portalmetrics report` run.

``Tracer.install`` wraps the public functions of the pipeline modules by
rebinding module attributes (including names other modules imported with
``from x import f``), so nothing under src/ changes. Each call of a
function that runs a few times per report records a span -- name, start,
end, parent span, run id -- in memory; ``dump`` writes them out once the
report is done. Helpers that run once per session, cross link or site get
no span (see ``PER_ITEM``), so the tracer's bookkeeping stays out of their
callers' self time. ``layer_metrics`` turns the spans and call counts of
one run into the per-layer table: self time per stage (span duration
minus its child spans), work counts, and ratios.

Every wrapped function belongs to its module's total, and some also to a
named stage within it (``STAGES``). The module totals plus ``cli.self_s``
add up to the root span, ``trace.report_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time

MODULES = ("usage", "structure", "position", "catalog", "segmentation",
           "report", "config")

STAGES = {
    "structure.build_site_graph": "structure.build_site_graph",
    "structure.from_outlinks_map": "structure.build_site_graph",
    "structure.organization_profile": "structure.organization_profile",
    "structure.converted_distances": "structure.organization_profile",
    "structure.depth": "structure.organization_profile",
    "structure.density": "structure.organization_profile",
    "structure.navigability": "structure.organization_profile",
    "structure.linearity": "structure.organization_profile",
    # read_log_lines is a generator: the file read happens inside parse_log.
    "usage.parse_log": "usage.parse_log",
    "usage.read_log_lines": "usage.parse_log",
    "usage.filter_agents": "usage.filter_agents",
    "usage.load_signatures": "usage.filter_agents",
    "usage.sessionize": "usage.sessionize",
    "usage.summarize_navigation": "usage.navigation",
    "usage.overall_demand": "usage.demand",
    "usage.recency": "usage.demand",
    "usage.activity_level": "usage.demand",
    "usage.accessed_distribution": "usage.accessed_distribution",
    "usage.load_link_map": "usage.accessed_distribution",
    "position.build_cross_site_graph": "position.build_cross_site_graph",
    "position.detect_communities": "position.detect_communities",
    "position.position_profile": "position.position_profile",
    "position.bridging": "position.position_profile",
    "catalog.parse_catalog": "catalog.parse_catalog",
    "report.assemble_report": "report.assemble",
    "report.period_section": "report.assemble",
    "report.provision_section": "report.assemble",
    "report.organization_section": "report.assemble",
    "report.position_section": "report.assemble",
    "report.segmentation_section": "report.assemble",
    "report.serialize": "report.serialize",
    "report.validate_document": "report.serialize",
    "report.canonical_json": "report.serialize",
    "report.build_diagnostics": "report.build_diagnostics",
}
# Remaining catalog functions are the provision metrics; config has one
# entry point, so its stage is the whole module.
DEFAULT_STAGE = {"catalog": "catalog.provision",
                 "config": "config.build_config"}

# Helpers called once per session, per cross link or per site: thousands
# of times a report. A span on each would charge the tracer's own cost to
# the caller's self time, so the degree scans are only counted, and the
# rest are left unwrapped; their time is their caller's.
PER_ITEM = {"position.authoritativeness": "count",
            "position.hubness": "count",
            "position.registrable_domain": None,
            "usage.navigation_metrics": None,
            "usage.session_path_graph": None}

ROOT = "cli.main"


def _peak_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _observe(name: str, result) -> dict | None:
    """Work counts read off a call's result, kept on its span."""
    if name == "structure.build_site_graph":
        return {"pages": result[0].n, "links": len(result[0].edges)}
    if name == "usage.parse_log":
        return {"lines_in": result.total_lines, "malformed": result.malformed}
    if name == "usage.filter_agents":
        return {"bots_out": len(result[1])}
    if name == "usage.sessionize":
        return {"sessions_out": len(result)}
    if name == "usage.summarize_navigation":
        # The program's private shape cache: a change that removes it must
        # change this count, or the traced run fails.
        info = sys.modules["portalmetrics.usage"]._metrics_for_shape.cache_info()
        return {"hits": info.hits, "misses": info.misses}
    if name == "position.build_cross_site_graph":
        return {"sites": len(result[0].sites), "site_links": result[0].edge_count}
    if name == "position.detect_communities":
        return {"rounds": result.rounds, "converged": int(result.converged)}
    if name == "catalog.parse_catalog":
        return {"rows_in": len(result.records) + result.duplicates_dropped
                + len(result.row_errors)}
    return None


class Tracer:
    """Span recorder for one process; spans stay in memory until dump()."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []   # [name, start, end, parent, attrs]
        self.calls: dict = {}   # name -> calls, for the counted helpers
        self._stack: list = []

    def _call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        rss_before = _peak_kib() if name == "structure.organization_profile" else 0
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        attrs = _observe(name, result)
        if rss_before:
            attrs = {"rss_growth_mb": (_peak_kib() - rss_before) / 1024}
        span[4] = attrs
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def _count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Rebind the public pipeline functions to traced or counting
        wrappers; the uncounted PER_ITEM helpers stay as they are."""
        wrapped = {}
        for short in MODULES:
            module = importlib.import_module(f"portalmetrics.{short}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                if name not in PER_ITEM:
                    wrapped[id(obj)] = (obj, self._wrap(name, obj))
                elif PER_ITEM[name] == "count":
                    wrapped[id(obj)] = (obj, self._count(name, obj))
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("portalmetrics"):
                continue
            for attr, obj in list(vars(module).items()):
                pair = wrapped.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(module, attr, pair[1])

    def root(self, fn, *args):
        return self._call(ROOT, fn, args, {})

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": self.spans,
                       "calls": self.calls}, fh)


def _stage(name: str) -> str | None:
    module = name.split(".", 1)[0]
    return STAGES.get(name, DEFAULT_STAGE.get(module))


def layer_metrics(spans: list, calls: dict) -> dict:
    """Per-layer metrics of one traced report run, keyed by metric name."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] += end - start
    metrics = {f"{m}.self_s": 0.0 for m in MODULES if m != "config"}
    metrics.update({f"{s}.self_s": 0.0 for s in
                    {*STAGES.values(), *DEFAULT_STAGE.values()}})
    counts: dict = {}
    attrs: dict = {}
    root_s = 0.0
    for i, (name, start, end, parent, extra) in enumerate(spans):
        own = end - start - children[i]
        counts[name] = counts.get(name, 0) + 1
        for key, value in (extra or {}).items():
            attrs.setdefault(name, {}).setdefault(key, []).append(value)
        if name == ROOT:
            root_s = end - start
            metrics["cli.self_s"] = own
            continue
        module = name.split(".", 1)[0]
        if module != "config":
            metrics[f"{module}.self_s"] += own
        stage = _stage(name)
        if stage is not None:
            metrics[f"{stage}.self_s"] += own

    def last(name, key, default=0):
        return attrs.get(name, {}).get(key, [default])[-1]

    def total(name, key):
        return sum(attrs.get(name, {}).get(key, []))

    nav_hits = last("usage.summarize_navigation", "hits")
    nav_misses = last("usage.summarize_navigation", "misses")
    metrics.update({
        "trace.report_s": root_s,
        "structure.organization_profile.rss_growth_mb":
            total("structure.organization_profile", "rss_growth_mb"),
        "structure.pages": last("structure.build_site_graph", "pages"),
        "structure.links": last("structure.build_site_graph", "links"),
        "usage.parse_log.lines_in": total("usage.parse_log", "lines_in"),
        "usage.parse_log.malformed": total("usage.parse_log", "malformed"),
        "usage.filter_agents.bots_out": total("usage.filter_agents", "bots_out"),
        "usage.sessionize.sessions_out":
            total("usage.sessionize", "sessions_out"),
        "usage.navigation.cache_hit_ratio":
            nav_hits / (nav_hits + nav_misses) if nav_hits + nav_misses else 0.0,
        "usage.overall_demand.calls": counts.get("usage.overall_demand", 0),
        "position.lpa_rounds": last("position.detect_communities", "rounds"),
        "position.lpa_converged":
            last("position.detect_communities", "converged"),
        "position.degree_scans": calls.get("position.authoritativeness", 0)
            + calls.get("position.hubness", 0),
        "position.sites": last("position.build_cross_site_graph", "sites"),
        "position.site_links":
            last("position.build_cross_site_graph", "site_links"),
        "catalog.parse_catalog.calls": counts.get("catalog.parse_catalog", 0),
        "catalog.rows_in": total("catalog.parse_catalog", "rows_in"),
    })
    return metrics


def unattributed_s(metrics: dict) -> float:
    """Root span time that no module total or cli.self_s accounts for;
    zero up to rounding when every span was attributed."""
    parts = [f"{m}.self_s" for m in MODULES if m != "config"]
    parts += ["config.build_config.self_s", "cli.self_s"]
    return metrics["trace.report_s"] - sum(metrics[p] for p in parts)


def import_times(stderr_text: str) -> dict:
    """Import seconds per package from `python -X importtime` output.

    numpy, scipy and jsonschema get the cumulative time of their outermost
    import lines (a dependency counts under whichever package imported it
    first); portalmetrics gets the self time of its own modules, which
    includes building the schema validator.
    """
    lines = []
    for line in stderr_text.splitlines():
        fields = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        own, cumulative, module = fields
        if own.strip().isdigit():
            depth = len(module) - len(module.lstrip())
            lines.append((depth, module.strip().split(".", 1)[0],
                          int(own) / 1e6, int(cumulative) / 1e6))
    totals = {"numpy": 0.0, "scipy": 0.0, "jsonschema": 0.0,
              "portalmetrics": 0.0}
    ancestors: list = []
    # A parent is printed after its children, so walk backwards.
    for depth, package, own, cumulative in reversed(lines):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if package == "portalmetrics":
            totals[package] += own
        elif package in totals and all(p != package for _, p in ancestors):
            totals[package] += cumulative
        ancestors.append((depth, package))
    return {f"setup.{package}_s": value for package, value in totals.items()}
