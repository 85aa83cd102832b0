"""Deterministic synthetic fixtures with planted ground truth.

Generates site graphs of known shape, cross-site graphs with a planted
community structure, catalogs with planted topic distributions and ages,
and access logs with planted per-bucket visit counts, visitor counts, and
bot lines. Same spec + seed always yields byte-identical output, and the
writers emit the exact external file formats the ingestion modules parse,
so end-to-end tests exercise real parsers rather than in-memory objects.

Log construction notes: visits are laid on a fixed slot grid (2 hours
apart inside a bucket) so that visits by the same visitor never merge
under the default 30-minute session timeout and never straddle a bucket
boundary; views inside a visit sit 1 minute apart. Parameters that cannot
fit that grid are rejected rather than silently bent.
"""

from __future__ import annotations

import csv
import os
from collections import namedtuple
from datetime import date, datetime, timedelta, timezone

from .catalog import ContentRecord
from .errors import DomainError
from .position import CrossSiteGraph
from .structure import SiteGraph

SITE_GRAPH_KINDS = ("chain", "cycle", "complete", "star", "random-digraph")
CROSS_GRAPH_KINDS = ("two-community", "random-cross")

_MONTH_ABBR = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
               "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

_VISIT_SLOT = timedelta(hours=2)
_VIEW_STEP = timedelta(minutes=1)

HUMAN_AGENT = "Mozilla/5.0 (X11; Linux x86_64) Gecko/20100101 PortalBrowser/1.0"
BOT_AGENT = "ExampleBot/2.1 (+https://bots.example/info)"

DEFAULT_PAGES = ("/p0000", "/p0001", "/p0002", "/p0003")


# Each field of a GeneratorSpec after ``kind``, with its default.
_SPEC_DEFAULTS = {
    "size": 0, "seed": 0,
    # cross-site graphs
    "bridge_node": False, "edge_factor": 2.0,
    # logs
    "visits_per_bucket": (), "visitors": 1, "bot_fraction": 0.0,
    "views_per_visit": 3, "pages": DEFAULT_PAGES,
    "start": datetime(2026, 3, 2, tzinfo=timezone.utc),
    "bucket": timedelta(days=1),
    # catalogs; topic_counts holds (topic, count) pairs
    "portal_id": "portal-a", "topic_counts": (), "ages_days": (30,),
    "reference": date(2026, 3, 1), "resource_types": ("text", "video"),
}


class GeneratorSpec(namedtuple("GeneratorSpec", ("kind", *_SPEC_DEFAULTS),
                               defaults=_SPEC_DEFAULTS.values())):
    """Parameters for one synthetic artifact; unused fields are ignored
    by generators that do not need them."""

    __slots__ = ()


def _page(i: int) -> str:
    return f"/p{i:04d}"


def _site(prefix: str, i: int) -> str:
    return f"{prefix}{i}.example"


def _lcg(seed: int):
    # Minimal deterministic generator; avoids tying fixture bytes to any
    # library's stream implementation. The raw LCG state has periodic low
    # bits (power-of-two modulus), so the output is tempered before use:
    # without that, ``next(rng) % n`` cycles for small even n.
    state = (seed * 2654435761 + 1) % (2 ** 31)
    while True:
        state = (1103515245 * state + 12345) % (2 ** 31)
        mixed = state ^ (state >> 13)
        mixed = (mixed * 2654435761) % (2 ** 31)
        yield mixed ^ (mixed >> 16)


def _sample_pairs(n: int, count: int, seed: int) -> list[tuple[int, int]]:
    maximum = n * (n - 1)
    rng = _lcg(seed)
    if count * 4 >= maximum:
        # Dense request: shuffle the full candidate list.
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for i in range(len(pairs) - 1, 0, -1):
            j = next(rng) % (i + 1)
            pairs[i], pairs[j] = pairs[j], pairs[i]
        return sorted(pairs[:count])
    # Sparse request: rejection-sample, skipping duplicates and loops. The
    # attempt cap guarantees termination even if the stream degenerates;
    # the leftover pairs then come from a deterministic sweep.
    chosen: set[tuple[int, int]] = set()
    attempts = 0
    while len(chosen) < count and attempts < 64 * count + 1024:
        attempts += 1
        a = next(rng) % n
        b = next(rng) % n
        if a != b:
            chosen.add((a, b))
    if len(chosen) < count:
        for i in range(n):
            for j in range(n):
                if i != j and (i, j) not in chosen:
                    chosen.add((i, j))
                    if len(chosen) == count:
                        break
            if len(chosen) == count:
                break
    return sorted(chosen)


def gen_graph(spec: GeneratorSpec):
    """Deterministic graph of the requested shape.

    Site-level page graphs (chain, cycle, complete, star, random-digraph)
    come back as SiteGraph; cross-site kinds (two-community, random-cross)
    as CrossSiteGraph with a planted structure.
    """
    if spec.kind in SITE_GRAPH_KINDS:
        return _gen_site_graph(spec)
    if spec.kind in CROSS_GRAPH_KINDS:
        return _gen_cross_graph(spec)
    raise DomainError(f"unknown graph kind {spec.kind!r}")


def _gen_site_graph(spec: GeneratorSpec) -> SiteGraph:
    n = spec.size
    if n < 1:
        raise DomainError("graph size must be at least 1")
    nodes = frozenset(_page(i) for i in range(n))
    root = _page(0)
    edges: set[tuple[str, str]] = set()
    if spec.kind == "chain":
        edges = {(_page(i), _page(i + 1)) for i in range(n - 1)}
    elif spec.kind == "cycle":
        edges = {(_page(i), _page((i + 1) % n)) for i in range(n)} if n > 1 else set()
    elif spec.kind == "complete":
        edges = {(_page(i), _page(j)) for i in range(n) for j in range(n) if i != j}
    elif spec.kind == "star":
        edges = {(root, _page(i)) for i in range(1, n)}
    elif spec.kind == "random-digraph":
        maximum = n * (n - 1)
        count = min(int(round(spec.edge_factor * n)), maximum)
        pairs = _sample_pairs(n, count, spec.seed)
        edges = {(_page(a), _page(b)) for a, b in pairs}
    return SiteGraph(nodes=nodes, edges=frozenset(edges), root=root)


def _gen_cross_graph(spec: GeneratorSpec) -> CrossSiteGraph:
    if spec.kind == "two-community":
        n = spec.size
        if n < 4:
            raise DomainError("two-community graphs need at least 4 sites")
        n1 = n // 2
        left = [_site("c", i) for i in range(n1)]
        right = [_site("d", i) for i in range(n - n1)]
        weights: dict = {}
        for group in (left, right):
            for a in group:
                for b in group:
                    if a != b:
                        weights[(a, b)] = 1
        sites = set(left + right)
        if spec.bridge_node:
            bridge = _site("x", 0)
            sites.add(bridge)
            weights[(bridge, left[0])] = 1
            weights[(bridge, right[0])] = 1
        else:
            weights[(left[0], right[0])] = 1
        return CrossSiteGraph(sites=frozenset(sites), weights=weights)
    # random-cross
    n = spec.size
    if n < 2:
        raise DomainError("random cross-site graphs need at least 2 sites")
    maximum = n * (n - 1)
    count = max(1, min(int(round(spec.edge_factor * n)), maximum))
    pairs = _sample_pairs(n, count, spec.seed)
    rng = _lcg(spec.seed + 1)
    weights = {(_site("s", a), _site("s", b)): next(rng) % 3 + 1 for a, b in pairs}
    sites = frozenset(_site("s", i) for i in range(n))
    return CrossSiteGraph(sites=sites, weights=weights)


def _clf_timestamp(ts: datetime) -> str:
    ts = ts.astimezone(timezone.utc)
    return (f"{ts.day:02d}/{_MONTH_ABBR[ts.month - 1]}/{ts.year:04d}:"
            f"{ts.hour:02d}:{ts.minute:02d}:{ts.second:02d} +0000")


def _log_line(host: str, authuser: str, ts: datetime, path: str,
              agent: str, referrer: str = "-") -> str:
    stamp = _clf_timestamp(ts)
    return (f'{host} - {authuser} [{stamp}] "GET {path} HTTP/1.1" 200 1024 '
            f'"{referrer}" "{agent}"')


def gen_log(spec: GeneratorSpec) -> list[str]:
    """Access-log lines with planted visits, visitors, and bot traffic.

    Each bucket b receives exactly visits_per_bucket[b] visits, dealt
    round-robin to ``visitors`` authenticated visitors; every visit has
    ``views_per_visit`` views over the pages cycle. Bot lines are added so
    they make up ``bot_fraction`` of the total line count; they carry a
    signature-matching user agent and no auth user.
    """
    if spec.visitors < 1 and any(spec.visits_per_bucket):
        raise DomainError("visits planted but no visitors to perform them")
    if spec.views_per_visit < 1:
        raise DomainError("visits need at least one view")
    if not 0 <= spec.bot_fraction < 1:
        raise DomainError("bot fraction must lie in [0, 1)")
    if spec.start.tzinfo is None:
        raise DomainError("log start must be timezone-aware")
    visit_span = (spec.views_per_visit - 1) * _VIEW_STEP
    if visit_span >= _VISIT_SLOT - timedelta(minutes=31):
        raise DomainError("too many views per visit for the slot grid")
    slots = int(spec.bucket // _VISIT_SLOT)
    if slots < 1:
        raise DomainError("bucket too short for one visit slot")

    stamped: list[tuple[datetime, str]] = []
    for b, visit_count in enumerate(spec.visits_per_bucket):
        if visit_count < 0:
            raise DomainError("visit counts cannot be negative")
        per_visitor = (visit_count + spec.visitors - 1) // spec.visitors if visit_count else 0
        if per_visitor > slots:
            raise DomainError(
                f"bucket {b}: {visit_count} visits among {spec.visitors} "
                f"visitors exceed the {slots}-slot grid"
            )
        bucket_start = spec.start + b * spec.bucket
        for j in range(visit_count):
            visitor = j % spec.visitors
            slot = j // spec.visitors
            visit_start = bucket_start + slot * _VISIT_SLOT + timedelta(minutes=5)
            host = f"192.0.2.{visitor % 254 + 1}"
            user = f"user{visitor:03d}"
            for v in range(spec.views_per_visit):
                page = spec.pages[(j + v) % len(spec.pages)]
                ts = visit_start + v * _VIEW_STEP
                stamped.append((ts, _log_line(host, user, ts, page, HUMAN_AGENT)))

    human_lines = len(stamped)
    if spec.bot_fraction > 0 and human_lines > 0:
        bot_lines = round(spec.bot_fraction / (1 - spec.bot_fraction) * human_lines)
        span = len(spec.visits_per_bucket) * spec.bucket
        for j in range(bot_lines):
            ts = spec.start + (span * j) / max(bot_lines, 1)
            path = "/robots.txt" if j % 7 == 0 else spec.pages[j % len(spec.pages)]
            stamped.append((ts, _log_line("198.51.100.7", "-", ts, path, BOT_AGENT)))

    stamped.sort(key=lambda pair: (pair[0], pair[1]))
    return [line for _, line in stamped]


def gen_catalog(spec: GeneratorSpec) -> list[ContentRecord]:
    """Catalog records with planted topic counts and ages.

    topic_counts plants the exact per-topic record counts (so entropy is
    exactly the entropy of those counts); ages_days cycles over the
    records in a fixed order, making the mean age exact whenever the total
    count is a multiple of the cycle length.
    """
    if not spec.topic_counts:
        raise DomainError("no topic counts planted")
    if any(count < 1 for _, count in spec.topic_counts):
        raise DomainError("planted topic counts must be positive")
    if not spec.ages_days or any(a < 0 for a in spec.ages_days):
        raise DomainError("planted ages must be non-negative")
    records: list[ContentRecord] = []
    idx = 0
    for topic, count in spec.topic_counts:
        for _ in range(count):
            age = spec.ages_days[idx % len(spec.ages_days)]
            records.append(ContentRecord(
                identifier=f"{spec.portal_id}-{idx:05d}",
                resource_type=spec.resource_types[idx % len(spec.resource_types)],
                topic=topic,
                published=spec.reference - timedelta(days=age),
                portal_id=spec.portal_id,
            ))
            idx += 1
    return records


def write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_site_graph(g: SiteGraph, path) -> None:
    """Edge-list file the structure parser reads back to the same graph.

    The root is declared first so that parsing (first node seen = root)
    reconstructs it; nodes without edges get their own declarations.
    """
    lines = [f"# node: {g.root}"]
    touched = {g.root}
    for a, b in sorted(g.edges):
        lines.append(f"{a}\t{b}")
        touched.add(a)
        touched.add(b)
    for node in sorted(g.nodes - touched):
        lines.append(f"# node: {node}")
    write_lines(path, lines)


def write_cross_links(g: CrossSiteGraph, path) -> None:
    """Page-level link file that aggregates back to the same cross graph.

    Sites are two-label domains, so the registrable-domain fallback of the
    builder resolves them without a site map; multiplicity w becomes w
    page links from distinct pages.
    """
    lines = []
    for (a, b), weight in sorted(g.weights.items()):
        for j in range(weight):
            lines.append(f"https://{a}/from{j:03d}\thttps://{b}/landing")
    write_lines(path, lines)


def write_catalog(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["identifier", "resource_type", "topic",
                         "published", "portal_id"])
        for r in records:
            writer.writerow([r.identifier, r.resource_type, r.topic,
                             r.published.isoformat(), r.portal_id])


def write_taxonomy(topics, path) -> None:
    write_lines(path, list(topics))


def write_link_map(pairs, path) -> None:
    """path -> catalog identifier join table, one tab-separated pair per line."""
    write_lines(path, [f"{p}\t{ident}" for p, ident in pairs])


DEMO_TAXONOMY = ("algebra", "biology", "chemistry", "geography",
                 "history", "literature")

_DEMO_PORTALS = {
    "alpha": {
        "topics": ("algebra", "biology", "chemistry", "geography"),
        "ages": (10, 20),
        "graph": GeneratorSpec(kind="random-digraph", size=30,
                               edge_factor=3.0, seed=11),
        "visits": (10, 20, 30),
        "visitors": 5,
    },
    "beta": {
        "topics": ("algebra", "biology", "history", "literature"),
        "ages": (40, 60),
        "graph": GeneratorSpec(kind="chain", size=30),
        "visits": (12, 18, 30),
        "visitors": 4,
    },
}

_DEMO_CROSS_WEIGHTS = {
    ("ministry.example", "alpha.example"): 3,
    ("library.example", "alpha.example"): 1,
    ("hub1.example", "alpha.example"): 1,
    ("hub2.example", "alpha.example"): 1,
    ("beta.example", "alpha.example"): 1,
    ("hub1.example", "beta.example"): 1,
    ("hub2.example", "beta.example"): 1,
    ("alpha.example", "library.example"): 1,
    ("beta.example", "hub1.example"): 1,
}

DEMO_PERIOD_START = "2026-03-02T00:00:00+00:00"
DEMO_PERIOD_END = "2026-03-05T00:00:00+00:00"
DEMO_REFERENCE = "2026-03-01"


def write_demo_network(root) -> dict:
    """A complete two-portal workspace under ``root``.

    Both portals are planted to land in the same typology quadrant
    (growing demand, equal content counts) while differing sharply in site
    organization, so the within-segment comparison has something to point
    at. Returns the paths of everything written, including per-portal
    config files that drive the CLI end to end.
    """
    root = os.path.abspath(root)
    os.makedirs(root, exist_ok=True)
    taxonomy_path = os.path.join(root, "taxonomy.txt")
    write_taxonomy(DEMO_TAXONOMY, taxonomy_path)

    cross = CrossSiteGraph(
        sites=frozenset({s for pair in _DEMO_CROSS_WEIGHTS for s in pair}),
        weights=dict(_DEMO_CROSS_WEIGHTS),
    )
    cross_path = os.path.join(root, "cross_links.tsv")
    write_cross_links(cross, cross_path)

    out = {"root": root, "taxonomy": taxonomy_path, "cross_links": cross_path,
           "portals": {}}
    catalog_paths = {p: os.path.join(root, "portals", p, "catalog.csv")
                     for p in _DEMO_PORTALS}
    for portal, plan in _DEMO_PORTALS.items():
        portal_dir = os.path.join(root, "portals", portal)
        os.makedirs(portal_dir, exist_ok=True)
        records = gen_catalog(GeneratorSpec(
            kind="synthetic-catalog",
            portal_id=portal,
            topic_counts=tuple((t, 25) for t in plan["topics"]),
            ages_days=plan["ages"],
            reference=date.fromisoformat(DEMO_REFERENCE),
        ))
        write_catalog(records, catalog_paths[portal])

        graph = gen_graph(plan["graph"])
        edges_path = os.path.join(portal_dir, "edges.tsv")
        write_site_graph(graph, edges_path)

        log_lines = gen_log(GeneratorSpec(
            kind="synthetic-log",
            visits_per_bucket=plan["visits"],
            visitors=plan["visitors"],
            bot_fraction=0.2,
            start=datetime.fromisoformat(DEMO_PERIOD_START),
        ))
        log_path = os.path.join(portal_dir, "access.log")
        write_lines(log_path, log_lines)

        link_map_path = os.path.join(portal_dir, "link_map.tsv")
        write_link_map(
            [(_page(i), f"{portal}-{i:05d}") for i in range(plan["graph"].size)],
            link_map_path,
        )

        config_path = os.path.join(portal_dir, f"{portal}.config")
        network_catalogs = ",".join(catalog_paths[p] for p in sorted(_DEMO_PORTALS))
        write_lines(config_path, [
            "# demo portal pipeline configuration",
            f"portal_id = {portal}",
            f"site = {portal}.example",
            f"catalog = {catalog_paths[portal]}",
            f"network_catalogs = {network_catalogs}",
            f"edges = {edges_path}",
            f"logs = {log_path}",
            f"link_map = {link_map_path}",
            f"cross_links = {cross_path}",
            f"taxonomy = {taxonomy_path}",
            f"period_start = {DEMO_PERIOD_START}",
            f"period_end = {DEMO_PERIOD_END}",
            f"reference_date = {DEMO_REFERENCE}",
            f"output_dir = {os.path.join(portal_dir, 'out')}",
        ])
        out["portals"][portal] = {
            "dir": portal_dir,
            "catalog": catalog_paths[portal],
            "edges": edges_path,
            "log": log_path,
            "link_map": link_map_path,
            "config": config_path,
        }
    return out
