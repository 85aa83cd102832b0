"""Seeded portal workspaces for the `report` benchmark, with planted truth.

Each builder writes one portal's exports (logs, catalogs, edge list,
cross-site links, taxonomy, link map) plus a `<portal>.config` under a
directory, and returns a ``Workspace`` holding the config path and the
numbers the report and its diagnostics must reproduce. The truth is taken
from the generator's own data, never from the code under test.

Workloads (see README.md for the layer each one stresses):

* ``crit8``   -- the criterion-8 workspace of tests/test_acceptance.py;
  the site graph seed is the benchmark seed, so seed 1 is byte-identical.
* ``walks``   -- random-walk sessions over a 1,000-page graph, logged by
  two servers in different time zones, with bots, 404s and junk lines;
  plus a 1,000-site cross-link graph and 20 network catalogs. Its traffic
  parameters are unverified synthetic choices, each picked for a property
  the benchmark needs; README.md lists them.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import random
from collections import deque
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone

from portalmetrics import fixtures as fx

UTC = timezone.utc
START = datetime(2026, 3, 2, tzinfo=UTC)
DAYS = 6
PERIOD_LINES = [
    "period_start = 2026-03-02T00:00:00+00:00",
    "period_end = 2026-03-08T00:00:00+00:00",
    "reference_date = 2026-03-01",
]
TOPICS = ("algebra", "biology", "chemistry", "economics", "geography",
          "geometry", "history", "languages", "literature", "music",
          "physics", "statistics")

# The bot signatures `portalmetrics` documents as its defaults. A planted
# human agent must contain none of them, and every planted bot agent one.
BOT_SIGNATURES = ("bot", "crawler", "spider", "slurp", "archiver", "scraper",
                  "curl", "wget", "python-requests", "httpclient",
                  "facebookexternalhit", "headlesschrome")
HUMAN_AGENTS = (
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/124.0 Safari/537.36",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 14_4) AppleWebKit/605.1.15 "
    "(KHTML, like Gecko) Version/17.4 Safari/605.1.15",
    "Mozilla/5.0 (X11; Linux x86_64; rv:125.0) Gecko/20100101 Firefox/125.0",
    "Mozilla/5.0 (iPhone; CPU iPhone OS 17_4 like Mac OS X) "
    "AppleWebKit/605.1.15 (KHTML, like Gecko) Mobile/15E148",
    "Mozilla/5.0 (Linux; Android 14; Pixel 8) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/124.0 Mobile Safari/537.36",
)
BOT_AGENTS = (
    "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)",
    "Mozilla/5.0 (compatible; bingbot/2.0; +http://www.bing.com/bingbot.htm)",
    "Mozilla/5.0 (compatible; Baiduspider/2.0)",
    "Mozilla/5.0 (compatible; YandexBot/3.0)",
    "Mozilla/5.0 (compatible; Yahoo! Slurp)",
    "ia_archiver (+http://www.alexa.com/site/help/webmasters)",
    "curl/8.5.0",
    "Wget/1.21.4",
    "python-requests/2.31.0",
    "Apache-HttpClient/4.5.14 (Java/17)",
    "facebookexternalhit/1.1",
    "Mozilla/5.0 (X11; Linux x86_64) HeadlessChrome/124.0 Safari/537.36",
    "SiteCrawler/0.9",
    "ContentScraper/1.2",
)
assert not any(s in a.lower() for a in HUMAN_AGENTS for s in BOT_SIGNATURES)
assert all(any(s in a.lower() for s in BOT_SIGNATURES) for a in BOT_AGENTS)

_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


@dataclass
class Workspace:
    """A written workspace and what a correct report over it must say."""

    config: str
    tallies: dict
    visit_counts: list
    pages: int
    links: int
    depth: float
    unreachable: int
    site: str
    degrees: dict
    inputs: list
    # Same workspace with the older log gzip-rotated; None when not probed.
    gzip_config: str | None = None

    def fingerprint(self) -> str:
        """sha256 over the input files, so changed inputs are visible."""
        digest = hashlib.sha256()
        for path in sorted(self.inputs):
            digest.update(os.path.basename(path).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
        return digest.hexdigest()


def _bfs_depth(graph) -> tuple[float, int]:
    """Mean click distance from the root to reachable pages, and the
    number of pages the root cannot reach."""
    out: dict = {}
    for a, b in graph.edges:
        out.setdefault(a, []).append(b)
    dist = {graph.root: 0}
    queue = deque([graph.root])
    while queue:
        u = queue.popleft()
        for v in out.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    reached = [d for d in dist.values() if d > 0]
    mean = sum(reached) / len(reached) if reached else 0.0
    return mean, graph.n - len(dist)


def _degrees(cross, site: str) -> dict:
    degrees = {"in_degree": 0, "out_degree": 0,
               "weighted_in_degree": 0, "weighted_out_degree": 0}
    for (a, b), w in cross.weights.items():
        if b == site:
            degrees["in_degree"] += 1
            degrees["weighted_in_degree"] += w
        if a == site:
            degrees["out_degree"] += 1
            degrees["weighted_out_degree"] += w
    return degrees


def _write_config(root: str, portal: str, settings: list, logs: list) -> str:
    path = os.path.join(root, f"{portal}.config")
    fx.write_lines(path, [*settings, f"logs = {','.join(logs)}",
                          f"output_dir = {os.path.join(root, 'out')}"])
    return path


def _site_truth(graph) -> dict:
    depth, unreachable = _bfs_depth(graph)
    return {"pages": graph.n, "links": len(graph.edges), "depth": depth,
            "unreachable": unreachable}


def build_crit8(root: str, seed: int) -> Workspace:
    """tests/test_acceptance.py::_perf_workspace with graph seed ``seed``.

    The file set, order of writes and config lines are the same, so seed 1
    reproduces that workspace byte for byte.
    """
    os.makedirs(root, exist_ok=True)
    catalog_path = os.path.join(root, "catalog.csv")
    fx.write_catalog(fx.gen_catalog(fx.GeneratorSpec(
        kind="synthetic-catalog", portal_id="big",
        topic_counts=(("algebra", 250), ("biology", 250)))), catalog_path)
    taxonomy_path = os.path.join(root, "taxonomy.txt")
    fx.write_taxonomy(("algebra", "biology"), taxonomy_path)
    graph = fx.gen_graph(fx.GeneratorSpec(kind="random-digraph", size=5000,
                                          edge_factor=3.0, seed=seed))
    edges_path = os.path.join(root, "edges.tsv")
    fx.write_site_graph(graph, edges_path)
    log_path = os.path.join(root, "access.log")
    log_spec = fx.GeneratorSpec(
        kind="synthetic-log", visits_per_bucket=(420,) * 6, visitors=50,
        views_per_visit=40, start=START)
    fx.write_lines(log_path, fx.gen_log(log_spec))
    links_path = os.path.join(root, "links.tsv")
    cross = fx.gen_graph(fx.GeneratorSpec(kind="two-community", size=6))
    fx.write_cross_links(cross, links_path)
    map_path = os.path.join(root, "map.tsv")
    fx.write_link_map([(f"/p{i:04d}", f"big-{i:05d}") for i in range(4)],
                      map_path)
    config_path = os.path.join(root, "big.config")
    fx.write_lines(config_path, [
        "portal_id = big",
        "site = c0.example",
        f"catalog = {catalog_path}",
        f"network_catalogs = {catalog_path}",
        f"edges = {edges_path}",
        f"logs = {log_path}",
        f"link_map = {map_path}",
        f"cross_links = {links_path}",
        f"taxonomy = {taxonomy_path}",
        *PERIOD_LINES,
        f"output_dir = {os.path.join(root, 'out')}",
    ])
    visits = sum(log_spec.visits_per_bucket)
    return Workspace(
        config=config_path,
        tallies={"log_lines": visits * log_spec.views_per_visit,
                 "malformed_lines": 0, "bot_entries": 0,
                 "non_page_view_entries": 0, "sessions": visits},
        visit_counts=list(log_spec.visits_per_bucket),
        site="c0.example", degrees=_degrees(cross, "c0.example"),
        inputs=[catalog_path, taxonomy_path, edges_path, log_path,
                links_path, map_path],
        **_site_truth(graph))


def _clf(ts: datetime, offset_hours: int) -> str:
    local = ts.astimezone(timezone(timedelta(hours=offset_hours)))
    return (f"{local.day:02d}/{_MONTHS[local.month - 1]}/{local.year:04d}:"
            f"{local.hour:02d}:{local.minute:02d}:{local.second:02d} "
            f"{'+' if offset_hours >= 0 else '-'}{abs(offset_hours):02d}00")


def _line(host: str, user: str, ts: datetime, offset: int, path: str,
          status: int, agent: str) -> str:
    return (f'{host} - {user} [{_clf(ts, offset)}] "GET {path} HTTP/1.1" '
            f'{status} {512 + len(path) * 7} "-" "{agent}"')


def _malformed(rng: random.Random, ts: datetime, offset: int) -> str:
    """A line `parse_log` must reject: truncated, bad month, or no path."""
    kind = rng.randrange(3)
    good = _line("203.0.113.9", "-", ts, offset, "/p0000", 200,
                 HUMAN_AGENTS[0])
    if kind == 0:
        return good[:rng.randrange(8, len(good) // 2)]
    if kind == 1:
        return good.replace(f"/{_MONTHS[ts.month - 1]}/", "/Xyz/", 1)
    return good.replace('"GET /p0000 HTTP/1.1"', '"GET"', 1)


def _walk(rng: random.Random, out: list, n: int, length: int) -> list:
    """Page indices of one visit: a random walk with back-steps."""
    start = 0 if rng.random() < 0.3 else rng.randrange(n)
    stack = [start]
    pages = [start]
    while len(pages) < length:
        here = stack[-1]
        if len(stack) > 1 and (rng.random() < 0.25 or not out[here]):
            stack.pop()
        elif out[here]:
            stack.append(rng.choice(out[here]))
        else:
            stack = [rng.randrange(n)]
        pages.append(stack[-1])
    return pages


def _network_catalogs(root: str, rng: random.Random, count: int) -> list:
    """Catalog exports of ``count`` other portals, 3,000 rows each."""
    paths = []
    for j in range(count):
        weights = [rng.randint(1, 9) for _ in TOPICS]
        counts = [3000 * w // sum(weights) for w in weights]
        counts[0] += 3000 - sum(counts)
        path = os.path.join(root, f"net{j:02d}.csv")
        fx.write_catalog(fx.gen_catalog(fx.GeneratorSpec(
            kind="synthetic-catalog", portal_id=f"net{j:02d}",
            topic_counts=tuple(zip(TOPICS, counts)),
            ages_days=(10, 45, 200, 800), reference=date(2026, 3, 1))), path)
        paths.append(path)
    return paths


def _cross_graph(path: str, rng: random.Random, sites: int, seed: int):
    """A random cross-site graph written as page links, and the portal's
    own site: one that both links out and is linked to."""
    cross = fx.gen_graph(fx.GeneratorSpec(kind="random-cross", size=sites,
                                          edge_factor=3.0, seed=seed))
    fx.write_cross_links(cross, path)
    linking = {a for a, _ in cross.weights}
    linked = {b for _, b in cross.weights}
    candidates = sorted(linking & linked)
    return cross, candidates[rng.randrange(len(candidates))]


def build_walks(root: str, seed: int) -> Workspace:
    """Usage-heavy workspace: ~190k lines of varied random-walk visits.

    Planting rules that keep every visit exactly recoverable: views of one
    visit are 5 s to 10 min apart (under the 30-minute timeout); one
    visitor's visits sit in disjoint slots at least 31 minutes apart; each
    visitor has its own address (and, when signed in, its own user name);
    404s and junk lines are extra lines that never replace a view; bots
    use signature agents or fetch only robots.txt.
    """
    os.makedirs(root, exist_ok=True)
    rng = random.Random(seed)
    n_pages = 1000
    graph = fx.gen_graph(fx.GeneratorSpec(kind="random-digraph", size=n_pages,
                                          edge_factor=3.0, seed=seed))
    index = {f"/p{i:04d}": i for i in range(n_pages)}
    out: list = [[] for _ in range(n_pages)]
    for a, b in sorted(graph.edges):
        out[index[a]].append(index[b])

    period = timedelta(days=DAYS)
    max_span = timedelta(seconds=23 * 600)
    guard = timedelta(minutes=31)
    rotation = START + timedelta(days=DAYS // 2)
    # old server: +0000, first half of the period; new server: +0100.
    stamped = {0: [], 1: []}
    visit_counts = [0] * DAYS
    non_page_views = 0
    visits = 0
    for v in range(4000):
        host = f"10.{v // 250}.{v % 250}.{rng.randrange(1, 255)}"
        agent = HUMAN_AGENTS[rng.randrange(len(HUMAN_AGENTS))]
        user = f"u{v:05d}" if rng.random() < 0.3 else "-"
        k = rng.choice((1, 1, 1, 2, 2, 3, 4, 5, 8))
        slot = period / k
        for j in range(k):
            start = (START + j * slot
                     + (slot - max_span - guard) * rng.random())
            start = start.replace(microsecond=0)
            server = 0 if start < rotation else 1
            visit_counts[(start - START) // timedelta(days=1)] += 1
            visits += 1
            ts = start
            for step, page in enumerate(_walk(rng, out, n_pages,
                                              rng.randint(2, 24))):
                if step:
                    ts += timedelta(seconds=rng.randint(5, 600))
                stamped[server].append(
                    (ts, _line(host, user, ts, server, f"/p{page:04d}", 200,
                               agent)))
                if rng.random() < 0.024:
                    non_page_views += 1
                    missing = ts + timedelta(seconds=1)
                    stamped[server].append(
                        (missing, _line(host, user, missing, server,
                                        f"/old/p{page:04d}.html", 404,
                                        agent)))

    human = sum(len(lines) for lines in stamped.values())
    total = round(human / (1 - 0.15 - 0.005))
    bots = round(0.15 * total)
    malformed = total - human - bots
    for j in range(bots):
        ts = START + (period - timedelta(seconds=1)) * rng.random()
        ts = ts.replace(microsecond=0)
        server = 0 if ts < rotation else 1
        if j % 50 == 0:
            # A crawler with a browser agent caught by its robots.txt fetch.
            line = _line(f"198.51.100.{j % 200 + 1}", "-", ts, server,
                         "/robots.txt", 200, HUMAN_AGENTS[j % 5])
        else:
            path = ("/robots.txt" if j % 20 == 1
                    else f"/p{rng.randrange(n_pages):04d}")
            line = _line(f"192.0.2.{j % 40 + 1}", "-", ts, server, path, 200,
                         BOT_AGENTS[j % len(BOT_AGENTS)])
        stamped[server].append((ts, line))

    log_paths = [os.path.join(root, "access.log.1"),
                 os.path.join(root, "access.log")]
    for server, path in enumerate(log_paths):
        lines = [line for _, line in sorted(stamped[server])]
        share = malformed // 2 if server == 0 else malformed - malformed // 2
        for _ in range(share):
            ts = (rotation if server else START) + timedelta(
                seconds=rng.randrange(DAYS // 2 * 86400))
            lines.insert(rng.randrange(len(lines) + 1),
                         _malformed(rng, ts, server))
        fx.write_lines(path, lines)
    gz_path = log_paths[0] + ".gz"
    with open(log_paths[0], "rb") as src, open(gz_path, "wb") as dst:
        dst.write(gzip.compress(src.read(), mtime=0))

    edges_path = os.path.join(root, "edges.tsv")
    fx.write_site_graph(graph, edges_path)
    topic_of = [TOPICS[rng.randrange(len(TOPICS))] for _ in range(n_pages)]
    counts = [(t, topic_of.count(t)) for t in TOPICS if topic_of.count(t)]
    catalog_path = os.path.join(root, "catalog.csv")
    records = fx.gen_catalog(fx.GeneratorSpec(
        kind="synthetic-catalog", portal_id="walks", topic_counts=tuple(counts),
        ages_days=(15, 90, 400), reference=date(2026, 3, 1)))
    fx.write_catalog(records, catalog_path)
    # gen_catalog groups records by topic; join each page to a record of
    # its planted topic.
    by_topic: dict = {}
    for record in records:
        by_topic.setdefault(record.topic, []).append(record.identifier)
    map_path = os.path.join(root, "map.tsv")
    fx.write_link_map([(f"/p{i:04d}", by_topic[t].pop())
                       for i, t in enumerate(topic_of)], map_path)
    network = [catalog_path, *_network_catalogs(root, rng, 20)]
    taxonomy_path = os.path.join(root, "taxonomy.txt")
    fx.write_taxonomy(TOPICS, taxonomy_path)
    links_path = os.path.join(root, "links.tsv")
    cross, site = _cross_graph(links_path, rng, 1000, seed)

    settings = [
        "portal_id = walks",
        f"site = {site}",
        f"catalog = {catalog_path}",
        f"network_catalogs = {','.join(network)}",
        f"edges = {edges_path}",
        f"link_map = {map_path}",
        f"cross_links = {links_path}",
        f"taxonomy = {taxonomy_path}",
        *PERIOD_LINES,
    ]
    config = _write_config(root, "walks", settings, log_paths)
    gzip_root = os.path.join(root, "gz")
    os.makedirs(gzip_root, exist_ok=True)
    gzip_config = _write_config(gzip_root, "walks", settings,
                                [gz_path, log_paths[1]])
    return Workspace(
        config=config,
        tallies={"log_lines": total, "malformed_lines": malformed,
                 "bot_entries": bots, "non_page_view_entries": non_page_views,
                 "sessions": visits},
        visit_counts=visit_counts, site=site, degrees=_degrees(cross, site),
        inputs=[*log_paths, edges_path, catalog_path, map_path, *network[1:],
                taxonomy_path, links_path],
        gzip_config=gzip_config, **_site_truth(graph))


BUILDERS = {"crit8": build_crit8, "walks": build_walks}
