"""Network position of a portal among the other sites that link it.

Builds a site-level directed graph by aggregating page-level links, then
computes degree-based standing measures (how many distinct sites link in,
how many the portal links out to), detects communities of densely linked
sites, and classifies portals whose few links span many communities as
bridges.

Degrees count distinct neighbor sites; raw page-link multiplicities are
reported separately as weighted degrees. A single page spamming thousands
of links therefore moves the weighted value only. The graph build's drop
counts are a dict keyed as the ``position`` command prints them.
"""

from __future__ import annotations

import ipaddress
import random
import re
from collections import namedtuple
from urllib.parse import urlparse

from .errors import DomainError
from .inputs import data_lines, delimiter

DEFAULT_BRIDGE_SCORE_THRESHOLD = 0.5
DEFAULT_BRIDGE_MIN_COMMUNITIES = 2
DEFAULT_DEGREE_PERCENTILE = 75.0
LPA_MAX_ROUNDS = 100
COMMUNITY_ALGORITHM = "synchronous-label-propagation"

_IPVFUTURE_RE = re.compile(r"\Av[a-fA-F0-9]+\..+\Z")

ISOLATED_SITE_FLAG = "isolated_site"
SINGLE_COMMUNITY_FLAG = "single_community_graph"


class CrossSiteGraph(namedtuple("CrossSiteGraph", "sites weights")):
    """Directed site-to-site links with page-level multiplicities.

    ``sites`` is a frozenset. ``weights[(a, b)]`` is the number of page
    links from site a to site b; intra-site pairs are excluded by
    construction. Sites with no links may still be listed (isolated
    sites).
    """

    __slots__ = ()

    def __new__(cls, sites, weights):
        for (a, b), w in weights.items():
            if a == b:
                raise DomainError(f"self-link on site {a!r} is not allowed")
            if a not in sites or b not in sites:
                raise DomainError(f"link ({a!r}, {b!r}) references unknown site")
            if w < 1:
                raise DomainError(f"link ({a!r}, {b!r}) has multiplicity {w}")
        return super().__new__(cls, sites, weights)

    @property
    def edge_count(self) -> int:
        return len(self.weights)

    def site_order(self) -> list[str]:
        return sorted(self.sites)


class CommunityAssignment(namedtuple(
        "CommunityAssignment", "labels seed algorithm rounds converged")):
    """Site-to-community labeling (``labels``, a dict) plus the parameters
    that produced it: the int ``seed``, the ``algorithm``'s name, the
    ``rounds`` run and whether they ``converged``."""

    __slots__ = ()

    @property
    def community_count(self) -> int:
        return len(set(self.labels.values()))


def registrable_domain(url: str) -> str | None:
    """Two-label host suffix, the fallback site grouping for unmapped URLs.

    A heuristic: country-code second-level registries (example.co.uk)
    collapse one label too many. Pass an explicit site map to override.
    None when the URL has no host that can be read.
    """
    try:
        parsed = urlparse(url if "//" in url else "//" + url)
    except ValueError:
        # An unbalanced "[" or "]", as in "http://[::1/x", or, from Python
        # 3.11 on, a bracketed host that the check below refuses as well.
        return None
    if "[" in parsed.netloc and not _bracketed_host_is_valid(
            parsed.netloc.partition("[")[2].partition("]")[0]):
        return None
    host = (parsed.hostname or "").strip(".").lower()
    if not host:
        return None
    labels = host.split(".")
    if len(labels) >= 2:
        return ".".join(labels[-2:])
    return host


def _bracketed_host_is_valid(text: str) -> bool:
    """Whether the text between the brackets of a URL's network location
    is an IPv6 address or an IPvFuture literal (``v<hex>.<text>``).

    The rule ``urlsplit`` applies from Python 3.11 on, where it raises
    ValueError otherwise; Python 3.10 reads any bracketed text as a host.
    """
    if text.startswith("v"):
        return _IPVFUTURE_RE.match(text) is not None
    try:
        ipaddress.IPv6Address(text)
    except ValueError:
        return False
    return True


def _resolve_site(url: str, prefixes: list[tuple[str, str]],
                  counts: dict[str, int]) -> str | None:
    for prefix, site_id in prefixes:
        if url.startswith(prefix):
            return site_id
    domain = registrable_domain(url)
    if domain is not None:
        counts["domain_fallbacks"] += 1
    return domain


def build_cross_site_graph(lines, site_map=None
                           ) -> tuple[CrossSiteGraph, dict[str, int]]:
    """Aggregate page-level links into a site-level weighted digraph, with
    the counts ``intra_site_dropped``, ``domain_fallbacks`` and
    ``malformed_lines``.

    ``lines`` are the lines of a cross-link file: delimited "from_url,
    to_url" pairs (tab wins over comma, # starts a comment). ``site_map``
    maps URL prefixes to site ids, longest prefix first; URLs matching no
    prefix fall back to their registrable domain and are counted.
    Intra-site links are dropped and counted. An empty result is fatal.
    """
    prefixes = sorted((site_map or {}).items(), key=lambda kv: len(kv[0]),
                      reverse=True)
    counts = {"intra_site_dropped": 0, "domain_fallbacks": 0,
              "malformed_lines": 0}
    sites: set = set()
    weights: dict = {}
    for _, line in data_lines(lines):
        parts = [p.strip() for p in line.split(delimiter(line))]
        if len(parts) != 2 or not parts[0] or not parts[1]:
            counts["malformed_lines"] += 1
            continue
        src = _resolve_site(parts[0], prefixes, counts)
        dst = _resolve_site(parts[1], prefixes, counts)
        if src is None or dst is None:
            counts["malformed_lines"] += 1
            continue
        if src == dst:
            counts["intra_site_dropped"] += 1
            continue
        sites.add(src)
        sites.add(dst)
        weights[(src, dst)] = weights.get((src, dst), 0) + 1
    if not sites:
        raise DomainError("no cross-site links found; the graph is empty")
    return CrossSiteGraph(sites=frozenset(sites), weights=weights), counts


def _degrees(g: CrossSiteGraph, site: str) -> tuple[dict[str, list[int]], set]:
    """Every site's [in, weighted in, out, weighted out] degree, and the
    distinct sites adjacent to ``site`` in either direction, from one pass
    over the links."""
    counts = {s: [0, 0, 0, 0] for s in g.sites}
    linked = set()
    for (a, b), w in g.weights.items():
        into, out = counts[b], counts[a]
        into[0] += 1
        into[1] += w
        out[2] += 1
        out[3] += w
        if a == site:
            linked.add(b)
        elif b == site:
            linked.add(a)
    return counts, linked


def detect_communities(g: CrossSiteGraph, seed: int = 0) -> CommunityAssignment:
    """Label propagation over the undirected weighted projection.

    Synchronous rounds: every site simultaneously adopts the label with the
    highest vote among its neighborhood, ties going to the smallest label.
    Neighbors vote with the summed page-link multiplicity of both link
    directions; the site itself casts one vote for its current label.
    Multiplicity-weighted voting keeps a single inter-clique edge from
    flooding its label across both cliques during all-tied early rounds,
    and the self vote keeps two-node components from oscillating forever.
    Stops at a fixed point or after 100 rounds. When a round repeats the
    labels of two rounds back, the rounds alternate from there on, so the
    labels and round count of the 100th round are returned without
    running the rest.

    Initial labels are the sites' lexicographic ranks; a nonzero seed
    shuffles that assignment, which probes the stability of the outcome.
    Identical graph + seed always yields the identical assignment. Labels
    are renumbered 0..k-1 by first appearance in site order.
    """
    order = g.site_order()
    if not order:
        raise DomainError("cannot detect communities on an empty graph")
    n = len(order)
    initial = list(range(n))
    if seed != 0:
        random.Random(seed).shuffle(initial)
    labels = dict(zip(order, initial))

    undirected: dict = {site: {} for site in order}
    for (a, b), w in g.weights.items():
        undirected[a][b] = undirected[a].get(b, 0) + w
        undirected[b][a] = undirected[b].get(a, 0) + w
    adjacency = {site: sorted(nbrs.items()) for site, nbrs in undirected.items()}
    rounds = 0
    converged = False
    previous = None  # the labels of the round before ``labels``
    while rounds < LPA_MAX_ROUNDS:
        rounds += 1
        new = {}
        for site in order:
            nbrs = adjacency[site]
            if not nbrs:
                new[site] = labels[site]
                continue
            counts: dict = {labels[site]: 1}
            for other, weight in nbrs:
                lab = labels[other]
                counts[lab] = counts.get(lab, 0) + weight
            best = max(counts.values())
            new[site] = min(lab for lab, c in counts.items() if c == best)
        if new == labels:
            converged = True
            break
        if new == previous:
            # A 2-cycle: the rounds alternate between ``new`` and
            # ``labels`` up to the cap, so the cap's labels are known.
            if (LPA_MAX_ROUNDS - rounds) % 2 == 0:
                labels = new
            rounds = LPA_MAX_ROUNDS
            break
        previous, labels = labels, new

    canonical: dict = {}
    renumber: dict = {}
    for site in order:
        lab = labels[site]
        if lab not in renumber:
            renumber[lab] = len(renumber)
        canonical[site] = renumber[lab]
    return CommunityAssignment(labels=canonical, seed=seed,
                               algorithm=COMMUNITY_ALGORITHM,
                               rounds=rounds, converged=converged)


def _percentile_cut(values: list[int], percentile: float) -> float:
    """Hyndman & Fan's type 7 percentile of ``values``; ``percentile`` lies
    in [0, 100].

    Interpolates between the order statistics around (n - 1) * percentile
    / 100 in the two-sided form of the common ``linear`` method: up from
    the lower value when the fraction t is below 0.5, down from the upper
    one otherwise. The form decides the rounding, so the cut stays that
    method's exact float.
    """
    if not 0 <= percentile <= 100:
        raise ValueError(f"percentile {percentile} is outside [0, 100]")
    ordered = sorted(map(float, values))
    index = (len(ordered) - 1) * (percentile / 100)
    below = int(index)
    t = index - below
    a = ordered[below]
    b = ordered[min(below + 1, len(ordered) - 1)]
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


def position_profile(g: CrossSiteGraph, site: str,
                     communities: CommunityAssignment, *,
                     bridge_score_threshold=DEFAULT_BRIDGE_SCORE_THRESHOLD,
                     bridge_min_communities=DEFAULT_BRIDGE_MIN_COMMUNITIES,
                     authority_percentile=DEFAULT_DEGREE_PERCENTILE,
                     hub_percentile=DEFAULT_DEGREE_PERCENTILE) -> dict:
    """All position measures for one site, with role flags: the one entry
    point to them. Returns the report's position section.

    Degrees count distinct sites linking in and linked to; weighted
    degrees count page links. adjacent_communities counts distinct labels
    among the neighbor sites (the site's own label only counts if a
    neighbor carries it), and the bridge score is that count over the
    distinct-neighbor count. A site is a bridge when it touches at least
    ``bridge_min_communities`` communities, its score is at least
    ``bridge_score_threshold``, and its degree is at most the graph's
    median degree. An isolated site has no score and a flag.

    Authority / hub flags require the in- / out-degree to be positive and
    at or above the graph-wide ``authority_percentile`` /
    ``hub_percentile`` cut (default 75th); a graph where most sites have
    zero in-links must not flag them all.
    """
    if site not in g.sites:
        raise DomainError(f"unknown site {site!r}")
    if set(communities.labels) != set(g.sites):
        raise DomainError("community assignment does not cover this graph")
    degrees, linked = _degrees(g, site)
    in_degree, weighted_in, out_degree, weighted_out = degrees[site]
    degree = in_degree + out_degree
    adjacent, score, is_bridge = 0, None, False
    flags = [ISOLATED_SITE_FLAG]
    if linked:
        adjacent = len({communities.labels[other] for other in linked})
        score = adjacent / len(linked)
        # The 50th percentile is the median, exactly for integer degrees.
        median_degree = _percentile_cut(
            [c[0] + c[2] for c in degrees.values()], 50)
        is_bridge = (adjacent >= bridge_min_communities
                     and score >= bridge_score_threshold
                     and degree <= median_degree)
        flags = [SINGLE_COMMUNITY_FLAG] if communities.community_count < 2 else []
    authority_cut = _percentile_cut([c[0] for c in degrees.values()],
                                    authority_percentile)
    hub_cut = _percentile_cut([c[2] for c in degrees.values()],
                              hub_percentile)
    return {
        "site": site,
        "in_degree": in_degree,
        "out_degree": out_degree,
        "weighted_in_degree": weighted_in,
        "weighted_out_degree": weighted_out,
        "degree": degree,
        "adjacent_communities": adjacent,
        "bridge_score": score,
        "authority": in_degree > 0 and in_degree >= authority_cut,
        "hub": out_degree > 0 and out_degree >= hub_cut,
        "bridge": is_bridge,
        "flags": flags,
    }
