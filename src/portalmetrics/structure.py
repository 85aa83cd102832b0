"""Intra-portal page graph and the four content-organization metrics.

A site is modeled as a directed graph of pages with a designated homepage.
The module computes:

* depth        -- mean shortest click-distance from the homepage,
* density      -- links over maximum possible directed links, in [0, 1],
* navigability -- compactness of the converted-distance matrix, in [0, 1]
                  (1 = complete digraph, 0 = edgeless),
* linearity    -- stratum: normalized absolute prestige, in [0, 1]
                  (1 = directed chain, 0 = symmetric navigation).

Unreachable pairs enter the converted-distance matrix at the conversion
constant K (default: the node count), which may not be below the longest
finite distance. :func:`organization_profile` computes all four metrics;
they and the matrix come from a breadth-first sweep that starts at all
pages at once: each page holds the set of pages that have reached it as
the bits of a Python integer, and status and contrastatus add up level by
level without an n x n matrix. Status counts each page's new bits in a
sweep along the edges, contrastatus in a second sweep against them. Only
:func:`converted_distances` builds the matrix, as nested tuples of ints.
Session path graphs are measured in ``usage`` from the same two
formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, FormatError
from .inputs import delimiter

DEGENERATE_SINGLE_NODE = "single_node_graph"
DEGENERATE_NO_REACHABLE = "no_page_reachable_from_root"


@dataclass(frozen=True)
class SiteGraph:
    """Directed page graph with a designated homepage (root).

    Nodes are page identifiers (normalized URLs or opaque ids). Self-loops
    and parallel edges are forbidden; use :func:`build_site_graph` to
    normalize raw edge lists.
    """

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    root: str

    def __post_init__(self):
        if not self.nodes:
            raise DomainError("a site graph needs at least one node")
        if self.root not in self.nodes:
            raise DomainError(f"root {self.root!r} is not a node of the graph")
        for a, b in self.edges:
            if a == b:
                raise DomainError(f"self-loop on {a!r} is not allowed")
            if a not in self.nodes or b not in self.nodes:
                raise DomainError(f"edge ({a!r}, {b!r}) references unknown node")

    @property
    def n(self) -> int:
        return len(self.nodes)

    def node_order(self) -> list[str]:
        """Stable node ordering used by every matrix-valued computation."""
        return sorted(self.nodes)


@dataclass
class BuildTally:
    self_loops_dropped: int = 0
    parallel_edges_collapsed: int = 0


@dataclass(frozen=True)
class ConvertedDistanceMatrix:
    """All-pairs shortest directed distances with unreachable pairs at K.

    ``d`` is a tuple of n row tuples of ints. d[i][j] is the shortest path
    length from node i to node j in the order given by ``nodes``;
    d[i][i] = 0 and d[i][j] = K exactly when j is not reachable from i.
    """

    nodes: tuple[str, ...]
    d: tuple[tuple[int, ...], ...]
    K: int

    @property
    def n(self) -> int:
        return len(self.nodes)


def build_site_graph(lines) -> tuple[SiteGraph, BuildTally]:
    """Build a normalized SiteGraph from the lines of a delimited
    (from, to) edge list.

    Lines are comma- or tab-separated pairs; blank lines and ``#`` comments
    are skipped, except ``# node: X`` lines which declare isolated nodes.
    Self-loops are dropped and parallel edges collapsed, both tallied.
    The first node seen is the homepage (root).
    """
    nodes: list[str] = []
    seen_nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    tally = BuildTally()

    def note(node: str):
        if node not in seen_nodes:
            seen_nodes.add(node)
            nodes.append(node)

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("node:"):
                node = body[5:].strip()
                if not node:
                    raise FormatError(f"edge line {line_no} has an empty endpoint")
                note(node)
            continue
        parts = line.split(delimiter(line))
        if len(parts) != 2:
            raw = raw.rstrip("\n")
            raise FormatError(f"edge line {line_no} is not a (from, to) pair: {raw!r}")
        a, b = parts[0].strip(), parts[1].strip()
        if not a or not b:
            raise FormatError(f"edge line {line_no} has an empty endpoint")
        note(a)
        note(b)
        if a == b:
            tally.self_loops_dropped += 1
            continue
        if (a, b) in edges:
            tally.parallel_edges_collapsed += 1
            continue
        edges.add((a, b))

    if not nodes:
        raise DomainError("edge stream is empty: no nodes found")
    return SiteGraph(nodes=frozenset(nodes), edges=frozenset(edges),
                     root=nodes[0]), tally


def _indexed(g: SiteGraph) -> tuple[list[str], list[tuple[int, int]], int]:
    """Nodes in canonical order, edges as index pairs, and the root index."""
    order = g.node_order()
    index = {node: i for i, node in enumerate(order)}
    return order, [(index[a], index[b]) for a, b in g.edges], index[g.root]


def _sweep(n: int, edges):
    """Breadth-first search from every node 0..n-1 at once.

    Bit s of reach[v] is set once source s has reached v; each level pushes
    the bits that arrived at a node on the previous level on to its
    successors (multi-source BFS after Then et al., "The More the Merrier",
    VLDB 2014). Yields (level, fresh) where fresh maps each node v, in no
    set order, to the sources whose shortest distance to v is exactly
    ``level``, so the last level yielded is the longest finite distance.
    Reversed edges turn fresh[v] into the targets at that distance from v.
    """
    successors: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        successors[a].append(b)
    reach = [1 << v for v in range(n)]
    fresh = dict(enumerate(reach))
    level = 0
    while True:
        level += 1
        pushed: dict[int, int] = {}
        for u, sources in fresh.items():
            for v in successors[u]:
                if v in pushed:
                    pushed[v] |= sources
                else:
                    pushed[v] = sources
        fresh = {}
        for v, sources in pushed.items():
            # The bits of sources not yet in reach[v], without the
            # negative big integer that sources & ~reach[v] would build.
            r = reach[v]
            sources = (sources | r) ^ r
            if sources:
                reach[v] = r | sources
                fresh[v] = sources
        if not fresh:
            return
        yield level, fresh


def _check_conversion_constant(k: int, least: int, longest: int) -> None:
    # Unreachable pairs count as K, so a K below a finite distance would
    # rank unreachable pages closer than reachable ones.
    if k < max(least, longest):
        raise DomainError(
            f"conversion constant K={k} is too small: it must be at least "
            f"{least} and at least the longest finite distance, {longest}")


def _distance_summary(g: SiteGraph, k: int
                      ) -> tuple[float, list[int], list[int], list[int]]:
    """Distance aggregates of ``g`` in its canonical node order, enough for
    all four metrics without the n x n matrix: the sum of converted
    distances with unreachable pairs at ``k``; per node, the sum of finite
    distances into it (status) and out of it (contrastatus); and the
    distance from the root to each node, -1 when unreachable.

    Status and root distances come from a sweep along the edges,
    contrastatus from a second sweep against them. k must be at least 2,
    the least K for which compactness has Max > Min.
    """
    order, edges, root = _indexed(g)
    n = len(order)
    status = [0] * n
    root_distances = [-1] * n
    root_distances[root] = 0
    reached = n  # every node reaches itself at distance 0
    longest = 0
    for level, fresh in _sweep(n, edges):
        for v, sources in fresh.items():
            count = sources.bit_count()
            status[v] += level * count
            reached += count
            if sources >> root & 1:
                root_distances[v] = level
        longest = level
    _check_conversion_constant(k, 2, longest)
    contrastatus = [0] * n
    for level, fresh in _sweep(n, [(b, a) for a, b in edges]):
        for v, targets in fresh.items():
            contrastatus[v] += level * targets.bit_count()
    return (float(sum(status) + (n * n - reached) * k), status, contrastatus,
            root_distances)


def converted_distances(g: SiteGraph, K: int | None = None) -> ConvertedDistanceMatrix:
    """All-pairs shortest directed distances with unreachable pairs set to K.

    Default K is the node count; K may not be below the longest finite
    distance. The full n x n matrix is materialized; for metric
    computation on large graphs prefer :func:`organization_profile`,
    which only keeps per-node sums.
    """
    k = g.n if K is None else K
    order, edges, _ = _indexed(g)
    n = len(order)
    d = [[k] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0
    longest = 0
    for level, fresh in _sweep(n, edges):
        for v, sources in fresh.items():
            while sources:
                low = sources & -sources
                d[low.bit_length() - 1][v] = level
                sources ^= low
        longest = level
    _check_conversion_constant(k, 1, longest)
    return ConvertedDistanceMatrix(nodes=tuple(order), d=tuple(map(tuple, d)),
                                   K=k)


def _navigability(n: int, k: int, sum_converted: float) -> float:
    # Compactness Cp = (Max - sum(d_ij)) / (Max - Min) with
    # Max = (n^2 - n) * K and Min = n^2 - n.
    max_sum = (n * n - n) * k
    min_sum = n * n - n
    return (max_sum - sum_converted) / (max_sum - min_sum)


def _linearity(status: list[int], contrastatus: list[int]) -> float:
    # Absolute prestige sum(|status - contrastatus|) over its value on a
    # directed chain: n^3/4 for even n, (n^3 - n)/4 for odd n.
    n = len(status)
    prestige = sum(abs(a - b) for a, b in zip(status, contrastatus))
    lap = n ** 3 / 4 if n % 2 == 0 else (n ** 3 - n) / 4
    return prestige / lap


def organization_profile(g: SiteGraph, K: int | None = None) -> dict:
    """All four organization metrics from a single all-pairs distance pass:
    the one entry point to them. Returns the report's organization section
    without its ``navigation`` entry, which comes from the logs.

    Pages the root does not reach are left out of the mean depth and
    counted in ``unreachable_pages``; a root that reaches nothing has depth
    0.0 and a flag. A single-node graph has depth and density 0.0,
    navigability and linearity None (absent, not 0), and a flag.
    """
    if g.n == 1:
        return {"depth": 0.0, "unreachable_pages": 0, "density": 0.0,
                "navigability": None, "linearity": None,
                "flags": [DEGENERATE_SINGLE_NODE]}
    k = g.n if K is None else K
    sum_converted, status, contrastatus, dists = _distance_summary(g, k)
    # Excludes the root (0) and unreachable pages (-1).
    reach = [d for d in dists if d > 0]
    return {
        "depth": sum(reach) / len(reach) if reach else 0.0,
        "unreachable_pages": dists.count(-1),
        "density": len(g.edges) / (g.n * (g.n - 1)),
        "navigability": _navigability(g.n, k, sum_converted),
        "linearity": _linearity(status, contrastatus),
        "flags": [] if reach else [DEGENERATE_NO_REACHABLE],
    }
