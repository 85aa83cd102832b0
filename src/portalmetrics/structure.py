"""Intra-portal page graph and the four content-organization metrics.

A site is modeled as a directed graph of pages with a designated homepage,
read by :func:`build_site_graph` with its drop counts keyed as the
``structure`` command prints them. The module computes:

* depth        -- mean shortest click-distance from the homepage,
* density      -- links over maximum possible directed links, in [0, 1],
* navigability -- compactness of the converted distances, in [0, 1]
                  (1 = complete digraph, 0 = edgeless),
* linearity    -- stratum: normalized absolute prestige, in [0, 1]
                  (1 = directed chain, 0 = symmetric navigation).

Unreachable pairs count as the conversion constant K (default: the node
count), which may not be below the longest finite distance.
:func:`organization_profile` computes all four metrics from a
breadth-first sweep that starts at all pages at once: each page holds the
set of pages that have reached it as the bits of a Python integer, and
status and contrastatus add up level by level without an n x n matrix.
Status counts each page's new bits in a sweep along the edges,
contrastatus in a second sweep against them. Session path graphs are
measured in ``usage`` from the same two formulas.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError, FormatError
from .inputs import delimiter

DEGENERATE_SINGLE_NODE = "single_node_graph"
DEGENERATE_NO_REACHABLE = "no_page_reachable_from_root"


class SiteGraph(namedtuple("SiteGraph", "nodes edges root")):
    """Directed page graph with a designated homepage (root).

    Nodes are page identifiers (normalized URLs or opaque ids): ``nodes``
    is a frozenset of them, ``edges`` a frozenset of (from, to) pairs.
    Self-loops and parallel edges are forbidden; use
    :func:`build_site_graph` to normalize raw edge lists.
    """

    __slots__ = ()

    def __new__(cls, nodes, edges, root):
        if not nodes:
            raise DomainError("a site graph needs at least one node")
        if root not in nodes:
            raise DomainError(f"root {root!r} is not a node of the graph")
        for a, b in edges:
            if a == b:
                raise DomainError(f"self-loop on {a!r} is not allowed")
            if a not in nodes or b not in nodes:
                raise DomainError(f"edge ({a!r}, {b!r}) references unknown node")
        return super().__new__(cls, nodes, edges, root)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def node_order(self) -> list[str]:
        """Stable node ordering used by every per-node computation."""
        return sorted(self.nodes)


def build_site_graph(lines) -> tuple[SiteGraph, dict[str, int]]:
    """Build a normalized SiteGraph from the lines of a delimited
    (from, to) edge list, with the counts ``self_loops_dropped`` and
    ``parallel_links_collapsed``.

    Lines are comma- or tab-separated pairs; blank lines and ``#`` comments
    are skipped, except ``# node: X`` lines which declare isolated nodes.
    Self-loops are dropped and parallel edges collapsed, both counted.
    The first node seen is the homepage (root).
    """
    nodes: list[str] = []
    seen_nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    counts = {"self_loops_dropped": 0, "parallel_links_collapsed": 0}

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
            counts["self_loops_dropped"] += 1
            continue
        if (a, b) in edges:
            counts["parallel_links_collapsed"] += 1
            continue
        edges.add((a, b))

    if not nodes:
        raise DomainError("edge stream is empty: no nodes found")
    return SiteGraph(nodes=frozenset(nodes), edges=frozenset(edges),
                     root=nodes[0]), counts


def _indexed(g: SiteGraph) -> tuple[list[str], list[tuple[int, int]], int]:
    """Nodes in canonical order, edges as index pairs, and the root index."""
    order = g.node_order()
    index = {node: i for i, node in enumerate(order)}
    return order, [(index[a], index[b]) for a, b in g.edges], index[g.root]


def _sweep(n: int, edges, root: int | None = None
           ) -> tuple[list[int], int, int, list[int] | None]:
    """Breadth-first search from every node 0..n-1 at once, along ``edges``.

    Bit s of reach[v] is set once source s has reached v; each level pushes
    the bits that arrived at a node on the previous level on to its
    successors (multi-source BFS after Then et al., "The More the Merrier",
    VLDB 2014). Returns, per node v, the sum of the shortest distances from
    every source that reaches v; the count of connected (source, node)
    pairs, each node with itself included; the longest finite distance;
    and, when ``root`` is given, each node's distance from it (-1 when
    unreachable), else None. Reversed edges turn the sums into the sums of
    distances out of each node.
    """
    successors: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        successors[a].append(b)
    reach = [1 << v for v in range(n)]
    fresh = dict(enumerate(reach))
    sums = [0] * n
    reached = n  # every node reaches itself at distance 0
    root_distances = None
    if root is not None:
        root_distances = [-1] * n
        root_distances[root] = 0
    level = 0
    while fresh:
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
                count = sources.bit_count()
                sums[v] += level * count
                reached += count
                if root_distances is not None and sources >> root & 1:
                    root_distances[v] = level
    return sums, reached, level - 1, root_distances


def _distance_summary(g: SiteGraph, k: int
                      ) -> tuple[list[int], list[int], list[int], int]:
    """Distance aggregates of ``g`` in its canonical node order, enough for
    all four metrics without the n x n matrix: per node, the sum of finite
    distances into it (status) and out of it (contrastatus); the distance
    from the root to each node, -1 when unreachable; and the count of
    connected ordered pairs, each node with itself included.

    Status and root distances come from a sweep along the edges,
    contrastatus from a second sweep against them. k must be at least 2,
    the least K for which compactness has Max > Min, and at least the
    longest finite distance: unreachable pairs count as K, so a smaller K
    would rank unreachable pages closer than reachable ones.
    """
    order, edges, root = _indexed(g)
    n = len(order)
    status, reached, longest, root_distances = _sweep(n, edges, root)
    if k < max(2, longest):
        raise DomainError(
            f"conversion constant K={k} is too small: it must be at least "
            f"2 and at least the longest finite distance, {longest}")
    contrastatus = _sweep(n, [(b, a) for a, b in edges])[0]
    return status, contrastatus, root_distances, reached


def _navigability(n: int, k: int, status: list[int], reached: int) -> float:
    # Compactness Cp = (Max - sum(d_ij)) / (Max - Min) over the converted
    # distances d_ij, with Max = (n^2 - n) * K and Min = n^2 - n: the
    # finite distances sum to sum(status), and each of the n^2 - reached
    # unconnected ordered pairs counts as K.
    sum_converted = sum(status) + (n * n - reached) * k
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
    status, contrastatus, dists, reached = _distance_summary(g, k)
    # Excludes the root (0) and unreachable pages (-1).
    reach = [d for d in dists if d > 0]
    return {
        "depth": sum(reach) / len(reach) if reach else 0.0,
        "unreachable_pages": dists.count(-1),
        "density": len(g.edges) / (g.n * (g.n - 1)),
        "navigability": _navigability(g.n, k, status, reached),
        "linearity": _linearity(status, contrastatus),
        "flags": [] if reach else [DEGENERATE_NO_REACHABLE],
    }
