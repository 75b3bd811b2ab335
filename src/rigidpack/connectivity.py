"""Exact vertex connectivity for graphs and digraphs, with certificates.

Pair connectivity runs unit-capacity max-flow on the vertex-split network
(v becomes v_in -> v_out with capacity 1); by Menger the flow value equals
the maximum number of internally disjoint paths and a minimum separator
falls out of the residual cut.  k-connectivity checks all nonadjacent pairs
(u, v) with u restricted to a fixed (k+1)-subset, which is sufficient: any
separator S with |S| < k misses some u of the subset, and every v on the
far side of S is nonadjacent to u.  Dinic's blocking-flow phases give
O(sqrt(V) * E) per pair on the unit-capacity internal arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Union

from .flow import FlowNetwork
from .graph import Digraph, Graph

GraphLike = Union[Graph, Digraph]


@dataclass(frozen=True)
class CutCertificate:
    """A separator S whose removal disconnects the pair (directed for digraphs)."""

    kind: str                    # "graph" | "digraph"
    separator: frozenset[int]
    pair: tuple[int, int]


def _split_network(h: GraphLike) -> FlowNetwork:
    """Vertex-split network: x_in = 2x, x_out = 2x+1, internal caps 1.

    Arcs between vertices get capacity n so that every minimum cut consists
    of internal arcs only and reads off as a vertex separator.
    """
    net = FlowNetwork(2 * h.n)
    big = h.n
    for x in range(h.n):
        net.add_arc(2 * x, 2 * x + 1, 1)
    if isinstance(h, Graph):
        for a, b in h.edges:
            net.add_arc(2 * a + 1, 2 * b, big)
            net.add_arc(2 * b + 1, 2 * a, big)
    else:
        for a, b in h.arcs():
            net.add_arc(2 * a + 1, 2 * b, big)
    return net


def _adjacent(h: GraphLike, u: int, v: int) -> bool:
    if isinstance(h, Graph):
        return h.has_edge(u, v)
    return h.has_arc(u, v)


def vertex_connectivity_pair(
    h: GraphLike, u: int, v: int, limit: int | None = None
) -> tuple[int, frozenset[int]]:
    """Max internally disjoint u->v paths and a minimum u,v-separator.

    The pair must be nonadjacent (no edge, resp. no arc u->v), otherwise no
    finite separator exists.  With ``limit`` the flow stops early once that
    many paths are found; the separator is only meaningful when the
    returned value is below the limit.
    """
    if u == v:
        raise ValueError("need two distinct vertices")
    if _adjacent(h, u, v):
        raise ValueError(f"({u}, {v}) are adjacent: no finite separator")
    net = _split_network(h)
    value = net.max_flow(2 * u + 1, 2 * v, limit)
    if limit is not None and value >= limit:
        return value, frozenset()
    reach = net.source_side(2 * u + 1)
    sep = frozenset(
        x for x in range(h.n)
        if x != u and x != v and 2 * x in reach and 2 * x + 1 not in reach
    )
    return value, sep


def is_k_connected(h: GraphLike, k: int) -> tuple[bool, CutCertificate | None]:
    """Exact k-connectivity decision; a separator certificate on failure.

    Needs at least k+1 vertices by definition.  Returns (False, None) when
    the graph is too small to qualify (no separator exists in that case).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    directed = isinstance(h, Digraph)
    n = h.n
    kind = "digraph" if directed else "graph"
    if n < k + 1:
        return False, None
    anchors = range(min(k + 1, n))
    pairs: Iterable[tuple[int, int]]
    if directed:
        pairs = ((a, b) for u in anchors for v in range(n) if v != u
                 for a, b in ((u, v), (v, u)))
    else:
        pairs = ((u, v) for u in anchors for v in range(n) if v != u)
    for a, b in pairs:
        if _adjacent(h, a, b):
            continue
        value, sep = vertex_connectivity_pair(h, a, b, limit=k)
        if value < k:
            return False, CutCertificate(kind, sep, (a, b))
    return True, None


def certificate_is_valid(h: GraphLike, cert: CutCertificate, k: int) -> bool:
    """Structural re-check: |S| < k and removing S separates the pair."""
    if len(cert.separator) >= k:
        return False
    a, b = cert.pair
    if a in cert.separator or b in cert.separator:
        return False
    return not _reachable(h, a, b, cert.separator)


def _reachable(h: GraphLike, a: int, b: int, removed: frozenset[int]) -> bool:
    seen = {a}
    queue = [a]
    for x in queue:
        nbrs = h.neighbors(x) if isinstance(h, Graph) else h.out_neighbors(x)
        for y in nbrs:
            if y not in removed and y not in seen:
                if y == b:
                    return True
                seen.add(y)
                queue.append(y)
    return a == b


def _connected_after_removal(h: GraphLike, removed: frozenset[int]) -> bool:
    directed = isinstance(h, Digraph)
    remaining = [x for x in range(h.n) if x not in removed]
    if len(remaining) <= 1:
        return True
    root = remaining[0]
    if not directed:
        return all(_reachable(h, root, x, removed) for x in remaining[1:])
    return all(
        _reachable(h, root, x, removed) and _reachable(h, x, root, removed)
        for x in remaining[1:]
    )


def brute_force_connectivity(h: GraphLike, k: int) -> bool:
    """Reference decision by exhausting all vertex subsets of size < k (n <= 12)."""
    n = h.n
    if n > 12:
        raise ValueError("brute force is limited to n <= 12")
    if n < k + 1:
        return False
    for size in range(k):
        for removed in combinations(range(n), size):
            if not _connected_after_removal(h, frozenset(removed)):
                return False
    return True
