"""Exact vertex connectivity for graphs and digraphs, with certificates.

Pair connectivity runs unit-capacity max-flow on the vertex-split network
(v becomes v_in -> v_out with capacity 1); by Menger the flow value equals
the maximum number of internally disjoint paths and a minimum separator
falls out of the residual cut.  Dinic's blocking-flow phases give
O(sqrt(V) * E) per flow on the unit-capacity internal arcs.

k-connectivity is Even's test (SIAM J. Comput. 4(3), 1975), which needs
k(k-1)/2 + (n - k) flows (twice that for a digraph) instead of one per
nonadjacent pair:

* pair step: every nonadjacent pair among v_0..v_{k-1} has k disjoint
  paths (a digraph checks both orders);
* fan step: for each j >= k, a super-source s joined to v_0..v_{j-1} has
  k internally disjoint paths to v_j.  A digraph runs the fan step a
  second time on its reverse, i.e. from v_j back to v_0..v_{j-1}.

Why the two steps decide k-connectivity (n >= k+1).  A failing step is a
real cut: a pair step cut is a separator of that pair, and a fan cut T with
|T| < k <= j misses some v_a with a < j, whose split arc stays on the
source side, so T separates v_a from v_j in G (v_j from v_a on the reversed
pass); that pair and T are the certificate.  Conversely, let |S| < k with
G - S not (strongly) connected.  If two of v_0..v_{k-1} outside S lie in
different components (for a digraph: one cannot reach the other), the
pair step sees that pair cut by S.  Otherwise v_0..v_{k-1} minus S, which
is not empty, lies in one (strong) component C.  The first v_j outside C
and S has j >= k and v_0..v_{j-1} inside C and S.  In a graph S cuts v_j
off C, so every path from s to v_j meets S.  In a digraph S cuts every
path from C to v_j, and the forward pass fails, or every path from v_j to
C, and the reversed pass fails.

The fan step builds its split network once per direction, with one extra
node for s.  It adds one source arc per j and never removes one; before
each flow the capacities are reset from a saved copy.  The pair step
checks at most k(k-1)/2 pairs (k(k-1) ordered ones for a digraph), each
on a network of its own through ``vertex_connectivity_pair``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Union

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
    of internal arcs only and reads off as a vertex separator.  Node 2n is
    left free for the fan step's super-source.
    """
    net = FlowNetwork(2 * h.n + 1)
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


def _separator(net: FlowNetwork, s: int, n: int) -> frozenset[int]:
    """Vertices whose split arc crosses the residual cut of a finished flow from s."""
    reach = net.source_side(s)
    return frozenset(x for x in range(n) if 2 * x in reach and 2 * x + 1 not in reach)


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
    return value, _separator(net, 2 * u + 1, h.n)


def _fan_step(h: GraphLike, k: int, kind: str, backward: bool) -> CutCertificate | None:
    """Even's fan step: one flow from v_0..v_{j-1} into v_j per j >= k.

    On the reversed pass (``backward``) the certificate pair is flipped
    back to the orientation of the caller's digraph.
    """
    n = h.n
    net = _split_network(h)
    fresh = net.cap[:]
    src = 2 * n
    for j in range(n):
        if j >= k:
            net.cap[:] = fresh
            if net.max_flow(src, 2 * j, k) < k:
                sep = _separator(net, src, n)
                a = next(x for x in range(j) if x not in sep)
                return CutCertificate(kind, sep, (j, a) if backward else (a, j))
        net.add_arc(src, 2 * j, n)
        fresh += (n, 0)
    return None


def is_k_connected(h: GraphLike, k: int) -> tuple[bool, CutCertificate | None]:
    """Exact k-connectivity decision by Even's test; a separator on failure.

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
    for x, y in combinations(range(k), 2):
        for a, b in ((x, y), (y, x)) if directed else ((x, y),):
            if _adjacent(h, a, b):
                continue
            value, sep = vertex_connectivity_pair(h, a, b, limit=k)
            if value < k:
                return False, CutCertificate(kind, sep, (a, b))
    cert = _fan_step(h, k, kind, backward=False)
    if cert is None and directed:
        cert = _fan_step(h.reversed(), k, kind, backward=True)
    return cert is None, cert


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
