"""Deterministic graph generators and explicit packing constructions.

Alongside the standard hosts (complete, random, Harary circulants) this
module builds three certified objects:

* an explicit packing of t edge-disjoint d-rigid spanning subgraphs inside
  K_n (n >= 2td), each part a complete graph on 2d block vertices plus
  degree-d attachments;
* an explicit split of K_n into a spanning tree and a d-rigid complement
  (n >= d + a + 2, where a is the smallest integer with a(a+1)/2 >= d);
* the Lovasz-Yemini vertex-splitting gadget: a K-connected graph whose
  rigidity union rank falls short of what spanning rigid subgraphs would
  need, witnessing that high connectivity alone cannot be pushed below
  roughly d(d+1).

All vertex labelings are fixed (gadget-major order) so outputs are
byte-stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import Graph
from .rigidity import complete_rank
from .stream import stream_rng


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def gnp_graph(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p) with a seeded stream; edge draws in canonical order."""
    if not 0 <= p <= 1:
        raise ValueError("edge probability p must lie in [0, 1]")
    rng = stream_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def harary_graph(k: int, m: int) -> Graph:
    """k-regular k-connected circulant on m vertices (m even, m >= k+1).

    Offsets 1..floor(k/2) around the cycle; odd k adds the antipodal
    matching.  Connectivity is not assumed here, it is verified by the
    connectivity module in the test suite.
    """
    if k < 1:
        raise ValueError("degree must be at least 1")
    if m < k + 1:
        raise ValueError("need at least k+1 vertices")
    if m % 2 == 1:
        raise ValueError("vertex count must be even")
    edges = set()
    for off in range(1, k // 2 + 1):
        for i in range(m):
            j = (i + off) % m
            edges.add((i, j) if i < j else (j, i))
    if k % 2 == 1:
        for i in range(m // 2):
            edges.add((i, i + m // 2))
    return Graph(m, sorted(edges))


def smallest_clique_order(d: int) -> int:
    """Smallest a with a(a+1)/2 >= d."""
    if d < 1:
        raise ValueError("d must be at least 1")
    a = max(1, math.isqrt(2 * d) - 1)
    while a * (a + 1) // 2 < d:
        a += 1
    return a


@dataclass(frozen=True)
class PackingWitness:
    """Edge-disjoint spanning subgraphs of a host, with per-part claims."""

    host: Graph
    parts: tuple[frozenset[int], ...]
    claims: tuple[str, ...]


def complete_rigid_packing(n: int, d: int, t: int) -> PackingWitness:
    """t edge-disjoint d-rigid spanning subgraphs of K_n, explicitly.

    Blocks V_i^1, V_i^2 of size d each; part i is the complete graph on its
    own 2d block vertices, matched against first blocks of earlier parts
    and opposite blocks of later parts, plus all edges from V_i^1 into the
    leftover vertex set.  Every vertex outside part i's own blocks attaches
    with exactly d edges, so each part is d-rigid and spanning.
    """
    if d < 1 or t < 1:
        raise ValueError("d and t must be at least 1")
    if n < 2 * t * d:
        raise ValueError(f"need at least 2td = {2 * t * d} vertices")
    host = complete_graph(n)
    block = lambda i, j: range(2 * d * i + j * d, 2 * d * i + (j + 1) * d)
    rest = range(2 * t * d, n)
    parts = []
    for i in range(t):
        own = list(block(i, 0)) + list(block(i, 1))
        pairs = {(u, v) if u < v else (v, u)
                 for ix, u in enumerate(own) for v in own[ix + 1 :]}
        for ell in range(t):
            if ell < i:
                pairs |= {(min(u, v), max(u, v)) for u in block(i, 0) for v in block(ell, 0)}
                pairs |= {(min(u, v), max(u, v)) for u in block(i, 1) for v in block(ell, 1)}
            elif ell > i:
                pairs |= {(min(u, v), max(u, v)) for u in block(i, 0) for v in block(ell, 1)}
                pairs |= {(min(u, v), max(u, v)) for u in block(i, 1) for v in block(ell, 0)}
        pairs |= {(min(u, v), max(u, v)) for u in block(i, 0) for v in rest}
        parts.append(frozenset(host.edge_id(u, v) for u, v in pairs))
    return PackingWitness(host, tuple(parts), ("d-rigid",) * t)


def tree_rigid_decomposition(n: int, d: int) -> PackingWitness:
    """A spanning tree of K_n whose complement stays d-rigid.

    The base case n = d + a + 2 hangs d+1 leaf groups off a spine of a+1
    hub vertices (hub i takes the j-th group slice (t_{i-1}, t_i], with
    t_i = (i+1 choose 2) capped at d); the complement then contains K_{d+1}
    on the leaves and picks up every hub with at least d neighbors, so it
    is d-rigid.  Larger n attach each extra vertex with one tree edge and d
    rigid edges.

    Labels: hubs are 0..a, leaves a+1..a+d+1, extras d+a+2..n-1.
    parts[0] is the tree, parts[1] the d-rigid complement.
    """
    a = smallest_clique_order(d)
    base_n = d + a + 2
    if n < base_n:
        raise ValueError(f"need at least d + a + 2 = {base_n} vertices")
    host = complete_graph(n)
    hub = lambda i: i - 1                 # i in 1..a+1
    leaf = lambda j: a + j                # j in 1..d+1
    cuts = [0] + [min(i * (i + 1) // 2, d) for i in range(1, a)] + [d]
    tree = []
    for i in range(1, a + 1):
        tree.extend((hub(i), leaf(j)) for j in range(cuts[i - 1] + 1, cuts[i] + 1))
    tree.append((leaf(d + 1), hub(a + 1)))
    tree.extend((hub(i), hub(a + 1)) for i in range(1, a + 1))
    tree_pairs = {(min(u, v), max(u, v)) for u, v in tree}
    rigid_pairs = {
        (u, v)
        for u in range(base_n)
        for v in range(u + 1, base_n)
        if (u, v) not in tree_pairs
    }
    for w in range(base_n, n):
        tree_pairs.add((hub(a + 1), w))
        rigid_pairs |= {(leaf(j), w) for j in range(1, d + 1)}
    return PackingWitness(
        host,
        (
            frozenset(host.edge_id(u, v) for u, v in tree_pairs),
            frozenset(host.edge_id(u, v) for u, v in rigid_pairs),
        ),
        ("spanning-tree", "d-rigid"),
    )


@dataclass(frozen=True)
class TightExample:
    """Highly connected graph with deficient rigidity-union rank."""

    d_list: tuple[int, ...]
    s: int
    connectivity: int                     # K = sum d_i(d_i+1) - 1
    graph: Graph
    host: Graph
    rank_upper_bound: int
    spanning_requirement: int

    @property
    def strict(self) -> bool:
        """Whether the counting bound already rules out the packing at this s."""
        return self.rank_upper_bound < self.spanning_requirement


def lovasz_yemini(d_list: list[int], s: int) -> TightExample:
    """Split every vertex of the Harary host H(K, 2s) into K leaves.

    Each host vertex v becomes a clique on K copies (ids v*K .. v*K+K-1);
    every host edge lands between dedicated copies, one per incident slot
    in canonical edge order, so outside its clique each copy has degree at
    most one.  The union of the d_i-rigidity matroids then has rank at most
    sK + 2s * sum_i r_{d_i}(K_K), which for large s is less than spanning
    d_i-rigid subgraphs would need.
    """
    if not d_list or any(d < 1 for d in d_list):
        raise ValueError("dimensions must be positive")
    if s < 1:
        raise ValueError("s must be at least 1")
    k_conn = sum(d * (d + 1) for d in d_list) - 1
    host = harary_graph(k_conn, 2 * s)
    edges = []
    for v in range(host.n):
        base = v * k_conn
        edges.extend(
            (base + i, base + j) for i in range(k_conn) for j in range(i + 1, k_conn)
        )
    slot = [0] * host.n
    for u, v in host.edges:
        edges.append((u * k_conn + slot[u], v * k_conn + slot[v]))
        slot[u] += 1
        slot[v] += 1
    graph = Graph(host.n * k_conn, edges)
    upper = s * k_conn + host.n * sum(complete_rank(k_conn, d) for d in d_list)
    required = sum(d * graph.n - (d + 1) * d // 2 for d in d_list)
    return TightExample(tuple(d_list), s, k_conn, graph, host, upper, required)
