"""Randomized rank oracle for generic d-dimensional rigidity matroids.

A generic realization is emulated by drawing vertex coordinates uniformly
from GF(PRIME); the rigidity matrix row of edge uv carries coords(u) -
coords(v) in u's d columns and the negation in v's.  Each oracle answers
exactly for the linear matroid of its realization, whose ranks can only
come out *lower* than the generic ones, with probability at most
(rows)/PRIME per query.  So "independent" answers are exact, and a short
result is the only symptom of an unlucky realization.  One oracle answers
for every part of a union of copies of R_d, and a delivered object is
re-checked, all its parts at once, under one fresh realization
(``verify_independent``), which catches kernel faults.  The salts drawn
are 1 for packings and union ranks, 0 for orientation bases and
``simulate gpd --check``, and ``salt + 2^20`` for re-checks.

Exact combinatorial oracles are provided for cross-validation where they
exist: d=1 (forests, union-find) and d=2 (the (2,3)-pebble game).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Graph
from .linalg import PRIME, RowBasis
from .stream import stream_rng


def complete_rank(n: int, d: int) -> int:
    """Generic rigidity rank of the complete graph on n vertices.

    dn - (d+1 choose 2) once n exceeds d+1; all of (n choose 2) below that,
    where the matrix cannot reach the affine bound.
    """
    if n <= d + 1:
        return n * (n - 1) // 2
    return d * n - (d + 1) * d // 2


@dataclass(frozen=True)
class Realization:
    """Seeded random coordinates in GF(PRIME)^d, one tuple per vertex."""

    d: int
    coords: tuple[tuple[int, ...], ...]
    seed: int
    salt: int

    @classmethod
    def random(cls, n: int, d: int, seed: int, salt: int = 0) -> "Realization":
        if d < 1:
            raise ValueError("dimension must be at least 1")
        rng = stream_rng(seed, salt)
        coords = tuple(tuple(rng.randrange(PRIME) for _ in range(d)) for _ in range(n))
        return cls(d, coords, seed, salt)


def rigidity_matrix_row(realization: Realization, n: int, u: int, v: int) -> list[int]:
    """One matrix row for the (possibly virtual) edge uv."""
    d = realization.d
    row = [0] * (d * n)
    cu, cv = realization.coords[u], realization.coords[v]
    for i in range(d):
        diff = (cu[i] - cv[i]) % PRIME
        row[u * d + i] = diff
        row[v * d + i] = (PRIME - diff) % PRIME
    return row


class RigidityOracle:
    """Rank and independence queries for R_d over one fixed realization.

    Queries are pure given (seed, salt).  Each query eliminates afresh; only
    the matrix row of each edge is cached.  Matroid partition grows one
    ``RigidityPartitionState`` basis per part over that shared row cache.
    """

    def __init__(self, graph: Graph, d: int, seed: int = 0, salt: int = 0):
        self.graph = graph
        self.d = d
        self.seed = seed
        self.salt = salt
        self.realization = Realization.random(graph.n, d, seed, salt)
        self._rows: dict[int, list[int]] = {}

    @property
    def ncols(self) -> int:
        return self.d * self.graph.n

    def row(self, edge_id: int) -> list[int]:
        r = self._rows.get(edge_id)
        if r is None:
            u, v = self.graph.edges[edge_id]
            r = rigidity_matrix_row(self.realization, self.graph.n, u, v)
            self._rows[edge_id] = r
        return r

    def rank(self, edge_ids: Iterable[int]) -> int:
        return len(self.extract_base(edge_ids))

    def is_independent(self, edge_ids: Iterable[int]) -> bool:
        ids = frozenset(edge_ids)
        return self.rank(ids) == len(ids)

    def is_rigid(self, edge_ids: Iterable[int] | None = None) -> bool:
        """Whether the edge set spans R_d of the complete graph on V."""
        ids = frozenset(range(self.graph.m)) if edge_ids is None else frozenset(edge_ids)
        return self.rank(ids) == complete_rank(self.graph.n, self.d)

    def is_linked(self, u: int, v: int, edge_ids: Iterable[int]) -> bool:
        """True iff adding the (virtual) edge uv leaves the rank unchanged."""
        if u == v:
            raise ValueError("linkedness needs two distinct vertices")
        basis = RowBasis(self.ncols)
        for e in sorted(set(edge_ids)):
            basis.insert(self.row(e))
        probe = rigidity_matrix_row(self.realization, self.graph.n, u, v)
        return not any(basis.residue(probe))

    def extract_base(self, edge_ids: Iterable[int]) -> list[int]:
        """Greedy maximal independent subset, scanned in edge-index order."""
        basis = RowBasis(self.ncols)
        kept = []
        for e in sorted(set(edge_ids)):
            if basis.insert(self.row(e)):
                kept.append(e)
        return kept

    def verify_independent(self, *edge_sets: Iterable[int]) -> bool:
        """Whether every given set is independent under one fresh realization.

        One realization re-checks all the parts of a packing (cuts
        one-sided error).  Its salt is ``salt + 2^20``; for the salts the
        package uses, no constructor draws it.
        """
        oracle = RigidityOracle(self.graph, self.d, self.seed, self.salt + (1 << 20))
        return all(oracle.is_independent(ids) for ids in edge_sets)

    def new_state(self) -> "RigidityPartitionState":
        return RigidityPartitionState(self)


class RigidityPartitionState:
    """Incremental independent set over one oracle, with exchange queries.

    Wraps a tracking RowBasis whose member ids are edge indices, with one
    recycled tracking slot per live edge; ``circuit(e)`` reports
    the fundamental circuit of a dependent edge, i.e. exactly the members y
    for which part - y + e stays independent.
    """

    __slots__ = ("oracle", "basis")

    def __init__(self, oracle: RigidityOracle):
        self.oracle = oracle
        # live members are independent, so at most min(m, r_d(K_n)) hold a slot
        width = min(oracle.graph.m, complete_rank(oracle.graph.n, oracle.d))
        self.basis = RowBasis(oracle.ncols, track_width=width)

    def insert(self, edge_id: int) -> bool:
        return self.basis.insert(self.oracle.row(edge_id), edge_id)

    def circuit(self, edge_id: int) -> set[int] | None:
        return self.basis.circuit(self.oracle.row(edge_id))

    def remove(self, edge_id: int) -> None:
        self.basis.remove(edge_id)


def independent_d1(graph: Graph, edge_ids: Iterable[int]) -> bool:
    """Exact R_1 independence: the edge set is a forest (union-find)."""
    parent = list(range(graph.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edge_ids:
        u, v = graph.edges[e]
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def independent_d2(graph: Graph, edge_ids: Iterable[int]) -> bool:
    """Exact R_2 independence via the (2,3)-pebble game.

    Each vertex holds 2 pebbles; an edge is accepted when 4 pebbles can be
    gathered on its endpoints by reversing directed paths.  The accepted
    sets are exactly the (2,3)-sparse sets, which by Laman's theorem are
    the R_2-independent ones.
    """
    pebbles = [2] * graph.n
    out: dict[int, list[int]] = {v: [] for v in range(graph.n)}

    def gather(root: int, keep: tuple[int, int]) -> bool:
        # DFS from root along accepted-edge orientations for a free pebble;
        # reverse the path to move it onto root.
        seen = {root}
        stack = [(root, iter(out[root]))]
        trail: dict[int, int] = {}
        while stack:
            v, it = stack[-1]
            found = None
            for w in it:
                if w in seen:
                    continue
                seen.add(w)
                trail[w] = v
                if pebbles[w] > 0 and w not in keep:
                    found = w
                    break
                stack.append((w, iter(out[w])))
                break
            else:
                stack.pop()
                continue
            if found is not None:
                pebbles[found] -= 1
                pebbles[root] += 1
                while found != root:
                    prev = trail[found]
                    out[prev].remove(found)
                    out[found].append(prev)
                    found = prev
                return True
        return False

    for e in sorted(set(edge_ids)):
        u, v = graph.edges[e]
        while pebbles[u] + pebbles[v] < 4:
            if pebbles[u] < 2 and gather(u, (u, v)):
                continue
            if pebbles[v] < 2 and gather(v, (u, v)):
                continue
            return False
        pebbles[u] -= 1
        out[u].append(v)
    return True
