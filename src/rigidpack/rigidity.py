"""Randomized rank oracle for generic d-dimensional rigidity matroids.

A generic realization is emulated by drawing vertex coordinates uniformly
from GF(PRIME), PRIME = 2^31 - 1; the rigidity matrix row of edge uv
carries coords(u) - coords(v) in u's d columns and the negation in v's.
Each oracle answers exactly for the linear matroid of its realization,
whose ranks can only come out *lower* than the generic ones: by
Schwartz-Zippel, a realization under-reports the rank of a set with a
generic base of R edges with probability at most R / PRIME, about
R / 2^31.  So "independent" answers are exact, and a short result is the
only symptom of an unlucky realization.

A short result is therefore never reported on one realization's word.
``guarded`` holds the one policy for it.  It solves once, and when the
result is below min(|ground|, sum of the oracles' ``max_rank``) it solves
again under their ``fresh()`` counterparts (an oracle listed several times
maps to one fresh oracle; an exact oracle is its own, so a solve under
exact oracles alone is not repeated) and keeps the larger result, the
first on a tie.  ``RigidityOracle.guarded_base`` (and through it ``rank``,
``is_independent``, ``is_rigid`` and ``verify_independent``) and
``matroid.guarded_partition`` are its two calls.  Each realization gives a
lower bound, so a short verdict that is still reported is wrong with
probability at most (R / PRIME)^2, R the generic rank (for a union, the
sum of the parts' generic ranks): about 4.5e-14 for the two d = 8 bases
of orient-k3 (R = 456) and 1.7e-12 for two d = 20 bases of K81 (R = 2820).

One oracle answers for every part of a union of copies of R_d.  A
feasible packing is certified part by part from the kernel's witness
(``RigidityPartitionState.certify``; see the ``linalg`` notes), with no
second elimination: a wrong part passes with probability at most
1 / (PRIME - 1) per draw, and a correct kernel always passes, so an
unverified packing means a kernel fault.  Packings and union ranks draw
salt 1 and orientation bases salt 0.  Each second look draws the
``fresh()`` (salt + 2^20) of the oracle whose verdict it checks, so a
chain has at most two steps: a guard's second solve, or the fresh check of
an orientation base (``verify_independent``) and that check's own guard.
The witness draws its vector from stream ``WITNESS_STREAM`` (-1) of the
oracle's seed; the package draws realizations at nonnegative salts only,
so none of them shares that stream.

Every realization's rank is at most ``complete_rank(n, d)`` (see
``RigidityOracle.max_rank``), so a set of that many independent edges spans
every edge.  ``extract_base`` stops scanning there, and matroid partition
stops placing edges once every part is that large.

Exact combinatorial oracles are provided for cross-validation where they
exist: d=1 (forests, union-find) and d=2 (the (2,3)-pebble game).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Sequence, TypeVar

from .graph import Graph
from .linalg import PRIME, RowBasis
from .stream import stream_rng

T = TypeVar("T")

# the stream of the witness's random vector (module notes)
WITNESS_STREAM = -1


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
    the matrix row of each edge and the ``fresh()`` oracle are cached.
    Matroid partition grows one ``RigidityPartitionState`` basis per part
    over that shared row cache.
    """

    def __init__(self, graph: Graph, d: int, seed: int = 0, salt: int = 0):
        self.graph = graph
        self.d = d
        self.seed = seed
        self.salt = salt
        self.realization = Realization.random(graph.n, d, seed, salt)
        self._rows: dict[int, list[int]] = {}
        self._fresh: RigidityOracle | None = None

    @property
    def ncols(self) -> int:
        return self.d * self.graph.n

    @property
    def max_rank(self) -> int:
        """``complete_rank(n, d)``, a bound on the rank of any edge set.

        It holds for every realization, not only a generic one.  With the
        coordinates left as indeterminates over GF(PRIME), the C(d+1, 2)
        trivial motions (translations, and x -> Ax with A skew) are
        independent vectors in the kernel of K_n's rigidity matrix once
        n >= d + 1, so its rank is at most dn - C(d+1, 2); below n = d + 2
        the bound is the row count C(n, 2).  A specialisation to drawn
        coordinates can only lower rank, since a minor that vanishes
        identically vanishes at every point.  So the bound is exact, not
        probabilistic: a set of this many independent edges spans every
        edge.
        """
        return complete_rank(self.graph.n, self.d)

    def row(self, edge_id: int) -> list[int]:
        r = self._rows.get(edge_id)
        if r is None:
            u, v = self.graph.edges[edge_id]
            r = rigidity_matrix_row(self.realization, self.graph.n, u, v)
            self._rows[edge_id] = r
        return r

    def fresh(self) -> "RigidityOracle":
        """The same oracle under an independent realization, at ``salt + 2^20``.

        Built once and kept: every guard and re-check of this oracle uses it.
        For the salts the package uses, no constructor draws it.
        """
        if self._fresh is None:
            self._fresh = RigidityOracle(self.graph, self.d, self.seed, self.salt + (1 << 20))
        return self._fresh

    def guarded_base(self, edge_ids: Iterable[int]) -> tuple[list[int], str | None]:
        """A base of the set, and the outcome of ``guarded``'s guard (module notes)."""
        return guarded(lambda os, ids: os[0].extract_base(ids), [self], frozenset(edge_ids))

    def rank(self, edge_ids: Iterable[int]) -> int:
        return len(self.guarded_base(edge_ids)[0])

    def is_independent(self, edge_ids: Iterable[int]) -> bool:
        ids = frozenset(edge_ids)
        return self.rank(ids) == len(ids)

    def is_rigid(self, edge_ids: Iterable[int] | None = None) -> bool:
        """Whether the edge set spans R_d of the complete graph on V."""
        ids = frozenset(range(self.graph.m)) if edge_ids is None else frozenset(edge_ids)
        return self.rank(ids) == self.max_rank

    def extract_base(self, edge_ids: Iterable[int]) -> list[int]:
        """Greedy maximal independent subset, scanned in edge-index order.

        The scan stops once ``max_rank`` edges are kept: they span the rest.
        """
        basis = RowBasis(self.ncols)
        kept = []
        full = self.max_rank
        for e in sorted(set(edge_ids)):
            if len(kept) == full:
                break
            if basis.insert(self.row(e)):
                kept.append(e)
        return kept

    def verify_independent(self, *edge_sets: Iterable[int]) -> bool:
        """Whether every given set is independent under ``fresh()``.

        ``rigid_base_orientation`` asks it to tell a base that is not
        independent from an oracle error; a set it finds dependent is asked
        of its own ``fresh()`` by the guard of ``rank`` before it is
        rejected.
        """
        oracle = self.fresh()
        return all(oracle.is_independent(ids) for ids in edge_sets)

    def new_state(self) -> "RigidityPartitionState":
        return RigidityPartitionState(self)


def guarded(
    solve: Callable[[Sequence, Collection[int]], T],
    oracles: Sequence,
    ground: Collection[int],
    size: Callable[[T], int] = len,
) -> tuple[T, str | None]:
    """``solve(oracles, ground)`` under the guard of the module notes.

    ``size`` measures a result.  Returns the result and the guard's
    outcome: "reseeded" when the fresh oracles found a larger result,
    "confirmed" when they did not, None when the guard did not run.
    """
    first = solve(oracles, ground)
    if size(first) >= min(len(ground), sum(o.max_rank for o in oracles)):
        return first, None
    fresh = {o: o.fresh() for o in dict.fromkeys(oracles)}
    if all(o is f for o, f in fresh.items()):
        return first, None  # exact oracles: the short result is the rank
    second = solve([fresh[o] for o in oracles], ground)
    if size(second) > size(first):
        return second, "reseeded"
    return first, "confirmed"


class RigidityPartitionState:
    """Incremental independent set over one oracle, with exchange queries.

    Wraps a tracking RowBasis whose member ids are edge indices, with one
    recycled tracking slot per live edge.  ``insert(e)`` adds e when
    part + e is independent and otherwise changes nothing, so it is also
    the probe.  ``circuit(e)``, asked only of an edge that ``insert``
    refused, reports its fundamental circuit: exactly the members y for
    which part - y + e is independent.  ``exchange(e, y)`` makes that swap
    for such a y, rewriting tracking coefficients only
    (``RowBasis.exchange``).  ``certify(part)`` checks the finished part
    from the basis's witness (``RowBasis.certify``).
    """

    __slots__ = ("oracle", "basis")

    def __init__(self, oracle: RigidityOracle):
        self.oracle = oracle
        # live members are independent, so at most min(m, r_d(K_n)) hold a slot
        width = min(oracle.graph.m, oracle.max_rank)
        self.basis = RowBasis(oracle.ncols, track_width=width)

    def insert(self, edge_id: int) -> bool:
        return self.basis.insert(self.oracle.row(edge_id), edge_id)

    def circuit(self, edge_id: int) -> set[int]:
        return self.basis.circuit(self.oracle.row(edge_id))

    def exchange(self, add: int, old: int) -> bool:
        return self.basis.exchange(self.oracle.row(add), add, old)

    def certify(self, members: Collection[int]) -> bool:
        return self.basis.certify(members, self.oracle.row,
                                  stream_rng(self.oracle.seed, WITNESS_STREAM))

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
