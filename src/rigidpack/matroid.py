"""Matroid partition over pluggable independence oracles.

The partition algorithm maintains one independent set per oracle and grows
the family one ground element at a time by a breadth-first augmenting
search in the exchange digraph (arc x -> y when part_i + x is dependent
but part_i + x - y is not; arc x -> sink_i when part_i + x is
independent).  A direct insert is the path of length 0.  A shortest path
is applied as a chain of swaps; if no path exists the element is spanned
by the union and stays uncovered for good.  Sources are processed in
canonical edge order and ties break lexicographically, so runs are
reproducible.  ``partition`` owns the circuit memo: one dict per part,
cleared whenever a move touches that part.

``partition`` also owns the dead set.  A search from e that finds no path
labels a set S, and every element of S is dead for the rest of the run:
each part's members in S span S (an element of S outside part i has a
circuit in part i, else the search would have found a sink, and that
circuit was labelled), so every exchange arc out of S stays inside S.
Later paths only swap elements outside S, so part i's members in S do not
change and S stays closed; no augmenting path can ever pass through it
(Knuth, "Matroid partitioning", J. Res. NBS 1973; Cunningham, SICOMP
1986).  The search therefore never labels a dead element.  Dead elements
only ever label other dead ones and never reach a sink, so every label
that matters, every chosen shortest path and every part come out as they
would without the set.  It is returned as ``MatroidPartition.dead``; every
uncovered element is in it.

Each state answers exactly for one fixed matroid; a rigidity state's is the
linear matroid of its realization, whose "independent" answers are exact
generically too.  A shortest augmenting path keeps every part independent
in any matroid (Knuth 1973; Cunningham 1986), so a refused insert on it is
a kernel fault and raises ``OracleInconsistencyError``.  A short result is
the only symptom of an unlucky realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from .graph import Graph
from .rigidity import RigidityOracle, complete_rank, independent_d1


class MatroidState(Protocol):
    def insert(self, edge_id: int) -> bool: ...
    def circuit(self, edge_id: int) -> set[int] | None: ...
    def remove(self, edge_id: int) -> None: ...


class IndependenceOracle(Protocol):
    def new_state(self) -> MatroidState: ...


class OracleInconsistencyError(RuntimeError):
    """A state refused an insert on an augmenting path it had admitted."""


class GraphicOracle:
    """Independence = forest, over the host graph's edge indices."""

    def __init__(self, graph: Graph):
        self.graph = graph

    def new_state(self) -> "ForestState":
        return ForestState(self.graph)


class ForestState:
    """Incremental forest with path queries for exchange arcs."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._adj: dict[int, list[tuple[int, int]]] = {}

    def _root(self, start: int, goal: int) -> dict[int, tuple[int, int]] | None:
        """BFS in the forest from start; parent map if goal reached, else None."""
        parents: dict[int, tuple[int, int]] = {start: (-1, -1)}
        queue = [start]
        for x in queue:
            for (y, eid) in self._adj.get(x, ()):
                if y not in parents:
                    parents[y] = (x, eid)
                    if y == goal:
                        return parents
                    queue.append(y)
        return None

    def insert(self, edge_id: int) -> bool:
        u, v = self.graph.edges[edge_id]
        if self._root(u, v) is not None:
            return False
        self._adj.setdefault(u, []).append((v, edge_id))
        self._adj.setdefault(v, []).append((u, edge_id))
        return True

    def circuit(self, edge_id: int) -> set[int] | None:
        u, v = self.graph.edges[edge_id]
        parents = self._root(u, v)
        if parents is None:
            return None
        out = set()
        x = v
        while x != u:
            x, eid = parents[x]
            out.add(eid)
        return out

    def remove(self, edge_id: int) -> None:
        u, v = self.graph.edges[edge_id]
        self._adj[u].remove((v, edge_id))
        self._adj[v].remove((u, edge_id))


@dataclass(frozen=True)
class MatroidPartition:
    """Disjoint family, one independent set per oracle.

    ``dead`` holds the elements labelled by failed augmenting searches: each
    part's members in it span it, and it holds every uncovered element.
    """

    parts: tuple[frozenset[int], ...]
    ground: frozenset[int]
    dead: frozenset[int]

    @property
    def total(self) -> int:
        return sum(len(p) for p in self.parts)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)


def partition(
    oracles: Sequence[IndependenceOracle], ground: Iterable[int]
) -> MatroidPartition:
    """Maximum-cardinality partition of the ground set into independent parts.

    An oracle listed several times serves several parts, one state each.
    """
    if not oracles:
        raise ValueError("need at least one oracle")
    order = sorted(set(ground))
    states: list[MatroidState] = [o.new_state() for o in oracles]
    memos: list[dict[int, set[int] | None]] = [{} for _ in states]
    part_of: dict[int, int] = {}
    dead: set[int] = set()
    for e in order:
        _place(e, states, memos, part_of, dead)
    parts: list[set[int]] = [set() for _ in states]
    for x, i in part_of.items():
        parts[i].add(x)
    return MatroidPartition(tuple(frozenset(p) for p in parts), frozenset(order),
                            frozenset(dead))


def _place(e, states, memos, part_of, dead) -> None:
    # breadth-first augmenting search, lexicographic within layers; a part
    # whose circuit of e is None takes e directly (the path of length 0).
    # A dead element is never labelled: no augmenting path passes through it.
    prev: dict[int, tuple[int, int]] = {e: (-1, -1)}
    frontier = [e]
    found: tuple[int, int] | None = None
    while frontier and found is None:
        nxt: list[int] = []
        for x in frontier:
            for i, memo in enumerate(memos):
                if part_of.get(x) == i:
                    continue
                if x not in memo:
                    memo[x] = states[i].circuit(x)
                circ = memo[x]
                if circ is None:
                    found = (x, i)
                    break
                for y in circ:
                    if y not in prev and y not in dead:
                        prev[y] = (x, i)
                        nxt.append(y)
            if found:
                break
        frontier = sorted(nxt)
    if found is None:
        dead.update(prev)
        return

    x, sink = found
    moves: list[tuple[int, int, int | None]] = [(sink, x, None)]
    cur = x
    while prev[cur] != (-1, -1):
        px, m = prev[cur]
        moves.append((m, px, cur))
        cur = px

    for (i, _, rem) in moves:
        memos[i].clear()
        if rem is not None:
            states[i].remove(rem)
    for (i, add, _) in moves:
        if not states[i].insert(add):
            raise OracleInconsistencyError(f"part {i} refused element {add} on a path")
    # each removed element is the added element of the move before it
    for (i, add, _) in moves:
        part_of[add] = i


def rank_union(oracles: Sequence[IndependenceOracle], ground: Iterable[int]) -> int:
    """Rank of the matroid union on the ground set (size of a largest partition)."""
    return partition(oracles, ground).total


@dataclass(frozen=True)
class PackingResult:
    """Outcome of a spanning-subgraph packing attempt."""

    parts: tuple[frozenset[int], ...]
    target_sizes: tuple[int, ...]
    feasible: bool
    verified: bool
    seed: int

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)

    @property
    def deficiency(self) -> int:
        return sum(self.target_sizes) - sum(self.sizes)


def pack_rigid(graph: Graph, d: int, t: int, seed: int = 0) -> PackingResult:
    """Try to pack t edge-disjoint minimally d-rigid spanning subgraphs.

    Succeeds exactly when the t-fold rigidity union has full rank (each
    part then has d*n - (d+1 choose 2) edges and is a base).  No
    connectivity precondition is checked: the attempt itself is the test,
    and failure reports the achieved partition.  One realization serves all
    t parts; a feasible packing is re-checked under one fresh realization,
    and ``verified`` holds the outcome.
    """
    if graph.n < d + 1:
        raise ValueError("need at least d+1 vertices")
    if t < 1:
        raise ValueError("t must be at least 1")
    oracle = RigidityOracle(graph, d, seed, salt=1)
    result = partition([oracle] * t, range(graph.m))
    target = complete_rank(graph.n, d)
    feasible = all(len(p) == target for p in result.parts)
    verified = feasible and oracle.verify_independent(*result.parts)
    return PackingResult(result.parts, (target,) * t, feasible, verified, seed)


def pack_tree_rigid(graph: Graph, d: int, seed: int = 0) -> PackingResult:
    """Split the graph into a spanning tree plus a minimally d-rigid subgraph.

    parts[0] is the tree candidate, parts[1] the rigid one; feasible exactly
    when the union of the graphic and rigidity matroids has rank
    (n - 1) + (d*n - (d+1 choose 2)).  A feasible split is re-checked as
    ``pack_rigid``'s is.
    """
    if graph.n < d + 1:
        raise ValueError("need at least d+1 vertices")
    oracles: list = [GraphicOracle(graph), RigidityOracle(graph, d, seed, salt=1)]
    result = partition(oracles, range(graph.m))
    targets = (graph.n - 1, complete_rank(graph.n, d))
    feasible = all(len(p) == t for p, t in zip(result.parts, targets))
    verified = (feasible and independent_d1(graph, result.parts[0])
                and oracles[1].verify_independent(result.parts[1]))
    return PackingResult(result.parts, targets, feasible, verified, seed)
