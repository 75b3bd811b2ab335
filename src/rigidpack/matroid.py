"""Matroid partition over pluggable independence oracles.

The partition algorithm maintains one independent set per oracle and grows
the family one ground element at a time by a breadth-first augmenting
search in the exchange digraph (arc x -> y when part_i + x is dependent
but part_i + x - y is not; arc x -> sink_i when part_i + x is
independent).  A direct insert is the path of length 0.  A shortest path
is applied as a chain of swaps (below); if no path exists the element is
spanned by the union and stays uncovered for good.  Sources are processed
in canonical edge order and ties break lexicographically, so runs are
reproducible.  Every query goes to the part's state as it stands.

Each layer of the search runs in two passes.  The probe pass asks each
(x, part) in order, x in the layer and the part not holding x, whether
part + x is independent (``extends``); the first yes is the sink.  A part
that holds its oracle's ``max_rank`` elements is a basis, so it can never
be a sink and is not probed.  Only a layer with no sink takes the label
pass, which reads ``circuit(x)`` of every such (x, part), full parts
included, in the same order, and labels the next layer from it.  A
one-pass search that read a circuit for every dependent (x, part) would
find the same sink, since a full part is never one.  The circuits it read
in the sink layer labelled elements that no path reads, because a path
is traced back through earlier layers only; and it labelled every layer
without a sink from the same circuits in the same order.  So every label
that matters, every path, every part and the dead set below come out as
they would in one pass, with no circuit read in a layer that has a sink.
That is also the precondition of the state protocol: ``circuit`` is asked
only of an element the state does not extend with.

A refusal is final.  A part's span never shrinks: an ``insert`` grows it
and an ``exchange`` keeps it, so once part i refuses x it refuses x for
the rest of the run, even after x joins it on a path.  ``partition``
therefore owns one set per part of the elements that part has refused
(``spanned``), beside the dead set and the room left: the probe pass
skips every (x, i) with x in ``spanned[i]`` and records every new
refusal.  A skipped probe would have said no, so every sink, label, path,
part and dead set comes out as it would with every probe made.  This
holds for every state that keeps the protocol's span rule, forests
included.

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

Each oracle also states ``max_rank``: no independent set is larger, and one
of exactly that size spans every element.  Once the covered elements number
the sum of the parts' ``max_rank``, every part is a basis, so every later
search would fail: ``partition`` stops there, and the dead set is the whole
ground set, which every part spans.  The parts are those the remaining
searches would have left.

A path e = z_0 -> z_1 -> ... -> z_k -> sink is applied in path order: each
swap part_m + z_j - z_{j+1} is one ``exchange(z_j, z_{j+1})``, and the sink
move is an ``insert`` of z_k.  An exchange keeps its part's span, so z_k
still extends the sink part when its insert comes, even if that part
swapped earlier on the path.  Every exchange finds z_{j+1} in z_j's
circuit as the part then stands: z_{l+1} is first labelled in layer
l + 1, so the breadth-first layers leave no shortcut arc z_j -> z_{l+1}
for j < l.  Within one part, the circuit coefficients of the path's pairs
(z_j, z_{j+1}) therefore form a triangular matrix with a nonzero
diagonal, and exchanging some pairs leaves every other pair's diagonal
entry nonzero, in any order.  So a shortest augmenting path keeps every
part independent in any matroid (Knuth 1973; Cunningham 1986).

Each state answers exactly for one fixed matroid; a rigidity state's is the
linear matroid of its realization, whose "independent" answers are exact
generically too.  So a refused insert or exchange on a path is a kernel
fault and raises ``OracleInconsistencyError``.  A short result is the only
symptom of an unlucky realization.

So ``guarded_partition``, which ``rank_union``, ``pack_rigid`` and
``pack_tree_rigid`` use, never reports a short total on one realization's
word: it is ``partition`` under ``rigidity.guarded``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from .graph import Graph
from .rigidity import RigidityOracle, guarded, independent_d1


class MatroidState(Protocol):
    """One part's independent set.

    ``circuit`` may be asked only of an element that the state does not
    extend with (``extends`` is False for it as the state stands).
    ``exchange(add, old)`` swaps the member ``old`` for such an element;
    it refuses (False) when ``old`` is not in the element's circuit.  The
    span never shrinks: ``insert`` grows it and ``exchange`` keeps it, so
    once ``extends`` is False for an element it stays False (module notes).
    """

    def insert(self, edge_id: int) -> bool: ...
    def extends(self, edge_id: int) -> bool: ...
    def circuit(self, edge_id: int) -> set[int]: ...
    def exchange(self, add: int, old: int) -> bool: ...


class IndependenceOracle(Protocol):
    @property
    def max_rank(self) -> int: ...
    def new_state(self) -> MatroidState: ...
    def verify_independent(self, *edge_sets: Iterable[int]) -> bool: ...
    def fresh(self) -> "IndependenceOracle": ...


class OracleInconsistencyError(RuntimeError):
    """A state refused an insert or an exchange on an augmenting path it
    had admitted: a shortest path never needs either refused (module
    notes), so the kernel is at fault."""


class GraphicOracle:
    """Independence = forest, over the host graph's edge indices."""

    def __init__(self, graph: Graph):
        self.graph = graph

    @property
    def max_rank(self) -> int:
        """A forest has at most n - 1 edges; one with n - 1 is a spanning tree."""
        return max(self.graph.n - 1, 0)

    def verify_independent(self, *edge_sets: Iterable[int]) -> bool:
        """Whether every given set is a forest; exact (union-find)."""
        return all(independent_d1(self.graph, ids) for ids in edge_sets)

    def fresh(self) -> "GraphicOracle":
        """Itself: forest answers are exact, so a second look cannot differ."""
        return self

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

    def extends(self, edge_id: int) -> bool:
        u, v = self.graph.edges[edge_id]
        return self._root(u, v) is None

    def circuit(self, edge_id: int) -> set[int]:
        """The forest path between the edge's ends; the edge must close a cycle."""
        u, v = self.graph.edges[edge_id]
        parents = self._root(u, v)
        out = set()
        x = v
        while x != u:
            x, eid = parents[x]
            out.add(eid)
        return out

    def exchange(self, add: int, old: int) -> bool:
        self.remove(old)
        return self.insert(add)

    def remove(self, edge_id: int) -> None:
        u, v = self.graph.edges[edge_id]
        self._adj[u].remove((v, edge_id))
        self._adj[v].remove((u, edge_id))


@dataclass(frozen=True)
class MatroidPartition:
    """Disjoint family, one independent set per oracle.

    ``dead`` holds the elements labelled by failed augmenting searches: each
    part's members in it span it, and it holds every uncovered element.
    Once every part is a basis (saturation) it is the whole ground set.
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
    Placement stops at saturation, when every part holds its oracle's
    ``max_rank`` elements.
    """
    if not oracles:
        raise ValueError("need at least one oracle")
    order = sorted(set(ground))
    states: list[MatroidState] = [o.new_state() for o in oracles]
    part_of: dict[int, int] = {}
    dead: set[int] = set()
    # elements each part can still take; only a path's sink part grows
    room = [o.max_rank for o in oracles]
    # elements each part has refused; spans only grow, so a refusal is final
    spanned: list[set[int]] = [set() for _ in states]
    full = sum(room)
    for e in order:
        if len(part_of) == full:
            break
        moves = _search(e, states, part_of, dead, room, spanned)
        if moves is not None:
            _augment(moves, states, part_of)
            room[moves[0][0]] -= 1
    if len(part_of) == full:
        dead = set(order)
    parts: list[set[int]] = [set() for _ in states]
    for x, i in part_of.items():
        parts[i].add(x)
    return MatroidPartition(tuple(frozenset(p) for p in parts), frozenset(order),
                            frozenset(dead))


def _search(e, states, part_of, dead, room,
            spanned) -> list[tuple[int, int, int | None]] | None:
    """Shortest augmenting path from e as moves (part, added, removed), or None.

    Breadth-first, lexicographic within layers, two passes per layer
    (module notes): the first part with room that x extends is the sink
    (the path of length 0 when x is e); only a layer without one reads
    circuits.  A part is not probed again with an element it has refused
    (``spanned``), and every new refusal is recorded there.  A dead element
    is never labelled; a failed search marks every labelled one dead.
    """
    prev: dict[int, tuple[int, int]] = {e: (-1, -1)}
    frontier = [e]
    while frontier:
        for x in frontier:
            home = part_of.get(x)
            for i, state in enumerate(states):
                if i == home or not room[i] or x in spanned[i]:
                    continue
                if state.extends(x):
                    moves = [(i, x, None)]
                    while prev[x] != (-1, -1):
                        px, m = prev[x]
                        moves.append((m, px, x))
                        x = px
                    return moves
                spanned[i].add(x)
        nxt: list[int] = []
        for x in frontier:
            home = part_of.get(x)
            for i, state in enumerate(states):
                if i == home:
                    continue
                for y in state.circuit(x):
                    if y not in prev and y not in dead:
                        prev[y] = (x, i)
                        nxt.append(y)
        frontier = sorted(nxt)
    dead.update(prev)
    return None


def _augment(moves, states, part_of) -> None:
    """Apply a path in path order, from e to the sink.

    ``moves`` runs from the sink back to e, so it is walked in reverse:
    each swap is an ``exchange`` and the sink move an ``insert``.  The
    breadth-first layers make each part's swaps triangular, so no exchange
    is refused, and exchanges keep spans, so the sink insert is not either
    (module notes).  Each removed element is the added element of the move
    after it, so recording the added elements' parts updates ``part_of``
    in full.
    """
    for i, add, old in reversed(moves):
        state = states[i]
        if not (state.insert(add) if old is None else state.exchange(add, old)):
            raise OracleInconsistencyError(f"part {i} refused element {add} on a path")
        part_of[add] = i


def guarded_partition(
    oracles: Sequence[IndependenceOracle], ground: Iterable[int]
) -> tuple[MatroidPartition, Sequence[IndependenceOracle], str | None]:
    """``partition`` under ``rigidity.guarded``: the partition, the oracles
    it was found under, and the guard's outcome."""
    return guarded(partition, oracles, frozenset(ground), lambda p: p.total)


def rank_union(oracles: Sequence[IndependenceOracle], ground: Iterable[int]) -> int:
    """Rank of the matroid union on the ground set (size of a largest partition)."""
    return guarded_partition(oracles, ground)[0].total


@dataclass(frozen=True)
class PackingResult:
    """Outcome of a spanning-subgraph packing attempt.

    ``verified`` holds only for a feasible packing whose parts passed their
    oracles' re-checks.  ``guard`` is ``guarded_partition``'s outcome.
    """

    parts: tuple[frozenset[int], ...]
    target_sizes: tuple[int, ...]
    verified: bool
    guard: str | None

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)

    @property
    def feasible(self) -> bool:
        return self.sizes == self.target_sizes

    @property
    def deficiency(self) -> int:
        return sum(self.target_sizes) - sum(self.sizes)


def _pack(graph: Graph, oracles: Sequence[IndependenceOracle]) -> PackingResult:
    """Partition every edge into one part per oracle; re-check a full result.

    Each part's target is its oracle's ``max_rank``.  The partition is
    guarded (``guarded_partition``), and each distinct oracle it was found
    under re-checks all of its parts in one ``verify_independent`` call, so
    the t rigid parts of ``pack_rigid`` share one fresh realization.
    """
    result, used, guard = guarded_partition(oracles, range(graph.m))
    parts = result.parts
    targets = tuple(o.max_rank for o in oracles)
    full = tuple(map(len, parts)) == targets
    verified = full and all(
        o.verify_independent(*(p for p, q in zip(parts, used) if q is o))
        for o in dict.fromkeys(used))
    return PackingResult(parts, targets, verified, guard)


def pack_rigid(graph: Graph, d: int, t: int, seed: int = 0) -> PackingResult:
    """Try to pack t edge-disjoint minimally d-rigid spanning subgraphs.

    Succeeds exactly when the t-fold rigidity union has full rank (each
    part then has d*n - (d+1 choose 2) edges and is a base).  No
    connectivity precondition is checked: the attempt itself is the test,
    and failure reports the achieved partition.  One realization serves all
    t parts, and a short partition is confirmed or reseeded under a second
    one; a feasible packing is re-checked under one fresh realization, and
    ``verified`` holds the outcome.
    """
    if graph.n < d + 1:
        raise ValueError("need at least d+1 vertices")
    if t < 1:
        raise ValueError("t must be at least 1")
    return _pack(graph, [RigidityOracle(graph, d, seed, salt=1)] * t)


def pack_tree_rigid(graph: Graph, d: int, seed: int = 0) -> PackingResult:
    """Split the graph into a spanning tree plus a minimally d-rigid subgraph.

    parts[0] is the tree candidate, parts[1] the rigid one; feasible exactly
    when the union of the graphic and rigidity matroids has rank
    (n - 1) + (d*n - (d+1 choose 2)).  A feasible split is re-checked as
    ``pack_rigid``'s is, the tree exactly.
    """
    if graph.n < d + 1:
        raise ValueError("need at least d+1 vertices")
    return _pack(graph, [GraphicOracle(graph), RigidityOracle(graph, d, seed, salt=1)])
