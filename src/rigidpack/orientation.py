"""Degree-specified orientations and the k-connected orientation pipeline.

Three layers:

* ``balanced_orientation`` pairs odd-degree vertices through an auxiliary
  vertex and walks an Eulerian circuit, giving out-degree >= floor(deg/2)
  everywhere.
* ``hakimi_orientation`` realizes an exact in-degree specification g via a
  unit flow network (source -> edge nodes -> endpoints -> sink with vertex
  capacities g(v)); a saturating flow picks each edge's head.  Infeasible
  specifications yield a certificate: either the edge/target totals differ,
  or a vertex set X with more induced edges than in-degree budget, read off
  the residual min cut.
* ``k_connected_orientation`` packs two edge-disjoint minimally (4k-4)-rigid
  spanning subgraphs, orients the first with in-degrees d off a small
  deficit set and d-1 on it, the second the same way with every arc then
  flipped, and the leftover edges from low id to high id.  The two oriented
  bases force every vertex set with a small deficit share to keep at least
  k in-neighbors, which is what the connectivity verifier confirms.

For k = 1 the pipeline short-circuits to a depth-first lowpoint orientation
(strong connectivity exists exactly for bridgeless connected graphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .connectivity import is_k_connected
from .flow import FlowNetwork
from .graph import Digraph, Graph, induced_edge_count
from .matroid import PackingResult, pack_rigid
from .rigidity import RigidityOracle


@dataclass(frozen=True)
class DegreeSpec:
    """Per-vertex in-degree targets."""

    targets: tuple[int, ...]

    def __post_init__(self):
        if any(t < 0 for t in self.targets):
            raise ValueError("in-degree targets must be nonnegative")

    @property
    def total(self) -> int:
        return sum(self.targets)

    def of(self, vertices: Iterable[int]) -> int:
        return sum(self.targets[v] for v in vertices)


@dataclass(frozen=True)
class OrientationCertificate:
    """Why no orientation meets the spec: totals differ, or a set violates it."""

    kind: str                                  # "count-mismatch" | "violating-set"
    violating_set: frozenset[int] | None = None
    induced_edges: int | None = None
    budget: int | None = None
    edge_total: int | None = None
    target_total: int | None = None


class OrientationError(Exception):
    pass


class PackingError(OrientationError):
    """The packing under the pipeline fell short or failed its re-check.

    ``packing.feasible`` tells the two apart: a full packing that fails its
    fresh-realization re-check is a kernel fault.
    """

    def __init__(self, packing: PackingResult):
        self.packing = packing
        super().__init__(
            f"packing of sizes {packing.sizes} vs targets {packing.target_sizes} "
            + ("failed its re-check" if packing.feasible else "fell short")
        )


class OrientationInfeasibleError(OrientationError):
    """Degree-specified orientation failed; reason distinguishes bad input."""

    def __init__(self, reason: str, certificate=None):
        self.reason = reason
        self.certificate = certificate
        super().__init__(reason)


def balanced_orientation(graph: Graph) -> Digraph:
    """Orientation with out-degree >= floor(deg/2) at every vertex.

    Odd-degree vertices each get one helper edge to an auxiliary vertex;
    every component of the augmented graph is Eulerian, and orienting along
    its circuits balances in and out exactly, so dropping the helper edges
    costs each odd vertex at most one outgoing arc.
    """
    n, m = graph.n, graph.m
    odd = [v for v in range(n) if graph.degree(v) % 2 == 1]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for i, (u, v) in enumerate(graph.edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    for j, v in enumerate(odd):
        adj[v].append((n, m + j))
        adj[n].append((v, m + j))
    used = [False] * (m + len(odd))
    heads: list[int] = [-1] * m
    ptr = [0] * (n + 1)
    for s0 in range(n + 1):
        stack = [s0]
        while stack:
            v = stack[-1]
            advanced = False
            while ptr[v] < len(adj[v]):
                w, t = adj[v][ptr[v]]
                if used[t]:
                    ptr[v] += 1
                    continue
                used[t] = True
                if t < m:
                    heads[t] = w
                stack.append(w)
                advanced = True
                break
            if not advanced:
                stack.pop()
    return Digraph(graph, heads)


def hakimi_orientation(graph: Graph, spec: DegreeSpec) -> Digraph | OrientationCertificate:
    """Orientation with in-degree exactly spec, or a certificate of impossibility.

    Feasible iff the targets sum to the edge count and every vertex set
    induces at most its budget; the flow formulation decides both at once.
    """
    if len(spec.targets) != graph.n:
        raise ValueError("spec must cover every vertex")
    m = graph.m
    if spec.total != m:
        return OrientationCertificate(
            "count-mismatch", edge_total=m, target_total=spec.total
        )
    # nodes: 0 source, 1..m edge nodes, m+1..m+n vertex nodes, m+n+1 sink
    net = FlowNetwork(m + graph.n + 2)
    sink = m + graph.n + 1
    endpoint_arcs: list[tuple[int, int]] = []
    for i, (u, v) in enumerate(graph.edges):
        net.add_arc(0, 1 + i, 1)
        a = net.add_arc(1 + i, m + 1 + u, 1)
        b = net.add_arc(1 + i, m + 1 + v, 1)
        endpoint_arcs.append((a, b))
    for v in range(graph.n):
        net.add_arc(m + 1 + v, sink, spec.targets[v])
    if net.max_flow(0, sink) == m:
        heads = []
        for (u, v), (a, b) in zip(graph.edges, endpoint_arcs):
            heads.append(u if net.flow_on(a) else v)
        return Digraph(graph, heads)
    # X = vertex nodes on the source side of the residual min cut.  An edge
    # node on the source side has both endpoint arcs uncut, so both ends lie
    # in X; the cut value (#edge nodes on the sink side) + spec(X) < m then
    # forces induced_edges(X) >= #source-side edge nodes > spec(X).
    reach = net.source_side(0)
    x = frozenset(v for v in range(graph.n) if (m + 1 + v) in reach)
    return OrientationCertificate(
        "violating-set",
        violating_set=x,
        induced_edges=induced_edge_count(graph, x),
        budget=spec.of(x),
    )


def spread_deficits(n: int, d: int) -> tuple[int, ...]:
    """Per-vertex in-degree deficit summing to (d+1 choose 2).

    With n >= (d+1 choose 2) this is the unit indicator of the first
    (d+1 choose 2) vertices; smaller vertex counts spread the total as
    evenly as possible, low ids first.
    """
    total = (d + 1) * d // 2
    if n <= 0:
        raise ValueError("need at least one vertex")
    q, r = divmod(total, n)
    return tuple(q + 1 if v < r else q for v in range(n))


def deficits_from_vertices(n: int, d: int, vertices: Sequence[int]) -> tuple[int, ...]:
    """Unit deficit on an explicit vertex set of size (d+1 choose 2)."""
    total = (d + 1) * d // 2
    chosen = set(vertices)
    if len(chosen) != len(vertices) or len(chosen) != total:
        raise ValueError(f"deficit set must hold {total} distinct vertices")
    if any(not 0 <= v < n for v in chosen):
        raise ValueError("deficit vertex out of range")
    return tuple(1 if v in chosen else 0 for v in range(n))


def rigid_base_spec(n: int, d: int, deficits: Sequence[int]) -> DegreeSpec:
    """In-degree spec d - deficit(v); totals d*n - (d+1 choose 2) by construction."""
    if len(deficits) != n:
        raise ValueError("deficits must cover every vertex")
    if sum(deficits) != (d + 1) * d // 2:
        raise ValueError("deficits must sum to (d+1 choose 2)")
    targets = tuple(d - w for w in deficits)
    if any(t < 0 for t in targets):
        raise ValueError("deficit exceeds d at some vertex")
    return DegreeSpec(targets)


def rigid_base_orientation(
    base: Graph, d: int, deficits: Sequence[int], seed: int = 0
) -> Digraph:
    """Orient a minimally d-rigid graph to the deficit in-degree spec.

    Sparsity of a minimally rigid base makes the spec feasible whenever the
    deficits are unit (or near-unit); a certificate therefore means the
    input was not minimally d-rigid, or the rank oracle misfired.  The two
    are told apart with a fresh-realization independence check.
    """
    expected = d * base.n - (d + 1) * d // 2
    if base.m != expected:
        raise OrientationInfeasibleError(
            "not-minimally-rigid",
            OrientationCertificate("count-mismatch", edge_total=base.m,
                                   target_total=expected),
        )
    result = hakimi_orientation(base, rigid_base_spec(base.n, d, deficits))
    if isinstance(result, Digraph):
        return result
    if not RigidityOracle(base, d, seed).verify_independent(range(base.m)):
        raise OrientationInfeasibleError("not-minimally-rigid", result)
    raise OrientationInfeasibleError("oracle-error", result)


def strongly_connected_orientation(graph: Graph) -> Digraph:
    """Depth-first lowpoint orientation: tree arcs down, back arcs up.

    Strongly connectable iff the graph is connected and bridgeless; the
    offending bridge (or disconnection) is raised as the error.
    """
    n = graph.n
    if n < 2:
        raise OrientationInfeasibleError("too-few-vertices")
    disc = [-1] * n
    low = [0] * n
    heads: list[int] = [-1] * graph.m
    disc[0] = low[0] = 0
    counter = 1
    # iterative DFS; orient tree edges parent -> child, back edges child -> ancestor
    work = [(0, -1)]
    iters = [iter(graph.adj[0])]
    while work:
        v, pedge = work[-1]
        advanced = False
        for w in iters[-1]:
            eid = graph.edge_id(v, w)
            if eid == pedge:
                continue
            if disc[w] < 0:
                heads[eid] = w
                disc[w] = low[w] = counter
                counter += 1
                work.append((w, eid))
                iters.append(iter(graph.adj[w]))
                advanced = True
                break
            if disc[w] < disc[v]:
                heads[eid] = w
                low[v] = min(low[v], disc[w])
            # disc[w] > disc[v]: forward to an already-processed descendant,
            # oriented when w was on the stack
        if advanced:
            continue
        work.pop()
        iters.pop()
        if work:
            pv = work[-1][0]
            if low[v] > disc[pv]:
                raise OrientationInfeasibleError("bridge", certificate=(pv, v))
            low[pv] = min(low[pv], low[v])
    if counter < n:
        raise OrientationInfeasibleError("disconnected")
    return Digraph(graph, heads)


@dataclass(frozen=True)
class OrientationReport:
    k: int
    d: int | None
    deficits: tuple[int, ...] | None
    base_edges: tuple[tuple[int, ...], ...] | None
    leftover: int | None
    verified: bool | None
    guard: str | None = None                   # the packing's (PackingResult.guard)

    @property
    def base_sizes(self) -> tuple[int, ...] | None:
        if self.base_edges is None:
            return None
        return tuple(len(b) for b in self.base_edges)


def k_connected_orientation(
    graph: Graph,
    k: int,
    seed: int = 0,
    deficit_vertices: Sequence[int] | None = None,
    verify: bool = False,
) -> tuple[Digraph, OrientationReport]:
    """Orient the graph to be k-vertex-connected, with a run report.

    k = 1 uses the depth-first orientation.  For k >= 2 the pipeline packs
    two minimally (4k-4)-rigid spanning subgraphs, orients one to the
    deficit in-degree spec, the other to the same spec with all arcs then
    reversed, and the leftovers low to high.  Raises PackingError (with
    the achieved partition) when the packing falls short or a full packing
    fails its re-check; the orientation itself is returned even when
    verification is requested and fails, with ``verified`` False in the
    report.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        oriented = strongly_connected_orientation(graph)
        verified = is_k_connected(oriented, 1)[0] if verify else None
        return oriented, OrientationReport(1, None, None, None, None, verified)

    d = 4 * k - 4
    if deficit_vertices is not None:
        deficits = deficits_from_vertices(graph.n, d, deficit_vertices)
    else:
        deficits = spread_deficits(graph.n, d)
    packing = pack_rigid(graph, d, 2, seed)
    if not packing.verified:
        raise PackingError(packing)

    heads = [max(u, v) for u, v in graph.edges]        # leftovers: low -> high
    base_edges = [sorted(p) for p in packing.parts]
    for which, flip in ((0, False), (1, True)):
        sub = graph.subgraph(base_edges[which])
        oriented = rigid_base_orientation(sub, d, deficits, seed)
        if flip:
            oriented = oriented.reversed()
        for (u, v), h in zip(sub.edges, oriented.heads):
            heads[graph.edge_id(u, v)] = h
    digraph = Digraph(graph, heads)
    verified = is_k_connected(digraph, k)[0] if verify else None
    report = OrientationReport(
        k, d, deficits, tuple(tuple(b) for b in base_edges),
        graph.m - sum(len(p) for p in packing.parts), verified, packing.guard,
    )
    return digraph, report
