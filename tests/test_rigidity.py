import random

import pytest

from rigidpack.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    lovasz_yemini,
    path_graph,
)
from rigidpack.graph import Graph, induced_edge_count
from rigidpack.linalg import PRIME, RowBasis
from rigidpack.matroid import guarded_partition
from rigidpack.rigidity import (
    Realization,
    RigidityOracle,
    complete_rank,
    guarded,
    independent_d1,
    independent_d2,
    rigidity_matrix_row,
)


def matrix_rows(graph, realization):
    """Rigidity matrix of the graph: one row per edge in edge-index order."""
    return [rigidity_matrix_row(realization, graph.n, u, v) for u, v in graph.edges]


def basis_rank(rows):
    basis = RowBasis(len(rows[0]) if rows else 0)
    for r in rows:
        basis.insert(r)
    return len(basis)


def test_complete_rank_piecewise():
    # below d+1 vertices the complete graph is all of (n choose 2)
    assert complete_rank(3, 2) == 3
    assert complete_rank(2, 3) == 1
    # at and above d+1 the affine count takes over, matching at the seam
    assert complete_rank(4, 2) == 5
    assert complete_rank(5, 3) == 9
    for d in range(1, 6):
        n = d + 1
        assert complete_rank(n, d) == n * (n - 1) // 2


def test_rigidity_matrix_shape_single_edge():
    g = Graph(2, [(0, 1)])
    real = Realization.random(2, 1, seed=0)
    rows = matrix_rows(g, real)
    x0, x1 = real.coords[0][0], real.coords[1][0]
    assert rows == [[(x0 - x1) % PRIME, (x1 - x0) % PRIME]]
    assert basis_rank(rows) == 1


def test_rigidity_matrix_k3_dim2():
    g = complete_graph(3)
    real = Realization.random(3, 2, seed=1)
    rows = matrix_rows(g, real)
    assert (len(rows), len(rows[0])) == (3, 6)
    assert basis_rank(rows) == 3


def test_rigidity_matrix_empty_and_k5_dim3():
    g = Graph(4, [])
    assert matrix_rows(g, Realization.random(4, 2, seed=2)) == []
    k5 = complete_graph(5)
    rows = matrix_rows(k5, Realization.random(5, 3, seed=3))
    assert (len(rows), len(rows[0])) == (10, 15)
    assert basis_rank(rows) == 9


def test_empty_edge_set_rank_zero():
    g = Graph(3, [])
    oracle = RigidityOracle(g, 2)
    assert oracle.rank([]) == 0


@pytest.mark.parametrize("n,d,expected", [(4, 2, 5), (5, 3, 9), (3, 2, 3)])
def test_complete_graph_ranks(n, d, expected):
    oracle = RigidityOracle(complete_graph(n), d)
    assert oracle.rank(range(n * (n - 1) // 2)) == expected


def test_is_independent_examples():
    k4 = complete_graph(4)
    oracle = RigidityOracle(k4, 2)
    assert oracle.is_independent(range(5))          # K_4 minus one edge
    assert not oracle.is_independent(range(6))      # all of K_4
    assert oracle.is_independent([])


def test_is_rigid_examples():
    # connected graphs are 1-rigid, disconnected ones are not
    for seed in range(5):
        g = gnp_graph(8, 0.5, seed=seed)
        oracle = RigidityOracle(g, 1)
        assert oracle.is_rigid() == independent_spanning_connected(g)
    wheel = Graph(6, [(0, i) for i in range(1, 6)] +
                  [(i, i + 1) for i in range(1, 5)] + [(5, 1)])
    oracle = RigidityOracle(wheel, 2)
    assert oracle.is_rigid()
    base = oracle.extract_base(range(wheel.m))
    assert len(base) == 9 and independent_d2(wheel, base)
    two_k4 = Graph(8, [(u, v) for u in range(4) for v in range(u + 1, 4)] +
                   [(u, v) for u in range(4, 8) for v in range(u + 1, 8)])
    assert not RigidityOracle(two_k4, 2).is_rigid()


def independent_spanning_connected(g):
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def test_extract_base_greedy():
    k4 = complete_graph(4)
    oracle = RigidityOracle(k4, 2)
    assert oracle.extract_base(range(6)) == [0, 1, 2, 3, 4]
    assert oracle.extract_base(range(5)) == [0, 1, 2, 3, 4]
    k5 = complete_graph(5)
    base = RigidityOracle(k5, 3).extract_base(range(10))
    assert len(base) == 9
    assert RigidityOracle(k5, 3, salt=9).is_independent(base)


def test_extract_base_stops_at_complete_rank(monkeypatch):
    # K10 in the plane: the first 17 edges (the stars at 0 and 1) already
    # span every row, so the scan inserts no more of the 45
    inserted = []
    insert = RowBasis.insert

    def counting(self, entries, member=None):
        inserted.append(member)
        return insert(self, entries, member)

    monkeypatch.setattr(RowBasis, "insert", counting)
    g = complete_graph(10)
    oracle = RigidityOracle(g, 2)
    assert oracle.max_rank == complete_rank(10, 2) == 17
    base = oracle.extract_base(range(g.m))
    assert base == list(range(17)) and len(inserted) == 17
    assert oracle.is_rigid() and oracle.rank(range(g.m)) == 17
    assert len(inserted) == 17 * 3
    # a set that falls short is scanned to the end: edges 30-44 are K6 on
    # vertices 4-9, of rank 9
    inserted.clear()
    assert len(oracle.extract_base(range(30, g.m))) == 9 and len(inserted) == 15
    # rank's guard confirms the short base under a second realization: one
    # more scan of the same 15 edges
    inserted.clear()
    assert oracle.rank(range(30, g.m)) == 9 and len(inserted) == 30
    # without the bound the scan makes every insert and keeps the same edges
    monkeypatch.setattr(RigidityOracle, "max_rank", 1 << 30)
    inserted.clear()
    assert oracle.extract_base(range(g.m)) == base and len(inserted) == 45


def test_sparsity_of_independent_sets():
    rng = random.Random(5)
    for d in (1, 2, 3):
        g = gnp_graph(9, 0.6, seed=10 + d)
        oracle = RigidityOracle(g, d)
        base = oracle.extract_base(range(g.m))
        sub = g.subgraph(base)
        for _ in range(40):
            size = rng.randrange(d, 10)
            xs = rng.sample(range(9), size)
            assert induced_edge_count(sub, xs) <= d * len(xs) - d * (d + 1) // 2


def test_vertex_addition_keeps_independence():
    # degree-d attachment onto an independent set stays independent
    for d in (1, 2, 3):
        g = complete_graph(d + 2)
        base = RigidityOracle(g, d).extract_base(range(g.m))
        edges = [g.edges[e] for e in base]
        new = d + 2
        edges += [(i, new) for i in range(d)]
        bigger = Graph(d + 3, edges)
        assert RigidityOracle(bigger, d, salt=3).is_independent(range(bigger.m))


def test_edge_split_keeps_independence():
    # replace edge uv by a new vertex tied to u, v, and d-1 others
    for d in (2, 3):
        g = complete_graph(d + 2)
        base = RigidityOracle(g, d).extract_base(range(g.m))
        pairs = [g.edges[e] for e in base]
        u, v = pairs[0]
        others = [w for w in range(d + 2) if w not in (u, v)][: d - 1]
        new = d + 2
        split = pairs[1:] + [(u, new), (v, new)] + [(w, new) for w in others]
        sg = Graph(d + 3, split)
        assert sg.m == len(pairs) + d
        assert RigidityOracle(sg, d, salt=4).is_independent(range(sg.m))


def test_exact_oracles_trivial_cases():
    tree = path_graph(6)
    assert independent_d1(tree, range(tree.m))
    assert independent_d2(tree, range(tree.m))
    k4 = complete_graph(4)
    assert not independent_d2(k4, range(6))
    assert independent_d2(k4, range(5))
    cyc = cycle_graph(5)
    assert not independent_d1(cyc, range(5))
    assert independent_d2(cyc, range(5))


def test_randomized_matches_exact_oracles():
    for seed in range(60):
        g = gnp_graph(4 + seed % 7, 0.5, seed=seed)
        oracle1 = RigidityOracle(g, 1, seed=seed)
        oracle2 = RigidityOracle(g, 2, seed=seed)
        rng = random.Random(seed)
        subsets = [frozenset(range(g.m))] + [
            frozenset(rng.sample(range(g.m), rng.randrange(g.m + 1))) for _ in range(4)
        ]
        for sub in subsets:
            assert oracle1.is_independent(sub) == independent_d1(g, sub)
            assert oracle2.is_independent(sub) == independent_d2(g, sub)


def test_rank_axioms_sampled():
    rng = random.Random(8)
    g = gnp_graph(8, 0.6, seed=3)
    oracle = RigidityOracle(g, 2)
    universe = list(range(g.m))
    for _ in range(40):
        a = frozenset(rng.sample(universe, rng.randrange(g.m + 1)))
        b = frozenset(rng.sample(universe, rng.randrange(g.m + 1)))
        ra, rb = oracle.rank(a), oracle.rank(b)
        assert 0 <= ra <= len(a)
        if a <= b:
            assert ra <= rb
        assert oracle.rank(a | b) + oracle.rank(a & b) <= ra + rb


def test_determinism_same_seed():
    g = gnp_graph(9, 0.5, seed=1)
    a = RigidityOracle(g, 2, seed=5, salt=2)
    b = RigidityOracle(g, 2, seed=5, salt=2)
    assert a.realization == b.realization
    assert [a.rank(range(k)) for k in range(g.m + 1)] == \
           [b.rank(range(k)) for k in range(g.m + 1)]
    assert RigidityOracle(g, 2, seed=6).realization != a.realization


def test_verify_independent_fresh_realization():
    g = complete_graph(5)
    oracle = RigidityOracle(g, 2)
    base = oracle.extract_base(range(g.m))
    assert oracle.verify_independent(base)
    assert not oracle.verify_independent(range(g.m))
    # several sets at once: all pass together, and one dependent set fails the call
    other = oracle.extract_base(range(g.m - 1, -1, -1)[:8])
    assert oracle.verify_independent(base, other, [0, 1])
    assert not oracle.verify_independent(base, range(g.m), other)


def test_verify_independent_accepts_through_the_guard(unlucky):
    # the re-check's realization, salt 5 + 2^20, puts K8 on a line, where a
    # rigid base looks dependent: rank's guard asks salt 5 + 2^21, which
    # accepts it; a truly dependent set is still rejected, on both words
    g = complete_graph(8)
    oracle = RigidityOracle(g, 2, salt=5)
    base = oracle.extract_base(range(g.m))
    drawn = unlucky(5 + (1 << 20))
    fresh = oracle.fresh()
    assert fresh.salt == 5 + (1 << 20) and oracle.fresh() is fresh
    assert len(fresh.extract_base(base)) == g.n - 1 < len(base) == 13
    assert fresh.guarded_base(base) == (base, "reseeded")
    assert oracle.verify_independent(base)
    assert not oracle.verify_independent(range(g.m))
    assert fresh.guarded_base(range(g.m))[1] == "reseeded"
    assert drawn == [5 + (1 << 20), 5 + (1 << 21)]


def test_rank_guard_runs_only_below_the_bound(monkeypatch):
    # full bases and sets that are all kept draw nothing more; a short base
    # is confirmed by the second realization
    g = complete_graph(8)
    oracle = RigidityOracle(g, 2, salt=1)
    assert oracle.guarded_base(range(g.m))[1] is None
    assert oracle.guarded_base([0, 1, 2])[1] is None
    k4 = [g.edge_id(u, v) for u in range(4) for v in range(u + 1, 4)]
    base, guard = oracle.guarded_base(k4)
    assert len(base) == 5 and guard == "confirmed"
    assert oracle.rank(k4) == 5 and not oracle.is_rigid(k4)


class StubOracle:
    """An oracle that only states ``max_rank`` and counts its ``fresh()`` calls."""

    def __init__(self, max_rank, exact=False):
        self.max_rank = max_rank
        self.fresh_calls = 0
        self._fresh = self if exact else None

    def fresh(self):
        self.fresh_calls += 1
        if self._fresh is None:
            self._fresh = StubOracle(self.max_rank)
        return self._fresh


def stub_solver(*sizes):
    """A solver whose n-th call returns a list of sizes[n]; it records each call."""
    calls = []

    def solve(oracles, ground):
        calls.append(list(oracles))
        return list(range(sizes[len(calls) - 1]))

    return solve, calls


def test_guard_policy_on_stubs():
    ground = frozenset(range(10))
    # a full first result: min(10, 4 + 4) = 8 is reached, one solve
    o = StubOracle(4)
    solve, calls = stub_solver(8)
    assert guarded(solve, [o, o], ground) == (list(range(8)), [o, o], None)
    assert len(calls) == 1 and o.fresh_calls == 0
    # only exact oracles: a short result is the rank, one solve
    exact = StubOracle(4, exact=True)
    solve, calls = stub_solver(5)
    assert guarded(solve, [exact, exact], ground) == (list(range(5)), [exact, exact], None)
    assert len(calls) == 1
    # one oracle listed twice maps to one fresh oracle, asked for once;
    # on a tie the first result and its oracles stand
    solve, calls = stub_solver(5, 5)
    result, used, outcome = guarded(solve, [o, o], ground)
    assert o.fresh_calls == 1 and o._fresh is not o
    assert calls == [[o, o], [o._fresh, o._fresh]]
    assert (result, used, outcome) == (list(range(5)), [o, o], "confirmed")
    # a larger second result replaces the first, with the fresh oracles
    p = StubOracle(4)
    solve, calls = stub_solver(5, 6)
    result, used, outcome = guarded(solve, [p, exact], ground)
    assert p.fresh_calls == 1
    assert (result, used, outcome) == (list(range(6)), [p._fresh, exact], "reseeded")
    assert calls == [[p, exact], [p._fresh, exact]]


@pytest.mark.parametrize("host, unlucky_salts, expected", [
    (lambda: lovasz_yemini([2], 6).graph, (), (114, "confirmed")),
    (lambda: complete_graph(12), (1,), (21, "reseeded")),
])
def test_both_guards_agree_at_one_part(unlucky, host, unlucky_salts, expected):
    # guarded_partition with one part and guarded_base are the same guard:
    # a short host is confirmed, an unlucky realization (K12 on a line) reseeded
    g = host()
    unlucky(*unlucky_salts)
    oracle = RigidityOracle(g, 2, 1, salt=1)
    result, _, outcome = guarded_partition([oracle], range(g.m))
    base, base_outcome = oracle.guarded_base(range(g.m))
    assert (result.total, outcome) == (len(base), base_outcome) == expected
