import random
from itertools import product

import pytest

from rigidpack.generators import complete_graph, cycle_graph, gnp_graph, path_graph
from rigidpack.graph import Graph
from rigidpack.matroid import (
    GraphicOracle,
    OracleInconsistencyError,
    pack_rigid,
    pack_tree_rigid,
    partition,
    rank_union,
)
from rigidpack.rigidity import Realization, RigidityOracle, complete_rank, independent_d1


def two_forest_best_total(g):
    """Brute force over all edge 2-colorings: largest forest + forest split."""
    best = 0
    for colors in product((0, 1, None), repeat=g.m):
        parts = [[e for e, c in enumerate(colors) if c == i] for i in (0, 1)]
        if all(independent_d1(g, p) for p in parts):
            best = max(best, sum(len(p) for p in parts))
    return best


def test_single_oracle_degenerates_to_max_independent():
    g = gnp_graph(7, 0.6, seed=4)
    result = partition([GraphicOracle(g)], range(g.m))
    assert result.total == len(result.parts[0])
    assert independent_d1(g, result.parts[0])
    # spanning forest of a connected graph
    oracle = RigidityOracle(g, 1, salt=5)
    assert result.total == oracle.rank(range(g.m))


def test_two_spanning_trees_of_k4():
    g = complete_graph(4)
    oracles = [GraphicOracle(g), GraphicOracle(g)]
    result = partition(oracles, range(g.m))
    assert result.total == 6 == two_forest_best_total(g)
    assert all(len(p) == 3 and independent_d1(g, p) for p in result.parts)
    assert result.parts[0] & result.parts[1] == frozenset()


def test_parts_disjoint_cover_subset_of_ground():
    g = gnp_graph(9, 0.6, seed=11)
    oracles = [RigidityOracle(g, 2, salt=1), RigidityOracle(g, 2, salt=2)]
    result = partition(oracles, range(g.m))
    seen = set()
    for part in result.parts:
        assert not (part & seen)
        seen |= part
    assert seen <= set(range(g.m))
    for i, part in enumerate(result.parts):
        assert oracles[i].verify_independent(part)


@pytest.mark.parametrize("n,d,t,expected", [
    (4, 1, 2, 6),            # two spanning trees exhaust K_4
    (8, 2, 2, 26),           # 2(2n - 3) at n = 2td
    (12, 2, 3, 63),          # 3(2n - 3)
    (14, 3, 2, 72),          # 2(3n - 6)
])
def test_union_rank_complete_graphs(n, d, t, expected):
    g = complete_graph(n)
    if d == 1:
        oracles = [GraphicOracle(g) for _ in range(t)]
    else:
        oracles = [RigidityOracle(g, d, salt=i + 1) for i in range(t)]
    assert rank_union(oracles, range(g.m)) == expected
    assert expected == t * complete_rank(n, d)


@pytest.mark.parametrize("n,d,expected", [
    (8, 2, 20),              # (d+1)n - (d+1 choose 2) - 1
    (15, 3, 53),
    (11, 6, 55),             # equals all of K_11: the union is free there
])
def test_tree_plus_rigid_union_rank(n, d, expected):
    g = complete_graph(n)
    oracles = [GraphicOracle(g), RigidityOracle(g, d, salt=3)]
    assert rank_union(oracles, range(g.m)) == expected
    assert expected == (d + 1) * n - (d + 1) * d // 2 - 1


def test_rank_union_monotone_and_submodular():
    g = complete_graph(7)
    oracles = [GraphicOracle(g), RigidityOracle(g, 2, salt=6)]
    rng = random.Random(17)
    universe = list(range(g.m))
    for _ in range(12):
        a = frozenset(rng.sample(universe, rng.randrange(g.m + 1)))
        b = frozenset(rng.sample(universe, rng.randrange(g.m + 1)))
        ra = rank_union(oracles, a)
        rb = rank_union(oracles, b)
        if a <= b:
            assert ra <= rb
        assert rank_union(oracles, a | b) + rank_union(oracles, a & b) <= ra + rb


def test_rank_union_at_most_sum_with_equality_iff_bases():
    g = complete_graph(8)
    oracles = [RigidityOracle(g, 2, salt=1), RigidityOracle(g, 2, salt=2)]
    result = partition(oracles, range(g.m))
    per_oracle = complete_rank(8, 2)
    assert result.total <= 2 * per_oracle
    assert result.total == 2 * per_oracle
    assert all(len(p) == per_oracle for p in result.parts)
    # on a sparse ground set the sum bound is strict
    small = frozenset(range(5))
    assert rank_union(oracles, small) == 5 < 2 * RigidityOracle(g, 2, salt=9).rank(small)


def test_pack_rigid_k8():
    result = pack_rigid(complete_graph(8), 2, 2)
    assert result.feasible and result.verified
    assert result.sizes == (13, 13)


def test_pack_rigid_infeasible_cycle():
    result = pack_rigid(cycle_graph(5), 2, 1)
    assert not result.feasible
    assert result.sizes == (5,)
    assert result.target_sizes == (7,)
    assert result.deficiency == 2


def test_pack_tree_rigid_k6():
    result = pack_tree_rigid(complete_graph(6), 2)
    assert result.feasible and result.verified
    assert result.sizes == (5, 9)
    assert independent_d1(complete_graph(6), result.parts[0])


def test_pack_tree_rigid_tree_input_infeasible():
    result = pack_tree_rigid(path_graph(5), 1)
    assert not result.feasible
    assert sum(result.sizes) == 4            # one spanning tree, nothing left over


def test_partition_ground_subset():
    g = complete_graph(6)
    oracles = [GraphicOracle(g), GraphicOracle(g)]
    ground = frozenset(range(0, g.m, 2))
    result = partition(oracles, ground)
    assert result.ground == ground
    assert all(p <= ground for p in result.parts)


class RefusingOracle:
    """A rigidity oracle whose states refuse the first insert after a removal.

    That insert is a swap on an augmenting path. ``built`` lists the oracle
    once per state it builds.
    """

    def __init__(self, inner, built):
        self.inner, self.built = inner, built

    def new_state(self):
        self.built.append(self)
        return RefusingState(self.inner.new_state())


class RefusingState:
    def __init__(self, inner):
        self.inner, self.after_remove = inner, False

    def insert(self, edge_id):
        return not self.after_remove and self.inner.insert(edge_id)

    def circuit(self, edge_id):
        return self.inner.circuit(edge_id)

    def remove(self, edge_id):
        self.after_remove = True
        self.inner.remove(edge_id)


def test_partition_raises_on_a_refused_path_insert():
    g = complete_graph(8)
    built = []
    oracles = [RefusingOracle(RigidityOracle(g, 2, salt=i + 1), built) for i in range(2)]
    with pytest.raises(OracleInconsistencyError, match="refused element"):
        partition(oracles, range(g.m))
    # detected, not recovered from: no state is rebuilt or replayed
    assert built == oracles


class CountingOracle:
    """An oracle whose states record every insert they refuse and every circuit query."""

    def __init__(self, inner, refused, queried=None):
        self.inner, self.refused = inner, refused
        self.queried = [] if queried is None else queried

    def new_state(self):
        return CountingState(self.inner.new_state(), self.refused, self.queried)


class CountingState:
    def __init__(self, inner, refused, queried):
        self.inner, self.refused, self.queried = inner, refused, queried

    def insert(self, edge_id):
        ok = self.inner.insert(edge_id)
        if not ok:
            self.refused.append(edge_id)
        return ok

    def circuit(self, edge_id):
        self.queried.append(edge_id)
        return self.inner.circuit(edge_id)

    def remove(self, edge_id):
        self.inner.remove(edge_id)


def graphic_union_rank(g, t):
    """min over F of |E - F| + t (n - c(F)), by enumerating every edge subset F."""
    # labels[mask]: a component label per vertex of (V, F); rank[mask] = n - c(F)
    labels = [tuple(range(g.n))]
    rank = [0]
    for mask in range(1, 1 << g.m):
        low = mask & -mask
        base = labels[mask ^ low]
        u, v = g.edges[low.bit_length() - 1]
        a, b = base[u], base[v]
        if a == b:
            labels.append(base)
            rank.append(rank[mask ^ low])
        else:
            labels.append(tuple(a if x == b else x for x in base))
            rank.append(rank[mask ^ low] + 1)
    return min(g.m - bin(mask).count("1") + t * rank[mask] for mask in range(1 << g.m))


def colliding_d1_oracle(g, rng):
    """R_1 over coordinates from {0, 1, 2}: an edge whose ends collide has a zero row."""
    oracle = RigidityOracle(g, 1)
    coords = tuple((rng.randrange(3),) for _ in range(g.n))
    oracle.realization = Realization(1, coords, oracle.seed, oracle.salt)
    return oracle


def assert_dead_set_closed(oracles, result):
    """Every uncovered element is dead, and each part's dead members span the dead set.

    For a dead x and a part i not holding x, part i's circuit of x exists
    and lies inside the dead set: no exchange arc leaves it.
    """
    covered = frozenset().union(*result.parts)
    assert result.ground - covered <= result.dead <= result.ground
    for oracle, part in zip(oracles, result.parts):
        state = oracle.new_state()
        for y in sorted(part):
            assert state.insert(y)
        for x in sorted(result.dead - part):
            circ = state.circuit(x)
            assert circ is not None and circ <= result.dead


def test_partition_matches_union_rank_formula_without_refused_inserts():
    rng = random.Random(20240)
    hosts = []
    while len(hosts) < 40:
        g = gnp_graph(rng.randint(6, 8), rng.uniform(0.5, 0.9), seed=rng.randrange(10**6))
        if 0 < g.m <= 12:
            hosts.append(g)
    zero_rows = 0
    for g in hosts:
        colliding = colliding_d1_oracle(g, rng)
        live = Graph(g.n, [g.edges[e] for e in range(g.m) if any(colliding.row(e))])
        zero_rows += g.m - live.m
        for t in (2, 3):
            generic = graphic_union_rank(g, t)
            cases = [
                ([GraphicOracle(g)] * t, generic),
                ([RigidityOracle(g, 1, salt=i + 1) for i in range(t)], generic),
                # a zero row is a false "dependent" answer: the total comes out
                # short, and every part stays independent
                ([colliding] * t, graphic_union_rank(live, t)),
            ]
            for oracles, total in cases:
                refused = []
                result = partition([CountingOracle(o, refused) for o in oracles], range(g.m))
                assert result.total == total
                # every insert applies a path found on fresh circuits: a stale
                # memo entry reading "independent" would show as a refused insert
                assert refused == []
                assert_dead_set_closed(oracles, result)
    assert zero_rows > 0


def test_dead_set_prunes_circuit_queries():
    # 229 edges, 114 placed: 115 searches fail, and the elements they label
    # are never queried again.  Without the dead set this partition makes
    # 814 circuit queries.
    g = gnp_graph(30, 0.5, seed=4)
    queried = []
    oracles = [RigidityOracle(g, 2, 5, salt=i + 1) for i in range(2)]
    result = partition([CountingOracle(o, [], queried) for o in oracles], range(g.m))
    assert result.total == 2 * complete_rank(30, 2) == 114
    assert len(queried) == 514 < 814
    assert_dead_set_closed(oracles, result)


@pytest.mark.parametrize("n,p,graph_seed,d,t,graphic", [
    (30, 0.5, 4, 2, 2, False),   # 115 failed searches (see the test above)
    (24, 0.3, 2, 2, 2, False),   # short parts (44, 43) of 45; 93 of 94 dead
    (20, 0.5, 2, 2, 3, False),   # third part short, nothing dead
    (24, 0.5, 2, 3, 2, False),
    (20, 0.4, 2, 2, 1, True),
    (20, 0.5, 1, 2, 2, True),    # tree plus two rigid parts; 97 of 102 dead
])
def test_shared_realization_partitions_as_distinct_ones(n, p, graph_seed, d, t, graphic):
    # partition reads only circuits, insert verdicts and sorted frontiers, so
    # it depends on the matroid alone: t copies of one generic realization
    # give the parts and dead set that t distinct realizations give
    g = gnp_graph(n, p, seed=graph_seed)
    head = [GraphicOracle(g)] if graphic else []
    shared = partition(head + [RigidityOracle(g, d, 5, salt=1)] * t, range(g.m))
    distinct = partition(
        head + [RigidityOracle(g, d, 5, salt=i + 1) for i in range(t)], range(g.m)
    )
    assert shared.parts == distinct.parts
    assert shared.dead == distinct.dead


def count_realizations(monkeypatch):
    drawn = []
    draw = Realization.random.__func__

    def counting(cls, n, d, seed, salt=0):
        drawn.append(salt)
        return draw(cls, n, d, seed, salt)

    monkeypatch.setattr(Realization, "random", classmethod(counting))
    return drawn


def test_pack_rigid_draws_one_realization_and_one_recheck(monkeypatch):
    drawn = count_realizations(monkeypatch)
    result = pack_rigid(complete_graph(12), 2, 3, seed=1)
    assert result.feasible and result.verified
    assert len(drawn) == 2              # one for all three parts, one re-check
