import random
from collections import Counter
from itertools import product

import pytest

from rigidpack import matroid
from rigidpack.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    lovasz_yemini,
    path_graph,
)
from rigidpack.graph import Graph
from rigidpack.matroid import (
    GraphicOracle,
    OracleInconsistencyError,
    guarded_partition,
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

    @property
    def max_rank(self):
        return self.inner.max_rank

    def new_state(self):
        self.built.append(self)
        return RefusingState(self.inner.new_state())


class RefusingState:
    """A state that refuses every exchange: the first swap on a path."""

    def __init__(self, inner):
        self.inner = inner

    def insert(self, edge_id):
        return self.inner.insert(edge_id)

    def extends(self, edge_id):
        return self.inner.extends(edge_id)

    def circuit(self, edge_id):
        return self.inner.circuit(edge_id)

    def exchange(self, add, old):
        return False


def test_partition_raises_on_a_refused_path_insert():
    g = complete_graph(8)
    built = []
    oracles = [RefusingOracle(RigidityOracle(g, 2, salt=i + 1), built) for i in range(2)]
    with pytest.raises(OracleInconsistencyError, match="refused element"):
        partition(oracles, range(g.m))
    # detected, not recovered from: no state is rebuilt or replayed
    assert built == oracles


class CountingOracle:
    """An oracle whose states count, in one shared Counter, every refused
    insert or exchange, probe and circuit read, and every probe of a part
    that already holds ``max_rank`` elements."""

    def __init__(self, inner, log):
        self.inner, self.log = inner, log

    @property
    def max_rank(self):
        return self.inner.max_rank

    def new_state(self):
        return CountingState(self.inner.new_state(), self.inner.max_rank, self.log)


class CountingState:
    def __init__(self, inner, cap, log):
        self.inner, self.cap, self.log, self.size = inner, cap, log, 0

    def insert(self, edge_id):
        ok = self.inner.insert(edge_id)
        self.size += ok
        self.log["refused"] += not ok
        return ok

    def extends(self, edge_id):
        self.log["probes"] += 1
        self.log["full_probes"] += self.size >= self.cap
        return self.inner.extends(edge_id)

    def circuit(self, edge_id):
        self.log["circuits"] += 1
        return self.inner.circuit(edge_id)

    def exchange(self, add, old):
        ok = self.inner.exchange(add, old)
        self.log["refused"] += not ok
        return ok


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

    For a dead x and a part i not holding x, part i + x is dependent, and
    x's circuit in part i lies inside the dead set: no exchange arc leaves it.
    """
    covered = frozenset().union(*result.parts)
    assert result.ground - covered <= result.dead <= result.ground
    for oracle, part in zip(oracles, result.parts):
        state = oracle.new_state()
        for y in sorted(part):
            assert state.insert(y)
        for x in sorted(result.dead - part):
            assert not state.extends(x)
            assert state.circuit(x) <= result.dead


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
                log = Counter()
                result = partition([CountingOracle(o, log) for o in oracles], range(g.m))
                assert result.total == total
                # every path is found on circuits the states give as they stand,
                # and a shortest path keeps every part independent: no insert
                # or exchange on it is refused, even under a colliding
                # realization
                assert log["refused"] == 0
                assert_dead_set_closed(oracles, result)
    assert zero_rows > 0


def test_dead_set_prunes_circuit_queries():
    # 229 edges, 114 placed: 39 searches fail, and the elements they label
    # are never queried again; both parts are bases after the 153rd edge, so
    # the last 76 edges start no search.  A one-pass search, which reads a
    # circuit for every dependent (x, part), makes 364 queries here; with
    # the dead set alone it makes 524, with neither 8096.  The two passes
    # probe 252 times and read 192 circuits, only in layers without a sink.
    g = gnp_graph(30, 0.5, seed=4)
    log = Counter()
    oracles = [RigidityOracle(g, 2, 5, salt=i + 1) for i in range(2)]
    result = partition([CountingOracle(o, log) for o in oracles], range(g.m))
    assert result.total == 2 * complete_rank(30, 2) == 114
    assert (log["probes"], log["circuits"]) == (252, 192)
    assert log["probes"] < 364 < 524 < 8096
    assert result.dead == result.ground
    assert_dead_set_closed(oracles, result)


def one_pass_search(e, states, part_of, dead, room):
    """The reference search: one pass per layer, every part probed (room is
    ignored), every dependent (x, part) read as it is met, sink layers included."""
    prev = {e: (-1, -1)}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for i, state in enumerate(states):
                if part_of.get(x) == i:
                    continue
                if state.extends(x):
                    moves = [(i, x, None)]
                    while prev[x] != (-1, -1):
                        px, m = prev[x]
                        moves.append((m, px, x))
                        x = px
                    return moves
                for y in state.circuit(x):
                    if y not in prev and y not in dead:
                        prev[y] = (x, i)
                        nxt.append(y)
        frontier = sorted(nxt)
    dead.update(prev)
    return None


def test_two_pass_search_matches_the_one_pass_reference(monkeypatch):
    # parts, dead sets and totals agree with the one-pass search on every
    # host; the two passes never probe a full part and read fewer circuits
    rng = random.Random(22)
    cases = []
    for _ in range(36):
        g = gnp_graph(rng.randint(8, 16), rng.uniform(0.3, 0.9), seed=rng.randrange(10**6))
        d, t = rng.randint(1, 3), 1 + len(cases) % 3
        head = [GraphicOracle(g)] if len(cases) % 4 == 3 else []
        cases.append(head + [RigidityOracle(g, d, 5, salt=1)] * t)
    for _ in range(6):
        g = gnp_graph(rng.randint(6, 9), rng.uniform(0.5, 0.9), seed=rng.randrange(10**6))
        cases.append([colliding_d1_oracle(g, rng)] * rng.randint(2, 3))
    short = gnp_graph(24, 0.3, seed=2)
    cases.append([RigidityOracle(short, 2, 5, salt=1)] * 2)
    two, one = Counter(), Counter()
    for oracles in cases:
        ground = range(oracles[-1].graph.m)
        result = partition([CountingOracle(o, two) for o in oracles], ground)
        assert two["full_probes"] == 0
        with monkeypatch.context() as patched:
            patched.setattr(matroid, "_search", one_pass_search)
            reference = partition([CountingOracle(o, one) for o in oracles], ground)
        assert result.parts == reference.parts
        assert result.dead == reference.dead
    assert result.sizes == (44, 43)  # the short host
    # the reference probes full parts, and reads circuits in sink layers
    assert one["full_probes"] > 0
    assert two["probes"] < one["probes"] and two["circuits"] < one["circuits"]


def remove_then_insert(moves, states, part_of):
    """The reference ``_augment``: every removal first, then every insert."""
    for i, _, old in moves:
        if old is not None:
            states[i].remove(old)
    for i, add, _ in moves:
        assert states[i].insert(add)
        part_of[add] = i


@pytest.mark.parametrize("host,d,graphic,longest", [
    # a length-3 path: its first and third swaps share a part, and its sink
    # part swapped before the sink insert
    pytest.param((20, 0.6, 7), 3, False, 3, id="gnp20-d3"),
    pytest.param((10, 0.8, 4), 2, False, 2, id="gnp10-d2"),
    pytest.param((12, 0.7, 0), 2, True, 1, id="gnp12-graphic-d2"),
])
def test_exchange_paths_match_remove_then_insert(monkeypatch, host, d, graphic, longest):
    # applying each path by exchanges in path order gives the parts and the
    # dead set that removing every swapped element and re-inserting give
    n, p, seed = host
    graph = gnp_graph(n, p, seed=seed)
    rigid = RigidityOracle(graph, d, 1, salt=1)
    oracles = [GraphicOracle(graph), rigid] if graphic else [rigid] * 2
    lengths = []
    augment = matroid._augment

    def recorded(moves, states, part_of):
        lengths.append(len(moves) - 1)
        augment(moves, states, part_of)

    monkeypatch.setattr(matroid, "_augment", recorded)
    result = partition(oracles, range(graph.m))
    monkeypatch.setattr(matroid, "_augment", remove_then_insert)
    reference = partition(oracles, range(graph.m))
    assert max(lengths) == longest
    assert result.parts == reference.parts
    assert result.dead == reference.dead


def test_saturation_exit_leaves_the_parts_unchanged(monkeypatch):
    # a run that never sees saturation (max_rank patched huge) searches for
    # every element and gives the same parts; a saturated run's dead set is
    # the whole ground set, a short run's is the one the searches labelled
    rng = random.Random(15)
    cases = []
    for _ in range(40):
        g = gnp_graph(rng.randint(8, 16), rng.uniform(0.3, 0.9), seed=rng.randrange(10**6))
        head = [GraphicOracle(g)] if rng.random() < 0.3 else []
        d, t = rng.randint(1, 3), rng.randint(1, 3)
        cases.append((g, head + [RigidityOracle(g, d, 5, salt=1)] * t))
    # short parts (44, 43) of 45: 93 of 94 elements dead
    short = gnp_graph(24, 0.3, seed=2)
    cases.append((short, [RigidityOracle(short, 2, 5, salt=1)] * 2))
    early = []
    for g, oracles in cases:
        result = partition(oracles, range(g.m))
        saturated = result.total == sum(o.max_rank for o in oracles)
        if saturated:
            assert result.dead == result.ground
        assert_dead_set_closed(oracles, result)
        early.append((result, saturated))
    monkeypatch.setattr(GraphicOracle, "max_rank", 1 << 30)
    monkeypatch.setattr(RigidityOracle, "max_rank", 1 << 30)
    for (g, oracles), (result, saturated) in zip(cases, early):
        late = partition(oracles, range(g.m))
        assert late.parts == result.parts
        if not saturated:
            assert late.dead == result.dead
    graphic = sum(isinstance(oracles[0], GraphicOracle) for _, oracles in cases)
    saturated = sum(s for _, s in early)
    assert graphic >= 5 and 10 <= saturated <= len(cases) - 5
    assert len(early[-1][0].dead) == 93


@pytest.mark.parametrize("n,p,graph_seed,d,t,graphic", [
    (30, 0.5, 4, 2, 2, False),   # 39 failed searches, then saturation
    (24, 0.3, 2, 2, 2, False),   # short parts (44, 43) of 45; 93 of 94 dead
    (20, 0.5, 2, 2, 3, False),   # third part short, nothing dead
    (24, 0.5, 2, 3, 2, False),   # saturated after 132 of 142 edges
    (20, 0.4, 2, 2, 1, True),    # saturated after 59 of 88 edges
    (20, 0.5, 1, 2, 2, True),    # tree plus two rigid parts; saturated, all 102 dead
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


def test_tree_rigid_packing_draws_one_realization_and_one_recheck(monkeypatch):
    drawn = count_realizations(monkeypatch)
    result = pack_tree_rigid(complete_graph(8), 2, seed=1)
    assert result.feasible and result.verified
    assert drawn == [1, 1 + (1 << 20)]  # the tree is re-checked exactly


# the salt offset of a fresh realization (``RigidityOracle.fresh``)
FRESH = 1 << 20


def test_guard_reseeds_an_unlucky_packing(unlucky):
    # salt 1 puts K12 on a line, where R_2 reads as R_1: under that
    # realization alone both parts stop at spanning trees, (11, 11) of 21
    g = complete_graph(12)
    drawn = unlucky(1)
    assert partition([RigidityOracle(g, 2, 1, salt=1)] * 2, range(g.m)).sizes == (11, 11)
    for pack in (lambda: pack_rigid(g, 2, 2, seed=1), lambda: pack_tree_rigid(g, 2, seed=1)):
        drawn.clear()
        result = pack()
        assert result.feasible and result.verified and result.guard == "reseeded"
        # the partition, the guard's partition, and the re-check of its parts
        assert drawn == [1, 1 + FRESH, 1 + 2 * FRESH]


def test_guard_confirms_a_short_packing(monkeypatch):
    # 94 edges whose union rank in two copies of R_2 is 87 < min(94, 2 * 45):
    # a second realization agrees, and the first partition's parts stand
    g = gnp_graph(24, 0.3, seed=2)
    drawn = count_realizations(monkeypatch)
    result = pack_rigid(g, 2, 2, seed=3)
    assert result.sizes == (44, 43) and not result.feasible and not result.verified
    assert result.guard == "confirmed"
    assert drawn == [1, 1 + FRESH]        # two partitions, no re-check
    assert result.parts == partition([RigidityOracle(g, 2, 3, salt=1)] * 2, range(g.m)).parts


def test_guard_stays_off_where_counting_decides(monkeypatch):
    # a 5-connected Lovasz-Yemini graph: its 150 edges all fit in two parts,
    # (114, 36), so the union verdict is exact, and 150 < 2 * 117 makes the
    # packing infeasible whatever the realization
    g = lovasz_yemini([2], 6).graph
    drawn = count_realizations(monkeypatch)
    result = pack_rigid(g, 2, 2, seed=3)
    assert result.sizes == (114, 36) and result.guard is None
    assert drawn == [1]
    # one copy: the graph is not rigid, 114 < min(150, 117), and a second
    # realization confirms it
    drawn.clear()
    result = pack_rigid(g, 2, 1, seed=3)
    assert result.sizes == (114,) and result.guard == "confirmed"
    assert drawn == [1, 1 + FRESH]


def test_guard_skips_exact_oracles(monkeypatch):
    # two forests in K5 plus an isolated vertex hold 8 of 10 edges, short of
    # min(10, 2 * 5); forest answers are exact, so nothing is asked again
    g = Graph(6, complete_graph(5).edges)
    calls = []
    run = matroid.partition
    monkeypatch.setattr(matroid, "partition", lambda *args: calls.append(args) or run(*args))
    result, _, guard = guarded_partition([GraphicOracle(g)] * 2, range(g.m))
    assert result.total == 8 and guard is None and len(calls) == 1


def test_graphic_verify_independent_is_exact():
    g = complete_graph(4)
    oracle = GraphicOracle(g)
    star = [g.edge_id(0, v) for v in (1, 2, 3)]
    triangle = [g.edge_id(0, 1), g.edge_id(1, 2), g.edge_id(0, 2)]
    assert oracle.verify_independent(star)
    assert oracle.verify_independent(star, [g.edge_id(1, 2)], [])
    assert not oracle.verify_independent(triangle)
    assert not oracle.verify_independent(star, triangle)
