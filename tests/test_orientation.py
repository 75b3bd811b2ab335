import random

import pytest

from rigidpack.generators import complete_graph, cycle_graph, gnp_graph, path_graph
from rigidpack.graph import Digraph, Graph, induced_edge_count
from rigidpack.orientation import (
    DegreeSpec,
    OrientationCertificate,
    OrientationInfeasibleError,
    PackingError,
    balanced_orientation,
    deficits_from_vertices,
    hakimi_orientation,
    k_connected_orientation,
    rigid_base_orientation,
    rigid_base_spec,
    spread_deficits,
    strongly_connected_orientation,
)
from rigidpack.rigidity import RigidityOracle


def brute_force_indegree_feasible(g, targets):
    """Try all orientations with budget pruning; exact feasibility decision."""

    def go(i, remaining):
        if i == g.m:
            return all(r == 0 for r in remaining)
        u, v = g.edges[i]
        for head in (u, v):
            if remaining[head] > 0:
                remaining[head] -= 1
                if go(i + 1, remaining):
                    remaining[head] += 1
                    return True
                remaining[head] += 1
        return False

    return go(0, list(targets))


def test_balanced_even_cycle():
    d = balanced_orientation(cycle_graph(6))
    for v in range(6):
        assert d.out_degree(v) == 1 and d.in_degree(v) == 1


def test_balanced_single_edge():
    d = balanced_orientation(Graph(2, [(0, 1)]))
    assert sorted([d.out_degree(0), d.out_degree(1)]) == [0, 1]


def test_balanced_k5_eulerian():
    d = balanced_orientation(complete_graph(5))
    for v in range(5):
        assert d.out_degree(v) == 2 and d.in_degree(v) == 2


def test_balanced_invariants_random():
    for seed in range(12):
        g = gnp_graph(10, 0.5, seed=seed)
        d = balanced_orientation(g)
        for v in range(10):
            assert d.out_degree(v) >= g.degree(v) // 2
            assert abs(d.out_degree(v) - d.in_degree(v)) <= 1
            assert d.out_degree(v) + d.in_degree(v) == g.degree(v)


def test_hakimi_triangle_forced():
    tri = complete_graph(3)
    result = hakimi_orientation(tri, DegreeSpec((1, 1, 1)))
    assert isinstance(result, Digraph)
    assert [result.in_degree(v) for v in range(3)] == [1, 1, 1]


def test_hakimi_triangle_violating_set():
    tri = complete_graph(3)
    result = hakimi_orientation(tri, DegreeSpec((0, 0, 3)))
    assert isinstance(result, OrientationCertificate)
    assert result.kind == "violating-set"
    assert result.induced_edges > result.budget
    # the specific set {0, 1} violates: one induced edge, zero budget
    assert result.violating_set == frozenset({0, 1})
    # cross-check against every subset: the returned one is among the violators
    violators = [
        {v for v in range(3) if bits >> v & 1}
        for bits in range(1, 8)
        if induced_edge_count(tri, {v for v in range(3) if bits >> v & 1})
        > sum((0, 0, 3)[v] for v in range(3) if bits >> v & 1)
    ]
    assert result.violating_set in map(frozenset, violators)


def test_hakimi_path_matches_brute_force():
    path = path_graph(3)
    spec = DegreeSpec((1, 1, 0))
    result = hakimi_orientation(path, spec)
    assert isinstance(result, Digraph)
    assert [result.in_degree(v) for v in range(3)] == [1, 1, 0]
    assert result.has_arc(1, 0) and result.has_arc(2, 1)
    assert brute_force_indegree_feasible(path, (1, 1, 0))


def test_hakimi_count_mismatch():
    result = hakimi_orientation(path_graph(3), DegreeSpec((1, 1, 1)))
    assert isinstance(result, OrientationCertificate)
    assert result.kind == "count-mismatch"
    assert (result.edge_total, result.target_total) == (2, 3)


def test_hakimi_random_agrees_with_enumeration():
    rng = random.Random(99)
    for trial in range(60):
        g = gnp_graph(rng.randrange(3, 7), 0.5, seed=trial)
        targets = tuple(rng.randrange(0, 3) for _ in range(g.n))
        result = hakimi_orientation(g, DegreeSpec(targets))
        feasible = brute_force_indegree_feasible(g, targets)
        if isinstance(result, Digraph):
            assert feasible
            assert all(result.in_degree(v) == targets[v] for v in range(g.n))
        else:
            assert not feasible
            if result.kind == "violating-set":
                assert result.induced_edges > result.budget
                assert result.induced_edges == induced_edge_count(g, result.violating_set)


def test_spread_deficits():
    assert spread_deficits(10, 2) == (1, 1, 1) + (0,) * 7
    assert spread_deficits(33, 8) == (2, 2, 2) + (1,) * 30
    assert sum(spread_deficits(5, 3)) == 6
    assert deficits_from_vertices(6, 2, [1, 3, 5]) == (0, 1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        deficits_from_vertices(6, 2, [1, 3])


def test_rigid_base_spec_validation():
    spec = rigid_base_spec(4, 2, (1, 1, 1, 0))
    assert spec.targets == (1, 1, 1, 2)
    assert spec.total == 5
    with pytest.raises(ValueError):
        rigid_base_spec(4, 2, (3, 0, 0, 0))
    with pytest.raises(ValueError):
        rigid_base_spec(4, 2, (1, 1, 0, 0))


def test_rigid_base_orientation_path_d1():
    path = path_graph(3)
    oriented = rigid_base_orientation(path, 1, deficits=(1, 0, 0))
    assert [oriented.in_degree(v) for v in range(3)] == [0, 1, 1]


def test_rigid_base_orientation_k4_minus_edge():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])      # K_4 minus (2,3)
    oriented = rigid_base_orientation(g, 2, deficits=(1, 1, 1, 0))
    degs = [oriented.in_degree(v) for v in range(4)]
    assert degs == [1, 1, 1, 2]
    assert sum(degs) == 5


def test_rigid_base_orientation_k10_base():
    g = complete_graph(10)
    base = RigidityOracle(g, 2).extract_base(range(g.m))
    sub = g.subgraph(base)
    assert sub.m == 17
    oriented = rigid_base_orientation(sub, 2, spread_deficits(10, 2))
    degs = [oriented.in_degree(v) for v in range(10)]
    assert degs == [1, 1, 1] + [2] * 7


def test_rigid_base_orientation_rejects_nonbase():
    with pytest.raises(OrientationInfeasibleError) as err:
        rigid_base_orientation(cycle_graph(5), 2, deficits=(1, 1, 1, 0, 0))
    assert err.value.reason == "not-minimally-rigid"


def test_robbins_triangle():
    d = strongly_connected_orientation(complete_graph(3))
    assert {d.in_degree(v) for v in range(3)} == {1}


def test_robbins_bridge_certificate():
    with pytest.raises(OrientationInfeasibleError) as err:
        strongly_connected_orientation(path_graph(3))
    assert err.value.reason == "bridge"
    with pytest.raises(OrientationInfeasibleError) as err:
        strongly_connected_orientation(Graph(4, [(0, 1), (2, 3)]))
    assert err.value.reason in ("bridge", "disconnected")


def test_robbins_random_bridgeless():
    from rigidpack.connectivity import is_k_connected

    count = 0
    for seed in range(30):
        g = gnp_graph(8, 0.5, seed=seed)
        try:
            d = strongly_connected_orientation(g)
        except OrientationInfeasibleError:
            continue
        count += 1
        assert is_k_connected(d, 1)[0]
    assert count > 5


def test_k1_orientation_pipeline():
    d, report = k_connected_orientation(complete_graph(3), 1, verify=True)
    assert report.verified


def test_unverified_packing_raises(monkeypatch, corruptions):
    # a rigid state corrupted in any way the witness must catch
    for install in corruptions.values():
        with monkeypatch.context() as patch:
            install(patch)
            with pytest.raises(PackingError) as info:
                k_connected_orientation(complete_graph(17), 2)
        assert info.value.packing.feasible and not info.value.packing.verified


def test_reversed_orientation_meets_outdegree_spec():
    g = complete_graph(10)
    base = RigidityOracle(g, 2).extract_base(range(g.m))
    sub = g.subgraph(base)
    flipped = rigid_base_orientation(sub, 2, spread_deficits(10, 2)).reversed()
    degs = [flipped.out_degree(v) for v in range(10)]
    assert degs == [1, 1, 1] + [2] * 7
