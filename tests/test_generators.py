import math

import pytest

from rigidpack.connectivity import is_k_connected
from rigidpack.generators import (
    complete_graph,
    complete_rigid_packing,
    cycle_graph,
    gnp_graph,
    harary_graph,
    lovasz_yemini,
    smallest_clique_order,
    tree_rigid_decomposition,
)
from rigidpack.matroid import GraphicOracle, rank_union
from rigidpack.rigidity import RigidityOracle, independent_d1


def test_complete_and_gnp():
    assert complete_graph(5).m == 10
    g = gnp_graph(30, 0.5, seed=1)
    assert g == gnp_graph(30, 0.5, seed=1)
    assert g != gnp_graph(30, 0.5, seed=2)


def test_harary_even_degree_is_circulant_cycle():
    assert harary_graph(2, 6).edges == cycle_graph(6).edges


def test_harary_cubic_three_connected():
    g = harary_graph(3, 6)
    assert all(g.degree(v) == 3 for v in range(6))
    assert is_k_connected(g, 3)[0]


def test_harary_5_regular_5_connected():
    g = harary_graph(5, 12)
    assert all(g.degree(v) == 5 for v in range(12))
    assert is_k_connected(g, 5)[0]
    assert not is_k_connected(g, 6)[0]


def test_harary_guards():
    with pytest.raises(ValueError):
        harary_graph(3, 3)          # too few vertices
    with pytest.raises(ValueError):
        harary_graph(3, 7)          # odd order with odd degree
    with pytest.raises(ValueError):
        harary_graph(0, 4)


def test_rigid_packing_minimal_order():
    # n = 2td exactly: no leftover block
    witness = complete_rigid_packing(8, 2, 2)
    assert witness.host.n == 8
    seen = set()
    for i, part in enumerate(witness.parts):
        assert not (part & seen)
        seen |= part
        oracle = RigidityOracle(witness.host, 2, salt=50 + i)
        assert oracle.is_rigid(part)


def test_rigid_packing_d1_two_connected_spanning():
    witness = complete_rigid_packing(4, 1, 2)
    for part in witness.parts:
        sub = witness.host.subgraph(part)
        assert all(sub.degree(v) >= 1 for v in range(4))
        assert RigidityOracle(witness.host, 1, salt=3).is_rigid(part)


def test_rigid_packing_with_leftover_block():
    witness = complete_rigid_packing(10, 2, 2)
    for i, part in enumerate(witness.parts):
        oracle = RigidityOracle(witness.host, 2, salt=60 + i)
        assert oracle.rank(part) == 2 * 10 - 3
        assert len(part) >= 2 * 10 - 3
    assert witness.parts[0] & witness.parts[1] == frozenset()


def test_rigid_packing_guard():
    with pytest.raises(ValueError):
        complete_rigid_packing(7, 2, 2)


def test_smallest_clique_order_matches_closed_form():
    for d in range(1, 1_000_001):
        a = math.ceil(math.sqrt(2 * d + 0.25) - 0.5)
        if d % 97 == 0 or d < 200:         # full loop check on a sparse subsample
            assert a == smallest_clique_order(d)
        assert a * (a + 1) // 2 >= d
        assert (a - 1) * a // 2 < d


def test_tree_rigid_figure_instance():
    # d = 6 forces a = 3 and the 11-vertex base split
    witness = tree_rigid_decomposition(11, 6)
    tree, rigid = witness.parts
    assert len(tree) == 10
    assert independent_d1(witness.host, tree)
    sub = witness.host.subgraph(tree)
    assert all(sub.degree(v) >= 1 for v in range(11))
    oracle = RigidityOracle(witness.host, 6, salt=8)
    assert oracle.is_rigid(rigid)
    assert not (tree & rigid)


def test_tree_rigid_d1():
    witness = tree_rigid_decomposition(4, 1)
    tree, rigid = witness.parts
    assert independent_d1(witness.host, tree) and len(tree) == 3
    assert RigidityOracle(witness.host, 1, salt=2).is_rigid(rigid)


def test_tree_rigid_d2_complement():
    witness = tree_rigid_decomposition(6, 2)
    tree, rigid = witness.parts
    assert len(tree) == 5 and len(rigid) == 10
    from rigidpack.rigidity import independent_d2

    oracle = RigidityOracle(witness.host, 2, salt=5)
    assert oracle.rank(rigid) == 2 * 6 - 3
    base = oracle.extract_base(rigid)
    assert len(base) == 9 and independent_d2(witness.host, base)


def test_tree_rigid_extension_sizes():
    witness = tree_rigid_decomposition(15, 3)
    tree, rigid = witness.parts
    assert len(tree) == 14
    assert RigidityOracle(witness.host, 3, salt=4).is_rigid(rigid)
    with pytest.raises(ValueError):
        tree_rigid_decomposition(6, 3)      # below d + a + 2 = 7


def test_lovasz_yemini_dim2():
    example = lovasz_yemini([2], 4)
    assert example.connectivity == 5
    assert example.graph.n == 40
    assert example.strict
    assert example.rank_upper_bound == 76
    assert example.spanning_requirement == 77
    oracle = RigidityOracle(example.graph, 2, salt=6)
    assert oracle.rank(range(example.graph.m)) < 2 * 40 - 3


def test_lovasz_yemini_not_yet_strict():
    example = lovasz_yemini([2], 3)
    assert not example.strict               # 19s = 20s - 3 at s = 3
    assert example.graph.n == 30


def test_lovasz_yemini_two_trees():
    example = lovasz_yemini([1, 1], 3)
    assert example.connectivity == 3
    assert example.graph.n == 18
    g = example.graph
    oracles = [GraphicOracle(g), GraphicOracle(g)]
    assert rank_union(oracles, range(g.m)) < 2 * (g.n - 1)


def test_lovasz_yemini_copies_have_external_degree_one():
    example = lovasz_yemini([2], 4)
    k = example.connectivity
    for v in range(example.graph.n):
        gadget = v // k
        external = [
            w for w in example.graph.adj[v] if w // k != gadget
        ]
        assert len(external) <= 1
        assert example.graph.degree(v) in (k - 1, k)
