import random

import pytest

from rigidpack.connectivity import (
    brute_force_connectivity,
    certificate_is_valid,
    is_k_connected,
    vertex_connectivity_pair,
)
from rigidpack.generators import complete_graph, cycle_graph, gnp_graph, path_graph
from rigidpack.graph import Digraph, Graph


def random_digraph(n, p, seed):
    g = gnp_graph(n, p, seed=seed)
    rng = random.Random(seed + 1000)
    heads = [v if rng.random() < 0.5 else u for u, v in g.edges]
    return Digraph(g, heads)


def test_pair_path():
    g = path_graph(3)
    value, sep = vertex_connectivity_pair(g, 0, 2)
    assert value == 1 and sep == {1}


def test_pair_k5_minus_edge():
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 1)]
    g = Graph(5, edges)
    value, sep = vertex_connectivity_pair(g, 0, 1)
    assert value == 3 and sep == {2, 3, 4}


def test_pair_directed_cycle():
    g = cycle_graph(4)
    d = Digraph(g, [v for u, v in [(0, 1), (3, 0), (1, 2), (2, 3)]])
    # arcs 0->1->2->3->0; antipodal pair 0, 2
    value, sep = vertex_connectivity_pair(d, 0, 2)
    assert value == 1 and sep == {1}


def test_pair_rejects_adjacent():
    with pytest.raises(ValueError):
        vertex_connectivity_pair(complete_graph(3), 0, 1)
    with pytest.raises(ValueError):
        vertex_connectivity_pair(path_graph(3), 1, 1)


def test_menger_duality_random():
    rng = random.Random(6)
    for seed in range(25):
        g = gnp_graph(9, 0.45, seed=seed)
        nonadj = [
            (u, v)
            for u in range(9)
            for v in range(u + 1, 9)
            if not g.has_edge(u, v)
        ]
        if not nonadj:
            continue
        u, v = nonadj[rng.randrange(len(nonadj))]
        value, sep = vertex_connectivity_pair(g, u, v)
        assert value == len(sep)
        # removing the separator really disconnects the pair
        assert not _reaches(g, u, v, sep)


def _reaches(g, a, b, removed):
    seen = {a}
    stack = [a]
    while stack:
        x = stack.pop()
        for y in g.adj[x]:
            if y == b:
                return True
            if y not in seen and y not in removed:
                seen.add(y)
                stack.append(y)
    return False


def test_complete_graph_vacuous():
    for k in (1, 2, 3):
        ok, cert = is_k_connected(complete_graph(k + 1), k)
        assert ok and cert is None


def test_cycle_connectivity():
    c6 = cycle_graph(6)
    assert is_k_connected(c6, 2)[0]
    ok, cert = is_k_connected(c6, 3)
    assert not ok and len(cert.separator) == 2
    assert certificate_is_valid(c6, cert, 3)


def test_too_few_vertices():
    ok, cert = is_k_connected(complete_graph(3), 3)
    assert not ok and cert is None


def test_brute_force_examples():
    assert brute_force_connectivity(complete_graph(4), 3)
    shared = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert not brute_force_connectivity(shared, 2)
    assert brute_force_connectivity(shared, 1)
    with pytest.raises(ValueError):
        brute_force_connectivity(complete_graph(13), 2)


def test_flow_agrees_with_brute_force_graphs():
    for seed in range(80):
        g = gnp_graph(4 + seed % 6, 0.5, seed=seed)
        for k in (1, 2, 3, 4):
            ok, cert = is_k_connected(g, k)
            assert ok == brute_force_connectivity(g, k)
            if cert is not None:
                assert certificate_is_valid(g, cert, k)


def test_flow_agrees_with_brute_force_digraphs():
    for seed in range(80):
        d = random_digraph(4 + seed % 6, 0.6, seed)
        for k in (1, 2, 3):
            ok, cert = is_k_connected(d, k)
            assert ok == brute_force_connectivity(d, k)
            if cert is not None:
                assert certificate_is_valid(d, cert, k)


def test_graph_matches_symmetric_digraph():
    # a graph is k-connected iff replacing each edge by two opposite arcs
    # preserves the decision; exercised via the brute-force notion where
    # undirected reachability and strong reachability coincide
    for seed in range(20):
        g = gnp_graph(7, 0.5, seed=seed)
        for k in (1, 2, 3):
            assert is_k_connected(g, k)[0] == brute_force_connectivity(g, k)

