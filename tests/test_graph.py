import random

import pytest

from rigidpack.graph import (
    Digraph,
    Graph,
    GraphFormatError,
    in_neighbors_of_set,
    induced_edge_count,
    read_digraph,
    read_graph,
    write_digraph,
    write_graph,
)
from rigidpack.generators import complete_graph, gnp_graph


def test_canonical_edge_order():
    g = Graph(4, [(3, 1), (2, 0), (0, 1)])
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert g.adj[0] == (1, 2)
    assert g.edge_id(3, 1) == 2


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])


def test_induced_edge_count_examples():
    k4 = complete_graph(4)
    assert induced_edge_count(k4, range(4)) == 6
    assert induced_edge_count(k4, []) == 0
    path = Graph(3, [(0, 1), (1, 2)])
    assert induced_edge_count(path, {0, 2}) == 0
    with pytest.raises(ValueError):
        induced_edge_count(path, {5})


def test_induced_edge_count_monotone():
    rng = random.Random(1)
    g = gnp_graph(9, 0.5, seed=5)
    for _ in range(30):
        xs = set(rng.sample(range(9), rng.randrange(10)))
        ys = xs | set(rng.sample(range(9), rng.randrange(10)))
        assert induced_edge_count(g, xs) <= induced_edge_count(g, ys)
    assert induced_edge_count(g, range(g.n)) == g.m


def test_digraph_degree_sum():
    g = gnp_graph(8, 0.5, seed=2)
    heads = [v for (u, v) in g.edges]
    d = Digraph(g, heads)
    for v in range(8):
        assert d.in_degree(v) + d.out_degree(v) == g.degree(v)
    rev = d.reversed()
    for v in range(8):
        assert rev.in_degree(v) == d.out_degree(v)


def test_digraph_head_validation():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        Digraph(g, [2])
    with pytest.raises(ValueError):
        Digraph(g, [])


def test_in_neighbors_of_set():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    d = Digraph(g, [1, 2, 2])      # 0->1, 1->2, 3->2
    assert in_neighbors_of_set(d, {2}) == {1, 3}
    assert in_neighbors_of_set(d, {1, 2}) == {0, 3}
    assert in_neighbors_of_set(d, range(4)) == set()


def test_read_graph_triangle():
    g = read_graph("3 3\n0 1\n0 2\n1 2\n")
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_read_graph_error_lines():
    with pytest.raises(GraphFormatError) as err:
        read_graph("2 1\n1 1\n")
    assert err.value.line == 2
    with pytest.raises(GraphFormatError) as err:
        read_graph("2 2\n0 1\n1 0\n")
    assert err.value.line == 3
    with pytest.raises(GraphFormatError) as err:
        read_graph("2 1\n0 5\n")
    assert err.value.line == 2
    with pytest.raises(GraphFormatError) as err:
        read_graph("not a header\n")
    assert err.value.line == 1
    with pytest.raises(GraphFormatError):
        read_graph("3 2\n0 1\n")


def test_round_trip_canonicalizes():
    rng = random.Random(77)
    pairs = rng.sample([(u, v) for u in range(20) for v in range(u + 1, 20)], 100)
    g = Graph(20, pairs)
    assert g.m == 100
    lines = [f"{g.n} {g.m}"]
    scrambled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
    rng.shuffle(scrambled)
    lines += [f"{a} {b}" for a, b in scrambled]
    assert write_graph(read_graph("\n".join(lines))) == write_graph(g)
    # trailing content after the m-th edge line is ignored
    assert write_graph(read_graph(write_graph(g) + '{"schema": 1}\n')) == write_graph(g)


def test_digraph_round_trip():
    g = gnp_graph(7, 0.6, seed=8)
    heads = [u if i % 2 else v for i, (u, v) in enumerate(g.edges)]
    d = Digraph(g, heads)
    d2 = read_digraph(write_digraph(d))
    assert d2.parent.edges == g.edges
    assert d2.heads == d.heads
