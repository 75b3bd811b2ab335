import random

import pytest

from rigidpack.connectivity import (
    CutCertificate,
    brute_force_connectivity,
    certificate_is_valid,
    is_k_connected,
    vertex_connectivity_pair,
)
from rigidpack.flow import FlowNetwork
from rigidpack.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    harary_graph,
    path_graph,
)
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


def cyclic_orientation(g, rng):
    """Orient each edge forward along the shorter arc of a random cyclic order.

    Coin-flip orientations of dense hosts with n <= 12 are almost never
    strongly 4-connected; these near-regular ones often are.
    """
    order = list(range(g.n))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    heads = []
    for u, v in g.edges:
        gap = (pos[v] - pos[u]) % g.n
        forward = gap < g.n - gap or (gap == g.n - gap and rng.random() < 0.5)
        heads.append(v if forward else u)
    return Digraph(g, heads)


def test_flow_agrees_with_brute_force_dense():
    positive_at_4 = {"graph": 0, "digraph": 0}
    for seed in range(200):
        g = gnp_graph(6 + seed % 7, (0.7, 0.8, 0.9)[seed % 3], seed=seed)
        for kind, h in (("graph", g), ("digraph", cyclic_orientation(g, random.Random(seed)))):
            expected = True
            for k in range(1, 6):
                # not k-connected implies not (k+1)-connected
                expected = expected and brute_force_connectivity(h, k)
                ok, cert = is_k_connected(h, k)
                assert ok == expected, (seed, kind, k)
                if cert is not None:
                    assert certificate_is_valid(h, cert, k), (seed, kind, k)
                if ok and k == 4:
                    positive_at_4[kind] += 1
    assert positive_at_4["graph"] >= 1 and positive_at_4["digraph"] >= 1


def circulant_digraph(n, half, drop=()):
    """Arcs u -> u+1..u+half (mod n), minus the arcs in ``drop``."""
    arcs = {(u, (u + d) % n) for u in range(n) for d in range(1, half + 1)} - set(drop)
    g = Graph(n, sorted(arcs))
    return Digraph(g, [v if (u, v) in arcs else u for u, v in g.edges])


def test_fan_step_certificate_graph():
    # 0..4 pairwise adjacent, so the pair step has nothing to check;
    # vertex 5 is attached to only two earlier vertices
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)] + [(1, 5), (3, 5)]
    g = Graph(6, edges)
    ok, cert = is_k_connected(g, 3)
    assert not ok
    assert cert.separator == {1, 3} and cert.pair == (0, 5)
    assert certificate_is_valid(g, cert, 3)


def test_fan_step_certificate_digraph_forward():
    # vertex 9 keeps in-neighbours 5 and 6 only
    d = circulant_digraph(10, 4, drop={(7, 9), (8, 9)})
    assert brute_force_connectivity(d, 2) and not brute_force_connectivity(d, 3)
    ok, cert = is_k_connected(d, 3)
    assert not ok
    assert cert.separator == {5, 6} and cert.pair == (0, 9)
    assert certificate_is_valid(d, cert, 3)


def test_fan_step_certificate_digraph_reversed():
    # vertex 9 keeps out-neighbours 0 and 1 only; every in-degree stays >= 3,
    # so the forward pass holds and the reversed pass finds the cut
    d = circulant_digraph(10, 4, drop={(9, 2), (9, 3)})
    assert brute_force_connectivity(d, 2) and not brute_force_connectivity(d, 3)
    ok, cert = is_k_connected(d, 3)
    assert not ok
    assert cert.separator == {0, 1} and cert.pair == (9, 2)
    assert certificate_is_valid(d, cert, 3)
    assert not certificate_is_valid(d, CutCertificate("digraph", cert.separator, (2, 9)), 3)


@pytest.fixture
def flow_count(monkeypatch):
    calls = [0]
    inner = FlowNetwork.max_flow

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(FlowNetwork, "max_flow", counting)
    return calls


@pytest.mark.parametrize("k, n", [(3, 16), (4, 30), (5, 40), (8, 60)])
def test_flow_count_is_linear(flow_count, k, n):
    assert is_k_connected(harary_graph(k, n), k) == (True, None)
    assert flow_count[0] <= k * (k - 1) // 2 + (n - k)
    flow_count[0] = 0
    ring = harary_graph(2 * k, n)
    # each edge points forward by its offset, as in the verify-conn benchmark
    d = Digraph(ring, [v if (v - u) % n <= k else u for u, v in ring.edges])
    assert is_k_connected(d, k) == (True, None)
    assert flow_count[0] <= k * (k - 1) + 2 * (n - k)
