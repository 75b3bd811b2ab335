import math
from fractions import Fraction

import pytest

from rigidpack.generators import complete_graph, gnp_graph, path_graph
from rigidpack.graph import Graph
from rigidpack.matroid import rank_union
from rigidpack.rigidity import RigidityOracle, independent_d1
from rigidpack.stochastic import (
    binomial_tail_bound,
    binomial_tail_check,
    expected_min_preceding,
    independent_subgraph_stats,
    mean_stderr,
    sample_independent_subgraph,
)
from rigidpack.stream import CHILDREN, SeededStream


def test_mean_stderr():
    mu, se = mean_stderr([2.0, 2.0, 2.0])
    assert mu == 2.0 and se == 0.0
    mu, se = mean_stderr([0.0, 2.0])
    assert mu == 1.0 and se == 1.0


def test_expected_min_preceding_exact_small():
    assert expected_min_preceding(4, 2, "exact") == Fraction(5, 4)
    assert expected_min_preceding(10, 3, "exact") == Fraction(12, 5)   # 2.4
    for d in range(1, 6):
        assert expected_min_preceding(d, d, "exact") == Fraction(d) - Fraction(d + 1, 2)


def test_expected_min_preceding_brute_matches_exact():
    for size in range(1, 8):
        for d in range(1, size + 1):
            assert (
                expected_min_preceding(size, d, "brute")
                == expected_min_preceding(size, d, "exact")
            )


def test_expected_min_preceding_montecarlo():
    mean, se = expected_min_preceding(10, 3, "montecarlo", trials=20_000,
                                      stream=SeededStream(4))
    assert abs(mean - 2.4) <= 3 * se
    assert se < 0.01


def test_expected_min_preceding_guards():
    with pytest.raises(ValueError):
        expected_min_preceding(3, 4)
    with pytest.raises(ValueError):
        expected_min_preceding(9, 2, "brute")
    with pytest.raises(ValueError):
        expected_min_preceding(4, 2, "nope")


def test_sample_reproducible_and_bounds():
    g = gnp_graph(20, 0.5, seed=3)
    a = sample_independent_subgraph(g, 2, 2, SeededStream(9))
    b = sample_independent_subgraph(g, 2, 2, SeededStream(9))
    assert a == b
    # per-round picks bounded by d, attachments by t*d with exact count rule
    for picks in a.round_picks:
        for v, chosen in picks:
            assert v in a.core
            assert 1 <= len(chosen) <= 2
    from rigidpack.orientation import balanced_orientation

    oriented = balanced_orientation(g)
    for v in range(g.n):
        if v in a.core:
            continue
        forward = [u for u in oriented.out_neighbors(v) if u in a.core]
        chosen = dict(a.attach_picks).get(v, ())
        assert len(chosen) == min(4, len(forward))
    # rounds are disjoint and the union matches
    assert a.rounds[0] & a.rounds[1] == frozenset()
    assert a.edges == a.rounds[0] | a.rounds[1] | a.attach


def test_sample_with_empty_core():
    g = complete_graph(4)
    for seed in range(200):
        s = sample_independent_subgraph(g, 1, 1, SeededStream(seed))
        if not s.core:
            assert s.edges == frozenset()
            break
    else:
        pytest.fail("no seed produced an empty core half")


def test_sample_on_tree_is_forest_at_d1():
    g = path_graph(12)
    for seed in range(10):
        s = sample_independent_subgraph(g, 1, 1, SeededStream(seed))
        assert independent_d1(g, s.edges)


def test_sample_independence_check_gnp():
    g = gnp_graph(60, 0.5, seed=100)
    s = sample_independent_subgraph(g, 2, 2, SeededStream(0))
    oracles = [RigidityOracle(g, 2, 0, salt=21), RigidityOracle(g, 2, 0, salt=22)]
    assert rank_union(oracles, s.edges) == len(s.edges)


def test_stats_unmet_hypothesis_flagged():
    # K_50 at d=2, t=1: minimum degree 49 just misses the 10d(d+1) = 60 bar
    stats = independent_subgraph_stats(complete_graph(50), 2, 1, trials=10, seed=1)
    assert not stats.hypothesis_met
    assert stats.trials == 10 and stats.mean > 0
    empty = Graph(5, [])
    stats = independent_subgraph_stats(empty, 2, 1, trials=5, seed=1)
    assert stats.mean == 0.0 and not stats.hypothesis_met


def test_binomial_tail():
    assert binomial_tail_bound(100, 0.5, 0.0) == 1.0
    assert binomial_tail_bound(100, 0.5, 1.0) == math.exp(-25)
    check = binomial_tail_check(40, 0.5, 0.3, trials=2000, stream=SeededStream(3))
    assert check.ok
    assert 0 <= check.frequency <= 1


def test_child_streams_never_collide():
    root = SeededStream(0)
    # indices outside [0, CHILDREN) used to alias other streams:
    # child(1000003) was child(0).child(0), and child(-1) the parent itself
    for index in (-1, CHILDREN, 1_000_003):
        with pytest.raises(ValueError):
            root.child(index)
    assert root.child(CHILDREN - 1).stream == CHILDREN
    # a small nested tree with the extreme indices at every level
    picks = (0, 1, CHILDREN - 2, CHILDREN - 1)
    level = [root]
    seen = {root.stream}
    for _ in range(3):
        level = [s.child(i) for s in level for i in picks]
        seen.update(s.stream for s in level)
    assert len(seen) == 1 + 4 + 16 + 64
