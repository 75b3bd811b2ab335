"""A randomized sparse-subgraph construction and its empirical statistics.

``sample_independent_subgraph`` is a seeded construction, implemented
exactly and instrumented: fix a balanced orientation, sample a vertex half
U, and in t rounds give each core vertex up to d of its forward neighbors
that precede it in a fresh random order of U; outside vertices then attach
with up to t*d forward edges into U.  The result is always independent in
the t-fold d-rigidity union (each round grows by vertices of in-round
degree at most d, the attachments by degree at most t*d), and its expected
size concentrates near (td - 1/4) * n once the minimum degree is large;
``independent_subgraph_stats`` measures that.

Everything takes an explicit SeededStream; trials are embarrassingly
parallel and bit-reproducible.

Statistical acceptance convention for ">= bound" claims: the claim passes
when (sample mean - 3 * standard error) >= bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from .graph import Digraph, Graph
from .orientation import balanced_orientation
from .stream import SeededStream


def mean_stderr(values: Sequence[float]) -> tuple[float, float]:
    """Sample mean and its standard error (n-1 variance)."""
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    mu = sum(values) / n
    if n == 1:
        return mu, 0.0
    var = sum((x - mu) ** 2 for x in values) / (n - 1)
    return mu, math.sqrt(var / n)


def expected_min_preceding(
    set_size: int,
    d: int,
    mode: str = "exact",
    trials: int = 100_000,
    stream: SeededStream | None = None,
):
    """E[min(d, number of elements preceding a fixed one)] under a random order.

    The count is uniform on 0..set_size-1, so the exact value is
    d - d(d+1) / (2 * set_size).  ``brute`` averages over all orderings
    (set_size <= 8) as an independent check; ``montecarlo`` samples real
    shuffles and returns (mean, stderr).
    """
    if not 1 <= d <= set_size:
        raise ValueError("need set_size >= d >= 1")
    if mode == "exact":
        return Fraction(d) - Fraction(d * (d + 1), 2 * set_size)
    if mode == "brute":
        if set_size > 8:
            raise ValueError("brute enumeration is limited to set_size <= 8")
        total = 0
        count = 0
        for perm in permutations(range(set_size)):
            total += min(d, perm.index(0))
            count += 1
        return Fraction(total, count)
    if mode == "montecarlo":
        rng = (stream or SeededStream(0)).rng()
        items = list(range(set_size))
        samples = []
        for _ in range(trials):
            rng.shuffle(items)
            samples.append(min(d, items.index(0)))
        return mean_stderr(samples)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class IndependentSubgraphSample:
    """One construction run: core half, per-round picks, outside attachments."""

    core: frozenset[int]
    rounds: tuple[frozenset[int], ...]            # edge ids picked per round
    attach: frozenset[int]                        # edges into the core from outside
    edges: frozenset[int]                         # the union
    round_picks: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    attach_picks: tuple[tuple[int, tuple[int, ...]], ...]


def _sample_with_orientation(
    graph: Graph, oriented: Digraph, d: int, t: int, stream: SeededStream
) -> IndependentSubgraphSample:
    if d < 1 or t < 1:
        raise ValueError("d and t must be at least 1")
    rng = stream.rng()
    core = sorted(v for v in range(graph.n) if rng.getrandbits(1))
    core_set = set(core)
    used: set[int] = set()
    rounds = []
    round_picks = []
    for _ in range(t):
        order = core[:]
        rng.shuffle(order)
        pos = {v: i for i, v in enumerate(order)}
        picked: set[int] = set()
        picks_here = []
        for v in core:
            ahead = [
                u
                for u in oriented.out_neighbors(v)
                if u in core_set
                and pos[u] < pos[v]
                and graph.edge_id(v, u) not in used
            ]
            ahead.sort(key=pos.__getitem__)
            chosen = tuple(graph.edge_id(v, u) for u in ahead[:d])
            picked.update(chosen)
            if chosen:
                picks_here.append((v, chosen))
        used |= picked
        rounds.append(frozenset(picked))
        round_picks.append(tuple(picks_here))
    attach: set[int] = set()
    attach_picks = []
    cap = t * d
    for v in range(graph.n):
        if v in core_set:
            continue
        into = sorted(u for u in oriented.out_neighbors(v) if u in core_set)
        chosen = tuple(graph.edge_id(v, u) for u in into[:cap])
        attach.update(chosen)
        if chosen:
            attach_picks.append((v, chosen))
    edges = frozenset(used | attach)
    return IndependentSubgraphSample(
        frozenset(core),
        tuple(rounds),
        frozenset(attach),
        edges,
        tuple(round_picks),
        tuple(attach_picks),
    )


def sample_independent_subgraph(
    graph: Graph, d: int, t: int, stream: SeededStream
) -> IndependentSubgraphSample:
    """One seeded run of the half-sample construction (see module docstring)."""
    return _sample_with_orientation(graph, balanced_orientation(graph), d, t, stream)


@dataclass(frozen=True)
class SubgraphSizeStats:
    trials: int
    mean: float
    stderr: float
    bound: float
    hypothesis_met: bool
    passes: bool


def independent_subgraph_stats(
    graph: Graph, d: int, t: int, trials: int, seed: int = 0
) -> SubgraphSizeStats:
    """Sample mean of the construction size against the (td - 1/4) n bound.

    The bound is only claimed for minimum degree at least t * 10d(d+1);
    below that the estimate is still produced with ``hypothesis_met``
    False.
    """
    oriented = balanced_orientation(graph)
    root = SeededStream(seed)
    sizes = [
        float(len(_sample_with_orientation(graph, oriented, d, t, root.child(i)).edges))
        for i in range(trials)
    ]
    mu, se = mean_stderr(sizes)
    bound = (t * d - 0.25) * graph.n
    met = graph.min_degree() >= t * 10 * d * (d + 1)
    return SubgraphSizeStats(trials, mu, se, bound, met, mu - 3 * se >= bound)


def binomial_tail_bound(n: int, p: float, eta: float) -> float:
    """exp(-eta^2 n p / 2), the lower-tail bound P(X <= (1-eta)np)."""
    if not 0 <= eta <= 1:
        raise ValueError("eta must lie in [0, 1]")
    return math.exp(-(eta ** 2) * n * p / 2)


@dataclass(frozen=True)
class TailCheck:
    n: int
    p: float
    eta: float
    bound: float
    frequency: float
    stderr: float

    @property
    def ok(self) -> bool:
        return self.frequency <= self.bound + 3 * self.stderr


def binomial_tail_check(
    n: int, p: float, eta: float, trials: int, stream: SeededStream
) -> TailCheck:
    """Empirical lower-tail frequency of Binomial(n, p) against the bound."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = stream.rng()
    threshold = (1 - eta) * n * p
    hits = 0
    for _ in range(trials):
        x = sum(rng.random() < p for _ in range(n))
        if x <= threshold:
            hits += 1
    freq = hits / trials
    se = math.sqrt(freq * (1 - freq) / trials)
    return TailCheck(n, p, eta, binomial_tail_bound(n, p, eta), freq, se)
