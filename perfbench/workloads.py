"""Inputs of the benchmark workloads: each workload is a list of CLI jobs.

Every input is made from the workload seed alone. The program under test
sees only the generated edge-list text on stdin and its own ``--seed``
flag. Each job carries the exact answer its output is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from rigidpack.generators import (
    complete_graph,
    complete_rigid_packing,
    harary_graph,
    lovasz_yemini,
    tree_rigid_decomposition,
)
from rigidpack.rigidity import complete_rank
from rigidpack.stream import stream_rng

# union-planted: the five commands cycle fastest, then D, then the noise
# density, with n stepping through its range. The seed picks the noise
# edges, the vertex shuffle and the program seed, so every seed runs the
# same mix of commands and sizes and a run's time does not hinge on how
# many large hosts one seed happened to draw.
UNION_JOBS = 200
UNION_KINDS = (
    ("rank", ()),
    ("rank-t2", ("--t", "2")),
    ("rank-graphic", ("--graphic",)),
    ("pack", ("--t", "2")),
    ("kriesell", ()),
)
UNION_DIMS = (2, 3)
UNION_NOISE = (0.2, 0.4, 0.6)
UNION_N = range(24, 33)


@dataclass(frozen=True)
class Job:
    """One CLI invocation: argv, stdin text and what a correct run gives."""

    argv: tuple[str, ...]
    text: str
    expect: dict


def edge_text(n: int, pairs) -> str:
    """The edge-list format: header ``n m`` then one ``u v`` line per pair."""
    lines = [f"{n} {len(pairs)}"]
    lines.extend(f"{u} {v}" for u, v in pairs)
    return "\n".join(lines) + "\n"


def orient_k3(seed: int) -> list[Job]:
    k, n = 3, 33
    graph = complete_graph(n)
    argv = ("orient", "--k", str(k), "--verify", "--seed", str(seed))
    expect = {"d": 4 * k - 4, "base_size": complete_rank(n, 4 * k - 4), "seed": seed}
    return [Job(argv, edge_text(n, graph.edges), expect)]


def _planted_host(n: int, d: int, graphic: bool, p: float, seed: int, index: int):
    """A witness packing plus noise, with vertex labels shuffled.

    The noise is G(n, p) in its fixed-count form: round(p * N) of the N
    pairs outside the witness, drawn uniformly. Every seed then gives a job
    the same edge count, and only which edges and labels varies.
    """
    witness = tree_rigid_decomposition(n, d) if graphic else complete_rigid_packing(n, d, 2)
    planted = {witness.host.edges[e] for part in witness.parts for e in part}
    free = [pair for pair in witness.host.edges if pair not in planted]
    rng = stream_rng(seed, index + 1)
    pairs = planted | set(rng.sample(free, round(p * len(free))))
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in pairs)


def union_planted(seed: int) -> list[Job]:
    rng = stream_rng(seed, 0)
    jobs = []
    for i in range(UNION_JOBS):
        kind, flags = UNION_KINDS[i % len(UNION_KINDS)]
        d = UNION_DIMS[(i // len(UNION_KINDS)) % len(UNION_DIMS)]
        p = UNION_NOISE[(i // (len(UNION_KINDS) * len(UNION_DIMS))) % len(UNION_NOISE)]
        n = UNION_N[i % len(UNION_N)]
        job_seed = rng.randrange(1 << 30)
        pairs = _planted_host(n, d, kind in ("rank-graphic", "kriesell"), p, seed, i)
        r = complete_rank(n, d)
        expect = {
            "rank": {"rank": r},
            "rank-t2": {"rank": 2 * r},
            "rank-graphic": {"rank": n - 1 + r},
            "pack": {"targets": [r, r]},
            "kriesell": {"targets": [n - 1, r]},
        }[kind]
        expect.update(d=d, seed=job_seed)
        argv = (kind.split("-")[0], "--d", str(d)) + flags + ("--seed", str(job_seed))
        jobs.append(Job(argv, edge_text(n, pairs), expect))
    return jobs


def verify_conn(seed: int) -> list[Job]:
    ly = lovasz_yemini([3], 8)
    ring = harary_graph(16, 160)
    # each circulant edge points forward by its offset (1..8), so every
    # vertex has in- and out-degree 8
    arcs = [(u, v) if (v - u) % ring.n <= 8 else (v, u) for u, v in ring.edges]
    jobs = []
    for k_ok, digraph, text in (
        (ly.connectivity, False, edge_text(ly.graph.n, ly.graph.edges)),
        (8, True, edge_text(ring.n, arcs)),
    ):
        for k, connected in ((k_ok, True), (k_ok + 1, False)):
            argv = ("verify",) + (("--digraph",) if digraph else ()) + (
                "--k", str(k), "--seed", str(seed))
            jobs.append(Job(argv, text, {"k": k, "connected": connected,
                                         "digraph": digraph}))
    return jobs


BUILDERS = {"orient-k3": orient_k3, "union-planted": union_planted,
            "verify-conn": verify_conn}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int) -> list[Job]:
    return BUILDERS[workload](seed)
