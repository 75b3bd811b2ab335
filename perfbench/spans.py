"""Span tracing of rigidpack from outside the library.

``install`` replaces public entry points of the ``cli``, ``graph``,
``linalg``, ``rigidity``, ``matroid``, ``orientation``, ``flow`` and
``connectivity`` layers with wrappers that open a span around each call.
Functions imported by value (``cli.pack_rigid``, ``orientation.is_k_connected``
and the like) are patched in the namespace that looks them up; methods are
patched on their class. Spans nest, so a call made inside another traced
call (the inserts issued by ``RowBasis.remove``, ``partition`` under
``pack_rigid``) is counted once and subtracted from its parent's self time.

Spans and counts stay in memory; ``layer_metrics`` turns one round of
them into the per-layer metrics and ``dump`` writes spans out.
"""

from __future__ import annotations

import time
from collections import defaultdict

from rigidpack import cli, connectivity, flow, linalg, matroid, orientation, rigidity


class Tracer:
    """Spans and counts of one round of jobs.

    A span is ``[name, start, end, parent index, job id]``; the parent is
    the span open when it started, or -1 at the top of a job.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.width_max = 0
        self.job = -1
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self.width_max = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name: str, fn, note=None):
        """``fn`` inside a span; ``note(args, result)`` records counts after it."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                note(args, result)
            return result

        return traced

    def counted(self, key: str, fn):
        """``fn`` with a call count and no span of its own."""

        def counting(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counting


def dump(spans: list[list], path, header: dict) -> None:
    """Write spans as tab-separated lines, times in µs from the first start."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in header.items()) + "\n")
        fh.write("job\tname\tparent\tstart_us\tend_us\n")
        for name, start, end, parent, job in spans:
            fh.write(f"{job}\t{name}\t{parent}\t{(start - origin) * 1e6:.1f}\t"
                     f"{(end - origin) * 1e6:.1f}\n")


def _basis_method(tracer: Tracer, op: str, fn):
    """RowBasis.insert/circuit/residue/remove with the kernel's work counts.

    Bases with ``track_width`` 0 (fresh-realization rank checks, plain
    ``rank``) get ``linalg.plain.*`` spans, tracked partition bases
    ``linalg.*``.
    """
    slot_bytes = linalg.SLOT_BITS // 8

    def traced(basis, *args, **kwargs):
        counts = tracer.counts
        name = f"linalg.{op}" if basis.track_width else f"linalg.plain.{op}"
        if op != "remove":
            rows = len(basis)
            counts["linalg.rows_reduced"] += rows
            counts["linalg.bytes_computed"] += rows * basis.width * slot_bytes
        if op == "insert" and tracer.parent_name() == "linalg.remove":
            counts["linalg.remove.reinserts"] += 1
        tracer.width_max = max(tracer.width_max, basis.width)
        idx = tracer.open(name)
        try:
            result = fn(basis, *args, **kwargs)
        finally:
            tracer.close(idx)
        if op == "insert" and result:
            counts[name + ".kept"] += 1
        elif op == "circuit" and result is not None:
            counts["linalg.circuit.dependent"] += 1
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Patch every traced entry point; meant for a process of its own."""

    def add(key, value):
        tracer.counts[key] += value

    def patch(owner, attr, name, note=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), note))

    def read_note(args, result):
        add("graph.bytes_in", len(args[0]))

    def write_note(args, result):
        add("graph.bytes_out", len(result))

    def partition_note(args, result):
        add("matroid.ground", len(result.ground))
        add("matroid.covered", result.total)

    def flow_note(args, result):
        add("flow.arcs", len(args[0].head) // 2)

    patch(cli, "main", "cli")
    for attr in ("read_graph", "read_digraph"):
        patch(cli, attr, "graph.read", read_note)
    for attr in ("write_graph", "write_digraph"):
        patch(cli, attr, "graph.write", write_note)

    for op in ("insert", "circuit", "residue", "remove"):
        setattr(linalg.RowBasis, op, _basis_method(tracer, op, getattr(linalg.RowBasis, op)))

    patch(rigidity.RigidityOracle, "__init__", "rigidity.oracle_init")
    patch(rigidity.RigidityOracle, "rank", "rigidity.rank")

    for owner, attr in ((cli, "pack_rigid"), (cli, "pack_tree_rigid"),
                        (orientation, "pack_rigid")):
        patch(owner, attr, "matroid.pack")
    patch(matroid, "partition", "matroid.partition", partition_note)
    for op in ("insert", "circuit", "remove"):
        patch(matroid.ForestState, op, "matroid.forest")
    for state in (rigidity.RigidityPartitionState, matroid.ForestState):
        for op in ("circuit", "remove"):
            setattr(state, op, tracer.counted(f"matroid.state.{op}",
                                              getattr(state, op)))

    patch(cli, "k_connected_orientation", "orientation.k_connected")
    patch(orientation, "hakimi_orientation", "orientation.hakimi")

    patch(flow.FlowNetwork, "max_flow", "flow.max_flow", flow_note)
    patch(flow.FlowNetwork, "source_side", "flow.source_side")

    for owner in (cli, orientation):
        patch(owner, "is_k_connected", "connectivity.is_k_connected")
    patch(connectivity, "vertex_connectivity_pair", "connectivity.pair")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one round; self time is duration minus child spans."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: defaultdict[str, int] = defaultdict(int)
    inclusive: defaultdict[str, float] = defaultdict(float)
    self_s: defaultdict[str, float] = defaultdict(float)
    for (name, start, end, _, _), covered in zip(spans, child):
        calls[name] += 1
        inclusive[name] += end - start
        self_s[name] += end - start - covered
    c = tracer.counts

    def ratio(part, whole):
        return part / whole if whole else 0.0

    return {
        "linalg.insert.calls": calls["linalg.insert"],
        "linalg.insert.kept_ratio": ratio(c["linalg.insert.kept"], calls["linalg.insert"]),
        "linalg.insert.self_s": self_s["linalg.insert"],
        "linalg.circuit.calls": calls["linalg.circuit"],
        "linalg.circuit.dependent_ratio": ratio(c["linalg.circuit.dependent"],
                                                calls["linalg.circuit"]),
        "linalg.circuit.self_s": self_s["linalg.circuit"],
        "linalg.remove.calls": calls["linalg.remove"],
        "linalg.remove.reinserts": c["linalg.remove.reinserts"],
        "linalg.remove.self_s": self_s["linalg.remove"],
        "linalg.plain.insert.calls": calls["linalg.plain.insert"],
        "linalg.plain.insert.self_s": self_s["linalg.plain.insert"],
        "linalg.rows_reduced": c["linalg.rows_reduced"],
        "linalg.bytes_computed": c["linalg.bytes_computed"],
        "linalg.width_max": tracer.width_max,
        "matroid.pack.s": inclusive["matroid.pack"],
        "matroid.partition.calls": calls["matroid.partition"],
        "matroid.partition.self_s": self_s["matroid.partition"],
        "matroid.ground": c["matroid.ground"],
        "matroid.uncovered": c["matroid.ground"] - c["matroid.covered"],
        "matroid.covered_ratio": ratio(c["matroid.covered"], c["matroid.ground"]),
        "matroid.state.circuit.calls": c["matroid.state.circuit"],
        "matroid.state.remove.calls": c["matroid.state.remove"],
        "matroid.forest.self_s": self_s["matroid.forest"],
        "rigidity.rank.calls": calls["rigidity.rank"],
        "rigidity.rank.self_s": self_s["rigidity.rank"],
        "rigidity.oracle_init.self_s": self_s["rigidity.oracle_init"],
        "orientation.hakimi.calls": calls["orientation.hakimi"],
        "orientation.hakimi.self_s": self_s["orientation.hakimi"],
        "orientation.k_connected.self_s": self_s["orientation.k_connected"],
        "flow.max_flow.calls": calls["flow.max_flow"],
        "flow.max_flow.self_s": self_s["flow.max_flow"],
        "flow.arcs": c["flow.arcs"],
        "flow.source_side.self_s": self_s["flow.source_side"],
        "connectivity.is_k_connected.calls": calls["connectivity.is_k_connected"],
        "connectivity.pairs": calls["connectivity.pair"],
        "connectivity.pair.self_s": self_s["connectivity.pair"],
        "graph.read.self_s": self_s["graph.read"],
        "graph.write.self_s": self_s["graph.write"],
        "graph.bytes_in": c["graph.bytes_in"],
        "graph.bytes_out": c["graph.bytes_out"],
        "cli.self_s": self_s["cli"],
    }
