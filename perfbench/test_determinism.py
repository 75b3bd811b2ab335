"""Self-checks of the benchmark. From the checkout root:

    python3 -m pytest perfbench -q

Counts depend only on the seed, so two traced runs with one seed must give
byte-identical program output and identical counts; any drift is a
benchmark bug. The traced runs take about three minutes in all.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import worker  # noqa: E402
import workloads  # noqa: E402

SEED = json.loads((HERE / "manifest.json").read_text())["baseline_seed"]


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().split("\n")[-1])


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if k.endswith(".calls") or k in worker.COUNTS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_repeat(workload):
    first, second = _traced(workload, SEED), _traced(workload, SEED)
    for run in (first, second):
        assert run["failed"] == 0, run["failures"]
        assert run["problems"] == []
    assert first["stdout_sha256"] == second["stdout_sha256"]
    assert _counts(first["metrics"]) == _counts(second["metrics"])


def test_seed_changes_union_inputs():
    jobs = workloads.build("union-planted", SEED)
    assert jobs == workloads.build("union-planted", SEED)
    other = workloads.build("union-planted", SEED + 1)
    assert [j.argv[:-1] for j in jobs] == [j.argv[:-1] for j in other]
    assert [j.text for j in jobs] != [j.text for j in other]


def test_coverage_flags_a_layer_out_of_place():
    quiet = {k: 0 for k in worker.LINALG_CALLS}
    quiet.update({"flow.max_flow.calls": 10, "matroid.forest.self_s": 0.0})
    assert worker._coverage("verify-conn", quiet) == []
    assert worker._coverage("verify-conn", {**quiet, "linalg.circuit.calls": 1})
    assert worker._coverage("union-planted", quiet)
    assert worker._coverage("orient-k3", {**quiet, "matroid.forest.self_s": 0.1})
