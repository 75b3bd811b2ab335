"""rigidpack benchmark: one workload per invocation, from the checkout root.

    python3 perfbench/run.py --workload orient-k3 --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each is there):

* ``orient-k3``     ``orient --k 3 --verify`` on K33, the paper's pipeline;
* ``union-planted`` 200 rank/pack/kriesell jobs on planted hosts with exact answers;
* ``verify-conn``   four ``verify`` jobs, flow and connectivity only.

The measured run happens in a fresh process (``worker.py``); set-up time
is sampled in that process and in eight more that only set up, and the
median is reported. With ``--trace 0`` the last stdout line carries every
end-to-end metric named in BENCHMARK.json, with ``--trace 1`` every
per-layer metric. The lines before it stamp the result (Python version,
usable cores, git commit) and list failures and every metric with its unit.
The exit code is 0 whenever a result is printed; a wrong output shows as
``"correct": false``. ``manifest.json`` holds the baseline and held-out
seeds and the end-to-end metric each layer should move, per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` directly; "unknown" outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "nproc": cores, "commit": git_commit(ROOT),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def _spawn(argv: list[str], deadline: float) -> dict:
    """Run one worker process to completion; its last stdout line is its result."""
    env = dict(os.environ, RIGIDPACK_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py")] + argv
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(argv)}") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def _p90(samples: list[float]) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def measure(args, deadline: float) -> tuple[dict, dict]:
    """(raw worker result, metric values by name)."""
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    started = time.monotonic()
    result = _spawn(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                    deadline)
    if args.trace:
        return result, result["metrics"]
    setups = [result["ready"] - started]
    for _ in range(SETUP_SAMPLES - 1):
        started = time.monotonic()
        setups.append(_spawn(base + ["--setup-only"], deadline)["ready"] - started)
    return result, {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(result["walls"]),
        "job_p50_s": statistics.median(result["job_s"]),
        "job_p90_s": _p90(result["job_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="rigidpack benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, values = measure(args, deadline)
        declared = spec["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared}
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    print("stamp " + json.dumps(stamp(args), sort_keys=True))
    print(f"jobs attempted {attempted} failed {failed} fail_frac {failed / attempted:.6g} "
          f"stdout_sha256 {result['stdout_sha256']}")
    for line in result["failures"] + result["problems"]:
        print(f"FAIL {line}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not result["problems"],
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
