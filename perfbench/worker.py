"""One benchmark run of one workload, in a fresh single-threaded process.

Started by ``run.py``; prints one JSON line with its raw samples. The jobs
call ``rigidpack.cli.main`` in-process with in-memory stdin and stdout, so
argument parsing, graph I/O and the JSON report are timed with the rest.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --setup-only

A round runs the workload's job list once, back to back (a closed loop
with one client). Rounds repeat while another one would still end within
``--seconds``, with at least one. A job's latency is the median of its
times over the rounds. ``ready`` is the ``time.monotonic()`` reading at
the end of set-up (imports plus input generation), which ``run.py``
subtracts from the moment it started the process.

With ``--trace 1`` the first round runs untraced, as the reference for the
tracing overhead and for the traced outputs, which must not differ from
it; spans are then installed and every later round yields the per-layer
metrics. When the run ends, the spans of its first traced round are
written to ``.perfbench_out/spans-<workload>.tsv``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Layer coverage: a workload that silently stops exercising its layer, or
# starts exercising one it must not, fails the traced run.
NO_LINALG = {"verify-conn"}
USES_FLOW = {"orient-k3", "verify-conn"}
USES_FOREST = {"union-planted"}
LINALG_CALLS = ("linalg.insert.calls", "linalg.circuit.calls", "linalg.remove.calls",
                "linalg.plain.insert.calls")
# Counts that depend only on the seed: every traced round must repeat them.
COUNTS = ("linalg.rows_reduced", "matroid.uncovered", "connectivity.pairs", "flow.arcs")


def _load_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not (SRC / "rigidpack" / "__init__.py").is_file():
        raise SystemExit(f"error: no rigidpack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rigidpack
    from rigidpack import cli

    if Path(rigidpack.__file__).resolve().parent != SRC / "rigidpack":
        raise SystemExit(f"error: imported rigidpack from {rigidpack.__file__}")
    return cli


def _capture_reports(cli, sink: list) -> None:
    """Keep each OrientationReport: its bases are checked but never printed."""
    inner = cli.k_connected_orientation

    def capture(*args, **kwargs):
        result = inner(*args, **kwargs)
        sink.append(result[1])
        return result

    cli.k_connected_orientation = capture


def _run_job(cli, job, reports: list):
    """(exit code, stdout, captured report, seconds); exceptions count as exit None."""
    reports.clear()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(job.text), io.StringIO(), io.StringIO()
    out = sys.stdout
    start = time.perf_counter()
    try:
        rc = cli.main(list(job.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        out.write(traceback.format_exc())
    finally:
        seconds = time.perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    return rc, out.getvalue(), (reports[0] if reports else None), seconds


def _run_round(cli, jobs, reports, tracer=None):
    outcomes = []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        outcomes.append(_run_job(cli, job, reports))
    return outcomes, time.perf_counter() - start


def _check_rounds(checks, jobs, rounds) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every job of every round.

    A job also fails when its stdout differs from the first round's: the
    program promises byte-identical output for identical input and seed.
    """
    verdicts: dict = {}
    failed, reasons = 0, []
    for outcomes in rounds:
        for i, (job, (rc, out, report, _)) in enumerate(zip(jobs, outcomes)):
            bases = report.base_edges if report is not None else None
            key = (i, rc, out, bases)
            if key not in verdicts:
                verdicts[key] = checks.check(job, rc, out, report)
                if verdicts[key] is None and out != rounds[0][i][1]:
                    verdicts[key] = "stdout differs from the first round"
            if verdicts[key] is not None:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"job {i} {' '.join(job.argv)}: {verdicts[key]}")
    return sum(len(r) for r in rounds), failed, reasons


def _stdout_digest(outcomes) -> str:
    digest = hashlib.sha256()
    for rc, out, _, _ in outcomes:
        digest.update(f"{rc}\n{len(out)}\n{out}".encode())
    return digest.hexdigest()


def _another_round(start: float, last_wall: float, seconds: float) -> bool:
    """Whether a round as long as the last one still ends within ``seconds``."""
    return time.perf_counter() - start + last_wall <= seconds


def _timed(cli, jobs, reports, seconds):
    start = time.perf_counter()
    rounds, walls = [], []
    while not walls or _another_round(start, walls[-1], seconds):
        outcomes, wall = _run_round(cli, jobs, reports)
        if not rounds:
            # set-up plus one pass over the jobs: later rounds add only the
            # garbage earlier ones left, which depends on how many rounds fit
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds.append(outcomes)
        walls.append(wall)
    job_s = [statistics.median(r[i][3] for r in rounds) for i in range(len(jobs))]
    return rounds, {"walls": walls, "peak_rss_mb": peak_rss_mb, "job_s": job_s}


def _traced(cli, jobs, reports, seconds, workload, seed):
    import spans

    start = time.perf_counter()
    reference, ref_wall = _run_round(cli, jobs, reports)
    tracer = spans.Tracer()
    spans.install(tracer)
    rounds, per_round = [reference], []
    while not per_round or _another_round(start, per_round[-1]["trace.wall_s"], seconds):
        tracer.reset()
        outcomes, wall = _run_round(cli, jobs, reports, tracer)
        layer = spans.layer_metrics(tracer)
        layer["trace.wall_s"] = wall
        layer["trace.overhead_s"] = wall - ref_wall
        if not per_round:
            first_spans = tracer.spans
        rounds.append(outcomes)
        per_round.append(layer)
    OUT_DIR.mkdir(exist_ok=True)
    spans.dump(first_spans, OUT_DIR / f"spans-{workload}.tsv",
               {"workload": workload, "seed": seed, "wall_s": per_round[0]["trace.wall_s"]})
    metrics = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    problems = [f"{k} differs between traced rounds"
                for k in COUNTS + tuple(k for k in metrics if k.endswith(".calls"))
                if len({r[k] for r in per_round}) > 1]
    problems += _coverage(workload, metrics)
    return rounds, {"metrics": metrics, "problems": problems}


def _coverage(workload: str, m: dict) -> list[str]:
    problems = []
    if workload in NO_LINALG and any(m[k] for k in LINALG_CALLS):
        problems.append("linalg is called on a workload that must not reach it")
    if (m["flow.max_flow.calls"] > 0) != (workload in USES_FLOW):
        problems.append(f"flow.max_flow.calls is {m['flow.max_flow.calls']}")
    if (m["matroid.forest.self_s"] > 0) != (workload in USES_FOREST):
        problems.append(f"matroid.forest.self_s is {m['matroid.forest.self_s']}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = _load_program()
    import checks
    import workloads

    jobs = workloads.build(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    reports: list = []
    _capture_reports(cli, reports)
    if args.trace:
        rounds, result = _traced(cli, jobs, reports, args.seconds, args.workload, args.seed)
    else:
        rounds, result = _timed(cli, jobs, reports, args.seconds)
    attempted, failed, reasons = _check_rounds(checks, jobs, rounds)
    result.update(ready=ready, attempted=attempted, failed=failed, failures=reasons,
                  stdout_sha256=_stdout_digest(rounds[0]))
    result.setdefault("problems", [])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
