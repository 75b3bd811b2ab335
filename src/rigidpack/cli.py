"""Command-line driver: gen / rank / pack / orient / kriesell / verify / simulate.

Objects (graphs, digraphs, packing parts) stream through stdin/stdout in
the edge-list format; every run also prints a one-line JSON report with a
fixed envelope {schema, object, seed, stats, certificates}.  With
--output the object goes to the file and only the JSON stays on stdout.
Readers ignore content after the last edge line, so emitted objects pipe
straight into the next subcommand.

Exit codes: 0 success (and verified, where applicable), 1 verification or
feasibility failure with the certificate in the report, 2 usage or parse
errors.  A kernel fault detected inside a matroid partition (``pack``,
``kriesell``, ``rank --t``, ``orient``, ``simulate gpd --check``) exits 1
with a ``partition-failure`` report whose certificate kind is
``kernel-fault``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .connectivity import is_k_connected
from .generators import (
    complete_graph,
    complete_rigid_packing,
    gnp_graph,
    harary_graph,
    lovasz_yemini,
    tree_rigid_decomposition,
)
from .graph import (
    Graph,
    VertexOrdering,
    read_digraph,
    read_graph,
    write_digraph,
    write_graph,
)
from .matroid import (
    GraphicOracle,
    OracleInconsistencyError,
    pack_rigid,
    pack_tree_rigid,
    rank_union,
)
from .orientation import (
    OrientationError,
    PackingInfeasibleError,
    PackingUnverifiedError,
    k_connected_orientation,
)
from .rigidity import RigidityOracle
from .stochastic import (
    back_degree_subgraph,
    binomial_tail_check,
    check_back_degree_independent,
    expected_min_preceding,
    independent_subgraph_stats,
    mean_stderr,
)
from .stream import SeededStream

SCHEMA = 1

CHERNOFF_GRID = [
    (n, p, eta) for n in (30, 100) for p in (0.3, 0.6) for eta in (0.2, 0.5)
]


def _report(obj: str, seed, stats: dict, certificates: list | None = None) -> str:
    return json.dumps(
        {
            "schema": SCHEMA,
            "object": obj,
            "seed": seed,
            "stats": stats,
            "certificates": certificates or [],
        },
        sort_keys=True,
    )


def _read_input(args) -> str:
    if args.input == "-":
        return sys.stdin.read()
    with open(args.input, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit_object(args, text: str) -> None:
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _add_io(sub, output_default="-"):
    sub.add_argument("-i", "--input", default="-", help="input path (default stdin)")
    sub.add_argument("-o", "--output", default=output_default,
                     help="object output path (default stdout)")
    sub.add_argument("--seed", type=int, default=0)


def _cert_dict(cert) -> dict:
    out = {"kind": cert.kind}
    if getattr(cert, "separator", None) is not None:
        out["separator"] = sorted(cert.separator)
        out["pair"] = list(cert.pair)
    if getattr(cert, "violating_set", None) is not None:
        out["violating_set"] = sorted(cert.violating_set)
        out["induced_edges"] = cert.induced_edges
        out["budget"] = cert.budget
    for field in ("edge_total", "target_total"):
        if getattr(cert, field, None) is not None:
            out[field] = getattr(cert, field)
    return out


def _cmd_gen(args) -> int:
    kind = args.kind
    stats: dict = {}
    parts_json = None
    if kind == "complete":
        graph = complete_graph(args.n)
    elif kind == "gnp":
        graph = gnp_graph(args.n, args.p, args.seed)
    elif kind == "harary":
        graph = harary_graph(args.k, args.m)
    elif kind == "lovasz-yemini":
        example = lovasz_yemini([int(x) for x in args.dims.split(",")], args.s)
        graph = example.graph
        stats = {
            "connectivity": example.connectivity,
            "rank_upper_bound": example.rank_upper_bound,
            "spanning_requirement": example.spanning_requirement,
            "strict": example.strict,
        }
    elif kind == "tdrigid-pack":
        witness = complete_rigid_packing(args.n, args.d, args.t)
        graph = witness.host
        parts_json = [sorted(p) for p in witness.parts]
        stats = {"claims": list(witness.claims), "sizes": [len(p) for p in witness.parts]}
    elif kind == "tree-rigid":
        witness = tree_rigid_decomposition(args.n, args.d)
        graph = witness.host
        parts_json = [sorted(p) for p in witness.parts]
        stats = {"claims": list(witness.claims), "sizes": [len(p) for p in witness.parts]}
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(kind)
    _emit_object(args, write_graph(graph))
    stats.update({"n": graph.n, "m": graph.m})
    if parts_json is not None:
        stats["parts"] = parts_json
    print(_report("graph", args.seed, stats))
    return 0


def _cmd_rank(args) -> int:
    if args.t < 1:
        raise ValueError("t must be at least 1")
    graph = read_graph(_read_input(args))
    ground = range(graph.m)
    oracle = RigidityOracle(graph, args.d, args.seed, salt=1)
    if args.t == 1 and not args.graphic:
        value = oracle.rank(ground)
    else:
        graphic = [GraphicOracle(graph)] if args.graphic else []
        value = rank_union(graphic + [oracle] * args.t, ground)
    print(value)
    return 0


def _report_packing(args, graph: Graph, result, obj: str) -> int:
    """Emit one edge-list block per part, print the report, return the exit code."""
    blocks = [write_graph(graph.subgraph(sorted(part))) for part in result.parts]
    _emit_object(args, "\n".join(blocks))
    stats = {
        "sizes": list(result.sizes),
        "targets": list(result.target_sizes),
        "feasible": result.feasible,
        "verified": result.verified,
        "deficiency": result.deficiency,
    }
    print(_report(obj, args.seed, stats))
    return 0 if result.feasible and result.verified else 1


def _cmd_pack(args) -> int:
    graph = read_graph(_read_input(args))
    result = pack_rigid(graph, args.d, args.t, args.seed)
    return _report_packing(args, graph, result, "packing")


def _cmd_kriesell(args) -> int:
    graph = read_graph(_read_input(args))
    result = pack_tree_rigid(graph, args.d, args.seed)
    return _report_packing(args, graph, result, "tree-rigid-packing")


def _cmd_orient(args) -> int:
    graph = read_graph(_read_input(args))
    deficit_vertices = None
    if args.R:
        deficit_vertices = [int(x) for x in args.R.split(",")]
    try:
        oriented, report = k_connected_orientation(
            graph, args.k, args.seed, deficit_vertices, verify=args.verify
        )
    except (PackingInfeasibleError, PackingUnverifiedError) as exc:
        kind = "packing-unverified" if exc.packing.feasible else "packing-deficiency"
        stats = {
            "k": args.k,
            "sizes": list(exc.packing.sizes),
            "targets": list(exc.packing.target_sizes),
            "deficiency": exc.packing.deficiency,
        }
        print(_report("orientation-failure", args.seed, stats, [{"kind": kind}]))
        return 1
    except OrientationError as exc:
        cert = getattr(exc, "certificate", None)
        certs = [{"kind": getattr(exc, "reason", "infeasible"),
                  "detail": list(cert) if isinstance(cert, tuple) else None}]
        print(_report("orientation-failure", args.seed, {"k": args.k}, certs))
        return 1
    _emit_object(args, write_digraph(oriented))
    stats = {
        "k": report.k,
        "d": report.d,
        "deficits": list(report.deficits) if report.deficits else None,
        "base_sizes": list(report.base_sizes) if report.base_sizes else None,
        "leftover": report.leftover,
        "verified": report.verified,
    }
    print(_report("orientation", args.seed, stats))
    return 1 if args.verify and not report.verified else 0


def _cmd_verify(args) -> int:
    text = _read_input(args)
    target = read_digraph(text) if args.digraph else read_graph(text)
    ok, cert = is_k_connected(target, args.k)
    stats = {"k": args.k, "n": target.n, "connected": ok}
    certs = [_cert_dict(cert)] if cert else []
    if not ok and cert is None:
        certs = [{"kind": "too-few-vertices"}]
    print(_report("connectivity-verdict", args.seed, stats, certs))
    return 0 if ok else 1


def _simulate_ordering(args) -> int:
    bound = expected_min_preceding(args.set_size, args.d, "exact")
    mean, se = expected_min_preceding(
        args.set_size, args.d, "montecarlo", args.trials, SeededStream(args.seed)
    )
    verdict = abs(mean - float(bound)) <= 3 * se
    print(_report("ordering-expectation", args.seed, {
        "estimate": mean, "stderr": se, "bound": float(bound), "verdict": verdict,
        "trials": args.trials,
    }))
    return 0 if verdict else 1


def _simulate_e0(args) -> int:
    graph = read_graph(_read_input(args))
    stats = independent_subgraph_stats(graph, args.d, args.t, args.trials, args.seed)
    print(_report("independent-subgraph-size", args.seed, {
        "estimate": stats.mean, "stderr": stats.stderr, "bound": stats.bound,
        "verdict": stats.passes, "hypothesis_met": stats.hypothesis_met,
        "trials": args.trials,
    }))
    return 0 if stats.passes or not stats.hypothesis_met else 1


def _simulate_gpd(args) -> int:
    graph = read_graph(_read_input(args))
    root = SeededStream(args.seed)
    sizes = []
    independent = 0
    checked = 0
    for i in range(args.trials):
        rng = root.child(i).rng()
        perm = list(range(graph.n))
        rng.shuffle(perm)
        ordering = VertexOrdering(perm)
        built = back_degree_subgraph(graph, ordering, args.cap)
        sizes.append(float(len(built.edges)))
        if args.check:
            checked += 1
            if check_back_degree_independent(graph, ordering, args.cap - 1, args.seed):
                independent += 1
    mean, se = mean_stderr(sizes)
    bound = float(args.cap * graph.n)
    stats = {
        "estimate": mean, "stderr": se, "bound": bound,
        "verdict": mean - 3 * se >= bound, "trials": args.trials,
    }
    if args.check:
        stats["independent_fraction"] = independent / max(checked, 1)
    print(_report("back-degree-size", args.seed, stats))
    return 0


def _simulate_chernoff(args) -> int:
    root = SeededStream(args.seed)
    points = []
    worst = 0.0
    ok = True
    for i, (n, p, eta) in enumerate(CHERNOFF_GRID):
        check = binomial_tail_check(n, p, eta, args.trials, root.child(i))
        points.append({
            "n": n, "p": p, "eta": eta, "bound": check.bound,
            "frequency": check.frequency, "stderr": check.stderr, "ok": check.ok,
        })
        worst = max(worst, check.frequency - check.bound)
        ok = ok and check.ok
    print(_report("binomial-tail", args.seed, {
        "estimate": worst, "stderr": None, "bound": 0.0, "verdict": ok,
        "points": points, "trials": args.trials,
    }))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidpack",
        description="rigidity packings, degree-specified orientations, verifiers",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="write generated graphs and witnesses")
    gen.add_argument("kind", choices=[
        "complete", "harary", "lovasz-yemini", "tdrigid-pack", "tree-rigid", "gnp",
    ])
    gen.add_argument("--n", type=int, default=0)
    gen.add_argument("--m", type=int, default=0)
    gen.add_argument("--k", type=int, default=1)
    gen.add_argument("--d", type=int, default=2)
    gen.add_argument("--t", type=int, default=1)
    gen.add_argument("--p", type=float, default=0.5)
    gen.add_argument("--s", type=int, default=2)
    gen.add_argument("--dims", default="2", help="comma-separated dimensions")
    _add_io(gen)
    gen.set_defaults(func=_cmd_gen)

    rank_p = subs.add_parser("rank", help="rigidity or union rank of the input graph")
    rank_p.add_argument("--d", type=int, required=True)
    rank_p.add_argument("--t", type=int, default=1)
    rank_p.add_argument("--graphic", action="store_true",
                        help="include the graphic matroid in the union")
    _add_io(rank_p)
    rank_p.set_defaults(func=_cmd_rank)

    pack_p = subs.add_parser("pack", help="pack t edge-disjoint d-rigid spanning subgraphs")
    pack_p.add_argument("--d", type=int, required=True)
    pack_p.add_argument("--t", type=int, required=True)
    _add_io(pack_p)
    pack_p.set_defaults(func=_cmd_pack)

    kri = subs.add_parser("kriesell", help="split into spanning tree + d-rigid subgraph")
    kri.add_argument("--d", type=int, required=True)
    _add_io(kri)
    kri.set_defaults(func=_cmd_kriesell)

    ori = subs.add_parser("orient", help="k-connected orientation")
    ori.add_argument("--k", type=int, required=True)
    ori.add_argument("--R", default="",
                     help="comma-separated deficit vertex ids (default: first ids)")
    ori.add_argument("--verify", action="store_true")
    _add_io(ori)
    ori.set_defaults(func=_cmd_orient)

    ver = subs.add_parser("verify", help="exact k-connectivity check")
    ver.add_argument("--k", type=int, required=True)
    ver.add_argument("--digraph", action="store_true")
    _add_io(ver)
    ver.set_defaults(func=_cmd_verify)

    sim = subs.add_parser("simulate", help="seeded statistical experiments")
    simsubs = sim.add_subparsers(dest="experiment", required=True)

    s_ord = simsubs.add_parser("ordering")
    s_ord.add_argument("--set-size", type=int, required=True)
    s_ord.add_argument("--d", type=int, required=True)
    s_ord.add_argument("--trials", type=int, default=100_000)
    _add_io(s_ord)
    s_ord.set_defaults(func=_simulate_ordering)

    s_e0 = simsubs.add_parser("e0")
    s_e0.add_argument("--d", type=int, required=True)
    s_e0.add_argument("--t", type=int, required=True)
    s_e0.add_argument("--trials", type=int, default=100)
    _add_io(s_e0)
    s_e0.set_defaults(func=_simulate_e0)

    s_gpd = simsubs.add_parser("gpd")
    s_gpd.add_argument("--cap", type=int, required=True)
    s_gpd.add_argument("--trials", type=int, default=20)
    s_gpd.add_argument("--check", action="store_true",
                       help="also test graphic + rigidity independence at d = cap - 1")
    _add_io(s_gpd)
    s_gpd.set_defaults(func=_simulate_gpd)

    s_ch = simsubs.add_parser("chernoff")
    s_ch.add_argument("--trials", type=int, default=4000)
    _add_io(s_ch)
    s_ch.set_defaults(func=_simulate_chernoff)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleInconsistencyError as exc:
        certs = [{"kind": "kernel-fault", "detail": str(exc)}]
        print(_report("partition-failure", args.seed, {}, certs))
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
