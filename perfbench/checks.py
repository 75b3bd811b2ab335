"""Independent checks of every program output, made outside the timed region.

Each check parses the printed text itself and compares it with the exact
answer the workload planted. Rigidity claims are re-checked under a
realization salt the program never uses (it uses 1..t, 2..5 when it
reseeds, 1001+i, 1002, 7001, 17 and offsets of 1<<20), so a check does not
repeat the computation it checks.
"""

from __future__ import annotations

import json

from rigidpack.connectivity import CutCertificate, certificate_is_valid
from rigidpack.graph import Graph, read_digraph, read_graph
from rigidpack.rigidity import RigidityOracle, independent_d1

FRESH_SALT = 0x5EED_0B5


def check(job, rc, out: str, captured) -> str | None:
    """Why the output of ``job`` is wrong, or None when it is right.

    ``captured`` is the ``OrientationReport`` the program built for an
    ``orient`` job (its bases are not printed); None for other commands.
    """
    try:
        return {"orient": _orient, "rank": _rank, "pack": _parts, "kriesell": _parts,
                "verify": _verify}[job.argv[0]](job, rc, out, captured)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _pairs(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = text.split("\n")
    n, m = map(int, lines[0].split())
    return n, [tuple(map(int, line.split())) for line in lines[1 : m + 1]]


def _blocks(out: str) -> tuple[list[tuple[int, list[tuple[int, int]]]], dict]:
    """The edge-list blocks printed before the JSON report, and the report."""
    lines = [line for line in out.split("\n") if line.strip()]
    report = json.loads(lines[-1])
    blocks, i = [], 0
    body = lines[:-1]
    while i < len(body):
        n, m = map(int, body[i].split())
        blocks.append((n, [tuple(map(int, line.split())) for line in body[i + 1 : i + 1 + m]]))
        i += 1 + m
    return blocks, report


def _fresh_rank(n: int, pairs, d: int, seed: int) -> int:
    return RigidityOracle(Graph(n, pairs), d, seed, salt=FRESH_SALT).rank(range(len(pairs)))


def _orient(job, rc, out, captured):
    e = job.expect
    if rc != 0:
        return f"exit code {rc}"
    blocks, report = _blocks(out)
    stats = report["stats"]
    if not stats["verified"] or stats["base_sizes"] != [e["base_size"]] * 2:
        return f"report {stats}"
    n, host = _pairs(job.text)
    (dn, arcs), = blocks
    canon = sorted(host)
    if dn != n or sorted((min(a), max(a)) for a in arcs) != canon:
        return "digraph is not an orientation of the input"
    head = {(min(a), max(a)): a[1] for a in arcs}
    if captured is None:
        return "no orientation report captured"
    bases = [[canon[i] for i in base] for base in captured.base_edges]
    if len(bases) != 2 or set(bases[0]) & set(bases[1]):
        return "bases are not two disjoint edge sets"
    d, deficits = e["d"], stats["deficits"]
    if len(deficits) != n or sum(deficits) != d * (d + 1) // 2:
        return f"deficits {deficits}"
    want = [d - w for w in deficits]
    into = [0] * n
    out_of = [0] * n
    for pair in bases[0]:
        into[head[pair]] += 1
    for pair in bases[1]:
        out_of[pair[0] + pair[1] - head[pair]] += 1
    if into != want or out_of != want:
        return "base degrees differ from d - deficit"
    for base in bases:
        if len(base) != e["base_size"] or _fresh_rank(n, base, d, e["seed"]) != e["base_size"]:
            return "a base is not rigid under a fresh realization"
    return None


def _rank(job, rc, out, captured):
    if rc != 0:
        return f"exit code {rc}"
    if out.strip() != str(job.expect["rank"]):
        return f"rank {out.strip()!r}, expected {job.expect['rank']}"
    return None


def _parts(job, rc, out, captured):
    e = job.expect
    if rc != 0:
        return f"exit code {rc}"
    blocks, report = _blocks(out)
    stats = report["stats"]
    if not (stats["feasible"] and stats["verified"]) or stats["sizes"] != e["targets"]:
        return f"report {stats}"
    n, host = _pairs(job.text)
    edges = set(host)
    parts = [set(pairs) for bn, pairs in blocks if bn == n]
    if len(parts) != len(blocks) or [len(p) for p in parts] != e["targets"]:
        return "part sizes differ from the targets"
    if parts[0] & parts[1] or not (parts[0] | parts[1]) <= edges:
        return "parts are not disjoint subsets of the input"
    for i, part in enumerate(parts):
        if i == 0 and job.argv[0] == "kriesell":
            if not independent_d1(Graph(n, part), range(len(part))):
                return "tree part has a cycle"
        elif _fresh_rank(n, sorted(part), e["d"], e["seed"]) != len(part):
            return f"part {i} is not rigid under a fresh realization"
    return None


def _verify(job, rc, out, captured):
    e = job.expect
    report = json.loads(out.rstrip("\n").split("\n")[-1])
    if rc != (0 if e["connected"] else 1) or report["stats"]["connected"] != e["connected"]:
        return f"exit code {rc}, verdict {report['stats']['connected']}"
    certs = report["certificates"]
    if e["connected"]:
        return "certificate on a positive verdict" if certs else None
    target = read_digraph(job.text) if e["digraph"] else read_graph(job.text)
    if len(certs) != 1 or certs[0]["kind"] != ("digraph" if e["digraph"] else "graph"):
        return f"certificates {certs}"
    cert = CutCertificate(certs[0]["kind"], frozenset(certs[0]["separator"]),
                          tuple(certs[0]["pair"]))
    if not certificate_is_valid(target, cert, e["k"]):
        return f"invalid certificate {certs[0]}"
    return None
