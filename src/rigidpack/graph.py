"""Simple graphs, orientations, and their text formats.

Vertices are dense 0-based integers.  Edges are stored canonically: each
pair as (u, v) with u < v, the sequence sorted lexicographically.  Edge
identity throughout the package is positional (the index into ``edges``),
so subgraphs and matroid ground sets are plain sets of edge indices and
every "arbitrary" downstream choice is reproducible.

Text formats:

* graph: header line ``n m`` followed by m lines ``u v`` (0-indexed,
  whitespace separated, any order); content after the m-th edge line is
  ignored so reports can trail an emitted object.
* digraph: same shape, but each line ``u v`` means the arc u -> v.
"""

from __future__ import annotations

import io
from typing import Iterable, Sequence


class GraphFormatError(ValueError):
    """Parse or validation failure, carrying the 1-based input line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj", "_edge_index")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        canon = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        for i in range(1, len(canon)):
            if canon[i] == canon[i - 1]:
                raise ValueError(f"duplicate edge {canon[i]}")
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(canon)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in canon:
            adj[u].append(v)
            adj[v].append(u)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        self._edge_index = {e: i for i, e in enumerate(canon)}

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_index

    def edge_id(self, u: int, v: int) -> int:
        try:
            return self._edge_index[(u, v) if u < v else (v, u)]
        except KeyError:
            raise KeyError(f"no edge ({u}, {v})") from None

    def min_degree(self) -> int:
        return min((len(a) for a in self.adj), default=0)

    def subgraph(self, edge_ids: Iterable[int]) -> "Graph":
        """Spanning subgraph keeping only the given edge indices."""
        return Graph(self.n, [self.edges[i] for i in edge_ids])

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Digraph:
    """An orientation of a parent Graph: one head per parent edge."""

    __slots__ = ("parent", "heads", "_out", "_in")

    def __init__(self, parent: Graph, heads: Sequence[int]):
        if len(heads) != parent.m:
            raise ValueError("need exactly one head per parent edge")
        for i, h in enumerate(heads):
            if h not in parent.edges[i]:
                raise ValueError(f"head {h} is not an endpoint of edge {parent.edges[i]}")
        self.parent = parent
        self.heads: tuple[int, ...] = tuple(heads)
        out: list[list[int]] = [[] for _ in range(parent.n)]
        inn: list[list[int]] = [[] for _ in range(parent.n)]
        for (u, v), h in zip(parent.edges, self.heads):
            t = u if h == v else v
            out[t].append(h)
            inn[h].append(t)
        self._out = tuple(tuple(sorted(a)) for a in out)
        self._in = tuple(tuple(sorted(a)) for a in inn)

    @property
    def n(self) -> int:
        return self.parent.n

    def arcs(self) -> list[tuple[int, int]]:
        """(tail, head) per parent edge, in parent edge order."""
        return [(u if h == v else v, h)
                for (u, v), h in zip(self.parent.edges, self.heads)]

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        return len(self._in[v])

    def has_arc(self, u: int, v: int) -> bool:
        return self.parent.has_edge(u, v) and self.heads[self.parent.edge_id(u, v)] == v

    def reversed(self) -> "Digraph":
        """Same parent, every arc flipped."""
        flipped = [u if h == v else v for (u, v), h in zip(self.parent.edges, self.heads)]
        return Digraph(self.parent, flipped)

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.parent.m})"


def induced_edge_count(graph: Graph, vertices: Iterable[int]) -> int:
    """Number of edges with both endpoints in the given vertex set."""
    xs = set(vertices)
    for v in xs:
        if not 0 <= v < graph.n:
            raise ValueError(f"vertex id {v} out of range")
    if not xs:
        return 0
    return sum(1 for u, v in graph.edges if u in xs and v in xs)


def in_neighbors_of_set(digraph: Digraph, vertices) -> set[int]:
    """Vertices outside the set sending at least one arc into it."""
    xs = set(vertices)
    out = set()
    for x in xs:
        out.update(w for w in digraph.in_neighbors(x) if w not in xs)
    return out


def _parse_header(line: str, line_no: int) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise GraphFormatError("expected header 'n m'", line_no)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError("header fields must be integers", line_no) from None
    if n < 0 or m < 0:
        raise GraphFormatError("header fields must be nonnegative", line_no)
    return n, m


def _parse_pairs(text) -> tuple[int, list[tuple[int, int]]]:
    """Shared reader: n and the pairs (u, v) of exactly m edge lines.

    A loop, or a pair whose edge {u, v} an earlier line named, is an error.
    """
    stream = io.StringIO(text) if isinstance(text, str) else text
    lines = enumerate(stream, start=1)
    header = None
    for line_no, raw in lines:
        if raw.strip():
            header = (line_no, raw.strip())
            break
    if header is None:
        raise GraphFormatError("empty input", 1)
    n, m = _parse_header(header[1], header[0])
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in lines:
        if len(pairs) == m:
            break
        s = raw.strip()
        if not s:
            continue
        parts = s.split()
        if len(parts) != 2:
            raise GraphFormatError("expected 'u v'", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("vertex ids must be integers", line_no) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"vertex id out of range (n={n})", line_no)
        if u == v:
            raise GraphFormatError(f"loop at vertex {u}", line_no)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphFormatError(f"duplicate edge {key}", line_no)
        seen.add(key)
        pairs.append((u, v))
    if len(pairs) < m:
        raise GraphFormatError(f"expected {m} edges, found {len(pairs)}", header[0])
    return n, pairs


def read_graph(text) -> Graph:
    """Parse the edge-list format from a string or text stream."""
    n, pairs = _parse_pairs(text)
    return Graph(n, pairs)


def write_graph(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def read_digraph(text) -> Digraph:
    """Parse a digraph: each line 'u v' is the arc u -> v."""
    n, arcs = _parse_pairs(text)
    parent = Graph(n, arcs)
    heads = [0] * parent.m
    for u, v in arcs:
        heads[parent.edge_id(u, v)] = v
    return Digraph(parent, heads)


def write_digraph(digraph: Digraph) -> str:
    lines = [f"{digraph.n} {digraph.parent.m}"]
    lines.extend(f"{t} {h}" for t, h in digraph.arcs())
    return "\n".join(lines) + "\n"
