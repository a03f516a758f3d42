"""Directed multigraph structure and path enumeration.

Vertices and edges are referenced by string ids. Edges carry a source and a
range vertex; a path (e_1, ..., e_m) is composable when range(e_i) equals
source(e_{i+1}). Parallel edges and loops are fully supported.
"""

import operator
from dataclasses import dataclass, field

from .ktheory import IntMatrix

__all__ = [
    "Edge",
    "Graph",
    "Path",
    "SinkSourceReport",
    "has_sinks_or_sources",
    "is_irreducible",
    "paths_from",
    "vertex_matrix",
]


@dataclass(frozen=True)
class Edge:
    id: str
    source: str
    range: str


class Graph:
    """Immutable directed multigraph with declaration-ordered vertices/edges."""

    __slots__ = ("vertices", "edges", "_edge_by_id", "_out", "_in", "_vindex")

    def __init__(self, vertices, edges):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        parsed = []
        for e in edges:
            if isinstance(e, Edge):
                parsed.append(e)
            else:
                parsed.append(Edge(str(e[0]), str(e[1]), str(e[2])))
        self.edges = tuple(parsed)
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge ids")
        vset = set(self.vertices)
        for e in self.edges:
            if e.source not in vset:
                raise ValueError(f"edge {e.id}: unknown source vertex {e.source!r}")
            if e.range not in vset:
                raise ValueError(f"edge {e.id}: unknown range vertex {e.range!r}")
        self._edge_by_id = {e.id: e for e in self.edges}
        self._out = {v: tuple(e for e in self.edges if e.source == v)
                     for v in self.vertices}
        self._in = {v: tuple(e for e in self.edges if e.range == v)
                    for v in self.vertices}
        self._vindex = {v: i for i, v in enumerate(self.vertices)}

    def edge(self, edge_id):
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise KeyError(f"unknown edge {edge_id!r}") from None

    def out_edges(self, vertex):
        self._check_vertex(vertex)
        return self._out[vertex]

    def in_edges(self, vertex):
        self._check_vertex(vertex)
        return self._in[vertex]

    def vertex_index(self, vertex):
        self._check_vertex(vertex)
        return self._vindex[vertex]

    def make_path(self, edge_ids):
        """Validate composability and build a Path from edge ids, or from the
        edges of a given Path."""
        ids = tuple(edge_ids.edges if isinstance(edge_ids, Path) else edge_ids)
        if not ids:
            raise ValueError("a path needs at least one edge")
        edges = [self.edge(i) for i in ids]
        for a, b in zip(edges, edges[1:]):
            if a.range != b.source:
                raise ValueError(
                    f"edges {a.id} and {b.id} are not composable "
                    f"(range {a.range!r} != source {b.source!r})")
        return Path(ids, source=edges[0].source, range=edges[-1].range)

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph(vertices={list(self.vertices)!r}, edges={len(self.edges)})"

    def _check_vertex(self, vertex):
        if vertex not in self._vindex:
            raise KeyError(f"unknown vertex {vertex!r}")


@dataclass(frozen=True)
class Path:
    """Composable edge sequence; source/range extend the edge maps."""

    edges: tuple
    source: str
    range: str

    @property
    def length(self):
        return len(self.edges)


@dataclass(frozen=True)
class SinkSourceReport:
    sinks: tuple
    sources: tuple

    @property
    def clean(self):
        return not self.sinks and not self.sources


def has_sinks_or_sources(g):
    """Vertices with no outgoing edge (sinks) or no incoming edge (sources)."""
    sinks = tuple(v for v in g.vertices if not g.out_edges(v))
    sources = tuple(v for v in g.vertices if not g.in_edges(v))
    return SinkSourceReport(sinks=sinks, sources=sources)


def is_irreducible(g):
    """True iff every ordered vertex pair is joined by a path of length >= 1.

    The pair (v, v) requires a genuine cycle through v; reachability is taken
    over at-least-one-edge walks.
    """
    reach = {v: set(e.range for e in g.out_edges(v)) for v in g.vertices}
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            extra = set()
            for w in reach[v]:
                extra |= reach[w]
            if not extra <= reach[v]:
                reach[v] |= extra
                changed = True
    return all(len(reach[v]) == len(g.vertices) for v in g.vertices)


def paths_from(g, vertex, n):
    """All composable edge sequences of length n starting at vertex.

    Deterministic order: lexicographic in edge declaration order. A length
    that is not an integer is refused: no path would ever match it.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"path length must be an integer, got {n!r}") from None
    if n < 1:
        raise ValueError("path length must be >= 1")
    g._check_vertex(vertex)
    out = []
    stack = [(vertex, ())]
    # iterative DFS; children pushed in reverse so declaration order pops first
    while stack:
        at, prefix = stack.pop()
        if len(prefix) == n:
            out.append(Path(prefix, source=vertex, range=at))
            continue
        for e in reversed(g.out_edges(at)):
            stack.append((e.range, prefix + (e.id,)))
    return out


def vertex_matrix(g):
    """Edge-count matrix A(v, w) = #{e : source(e) = v and range(e) = w}."""
    n = len(g.vertices)
    counts = [[0] * n for _ in range(n)]
    for e in g.edges:
        counts[g.vertex_index(e.source)][g.vertex_index(e.range)] += 1
    return IntMatrix(counts)

