"""Invariant-set computation with certified error bounds.

The invariant list (K_v) of a system is approximated by the path method: every
length-n composable edge sequence w starting at v contributes the point
phi_w(base(r(w))), where base(u) is the center of the seed box at u. Each
cloud then lies within diam * c^n of the true K_v, where diam is the largest
seed-box diagonal and c the system-wide upper contraction bound.

Deduplication snaps points to a grid 1/1024 of that bound wide and keeps
the lexicographically smallest point per cell, so results are independent of
evaluation order; the grid diagonal is folded into the reported certificate.
Depths whose grid cell is too fine for int64 grid keys over the seed boxes
are refused with a ResolutionError before any point is computed.

The dedup works on per-axis ranks rather than on coordinate rows. Ranking
each coordinate among its axis's distinct values preserves order, and so does
ranking its grid column, because floor(value / cell) never decreases as the
value grows. One int64 key built from the value ranks therefore sorts points
exactly as comparing coordinates axis by axis would, and one built from the
column ranks names each point's cell. A stable sort by the first key followed
by the first occurrence of each cell key keeps, per cell, the point that
compares smallest (ties, such as 0.0 and -0.0, go to the earlier path).
"""

import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import BudgetExceededError, ResolutionError, SpecValidationError
from .geometry import AffineContraction, LabeledPoint, hausdorff_distance
from .graph import Graph, has_sinks_or_sources, vertex_matrix

__all__ = [
    "SeedBox",
    "MWGraphSpec",
    "VertexCloud",
    "InvariantListApprox",
    "DEFAULT_POINT_BUDGET",
    "POINT_BUDGET_ENV",
    "invariant_list",
    "coding_map_prefix",
    "cylinder_set",
    "invariance_residual",
    "total_paths",
    "write_point_cloud_csv",
]

DEFAULT_POINT_BUDGET = 5_000_000
POINT_BUDGET_ENV = "MWLAB_POINT_BUDGET"

# Grid cell = certified bound / 1024. Any cell at or below bound / 4 keeps the
# certificate honest; this one is fine enough that grid perturbation stays far
# below the inter-depth Hausdorff distances even when edge ratios are mixed,
# while still collapsing coincident points (shared cell corners and the like).
_DEDUP_DIVISOR = 1024


@dataclass(frozen=True)
class SeedBox:
    """Axis-aligned box standing in for the compact carrier of one vertex."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(x) for x in self.lo)
        hi = tuple(float(x) for x in self.hi)
        if len(lo) != len(hi) or not lo:
            raise SpecValidationError("seed box corners must have equal dimension")
        if any(a >= b for a, b in zip(lo, hi)):
            raise SpecValidationError(f"seed box {lo}..{hi} has empty interior")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self):
        return len(self.lo)

    @property
    def diameter(self):
        return math.dist(self.lo, self.hi)

    @property
    def center(self):
        return tuple((a + b) / 2 for a, b in zip(self.lo, self.hi))

    def corners(self):
        d = self.dimension
        out = []
        for mask in range(1 << d):
            out.append([self.hi[i] if mask >> i & 1 else self.lo[i]
                        for i in range(d)])
        return np.array(out, dtype=float)

    def contains(self, points, tol=0.0):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.asarray(self.lo) - tol
        hi = np.asarray(self.hi) + tol
        return bool(np.all(pts >= lo) and np.all(pts <= hi))


class MWGraphSpec:
    """A validated system: graph + seed boxes + one affine contraction per edge.

    Validation enforces the standing assumptions: no sinks or sources, every
    map a genuine contraction, and every edge map sending the seed box of its
    range vertex into the seed box of its source vertex (which keeps the
    iteration bounded and makes the error certificates true bounds).
    """

    def __init__(self, graph, dimension, seed_boxes, edge_maps, open_sets=None,
                 name="", notes="", reference=None, edge_map_params=None):
        self.graph = graph
        self.dimension = int(dimension)
        self.seed_boxes = dict(seed_boxes)
        self.edge_maps = dict(edge_maps)
        self.open_sets = dict(open_sets) if open_sets else None
        self.name = name
        self.notes = notes
        self.reference = reference
        self.edge_map_params = dict(edge_map_params) if edge_map_params else None
        self._validate()

    def _validate(self):
        if self.dimension not in (1, 2):
            raise SpecValidationError(
                f"dimension must be 1 or 2, got {self.dimension}")
        for v in self.graph.vertices:
            if v not in self.seed_boxes:
                raise SpecValidationError(f"missing seed box for vertex {v!r}")
            if self.seed_boxes[v].dimension != self.dimension:
                raise SpecValidationError(
                    f"seed box of {v!r} has wrong dimension")
        report = has_sinks_or_sources(self.graph)
        if not report.clean:
            raise SpecValidationError(
                "graph must have no sinks and no sources; found sinks="
                f"{list(report.sinks)} sources={list(report.sources)}")
        scale = max(b.diameter for b in self.seed_boxes.values())
        tol = 1e-9 * max(1.0, scale)
        for e in self.graph.edges:
            if e.id not in self.edge_maps:
                raise SpecValidationError(f"missing map for edge {e.id!r}")
            m = self.edge_maps[e.id]
            if m.dimension != self.dimension:
                raise SpecValidationError(f"map of edge {e.id!r} has wrong dimension")
            image = m.apply(self.seed_boxes[e.range].corners())
            if not self.seed_boxes[e.source].contains(image, tol=tol):
                raise SpecValidationError(
                    f"edge {e.id!r}: image of seed box of {e.range!r} leaves "
                    f"the seed box of {e.source!r}")

    @property
    def contraction_upper(self):
        return max(m.c_upper for m in self.edge_maps.values())

    @property
    def contraction_lower(self):
        return min(m.c_lower for m in self.edge_maps.values())

    @property
    def max_diameter(self):
        return max(b.diameter for b in self.seed_boxes.values())

    def base_point(self, vertex):
        return np.asarray(self.seed_boxes[vertex].center, dtype=float)

    def __repr__(self):
        return (f"MWGraphSpec(name={self.name!r}, d={self.dimension}, "
                f"|E^0|={len(self.graph.vertices)}, |E^1|={len(self.graph.edges)})")


@dataclass(eq=False)
class VertexCloud:
    """Finite stand-in for one component K_v with a two-sided distance certificate."""

    vertex: str
    points: np.ndarray
    _tree: object = field(default=None, repr=False, compare=False)

    def __len__(self):
        return len(self.points)

    def tree(self):
        if self._tree is None:
            self._tree = cKDTree(self.points)
        return self._tree

    def distance_to(self, point):
        return float(self.tree().query(np.asarray(point, dtype=float))[0])


@dataclass(eq=False)
class InvariantListApprox:
    """Per-vertex clouds at a common depth with one shared error certificate."""

    clouds: dict
    depth: int
    error_bound: float

    def cloud(self, vertex):
        return self.clouds[vertex]

    def total_points(self):
        return sum(len(c) for c in self.clouds.values())


def total_paths(spec, depth):
    """Exact number of depth-n paths over all start vertices (integer matrix power)."""
    a = vertex_matrix(spec.graph) ** depth
    return sum(sum(a.row(i)) for i in range(a.rows))


def _point_budget(explicit):
    """The budget from point_budget=, else from the environment, else the
    default; anything but a positive integer is refused with a ValueError."""
    if explicit is not None:
        raw = explicit
        source = f"point_budget= (which overrides {POINT_BUDGET_ENV})"
    else:
        raw, source = os.environ.get(POINT_BUDGET_ENV), POINT_BUDGET_ENV
        if not raw:
            return DEFAULT_POINT_BUDGET
    try:
        budget = int(raw) if isinstance(raw, str) else operator.index(raw)
    except (TypeError, ValueError):
        budget = None
    if isinstance(raw, bool) or budget is None or budget < 1:
        raise ValueError(
            f"point budget from {source} must be a positive integer, got {raw!r}")
    return budget


def _dedup_sorted(points, cell):
    """Keep the lexicographically smallest point per grid cell, in lexicographic
    order; points that compare equal (±0.0 included) keep their input order.

    Each axis is ranked once: np.unique gives every point the dense rank of its
    coordinate among the column's distinct values, and since floor(value / cell)
    is monotone in the value, a running count of its changes over those sorted
    distinct values gives the dense rank of the grid column. Mixed-radix
    combinations of the per-axis ranks are two int64 keys, one ordering points
    exactly as a lexicographic sort of their coordinates and one naming their
    cell; the first point of each cell in a stable sort by the value key is the
    cell's lexicographically smallest.
    """
    n, d = points.shape
    value_key = np.zeros(n, dtype=np.int64)
    cell_key = np.zeros(n, dtype=np.int64)
    span = 1
    for axis in range(d):
        values, rank = np.unique(points[:, axis], return_inverse=True)
        # both keys stay below the product of the distinct-value counts
        span *= len(values)
        if span > 2 ** 63:
            raise ResolutionError(
                f"{n} points in {d} dimensions overflow int64 dedup keys")
        cols = np.floor(values / cell)
        col_rank = np.zeros(len(values), dtype=np.int64)
        np.cumsum(cols[1:] != cols[:-1], out=col_rank[1:])
        # each del frees a cloud-sized array before the next one is made
        del values, cols
        value_key *= len(col_rank)
        value_key += rank
        cell_key *= int(col_rank[-1]) + 1 if n else 1
        cell_key += col_rank[rank]
        del rank, col_rank
    order = np.argsort(value_key, kind="stable")
    del value_key
    _, first = np.unique(cell_key[order], return_index=True)
    del cell_key
    keep = np.zeros(n, dtype=bool)
    keep[first] = True
    return points[order[keep]]


def _certificate(spec, depth):
    """(truncation term diam * c^n, dedup grid cell, error bound) at a depth."""
    base_err = spec.max_diameter * spec.contraction_upper ** depth
    cell = base_err / _DEDUP_DIVISOR
    return base_err, cell, base_err + math.sqrt(spec.dimension) * cell


def invariant_list(spec, depth, point_budget=None):
    """Approximate the invariant list at the given depth.

    The reported error bound covers both the path truncation (diam * c^n) and
    the deduplication grid, so every cloud is within error_bound of its true
    component in Hausdorff distance.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    budget = _point_budget(point_budget)
    needed = total_paths(spec, depth)
    if needed > budget:
        raise BudgetExceededError(
            f"depth {depth} needs {needed} paths, exceeding the point budget "
            f"{budget}; lower the depth or raise {POINT_BUDGET_ENV}",
            required=needed, budget=budget)

    base_err, cell, error_bound = _certificate(spec, depth)
    # grid keys are int64: every |coordinate| / cell must stay below 2**62;
    # compared without dividing, since cell underflows to 0.0 at large depths
    extent = max(abs(x) for box in spec.seed_boxes.values()
                 for x in box.lo + box.hi)
    if not extent < 2.0 ** 62 * cell:
        raise ResolutionError(
            f"depth {depth}: certificate {base_err!r} is finer than float64 "
            f"grid keys can resolve over coordinates up to {extent!r}; lower "
            f"the depth")

    pts = {v: spec.base_point(v)[None, :] for v in spec.graph.vertices}
    for _ in range(depth):
        gathered = {v: [] for v in spec.graph.vertices}
        for e in spec.graph.edges:
            gathered[e.source].append(spec.edge_maps[e.id].apply(pts[e.range]))
        pts = {v: (np.vstack(chunks) if chunks else np.empty((0, spec.dimension)))
               for v, chunks in gathered.items()}

    clouds = {v: VertexCloud(vertex=v, points=_dedup_sorted(pts[v], cell))
              for v in spec.graph.vertices}
    return InvariantListApprox(clouds=clouds, depth=depth, error_bound=error_bound)


def _apply_along(spec, path, points):
    """Apply the maps of a path innermost-first, matching the cloud sweep's
    floating-point evaluation order exactly."""
    for eid in reversed(path.edges):
        points = spec.edge_maps[eid].apply(points)
    return points


def coding_map_prefix(spec, path, base=None):
    """Image of a base point under the composition along a finite path.

    Any infinite extension of the path codes a point within diam * c^n of the
    returned one. The base defaults to the seed-box center of range(path) and
    must lie inside that seed box.
    """
    path = spec.graph.make_path(path.edges if hasattr(path, "edges") else path)
    if base is None:
        base = spec.base_point(path.range)
    base = np.asarray(base, dtype=float)
    box = spec.seed_boxes[path.range]
    if not box.contains(base, tol=1e-9 * max(1.0, box.diameter)):
        raise ValueError(
            f"base point {base.tolist()} lies outside the seed box of {path.range!r}")
    value = _apply_along(spec, path, base[None, :])[0]
    return LabeledPoint(vertex=path.source, coords=value)


def cylinder_set(spec, path, approx):
    """Image of the cloud at range(path) under the path composition."""
    path = spec.graph.make_path(path.edges if hasattr(path, "edges") else path)
    return _apply_along(spec, path, approx.cloud(path.range).points)


def invariance_residual(spec, approx):
    """Per-vertex Hausdorff distance between each cloud and the union of its
    one-step refinements; small residuals certify the invariance equation."""
    out = {}
    for v in spec.graph.vertices:
        images = [spec.edge_maps[e.id].apply(approx.cloud(e.range).points)
                  for e in spec.graph.out_edges(v)]
        union = np.vstack(images)
        out[v] = hausdorff_distance(approx.cloud(v).points, union)
    return out


def write_point_cloud_csv(spec, approx, path):
    """Write the clouds as CSV, one point per row, lexicographically sorted.

    A leading comment line records the exact pre-deduplication path count so
    the row count remains auditable.
    """
    paths_total = total_paths(spec, approx.depth)
    points_total = approx.total_points()
    header = "vertex," + ",".join(["x", "y"][:spec.dimension])
    lines = [
        f"# name={spec.name or 'unnamed'} depth={approx.depth} "
        f"paths={paths_total} points={points_total} "
        f"deduplicated={paths_total - points_total} "
        f"error_bound={approx.error_bound!r}",
        header,
    ]
    for v in spec.graph.vertices:
        for row in approx.cloud(v).points:
            lines.append(v + "," + ",".join(repr(float(x)) for x in row))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return paths_total, points_total
