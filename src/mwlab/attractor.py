"""Invariant-set computation with certified error bounds.

The invariant list (K_v) of a system is approximated by the path method: every
length-n composable edge sequence w starting at v contributes the point
phi_w(base(r(w))), where base(u) is the center of the seed box at u. Each
cloud then lies within diam * c^n of the true K_v, where diam is the largest
seed-box diagonal and c the system-wide upper contraction bound.

Deduplication snaps points to a grid 1/1024 of that bound wide and keeps
the lexicographically smallest point per cell, so results are independent of
evaluation order; the grid diagonal is folded into the reported certificate.
Depths whose grid cell is too fine for float64 to resolve over the seed boxes
are refused with a ResolutionError before any point is computed.

The sweep keeps one array per vertex and level, filled edge by edge with the
images of the previous level. The last level is built one vertex at a time
and deduplicated at once, so at its peak the sweep holds the previous level,
one vertex's last level and that vertex's dedup temporaries. The budget
check's exact path count travels on the result as paths_total, and the
invariance residual builds its unions with the sweep's level builder.

The dedup needs one stable sort in one dimension and two in two, of the rows
and then of their cells, each row read as one complex number;
_dedup_sorted sets out how.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ResolutionError, SpecValidationError
# cKDTree is geometry's lazy KD-tree builder, unused here; the name stays
# because the benchmark's traced run counts builds by patching it per module
from .geometry import AffineContraction, LabeledPoint, cKDTree, hausdorff_distance
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
        # an infinite diagonal would stretch the nesting check's slack to inf
        if not math.isfinite(math.dist(lo, hi)):
            raise SpecValidationError(
                f"seed box {lo}..{hi} has no finite diameter in float64")
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

    def __len__(self):
        return len(self.points)


@dataclass(eq=False)
class InvariantListApprox:
    """Per-vertex clouds at a common depth with one shared error certificate;
    paths_total is the exact number of depth-n paths the clouds came from."""

    clouds: dict
    depth: int
    error_bound: float
    paths_total: int

    def cloud(self, vertex):
        return self.clouds[vertex]

    def total_points(self):
        return sum(len(c) for c in self.clouds.values())


def total_paths(spec, depth):
    """Exact number of depth-n paths over all start vertices (integer matrix power)."""
    return _paths_up_to(spec, depth, math.inf)


def _paths_up_to(spec, depth, cap):
    """min(number of depth-n paths, cap) by repeated squaring of the vertex
    matrix with every entry cut to at most cap.

    Cutting at cap commutes with sums and products of non-negative integers,
    so the result is exact below cap, and with a finite cap no entry needs
    more than about twice cap's digits, however deep the paths go.
    """
    a = vertex_matrix(spec.graph)
    size = range(a.rows)
    base = [list(a.row(i)) for i in size]
    power = [[int(i == j) for j in size] for i in size]

    def product(x, y):
        return [[min(cap, sum(x[i][k] * y[k][j] for k in size)) for j in size]
                for i in size]

    while depth:
        if depth & 1:
            power = product(power, base)
        depth >>= 1
        if depth:
            base = product(base, base)
    return min(cap, sum(map(sum, power)))


def _point_budget():
    """The budget from the environment, else the default; anything but a
    positive integer is refused with a ValueError."""
    raw = os.environ.get(POINT_BUDGET_ENV)
    if not raw:
        return DEFAULT_POINT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"point budget from {POINT_BUDGET_ENV} must be a "
                         f"positive integer, got {raw!r}")
    return budget


def _dedup_sorted(points, cell):
    """Keep the lexicographically smallest point per grid cell, in lexicographic
    order; points that compare equal (±0.0 included) keep their input order.

    The points have 1 or 2 columns, the only dimensions a spec allows. In one
    dimension one stable sort does it: floor(value / cell) never decreases as
    the value grows, so each grid column is a run of the sorted values and
    its first value is the smallest.

    In two, each float64 row viewed as one complex number is its own sort key,
    since numpy orders complex numbers by real part, then imaginary part, and
    compares ±0.0 as equal. A stable sort of the rows puts the points in
    lexicographic order; their cells floor(row / cell), viewed the same way,
    are then stably sorted, which groups each cell with its points still in
    that order, and the first of each group is the cell's lexicographically
    smallest point.
    """
    n, d = points.shape
    if d == 1:
        order = np.argsort(points[:, 0], kind="stable")
        cols = points[order, 0]
        cols /= cell
        np.floor(cols, out=cols)
        return points[order[_run_starts(cols)]]
    points = np.ascontiguousarray(points)
    order = np.argsort(points.view(complex).ravel(), kind="stable")
    cells = np.take(points, order, axis=0)
    cells /= cell
    np.floor(cells, out=cells)
    cells = cells.view(complex).ravel()
    by_cell = np.argsort(cells, kind="stable")
    # sorted in place, the keys read as cells[by_cell] without a second copy
    cells.sort(kind="stable")
    keep = np.zeros(n, dtype=bool)
    keep[by_cell[_run_starts(cells)]] = True
    # freed first, or gathering the kept rows would set the memory peak
    del cells, by_cell
    return np.take(points, order[keep], axis=0)


def _run_starts(keys):
    """Mask of the entries of a sorted array that differ from the one before
    (the first entry always counts)."""
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


def _certificate(spec, depth):
    """(truncation term diam * c^n, dedup grid cell, error bound) at a depth."""
    base_err = spec.max_diameter * spec.contraction_upper ** depth
    cell = base_err / _DEDUP_DIVISOR
    return base_err, cell, base_err + math.sqrt(spec.dimension) * cell


def invariant_list(spec, depth):
    """Approximate the invariant list at the given depth.

    The reported error bound covers both the path truncation (diam * c^n) and
    the deduplication grid, so every cloud is within error_bound of its true
    component in Hausdorff distance. The budget check counts the paths
    exactly (needed <= budget < cap), and the result carries that count.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    budget = _point_budget()
    # counted no further than one past both int64 and the budget: exact
    # wherever int64 holds it, and a few small products at any depth
    cap = max(budget + 1, 2 ** 63)
    needed = _paths_up_to(spec, depth, cap)
    if needed > budget:
        exact = needed < cap
        raise BudgetExceededError(
            f"depth {depth} needs {needed if exact else f'at least {cap}'} "
            f"paths, exceeding the point budget {budget}; lower the depth or "
            f"raise {POINT_BUDGET_ENV}",
            required=needed if exact else None, budget=budget)

    base_err, cell, error_bound = _certificate(spec, depth)
    # grid columns are float64 quotients value / cell, refused once they may
    # reach 2**62 over the seed boxes; compared without dividing, since cell
    # underflows to 0.0 at large depths
    extent = max(abs(x) for box in spec.seed_boxes.values()
                 for x in box.lo + box.hi)
    if not extent < 2.0 ** 62 * cell:
        raise ResolutionError(
            f"depth {depth}: certificate {base_err!r} is finer than float64 "
            f"grid keys can resolve over coordinates up to {extent!r}; lower "
            f"the depth")

    vertices = spec.graph.vertices
    maps = {v: _out_maps(spec, v) for v in vertices}
    pts = {v: spec.base_point(v)[None, :] for v in vertices}
    for _ in range(depth - 1):
        pts = {v: _next_level(pts, maps[v], spec.dimension) for v in vertices}
    clouds = {v: VertexCloud(vertex=v, points=_dedup_sorted(
                  _next_level(pts, maps[v], spec.dimension), cell))
              for v in vertices}
    return InvariantListApprox(clouds=clouds, depth=depth,
                               error_bound=error_bound, paths_total=needed)


def _out_maps(spec, vertex):
    """(map, range vertex) of each out-edge of a vertex, in edge order."""
    return [(spec.edge_maps[e.id], e.range) for e in spec.graph.out_edges(vertex)]


def _next_level(pts, maps, dimension):
    """One vertex's points one level deeper: the image of each range vertex's
    points under each of its out-edge maps, in edge order, in one array."""
    level = np.empty((sum(len(pts[r]) for _, r in maps), dimension))
    start = 0
    for m, r in maps:
        stop = start + len(pts[r])
        level[start:stop] = m.apply(pts[r])
        start = stop
    return level


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
    path = spec.graph.make_path(path)
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
    path = spec.graph.make_path(path)
    return _apply_along(spec, path, approx.cloud(path.range).points)


def invariance_residual(spec, approx):
    """Per-vertex Hausdorff distance between each cloud and the union of its
    one-step refinements; small residuals certify the invariance equation."""
    pts = {v: approx.cloud(v).points for v in spec.graph.vertices}
    return {v: hausdorff_distance(
                pts[v], _next_level(pts, _out_maps(spec, v), spec.dimension))
            for v in spec.graph.vertices}


def write_point_cloud_csv(spec, approx, path):
    """Write the clouds as CSV, one point per row, lexicographically sorted.

    A leading comment line records the exact pre-deduplication path count so
    the row count remains auditable.
    """
    points_total = approx.total_points()
    header = "vertex," + ",".join(["x", "y"][:spec.dimension])
    lines = [
        f"# name={spec.name or 'unnamed'} depth={approx.depth} "
        f"paths={approx.paths_total} points={points_total} "
        f"deduplicated={approx.paths_total - points_total} "
        f"error_bound={approx.error_bound!r}",
        header,
    ]
    for v in spec.graph.vertices:
        lines.extend(v + "," + ",".join(map(repr, row))
                     for row in approx.cloud(v).points.tolist())
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return approx.paths_total, points_total
