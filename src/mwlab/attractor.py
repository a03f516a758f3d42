"""Invariant-set computation with certified error bounds.

The invariant list (K_v) is approximated on a Moran cut set. Let eps be the
largest product of the edges' c_upper over the depth-n paths (c^n when every
edge has the same bound). A word w from v is cut at its first prefix whose
product is at most eps, and contributes the point phi_w(base(r(w))), where
base(u) is the center of the seed box at u. The cut cylinders
phi_w(K_r(w)) cover K_v, each of diameter at most eps * diam <= c^n * diam,
where diam is the largest seed-box diagonal and c the system-wide upper
contraction bound; so each cloud lies within diam * c^n of the true K_v.
Each cut is decided exactly: a product is compared with eps by logarithms
only where rounding cannot change the answer, and in integers otherwise.
When every edge has the same bound the cut set is exactly the depth-n
paths.

Deduplication snaps points to a grid 1/1024 of that bound wide and keeps
the lexicographically smallest point per cell, so results are independent of
evaluation order; the grid diagonal is folded into the reported certificate.
Depths whose grid cell is too fine for float64 to resolve over the seed boxes
are refused with a ResolutionError before any point is computed.

The sweep builds words inside out, the new letter outermost, and holds each
level's rows per vertex in blocks of one class (_CutClasses): rows whose
extensions meet the same cut decisions. Each image is written straight into
its level, one matmul per run of blocks an edge maps. A level whose rows are
all extended into cut words, and are none themselves, is not built: the
next level maps it run by run through one scratch block. Where the cut set
is the depth-n paths, the blocks are the per-vertex levels, level n-1 is the
one not built, and at its peak the sweep holds level n-2, one vertex's last
level, the scratch block and that vertex's dedup temporaries. The budget
still counts the depth-n paths, an upper bound on the cut set; that exact
count travels on the result as paths_total.

The passes over finished clouds go one row block at a time (_row_blocks):
the invariance residual maps each union of one-step images block by block
into one buffer, with the rows the level builder would give, and queries
each block against one KD-tree, building a union whole only where a tree is
built on it; the branch scan, the CSV writer and the renderer take the
same blocks.

The dedup sorts a vertex's cut rows in place, each 2-D row read as one
complex number, then finds the first point of each grid cell one slab of
rows at a time, and copies the rows only when it drops a point. Its only
cloud-sized temporaries are numpy's sort buffer and a mask of one byte per
row; _dedup_sorted sets out how.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ResolutionError, SpecValidationError
# cKDTree is geometry's lazy KD-tree builder, unused here; the name stays
# because the benchmark's traced run counts builds by patching it per module
from .geometry import AffineContraction, LabeledPoint, _blocked_hausdorff, \
    cKDTree
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

# Rows per slab of the dedup's scan, before a 2-D slab is stretched to the end
# of its last grid column: enough rows that numpy's per-call cost is small,
# few enough that a slab's temporaries are small beside the cloud.
_SLAB_ROWS = 1 << 14

# Rows per block of the passes over a finished cloud (_row_blocks): the
# residual's images, the branch scan, the CSV text and the PNG splats. Each
# residual block is one threaded KD-tree query, which costs enough per call
# that blocks of _SLAB_ROWS rows were slower; blocks of this size were not.
_BLOCK_ROWS = 1 << 16


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
        # every bound below is a max or min over the vertices or edges
        if not self.graph.vertices:
            raise SpecValidationError("a system needs at least one vertex",
                                      field="vertices")
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
    """Per-vertex clouds at a common depth with one shared error certificate.

    The clouds come from the depth's cut set; paths_total is the exact number
    of depth-n paths (the row sums of A^n), which the point budget is checked
    against and which bounds the cut set from above."""

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

    The points have 1 or 2 columns, the only dimensions a spec allows. A
    C-contiguous argument is sorted in place, and returned itself when no
    point is dropped; any other argument is copied first and left as it is.
    The sort is stable and by value: each 2-D row viewed as one complex
    number is its own key, since numpy orders complex numbers by real part,
    then imaginary part, and compares ±0.0 as equal. That is the sequence a
    stable argsort would gather, without the index array or the gathered copy.

    The sorted rows are then scanned one slab of rows at a time, so the only
    cloud-sized temporary is the mask of rows kept. In one dimension
    floor(value / cell) never decreases as the value grows, so each grid
    column is a run of the sorted values and its first value is the
    smallest. In two, the grid columns floor(x / cell) never decrease either,
    so no cell spans two columns, and each slab is stretched to the end of
    its last column: a stable argsort of the slab's cells floor(row / cell),
    viewed as complex numbers, groups each cell with its points still in
    lexicographic order, and the first of each group is the cell's smallest
    point. The groups' starts are read from the keys gathered in that order,
    a copy the size of one slab, not from a second sort.
    """
    points = np.ascontiguousarray(points)
    n, d = points.shape
    (points.view(complex) if d == 2 else points).ravel().sort(kind="stable")
    x = points[:, 0]
    keep = np.zeros(n, dtype=bool)
    keep[:1] = True
    start = 0
    while start < n:
        stop = min(start + _SLAB_ROWS, n)
        if d == 1:
            # from the row before the slab on, so that the slab's first row
            # is compared with the last row of the slab before it
            lo = max(start - 1, 0)
            cols = _grid(x[lo:stop], cell)
            np.not_equal(cols[1:], cols[:-1], out=keep[lo + 1:stop])
        else:
            stop = _column_end(x, stop, cell)
            cells = _grid(points[start:stop], cell).view(complex).ravel()
            by_cell = np.argsort(cells, kind="stable")
            keep[start + by_cell[_run_starts(cells[by_cell])]] = True
        start = stop
    return points if keep.all() else points[keep]


def _grid(values, cell):
    """floor(values / cell), in a new array."""
    out = values / cell
    return np.floor(out, out=out)


def _column_end(x, stop, cell):
    """Where the grid column of x[stop - 1] ends in the sorted values x,
    looked for one slab of rows at a time."""
    last = np.floor(x[stop - 1] / cell)
    while stop < len(x):
        ahead = _grid(x[stop:stop + _SLAB_ROWS], cell)
        found = int(np.searchsorted(ahead, last, side="right"))
        stop += found
        if found < len(ahead):
            break
    return stop


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
    """Approximate the invariant list at the given depth, on the cut set at
    eps, the largest product over the depth-n paths.

    The reported error bound covers both the truncation (diam * c^n, at
    least diam * eps) and the deduplication grid, so every cloud is within
    error_bound of its true component in Hausdorff distance. The budget
    check counts the depth-n paths exactly (needed <= budget < cap), an
    upper bound on the cut set, and the result carries that count.
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

    return InvariantListApprox(clouds=_cut_set_clouds(spec, depth, cell),
                               depth=depth, error_bound=error_bound,
                               paths_total=needed)


def _out_maps(spec, vertex):
    """(map, edge id, range vertex) of each out-edge of a vertex, in edge
    order."""
    return [(spec.edge_maps[e.id], e.id, e.range)
            for e in spec.graph.out_edges(vertex)]


_DROP = -1  # the class of a row no extension of which is a cut word


class _CutClasses:
    """The class table of one cut-set sweep, built as the sweep asks for
    classes.

    eps is the largest product of the edges' c_upper over the depth-n paths.
    A row at vertex v stands for a word w = P.i, where i is the innermost
    letter (the map applied first) and P the rest. Its state is (v, the
    number of letters of P of each distinct bound, the bound of i). The word
    is a cut word when prod(P) > eps >= prod(P) * c_i. For each edge e into
    v the sweep makes the row e.w at the source of e; once prod(e.P) <= eps
    no extension of e.w is a cut word, and that row is dropped. Two states
    are of one class when they meet the same decisions: whether they are cut
    words, and the class of each extension. So each class is one row block
    of the sweep, and a system whose cut words all have length n has one
    class per vertex and level.

    A product is compared with eps by its logarithm where the two differ by
    more than the logarithms' rounding can, and otherwise exactly, in
    integers: each bound is a / 2**k with integer a and k.
    """

    def __init__(self, spec, depth):
        bounds = sorted({m.c_upper for m in spec.edge_maps.values()})
        slot = {x: i for i, x in enumerate(bounds)}
        self._exact = [(a, b.bit_length() - 1)
                       for a, b in (x.as_integer_ratio() for x in bounds)]
        self._logs = [math.log(x) if x else -math.inf for x in bounds]
        self.into = {v: [(e.id, e.source, slot[spec.edge_maps[e.id].c_upper])
                         for e in spec.graph.in_edges(v)]
                     for v in spec.graph.vertices}
        self._eps = self._largest_product(depth)
        a, k = self._eps
        self._log_eps = math.log(a) - k * math.log(2) if a else -math.inf
        # each logarithm is rounded once and each sum of up to n of them once
        # per term: far less than this on any product near eps
        self._slack = 2.0 ** -40 * (depth + 1) * (1 + abs(self._log_eps))
        self._none = (0,) * len(bounds)
        self.emits = []     # per class: its rows are cut words
        self.child = []     # per class: the class of each extension, in
                            # the order of the edges into its vertex
        self.position = {eid: i for edges in self.into.values()
                         for i, (eid, _, _) in enumerate(edges)}
        self.extends = []   # per class: some extension is not dropped
        self.defers = []    # per class: no cut word, every extension is
        self._ids = {}
        self._of_state = {}

    def _largest_product(self, depth):
        """The largest product over the depth-n paths, as (a, k) with value
        a / 2**k: a max-times power of the bounds, one letter per step."""
        best = dict.fromkeys(self.into, (1, 0))
        for _ in range(depth):
            step = {}
            for v, edges in self.into.items():
                a, k = best[v]
                for _, source, i in edges:
                    na, nk = self._exact[i]
                    x = a * na, k + nk
                    old = step.get(source)
                    if old is None or old[0] << x[1] < x[0] << old[1]:
                        step[source] = x
            best = step
        top = (0, 0)
        for x in best.values():
            if top[0] << x[1] < x[0] << top[1]:
                top = x
        return top

    def _at_most_eps(self, counts, log, extra=None):
        """Whether the product of counts[i] letters of bound i, one more of
        bound `extra` if given, is at most eps; log is its logarithm."""
        gap = log - self._log_eps
        if gap < -self._slack:
            return True
        if gap > self._slack:
            return False
        a, k = 1, 0
        for i, c in enumerate(counts):
            c += i == extra
            if c:
                na, nk = self._exact[i]
                a, k = a * na ** c, k + nk * c
        ea, ek = self._eps
        return a << ek <= ea << k

    def base(self, vertex):
        """The class of a vertex's base point: its extension along an edge e
        is the one-letter word e."""
        return self._add(None, False, tuple(
            self._classify((source, self._none, i))
            for _, source, i in self.into[vertex]))

    def _add(self, key, emits, child):
        if key in self._ids:
            return self._ids[key]
        k = len(self.emits)
        if key is not None:
            self._ids[key] = k
        self.emits.append(emits)
        self.child.append(child)
        self.extends.append(any(c != _DROP for c in child))
        self.defers.append(not emits and all(
            c != _DROP and self.emits[c] and not self.extends[c]
            for c in child))
        return k

    def _classify(self, state):
        """The class of a state, with those of all its extensions: a
        depth-first walk kept on a stack of its own, since a chain of
        extensions is up to n long. Each entry carries log prod(P)."""
        known, into, logs = self._of_state, self.into, self._logs
        stack = [(state, 0.0, None)]
        while stack:
            s, log, kids = stack.pop()
            if s in known:
                continue
            v, counts, t = s
            if kids is None:
                # each extension e.w, or None once prod(e.P) <= eps
                kids = []
                for _, source, i in into[v]:
                    more = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
                    kids.append((None if self._at_most_eps(
                        more, log + logs[i]) else (source, more, t),
                        log + logs[i]))
                stack.append((s, log, kids))
                stack.extend((c, x, None) for c, x in kids
                             if c is not None and c not in known)
                continue
            child = tuple(_DROP if c is None else known[c] for c, _ in kids)
            emits = self._at_most_eps(counts, log + logs[t], extra=t)
            known[s] = self._add((v, emits, child), emits, child)
        return known[state]


def _cut_set_clouds(spec, depth, cell):
    """Deduplicated clouds of the cut set at depth n, one per vertex.

    Level j holds, per vertex, the rows of the j-letter words some extension
    of which may be a cut word, in blocks of one class: (class, start, stop)
    row ranges. The next level maps, for each edge e out of a vertex, the
    runs of blocks of the range vertex that e does not drop, one matmul per
    run. A level whose blocks are no cut words and extend only into cut
    words is not built: the next level maps it run by run through a scratch
    block. A vertex's cut rows are collected from each level they come up
    at, and deduplicated once no block extends.
    """
    classes = _CutClasses(spec, depth)
    vertices = spec.graph.vertices
    out = {v: _out_maps(spec, v) for v in vertices}
    points = {v: spec.base_point(v)[None, :] for v in vertices}
    blocks = {v: [(classes.base(v), 0, 1)] for v in vertices}
    cut_rows = {v: [] for v in vertices}
    clouds = {}
    while True:
        plans = {v: _plan(blocks, out[v], classes) for v in vertices}
        last = not any(classes.extends[k] for plan, _ in plans.values()
                       for k, _, _ in plan)
        built, blocks = {}, {}
        for v in vertices:
            plan, runs = plans[v]
            blocks[v] = []
            steps = [(m, points[q] if isinstance(points[q], list)
                      else points[q][a:b]) for m, q, a, b in runs]
            if not last and plan and all(classes.defers[k] for k, _, _ in plan):
                built[v], blocks[v] = steps, plan
                continue
            level = _level(steps, spec.dimension)
            extends = any(classes.extends[k] for k, _, _ in plan)
            cut = [(a, b) for k, a, b in plan if classes.emits[k]]
            if cut and len(cut) == len(plan) and not extends:
                cut_rows[v].append(level)
            elif cut:
                cut_rows[v].append(np.concatenate([level[a:b] for a, b in cut]))
            if last:
                rows = cut_rows.pop(v)
                clouds[v] = VertexCloud(vertex=v, points=_dedup_sorted(
                    rows[0] if len(rows) == 1 else np.concatenate(rows), cell))
                # the rows the dedup dropped go before the next vertex's level
                del level, rows
            elif extends:
                built[v], blocks[v] = _grouped(level, plan)
        if last:
            return clouds
        points = built


def _plan(blocks, out, classes):
    """One vertex's next level, worked out before any point is mapped: its
    blocks (class, start, stop), neighbours of one class joined, and the runs
    (map, range vertex, start, stop) of range-vertex rows it maps, in order."""
    plan, runs = [], []
    row = 0
    for m, eid, q in out:
        first, i = len(runs), classes.position[eid]
        for k, a, b in blocks[q]:
            k = classes.child[k][i]
            if k == _DROP:
                continue
            if len(runs) > first and runs[-1][3] == a:
                runs[-1] = (m, q, runs[-1][2], b)
            else:
                runs.append((m, q, a, b))
            if plan and plan[-1][0] == k:
                plan[-1] = (k, plan[-1][1], row + b - a)
            else:
                plan.append((k, row, row + b - a))
            row += b - a
    return plan, runs


def _grouped(level, plan):
    """The level with the blocks of each class made one, in order of first
    appearance; the level itself when they already are."""
    starts = {}
    for k, a, b in plan:
        starts.setdefault(k, []).append((a, b))
    if len(starts) == len(plan):
        return level, plan
    grouped, row = [], 0
    for k, spans in starts.items():
        size = sum(b - a for a, b in spans)
        grouped.append((k, row, row + size))
        row += size
    return np.concatenate([level[a:b] for spans in starts.values()
                           for a, b in spans]), grouped


def _level(steps, dimension):
    """One vertex's level: the image of each (map, points) step in order, in
    one array. The points of a step may be a level that was not built,
    given as its own steps: that level is mapped run by run (see _runs)
    through one scratch block sized to the largest run, with the rows and
    float operations building it first would give."""
    runs = [(m, run) for m, points in steps for run in
            (_runs(points) if isinstance(points, list) else [points])]
    sizes = [_rows(run) if isinstance(run, list) else len(run)
             for _, run in runs]
    level = np.empty((sum(sizes), dimension))
    deferred = [size for (_, run), size in zip(runs, sizes)
                if isinstance(run, list)]
    scratch = np.empty((max(deferred), dimension)) if deferred else None
    start = 0
    for m, run in runs:
        if isinstance(run, list):
            run = scratch[:_images_into(run, scratch)]
        start = _apply_into(m, run, level, start)
    return level


def _runs(steps):
    """The steps of a level that was not built, grouped into the runs that
    _level maps on at once: each step on its own, unless one has a single
    row. numpy maps one row by a matrix-vector product and several by a
    matrix-matrix product, which round differently, so such a level is then
    mapped whole, as a map applied to the built level would map it.
    """
    if any(len(points) == 1 for _, points in steps):
        return [steps]
    return [[step] for step in steps]


def _row_blocks(n):
    """(start, stop) of each block of a pass over n rows: _BLOCK_ROWS rows
    each, the last one the rest. No block is a single row unless n is 1: a
    remainder of one row joins the block before it. numpy maps a lone row by
    a matrix-vector product (see _runs), so only then does mapping the
    blocks one by one give the rows that mapping all n at once does."""
    stops = list(range(_BLOCK_ROWS, n, _BLOCK_ROWS))
    if stops and n - stops[-1] == 1:
        stops.pop()
    return list(zip([0] + stops, stops + [n]))


def _image_blocks(steps, dimension):
    """The images of the points of (map, points) steps, in order, in blocks
    of at most _BLOCK_ROWS + 1 rows, each written into one reusable buffer
    and valid until the next is asked for. Each step is mapped one of its
    _row_blocks at a time, as many of them to a block as fit, so the blocks
    hold bit for bit the rows _level builds of the steps."""
    buffer = np.empty((min(_rows(steps), _BLOCK_ROWS + 1), dimension))
    fill = 0
    for m, points in steps:
        for a, b in _row_blocks(len(points)):
            if fill + b - a > len(buffer):
                yield buffer[:fill]
                fill = 0
            fill = _apply_into(m, points[a:b], buffer, fill)
    yield buffer[:fill]


def _rows(steps):
    """Rows of the images of the points of (map, points) steps."""
    return sum(len(points) for _, points in steps)


def _images_into(steps, out):
    """Write the image of the points of each (map, points) step into out,
    one after another from its first row; return the rows written."""
    start = 0
    for m, points in steps:
        start = _apply_into(m, points, out, start)
    return start


def _apply_into(m, points, out, start):
    """Write m's image of points into out from row start, with the arithmetic
    of m.apply (points @ M.T, then + t); return the row after the last."""
    stop = start + len(points)
    block = out[start:stop]
    np.matmul(points, m.matrix.T, out=block)
    block += m.translation
    return stop


def _apply_along(spec, path, points):
    """Apply the maps of a path innermost-first, the order in which the sweep
    composes them. Several rows are multiplied matrix by matrix, as the sweep
    maps its levels, so on a system of one ratio ``cylinder_set`` of a
    one-edge path on the depth n-1 clouds gives rows of the depth-n cloud
    bit for bit. A single row, as in
    ``coding_map_prefix``, is multiplied matrix by vector, which rounds
    differently: for penrose at depth 6, 257 of the 610 prefix points differ
    from their cloud rows, by at most 4.5e-16 in a coordinate."""
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
    one-step refinements; small residuals certify the invariance equation.

    The union is mapped and queried one row block at a time
    (_image_blocks), and built whole by _level only where a KD-tree is built
    on it: when it has fewer rows than the cloud, or for the second tree."""
    pts = {v: approx.cloud(v).points for v in spec.graph.vertices}
    residuals = {}
    for v in spec.graph.vertices:
        steps = [(m, pts[r]) for m, _, r in _out_maps(spec, v)]
        residuals[v] = _blocked_hausdorff(
            pts[v], _rows(steps), _image_blocks(steps, spec.dimension),
            lambda steps=steps: _level(steps, spec.dimension))
    return residuals


def write_point_cloud_csv(spec, approx, path):
    """Write the clouds as CSV, one point per row, lexicographically sorted.

    A leading comment line records the exact depth-n path count (paths=),
    the points written, and their difference (deduplicated=): the cut words
    merged by the dedup, and on a system of mixed ratios also the paths the
    cut set does not need.
    """
    points_total = approx.total_points()
    header = "vertex," + ",".join(["x", "y"][:spec.dimension])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# name={spec.name or 'unnamed'} depth={approx.depth} "
                 f"paths={approx.paths_total} points={points_total} "
                 f"deduplicated={approx.paths_total - points_total} "
                 f"error_bound={approx.error_bound!r}\n{header}\n")
        for v in spec.graph.vertices:
            points = approx.cloud(v).points
            for a, b in _row_blocks(len(points)):
                # one Python float per coordinate, taken d at a time
                values = map(repr, points[a:b].ravel().tolist())
                fh.writelines(v + "," + ",".join(row) + "\n"
                              for row in zip(*[values] * spec.dimension))
    return approx.paths_total, points_total
