"""Metric substrate: affine contractions with certified singular-value bounds,
labeled points, Hausdorff distance between finite point clouds, and convex
polygons and intervals for open-set candidates. Their cover test (convex
subtraction for polygons) and disjointness test (separating axes) decide up
to float tolerances; they are not proofs.

Ambient spaces are Euclidean R^d with d in {1, 2}. Points belonging to
different vertex components never interact metrically; the vertex label keeps
the components disjoint regardless of coordinates.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

__all__ = [
    "LabeledPoint",
    "AffineContraction",
    "ConvexPolygon",
    "Interval",
    "contraction_bounds",
    "similarity_from_params",
    "similarity_from_pairs",
    "hausdorff_distance",
    "polygons_disjoint",
    "polygon_in_union",
    "intervals_disjoint",
    "interval_in_union",
]


@dataclass(frozen=True, slots=True)
class LabeledPoint:
    """A point together with the id of the vertex component it belongs to.

    The constructor turns coords into a tuple of Python floats.
    """

    vertex: str
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(map(float, self.coords)))

    def array(self):
        return np.asarray(self.coords, dtype=float)


def _setstate(point, state):
    # pickles written before the class had slots hold its __dict__; later ones
    # hold the field values in order, from the __getstate__ dataclasses adds
    if isinstance(state, dict):
        state = (state["vertex"], state["coords"])
    vertex, coords = state
    object.__setattr__(point, "vertex", vertex)
    object.__setattr__(point, "coords", coords)


# assigned after the class statement: on Python 3.10 to 3.11.3,
# dataclass(slots=True) replaces a __setstate__ defined in the class body
LabeledPoint.__setstate__ = _setstate


def _labeled(vertex, coords):
    """A LabeledPoint from coords that are already a tuple of Python floats.

    Skips the constructor's coercion, so it is only for tuples made by
    ndarray.tolist() on float arrays or by AffineContraction.apply_coords;
    anything else would break the guarantee that coords is a tuple of
    Python floats.
    """
    point = object.__new__(LabeledPoint)
    LabeledPoint.vertex.__set__(point, vertex)
    LabeledPoint.coords.__set__(point, coords)
    return point


def contraction_bounds(matrix):
    """(sigma_min, sigma_max) of a matrix, via eigenvalues of M^T M.

    Raises GeometryError for a singular matrix: a zero lower bound breaks the
    two-sided contraction inequality every edge map must satisfy.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GeometryError(f"expected a square matrix, got shape {m.shape}")
    eigs = np.linalg.eigvalsh(m.T @ m)
    eigs = np.clip(eigs, 0.0, None)
    lo, hi = math.sqrt(float(eigs[0])), math.sqrt(float(eigs[-1]))
    if lo <= 0.0:
        raise GeometryError("singular matrix: lower contraction bound would be 0")
    return lo, hi


class AffineContraction:
    """x -> M x + t with certified bounds c_lower <= |Mx - My|/|x - y| <= c_upper.

    For affine maps the bounds are the extreme singular values of M, so they
    are exact rather than estimates. Construction requires c_upper < 1.
    """

    __slots__ = ("matrix", "translation", "c_lower", "c_upper", "_rows", "_shift")

    def __init__(self, matrix, translation):
        m = np.array(matrix, dtype=float)
        t = np.array(translation, dtype=float).reshape(-1)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GeometryError(f"matrix must be square, got shape {m.shape}")
        if m.shape[0] != t.shape[0]:
            raise GeometryError("matrix and translation dimensions differ")
        lo, hi = contraction_bounds(m)
        if hi >= 1.0:
            raise GeometryError(f"not a contraction: upper bound {hi} >= 1")
        m.flags.writeable = False
        t.flags.writeable = False
        self.matrix = m
        self.translation = t
        self.c_lower = lo
        self.c_upper = hi
        self._rows = tuple(tuple(row) for row in m.tolist())
        self._shift = tuple(t.tolist())

    @property
    def dimension(self):
        return self.matrix.shape[0]

    def apply(self, x):
        """Apply to a single point (d,) or to a stack of points (N, d)."""
        a = np.asarray(x, dtype=float)
        if a.ndim == 1:
            return self.matrix @ a + self.translation
        return a @ self.matrix.T + self.translation

    def apply_coords(self, x):
        """Apply to one point given as a tuple of floats; returns a tuple.

        Plain float arithmetic, for callers that map points one at a time.
        A point of another dimension raises ValueError, as in apply.
        """
        rows, t = self._rows, self._shift
        if len(t) == 2:  # the plane, written out: same sums as the loop below
            (a, b), (c, d) = rows
            x0, x1 = x
            return (a * x0 + b * x1 + t[0], c * x0 + d * x1 + t[1])
        return tuple(sum(m * c for m, c in zip(row, x, strict=True)) + s
                     for row, s in zip(rows, t))

    def compose(self, other):
        """self after other: (self.compose(other))(x) = self(other(x))."""
        return AffineContraction(
            self.matrix @ other.matrix,
            self.matrix @ other.translation + self.translation)

    def __repr__(self):
        return (f"AffineContraction(dim={self.dimension}, "
                f"c=[{self.c_lower:.6g}, {self.c_upper:.6g}])")


def _rotation(degrees):
    th = math.radians(degrees)
    return np.array([[math.cos(th), -math.sin(th)],
                     [math.sin(th), math.cos(th)]])


def similarity_from_params(ratio, rotation_deg, fixed_point, reflect=False):
    """Plane similarity from ratio, rotation and fixed point.

    The optional reflection (across the x-axis) is applied before the
    rotation. Both contraction bounds equal the ratio.
    """
    if not 0.0 < ratio < 1.0:
        raise GeometryError(f"similarity ratio must lie in (0, 1), got {ratio}")
    m = ratio * _rotation(rotation_deg)
    if reflect:
        m = m @ np.diag([1.0, -1.0])
    fp = np.asarray(fixed_point, dtype=float)
    if fp.shape != (2,):
        raise GeometryError("fixed point must be a 2-vector")
    return AffineContraction(m, fp - m @ fp)


def similarity_from_pairs(p1, q1, p2, q2, reflect=False):
    """The unique plane similarity sending p1 -> q1 and p2 -> q2.

    Orientation-preserving by default; with reflect=True the unique
    orientation-reversing one. The implied ratio must lie in (0, 1).
    """
    p1c, p2c = complex(*p1), complex(*p2)
    q1c, q2c = complex(*q1), complex(*q2)
    if p1c == p2c:
        raise GeometryError("source points of a similarity must be distinct")
    if not reflect:
        a = (q2c - q1c) / (p2c - p1c)
        t = q1c - a * p1c
        m = np.array([[a.real, -a.imag], [a.imag, a.real]])
    else:
        a = (q2c - q1c) / (p2c - p1c).conjugate()
        t = q1c - a * p1c.conjugate()
        m = np.array([[a.real, a.imag], [a.imag, -a.real]])
    ratio = abs(a)
    if ratio >= 1.0:
        raise GeometryError(f"implied ratio {ratio} is not a contraction")
    if ratio == 0.0:
        raise GeometryError("target points coincide; the map would be singular")
    return AffineContraction(m, [t.real, t.imag])


def cKDTree(data, *args, **kwargs):  # noqa: N802  stands in for the class
    """scipy.spatial.cKDTree(data, ...), importing scipy.spatial on first call.

    Only KD-tree builds need scipy, so runs that build none never load it.
    """
    from scipy.spatial import cKDTree as build
    return build(data, *args, **kwargs)


def _exact_tree(points):
    """A KD-tree for exact nearest distances, split at sliding midpoints
    rather than medians and without shrinking node boxes to their points:
    cheaper to build, and a tree's shape changes no nearest distance."""
    return cKDTree(points, balanced_tree=False, compact_nodes=False)


def hausdorff_distance(a, b):
    """Exact Hausdorff distance between two finite point sets (N, d).

    The distance _blocked_hausdorff finds with the larger set as one block:
    one KD-tree on the smaller set, and a second on the larger one only for
    the points of the smaller set that are no point's nearest neighbour.
    """
    pa = np.atleast_2d(np.asarray(a, dtype=float))
    pb = np.atleast_2d(np.asarray(b, dtype=float))
    if pa.size == 0 or pb.size == 0:
        raise GeometryError("Hausdorff distance needs nonempty point sets")
    if pa.ndim != 2 or pb.ndim != 2 or pa.shape[1] != pb.shape[1]:
        raise GeometryError(
            "Hausdorff distance needs two (N, d) point sets of one dimension d, "
            f"got shapes {pa.shape} and {pb.shape}")
    if not (np.isfinite(pa).all() and np.isfinite(pb).all()):
        raise GeometryError(
            "Hausdorff distance needs finite coordinates, got a non-finite "
            f"value among point sets of shapes {pa.shape} and {pb.shape}")
    return _blocked_hausdorff(pa, len(pb), (pb,), lambda: pb)


def _blocked_hausdorff(a, rows, blocks, whole):
    """Exact Hausdorff distance between a nonempty finite point set a (N, d)
    and a nonempty finite set B of `rows` points in R^d, given twice: as
    blocks, an iterable of row blocks whose concatenation is B, and as
    whole(), which returns B in one array.

    One KD-tree on the smaller set S (a on a tie) answers h(L -> S) for the
    larger set L, queried one block at a time while the running maximum and
    the points of S chosen as nearest neighbours are kept. A chosen point s
    has d(s, L) <= |s - l| <= h(L -> S), in floats too, so only the points
    of S that no l chose are queried against a second tree, built on L.
    B is asked for whole only to build a tree on it: when it is the smaller
    set, or for that second tree; when a is the smaller set and every point
    of it is chosen, no more than one block of B is held at a time.
    """
    if len(a) <= rows:
        small, queries, large = a, blocks, whole
    else:
        small, queries, large = whole(), (a,), lambda: a
    tree = _exact_tree(small)
    marked = np.zeros(len(small), dtype=bool)
    out = 0.0
    for block in queries:
        dist, nearest = tree.query(block, workers=-1)
        out = max(out, dist.max())
        marked[nearest] = True
    del tree  # freed before the second tree is built
    if not marked.all():
        out = max(out, _exact_tree(large()).query(small[~marked],
                                                  workers=-1)[0].max())
    return float(out)


# --- convex polygons (d = 2) --------------------------------------------------


def _signed_area(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


@dataclass(frozen=True, eq=False)
class ConvexPolygon:
    """Strictly convex polygon, vertices stored counterclockwise."""

    vertices: np.ndarray

    def __init__(self, vertices):
        pts = np.array(vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
            raise GeometryError("a polygon needs at least 3 planar vertices")
        area = _signed_area(pts)
        if area < 0:
            pts = pts[::-1].copy()
            area = -area
        if area <= 0:
            raise GeometryError("degenerate polygon: zero area")
        n = len(pts)
        scale = max(1.0, float(np.abs(pts).max()))
        for i in range(n):
            u = pts[(i + 1) % n] - pts[i]
            v = pts[(i + 2) % n] - pts[(i + 1) % n]
            cross = u[0] * v[1] - u[1] * v[0]
            if cross <= 1e-12 * scale * scale:
                raise GeometryError(
                    "degenerate polygon: vertices must be strictly convex")
        pts.flags.writeable = False
        object.__setattr__(self, "vertices", pts)

    @property
    def area(self):
        return _signed_area(self.vertices)

    def transform(self, contraction):
        """Image polygon under an affine map (re-oriented counterclockwise)."""
        return ConvexPolygon(contraction.apply(self.vertices))


def _axes(poly):
    pts = poly.vertices
    edges = np.roll(pts, -1, axis=0) - pts
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    lengths = np.linalg.norm(normals, axis=1)
    return normals / lengths[:, None]


def polygons_disjoint(p, q, tol=0.0):
    """True iff the open interiors are disjoint (separating-axis test).

    Shared boundary points still count as disjoint interiors: projection
    intervals that merely touch witness separation.
    """
    for axis in np.vstack([_axes(p), _axes(q)]):
        pa = p.vertices @ axis
        qa = q.vertices @ axis
        if pa.max() <= qa.min() + tol or qa.max() <= pa.min() + tol:
            return True
    return False


def _split(pts, a, b):
    """One Sutherland-Hodgman half-plane step that keeps both sides: the parts
    of convex polygon pts (a counterclockwise list of (x, y) pairs) left and
    right of the line a -> b. A vertex on the line goes to both; a part of
    fewer than 3 vertices has empty interior."""
    ex, ey = b[0] - a[0], b[1] - a[1]
    side = [ex * (p[1] - a[1]) - ey * (p[0] - a[0]) for p in pts]
    left, right = [], []
    for p, q, sp, sq in zip(pts, pts[1:] + pts[:1], side, side[1:] + side[:1]):
        if sp >= 0:
            left.append(p)
        if sp <= 0:
            right.append(p)
        if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
            t = sp / (sp - sq)
            cut = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            left.append(cut)
            right.append(cut)
    return left, right


def _minus(pts, q):
    """The part of convex polygon pts outside the ConvexPolygon q: at most one
    convex piece per edge of q, the part outside that edge and inside the
    edges before it, so the pieces have disjoint interiors."""
    cv = q.vertices.tolist()
    pieces = []
    for a, b in zip(cv, cv[1:] + cv[:1]):
        pts, outside = _split(pts, a, b)
        if len(outside) >= 3:
            pieces.append(outside)
        if len(pts) < 3:
            break
    return pieces


def _uncovered_area(p, union):
    """Area of the part of polygon p outside every polygon of the union."""
    rest = [p.vertices.tolist()]
    for q in union:
        rest = [piece for pts in rest for piece in _minus(pts, q)]
    return math.fsum(abs(_signed_area(np.array(pts))) for pts in rest)


def polygon_in_union(p, union, tol):
    """True iff polygon p is covered by the union, up to residual area tol*area(p).

    Each piece of the union is cut out of p in turn (convex subtraction); the
    summed area of the convex pieces left, never negative, is the residual.
    There is no limit on the number of pieces; an empty union covers nothing.
    """
    if not union:
        return False
    residual = _uncovered_area(p, union)
    return residual <= tol * p.area + 1e-12 * max(1.0, p.area)


# --- intervals (d = 1) --------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """Open interval used as a 1-dimensional open-set piece."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise GeometryError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def length(self):
        return self.hi - self.lo

    def transform(self, contraction):
        a = float(contraction.matrix[0, 0])
        b = float(contraction.translation[0])
        lo, hi = a * self.lo + b, a * self.hi + b
        return Interval(min(lo, hi), max(lo, hi))


def intervals_disjoint(p, q, tol=0.0):
    """True iff the open intervals overlap by at most tol."""
    overlap = min(p.hi, q.hi) - max(p.lo, q.lo)
    return overlap <= tol


def interval_in_union(p, union, tol):
    """True iff interval p is covered by the union up to residual length tol*len."""
    if not union:
        return False
    spans = sorted((max(i.lo, p.lo), min(i.hi, p.hi)) for i in union)
    covered = 0.0
    cursor = p.lo
    for lo, hi in spans:
        if hi <= cursor:
            continue
        covered += hi - max(lo, cursor)
        cursor = max(cursor, hi)
    residual = p.length - covered
    return residual <= tol * p.length + 1e-12
