"""Sampled bimodule structure on the cographs: each function walks its
points in one plain loop and calls the evaluators directly.

The whole-cloud functions (norm_two, norm_inf, is_invariant) map each vertex
cloud as one array per incoming edge or path (along a path as cylinder_set
does) and read the images back as one Python list of floats per column; the
per-point functions (inner_product, expectation, tensor_eval) map single
coordinate tuples with AffineContraction.apply_coords. Either way the
evaluators receive LabeledPoints, one point at a time: the points of a
vertex in cloud order, vertices in sorted order, and at each point its
incoming edges in declaration order.

The functions build their LabeledPoints inline, with object.__new__ and the
two slot setters (sample_points and tensor_eval through geometry._labeled,
which does the same). That skips the constructor's float coercion, which is
safe because every tuple they pass is already made of Python floats: rows
come from ndarray.tolist() on float arrays, and apply_coords returns float
sums, so each point equals, bit for bit, the one the public constructor
would build. tensor_eval's base point comes from the caller and goes through
the public, coercing constructor.

The evaluator of a CographFunction or SampledObservable is called directly,
with the complex() that the wrapper's __call__ applies, so a subclass that
overrides __call__ is not consulted.

Functions on the union of cographs are represented by evaluators
(x, y, edge) -> complex; functions on the invariant set by evaluators
point -> complex. The edge argument resolves points shared by several
cographs, so the representation strictly covers functions on the disjoint
union; genuinely cograph-borne functions must be edge-independent there.

Membership "y lies in the component K_{r(e)}" is decided purely by the vertex
label of y, never by coordinate comparisons or a distance to the cloud.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .attractor import _apply_along
from .geometry import LabeledPoint, _labeled
from .graph import paths_from

__all__ = [
    "CographFunction",
    "SampledObservable",
    "xi_zero",
    "inner_product",
    "expectation",
    "norm_two",
    "norm_inf",
    "tensor_eval",
    "is_invariant",
    "sample_points",
]


@dataclass
class CographFunction:
    """Element of the correspondence, evaluated at (x, y) on the cograph of an edge."""

    evaluator: Callable
    description: str = ""

    def __call__(self, x, y, edge_id):
        return complex(self.evaluator(x, y, edge_id))


@dataclass
class SampledObservable:
    """Continuous-function stand-in on the invariant set."""

    evaluator: Callable
    description: str = ""

    def __call__(self, x):
        return complex(self.evaluator(x))


# LabeledPoint built without its constructor; see the module docstring
_new = object.__new__
_set_vertex = LabeledPoint.vertex.__set__
_set_coords = LabeledPoint.coords.__set__


def _rows(points):
    """The rows of an (N, d) array as coordinate tuples, produced lazily from
    one Python list of floats per column (half the memory of a list of rows)."""
    return zip(*points.T.tolist())


def xi_zero(spec):
    """The canonical unit vector: 1/sqrt(#incoming edges at the vertex of y)."""
    counts = {v: len(spec.graph.in_edges(v)) for v in spec.graph.vertices}

    def evaluate(x, y, edge_id):
        return 1.0 / math.sqrt(counts[y.vertex])

    return CographFunction(evaluate, description="canonical unit vector")


def inner_product(spec, xi, eta, y):
    """Module inner product at y: sum over incoming edges of
    conj(xi(phi_e(y), y)) * eta(phi_e(y), y)."""
    f, g = xi.evaluator, eta.evaluator
    maps, coords = spec.edge_maps, y.coords
    total = 0j
    for e in spec.graph.in_edges(y.vertex):
        x = _new(LabeledPoint)
        _set_vertex(x, e.source)
        _set_coords(x, maps[e.id].apply_coords(coords))
        total += complex(f(x, y, e.id)).conjugate() * complex(g(x, y, e.id))
    return total


def expectation(spec, a, y):
    """Average of the observable over the incoming-edge images of y."""
    f = a.evaluator
    maps, coords = spec.edge_maps, y.coords
    values = []
    for e in spec.graph.in_edges(y.vertex):
        x = _new(LabeledPoint)
        _set_vertex(x, e.source)
        _set_coords(x, maps[e.id].apply_coords(coords))
        values.append(complex(f(x)))
    # sum() itself, so the total rounds as sum rounds on every Python version
    return sum(values) / len(values)


def sample_points(approx):
    """All cloud points as labeled points, in deterministic order."""
    return [_labeled(v, row) for v in sorted(approx.clouds)
            for row in _rows(approx.clouds[v].points)]


def norm_two(spec, approx, xi):
    """Sampled module two-norm: sup_y sqrt(<xi, xi>(y)) over the clouds.

    A lower bound for the true supremum; the gap is controlled by the modulus
    of continuity of xi, which is not estimated here. NaN if an evaluator
    value is NaN.
    """
    f = xi.evaluator
    best = 0.0  # the largest real part of <xi, xi>(y); sqrt is monotone
    for v in sorted(approx.clouds):
        points = approx.cloud(v).points
        edges = [(e.source, e.id) for e in spec.graph.in_edges(v)]
        images = [_rows(spec.edge_maps[eid].apply(points)) for _, eid in edges]
        for row, *image_rows in zip(_rows(points), *images):
            y = _new(LabeledPoint)
            _set_vertex(y, v)
            _set_coords(y, row)
            total = 0j
            for (source, eid), r in zip(edges, image_rows):
                x = _new(LabeledPoint)
                _set_vertex(x, source)
                _set_coords(x, r)
                z = complex(f(x, y, eid))
                total += z.conjugate() * z
            t = total.real
            if t > best or t != t:  # a NaN stays: nothing compares above it
                best = t
    return math.sqrt(best)


def norm_inf(spec, approx, xi):
    """Sampled sup norm of xi over the cograph points above the clouds; NaN
    if an evaluator value is NaN."""
    f = xi.evaluator
    best = 0.0
    for v in sorted(approx.clouds):
        points = approx.cloud(v).points
        edges = [(e.source, e.id) for e in spec.graph.in_edges(v)]
        images = [_rows(spec.edge_maps[eid].apply(points)) for _, eid in edges]
        for row, *image_rows in zip(_rows(points), *images):
            y = _new(LabeledPoint)
            _set_vertex(y, v)
            _set_coords(y, row)
            for (source, eid), r in zip(edges, image_rows):
                x = _new(LabeledPoint)
                _set_vertex(x, source)
                _set_coords(x, r)
                z = abs(complex(f(x, y, eid)))
                if z > best or z != z:  # a NaN stays: nothing compares above it
                    best = z
    return best


def tensor_eval(spec, xis, path, y):
    """Evaluate an elementary tensor along a path at a base point y.

    With intermediate points z_k = phi_{w_k ... w_n}(y) and z_{n+1} = y this
    is the product of xi_k(z_k, z_{k+1}) over the steps, evaluated left to
    right.
    """
    path = spec.graph.make_path(path)
    if len(xis) != path.length:
        raise ValueError(
            f"need one factor per edge: {len(xis)} factors, {path.length} edges")
    edges = [spec.graph.edge(eid) for eid in path.edges]
    points = [LabeledPoint(edges[-1].range, np.asarray(y, dtype=float))]
    for e in reversed(edges):
        points.append(_labeled(
            e.source, spec.edge_maps[e.id].apply_coords(points[-1].coords)))
    points.reverse()  # points[k] = phi_{w_{k+1} ... w_n}(y), points[0] outermost
    product = complex(1.0)
    for k, (xi, e) in enumerate(zip(xis, edges)):
        product *= xi(points[k], points[k + 1], e.id)
    return product


def is_invariant(spec, a, n, approx, tol):
    """Check n-step invariance of an observable on the sampled clouds.

    For every sampled y and all length-n paths alpha, beta ending at the
    vertex of y and starting at a common vertex, the values a(phi_alpha(y))
    and a(phi_beta(y)) must agree within tol; the values are measured from
    their lexicographic (real, imag) minimum, and a NaN value fails. The
    observable is called path by path over a whole cloud image; vertices are
    taken in sorted order and the check stops at the first one that fails.
    A tol that is NaN or negative is refused with ValueError.

    Memory grows with paths x points: each group of paths sharing a start
    and an end vertex holds one complex value per (path, cloud point), and
    the number of paths grows like (edges per vertex)^n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    f = a.evaluator
    groups = {}  # range -> source -> length-n paths, in enumeration order
    for u in spec.graph.vertices:
        for p in paths_from(spec.graph, u, n):
            groups.setdefault(p.range, {}).setdefault(u, []).append(p)
    for v in sorted(approx.clouds):
        cloud = approx.cloud(v).points
        columns = np.arange(len(cloud))
        for u, paths in groups.get(v, {}).items():
            values = np.empty((len(paths), len(cloud)), dtype=complex)
            for row, p in zip(values, paths):
                out = []
                for coords in _rows(_apply_along(spec, p, cloud)):
                    x = _new(LabeledPoint)
                    _set_vertex(x, u)
                    _set_coords(x, coords)
                    out.append(complex(f(x)))
                row[:] = out
            first = np.lexsort((values.imag, values.real), axis=0)[0]
            values -= values[first, columns]
            if not np.all(np.abs(values) <= tol):  # NaN <= tol is False
                return False
    return True
