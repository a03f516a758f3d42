"""Sampled bimodule structure on the cographs: whole clouds are mapped once
per edge, and the evaluators are still called one point at a time.

The whole-cloud functions (norm_two, norm_inf, is_invariant) map each vertex
cloud as one array per incoming edge or path step; the per-point functions
(inner_product, expectation, tensor_eval) map single coordinate tuples with
plain float arithmetic. Either way the evaluators receive LabeledPoints, one
point at a time.

Functions on the union of cographs are represented by evaluators
(x, y, edge) -> complex; functions on the invariant set by evaluators
point -> complex. The edge argument resolves points shared by several
cographs, so the representation strictly covers functions on the disjoint
union; genuinely cograph-borne functions must be edge-independent there.

Membership "y lies in the component K_{r(e)}" is decided purely by the vertex
label of y, never by coordinate comparisons.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import LabeledPoint
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


def _incoming(spec, vertex):
    """Edges e with range(e) = vertex; exactly those with y in K_{r(e)}."""
    return spec.graph.in_edges(vertex)


def _map_point(spec, edge, y):
    return LabeledPoint(edge.source, spec.edge_maps[edge.id].apply_coords(y.coords))


def _rows(points):
    """The rows of an (N, d) array as coordinate tuples, produced lazily from
    one Python list of floats per column (half the memory of a list of rows)."""
    return zip(*points.T.tolist())


def _cloud_with_images(spec, approx, vertex):
    """Yield each cloud point y at a vertex with the pairs (e, phi_e(y)) over
    its incoming edges, in declaration order. The cloud is mapped once per
    edge; the LabeledPoints are built as the points are reached."""
    points = approx.cloud(vertex).points
    edges = _incoming(spec, vertex)
    images = [_rows(spec.edge_maps[e.id].apply(points)) for e in edges]
    for row, *image_rows in zip(_rows(points), *images):
        yield LabeledPoint(vertex, row), [
            (e, LabeledPoint(e.source, r)) for e, r in zip(edges, image_rows)]


def xi_zero(spec):
    """The canonical unit vector: 1/sqrt(#incoming edges at the vertex of y)."""
    counts = {v: len(_incoming(spec, v)) for v in spec.graph.vertices}

    def evaluate(x, y, edge_id):
        return 1.0 / math.sqrt(counts[y.vertex])

    return CographFunction(evaluate, description="canonical unit vector")


def inner_product(spec, xi, eta, y, approx=None):
    """Module inner product at y: sum over incoming edges of
    conj(xi(phi_e(y), y)) * eta(phi_e(y), y)."""
    if approx is not None:
        cloud = approx.cloud(y.vertex)
        if cloud.distance_to(y.array()) > approx.error_bound + 1e-12:
            raise ValueError(
                f"sample point {y.coords} is not within resolution of the "
                f"cloud at {y.vertex!r}")
    total = 0j
    for e in _incoming(spec, y.vertex):
        x = _map_point(spec, e, y)
        total += xi(x, y, e.id).conjugate() * eta(x, y, e.id)
    return total


def expectation(spec, a, y):
    """Average of the observable over the incoming-edge images of y."""
    edges = _incoming(spec, y.vertex)
    return sum(a(_map_point(spec, e, y)) for e in edges) / len(edges)


def sample_points(approx):
    """All cloud points as labeled points, in deterministic order."""
    return [LabeledPoint(v, row) for v in sorted(approx.clouds)
            for row in _rows(approx.clouds[v].points)]


def norm_two(spec, approx, xi):
    """Sampled module two-norm: sup_y sqrt(<xi, xi>(y)) over the clouds.

    A lower bound for the true supremum; the gap is controlled by the modulus
    of continuity of xi, which is not estimated here.
    """
    best = 0.0
    for v in sorted(approx.clouds):
        for y, images in _cloud_with_images(spec, approx, v):
            total = 0j
            for e, x in images:
                z = xi(x, y, e.id)
                total += z.conjugate() * z
            best = max(best, math.sqrt(max(total.real, 0.0)))
    return best


def norm_inf(spec, approx, xi):
    """Sampled sup norm of xi over the cograph points above the clouds."""
    best = 0.0
    for v in sorted(approx.clouds):
        for y, images in _cloud_with_images(spec, approx, v):
            for e, x in images:
                best = max(best, abs(xi(x, y, e.id)))
    return best


def tensor_eval(spec, xis, path, y):
    """Evaluate an elementary tensor along a path at a base point y.

    With intermediate points z_k = phi_{w_k ... w_n}(y) and z_{n+1} = y this
    is the product of xi_k(z_k, z_{k+1}) over the steps, evaluated left to
    right.
    """
    path = spec.graph.make_path(path.edges if hasattr(path, "edges") else path)
    if len(xis) != path.length:
        raise ValueError(
            f"need one factor per edge: {len(xis)} factors, {path.length} edges")
    edges = [spec.graph.edge(eid) for eid in path.edges]
    points = [LabeledPoint(edges[-1].range, np.asarray(y, dtype=float))]
    for e in reversed(edges):
        points.append(_map_point(spec, e, points[-1]))
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
    their lexicographic (real, imag) minimum. The observable is called path
    by path over a whole cloud image; vertices are taken in sorted order and
    the check stops at the first one that fails.

    Memory grows with paths x points: each group of paths sharing a start
    and an end vertex holds one complex value per (path, cloud point), and
    the number of paths grows like (edges per vertex)^n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
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
                image = cloud
                for eid in reversed(p.edges):
                    image = spec.edge_maps[eid].apply(image)
                row[:] = np.fromiter(
                    (a(LabeledPoint(u, c)) for c in _rows(image)),
                    dtype=complex, count=len(cloud))
            first = np.lexsort((values.imag, values.real), axis=0)[0]
            values -= values[first, columns]
            if np.any(np.abs(values) > tol):
                return False
    return True
