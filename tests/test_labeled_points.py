"""Labeled points: the public constructor's contract, the uncoerced points the
bulk builders of the correspondence layer hand to evaluators, and value
identity with the coercing builders those replaced."""

import cmath
import copy
import dataclasses
import math
import pickle
import weakref
from collections import Counter

import numpy as np
import pytest

import mwlab.correspondence as cr
from conftest import approx_for, bundled
from mwlab.correspondence import CographFunction, SampledObservable
from mwlab.datasets import list_bundled
from mwlab.geometry import LabeledPoint, _labeled
from mwlab.graph import paths_from

# --- the public constructor ---------------------------------------------------


@pytest.mark.parametrize("coords", [
    (1, 2),
    (np.float64(1.0), np.float64(2.0)),
    np.array([1.0, 2.0]),
    np.array([1, 2]),
    [np.int64(1), 2.0],
])
def test_constructor_coerces_to_python_floats(coords):
    p = LabeledPoint("v", coords)
    assert type(p.coords) is tuple
    assert all(type(c) is float for c in p.coords)
    assert p.coords == (1.0, 2.0)
    assert LabeledPoint(vertex="v", coords=coords) == p


def test_frozen():
    p = LabeledPoint("v", (0.5,))
    for name, value in (("vertex", "w"), ("coords", (1.0,))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, value)
    # any other name fails too; the slotted class dataclasses builds raises
    # TypeError for it before Python 3.12 rather than FrozenInstanceError
    with pytest.raises((AttributeError, TypeError)):
        p.other = 1
    assert p == LabeledPoint("v", (0.5,))
    assert not hasattr(p, "other")


def test_no_instance_dict():
    p = LabeledPoint("v", (0.5, -0.0))
    assert not hasattr(p, "__dict__")
    with pytest.raises(TypeError):
        vars(p)
    with pytest.raises(TypeError):
        weakref.ref(p)


@pytest.mark.parametrize("coords", [(0.25,), (0.5, -0.0), (1e-300, 3.0, 7.5)])
def test_uncoerced_point_equals_public_one(coords):
    public, fast = LabeledPoint("v", coords), _labeled("v", coords)
    assert type(fast) is LabeledPoint
    assert fast == public and public == fast
    assert hash(fast) == hash(public)
    assert repr(fast) == repr(public)
    assert repr(public) == f"LabeledPoint(vertex='v', coords={coords!r})"
    assert fast.array().dtype == float
    assert np.array_equal(fast.array(), public.array())
    assert fast != LabeledPoint("w", coords)


@pytest.mark.parametrize("make", [LabeledPoint, _labeled])
def test_pickle_and_copy_round_trip(make):
    p = make("v", (0.5, -0.0))
    for clone in (pickle.loads(pickle.dumps(p)),
                  pickle.loads(pickle.dumps(p, protocol=0)),
                  copy.deepcopy(p), copy.copy(p)):
        assert type(clone) is LabeledPoint
        assert clone == p and hash(clone) == hash(p)
        assert repr(clone) == repr(p)
        assert all(type(c) is float for c in clone.coords)


# LabeledPoint("v", (0.5, -0.0)) pickled before the class had __slots__: the
# state is the instance __dict__
PICKLES_WITH_DICT = [
    b"ccopy_reg\n_reconstructor\np0\n(cmwlab.geometry\nLabeledPoint\np1\n"
    b"c__builtin__\nobject\np2\nNtp3\nRp4\n(dp5\nVvertex\np6\nVv\np7\n"
    b"sVcoords\np8\n(F0.5\nF-0.0\ntp9\nsb.",
    b"\x80\x02cmwlab.geometry\nLabeledPoint\nq\x00)\x81q\x01}q\x02(X\x06\x00"
    b"\x00\x00vertexq\x03X\x01\x00\x00\x00vq\x04X\x06\x00\x00\x00coordsq\x05"
    b"G?\xe0\x00\x00\x00\x00\x00\x00G\x80\x00\x00\x00\x00\x00\x00\x00\x86q"
    b"\x06ub.",
]


@pytest.mark.parametrize("blob", PICKLES_WITH_DICT, ids=["protocol0", "protocol2"])
def test_pickles_with_instance_dict_still_load(blob):
    p = pickle.loads(blob)
    assert repr(p) == "LabeledPoint(vertex='v', coords=(0.5, -0.0))"
    assert p == LabeledPoint("v", (0.5, -0.0))


# --- the uncoerced path hands evaluators well-formed points --------------------


GUARD_DEPTH = 4


def assert_well_formed(point, spec, vertex):
    assert type(point) is LabeledPoint
    assert point.vertex == vertex
    assert type(point.coords) is tuple
    assert len(point.coords) == spec.dimension
    assert all(type(c) is float for c in point.coords)


def recording_cograph(spec, seen):
    """An element that checks and counts the points it is evaluated at."""

    def evaluate(x, y, edge_id):
        e = spec.graph.edge(edge_id)
        assert_well_formed(x, spec, e.source)
        assert_well_formed(y, spec, e.range)
        seen["cograph"] += 1
        return 1.0 + sum(x.coords) - 1j * sum(y.coords)

    return CographFunction(evaluate)


def recording_observable(spec, labels):
    def evaluate(x):
        assert_well_formed(x, spec, x.vertex)
        labels.append(x.vertex)
        return 1.0

    return SampledObservable(evaluate)


def two_step_paths(spec):
    return [p for u in spec.graph.vertices for p in paths_from(spec.graph, u, 2)]


@pytest.mark.parametrize("name", list_bundled())
def test_evaluators_receive_float_tuples(name):
    spec, approx = bundled(name), approx_for(name, GUARD_DEPTH)
    points = cr.sample_points(approx)
    assert len(points) == sum(len(c.points) for c in approx.clouds.values())
    for y in points:
        assert_well_formed(y, spec, y.vertex)
    seen = Counter()
    xi = recording_cograph(spec, seen)
    cr.norm_two(spec, approx, xi)
    cr.norm_inf(spec, approx, xi)
    for y in points:
        cr.inner_product(spec, xi, xi, y)
        labels = []
        cr.expectation(spec, recording_observable(spec, labels), y)
        assert labels == [e.source for e in spec.graph.in_edges(y.vertex)]
    for p in two_step_paths(spec):
        for y in points[:: max(1, len(points) // 8)]:
            if y.vertex == p.range:
                cr.tensor_eval(spec, [xi, xi], p, y.array())
    incoming = sum(len(spec.graph.in_edges(y.vertex)) for y in points)
    assert seen["cograph"] >= 4 * incoming  # norms and inner products ran

    # a constant observable never fails, so every vertex and path is visited
    labels = []
    assert cr.is_invariant(spec, recording_observable(spec, labels), 2,
                           approx, 1e-12)
    expected = Counter()
    for p in two_step_paths(spec):
        if p.range in approx.clouds:
            expected[p.source] += len(approx.cloud(p.range).points)
    assert Counter(labels) == expected


def test_bulk_builders_skip_the_public_constructor(monkeypatch):
    spec, approx = bundled("squares_z2"), approx_for("squares_z2", 5)
    points = cr.sample_points(approx)
    xi = CographFunction(lambda x, y, e: x.coords[0] - 1j * y.coords[1])
    calls = []
    original = LabeledPoint.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(LabeledPoint, "__post_init__", counted)
    LabeledPoint("v1", (0, 1))
    assert len(calls) == 1  # the counter sees public construction
    calls.clear()
    cr.norm_two(spec, approx, xi)
    assert calls == []
    cr.norm_inf(spec, approx, xi)
    cr.sample_points(approx)
    cr.is_invariant(spec, SampledObservable(lambda x: 1.0), 2, approx, 1e-12)
    for y in points[::64]:
        cr.inner_product(spec, xi, xi, y)
        cr.expectation(spec, SampledObservable(lambda x: x.coords[0]), y)
    assert calls == []


# --- reference: the coercing builders, as they were before _labeled -----------
# _map_point, _cloud_with_images and sample_points verbatim, building every
# point with the public constructor, and the six functions that call them (or,
# in is_invariant, build points inline) without their docstrings and argument
# checks.


def ref_rows(points):
    return zip(*points.T.tolist())


def ref_map_point(spec, edge, y):
    return LabeledPoint(edge.source, spec.edge_maps[edge.id].apply_coords(y.coords))


def ref_cloud_with_images(spec, approx, vertex):
    points = approx.cloud(vertex).points
    edges = spec.graph.in_edges(vertex)
    images = [ref_rows(spec.edge_maps[e.id].apply(points)) for e in edges]
    for row, *image_rows in zip(ref_rows(points), *images):
        yield LabeledPoint(vertex, row), [
            (e, LabeledPoint(e.source, r)) for e, r in zip(edges, image_rows)]


def ref_sample_points(approx):
    return [LabeledPoint(v, row) for v in sorted(approx.clouds)
            for row in ref_rows(approx.clouds[v].points)]


def ref_inner_product(spec, xi, eta, y):
    total = 0j
    for e in spec.graph.in_edges(y.vertex):
        x = ref_map_point(spec, e, y)
        total += xi(x, y, e.id).conjugate() * eta(x, y, e.id)
    return total


def ref_expectation(spec, a, y):
    edges = spec.graph.in_edges(y.vertex)
    return sum(a(ref_map_point(spec, e, y)) for e in edges) / len(edges)


def ref_norm_two(spec, approx, xi):
    best = 0.0
    for v in sorted(approx.clouds):
        for y, images in ref_cloud_with_images(spec, approx, v):
            total = 0j
            for e, x in images:
                z = xi(x, y, e.id)
                total += z.conjugate() * z
            best = max(best, math.sqrt(max(total.real, 0.0)))
    return best


def ref_norm_inf(spec, approx, xi):
    best = 0.0
    for v in sorted(approx.clouds):
        for y, images in ref_cloud_with_images(spec, approx, v):
            for e, x in images:
                best = max(best, abs(xi(x, y, e.id)))
    return best


def ref_tensor_eval(spec, xis, path, y):
    path = spec.graph.make_path(path.edges if hasattr(path, "edges") else path)
    edges = [spec.graph.edge(eid) for eid in path.edges]
    points = [LabeledPoint(edges[-1].range, np.asarray(y, dtype=float))]
    for e in reversed(edges):
        points.append(ref_map_point(spec, e, points[-1]))
    points.reverse()
    product = complex(1.0)
    for k, (xi, e) in enumerate(zip(xis, edges)):
        product *= xi(points[k], points[k + 1], e.id)
    return product


def ref_is_invariant(spec, a, n, approx, tol):
    groups = {}
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
                    (a(LabeledPoint(u, c)) for c in ref_rows(image)),
                    dtype=complex, count=len(cloud))
            first = np.lexsort((values.imag, values.real), axis=0)[0]
            values -= values[first, columns]
            if np.any(np.abs(values) > tol):
                return False
    return True


class Log:
    """Evaluators that log repr of every point they receive, in call order,
    and return values that depend on every coordinate and on the edge."""

    def __init__(self, spec):
        rng = np.random.RandomState(4649)
        self.weights = {e.id: rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
                        for e in spec.graph.edges}
        self.calls = []

    def xi(self, x, y, edge_id):
        self.calls.append((repr(x), repr(y), edge_id))
        w = self.weights[edge_id]
        return (w[0] + w[1] * math.fsum(x.coords)
                + w[2] * cmath.exp(1j * (y.coords[0] - 2.0 * y.coords[-1])))

    def a(self, x):
        self.calls.append(repr(x))
        return x.coords[0] * math.cos(3.0 * x.coords[-1]) + 1j * math.sin(x.coords[0])

    def negative_zero(self, *points):
        """Signed zeros: a sum started from its first term, rather than from
        0j or int 0, keeps them and shows in the repr."""
        self.calls.append(("zero",) + tuple(map(repr, points)))
        return complex(-0.0, -0.0)

    def float_negative_zero(self, x):
        self.calls.append(("float zero", repr(x)))
        return -0.0


def run_all(spec, approx, points_of, inner, expect, two, inf, tensor, invariant):
    """Every correspondence result, as one repr, with the evaluator log."""
    log = Log(spec)
    xi = CographFunction(log.xi)
    eta = CographFunction(lambda x, y, e: log.xi(y, x, e).conjugate())
    a = SampledObservable(log.a)
    points = points_of(approx)
    results = [repr(points),
               [inner(spec, xi, eta, y) for y in points],
               [expect(spec, a, y) for y in points],
               two(spec, approx, xi), inf(spec, approx, eta)]
    for p in two_step_paths(spec):
        for y in points[::17]:
            if y.vertex == p.range:
                results.append(tensor(spec, [xi, eta], p, y.array()))
    const = SampledObservable(lambda x: 2.5)
    for tol in (1e-12, 0.5, 10.0):
        results += [invariant(spec, a, 2, approx, tol),
                    invariant(spec, const, 2, approx, tol)]
    one = CographFunction(lambda x, y, e: 1.0)
    zero_xi = CographFunction(log.negative_zero)
    zero_a = SampledObservable(log.negative_zero)
    float_zero_a = SampledObservable(log.float_negative_zero)
    results += [[inner(spec, one, zero_xi, y) for y in points],
                [inner(spec, xi, zero_xi, y) for y in points],
                [inner(spec, zero_xi, zero_xi, y) for y in points],
                [expect(spec, zero_a, y) for y in points],
                [expect(spec, float_zero_a, y) for y in points],
                two(spec, approx, zero_xi), inf(spec, approx, zero_xi),
                invariant(spec, zero_a, 2, approx, 1e-12),
                invariant(spec, float_zero_a, 2, approx, 1e-12)]
    return repr(results), log.calls


@pytest.mark.parametrize("name", ["squares_z2", "penrose", "two_part_dust"])
def test_results_match_coercing_builders(name):
    spec, approx = bundled(name), approx_for(name, 5)
    results, calls = run_all(
        spec, approx, cr.sample_points, cr.inner_product, cr.expectation,
        cr.norm_two, cr.norm_inf, cr.tensor_eval, cr.is_invariant)
    ref_results, ref_calls = run_all(
        spec, approx, ref_sample_points, ref_inner_product, ref_expectation,
        ref_norm_two, ref_norm_inf, ref_tensor_eval, ref_is_invariant)
    assert results == ref_results
    assert calls == ref_calls
