import cmath
import math

import numpy as np
import pytest

from conftest import approx_for, bundled
from mwlab.attractor import invariant_list
from mwlab.correspondence import (
    CographFunction,
    SampledObservable,
    expectation,
    inner_product,
    is_invariant,
    norm_inf,
    norm_two,
    sample_points,
    tensor_eval,
    xi_zero,
)
from mwlab.datasets import list_bundled
from mwlab.geometry import AffineContraction, LabeledPoint
from mwlab.graph import paths_from
from specs_inline import binary_ifs, cantor_ifs, duplicate_map_ifs, two_part_dust

RNG = np.random.RandomState(414243)


def random_cograph_function(rng, spec):
    """Smooth pseudo-random element: value depends on (x, y, edge)."""
    weights = {e.id: rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
               for e in spec.graph.edges}

    def evaluate(x, y, edge_id):
        w = weights[edge_id]
        return (w[0] + w[1] * sum(x.coords) + w[2] * cmath.exp(1j * sum(y.coords)))

    return CographFunction(evaluate)


def random_observable(rng):
    c = rng.uniform(-1, 1, 3)

    def evaluate(x):
        s = sum(x.coords)
        return c[0] + c[1] * s + c[2] * math.cos(s)

    return SampledObservable(evaluate)


def product_with_observable(a, xi):
    """Left action of an observable on a cograph function: (a . xi)(x, y)."""
    return CographFunction(lambda x, y, e: a(x) * xi(x, y, e))


@pytest.fixture(scope="module")
def dust():
    spec = two_part_dust()
    return spec, invariant_list(spec, 5)


@pytest.fixture(scope="module")
def binary():
    spec = binary_ifs()
    return spec, invariant_list(spec, 6)


class TestXiZero:
    def test_binary_constant(self, binary):
        spec, approx = binary
        xi0 = xi_zero(spec)
        y = sample_points(approx)[3]
        assert xi0(y, y, "e1") == pytest.approx(1 / math.sqrt(2))

    def test_unit_vector_everywhere(self, dust):
        spec, approx = dust
        xi0 = xi_zero(spec)
        for y in sample_points(approx):
            assert inner_product(spec, xi0, xi0, y) == pytest.approx(1.0, abs=1e-12)


class TestInnerProduct:
    def test_constant_one_counts_incoming(self, dust):
        spec, approx = dust
        one = CographFunction(lambda x, y, e: 1.0)
        for y in sample_points(approx)[:10]:
            count = len(spec.graph.in_edges(y.vertex))
            assert inner_product(spec, one, one, y) == pytest.approx(count)

    def test_binary_two_term_sum(self, binary):
        spec, _ = binary
        rng = np.random.RandomState(7)
        xi = random_cograph_function(rng, spec)
        eta = random_cograph_function(rng, spec)
        y = LabeledPoint("v", (0.25,))
        x1 = LabeledPoint("v", (0.125,))
        x2 = LabeledPoint("v", (0.625,))
        brute = (xi(x1, y, "e1").conjugate() * eta(x1, y, "e1")
                 + xi(x2, y, "e2").conjugate() * eta(x2, y, "e2"))
        assert inner_product(spec, xi, eta, y) == pytest.approx(brute, abs=1e-12)

    def test_membership_validated_against_cloud(self, binary):
        spec, approx = binary
        xi0 = xi_zero(spec)
        with pytest.raises(ValueError):
            inner_product(spec, xi0, xi0, LabeledPoint("v", (9.0,)), approx=approx)

    def test_positivity(self, dust):
        spec, approx = dust
        rng = np.random.RandomState(11)
        for _ in range(10):
            xi = random_cograph_function(rng, spec)
            for y in sample_points(approx)[::7]:
                value = inner_product(spec, xi, xi, y)
                assert value.real >= -1e-12
                assert abs(value.imag) <= 1e-12

    def test_sesquilinearity(self, dust):
        spec, approx = dust
        rng = np.random.RandomState(37)
        xi = random_cograph_function(rng, spec)
        eta = random_cograph_function(rng, spec)
        alpha, beta = 0.7 - 1.3j, -0.2 + 0.9j
        scaled_xi = CographFunction(lambda x, y, e: alpha * xi(x, y, e))
        scaled_eta = CographFunction(lambda x, y, e: beta * eta(x, y, e))
        for y in sample_points(approx)[::11]:
            base = inner_product(spec, xi, eta, y)
            assert inner_product(spec, scaled_xi, eta, y) == \
                pytest.approx(alpha.conjugate() * base, abs=1e-12)
            assert inner_product(spec, xi, scaled_eta, y) == \
                pytest.approx(beta * base, abs=1e-12)


class TestExpectation:
    def test_unital(self, dust):
        spec, approx = dust
        one = SampledObservable(lambda x: 1.0)
        for y in sample_points(approx)[::5]:
            assert expectation(spec, one, y) == pytest.approx(1.0, abs=1e-15)

    def test_binary_closed_form(self, binary):
        spec, _ = binary
        ident = SampledObservable(lambda x: x.coords[0])
        for yv in (0.0, 0.25, 0.8):
            y = LabeledPoint("v", (yv,))
            assert expectation(spec, ident, y) == pytest.approx(yv / 2 + 0.25)

    def test_matches_inner_product_formula(self, dust):
        spec, approx = dust
        xi0 = xi_zero(spec)
        rng = np.random.RandomState(13)
        pts = sample_points(approx)
        for _ in range(20):
            a = random_observable(rng)
            for y in (pts[i] for i in rng.choice(len(pts), size=50)):
                lhs = expectation(spec, a, y)
                rhs = inner_product(spec, xi0, product_with_observable(a, xi0), y)
                assert abs(lhs - rhs) <= 1e-12

    def test_positive_observable_stays_positive(self, dust):
        spec, approx = dust
        rng = np.random.RandomState(17)
        for _ in range(5):
            raw = random_observable(rng)
            nonneg = SampledObservable(lambda x, f=raw: abs(f(x)))
            for y in sample_points(approx)[::9]:
                assert expectation(spec, nonneg, y).real >= 0.0


class TestNorms:
    def test_xi_zero_norm(self, dust):
        spec, approx = dust
        assert norm_two(spec, approx, xi_zero(spec)) == pytest.approx(1.0, abs=1e-12)

    def test_constant_function_binary(self, binary):
        spec, approx = binary
        one = CographFunction(lambda x, y, e: 1.0)
        assert norm_inf(spec, approx, one) == pytest.approx(1.0)
        assert norm_two(spec, approx, one) == pytest.approx(math.sqrt(2))

    def test_norm_chain(self, dust):
        spec, approx = dust
        rng = np.random.RandomState(19)
        root_n = math.sqrt(len(spec.graph.edges))
        for _ in range(100):
            xi = random_cograph_function(rng, spec)
            ni = norm_inf(spec, approx, xi)
            n2 = norm_two(spec, approx, xi)
            assert ni <= n2 + 1e-12
            assert n2 <= root_n * ni + 1e-12


class TestTensor:
    def test_all_ones(self, dust):
        spec, approx = dust
        one = CographFunction(lambda x, y, e: 1.0)
        path = spec.graph.make_path(["e1", "e2", "e4"])
        y = spec.base_point("v2")
        assert tensor_eval(spec, [one] * 3, path, y) == pytest.approx(1.0)

    def test_single_step_reduces_to_plain_value(self, binary):
        spec, _ = binary
        rng = np.random.RandomState(23)
        xi = random_cograph_function(rng, spec)
        path = spec.graph.make_path(["e2"])
        y = np.array([0.3])
        expected = xi(LabeledPoint("v", (0.65,)), LabeledPoint("v", (0.3,)), "e2")
        assert tensor_eval(spec, [xi], path, y) == pytest.approx(expected, abs=1e-12)

    def test_two_step_inner_product_identity(self, dust):
        spec, approx = dust
        rng = np.random.RandomState(29)
        pts = sample_points(approx)
        for _ in range(20):
            xi1, xi2, eta1, eta2 = (random_cograph_function(rng, spec)
                                    for _ in range(4))
            for y in (pts[i] for i in rng.choice(len(pts), size=20)):
                # path-sum evaluation of <xi1 (x) xi2, eta1 (x) eta2>(y)
                lhs = 0j
                for v in spec.graph.vertices:
                    for p in paths_from(spec.graph, v, 2):
                        if p.range != y.vertex:
                            continue
                        tx = tensor_eval(spec, [xi1, xi2], p, y.array())
                        te = tensor_eval(spec, [eta1, eta2], p, y.array())
                        lhs += tx.conjugate() * te
                # nested one-step sums
                inner1 = CographFunction(
                    lambda x, yy, e: inner_product(spec, xi1, eta1, x) * eta2(x, yy, e))
                rhs = inner_product(spec, xi2, inner1, y)
                assert abs(lhs - rhs) <= 1e-12

    def test_xi_zero_tensor_closed_form(self, dust):
        spec, approx = dust
        xi0 = xi_zero(spec)
        y = spec.base_point("v1")
        for ids in (["e1", "e1"], ["e2", "e3"], ["e1", "e2", "e4"]):
            path = spec.graph.make_path(ids)
            edges = [spec.graph.edge(i) for i in path.edges]
            expected = 1.0
            # each factor contributes 1/sqrt(#incoming at the vertex of its y)
            chain = [edges[k].range for k in range(len(edges))]
            for v in chain:
                expected /= math.sqrt(len(spec.graph.in_edges(v)))
            got = tensor_eval(spec, [xi0] * path.length, path, y)
            assert got == pytest.approx(expected, abs=1e-12)


class TestInvariance:
    def test_constant_is_invariant(self, dust):
        spec, approx = dust
        const = SampledObservable(lambda x: 2.5)
        for n in (1, 2):
            assert is_invariant(spec, const, n, approx, tol=1e-12)

    def test_duplicate_maps_make_everything_invariant(self):
        spec = duplicate_map_ifs()
        approx = invariant_list(spec, 6)
        ident = SampledObservable(lambda x: x.coords[0])
        assert is_invariant(spec, ident, 1, approx, tol=1e-12)

    def test_binary_identity_not_invariant(self, binary):
        spec, approx = binary
        ident = SampledObservable(lambda x: x.coords[0])
        assert not is_invariant(spec, ident, 1, approx, tol=0.25)


# --- per-point references for the whole-cloud functions ---------------------
#
# These are the loops norm_two, norm_inf and is_invariant used to run: one
# numpy map and one LabeledPoint per (point, edge), evaluators called point by
# point. The batched functions must agree with them.


def _ref_map(spec, edge, y):
    image = spec.edge_maps[edge.id].apply(y.array())
    return LabeledPoint(vertex=edge.source, coords=tuple(float(c) for c in image))


def ref_norm_two(spec, approx, xi):
    best = 0.0
    for y in sample_points(approx):
        value = 0j
        for e in spec.graph.in_edges(y.vertex):
            x = _ref_map(spec, e, y)
            value += xi(x, y, e.id).conjugate() * xi(x, y, e.id)
        best = max(best, math.sqrt(max(value.real, 0.0)))
    return best


def ref_norm_inf(spec, approx, xi):
    best = 0.0
    for y in sample_points(approx):
        for e in spec.graph.in_edges(y.vertex):
            best = max(best, abs(xi(_ref_map(spec, e, y), y, e.id)))
    return best


def ref_value_groups(spec, a, n, approx):
    """For each sampled y and start vertex u, the values a(phi_alpha(y)) over
    the length-n paths alpha from u to the vertex of y."""
    paths_into = {v: [] for v in spec.graph.vertices}
    for v in spec.graph.vertices:
        for p in paths_from(spec.graph, v, n):
            paths_into[p.range].append(p)
    for y in sample_points(approx):
        by_source = {}
        for p in paths_into[y.vertex]:
            image = y
            for eid in reversed(p.edges):
                image = _ref_map(spec, spec.graph.edge(eid), image)
            by_source.setdefault(p.source, []).append(a(image))
        yield from by_source.values()


def _lex_min(values):
    return min(values, key=lambda z: (z.real, z.imag))


def ref_is_invariant(spec, a, n, approx, tol):
    for values in ref_value_groups(spec, a, n, approx):
        lo = _lex_min(values)
        if any(abs(z - lo) > tol for z in values):
            return False
    return True


def ref_spread(spec, a, n, approx):
    """The smallest tol at which the reference calls a invariant."""
    return max((abs(z - _lex_min(values))
                for values in ref_value_groups(spec, a, n, approx)
                for z in values), default=0.0)


# duplicate_map is left out: its invariant set is a single point
REFERENCE_SYSTEMS = [(name, 4 if name == "squares_z2" else 6)
                     for name in list_bundled() if name != "duplicate_map"]


@pytest.mark.parametrize("name,depth", REFERENCE_SYSTEMS)
class TestAgainstPerPointReference:
    def test_norms(self, name, depth):
        spec, approx = bundled(name), approx_for(name, depth)
        rng = np.random.RandomState(4141)
        for _ in range(3):
            xi = random_cograph_function(rng, spec)
            assert abs(norm_two(spec, approx, xi)
                       - ref_norm_two(spec, approx, xi)) <= 1e-12
            assert abs(norm_inf(spec, approx, xi)
                       - ref_norm_inf(spec, approx, xi)) <= 1e-12

    def test_invariance_verdicts(self, name, depth):
        spec, approx = bundled(name), approx_for(name, depth)
        observables = [
            SampledObservable(lambda x: 2.5),
            SampledObservable(lambda x: x.coords[0]),
            # equal real parts: only the imaginary part separates the paths,
            # so the lexicographic minimum is decided by its second key
            SampledObservable(lambda x: 1.0 + 1j * math.sin(7.0 * sum(x.coords))),
            random_observable(np.random.RandomState(4243)),
        ]
        for a in observables:
            for n in (1, 2):
                spread = ref_spread(spec, a, n, approx)
                # just below and just above the spread about the lexicographic
                # minimum: a check measuring from any other value flips one
                for tol in (1e-12, spread * (1 - 1e-9), spread * (1 + 1e-9), 10.0):
                    assert is_invariant(spec, a, n, approx, tol) == \
                        ref_is_invariant(spec, a, n, approx, tol), (a, n, tol)


class TestBatching:
    @staticmethod
    def count_apply(monkeypatch):
        calls = []
        original = AffineContraction.apply

        def counted(self, x):
            calls.append(self)
            return original(self, x)

        monkeypatch.setattr(AffineContraction, "apply", counted)
        return calls

    @pytest.mark.parametrize("name", ["two_part_dust", "squares_z2", "penrose"])
    def test_norms_map_each_cloud_once_per_edge(self, monkeypatch, name):
        spec, approx = bundled(name), approx_for(name, 5)
        xi = random_cograph_function(np.random.RandomState(5), spec)
        pairs = sum(len(spec.graph.in_edges(v)) for v in approx.clouds)
        calls = self.count_apply(monkeypatch)
        norm_two(spec, approx, xi)
        assert len(calls) <= pairs
        calls.clear()
        norm_inf(spec, approx, xi)
        assert len(calls) <= pairs

    @pytest.mark.parametrize("name", ["two_part_dust", "squares_z2", "penrose"])
    def test_invariance_maps_each_cloud_once_per_path_step(self, monkeypatch, name):
        spec, approx = bundled(name), approx_for(name, 5)
        paths = sum(1 for v in spec.graph.vertices
                    for p in paths_from(spec.graph, v, 2) if p.range in approx.clouds)
        calls = self.count_apply(monkeypatch)
        # a constant observable never fails, so every vertex is visited
        assert is_invariant(spec, SampledObservable(lambda x: 1.0), 2, approx, 1e-12)
        assert len(calls) <= 2 * paths


def assert_maps_agree(m, points):
    """apply_coords against apply, batched and per point, within 4 ulp of the
    magnitude |M| |x| + |t| of the terms summed.

    Ulps of the result itself are no measure here: numpy's matmul may round
    differently (fused multiply-add, another summation order), and where the
    terms cancel to a result near zero one rounding step of the terms is
    thousands of ulps of the result.
    """
    mapped = np.array([m.apply_coords(tuple(p)) for p in points.tolist()])
    scale = np.abs(points) @ np.abs(m.matrix.T) + np.abs(m.translation)
    for reference in (m.apply(points), np.array([m.apply(p) for p in points])):
        assert np.all(np.abs(mapped - reference) <= 4 * np.spacing(scale))


class TestPointMap:
    @pytest.mark.parametrize("name", list_bundled())
    def test_tuple_map_matches_array_map(self, name):
        spec = bundled(name)
        rng = np.random.RandomState(2024)
        for m in spec.edge_maps.values():
            assert_maps_agree(m, rng.uniform(-2.0, 2.0, size=(1000, spec.dimension)))

    def test_bundled_maps_cover_both_dimensions(self):
        assert {1, 2} <= {bundled(n).dimension for n in list_bundled()}

    @pytest.mark.parametrize("make,coords", [
        (binary_ifs, (0.5, 0.5)),
        (two_part_dust, (0.5,)),
        (two_part_dust, (0.5, 0.5, 0.5)),
    ])
    def test_point_of_wrong_dimension_raises(self, make, coords):
        spec = make()
        path = next(iter(paths_from(spec.graph, spec.graph.vertices[0], 1)))
        one = CographFunction(lambda x, y, e: 1.0)
        with pytest.raises(ValueError):
            inner_product(spec, one, one, LabeledPoint(path.range, coords))
        with pytest.raises(ValueError):
            tensor_eval(spec, [one], path, coords)

    def test_three_dimensional_map(self):
        rng = np.random.RandomState(3)
        m = AffineContraction(0.3 * np.linalg.qr(rng.normal(size=(3, 3)))[0],
                              rng.uniform(-1, 1, 3))
        assert_maps_agree(m, rng.uniform(-2.0, 2.0, size=(1000, 3)))
        for coords in ((0.1, 0.2), (0.1, 0.2, 0.3, 0.4)):
            with pytest.raises(ValueError):
                m.apply_coords(coords)
