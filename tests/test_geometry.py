import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import two_tree_hausdorff
from mwlab.errors import GeometryError
from mwlab.geometry import (
    AffineContraction,
    ConvexPolygon,
    Interval,
    _signed_area,
    _uncovered_area,
    contraction_bounds,
    hausdorff_distance,
    interval_in_union,
    intervals_disjoint,
    polygon_in_union,
    polygons_disjoint,
    similarity_from_pairs,
    similarity_from_params,
)

RNG = np.random.RandomState(20260809)


def random_contraction(rng, d=2):
    while True:
        m = rng.uniform(-0.6, 0.6, size=(d, d))
        try:
            return AffineContraction(m, rng.uniform(-1, 1, size=d))
        except GeometryError:
            continue


def brute_hausdorff(a, b):
    d_ab = max(min(np.linalg.norm(x - y) for y in b) for x in a)
    d_ba = max(min(np.linalg.norm(x - y) for y in a) for x in b)
    return max(d_ab, d_ba)


class TestContractionBounds:
    def test_similarity_bounds_coincide(self):
        m = similarity_from_params(0.5, 30.0, (0, 0)).matrix
        lo, hi = contraction_bounds(m)
        assert lo == pytest.approx(0.5, abs=1e-12)
        assert hi == pytest.approx(0.5, abs=1e-12)

    def test_triangular_matrix_against_quadratic_oracle(self):
        m = np.array([[0.5, 0.2], [0.0, 0.3]])
        # closed-form eigenvalues of M^T M via the quadratic formula
        g = m.T @ m
        tr, det = g[0, 0] + g[1, 1], g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        disc = math.sqrt(tr * tr - 4 * det)
        expect_hi = math.sqrt((tr + disc) / 2)
        expect_lo = math.sqrt((tr - disc) / 2)
        lo, hi = contraction_bounds(m)
        assert lo == pytest.approx(expect_lo, rel=1e-12)
        assert hi == pytest.approx(expect_hi, rel=1e-12)

    def test_non_contraction_rejected(self):
        lo, hi = contraction_bounds(np.array([[1.0, 0.0], [0.0, 0.5]]))
        assert hi == pytest.approx(1.0)
        with pytest.raises(GeometryError):
            AffineContraction([[1.0, 0.0], [0.0, 0.5]], [0.0, 0.0])

    def test_singular_rejected(self):
        with pytest.raises(GeometryError):
            contraction_bounds(np.array([[0.5, 0.0], [0.0, 0.0]]))


class TestSimilarityFromParams:
    def test_half_turn_30(self):
        s = similarity_from_params(0.5, 30.0, (0, 0))
        expected = 0.5 * np.array([
            [math.cos(math.radians(30)), -math.sin(math.radians(30))],
            [math.sin(math.radians(30)), math.cos(math.radians(30))]])
        np.testing.assert_allclose(s.matrix, expected, atol=1e-15)
        np.testing.assert_allclose(s.translation, [0, 0], atol=1e-15)

    def test_fixed_point_equation(self):
        s = similarity_from_params(0.25, -60.0, (1, 0))
        np.testing.assert_allclose(s.apply(np.array([1.0, 0.0])), [1, 0], atol=1e-14)
        np.testing.assert_allclose(s.translation,
                                   np.array([1, 0]) - s.matrix @ np.array([1, 0]),
                                   atol=1e-15)

    def test_composition_multiplies_ratio(self):
        s = similarity_from_params(0.9, 0.0, (0, 0))
        ss = s.compose(s)
        assert ss.c_upper == pytest.approx(0.81, abs=1e-12)

    def test_ratio_range_enforced(self):
        with pytest.raises(GeometryError):
            similarity_from_params(1.1, 0.0, (0, 0))
        with pytest.raises(GeometryError):
            similarity_from_params(0.0, 0.0, (0, 0))


class TestSimilarityFromPairs:
    def test_plain_halving(self):
        s = similarity_from_pairs((0, 0), (0, 0), (1, 1), (0.5, 0.5))
        np.testing.assert_allclose(s.matrix, 0.5 * np.eye(2), atol=1e-15)
        assert s.c_lower == pytest.approx(0.5)

    def test_ratio_one_rejected(self):
        with pytest.raises(GeometryError):
            similarity_from_pairs((0, 0), (1, 0), (1, 0), (2, 0))

    def test_coincident_sources_rejected(self):
        with pytest.raises(GeometryError):
            similarity_from_pairs((1, 1), (0, 0), (1, 1), (1, 0))

    def test_squares_corner_map(self):
        # A=(0,0) -> C=(1,1), C -> O=(1/2,1/2): both pairs must map exactly
        s = similarity_from_pairs((0, 0), (1, 1), (1, 1), (0.5, 0.5))
        np.testing.assert_allclose(s.apply(np.array([0.0, 0.0])), [1, 1], atol=1e-12)
        np.testing.assert_allclose(s.apply(np.array([1.0, 1.0])), [0.5, 0.5], atol=1e-12)
        assert s.c_lower == pytest.approx(s.c_upper)
        assert s.c_upper == pytest.approx(math.sqrt(0.5) / math.sqrt(2), abs=1e-12)

    def test_reflected_map_reverses_orientation(self):
        s = similarity_from_pairs((0, 0), (0, 0), (1, 1), (0.5, 0.5), reflect=True)
        np.testing.assert_allclose(s.apply(np.array([1.0, 1.0])), [0.5, 0.5], atol=1e-12)
        assert np.linalg.det(s.matrix) < 0

    def test_defining_pairs_reproduced(self):
        rng = np.random.RandomState(5)
        for _ in range(50):
            p1, p2 = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            q1 = rng.uniform(-1, 1, 2) * 0.3
            q2 = q1 + (p2 - p1) * 0.4
            for reflect in (False, True):
                s = similarity_from_pairs(p1, q1, p2, q2, reflect=reflect)
                np.testing.assert_allclose(s.apply(p1), q1, atol=1e-12)
                np.testing.assert_allclose(s.apply(p2), q2, atol=1e-12)
                assert s.c_lower == pytest.approx(s.c_upper, rel=1e-12)


class TestApplyAndCompose:
    def test_plain_scaling(self):
        s = AffineContraction(0.5 * np.eye(2), [0, 0])
        np.testing.assert_allclose(s.apply(np.array([2.0, 0.0])), [1, 0])

    def test_matches_naive_multiply(self):
        rng = np.random.RandomState(11)
        for _ in range(30):
            s = random_contraction(rng)
            x = rng.uniform(-3, 3, 2)
            naive = [s.matrix[0, 0] * x[0] + s.matrix[0, 1] * x[1] + s.translation[0],
                     s.matrix[1, 0] * x[0] + s.matrix[1, 1] * x[1] + s.translation[1]]
            np.testing.assert_allclose(s.apply(x), naive, atol=1e-14)

    def test_composition_associates_with_application(self):
        rng = np.random.RandomState(13)
        for _ in range(30):
            f, g = random_contraction(rng), random_contraction(rng)
            x = rng.uniform(-2, 2, 2)
            np.testing.assert_allclose(f.compose(g).apply(x), f.apply(g.apply(x)),
                                       atol=1e-12)
            assert f.compose(g).c_upper <= f.c_upper * g.c_upper + 1e-12

    def test_two_sided_contraction_inequality(self):
        rng = np.random.RandomState(17)
        for _ in range(50):
            s = random_contraction(rng)
            x, y = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            gap = np.linalg.norm(x - y)
            image_gap = np.linalg.norm(s.apply(x) - s.apply(y))
            assert s.c_lower * gap - 1e-12 <= image_gap <= s.c_upper * gap + 1e-12

    def test_vectorized_apply(self):
        s = random_contraction(np.random.RandomState(19))
        pts = np.random.RandomState(23).uniform(-1, 1, (40, 2))
        batch = s.apply(pts)
        for i in range(len(pts)):
            np.testing.assert_allclose(batch[i], s.apply(pts[i]), atol=1e-14)


class TestHausdorff:
    def test_identical_sets(self):
        pts = RNG.uniform(0, 1, (30, 2))
        assert hausdorff_distance(pts, pts) == 0.0

    def test_three_four_five(self):
        assert hausdorff_distance([[0, 0]], [[3, 4]]) == pytest.approx(5.0)

    def test_against_brute_force(self):
        rng = np.random.RandomState(29)
        for _ in range(5):
            a = rng.uniform(-1, 1, (200, 2))
            b = rng.uniform(-1, 1, (180, 2))
            assert hausdorff_distance(a, b) == pytest.approx(brute_hausdorff(a, b),
                                                             abs=1e-12)

    def test_metric_properties(self):
        rng = np.random.RandomState(31)
        for _ in range(10):
            a = rng.uniform(0, 1, (15, 2))
            b = rng.uniform(0, 1, (12, 2))
            c = rng.uniform(0, 1, (10, 2))
            dab = hausdorff_distance(a, b)
            dba = hausdorff_distance(b, a)
            assert dab == dba
            assert hausdorff_distance(a, a) == 0.0
            assert dab <= hausdorff_distance(a, c) + hausdorff_distance(c, b) + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            hausdorff_distance(np.empty((0, 2)), [[0, 0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        b = np.zeros((3, 2))
        b[1, 0] = bad
        with pytest.raises(GeometryError, match=r"finite.*\(1, 2\) and \(3, 2\)"):
            hausdorff_distance([[0.0, 0.0]], b)
        with pytest.raises(GeometryError, match=r"finite.*\(3, 2\) and \(1, 2\)"):
            hausdorff_distance(b, [[0.0, 0.0]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(GeometryError, match=r"\(4, 1\) and \(2, 2\)"):
            hausdorff_distance(np.zeros((4, 1)), np.zeros((2, 2)))
        with pytest.raises(GeometryError, match=r"\(2, 2, 1\) and \(2, 2\)"):
            hausdorff_distance(np.zeros((2, 2, 1)), np.zeros((2, 2)))


class TestHausdorffOracle:
    """hausdorff_distance returns exactly the float of the two-tree formula."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_random_sets_equal_exactly(self, d):
        rng = np.random.RandomState(37 + d)
        for n, m in ((1, 1), (1, 40), (40, 1), (50, 50), (80, 300), (300, 80),
                     (700, 2000)):
            a = rng.uniform(-1, 1, (n, d))
            b = rng.uniform(-1, 1, (m, d))
            expect = two_tree_hausdorff(a, b)
            assert hausdorff_distance(a, b) == expect
            assert hausdorff_distance(b, a) == expect

    def test_refinement_of_a_cloud_takes_one_tree(self, tree_builds):
        # every point of the coarse set is the nearest neighbour of its
        # children, so the second tree is never needed
        rng = np.random.RandomState(41)
        coarse = rng.uniform(0, 1, (500, 2))
        fine = np.vstack([coarse + rng.uniform(-1e-3, 1e-3, coarse.shape)
                          for _ in range(4)])
        assert hausdorff_distance(coarse, fine) == two_tree_hausdorff(coarse, fine)
        assert tree_builds == [500]

    def test_outlier_in_the_smaller_set_takes_the_second_tree(self, tree_builds):
        rng = np.random.RandomState(43)
        large = rng.uniform(0, 1, (400, 2))
        small = np.vstack([large[::4], [[10.0, -7.0]]])
        got = hausdorff_distance(small, large)
        assert got == two_tree_hausdorff(small, large)
        assert got == pytest.approx(brute_hausdorff(small, large), abs=1e-12)
        assert got > 10.0
        assert tree_builds == [101, 400]

    def test_duplicate_points(self, tree_builds):
        rng = np.random.RandomState(47)
        base = rng.uniform(0, 1, (60, 2))
        a = np.vstack([base, base[:20], base[:5]])
        b = np.vstack([base[::2], base[::2], rng.uniform(0, 1, (30, 2))])
        for x, y in ((a, b), (b, a), (a, a), (a, base)):
            assert hausdorff_distance(x, y) == two_tree_hausdorff(x, y)
        assert hausdorff_distance(a, base) == 0.0

    def test_signed_zeros(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        neg = np.array([[-0.0, -0.0], [1.0, -0.0]])
        assert hausdorff_distance(pos, neg) == 0.0
        assert math.copysign(1.0, hausdorff_distance(pos, neg)) == 1.0
        assert hausdorff_distance([[-0.0]], [[0.0], [3.0]]) == 3.0
        assert hausdorff_distance(pos, neg) == two_tree_hausdorff(pos, neg)

    def test_single_point_sets(self, tree_builds):
        assert hausdorff_distance([[0.5]], [[2.0]]) == 1.5
        assert hausdorff_distance([[1.0, 1.0]], [[1.0, 1.0]]) == 0.0
        pts = np.random.RandomState(53).uniform(-1, 1, (25, 2))
        assert hausdorff_distance([[0.0, 0.0]], pts) == \
            two_tree_hausdorff([[0.0, 0.0]], pts)
        assert tree_builds == [1, 1, 1]

    def test_equal_sizes(self):
        rng = np.random.RandomState(59)
        for _ in range(5):
            a = rng.uniform(-1, 1, (120, 2))
            b = rng.uniform(-1, 1, (120, 2))
            assert hausdorff_distance(a, b) == two_tree_hausdorff(a, b)
            assert hausdorff_distance(b, a) == two_tree_hausdorff(a, b)


def square(x0, y0, x1, y1):
    return ConvexPolygon([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


class TestPolygons:
    def test_shared_edge_counts_as_disjoint(self):
        assert polygons_disjoint(square(0, 0, 1, 1), square(1, 0, 2, 1))

    def test_overlap_detected(self):
        assert not polygons_disjoint(square(0, 0, 1, 1), square(0.5, 0, 1.5, 1))

    def test_separated(self):
        assert polygons_disjoint(square(0, 0, 1, 1), square(3, 3, 4, 4))

    def test_cover_by_overlapping_strips(self):
        p = square(0, 0, 1, 1)
        union = [square(0, 0, 1, 0.6), square(0, 0.4, 1, 1)]
        assert polygon_in_union(p, union, tol=1e-12)

    def test_half_cover_fails(self):
        p = square(0, 0, 1, 1)
        assert not polygon_in_union(p, [square(0, 0, 0.5, 1)], tol=1e-9)
        # residual area is exactly one half
        assert polygon_in_union(p, [square(0, 0, 0.5, 1)], tol=0.5)

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(GeometryError):
            ConvexPolygon([[0, 0], [1, 0], [2, 0]])
        with pytest.raises(GeometryError):
            ConvexPolygon([[0, 0], [1, 0], [1, 1], [0.5, 0.5]])

    def test_orientation_normalized(self):
        p = ConvexPolygon([[0, 0], [0, 1], [1, 1], [1, 0]])  # clockwise input
        assert p.area == pytest.approx(1.0)

    def test_empty_union_covers_nothing(self):
        assert not polygon_in_union(square(0, 0, 1, 1), [], tol=1.0)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sub_square_tilings_cover_at_tol_zero(self, k):
        # inclusion-exclusion read a residual of -2.2e-16 on the 3x3 tiling
        p = square(0, 0, 1, 1)
        cells = [square(i / k, j / k, (i + 1) / k, (j + 1) / k)
                 for i in range(k) for j in range(k)]
        assert 0.0 <= _uncovered_area(p, cells) <= 1e-15
        assert polygon_in_union(p, cells, tol=0.0)
        assert _uncovered_area(p, cells[1:]) == pytest.approx(1 / k**2,
                                                              rel=1e-12)
        assert not polygon_in_union(p, cells[1:], tol=0.0)

    def test_more_than_sixteen_pieces(self):
        # inclusion-exclusion refused unions of more than 16 pieces
        p = square(0, 0, 1, 1)
        strips = [square(i / 17, 0, (i + 1) / 17, 1) for i in range(17)]
        assert polygon_in_union(p, strips, tol=0.0)
        assert not polygon_in_union(p, strips[:8] + strips[9:], tol=1e-9)
        assert polygon_in_union(p, strips[:8] + strips[9:], tol=1 / 17)


# --- the cover test against the one it replaced -----------------------------
#
# `clip_convex`, `_poly_area_raw`, `_intersection_area` and the body of
# `ref_polygon_in_union` are the earlier cover test, kept verbatim. It summed
# the areas of p's intersections with every subset of the union by
# inclusion-exclusion, 2^n terms for n pieces, and refused n > 16.


def clip_convex(subject, clip):
    """Intersection of two convex polygons (Sutherland-Hodgman).

    Accepts ConvexPolygon or raw (n, 2) vertex arrays. Returns an (n, 2)
    array; fewer than 3 vertices means the intersection has empty interior.
    """
    sv = subject.vertices if isinstance(subject, ConvexPolygon) else np.asarray(subject)
    cv = clip.vertices if isinstance(clip, ConvexPolygon) else np.asarray(clip)
    pts = [tuple(v) for v in sv]
    n = len(cv)
    for i in range(n):
        a, b = cv[i], cv[(i + 1) % n]
        ex, ey = b[0] - a[0], b[1] - a[1]
        out = []
        m = len(pts)
        if m == 0:
            break
        side = [ex * (p[1] - a[1]) - ey * (p[0] - a[0]) for p in pts]
        for j in range(m):
            p, sp = pts[j], side[j]
            q, sq = pts[(j + 1) % m], side[(j + 1) % m]
            if sp >= 0:
                out.append(p)
            if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
                t = sp / (sp - sq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        pts = out
    return np.array(pts, dtype=float).reshape(-1, 2)


def _poly_area_raw(pts):
    if len(pts) < 3:
        return 0.0
    return abs(_signed_area(pts))


def _intersection_area(polys):
    """Area of the common intersection of a list of convex polygons."""
    pts = polys[0].vertices
    for q in polys[1:]:
        pts = clip_convex(pts, q)
        if len(pts) < 3:
            return 0.0
    return _poly_area_raw(pts)


def ref_polygon_in_union(p, union, tol):
    """True iff polygon p is covered by the union, up to residual area tol*area(p).

    The covered area inside p is computed exactly (up to float arithmetic) by
    inclusion-exclusion over the convex pieces of the union.
    """
    if not union:
        return p.area <= 0
    if len(union) > 16:
        raise GeometryError("union too large for inclusion-exclusion cover test")
    covered = 0.0
    n = len(union)
    for mask in range(1, 1 << n):
        subset = [union[i] for i in range(n) if mask >> i & 1]
        area = _intersection_area([p] + subset)
        if area == 0.0:
            continue
        covered += area if bin(mask).count("1") % 2 else -area
    residual = p.area - covered
    return residual <= tol * p.area + 1e-12 * max(1.0, p.area)


GRID = 8
# four cells tiling [0, 1]^2, so that some unions cover p exactly along
# shared edges
QUARTERS = [((x, y), (x + 0.5, y), (x + 0.5, y + 0.5), (x, y + 0.5))
            for x in (0.0, 0.5) for y in (0.0, 0.5)]


def lattice_hull(points):
    """Convex hull of integer points, counterclockwise, with no collinear
    vertex (Andrew's monotone chain)."""
    def turns_left(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) > 0

    def chain(seq):
        out = []
        for c in seq:
            while len(out) >= 2 and not turns_left(out[-2], out[-1], c):
                out.pop()
            out.append(c)
        return out[:-1]

    pts = sorted(set(points))
    return chain(pts) + chain(pts[::-1])


@st.composite
def lattice_polygons(draw):
    """Vertices of a convex polygon on the 1/GRID lattice in [0, 1]^2."""
    corner = st.tuples(st.integers(0, GRID), st.integers(0, GRID))
    hull = lattice_hull(draw(st.lists(corner, min_size=3, max_size=8)))
    assume(len(hull) >= 3)
    return [(x / GRID, y / GRID) for x, y in hull]


@st.composite
def cover_cases(draw):
    """A convex p and a union of 1-8 convex pieces, all turned by one angle
    (so that a turned lattice point is no longer exact)."""
    quarters = draw(st.lists(st.sampled_from(QUARTERS), unique=True,
                             max_size=4))
    union = list(quarters) + draw(st.lists(lattice_polygons(),
                                     min_size=0 if quarters else 1,
                                     max_size=8 - len(quarters)))
    p = draw(lattice_polygons())
    turn = draw(st.sampled_from((0.0, 0.3, 2.5)))
    rot = np.array([[math.cos(turn), -math.sin(turn)],
                    [math.sin(turn), math.cos(turn)]])
    return (ConvexPolygon(np.array(p) @ rot.T),
            [ConvexPolygon(np.array(q) @ rot.T) for q in union])


COVER_TOLS = (0.0, 1e-9, 0.01, 0.1, 0.3)


@settings(max_examples=100, deadline=None)
@given(cover_cases())
def test_cover_matches_inclusion_exclusion(case):
    p, union = case
    assert _uncovered_area(p, union) >= 0.0
    for tol in COVER_TOLS:
        assert polygon_in_union(p, union, tol) == \
            ref_polygon_in_union(p, union, tol)


class TestIntervals:
    def test_touching_is_disjoint(self):
        assert intervals_disjoint(Interval(0, 0.5), Interval(0.5, 1))

    def test_overlap(self):
        assert not intervals_disjoint(Interval(0, 0.6), Interval(0.4, 1))

    def test_cover(self):
        assert interval_in_union(Interval(0, 1), [Interval(0, 0.6), Interval(0.5, 1)],
                                 tol=1e-12)
        assert not interval_in_union(Interval(0, 1), [Interval(0, 0.4)], tol=1e-9)

    def test_empty_interval_rejected(self):
        with pytest.raises(GeometryError):
            Interval(1.0, 1.0)
