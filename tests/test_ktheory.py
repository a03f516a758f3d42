"""Exact integer linear algebra tests with independent oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwlab.errors import PreconditionError
from mwlab.ktheory import (
    ExactnessResult,
    FgAbelianGroup,
    GroupHom,
    IntMatrix,
    Presentation,
    check_exact,
    cokernel,
    graph_algebra_ktheory,
    hermite_normal_form,
    kernel,
    smith_normal_form,
    _lattice_rows,
)


def det_cofactor(m):
    """Naive cofactor expansion; independent of the library's determinant path."""
    n = m.rows
    if n == 0:
        return 1
    if n == 1:
        return m[0, 0]
    total = 0
    for j in range(n):
        minor = IntMatrix([[m[i, k] for k in range(n) if k != j]
                           for i in range(1, n)])
        sign = -1 if j % 2 else 1
        total += sign * m[0, j] * det_cofactor(minor)
    return total


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)]
                      for _ in range(rows)])


def random_unimodular(rng, n, steps=12):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += f * m[j][k]
    return IntMatrix(m)


class TestIntMatrix:
    def test_parse(self):
        assert IntMatrix.parse("3,1;1,3").to_lists() == [[3, 1], [1, 3]]
        assert IntMatrix.parse("2").to_lists() == [[2]]
        with pytest.raises(ValueError):
            IntMatrix.parse("a,b")

    def test_arithmetic(self):
        a = IntMatrix([[1, 2], [3, 4]])
        assert (a @ IntMatrix.identity(2)) == a
        assert (a - a).is_zero
        assert (a ** 3) == a @ a @ a
        assert a.transpose().transpose() == a

    def test_power_matches_repeated_product(self):
        rng = random.Random(7)
        for _ in range(20):
            a = random_matrix(rng, 3, 3, -4, 4)
            p = IntMatrix.identity(3)
            for k in range(5):
                assert a ** k == p
                p = p @ a


class TestHermite:
    def test_identity_fixed(self):
        h, u = hermite_normal_form(IntMatrix.identity(3))
        assert h == IntMatrix.identity(3)
        assert u == IntMatrix.identity(3)

    def test_det_preserved_up_to_sign(self):
        m = IntMatrix([[2, 4], [1, 3]])
        h, u = hermite_normal_form(m)
        assert u @ m == h
        assert abs(det_cofactor(h)) == 2
        assert abs(det_cofactor(u)) == 1

    def test_zero_matrix(self):
        z = IntMatrix.zeros(2, 3)
        h, u = hermite_normal_form(z)
        assert h == z
        assert u == IntMatrix.identity(2)

    def test_canonical_shape(self):
        rng = random.Random(11)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            h, u = hermite_normal_form(m)
            assert u @ m == h
            assert abs(det_cofactor(u)) == 1
            pivots = []
            for row in h.to_lists():
                nz = [j for j, x in enumerate(row) if x != 0]
                if nz:
                    pivots.append(nz[0])
                    assert row[nz[0]] > 0
            assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
            # entries above each pivot reduced into [0, pivot)
            rows = h.to_lists()
            for r, row in enumerate(rows):
                nz = [j for j, x in enumerate(row) if x != 0]
                if not nz:
                    continue
                p = nz[0]
                for above in range(r):
                    assert 0 <= rows[above][p] < row[p]


class TestSmith:
    def test_squares_map(self):
        snf = smith_normal_form(IntMatrix([[-2, -1], [-1, -2]]))
        assert snf.diagonal == (1, 3)

    def test_penrose_map(self):
        snf = smith_normal_form(IntMatrix([[-1, -1], [-1, 0]]))
        assert snf.diagonal == (1, 1)

    def test_diag_6_4(self):
        # gcd 2 and product 24 force diag(2, 12)
        snf = smith_normal_form(IntMatrix([[6, 0], [0, 4]]))
        assert snf.diagonal == (2, 12)

    def test_reconstruction_sweep(self):
        rng = random.Random(23)
        for _ in range(200):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = random_matrix(rng, rows, cols)
            snf = smith_normal_form(m)
            assert snf.U @ m @ snf.V == snf.D
            assert abs(det_cofactor(snf.U)) == 1
            assert abs(det_cofactor(snf.V)) == 1
            diag = snf.diagonal
            assert all(d >= 0 for d in diag)
            live = [d for d in diag if d != 0]
            for a, b in zip(live, live[1:]):
                assert b % a == 0
            assert live + [0] * (len(diag) - len(live)) == list(diag)
            for i in range(snf.D.rows):
                for j in range(snf.D.cols):
                    if i != j:
                        assert snf.D[i, j] == 0

    def test_determinant_consistency(self):
        rng = random.Random(31)
        checked = 0
        while checked < 60:
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n)
            d = det_cofactor(m)
            if d == 0:
                continue
            prod = 1
            for x in smith_normal_form(m).diagonal:
                prod *= x
            assert prod == abs(d)
            checked += 1


class TestKernelCokernel:
    def test_zero_map(self):
        group, basis = kernel(IntMatrix.zeros(2, 2))
        assert group == FgAbelianGroup(2)
        assert basis.cols == 2
        assert cokernel(IntMatrix.zeros(2, 2)) == FgAbelianGroup(2)

    def test_squares_values(self):
        m = IntMatrix([[-2, -1], [-1, -2]])
        group, basis = kernel(m)
        assert group.is_trivial and basis.cols == 0
        assert cokernel(m) == FgAbelianGroup(0, (3,))

    def test_penrose_values(self):
        m = IntMatrix([[-1, -1], [-1, 0]])
        group, _ = kernel(m)
        assert group.is_trivial
        assert cokernel(m).is_trivial

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(41)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -5, 5)
            _, basis = kernel(m)
            if basis.cols:
                assert (m @ basis).is_zero
                # primitive basis: the span is saturated, so every invariant
                # factor of the basis matrix is 1
                factors = [d for d in smith_normal_form(basis).diagonal if d != 0]
                assert len(factors) == basis.cols
                assert all(d == 1 for d in factors)

    def test_cokernel_unimodular_invariance(self):
        rng = random.Random(43)
        for _ in range(50):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n, -4, 4)
            p = random_unimodular(rng, n)
            q = random_unimodular(rng, n)
            assert cokernel(p @ m @ q) == cokernel(m)

    def test_group_order_matches_class_enumeration(self):
        # brute-force oracle on tiny quotients: count residue classes directly
        rng = random.Random(47)
        checked = 0
        while checked < 25:
            m = random_matrix(rng, 2, 2, -3, 3)
            d = abs(det_cofactor(m))
            if d == 0 or d > 8:
                continue
            classes = []
            for x in range(d):
                for y in range(d):
                    v = (x, y)
                    if not any(_equivalent_mod_lattice(v, w, m) for w in classes):
                        classes.append(v)
            group = cokernel(m)
            assert group.order() == len(classes) == d
            checked += 1


def _equivalent_mod_lattice(v, w, m):
    """v - w in column-span(m), decided by an exact rational solve."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    b0, b1 = v[0] - w[0], v[1] - w[1]
    x = Fraction(b0 * m[1, 1] - b1 * m[0, 1], det)
    y = Fraction(b1 * m[0, 0] - b0 * m[1, 0], det)
    return x.denominator == 1 and y.denominator == 1


class TestGraphKTheory:
    def test_squares_example(self):
        kt = graph_algebra_ktheory(IntMatrix([[3, 1], [1, 3]]))
        assert str(kt.K0) == "Z/3Z"
        assert kt.K1.is_trivial

    def test_penrose_example(self):
        kt = graph_algebra_ktheory(IntMatrix([[2, 1], [1, 1]]))
        assert kt.K0.is_trivial
        assert kt.K1.is_trivial

    def test_single_vertex_n_loops(self):
        for n in (2, 3, 5, 10):
            kt = graph_algebra_ktheory(IntMatrix([[n]]))
            expected = FgAbelianGroup(0, (n - 1,)) if n > 2 else FgAbelianGroup(0, (2,))
            if n - 1 == 1:
                expected = FgAbelianGroup(0)
            assert kt.K0 == expected
            assert kt.K1.is_trivial

    def test_single_smith_form_matches_kernel_and_cokernel(self):
        rng = random.Random(59)
        matrices = [IntMatrix([[1]]), IntMatrix([[2, 1], [1, 2]])]
        for _ in range(100):
            n = rng.randint(1, 6)
            matrices.append(random_matrix(rng, n, n, 0, 3))
        singular = 0
        for a in matrices:
            delta = IntMatrix.identity(a.rows) - a.transpose()
            singular += det_cofactor(delta) == 0
            if any(not any(a.row(i)) for i in range(a.rows)):
                # a sink (zero row): coker(1 - A^t) is not K0, so it is refused
                with pytest.raises(ValueError, match="sinks"):
                    graph_algebra_ktheory(a)
                continue
            kt = graph_algebra_ktheory(a)
            assert kt.K0 == cokernel(delta)
            assert kt.K1 == kernel(delta)[0]
            assert kt.invariant_factors == smith_normal_form(delta).diagonal
        assert singular >= 2  # [[1]] and [[2, 1], [1, 2]] at least

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            graph_algebra_ktheory(IntMatrix([[1, 2, 3]]))
        with pytest.raises(ValueError):
            graph_algebra_ktheory(IntMatrix([[-1]]))

    def test_rejects_sinks_and_names_them(self):
        # one vertex and no edges is C, with K0 = Z; coker(1 - 0) = 0 is wrong
        with pytest.raises(ValueError, match=r"zero rows \[0\]"):
            graph_algebra_ktheory(IntMatrix([[0]]))
        with pytest.raises(ValueError, match=r"zero rows \[1\]"):
            graph_algebra_ktheory(IntMatrix([[1, 1], [0, 0]]))

    def test_sources_allowed(self):
        # vertex 0 is a source (zero column): coker(1 - A^t) is still K0
        kt = graph_algebra_ktheory(IntMatrix([[0, 1], [0, 1]]))
        assert kt.K0 == FgAbelianGroup(1)
        assert kt.K1 == FgAbelianGroup(1)


class TestGroupNotation:
    def test_canonical_strings(self):
        assert str(FgAbelianGroup(0)) == "0"
        assert str(FgAbelianGroup(1)) == "Z"
        assert str(FgAbelianGroup(2)) == "Z^2"
        assert str(FgAbelianGroup(0, (3,))) == "Z/3Z"
        assert str(FgAbelianGroup(1, (2, 6))) == "Z + Z/2Z + Z/6Z"

    def test_invariant_factor_normalization(self):
        g = FgAbelianGroup.from_invariant_factors((1, 1, 2, 6, 0))
        assert g == FgAbelianGroup(1, (2, 6))
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (4, 2))


def _hom(domain, codomain, matrix):
    return GroupHom(domain, codomain, IntMatrix(matrix))


class TestExactness:
    def test_short_exact_z2(self):
        z = Presentation.free(1)
        z2 = FgAbelianGroup(0, (2,)).presentation()
        triv = Presentation.trivial()
        seq = [
            GroupHom(triv, z, IntMatrix.zeros(1, 0)),
            _hom(z, z, [[2]]),
            _hom(z, z2, [[1]]),
            GroupHom(z2, triv, IntMatrix.zeros(0, 1)),
        ]
        assert check_exact(seq) == ExactnessResult(True)

    def test_not_exact_z4(self):
        z = Presentation.free(1)
        z4 = FgAbelianGroup(0, (4,)).presentation()
        triv = Presentation.trivial()
        seq = [
            GroupHom(triv, z, IntMatrix.zeros(1, 0)),
            _hom(z, z, [[2]]),
            _hom(z, z4, [[1]]),
            GroupHom(z4, triv, IntMatrix.zeros(0, 1)),
        ]
        result = check_exact(seq)
        assert not result.exact
        assert result.failure_at == 2  # the middle Z: image 2Z versus kernel 4Z

    def test_trivial_six_term_cycle(self):
        triv = Presentation.trivial()
        zero = GroupHom(triv, triv, IntMatrix.zeros(0, 0))
        seq = [zero] * 6
        assert check_exact(seq, cyclic=True).exact

    def test_non_composable_rejected(self):
        z = Presentation.free(1)
        z2 = Presentation.free(2)
        with pytest.raises(PreconditionError):
            check_exact([_hom(z, z, [[1]]), _hom(z2, z2, [[1, 0], [0, 1]])])

    def test_ill_defined_hom_rejected(self):
        z2 = FgAbelianGroup(0, (2,)).presentation()
        z = Presentation.free(1)
        with pytest.raises(ValueError):
            _hom(z2, z, [[1]])  # Z/2 -> Z sending generator to 1 is not a hom

    def test_randomized_presentation_cokernels(self):
        rng = random.Random(53)
        for _ in range(40):
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            m = random_matrix(rng, b, a, -4, 4)
            za = Presentation.free(a)
            zb = Presentation.free(b)
            cok = Presentation(b, m)
            triv = Presentation.trivial()
            seq = [
                _hom(za, zb, m.to_lists()),
                GroupHom(zb, cok, IntMatrix.identity(b)),
                GroupHom(cok, triv, IntMatrix.zeros(0, b)),
            ]
            assert check_exact(seq).exact


# --- reference: the relation-by-relation membership test ----------------------
# GroupHom.is_well_defined reduced the image of each domain relation against
# the codomain lattice's HNF rows; kept verbatim, with IntMatrix.apply (whose
# only caller it was) written out as _ref_apply.


def _ref_apply(matrix, vector):
    """Matrix-vector product on an integer vector."""
    if len(vector) != matrix.cols:
        raise ValueError("vector length mismatch")
    return tuple(sum(a * x for a, x in zip(row, vector))
                 for row in matrix.to_lists())


def _ref_reduce_against(rows, vector):
    """Reduce a vector against HNF basis rows; zero iff in the lattice."""
    v = list(vector)
    for row in rows:
        pivot_col = next(j for j, x in enumerate(row) if x != 0)
        if v[pivot_col] % row[pivot_col] == 0:
            q = v[pivot_col] // row[pivot_col]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
    return v


def _ref_lattice_contains(rows, vector):
    return all(x == 0 for x in _ref_reduce_against(rows, vector))


def ref_is_well_defined(domain, codomain, matrix):
    """matrix maps every domain relation into the codomain relation lattice."""
    if domain.relations.cols == 0:
        return True
    target = _lattice_rows(codomain.relations)
    for j in range(domain.relations.cols):
        image = _ref_apply(matrix, domain.relations.column(j))
        if any(image):
            if not target or not _ref_lattice_contains(target, image):
                return False
    return True


@st.composite
def hom_candidates(draw):
    """(domain, codomain, matrix) with 0..3 generators and relations each."""
    def matrix(rows, cols):
        data = draw(st.lists(st.lists(st.integers(-4, 4), min_size=cols,
                                      max_size=cols),
                             min_size=rows, max_size=rows))
        return IntMatrix(data) if rows else IntMatrix.zeros(0, cols)

    gens_dom, gens_cod = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    relations_cod = matrix(gens_cod, draw(st.integers(0, 3)))
    hom = matrix(gens_cod, gens_dom)
    relations_dom = matrix(gens_dom, draw(st.integers(0, 3)))
    return (Presentation(gens_dom, relations_dom),
            Presentation(gens_cod, relations_cod), hom)


@settings(max_examples=500, deadline=None)
@given(hom_candidates())
def test_well_defined_matches_membership_loop(candidate):
    domain, codomain, matrix = candidate
    if ref_is_well_defined(domain, codomain, matrix):
        assert GroupHom(domain, codomain, matrix).is_well_defined()
    else:
        with pytest.raises(ValueError, match="domain relations"):
            GroupHom(domain, codomain, matrix)
