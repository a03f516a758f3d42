"""The Smith and Hermite eliminations give exactly the transforms they gave
as one plain scan-and-step loop that always tracked U and V.

The reference below is that loop, kept verbatim. The library now builds each
transform only when its caller reads it, finds the Smith pivot one row at a
time and batches the column steps; every output must still match the
reference entry for entry.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from graph_moves import halve_row, one_minus_transpose, out_split, \
    random_irreducible
from mwlab.ktheory import (
    FgAbelianGroup,
    IntMatrix,
    SmithDecomposition,
    cokernel,
    graph_algebra_ktheory,
    hermite_normal_form,
    kernel,
    smith_normal_form,
)


# --- reference: the elimination as it was, verbatim -------------------------


class _Worksheet:
    """Mutable matrix with tracked unimodular row (and optionally column) ops."""

    def __init__(self, m, track_cols=False):
        self.a = [list(row) for row in m._data]
        self.rows, self.cols = m.rows, m.cols
        self.u = [[1 if i == j else 0 for j in range(self.rows)]
                  for i in range(self.rows)]
        self.v = None
        if track_cols:
            self.v = [[1 if i == j else 0 for j in range(self.cols)]
                      for i in range(self.cols)]

    def swap_rows(self, i, j):
        if i != j:
            self.a[i], self.a[j] = self.a[j], self.a[i]
            self.u[i], self.u[j] = self.u[j], self.u[i]

    def negate_row(self, i):
        self.a[i] = [-x for x in self.a[i]]
        self.u[i] = [-x for x in self.u[i]]

    def add_row(self, target, source, factor):
        if factor:
            self.a[target] = [x + factor * y
                              for x, y in zip(self.a[target], self.a[source])]
            self.u[target] = [x + factor * y
                              for x, y in zip(self.u[target], self.u[source])]

    def swap_cols(self, i, j):
        if i != j:
            for row in self.a:
                row[i], row[j] = row[j], row[i]
            for row in self.v:
                row[i], row[j] = row[j], row[i]

    def negate_col(self, j):
        for row in self.a:
            row[j] = -row[j]
        for row in self.v:
            row[j] = -row[j]

    def add_col(self, target, source, factor):
        if factor:
            for row in self.a:
                row[target] += factor * row[source]
            for row in self.v:
                row[target] += factor * row[source]


def ref_hermite_normal_form(m):
    """Row-style Hermite normal form.

    Returns ``(H, U)`` with ``U @ m == H``, ``U`` unimodular, ``H`` in row
    echelon form with positive pivots and entries above each pivot reduced
    into ``[0, pivot)``.
    """
    w = _Worksheet(m)
    pivot_row = 0
    for col in range(w.cols):
        # gcd-reduce the entries at or below pivot_row in this column
        while True:
            live = [i for i in range(pivot_row, w.rows) if w.a[i][col] != 0]
            if not live:
                break
            best = min(live, key=lambda i: abs(w.a[i][col]))
            w.swap_rows(pivot_row, best)
            if w.a[pivot_row][col] < 0:
                w.negate_row(pivot_row)
            done = True
            for i in range(pivot_row + 1, w.rows):
                q = w.a[i][col] // w.a[pivot_row][col]
                w.add_row(i, pivot_row, -q)
                if w.a[i][col] != 0:
                    done = False
            if done:
                break
        if pivot_row < w.rows and w.a[pivot_row][col] != 0:
            p = w.a[pivot_row][col]
            for i in range(pivot_row):
                q = w.a[i][col] // p
                w.add_row(i, pivot_row, -q)
            pivot_row += 1
            if pivot_row == w.rows:
                break
    return sized(w.a, w.rows, w.cols), sized(w.u, w.rows, w.rows)


def sized(rows, height, width):
    """IntMatrix(rows), kept height x width when there are no rows."""
    return IntMatrix(rows) if rows else IntMatrix.zeros(height, width)


def ref_smith_normal_form(m):
    """Smith normal form by elementary operations with minimal-entry pivoting."""
    w = _Worksheet(m, track_cols=True)
    n = min(w.rows, w.cols)
    for k in range(n):
        while True:
            # find the minimal nonzero entry in the trailing block
            best = None
            for i in range(k, w.rows):
                for j in range(k, w.cols):
                    x = w.a[i][j]
                    if x != 0 and (best is None or abs(x) < abs(w.a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            w.swap_rows(k, best[0])
            w.swap_cols(k, best[1])
            if w.a[k][k] < 0:
                w.negate_row(k)
            pivot = w.a[k][k]
            dirty = False
            for i in range(k + 1, w.rows):
                q = w.a[i][k] // pivot
                w.add_row(i, k, -q)
                if w.a[i][k] != 0:
                    dirty = True
            for j in range(k + 1, w.cols):
                q = w.a[k][j] // pivot
                w.add_col(j, k, -q)
                if w.a[k][j] != 0:
                    dirty = True
            if dirty:
                continue
            # enforce divisibility: pivot must divide the trailing block
            offender = None
            for i in range(k + 1, w.rows):
                for j in range(k + 1, w.cols):
                    if w.a[i][j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            w.add_row(k, offender, 1)
        if k < w.rows and k < w.cols and w.a[k][k] == 0:
            break
    return SmithDecomposition(sized(w.u, w.rows, w.rows),
                              sized(w.a, w.rows, w.cols),
                              sized(w.v, w.cols, w.cols))


def ref_kernel_basis(m):
    snf = ref_smith_normal_form(m)
    diag = snf.diagonal
    basis_cols = [snf.V.column(j) for j in range(m.cols)
                  if j >= len(diag) or diag[j] == 0]
    return IntMatrix.from_columns(basis_cols, rows=m.cols)


def ref_cokernel(m):
    snf = ref_smith_normal_form(m)
    return FgAbelianGroup.from_invariant_factors(
        snf.diagonal, extra_free=m.rows - len(snf.diagonal))


# --- comparison --------------------------------------------------------------


def assert_same_as_reference(m):
    ref = ref_smith_normal_form(m)
    got = smith_normal_form(m)
    assert (got.U, got.D, got.V) == (ref.U, ref.D, ref.V)
    assert got.U @ m @ got.V == got.D
    h, u = hermite_normal_form(m)
    assert (h, u) == ref_hermite_normal_form(m)
    assert u @ m == h
    group, basis = kernel(m)
    assert basis == ref_kernel_basis(m)
    assert group == FgAbelianGroup(basis.cols)
    assert cokernel(m) == ref_cokernel(m)
    if m.is_square and all(x >= 0 for row in m.to_lists() for x in row):
        if any(not any(row) for row in m.to_lists()):
            # a sink (zero row): coker(1 - A^t) is not K0, so it is refused
            with pytest.raises(ValueError, match="sinks"):
                graph_algebra_ktheory(m)
        else:
            assert graph_algebra_ktheory(m).invariant_factors == \
                ref_smith_normal_form(
                    IntMatrix.identity(m.rows) - m.transpose()).diagonal


@st.composite
def int_matrices(draw, square=False, low=-6):
    """Shapes 0..8 x 0..8, entries low..6, some rows and columns forced to 0."""
    rows = draw(st.integers(0, 8))
    cols = rows if square else draw(st.integers(0, 8))
    data = draw(st.lists(st.lists(st.integers(low, 6), min_size=cols,
                                  max_size=cols),
                         min_size=rows, max_size=rows))
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=rows))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=cols))
    data = [[0 if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(data)]
    return IntMatrix(data) if rows else IntMatrix.zeros(0, cols)


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_matches_reference_elimination(m):
    assert_same_as_reference(m)


@settings(max_examples=100, deadline=None)
@given(int_matrices(square=True, low=0))
def test_vertex_matrices_match_reference(m):
    """Nonnegative square input also reaches ``graph_algebra_ktheory``."""
    assert_same_as_reference(m)


@pytest.mark.parametrize("n", [20, 24, 30])
@pytest.mark.parametrize("moved", [False, True], ids=["plain", "out-split"])
def test_graph_laplacians_match_reference(n, moved):
    """1 - A^t of a seeded random irreducible A, and of an out-split of A."""
    a = random_irreducible(n, n)
    if moved:
        v = max(range(n), key=lambda i: sum(a[i]))
        a = out_split(a, v, halve_row(a[v]))
    assert_same_as_reference(IntMatrix(one_minus_transpose(a)))
    assert_same_as_reference(IntMatrix(a))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_sides_keep_their_shape(shape):
    m = IntMatrix.zeros(*shape)
    rows, cols = shape
    snf = smith_normal_form(m)
    assert (snf.U.shape, snf.D.shape, snf.V.shape) == \
        ((rows, rows), shape, (cols, cols))
    assert snf.U @ m @ snf.V == snf.D
    h, u = hermite_normal_form(m)
    assert (h.shape, u.shape) == (shape, (rows, rows))
    assert u @ m == h


def test_columns_of_length_zero_keep_their_count():
    assert IntMatrix.from_columns([(), ()], rows=0).shape == (0, 2)
    assert IntMatrix.from_columns([(), ()]).shape == (0, 2)
