"""Oracle: the K-groups of a graph algebra survive out-splitting, in-splitting
and passing to the dual graph, and agree with det(1 - A^t) and the nullity of
1 - A^t computed over the rationals."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from graph_moves import dual_graph, in_split, one_minus_transpose, out_split, \
    transpose
from mwlab.ktheory import IntMatrix, graph_algebra_ktheory


def rank_and_det(m):
    """Rank and determinant of a square integer matrix by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n, rank, det = len(a), 0, Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(rank, n) if a[i][col] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            det = -det
        det *= a[rank][col]
        for i in range(rank + 1, n):
            f = a[i][col] / a[rank][col]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank, det


@st.composite
def vertex_matrices(draw):
    """n <= 7, entries 0..3, a Hamiltonian cycle of ones: no sinks or sources."""
    n = draw(st.integers(1, 7))
    a = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    for i in range(n):
        a[i][(i + 1) % n] = max(a[i][(i + 1) % n], 1)
    return a


@st.composite
def splittable(draw):
    """A vertex matrix, a vertex v with at least two out-edges, and the
    out-edges of v kept by its first copy (at least one, not all)."""
    a = draw(vertex_matrices().filter(lambda a: any(sum(r) >= 2 for r in a)))
    v = draw(st.sampled_from([i for i, r in enumerate(a) if sum(r) >= 2]))
    first = [draw(st.integers(0, x)) for x in a[v]]
    nonzero = next(j for j, x in enumerate(a[v]) if x)
    if sum(first) == 0:
        first[nonzero] = 1
    elif first == a[v]:
        first[nonzero] -= 1
    return a, v, first


def ktheory(a):
    kt = graph_algebra_ktheory(IntMatrix(a))
    return kt.K0, kt.K1


@settings(max_examples=60, deadline=None)
@given(vertex_matrices())
def test_groups_match_rational_det_and_nullity(a):
    k0, k1 = ktheory(a)
    rank, det = rank_and_det(one_minus_transpose(a))
    nullity = len(a) - rank
    assert k0.free_rank == nullity and k1.free_rank == nullity
    assert k1.torsion == ()
    if det:
        assert k0.order() == abs(det)


@settings(max_examples=40, deadline=None)
@given(splittable())
def test_out_split_keeps_groups(case):
    a, v, first = case
    assert ktheory(out_split(a, v, first)) == ktheory(a)


@settings(max_examples=40, deadline=None)
@given(splittable())
def test_in_split_keeps_groups(case):
    # split the in-edges of v: a vertex with two out-edges in A^t
    at, v, first = case
    a = transpose(at)
    assert ktheory(in_split(a, v, first)) == ktheory(a)


@settings(max_examples=60, deadline=None)
@given(vertex_matrices())
def test_dual_graph_keeps_groups(a):
    assert ktheory(dual_graph(a)) == ktheory(a)
