"""The transform-free lattice route gives the answers of the reference
eliminations.

``_lattice_rows`` (extended-gcd insertion, then Hermite reduction) must give
the nonzero rows of the reference Hermite normal form of m^t, and
``check_exact`` (each lattice once per call, no Smith form for a kernel that
is 0) must decide every chain as the check built from the reference
Hermite form and the reference kernel basis does.
"""

import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
import pytest

import mwlab.ktheory
from graph_moves import dual_graph, halve_row, in_split, one_minus_transpose, \
    out_split, random_irreducible
from mwlab.ktheory import (
    ExactnessResult,
    GroupHom,
    IntMatrix,
    Presentation,
    check_exact,
    _lattice_rows,
)
from test_elimination import int_matrices, ref_hermite_normal_form, \
    ref_kernel_basis


# --- reference: check_exact before the lattice route -------------------------
# The exactness check as it was, verbatim, with the reference Hermite form and
# kernel basis in place of the library's; matrices are built from columns so
# that a matrix with no rows keeps its columns.


def ref_columns_matrix(cols, rows):
    cols = [tuple(c) for c in cols]
    if rows == 0:
        return IntMatrix.zeros(0, len(cols))
    return IntMatrix([[c[i] for c in cols] for i in range(rows)])


def ref_lattice_rows(m):
    """Canonical basis (as HNF rows) of the lattice spanned by the columns of m."""
    mt = ref_columns_matrix(m.to_lists(), m.cols)
    return [tuple(row) for row in ref_hermite_normal_form(mt)[0].to_lists()
            if any(row)]


def ref_hstack(a, b, sign=1):
    cols = [a.column(j) for j in range(a.cols)]
    cols += [tuple(sign * x for x in b.column(j)) for j in range(b.cols)]
    return ref_columns_matrix(cols, a.rows)


def ref_kernel_lattice_columns(hom):
    """Columns spanning {x in Z^b : hom.matrix @ x lies in codomain relations}."""
    g = hom.matrix
    rc = hom.codomain.relations
    if rc.cols == 0:
        return ref_kernel_basis(g)
    basis = ref_kernel_basis(ref_hstack(g, rc, sign=-1))
    cols = [basis.column(j)[:g.cols] for j in range(basis.cols)]
    cols = [c for c in cols if any(c)]
    return ref_columns_matrix(cols, g.cols)


def ref_check_exact(sequence, cyclic=False):
    n = len(sequence)
    pairs = [(sequence[i], sequence[i + 1], i + 1) for i in range(n - 1)]
    if cyclic:
        pairs.append((sequence[-1], sequence[0], 0))
    for incoming, outgoing, node in pairs:
        pres = incoming.codomain
        image = ref_hstack(incoming.matrix, pres.relations)
        kernel_cols = ref_kernel_lattice_columns(outgoing)
        kernel_full = ref_hstack(kernel_cols, pres.relations)
        if ref_lattice_rows(image) != ref_lattice_rows(kernel_full):
            return ExactnessResult(False, failure_at=node)
    return ExactnessResult(True)


# --- the lattice routine -----------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_lattice_rows_match_reference_hermite_form(m):
    assert _lattice_rows(m) == ref_lattice_rows(m)


def test_lattice_rows_of_laplacians_match_reference():
    """Nonsingular and singular 1 - A^t up to 24 vertices, and a unimodular
    matrix, whose lattice is all of Z^n and whose insertion stops early."""
    singular = [[2, 1], [1, 2]]
    for a in (random_irreducible(5, 24), random_irreducible(6, 12),
              out_split(singular, 0, [1, 1]), dual_graph(singular),
              [[1, 1], [0, 1]]):
        m = IntMatrix(one_minus_transpose(a))
        assert _lattice_rows(m) == ref_lattice_rows(m)
    unimodular = IntMatrix([[1, 3, 0], [0, 1, 0], [2, 6, 1]])
    assert _lattice_rows(unimodular) == ref_lattice_rows(unimodular) == \
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


# --- check_exact against the reference ---------------------------------------


def _random_matrix(rng, rows, cols, spread=2):
    """Entries in -spread..spread, half of them 0, so composites often vanish."""
    data = [[rng.randint(-spread, spread) if rng.random() < 0.5 else 0
             for _ in range(cols)] for _ in range(rows)]
    return IntMatrix(data) if rows else IntMatrix.zeros(0, cols)


def _presentation(rng, generators, forced=None):
    """Z^generators modulo 0..2 random relations plus the ``forced`` columns."""
    cols = [] if forced is None else \
        [forced.column(j) for j in range(forced.cols)]
    for _ in range(rng.randint(0, 2) if generators else 0):
        cols.append(_random_matrix(rng, generators, 1).column(0))
    return Presentation(generators,
                        IntMatrix.from_columns(cols, rows=generators))


def random_chain(rng):
    """A composable chain of 1..4 well-defined homs between presented groups
    of 0..3 generators: each codomain's relations contain the images of the
    domain's relations. A group with no generators has 0 or 1 relation
    columns, each of length 0."""
    domain = _presentation(rng, rng.randint(0, 3))
    homs = []
    for _ in range(rng.randint(1, 4)):
        b = rng.randint(0, 3)
        matrix = _random_matrix(rng, b, domain.generators)
        images = matrix @ domain.relations
        codomain = _presentation(rng, b, images) if b else \
            Presentation(0, IntMatrix.zeros(0, rng.randint(0, 1)))
        homs.append(GroupHom(domain, codomain, matrix))
        domain = codomain
    return homs


def random_cycle(rng):
    """A cyclic chain of 2..4 homs between free groups of 0..3 generators."""
    sizes = [rng.randint(0, 3) for _ in range(rng.randint(2, 4))]
    groups = [Presentation.free(k) for k in sizes]
    return [GroupHom(groups[i], groups[(i + 1) % len(groups)],
                     _random_matrix(rng, sizes[(i + 1) % len(sizes)], sizes[i]))
            for i in range(len(groups))]


@pytest.mark.parametrize("seed", range(6))
def test_check_exact_matches_reference_on_random_chains(seed):
    rng = random.Random(seed)
    outcomes = Counter()
    for _ in range(60):
        chain = random_chain(rng)
        result = check_exact(chain)
        assert result == ref_check_exact(chain)
        outcomes[result.exact] += 1
    for _ in range(20):
        cycle = random_cycle(rng)
        assert check_exact(cycle, cyclic=True) == \
            ref_check_exact(cycle, cyclic=True)
    assert outcomes[True] and outcomes[False]


def test_check_exact_onto_a_group_with_no_generators():
    """Z -> Z -> (no generators, one relation column of length 0): the second
    hom has all of Z as its kernel, so the chain is exact at the middle Z.
    Building [g | -R] must keep its columns when it has no rows."""
    z = Presentation.free(1)
    nothing = Presentation(0, IntMatrix.zeros(0, 1))
    chain = [GroupHom(z, z, IntMatrix([[1]])),
             GroupHom(z, nothing, IntMatrix.zeros(0, 1))]
    assert check_exact(chain) == ref_check_exact(chain) == ExactnessResult(True)


def laplacian_chain(a):
    """0 -> Z^n -> Z^n -> coker(1 - A^t) -> 0 with 1 - A^t in the middle."""
    n = len(a)
    delta = IntMatrix(one_minus_transpose(a))
    zn, zero = Presentation.free(n), Presentation.trivial()
    coker = Presentation(n, delta)
    return [GroupHom(zero, zn, IntMatrix.zeros(n, 0)),
            GroupHom(zn, zn, delta),
            GroupHom(zn, coker, IntMatrix.identity(n)),
            GroupHom(coker, zero, IntMatrix.zeros(0, n))]


# [[2, 1], [1, 2]] and [[1]] give a singular 1 - A^t; moves keep it singular
SINGULAR = [[2, 1], [1, 2]]
LAPLACIAN_CASES = {
    "singular": SINGULAR,
    "singular/out-split": out_split(SINGULAR, 0, [1, 1]),
    "singular/in-split": in_split(SINGULAR, 1, [1, 0]),
    "singular/dual": dual_graph(SINGULAR),
    "one-loop": [[1]],
    "random8": random_irreducible(3, 8),
    "random12/out-split": out_split(random_irreducible(4, 12), 0,
                                    halve_row(random_irreducible(4, 12)[0])),
}


@pytest.mark.parametrize("label", sorted(LAPLACIAN_CASES))
def test_check_exact_matches_reference_on_laplacians(label):
    """Exact at every node when 1 - A^t is nonsingular; with a singular one
    the first node fails, since 1 - A^t is then not injective."""
    a = LAPLACIAN_CASES[label]
    chain = laplacian_chain(a)
    result = check_exact(chain)
    assert result == ref_check_exact(chain)
    assert result.exact == (_rank(one_minus_transpose(a)) == len(a))
    if label.startswith(("singular", "one-loop")):
        assert result == ExactnessResult(False, failure_at=1)


def _rank(rows):
    """Rank over Q by Fraction elimination, apart from the library."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


# --- each lattice once, no Smith form for a zero kernel ----------------------


def test_check_exact_builds_each_lattice_once(monkeypatch):
    """On 0 -> Z^30 -> Z^30 -> coker -> 0 with a nonsingular 1 - A^t, no
    Smith form that tracks V is taken of 1 - A^t (nor of any matrix with
    independent columns), and no lattice is built twice."""
    a = random_irreducible(30, 30)
    assert _rank(one_minus_transpose(a)) == 30
    chain = laplacian_chain(a)
    delta = chain[1].matrix

    lattices, smith = Counter(), []
    lattice_rows, smith_form = mwlab.ktheory._lattice_rows, mwlab.ktheory._smith

    def counted_lattice(m):
        lattices[m] += 1
        return lattice_rows(m)

    def counted_smith(m, track_u, track_v):
        smith.append((m, track_v))
        return smith_form(m, track_u, track_v)

    monkeypatch.setattr(mwlab.ktheory, "_lattice_rows", counted_lattice)
    monkeypatch.setattr(mwlab.ktheory, "_smith", counted_smith)
    assert check_exact(chain).exact
    assert lattices[delta] == 1
    assert set(lattices.values()) == {1}
    tracked = [m for m, track_v in smith if track_v]
    assert delta not in tracked
    assert all(_rank(m.to_lists()) < m.cols for m in tracked)
