"""Exact integer linear algebra: Hermite/Smith normal forms, finitely generated
abelian groups, and K-groups of a graph algebra from its vertex matrix.

Everything here runs on Python's arbitrary-precision integers; no floating
point is involved anywhere in this module.

One elimination routine per normal form (``_smith``, ``_hermite``) serves
every caller, and builds a unimodular transform only if that caller reads
it: ``smith_normal_form`` tracks U and V, ``hermite_normal_form`` tracks U,
``kernel`` tracks V only, and ``cokernel``, ``graph_algebra_ktheory`` and the
lattice bases behind ``check_exact`` track none. The Smith pivot is the
first minimal nonzero |entry| of the trailing block in row-major order,
found as each row's minimum; the column quotients are all read off the pivot
row before any column step, since a step on column j changes neither column
k nor another column's pivot-row entry. Both keep the row-major pivot
sequence of the plain scan-and-step loop, so U, D and V are the same
whichever caller asks. Row steps start at the pivot column, since every row
at or below the pivot row is 0 to its left.
"""

from dataclasses import dataclass
from math import gcd

from .errors import PreconditionError

__all__ = [
    "IntMatrix",
    "SmithDecomposition",
    "FgAbelianGroup",
    "Presentation",
    "GroupHom",
    "GraphKTheory",
    "ExactnessResult",
    "hermite_normal_form",
    "smith_normal_form",
    "kernel",
    "cokernel",
    "graph_algebra_ktheory",
    "check_exact",
]


class IntMatrix:
    """Immutable integer matrix backed by tuples of Python ints."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data):
        rows = tuple(tuple(int(x) for x in row) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        self.rows = len(rows)
        self.cols = width
        self._data = rows

    @classmethod
    def zeros(cls, rows, cols):
        m = object.__new__(cls)
        m.rows, m.cols = rows, cols
        m._data = tuple((0,) * cols for _ in range(rows))
        return m

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns, rows=None):
        cols = [tuple(int(x) for x in c) for c in columns]
        if cols:
            rows = len(cols[0])
        elif rows is None:
            rows = 0
        return cls([[c[i] for c in cols] for i in range(rows)])

    @classmethod
    def parse(cls, text):
        """Parse the CLI matrix syntax, e.g. ``"3,1;1,3"``."""
        try:
            rows = [
                [int(tok) for tok in row.split(",")]
                for row in text.strip().split(";")
            ]
        except ValueError as exc:
            raise ValueError(f"cannot parse matrix {text!r}: {exc}") from None
        return cls(rows)

    def __getitem__(self, key):
        i, j = key
        return self._data[i][j]

    def row(self, i):
        return self._data[i]

    def column(self, j):
        return tuple(r[j] for r in self._data)

    def to_lists(self):
        return [list(r) for r in self._data]

    @property
    def is_square(self):
        return self.rows == self.cols

    @property
    def is_zero(self):
        return all(x == 0 for r in self._data for x in r)

    def transpose(self):
        return IntMatrix([[self._data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def __add__(self, other):
        self._check_same_shape(other)
        return IntMatrix([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self._data, other._data)])

    def __sub__(self, other):
        self._check_same_shape(other)
        return IntMatrix([[a - b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self._data, other._data)])

    def __neg__(self):
        return IntMatrix([[-a for a in r] for r in self._data])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        bt = other.transpose()._data
        return IntMatrix([[sum(a * b for a, b in zip(row, col)) for col in bt]
                          for row in self._data])

    def __pow__(self, n):
        if not self.is_square:
            raise ValueError("matrix power needs a square matrix")
        if n < 0:
            raise ValueError("negative power")
        result = IntMatrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self._data == other._data \
            and self.shape == other.shape

    def __hash__(self):
        return hash((self.shape, self._data))

    def __repr__(self):
        return f"IntMatrix({self.to_lists()!r})"

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")


class _Worksheet:
    """Mutable matrix; the row transform U and column transform V are kept
    only when asked for, so each caller pays only for what it reads."""

    def __init__(self, m, track_u=False, track_v=False):
        self.a = [list(row) for row in m._data]
        self.rows, self.cols = m.rows, m.cols
        self.u = _identity_rows(self.rows) if track_u else None
        self.v = _identity_rows(self.cols) if track_v else None

    def swap_rows(self, i, j):
        if i != j:
            self.a[i], self.a[j] = self.a[j], self.a[i]
            if self.u is not None:
                self.u[i], self.u[j] = self.u[j], self.u[i]

    def negate_row(self, i):
        self.a[i] = [-x for x in self.a[i]]
        if self.u is not None:
            self.u[i] = [-x for x in self.u[i]]

    def add_row(self, target, source, factor, start):
        """Add ``factor * row source`` to row target. Both eliminations pass
        the pivot column as ``start``: the source row of ``a`` is 0 before it."""
        if factor:
            row, src = self.a[target], self.a[source]
            row[start:] = [x + factor * y
                           for x, y in zip(row[start:], src[start:])]
            if self.u is not None:
                self.u[target] = [x + factor * y
                                  for x, y in zip(self.u[target], self.u[source])]

    def swap_cols(self, i, j):
        if i != j:
            for row in self.a + (self.v or []):
                row[i], row[j] = row[j], row[i]

    def add_cols(self, source, factors):
        """Add ``f * column source`` to column j for every ``(j, f)``; rows
        whose column-source entry is 0 are left alone."""
        if not factors:
            return
        for row in self.a + (self.v or []):
            x = row[source]
            if x:
                for j, f in factors:
                    row[j] += f * x


def _identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _hermite(m, track_u):
    """Worksheet whose ``a`` is the row-style Hermite normal form of m."""
    w = _Worksheet(m, track_u=track_u)
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
                w.add_row(i, pivot_row, -q, col)
                if w.a[i][col] != 0:
                    done = False
            if done:
                break
        if pivot_row < w.rows and w.a[pivot_row][col] != 0:
            p = w.a[pivot_row][col]
            for i in range(pivot_row):
                q = w.a[i][col] // p
                w.add_row(i, pivot_row, -q, col)
            pivot_row += 1
            if pivot_row == w.rows:
                break
    return w


def hermite_normal_form(m):
    """Row-style Hermite normal form.

    Returns ``(H, U)`` with ``U @ m == H``, ``U`` unimodular, ``H`` in row
    echelon form with positive pivots and entries above each pivot reduced
    into ``[0, pivot)``.
    """
    w = _hermite(m, track_u=True)
    return IntMatrix(w.a), IntMatrix(w.u)


@dataclass(frozen=True)
class SmithDecomposition:
    """``U @ M @ V == D`` with unimodular U, V and divisibility chain on D."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self):
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(n))


def _smith(m, track_u, track_v):
    """Worksheet whose ``a`` is the Smith normal form of m, by elementary
    operations with minimal-entry pivoting."""
    w = _Worksheet(m, track_u=track_u, track_v=track_v)
    a = w.a
    for k in range(min(w.rows, w.cols)):
        while True:
            # first minimal nonzero |entry| of the trailing block in
            # row-major order; no row can beat a minimum of 1
            best, best_i = None, None
            for i in range(k, w.rows):
                x = min(filter(None, map(abs, a[i][k:])), default=None)
                if x is not None and (best is None or x < best):
                    best, best_i = x, i
                    if x == 1:
                        break
            if best is None:
                break
            w.swap_rows(k, best_i)
            w.swap_cols(k, k + list(map(abs, a[k][k:])).index(best))
            if a[k][k] < 0:
                w.negate_row(k)
            pivot = a[k][k]
            dirty = False
            for i in range(k + 1, w.rows):
                q = a[i][k] // pivot
                w.add_row(i, k, -q, k)
                if a[i][k] != 0:
                    dirty = True
            # column j's quotient reads only a[k][j] and a[k][k], which the
            # other columns' steps leave alone: take them all at once
            factors = [(j, -(a[k][j] // pivot)) for j in range(k + 1, w.cols)]
            w.add_cols(k, [(j, f) for j, f in factors if f])
            if dirty or any(a[k][k + 1:]):
                continue
            # enforce divisibility: pivot must divide the trailing block
            # (1 divides everything)
            offender = None if pivot == 1 else next(
                (i for i in range(k + 1, w.rows)
                 if any(x % pivot for x in a[i][k + 1:])), None)
            if offender is None:
                break
            w.add_row(k, offender, 1, k)
        if a[k][k] == 0:
            break
    return w


def _diagonal(w):
    return tuple(w.a[i][i] for i in range(min(w.rows, w.cols)))


def smith_normal_form(m):
    """Smith normal form by elementary operations with minimal-entry pivoting."""
    w = _smith(m, track_u=True, track_v=True)
    return SmithDecomposition(IntMatrix(w.u), IntMatrix(w.a), IntMatrix(w.v))


@dataclass(frozen=True)
class FgAbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    ``free_rank`` copies of Z plus cyclic factors Z/d1 + ... + Z/dk with
    d1 | d2 | ... and every d_i >= 2.
    """

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion factors must form a divisibility chain")

    @classmethod
    def from_invariant_factors(cls, factors, extra_free=0):
        """Build from a raw diagonal: drop units, zeros count as free rank."""
        torsion = [d for d in factors if d >= 2]
        free = extra_free + sum(1 for d in factors if d == 0)
        return cls(free, tuple(torsion))

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def presentation(self):
        """Presentation Z^n / column-span(R) with torsion generators first."""
        n = len(self.torsion) + self.free_rank
        cols = []
        for i, d in enumerate(self.torsion):
            col = [0] * n
            col[i] = d
            cols.append(col)
        return Presentation(n, IntMatrix.from_columns(cols, rows=n))

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}Z" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def kernel(m):
    """Kernel of ``m : Z^cols -> Z^rows``.

    Returns ``(group, basis)`` where the group is free of rank cols - rank(m)
    and ``basis`` is an IntMatrix whose columns form a primitive basis.
    """
    w = _smith(m, track_u=False, track_v=True)
    diag = _diagonal(w)
    basis_cols = [tuple(row[j] for row in w.v) for j in range(m.cols)
                  if j >= len(diag) or diag[j] == 0]
    group = FgAbelianGroup(len(basis_cols))
    return group, IntMatrix.from_columns(basis_cols, rows=m.cols)


def cokernel(m):
    """Cokernel Z^rows / column-span(m) in invariant-factor form."""
    diag = _diagonal(_smith(m, track_u=False, track_v=False))
    return FgAbelianGroup.from_invariant_factors(
        diag, extra_free=m.rows - len(diag))


@dataclass(frozen=True)
class GraphKTheory:
    K0: FgAbelianGroup
    K1: FgAbelianGroup
    invariant_factors: tuple


def graph_algebra_ktheory(vertex_matrix):
    """K-groups of the graph algebra: K1 = ker(1 - A^t), K0 = coker(1 - A^t).

    Both come from one Smith form of the square matrix 1 - A^t: its zero
    diagonal entries come last, one per free generator of the kernel.

    The graph must have no sinks (zero rows of A), since with a sink
    coker(1 - A^t) is not K0; a sink raises ValueError. Sources are allowed.
    """
    if not vertex_matrix.is_square:
        raise ValueError("vertex matrix must be square")
    if any(x < 0 for row in vertex_matrix._data for x in row):
        raise ValueError("vertex matrix must be nonnegative")
    sinks = [i for i, row in enumerate(vertex_matrix._data) if not any(row)]
    if sinks:
        raise ValueError(f"graph has sinks: zero rows {sinks} of the vertex "
                         "matrix; coker(1 - A^t) is not K0")
    n = vertex_matrix.rows
    delta = IntMatrix.identity(n) - vertex_matrix.transpose()
    diag = _diagonal(_smith(delta, track_u=False, track_v=False))
    return GraphKTheory(K0=FgAbelianGroup.from_invariant_factors(diag),
                        K1=FgAbelianGroup(sum(1 for d in diag if d == 0)),
                        invariant_factors=diag)


# --- presentations, homomorphisms, exactness ---------------------------------


@dataclass(frozen=True)
class Presentation:
    """Abelian group presented as Z^generators / column-span(relations)."""

    generators: int
    relations: IntMatrix

    def __post_init__(self):
        if self.relations.rows != self.generators:
            raise ValueError("relation matrix must have one row per generator")

    @classmethod
    def free(cls, n):
        return cls(n, IntMatrix.from_columns([], rows=n))

    @classmethod
    def trivial(cls):
        return cls.free(0)


def _lattice_rows(m):
    """Canonical basis (as HNF rows) of the lattice spanned by the columns of m."""
    return [tuple(row) for row in _hermite(m.transpose(), track_u=False).a
            if any(row)]


def _hstack(a, b):
    if a.rows != b.rows:
        raise ValueError("row mismatch in hstack")
    return IntMatrix([ra + rb for ra, rb in zip(a._data, b._data)])


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism between presented groups, given on generators."""

    domain: Presentation
    codomain: Presentation
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.shape != (self.codomain.generators, self.domain.generators):
            raise ValueError(
                f"hom matrix shape {self.matrix.shape} does not match "
                f"codomain x domain ({self.codomain.generators}, {self.domain.generators})")
        if not self.is_well_defined():
            raise ValueError("hom does not respect the domain relations")

    def is_well_defined(self):
        """matrix maps every domain relation into the codomain relation
        lattice: adding the images to its spanning columns leaves the lattice
        (its HNF rows) unchanged."""
        if self.domain.relations.cols == 0:
            return True
        r_cod = self.codomain.relations
        return (_lattice_rows(_hstack(r_cod, self.matrix @ self.domain.relations))
                == _lattice_rows(r_cod))


@dataclass(frozen=True)
class ExactnessResult:
    exact: bool
    failure_at: int | None = None


def _kernel_lattice_columns(hom):
    """Columns spanning {x in Z^b : hom.matrix @ x lies in codomain relations}."""
    g = hom.matrix
    rc = hom.codomain.relations
    if rc.cols == 0:
        return kernel(g)[1]
    basis = kernel(_hstack(g, -rc))[1]
    cols = [basis.column(j)[:g.cols] for j in range(basis.cols)]
    cols = [c for c in cols if any(c)]
    return IntMatrix.from_columns(cols, rows=g.cols)


def check_exact(sequence, cyclic=False):
    """Decide exactness of a chain of GroupHoms at every interior node.

    For ``cyclic`` sequences the chain closes up and every node is interior.
    ``failure_at`` indexes the first failing node in the group chain
    (node i sits between homs i-1 and i).
    """
    if not sequence:
        raise PreconditionError("empty sequence")
    n = len(sequence)
    for i in range(n - 1):
        if sequence[i].codomain != sequence[i + 1].domain:
            raise PreconditionError(f"homs {i} and {i + 1} are not composable")
    if cyclic and sequence[-1].codomain != sequence[0].domain:
        raise PreconditionError("cyclic sequence does not close up")

    pairs = [(sequence[i], sequence[i + 1], i + 1) for i in range(n - 1)]
    if cyclic:
        pairs.append((sequence[-1], sequence[0], 0))
    for incoming, outgoing, node in pairs:
        pres = incoming.codomain
        image = _hstack(incoming.matrix, pres.relations)
        kernel_cols = _kernel_lattice_columns(outgoing)
        kernel_full = _hstack(kernel_cols, pres.relations)
        if _lattice_rows(image) != _lattice_rows(kernel_full):
            return ExactnessResult(False, failure_at=node)
    return ExactnessResult(True)
