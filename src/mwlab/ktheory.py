"""Exact integer linear algebra: Hermite/Smith normal forms, finitely generated
abelian groups, and K-groups of a graph algebra from its vertex matrix.

Everything here runs on Python's arbitrary-precision integers; no floating
point is involved anywhere in this module.

There are two routes, split by what the caller reads.

- Transforms. ``smith_normal_form`` (U, D, V), ``hermite_normal_form``
  (H, U) and ``kernel`` (a basis read off V) run the minimal-entry
  eliminations ``_smith`` and ``_hermite``, and build only the transforms
  they return. The Smith pivot is the first minimal nonzero |entry| of the
  trailing block in row-major order, found as each row's minimum; the column
  quotients are all read off the pivot row before any column step, since a
  step on column j changes neither column k nor another column's pivot-row
  entry. Both keep the row-major pivot sequence of the plain scan-and-step
  loop, so U, D and V are the same whichever caller asks. Row steps start at
  the pivot column, since every row at or below the pivot row is 0 to its
  left.
- Canonical answers. Every caller that reads no transform goes through one
  lattice routine, ``_lattice_rows``: the HNF rows of a column lattice, by
  extended-gcd insertion, with no transform kept. The lattice tests of
  ``GroupHom`` and ``check_exact`` read those rows; ``cokernel`` and
  ``graph_algebra_ktheory`` read the Smith diagonal off them, where every
  pivot 1 is a factor 1 and ``_smith`` runs only on the rows with larger
  pivots. HNF rows and Smith diagonals are unique, so both routes give the
  same answers. ``check_exact`` builds each lattice once per call and takes
  no Smith form for a kernel that is 0.
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
    def _of(cls, data, rows, cols):
        """Wrap ``data``, a tuple of ``rows`` int tuples of length ``cols``,
        with no coercion or check: for results built from IntMatrix data."""
        m = object.__new__(cls)
        m.rows, m.cols, m._data = rows, cols, data
        return m

    @classmethod
    def zeros(cls, rows, cols):
        return cls._of(tuple((0,) * cols for _ in range(rows)), rows, cols)

    @classmethod
    def identity(cls, n):
        return cls._of(tuple(tuple(1 if i == j else 0 for j in range(n))
                             for i in range(n)), n, n)

    @classmethod
    def from_columns(cls, columns, rows=None):
        cols = [tuple(int(x) for x in c) for c in columns]
        if cols:
            rows = len(cols[0])
        elif rows is None:
            rows = 0
        if not rows:
            return cls.zeros(0, len(cols))
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
        data = tuple(zip(*self._data)) if self.rows else ((),) * self.cols
        return IntMatrix._of(data, self.cols, self.rows)

    def __add__(self, other):
        self._check_same_shape(other)
        return IntMatrix._of(tuple(tuple(a + b for a, b in zip(ra, rb))
                                   for ra, rb in zip(self._data, other._data)),
                             self.rows, self.cols)

    def __sub__(self, other):
        self._check_same_shape(other)
        return IntMatrix._of(tuple(tuple(a - b for a, b in zip(ra, rb))
                                   for ra, rb in zip(self._data, other._data)),
                             self.rows, self.cols)

    def __neg__(self):
        return IntMatrix._of(tuple(tuple(-a for a in r) for r in self._data),
                             self.rows, self.cols)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        bt = other.transpose()._data
        return IntMatrix._of(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                  for row in self._data), self.rows, other.cols)

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


def _sheet_matrix(rows, height, width):
    """An IntMatrix of a worksheet's rows, of the given shape even when it
    has no rows."""
    return IntMatrix._of(tuple(map(tuple, rows)), height, width)


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


def _hermite(m):
    """Worksheet whose ``a`` is the row-style Hermite normal form of m and
    whose ``u`` is the row transform that takes m there."""
    w = _Worksheet(m, track_u=True)
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
    w = _hermite(m)
    return (_sheet_matrix(w.a, w.rows, w.cols),
            _sheet_matrix(w.u, w.rows, w.rows))


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
    return SmithDecomposition(_sheet_matrix(w.u, w.rows, w.rows),
                              _sheet_matrix(w.a, w.rows, w.cols),
                              _sheet_matrix(w.v, w.cols, w.cols))


# --- lattices: canonical answers without transforms --------------------------


def _xgcd(a, b):
    """``(g, x, y)`` with ``g = gcd(a, b) = x * a + y * b`` and ``g > 0``."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


def _reduce_right(row, j, pivots):
    """Reduce ``row`` (0 before column j) into [0, pivot) at every pivot
    column after j, left to right: a step at column k changes no column
    before k."""
    for k in range(j + 1, len(row)):
        p = pivots[k]
        if p is not None and row[k]:
            q = row[k] // p[k]
            if q:
                row[k:] = [x - q * y for x, y in zip(row[k:], p[k:])]


def _lattice_rows(m):
    """Canonical basis of the lattice spanned by the columns of m: the
    nonzero rows of the row-style Hermite normal form of m^t.

    Each column is inserted into rows kept by pivot column. Where a stored
    row already holds that pivot column, an extended-gcd step on the two
    leaves the gcd in the stored row and 0 in the incoming one, which then
    goes on to its next nonzero column. A row is stored reduced modulo the
    pivots to its right, which keeps the entries from growing. Once every
    column holds a pivot 1 the lattice is all of Z^n and the remaining
    columns are not read. A last pass, from the rightmost pivot leftwards,
    reduces the entries above each pivot into [0, pivot).
    """
    n = m.rows
    pivots = [None] * n
    units = 0
    for column in zip(*m._data):
        v = list(column)
        j = next((k for k in range(n) if v[k]), n)
        while j < n:
            r = pivots[j]
            if r is None:
                if v[j] < 0:
                    v = [-x for x in v]
                _reduce_right(v, j, pivots)
                pivots[j] = v
                units += v[j] == 1
                break
            a, b = r[j], v[j]
            if b % a:
                g, x, y = _xgcd(a, b)
                a, b = a // g, b // g
                tail = list(zip(r[j:], v[j:]))
                r[j:] = [x * s + y * t for s, t in tail]
                v[j:] = [a * t - b * s for s, t in tail]
                _reduce_right(r, j, pivots)
                units += g == 1
            else:
                q = b // a
                v[j:] = [t - q * s for s, t in zip(r[j:], v[j:])]
            j = next((k for k in range(j + 1, n) if v[k]), n)
        if units == n:
            return [tuple(1 if i == k else 0 for i in range(n))
                    for k in range(n)]
    for j in reversed(range(n)):
        if pivots[j] is not None:
            _reduce_right(pivots[j], j, pivots)
    return [tuple(r) for r in pivots if r is not None]


def _invariant_factors(m):
    """The Smith diagonal of m, of length min(rows, cols), read off the HNF
    rows of its column lattice. A pivot 1 is the only nonzero entry of its
    column, so column steps clear the rest of its row and it splits off as a
    factor 1; ``_smith`` runs only on the rows with pivots above 1, without
    the unit pivots' columns. Zeros, one per missing rank, come last."""
    rows = _lattice_rows(m)
    lead = [next(j for j, x in enumerate(r) if x) for r in rows]
    units = {j for r, j in zip(rows, lead) if r[j] == 1}
    block = tuple(tuple(x for k, x in enumerate(r) if k not in units)
                  for r, j in zip(rows, lead) if r[j] != 1)
    factors = (1,) * len(units)
    if block:
        w = _smith(IntMatrix._of(block, len(block), m.rows - len(units)),
                   track_u=False, track_v=False)
        factors += _diagonal(w)
    return factors + (0,) * (min(m.rows, m.cols) - len(rows))


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
    diag = _invariant_factors(m)
    return FgAbelianGroup.from_invariant_factors(
        diag, extra_free=m.rows - len(diag))


@dataclass(frozen=True)
class GraphKTheory:
    K0: FgAbelianGroup
    K1: FgAbelianGroup
    invariant_factors: tuple
    one_minus_transpose: IntMatrix


def graph_algebra_ktheory(vertex_matrix):
    """K-groups of the graph algebra: K1 = ker(1 - A^t), K0 = coker(1 - A^t).

    Both come from the Smith diagonal of the square matrix 1 - A^t, read
    off the HNF of its column lattice: its zeros come last, one per free
    generator of the kernel.

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
    diag = _invariant_factors(delta)
    return GraphKTheory(K0=FgAbelianGroup.from_invariant_factors(diag),
                        K1=FgAbelianGroup(sum(1 for d in diag if d == 0)),
                        invariant_factors=diag, one_minus_transpose=delta)


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


def _hstack(a, b):
    if a.rows != b.rows:
        raise ValueError("row mismatch in hstack")
    return IntMatrix._of(tuple(ra + rb for ra, rb in zip(a._data, b._data)),
                         a.rows, a.cols + b.cols)


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


def _kernel_lattice_columns(hom, lattice):
    """Columns spanning {x in Z^b : hom.matrix @ x lies in codomain relations}.

    That is the first b coordinates of ker [g | -R]. When the columns of
    [g | -R] are independent (as many HNF rows as columns) the kernel is 0,
    and no Smith form is taken."""
    g = hom.matrix
    stacked = _hstack(g, -hom.codomain.relations)
    if len(lattice(stacked)) == stacked.cols:
        return IntMatrix.zeros(g.cols, 0)
    basis = kernel(stacked)[1]
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

    # each distinct generator matrix gets its HNF once per call
    lattices = {}

    def lattice(m):
        rows = lattices.get(m)
        if rows is None:
            rows = lattices[m] = _lattice_rows(m)
        return rows

    pairs = [(sequence[i], sequence[i + 1], i + 1) for i in range(n - 1)]
    if cyclic:
        pairs.append((sequence[-1], sequence[0], 0))
    for incoming, outgoing, node in pairs:
        relations = incoming.codomain.relations
        image = lattice(_hstack(incoming.matrix, relations))
        kernel_cols = _kernel_lattice_columns(outgoing, lattice)
        if image != lattice(_hstack(kernel_cols, relations)):
            return ExactnessResult(False, failure_at=node)
    return ExactnessResult(True)
