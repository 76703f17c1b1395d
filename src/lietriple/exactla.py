"""Exact rational linear algebra: dense matrices, canonical subspaces and
one elimination, ``Echelon``, whose reduced rows every other routine reads.

Scalars are ``fractions.Fraction`` (arbitrary-precision, always in lowest
terms with positive denominator), so nothing here ever rounds; ``Echelon``
eliminates fraction-free on primitive integer rows (cf. Bareiss, 1968).
Rows of ints go to it as they are, and ``kernel`` builds its basis in
ints, so a caller that scales its rows to integers by one least common
denominator (``scaled_nonzeros``) gets the same spans with no
``Fraction`` arithmetic.  Every ``Subspace`` keeps the primitive
integer rows of its basis, and a routine that feeds one span into the
next reads those; the ``Fraction`` basis of a computed subspace is
formed only when it is read.  So a caller that reads only dimensions
forms no ``Fraction`` at all.  Every value is immutable after
construction, apart from the basis a subspace forms once when first
read, and every operation is a pure function; results may be freely
shared between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
_FRACTION = frozenset((Fraction,))
_INT = frozenset((int,))
_EXACT = _INT | _FRACTION


class SingularMatrix(ValueError):
    """Raised where an invertible matrix is required."""


def rat(x) -> Fraction:
    """Coerce an int/str/Fraction to an exact rational; a float or a bool is refused."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (float, bool)):
        raise ValueError(f"{x!r} is a {type(x).__name__}, not an exact rational")
    return Fraction(x)


def vec(entries) -> tuple[Fraction, ...]:
    # a tuple of Fractions is returned as it is, not coerced again
    if type(entries) is tuple and _FRACTION.issuperset(map(type, entries)):
        return entries
    return tuple(rat(x) for x in entries)


def zero_vec(n: int) -> tuple[Fraction, ...]:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> tuple[Fraction, ...]:
    """The i-th standard basis vector of rational n-space (0-based)."""
    return tuple(ONE if c == i else ZERO for c in range(n))


def vec_sub(a, b):
    return tuple(x - y if y else x for x, y in zip(a, b))


def vec_nonzeros(a) -> tuple:
    """The pairs (index, entry) of the nonzero entries of a, in index order."""
    return tuple([(i, x) for i, x in enumerate(a) if x])


def scaled_nonzeros(v) -> tuple[int, list]:
    """(s, pairs): the least common denominator s of v's entries, and the
    pairs (index, s·entry) of the nonzero entries as ints; for a canonical
    basis row, whose pivot entry is 1, these ints are primitive."""
    nz = [(j, x.as_integer_ratio()) for j, x in enumerate(map(rat, v)) if x]
    s = lcm(*[d for _, (_, d) in nz])
    return s, [(j, x * (s // d)) for j, (x, d) in nz]


def vec_from_pairs(pairs, n: int) -> tuple[Fraction, ...]:
    """The vector of length n with the nonzero entries (index, entry) of pairs."""
    v = [ZERO] * n
    for i, x in pairs:
        v[i] = x
    return tuple(v)


def vec_is_zero(a) -> bool:
    return all(x == 0 for x in a)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of rationals, row-major; every entry is an
    ``int`` or a ``Fraction``."""

    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match declared shape")
        for r in self.entries:
            if not _EXACT.issuperset(map(type, r)):
                x = next(x for x in r if type(x) not in _EXACT)
                if isinstance(x, (float, bool)):
                    rat(x)  # names the float or the bool, as every coercion does
                raise ValueError(f"matrix entry {x!r} is not an int or a Fraction")

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> Matrix:
        rows = tuple(vec(r) for r in rows)
        if cols is None and rows:
            cols = len(rows[0])
        elif cols is None:
            raise ValueError("column count required for a matrix with no rows")
        return Matrix(len(rows), cols, rows)

    @staticmethod
    def identity(n: int) -> Matrix:
        return Matrix(n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> Matrix:
        return Matrix(rows, cols, tuple((ZERO,) * cols for _ in range(rows)))

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> Matrix:
        return Matrix(self.cols, self.rows, tuple(self.col(j) for j in range(self.cols)))

    def vecmat(self, v):
        """Row vector times matrix."""
        v = vec(v)
        if len(v) != self.rows:
            raise ValueError("dimension mismatch")
        return tuple(
            sum((v[i] * self.entries[i][j] for i in range(self.rows) if v[i]), ZERO)
            for j in range(self.cols)
        )

    def __mul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.entries:
            acc = [ZERO] * other.cols
            for a, other_row in zip(row, other.entries):
                if a:
                    for j, b in enumerate(other_row):
                        if b:
                            acc[j] += a * b
            out.append(tuple(acc))
        return Matrix(self.rows, other.cols, tuple(out))

    def sub(self, other: Matrix) -> Matrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return Matrix(self.rows, self.cols, tuple(vec_sub(a, b) for a, b in zip(self.entries, other.entries)))

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.entries)


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank; the zero rows come last."""
    basis = Echelon(m.cols, m.entries).subspace().basis
    zero_rows = ((ZERO,) * m.cols,) * (m.rows - basis.rows)
    return Matrix(m.rows, m.cols, basis.entries + zero_rows), basis.rows


class Subspace:
    """Subspace of rational n-space in canonical (RREF basis) form.

    Equality and hashing read the canonical basis, so two values are equal
    exactly when they are the same subspace; the constructor raises
    ``ValueError`` for a basis whose width is not ``ambient_dim`` or that
    is not that basis, and keeps the canonical basis in ``Fraction``s.  The
    zero subspace keeps its ambient dimension with an empty basis.

    Every subspace keeps the primitive integer rows of its basis, ``_rows``,
    in pivot order: the first nonzero entry of each, at its pivot, is
    positive.  A routine that feeds one span into the next reads those.
    A subspace that elimination returns (``Echelon.subspace``, ``span``,
    ``kernel``, ``full_subspace``) forms its ``Fraction`` basis only when
    ``basis``, ``vectors()``, equality, hashing or ``repr`` first reads it.
    """

    __slots__ = ("ambient_dim", "dim", "_basis", "_rows")

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.cols != ambient_dim:
            raise ValueError("basis width does not match ambient dimension")
        s = span(basis.entries, ambient_dim)
        if s.basis != basis:
            raise ValueError("basis is not in reduced row echelon form")
        self.ambient_dim, self.dim, self._basis, self._rows = ambient_dim, s.dim, s.basis, s._rows

    @classmethod
    def _of_rows(cls, ambient_dim: int, rows: tuple) -> Subspace:
        """The subspace whose primitive integer echelon rows, in pivot order, are rows; unchecked."""
        s = cls.__new__(cls)
        s.ambient_dim, s.dim, s._basis, s._rows = ambient_dim, len(rows), None, rows
        return s

    @property
    def basis(self) -> Matrix:
        if self._basis is None:
            self._basis = _canonical_basis(self._rows, self.ambient_dim)
        return self._basis

    def is_zero(self) -> bool:
        return self.dim == 0

    def vectors(self):
        return self.basis.entries

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim, self.dim) == (other.ambient_dim, other.dim) and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim!r}, basis={self.basis!r})"

    def __reduce__(self):
        # a copy or a pickle holds the basis
        return Subspace, (self.ambient_dim, self.basis)


def _divided(row, a) -> tuple[Fraction, ...]:
    """The ints of row divided by a, as Fractions."""
    return tuple([Fraction(x, a) if x else ZERO for x in row])


def _canonical_basis(rows, n: int) -> Matrix:
    """The RREF basis of primitive integer echelon rows: each divided by its pivot entry."""
    return Matrix(len(rows), n, tuple([_divided(row, next(filter(None, row))) for row in rows]))


class Echelon:
    """Incremental echelon basis of a subspace of rational n-space, kept as
    primitive integer rows.

    Row i is the reduced row echelon row of pivot pivots[i] with its
    denominators cleared: its first nonzero entry, at the pivot, is
    positive, and every other row is zero in that column.  So one pass
    over the rows reduces a vector modulo the span in integer arithmetic;
    rationals are formed only when a residual or a basis is returned.
    """

    def __init__(self, ambient_dim: int, vectors=()):
        self.ambient_dim = ambient_dim
        self.pivots: list[int] = []
        self.rows: list[list[int]] = []
        for v in vectors:
            self.insert(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, v) -> tuple[list[int], int]:
        """(r, s): integers with s > 0 and v ≡ r / s modulo the span."""
        r, s = list(v), 1
        if len(r) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        if not _INT.issuperset(map(type, r)):
            # scaled to integers once, reading the nonzero entries only
            s, nz = scaled_nonzeros(r)
            r = [0] * len(r)
            for j, x in nz:
                r[j] = x
        for p, row in zip(self.pivots, self.rows):
            c = r[p]  # other rows vanish at p, so r still holds s·v[p] here
            if c:
                a = row[p]
                r = [a * x - c * y for x, y in zip(r, row)]
                s *= a
        return r, s

    def reduce(self, v) -> tuple[Fraction, ...]:
        """Residual of v modulo the span; zero exactly when v is in the span."""
        r, s = self._reduce(v)
        return _divided(r, s)

    def insert(self, v) -> bool:
        """Add v to the span; False (and no change) when v already lies in it."""
        r, _ = self._reduce(v)
        if not any(r):
            return False
        lead = next(filter(None, r))  # the first nonzero entry, at the pivot
        p = r.index(lead)
        g = gcd(*r) if lead > 0 else -gcd(*r)
        if g != 1:
            r = [x // g for x in r]
        for i, row in enumerate(self.rows):
            if row[p]:
                row = [r[p] * x - row[p] * y for x, y in zip(row, r)]
                g = gcd(*row)
                self.rows[i] = [x // g for x in row] if g != 1 else row
        self.pivots.append(p)
        self.rows.append(r)
        return True

    def subspace(self) -> Subspace:
        """The span as a canonical (RREF) subspace, which keeps these rows
        and forms its ``Fraction`` basis when that is read."""
        rows = tuple([tuple(row) for _, row in sorted(zip(self.pivots, self.rows))])
        return Subspace._of_rows(self.ambient_dim, rows)


def span(vectors, ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given coordinate vectors."""
    return Echelon(ambient_dim, vectors).subspace()


def capped_span(vectors, ambient_dim: int, cap: int) -> Subspace:
    """Span of vectors known to lie in a subspace of dimension ``cap``: the
    reading stops once the span reaches ``cap``, as the rest adds nothing."""
    ech = Echelon(ambient_dim)
    for v in vectors:
        ech.insert(v)
        if ech.rank == cap:
            break
    return ech.subspace()


def subspace_series(start: Subspace, step) -> tuple[Subspace, ...]:
    """start, step(start), step(step(start)), ... up to the first zero term
    or the first term whose dimension equals the one before.

    Every caller's step maps a term into a subspace of it: the derived
    step of an ideal, [S, S] of a subalgebra and [G, S] of an ideal.  So
    the terms decrease, and a term of the same dimension as the one
    before is that term again: the series has stabilized.  Only
    dimensions are compared, so no canonical basis is formed.
    """
    terms = [start]
    while terms[-1].dim:
        nxt = step(terms[-1])
        terms.append(nxt)
        if nxt.dim == terms[-2].dim:
            break
    return tuple(terms)


def full_subspace(n: int) -> Subspace:
    return Subspace._of_rows(n, tuple([(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return span(a._rows + b._rows, a.ambient_dim)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection by the Zassenhaus reduction.

    The rows (x | x) for x in a and (y | 0) for y in b span the pairs
    (x + y | x); those with x + y = 0 are exactly (0 | z) for z in a ∩ b,
    and the echelon rows with pivot in the second half span them.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    pad = (0,) * n
    ech = Echelon(2 * n, [x + x for x in a._rows] + [y + pad for y in b._rows])
    return span([row[n:] for p, row in zip(ech.pivots, ech.rows) if p >= n], n)


def subspace_contains(a: Subspace, v) -> bool:
    """Membership by exact reduction against the canonical basis."""
    v = vec(v)
    if len(v) != a.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return not any(Echelon(a.ambient_dim, a._rows)._reduce(v)[0])


def kernel(m: Matrix) -> Subspace:
    """Null space {v : m·v = 0} as a canonical subspace of dimension cols - rank."""
    ech = Echelon(m.cols)
    for r in m.entries:
        if ech.rank == m.cols:
            break
        ech.insert(r)
    return span(_kernel_rows(ech), m.cols)


def _kernel_rows(ech: Echelon) -> list:
    """Integer vectors, one for each non-pivot column, that span the null space of ech's rows."""
    n = ech.ambient_dim
    basis_vecs = []
    for f in sorted(set(range(n)) - set(ech.pivots)):
        # e_f - sum of (row[f] / row[p])·e_p over the rows, times the lcm s of those row[p]
        terms = [(p, row[f], row[p]) for p, row in zip(ech.pivots, ech.rows) if row[f]]
        s = lcm(*[a for _, _, a in terms])
        v = [0] * n
        v[f] = s
        for p, x, a in terms:
            v[p] = -x * (s // a)
        basis_vecs.append(v)
    return basis_vecs


def solve(m: Matrix, b) -> tuple[Fraction, ...] | None:
    """One exact solution of m·x = b (free variables set to zero), or None
    when the reduced [m | b] has a pivot in its last column; x is that
    column at the pivot columns."""
    b = vec(b)
    if len(b) != m.rows:
        raise ValueError("dimension mismatch")
    n = m.cols
    ech = Echelon(n + 1, [r + (y,) for r, y in zip(m.entries, b)])
    if n in ech.pivots:
        return None
    x = [ZERO] * n
    for p, row in zip(ech.pivots, ech.rows):
        x[p] = Fraction(row[n], row[p])
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse, the right half of the reduced [m | I] = [I | m⁻¹];
    raises SingularMatrix when a pivot falls in the right half instead."""
    if m.rows != m.cols:
        raise SingularMatrix("matrix is not square")
    n = m.rows
    ech = Echelon(2 * n, [r + (0,) * i + (1,) + (0,) * (n - 1 - i) for i, r in enumerate(m.entries)])
    if any(p >= n for p in ech.pivots):
        raise SingularMatrix("matrix is singular")
    # row p of the reduced [I | m⁻¹] is the echelon row of pivot p divided by its pivot entry
    return Matrix(n, n, tuple([_divided(row[n:], row[p]) for p, row in sorted(zip(ech.pivots, ech.rows))]))
