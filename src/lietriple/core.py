"""Lie triple systems over the rationals.

A triple system is given by its structure tensor: ``c[i][j][k]`` is the
coordinate vector of the product (e_i, e_j, e_k).  The constructor
enforces the structural part of the axioms (alternation in the first two
slots, stored antisymmetrically); the cyclic and derivation identities are
checked by :func:`check_axioms`.

Each system keeps the nonzero coordinates of its products, ``_nz``, and
the triple product, the integer tensor, the axiom check, the derived
series and the centre read only those.  ``TripleSystem`` is a
``_tensor.Table`` of rank 3, which owns the layout of ``c`` and ``_nz``:
every system built here or by ``parse_lts`` comes from the pairs of the
upper half through ``_from_pairs``, antisymmetric by construction, and
builds the dense ``c`` only when it is read.  Only
``TripleSystem(dim, c)`` reads the pairs off ``c`` and checks the tensor.

Spans and kernels (the derived series, the centre, the ideal tests) run on
the tensor scaled to integers by one least common denominator and on the
primitive integer basis rows that each subspace keeps: the same spans,
with ``Fraction``s only in the returned subspaces, formed when their bases
are read.  Each system keeps its axiom verdict, so it is checked once,
and the fingerprint's fields read off M alone (``_m_fields``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import _tensor
from .exactla import (
    Echelon,
    Matrix,
    Subspace,
    ZERO,
    capped_span,
    form_inertia,
    full_subspace,
    inverse,
    kernel,
    subspace_series,
    vec,
    vec_nonzeros,
)


class InvalidLTS(ValueError):
    """The value does not satisfy the triple-system identities."""


class NotAnIdeal(ValueError):
    """A subspace argument was required to be an ideal but is not."""


@dataclass(frozen=True)
class TripleSystem(_tensor.Table):
    """Finite-dimensional Lie triple system given by its structure tensor."""

    dim: int
    c: tuple  # c[i][j][k] -> coordinate vector, all indices 0-based

    RANK = 3
    _KEY = "tensor"
    _SHAPE = "tensor shape does not match dimension"

    @staticmethod
    def _asymmetry(i: int, j: int, k: int) -> InvalidLTS:
        if i == j:
            return InvalidLTS(f"(e{i},e{i},e{k}) must vanish")
        return InvalidLTS(f"tensor not antisymmetric in the first two slots at ({i},{j},{k})")

    @cached_property
    def _verdict(self) -> AxiomVerdict:
        # kept on the instance, as the table is immutable: a system that
        # several steps require to be valid is checked once
        return check_axioms(self)

    @cached_property
    def _m_fields(self) -> tuple:
        # dim, the derived-series dims and the centre dim: the fingerprint's
        # fields read off M alone, which isomorphic compares before it asks
        # for the fingerprints.  The centre is the kernel of lts_center's
        # rows, so its dim is n minus their rank, read off one capped span
        n = self.dim
        rank = capped_span(_tensor.slot_rows(self, (0, 2)), n, n).dim
        return n, derived_series(self, full_subspace(n)).dims, n - rank

    @cached_property
    def _m_inertia(self) -> tuple:
        # the inertia of the Killing form of the standard embedding on M, with no
        # embedding built: K(x, y) = -tr(z -> (y, z, x)) - tr(z -> (x, z, y)), read
        # off the integer tensor d·c, d > 0
        S = self._integer[1]
        K = [[0] * self.dim for _ in S]
        for a, Sa in enumerate(S):
            for k, Sak in enumerate(Sa):
                for b, p in enumerate(Sak):
                    for l, x in p:
                        if l == k:  # a term of the trace of z -> (e_a, z, e_b)
                            K[a][b] -= x
                            K[b][a] -= x
        return form_inertia(K)


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome of an identity check: valid, or the first violation found.

    ``kind`` names the identity: ``"cyclic"`` or ``"derivation"`` from
    check_axioms, which scans cyclic instances (i,j,k), then derivation
    instances (x,y,u,v,w), each lexicographic, or ``"jacobi"`` from
    ``lie.check_jacobi``.  ``indices`` are 1-based.
    """

    ok: bool
    kind: str | None = None
    indices: tuple | None = None
    residual: tuple | None = None

    def __bool__(self):
        return self.ok


def triple_product(t: TripleSystem, x, y, z):
    """Trilinear extension of the tensor: sum x_i y_j z_k (e_i,e_j,e_k)."""
    n = t.dim
    x, y, z = vec(x), vec(y), vec(z)
    if len(x) != n or len(y) != n or len(z) != n:
        raise ValueError("dimension mismatch")
    return _triple(t._nz, vec_nonzeros(x), vec_nonzeros(y), vec_nonzeros(z), ZERO)


def _triple(nz, xs, ys, zs, zero):
    """(x, y, z) on the table of pairs nz (``_nz``, or its ints from
    ``_integer``) from the nonzero pairs (index, entry) of x, y and
    z; the coordinates start at zero."""
    out = [zero] * len(nz)
    for i, xi in xs:
        nzi = nz[i]
        for j, yj in ys:
            nzij = nzi[j]
            s = xi * yj
            for k, zk in zs:
                q = s * zk
                for l, v in nzij[k]:
                    out[l] += q * v
    return tuple(out)


def check_axioms(t: TripleSystem) -> AxiomVerdict:
    """Verify the defining identities exactly over all basis instances.

    Returns the lexicographically first violating instance if any.  The
    constructor enforces (x,x,y) = 0 and the antisymmetry in the first two
    slots, so each identity is scanned once per antisymmetry class, at the
    class's lexicographically first instance: the cyclic sum of (i,j,k) is
    alternating (a rotation keeps it, a swap of the first two slots negates
    it), so only i < j < k; the derivation residual of D_{e_i,e_j} on
    (u,v,w) is antisymmetric in (i,j) and in (u,v), so only i < j and
    u < v.  Both identities are homogeneous in the tensor, so the scan runs
    on the sparse integer tensor.  The residuals of one D_{e_i,e_j} on
    every (u,v,w) are summed over the nonzero products only, and the least
    (u,v,w) left nonzero is the first violation of that D.
    """
    n = t.dim
    d, S = t._integer
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                r = [0] * n
                for p in (S[i][j][k], S[j][k][i], S[k][i][j]):
                    for l, x in p:
                        r[l] += x
                if any(r):
                    residual = tuple(Fraction(x, d) for x in r)
                    return AxiomVerdict(False, "cyclic", (i + 1, j + 1, k + 1), residual)
    # the nonzero products (a, b, c) by a, and those with a < b by c, with the
    # offset of (a, b, 0) in r below
    first = [[(b, c, p) for b, Sab in enumerate(Sa) for c, p in enumerate(Sab) if p] for Sa in S]
    third = [[] for _ in range(n)]
    for a, cells in enumerate(first):
        for b, c, p in cells:
            if a < b:
                third[c].append(((a * n + b) * n * n, p))
    # r[o + l], o = ((u·n + v)·n + w)·n: coordinate l of the residual of one D
    # on (u, v, w), in units of 1/d^2; all zero again after a D that passes
    r = [0] * n**4
    for i in range(n):
        for j in range(i + 1, n):
            D = S[i][j]
            if not any(D):
                continue
            # D(u,v,w) - (Du,v,w) - (u,Dv,w) - (u,v,Dw), each term over the
            # nonzero products it reads; (u,Dv,w) = -(Dv,u,w)
            for w, cells in enumerate(third):
                for o, p in cells:
                    o += w * n
                    for k, x in p:
                        for l, y in D[k]:
                            r[o + l] += x * y
            for a, Da in enumerate(D):
                for k, x in Da:
                    # (Da, b, c) is the term (Du,v,w) of (a, b, c) or (u,Dv,w) of (b, a, c)
                    for b, c, p in first[k]:
                        if a < b:
                            o, z = ((a * n + b) * n + c) * n, -x
                        elif b < a:
                            o, z = ((b * n + a) * n + c) * n, x
                        else:
                            continue
                        for l, y in p:
                            r[o + l] += z * y
                    for o, p in third[k]:
                        o += a * n
                        for l, y in p:
                            r[o + l] -= x * y
            if r.count(0) != len(r):
                # the first nonzero coordinate lies in the least (u, v, w) left nonzero
                o = r.index(next(filter(None, r)))
                o -= o % n
                residual = tuple(Fraction(x, d * d) for x in r[o : o + n])
                indices = (i + 1, j + 1, o // n**3 + 1, o // n**2 % n + 1, o // n % n + 1)
                return AxiomVerdict(False, "derivation", indices, residual)
    return AxiomVerdict(True)


def require_axioms(t: TripleSystem) -> None:
    """Raise InvalidLTS naming the first violated identity; each system is
    checked once, and its verdict kept."""
    verdict = t._verdict
    if not verdict:
        raise InvalidLTS(f"{verdict.kind} identity violated at {verdict.indices}")


def _products_in(t: TripleSystem, d: Subspace, xs, ys, zs) -> bool:
    """Every (x, y, z) with x, y and z given by their nonzero integer pairs in
    xs, ys and zs lies in d."""
    if d.ambient_dim != t.dim:
        raise ValueError("ambient dimension mismatch")
    ech = Echelon(t.dim, d._rows)
    S = t._integer[1]
    return not any(any(ech._reduce(_triple(S, x, y, z, 0))[0]) for x in xs for y in ys for z in zs)


def is_ideal(t: TripleSystem, d: Subspace) -> bool:
    """(D, M, M) contained in D; the other slots follow from the identities."""
    units = [((j, 1),) for j in range(t.dim)]
    return _products_in(t, d, [vec_nonzeros(r) for r in d._rows], units, units)


def is_subsystem(t: TripleSystem, d: Subspace) -> bool:
    """(D, D, D) contained in D."""
    vs = [vec_nonzeros(r) for r in d._rows]
    return _products_in(t, d, vs, vs, vs)


def derived_subspace(t: TripleSystem, om: Subspace) -> Subspace:
    """Span of (M, om, om): all (e_i, a, b) with a, b over the basis of om,
    each taken as a positive multiple on the integer tensor and basis rows."""
    if om.ambient_dim != t.dim:
        raise ValueError("ambient dimension mismatch")
    if om.dim == t.dim:
        return t._derived
    S = t._integer[1]
    vs = [vec_nonzeros(r) for r in om._rows]
    products = (_triple(S, ((i, 1),), a, b, 0) for i in range(t.dim) for a in vs for b in vs)
    # (M, om, om) lies in M
    return capped_span(products, t.dim, t.dim)


@dataclass(frozen=True)
class DerivedSeries:
    """Derived series of an ideal: om, (M,om,om), (M,·,·), ...

    ``terms`` ends at the first zero term, or at the first repeated term
    when the series stabilizes above zero.  ``depth`` is the number of
    derivation steps taken; ``solvable`` iff the last term is zero.
    """

    terms: tuple
    solvable: bool
    depth: int

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.terms)


def derived_series(t: TripleSystem, om: Subspace) -> DerivedSeries:
    # the whole space is an ideal of any tensor, (M, M, M) ⊆ M, so only a
    # proper subspace needs the proof
    if om.dim != t.dim and not is_ideal(t, om):
        raise NotAnIdeal("derived series requires an ideal")
    # dimensions strictly decrease until stabilization, so this terminates
    terms = subspace_series(om, lambda s: derived_subspace(t, s))
    return DerivedSeries(terms, terms[-1].is_zero(), len(terms) - 1)


def lts_center(t: TripleSystem) -> Subspace:
    """{z : (z, x, y) = 0 and (x, y, z) = 0 for all basis x, y}."""
    # the rows of z -> (z, e_j, e_k), then those of z -> (e_i, e_j, z)
    rows = _tensor.slot_rows(t, (0, 2))
    return kernel(Matrix(len(rows), t.dim, tuple(rows)))


def quotient(t: TripleSystem, om: Subspace) -> TripleSystem:
    """Quotient triple system by an ideal, on the non-pivot standard coordinates."""
    if not is_ideal(t, om):
        raise NotAnIdeal("quotient requires an ideal")
    ech = Echelon(t.dim, om._rows)
    complement = [j for j in range(t.dim) if j not in ech.pivots]
    q = len(complement)
    pairs = {}
    for a in range(q):
        for b in range(a + 1, q):
            for k in range(q):
                residual = ech.reduce(t.c[complement[a]][complement[b]][complement[k]])
                pairs[(a, b, k)] = vec_nonzeros([residual[j] for j in complement])
    return TripleSystem._from_pairs(q, pairs)


def direct_sum(a: TripleSystem, b: TripleSystem) -> TripleSystem:
    """Block tensor with all cross products zero."""
    pairs = {}
    for s, o in ((a, 0), (b, a.dim)):
        for (i, j, k), p in _tensor.upper(s._nz, 3):
            pairs[(o + i, o + j, o + k)] = tuple([(o + l, x) for l, x in p])
    return TripleSystem._from_pairs(a.dim + b.dim, pairs)


def transform(t: TripleSystem, T: Matrix) -> TripleSystem:
    """Basis change: rows of T are the new basis vectors in old coordinates.

    Mode products on the integer tensor (cf. Kolda and Bader, 2009), with T
    and T⁻¹ scaled to ints: the third slot is contracted with T, then the
    first two in one step weighted by the minors T_ai·T_bj − T_aj·T_bi,
    i < j, as the tensor is antisymmetric there, and last the coordinates
    with T⁻¹, since old coordinates v are new ones x by v = x·T.  Each
    nonzero coordinate is one ``Fraction``, formed at the end.
    """
    n = t.dim
    if T.rows != n or T.cols != n:
        raise ValueError("transform matrix must be n x n")
    (s, A), (r, B) = (_scaled(M.entries) for M in (T, inverse(T)))  # inverse raises SingularMatrix
    d, S = t._integer
    cells = []  # (i, j, W) for i < j with a nonzero product: W[k] the pairs of (e_i, e_j, row k of A)
    for i in range(n):
        for j in range(i + 1, n):
            if any(S[i][j]):
                W = [[0] * n for _ in A]
                for c, p in enumerate(S[i][j]):
                    for l, y in p:
                        for w, Ak in zip(W, A):
                            w[l] += Ak[c] * y
                cells.append((i, j, [vec_nonzeros(w) for w in W]))
    den, pairs = s**3 * d * r, {}
    for a in range(n):
        for b in range(a + 1, n):
            minors = [(m, W) for i, j, W in cells if (m := A[a][i] * A[b][j] - A[a][j] * A[b][i])]
            for k in range(n):
                v = [0] * n
                for m, W in minors:
                    for l, x in W[k]:
                        v[l] += m * x
                out = [0] * n
                for l, x in enumerate(v):
                    if x:
                        out = [o + x * y for o, y in zip(out, B[l])]
                pairs[(a, b, k)] = tuple([(l, Fraction(x, den)) for l, x in enumerate(out) if x])
    return TripleSystem._from_pairs(n, pairs)


def _scaled(rows) -> tuple[int, list]:
    """(s, ints): the least common denominator s of the entries of rows, and rows times s, as ints."""
    s = lcm(*[x.denominator for row in rows for x in row])
    return s, [[x.numerator * (s // x.denominator) for x in row] for row in rows]
