"""Lie algebras from structure constants, with the tools the triple-system
side leans on: Jacobi checking, derived/lower-central series, the Killing
form and its exact signature, radical, center, gradings and the passage
from a graded algebra back to a triple system.

Each algebra keeps the nonzero coordinates of its brackets, ``_nz``, and
the bracket, the series, the Killing form, the radical, the centre and the
grading check read only those.  ``LieAlgebra`` is a ``_tensor.Table`` of
rank 2, which owns the layout of ``f`` and ``_nz``: ``from_entries``,
``parse_lie`` and ``standard_embedding`` build from the pairs of the upper
half through ``_from_pairs``, antisymmetric by construction.  Only
``LieAlgebra(dim, f)`` reads the pairs off ``f`` and checks the table.
[G, G] is spanned at most once per algebra too: it is the second term of
both series and the span whose Killing-orthogonal complement is the
radical, and ``standard_embedding`` hands its algebra that span.
Spans and kernels run on the brackets scaled to integers by one least
common denominator d and on the Killing sums d²·K: the same spans, with
``Fraction``s only in the returned subspaces, formed when their bases are
read.  The Killing signature runs on d²·K too (``exactla.form_inertia``),
and ``killing_form`` builds the ``Fraction`` form from it when called.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import _tensor
from .core import AxiomVerdict, TripleSystem
from .exactla import (
    Matrix,
    ONE,
    Subspace,
    ZERO,
    capped_span,
    form_inertia,
    full_subspace,
    kernel,
    span,
    subspace_series,
    vec,
    vec_nonzeros,
)


class InvalidGrading(ValueError):
    """The sign vector is not a valid involutive grading of the algebra."""


@dataclass(frozen=True)
class LieAlgebra(_tensor.Table):
    """Lie algebra given by its bracket tensor f[i][j] = [e_i, e_j]."""

    dim: int
    f: tuple  # f[i][j] -> coordinate vector, 0-based

    RANK = 2
    _KEY = "bracket"
    _SHAPE = "bracket tensor shape does not match dimension"

    @staticmethod
    def _asymmetry(i: int, j: int) -> ValueError:
        if i == j:
            return ValueError(f"[e{i},e{i}] must vanish")
        return ValueError(f"brackets not antisymmetric at ({i},{j})")

    @cached_property
    def _killing_sums(self) -> list:
        # kept on the instance: a fingerprint reads the Killing form through
        # both _killing_image and killing_signature
        return _killing_form(self)

    @cached_property
    def _killing_image(self) -> tuple:
        # kept on the instance: lie_radical takes its kernel, decompose
        # and fingerprint its blocks (embed._radical_blocks)
        return _killing_rows(self)


@dataclass(frozen=True)
class Grading:
    """Sign vector of an involutive grading: -1 on the triple-system part, +1 on h."""

    signs: tuple  # entries are the ints +1 or -1

    def __post_init__(self):
        if any(type(s) is not int or s not in (1, -1) for s in self.signs):
            raise ValueError("grading signs must be +1 or -1")

    @property
    def minus_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.signs) if s == -1)

    @property
    def plus_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.signs) if s == 1)


@dataclass(frozen=True)
class KillingSignature:
    positive: int
    negative: int
    zero: int

    def as_tuple(self):
        return (self.positive, self.negative, self.zero)


@dataclass(frozen=True)
class GradingVerdict:
    ok: bool
    indices: tuple | None = None  # 1-based offending bracket pair
    coordinate: int | None = None  # 1-based coordinate with the wrong parity

    def __bool__(self):
        return self.ok


def bracket(g: LieAlgebra, x, y):
    """Bilinear extension of the bracket tensor."""
    m = g.dim
    x, y = vec(x), vec(y)
    if len(x) != m or len(y) != m:
        raise ValueError("dimension mismatch")
    return _bracket(g._nz, vec_nonzeros(x), vec_nonzeros(y), ZERO)


def _bracket(nz, xs, ys, zero):
    """[x, y] on the table of pairs nz (``_nz``, or its ints from
    ``_integer``) from the nonzero pairs (i, x_i) and (j, y_j) of x
    and y; the coordinates start at zero."""
    out = [zero] * len(nz)
    for i, xi in xs:
        nzi = nz[i]
        for j, yj in ys:
            s = xi * yj
            for l, v in nzi[j]:
                out[l] += s * v
    return tuple(out)


def check_jacobi(g: LieAlgebra) -> AxiomVerdict:
    """Jacobi identity on the basis triples i < j < k; first violation in lex order.

    The bracket is antisymmetric, so the Jacobiator is alternating: it
    vanishes on a triple with a repeated index, and the lexicographically
    first violating triple is sorted.  The brackets are scaled to integers
    by their least common denominator d, and only nonzero constants are
    visited: a cyclic term [[e_a, e_b], e_c] reads the nonzeros of
    [e_a, e_b] and, for each, those of [e_q, e_c].  The residual is d^-2
    times the integer sum."""
    m = g.dim
    d, nz = g._integer
    for i in range(m):
        for j in range(i + 1, m):
            ij, nz_j = nz[i][j], nz[j]
            for k in range(j + 1, m):
                jk, ki = nz_j[k], nz[k][i]
                if not (ij or jk or ki):
                    continue
                r = {}
                for v, c in ((ij, k), (jk, i), (ki, j)):
                    for q, vq in v:
                        for l, x in nz[q][c]:
                            r[l] = r.get(l, 0) + vq * x
                if any(r.values()):
                    residual = tuple(Fraction(r.get(l, 0), d * d) for l in range(m))
                    return AxiomVerdict(False, "jacobi", (i + 1, j + 1, k + 1), residual)
    return AxiomVerdict(True)


def _series(g: LieAlgebra, pairs) -> tuple[Subspace, ...]:
    """The series from G whose step spans the integer brackets of pairs(vs),
    vs the primitive basis rows of the last term; G steps to its own [G, G]."""
    nz = g._integer[1]

    def step(s: Subspace) -> Subspace:
        if s.dim == g.dim:
            return g._derived
        vs = [vec_nonzeros(r) for r in s._rows]
        # each term lies in the one before
        return capped_span((_bracket(nz, x, y, 0) for x, y in pairs(vs)), g.dim, s.dim)

    return subspace_series(full_subspace(g.dim), step)


def lie_derived_series(g: LieAlgebra) -> tuple[Subspace, ...]:
    """Iterated [S, S] to stabilization, starting at the full algebra."""
    # antisymmetry: pairs with a <= b contribute nothing new
    return _series(g, lambda vs: ((x, y) for a, x in enumerate(vs) for y in vs[a + 1 :]))


def lower_central_series(g: LieAlgebra) -> tuple[Subspace, ...]:
    """Iterated [G, S] to stabilization, starting at the full algebra."""
    return _series(g, lambda vs: ((((i, 1),), y) for i in range(g.dim) for y in vs))


def killing_form(g: LieAlgebra) -> Matrix:
    """K[i][j] = trace(ad e_i ∘ ad e_j), read off the algebra's sums d²·K."""
    dd = g._integer[0] ** 2
    return Matrix(g.dim, g.dim, tuple([tuple([Fraction(x, dd) if x else ZERO for x in r]) for r in g._killing_sums]))


def _killing_form(g: LieAlgebra) -> list:
    """d²·K as rows of ints: K[i][j] = sum of c_ik^l·c_jl^k, over matched
    nonzero constants only, with the constants scaled to integers by their
    least common denominator d, as in check_jacobi."""
    m = g.dim
    d, nz = g._integer
    # by_lk[(l, k)]: the pairs (j, d·c_jl^k) of the nonzero constants
    by_lk = {}
    for j, nzj in enumerate(nz):
        for l, v in enumerate(nzj):
            for k, y in v:
                by_lk.setdefault((l, k), []).append((j, y))
    K = [[0] * m for _ in range(m)]
    for i, nzi in enumerate(nz):
        row = K[i]
        for k, v in enumerate(nzi):
            for l, x in v:
                for j, y in by_lk.get((l, k), ()):
                    if j >= i:
                        row[j] += x * y
        # K is symmetric: rows below i read their entries left of the diagonal from here
        for j in range(i + 1, m):
            K[j][i] = row[j]
    return K


def killing_signature(g: LieAlgebra) -> KillingSignature:
    """Exact signature: the inertia of the sums d²·K, whose pivots are K's times d² > 0."""
    return KillingSignature(*form_inertia(g._killing_sums))


def _killing_rows(g: LieAlgebra) -> tuple:
    """The primitive integer echelon rows of K·[g, g]: the rows K·x over the
    primitive basis rows x of [g, g], summed over the nonzero entries of x
    and of K, as positive multiples in ints (the sums d²·K), then reduced."""
    m = g.dim
    K = [vec_nonzeros(r) for r in g._killing_sums]
    rows = []
    for x in g._derived._rows:
        row = [0] * m
        for i, xi in vec_nonzeros(x):
            for j, y in K[i]:
                row[j] += xi * y
        rows.append(row)
    return span(rows, m)._rows


def lie_radical(g: LieAlgebra) -> Subspace:
    """Radical as the Killing-orthogonal complement of [g, g] (characteristic 0):
    the kernel of the rows of K·[g, g]."""
    rows = g._killing_image
    return kernel(Matrix(len(rows), g.dim, rows))


def lie_center(g: LieAlgebra) -> Subspace:
    """{x : [x, e_j] = 0 for all j}."""
    rows = _tensor.slot_rows(g, (0,))
    return kernel(Matrix(len(rows), g.dim, tuple(rows)))


def check_grading(g: LieAlgebra, gr: Grading) -> GradingVerdict:
    """Every bracket must land in the parity-correct coordinate span."""
    if len(gr.signs) != g.dim:
        raise ValueError("grading length does not match algebra dimension")
    for (i, j), p in _tensor.upper(g._nz, 2):
        parity = gr.signs[i] * gr.signs[j]
        for l, _ in p:
            if gr.signs[l] != parity:
                return GradingVerdict(False, (i + 1, j + 1), l + 1)
    return GradingVerdict(True)


def require_grading(g: LieAlgebra, gr: Grading) -> None:
    """Raise InvalidGrading naming the first bracket of wrong parity."""
    verdict = check_grading(g, gr)
    if not verdict:
        raise InvalidGrading(
            f"bracket [e{verdict.indices[0]},e{verdict.indices[1]}] has a component of wrong parity"
        )


def lie_to_lts(g: LieAlgebra, gr: Grading) -> TripleSystem:
    """Triple system (x, y, z) = [[x, y], z] on the minus part of a grading."""
    require_grading(g, gr)
    minus = gr.minus_indices
    n = len(minus)
    pairs = {}
    for a in range(n):
        for b in range(a + 1, n):
            inner = g._nz[minus[a]][minus[b]]
            if not inner:
                continue
            for k in range(n):
                double = _bracket(g._nz, inner, ((minus[k], ONE),), ZERO)
                # parity guarantees the plus-part of the double bracket vanishes
                pairs[(a, b, k)] = vec_nonzeros([double[l] for l in minus])
    return TripleSystem._from_pairs(n, pairs)
