"""The universal enveloping construction: from a triple system M build the
graded Lie algebra G = M + h, where h is spanned by the inner derivations
D_{x,y} : z -> (x, y, z), with brackets

    [X, Y] = D_{X,Y},   [A, X] = -[X, A] = A·X,   [A, B] = AB - BA

for X, Y in M and A, B in h.  M occupies the first n coordinates of G and
carries grading sign -, h the rest with sign +.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InvalidLTS, TripleSystem, check_axioms
from .exactla import (
    Echelon,
    Matrix,
    Subspace,
    ZERO,
    span,
    subspace_intersect,
    unit_vec,
    vec,
    vec_is_zero,
    vec_neg,
)
from .lie import Grading, LieAlgebra, lie_radical, require_grading


@dataclass(frozen=True)
class StandardEmbedding:
    """A triple system together with its enveloping graded Lie algebra."""

    source: TripleSystem
    algebra: LieAlgebra
    grading: Grading
    h_basis: tuple  # tuple of n x n Matrix, the chosen inner-derivation basis
    h_dim: int


@dataclass(frozen=True)
class Decomposition:
    """Radical-side pieces of the enveloping algebra.

    r is the radical of G; m_prime = M ∩ r projected to source coordinates,
    h_prime = h ∩ r projected to h coordinates; r = m_prime + h_prime.
    """

    r: Subspace
    m_prime: Subspace
    h_prime: Subspace


def inner_derivation(t: TripleSystem, x, y) -> Matrix:
    """Matrix of z -> (x, y, z); column k is the product (x, y, e_k)."""
    n = t.dim
    x, y = vec(x), vec(y)
    if len(x) != n or len(y) != n:
        raise ValueError("dimension mismatch")
    cols = []
    for k in range(n):
        col = [ZERO] * n
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                v = t.c[i][j][k]
                s = xi * yj
                for l in range(n):
                    if v[l]:
                        col[l] += s * v[l]
        cols.append(col)
    return Matrix.from_rows([[cols[k][l] for k in range(n)] for l in range(n)], n)


def _flat(m: Matrix):
    return tuple(x for row in m.entries for x in row)


def standard_embedding(t: TripleSystem) -> StandardEmbedding:
    """Build G = M + h with a deterministic basis of h.

    The basis of h is chosen greedily from the basis derivations D_{e_i,e_j}
    in lexicographic (i, j) order, keeping each one that enlarges the span.
    """
    verdict = check_axioms(t)
    if not verdict:
        raise InvalidLTS(f"{verdict.kind} identity violated at {verdict.indices}")
    n = t.dim
    derivations = {}
    for i in range(n):
        for j in range(i + 1, n):
            derivations[(i, j)] = inner_derivation(t, unit_vec(n, i), unit_vec(n, j))
    h = Echelon(n * n)
    h_basis = [D for _, D in sorted(derivations.items()) if h.insert(_flat(D))]
    h_dim = len(h_basis)
    m = n + h_dim
    pad = (ZERO,) * n

    def h_coords(D: Matrix):
        coords = h.coords(_flat(D))
        if coords is None:
            raise AssertionError("derivation escaped the span of the chosen basis")
        return coords

    entries = {}
    for (i, j), D in derivations.items():
        coords = h_coords(D)
        if not vec_is_zero(coords):
            entries[(i, j)] = pad + coords
    for a, D in enumerate(h_basis):
        for i in range(n):
            col = D.col(i)
            if not vec_is_zero(col):
                # stored as [e_i, e_{n+a}] = -[A, X] = -A·e_i
                entries[(i, n + a)] = vec_neg(col) + (ZERO,) * h_dim
    for a in range(h_dim):
        for b in range(a + 1, h_dim):
            coords = h_coords((h_basis[a] * h_basis[b]).sub(h_basis[b] * h_basis[a]))
            if not vec_is_zero(coords):
                entries[(n + a, n + b)] = pad + coords
    algebra = LieAlgebra.from_entries(m, entries)
    grading = Grading(tuple([-1] * n + [1] * h_dim))
    return StandardEmbedding(t, algebra, grading, tuple(h_basis), h_dim)


def is_canonical(e: StandardEmbedding) -> bool:
    """True when h contains no nonzero ideal of the algebra.

    An ideal I inside h has [I, M] ⊆ I ∩ M = 0, as the grading puts [h, M]
    in M, and {x in h : [x, M] = 0} is an ideal by the Jacobi identity; so
    the answer is whether the rows ([e_p, e_i]) over the minus basis i, one
    for each p in the plus basis, have rank dim h.  Raises InvalidGrading
    when the grading does not hold.
    """
    g, gr = e.algebra, e.grading
    require_grading(g, gr)
    plus, minus = gr.plus_indices, gr.minus_indices
    rows = [tuple(g.f[p][i][l] for i in minus for l in minus) for p in plus]
    return Echelon(len(minus) ** 2, rows).rank == len(plus)


def decompose(e: StandardEmbedding) -> Decomposition:
    """Radical of the enveloping algebra split into its M and h parts."""
    g = e.algebra
    m = g.dim
    n = e.source.dim
    r = lie_radical(g)
    m_span = span([unit_vec(m, i) for i in range(n)], m)
    h_span = span([unit_vec(m, n + a) for a in range(e.h_dim)], m)
    m_part = subspace_intersect(r, m_span)
    h_part = subspace_intersect(r, h_span)
    if m_part.dim + h_part.dim != r.dim:
        raise AssertionError("radical is not graded by the involution")
    m_prime = span([v[:n] for v in m_part.vectors()], n)
    h_prime = span([v[n:] for v in h_part.vectors()], e.h_dim)
    return Decomposition(r, m_prime, h_prime)


def lts_radical(t: TripleSystem) -> Subspace:
    """Maximal solvable ideal, computed as M ∩ radical(G) in the embedding."""
    return decompose(standard_embedding(t)).m_prime
