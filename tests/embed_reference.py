"""Reference standard embedding and radical decomposition.

``standard_embedding`` is the original one: it builds every basis
derivation D_{e_i,e_j} as a dense matrix, chooses the basis of h with an
echelon of the flattened matrices, solves for the h-coordinates of each
derivation with ``exactla.solve`` (the chosen flats as columns), and
computes every h-h bracket as the commutator AB - BA of two basis
matrices.  The tests
compare ``lietriple.embed.standard_embedding``, which reads all of this
off the structure tensor, against it byte for byte.

``decompose`` is the original radical split: it intersects the radical
with the coordinate spans of M and of h by Zassenhaus reduction.
``decompose_by_projection`` is the split that replaced it: it projects
the radical's basis to M and to h and spans the projections again.  The
tests compare ``lietriple.embed.decompose``, which takes the kernels of
the column blocks of K·[G, G] instead, against both.
"""

from __future__ import annotations

from lietriple.core import InvalidLTS, TripleSystem, check_axioms
from lietriple.embed import Decomposition, StandardEmbedding, inner_derivation
from lietriple.exactla import (
    Echelon,
    Matrix,
    ZERO,
    solve,
    span,
    subspace_intersect,
    unit_vec,
    vec_is_zero,
)
from lietriple.lie import Grading, LieAlgebra, lie_radical
from util import vec_neg


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
    columns = Matrix.from_rows([_flat(D) for D in h_basis], n * n).transpose()

    def h_coords(D: Matrix):
        coords = solve(columns, _flat(D))
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


def decompose_by_projection(e: StandardEmbedding) -> Decomposition:
    """Radical of the enveloping algebra split into its M and h parts.

    The parts are the projections of the radical's basis onto the M and
    the h coordinates: the radical is invariant under the grading
    involution, so it is the sum of its parts in M and in h.
    """
    r = lie_radical(e.algebra)
    n = e.source.dim
    # r lies in π_M(r) + π_h(r), with equality exactly when r is graded;
    # then the projections are r ∩ M and r ∩ h
    m_prime = span([v[:n] for v in r.vectors()], n)
    h_prime = span([v[n:] for v in r.vectors()], e.h_dim)
    if m_prime.dim + h_prime.dim != r.dim:
        raise AssertionError("radical is not graded by the involution")
    return Decomposition(r, m_prime, h_prime)
