"""The universal enveloping construction: from a triple system M build the
graded Lie algebra G = M + h, where h is spanned by the inner derivations
D_{x,y} : z -> (x, y, z), with brackets

    [X, Y] = D_{X,Y},   [A, X] = -[X, A] = A·X,   [A, B] = AB - BA

for X, Y in M and A, B in h.  M occupies the first n coordinates of G and
carries grading sign -, h the rest with sign +.

Everything is read off the nonzero products, with no matrix products.
The matrix of D_{e_i,e_j} has column k equal to c[i][j][k].  A D_{e_i,e_j}
kept in the basis of h is its own basis vector; the h-coordinates of any
other come from its entries at the echelon pivots of h and one inverse of
an h_dim x h_dim matrix, computed only when some D_{e_i,e_j} was not kept.
Both steps read the matrices scaled to integers by the tensor's least
common denominator d, which changes neither the span nor the
h-coordinates.  Each D_{p,q} is a derivation of the triple product, so

    [D_{p,q}, D_{u,v}] = D_{(p,q,u),v} + D_{u,(p,q,v)},

and each bracket [A, B] of h is a combination of those coordinates,
summed over their nonzero entries only.  The sums run in ints, on the
integer tensor and on the h-coordinates times the least common
denominator q of the inverse, and each bracket coordinate is formed as a
``Fraction`` once, over d·q.  The identity needs valid axioms, which is
why the axioms are checked before anything else is built.

[G, G] is read off the grading rather than spanned again: [M, M] = h,
[h, M] = (M, M, M) and [h, h] lies in h, so [G, G] = (M, M, M) + h,
and the algebra is handed that span with its brackets.

The radical of G and its parts in M and in h are read off one matrix:
the rows of K·[G, G], reduced once per algebra, each of which lies in
the M or the h block (see ``_radical_blocks``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import TripleSystem, require_axioms, triple_product
from .exactla import (
    Echelon,
    Matrix,
    Subspace,
    inverse,
    kernel,
    unit_vec,
    vec,
    vec_from_pairs,
)
from .lie import Grading, LieAlgebra, require_grading


@dataclass(frozen=True)
class StandardEmbedding:
    """A triple system together with its enveloping graded Lie algebra.

    Built by standard_embedding, it is canonical by construction: the basis
    of h is a set of inner derivations independent as maps of M, so no
    nonzero element of h acts on M as zero and h holds no nonzero ideal.
    is_canonical tests this for embeddings assembled by hand.
    """

    source: TripleSystem
    algebra: LieAlgebra
    grading: Grading
    h_basis: tuple  # tuple of n x n Matrix, the chosen inner-derivation basis
    h_dim: int


@dataclass(frozen=True)
class Decomposition:
    """Radical-side pieces of the enveloping algebra.

    r is the radical of G, r = m_prime + h_prime, and m_prime = M ∩ r and
    h_prime = h ∩ r in source and in h coordinates.
    """

    r: Subspace
    m_prime: Subspace
    h_prime: Subspace


def inner_derivation(t: TripleSystem, x, y) -> Matrix:
    """Matrix of z -> (x, y, z); column k is the product (x, y, e_k)."""
    n = t.dim
    x, y = vec(x), vec(y)
    # triple_product checks the lengths too, but makes no call when n = 0
    if len(x) != n or len(y) != n:
        raise ValueError("dimension mismatch")
    cols = [triple_product(t, x, y, unit_vec(n, k)) for k in range(n)]
    return Matrix.from_rows(cols, n).transpose()


def standard_embedding(t: TripleSystem) -> StandardEmbedding:
    """Build G = M + h with a deterministic basis of h.

    The basis of h is chosen greedily from the basis derivations D_{e_i,e_j}
    in lexicographic (i, j) order, keeping each one that enlarges the span.
    """
    require_axioms(t)
    n = t.dim
    nz = t._nz
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # d·D_{e_i,e_j} in ints, flattened column by column: column k is d·c[i][j][k]
    d, S = t._integer
    flat = {ij: [0] * (n * n) for ij in pairs}
    for (i, j), v in flat.items():
        for k, p in enumerate(S[i][j]):
            for l, x in p:
                v[k * n + l] = x
    h = Echelon(n * n)
    chosen = [ij for ij in pairs if h.insert(flat[ij])]
    h_dim = len(chosen)
    index = {ij: a for a, ij in enumerate(chosen)}
    # the h-coordinates are kept times q, the least common denominator of Q⁻¹
    q = 1
    if h_dim < len(pairs):
        # h's echelon rows are diagonal on h.pivots, so a flat D of the span is
        # (D at the pivots)·Q⁻¹ over the chosen flats; Q[a][s] is flat a at pivot s
        Q = Matrix(h_dim, h_dim, tuple(tuple(flat[ij][p] for p in h.pivots) for ij in chosen))
        Qinv = inverse(Q).entries
        q = lcm(*(x.denominator for r in Qinv for x in r))
        Qinv = [[(b, x.numerator * (q // x.denominator)) for b, x in enumerate(r) if x] for r in Qinv]

    # K[i][j]: the nonzero pairs (a, q·x) of the h-coordinates x of D_{e_i,e_j},
    # antisymmetric; a chosen D is the unit vector of its index
    K = [[()] * n for _ in range(n)]
    # brackets[(i, j)], i < j: the nonzero pairs (l, x) of [e_i, e_j] in G
    brackets = {}
    for i, j in pairs:
        a = index.get((i, j))
        if a is None:
            acc = {}
            for s, p in enumerate(h.pivots):
                if x := flat[(i, j)][p]:
                    for b, y in Qinv[s]:
                        acc[b] = acc.get(b, 0) + x * y
            K[i][j] = tuple([(b, x) for b, x in sorted(acc.items()) if x])
        else:
            K[i][j] = ((a, q),)
        K[j][i] = tuple([(b, -x) for b, x in K[i][j]])
        if K[i][j]:
            brackets[(i, j)] = tuple([(n + b, Fraction(x, q)) for b, x in K[i][j]])
    for a, (p, r) in enumerate(chosen):
        for k, col in enumerate(nz[p][r]):
            if col:
                # stored as [e_k, e_{n+a}] = -[A, X] = -A·e_k
                brackets[(k, n + a)] = tuple([(l, -x) for l, x in col])
        D = S[p][r]  # d·D_{p,r}, column by column
        for b in range(a + 1, h_dim):
            u, v = chosen[b]
            # [D_{p,r}, D_{u,v}] = D_{(p,r,u),v} + D_{u,(p,r,v)}, in units of 1/(d·q)
            acc = {}
            for l, x in D[u]:
                for c, y in K[l][v]:
                    acc[c] = acc.get(c, 0) + x * y
            for l, x in D[v]:
                for c, y in K[u][l]:
                    acc[c] = acc.get(c, 0) + x * y
            if bracket := [(n + c, Fraction(x, d * q)) for c, x in sorted(acc.items()) if x]:
                brackets[(n + a, n + b)] = tuple(bracket)
    # [M, M] = h and [h, M] = (M, M, M), so [G, G] is (M, M, M) + h: the rows
    # of t's derived span, padded, then the unit rows of h
    m = n + h_dim
    rows = [row + (0,) * h_dim for row in t._derived._rows]
    rows += [(0,) * (n + a) + (1,) + (0,) * (h_dim - 1 - a) for a in range(h_dim)]
    algebra = LieAlgebra._from_pairs(m, brackets, _derived=Subspace._of_rows(m, tuple(rows)))
    grading = Grading(tuple([-1] * n + [1] * h_dim))
    # the matrix of D_{p,r} has column k = (e_p, e_r, e_k)
    h_basis = tuple(Matrix(n, n, tuple(zip(*(vec_from_pairs(col, n) for col in nz[p][r])))) for p, r in chosen)
    return StandardEmbedding(t, algebra, grading, h_basis, h_dim)


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


def _radical_blocks(e: StandardEmbedding) -> tuple[list, list]:
    """The reduced rows R of K·[G, G] in the M block, as their M-columns,
    and those in the h block, as their h-columns.

    The radical r of G is the kernel of R.  The grading involution is an
    automorphism, so K pairs M only with M and h only with h, and [G, G]
    is graded; so is the row space of R, and each reduced row lies in one
    block.  So r is the sum of r ∩ M and r ∩ h, the kernels of the two
    blocks.  A row in both blocks raises AssertionError.
    """
    n = e.source.dim
    R = e.algebra._killing_image
    m_rows = [row[:n] for row in R if any(row[:n])]
    h_rows = [row[n:] for row in R if any(row[n:])]
    # a row in both blocks is counted twice
    if len(m_rows) + len(h_rows) > len(R):
        raise AssertionError("radical is not graded by the involution")
    return m_rows, h_rows


def decompose(e: StandardEmbedding) -> Decomposition:
    """Radical of the enveloping algebra split into its M and h parts: the
    kernels of the two blocks of ``_radical_blocks``, and r their sum."""
    n, h_dim = e.source.dim, e.h_dim
    m_rows, h_rows = _radical_blocks(e)
    m_prime = kernel(Matrix(len(m_rows), n, tuple(m_rows)))
    h_prime = kernel(Matrix(len(h_rows), h_dim, tuple(h_rows)))
    # the echelon rows of m' then of h', padded with zeros, are those of r
    rows = [x + (0,) * h_dim for x in m_prime._rows] + [(0,) * n + y for y in h_prime._rows]
    return Decomposition(Subspace._of_rows(n + h_dim, tuple(rows)), m_prime, h_prime)


def lts_radical(t: TripleSystem) -> Subspace:
    """Maximal solvable ideal, computed as M ∩ radical(G) in the embedding."""
    return decompose(standard_embedding(t)).m_prime
