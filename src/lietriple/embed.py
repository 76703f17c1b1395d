"""The universal enveloping construction: from a triple system M build the
graded Lie algebra G = M + h, where h is spanned by the inner derivations
D_{x,y} : z -> (x, y, z), with brackets

    [X, Y] = D_{X,Y},   [A, X] = -[X, A] = A·X,   [A, B] = AB - BA

for X, Y in M and A, B in h.  M occupies the first n coordinates of G and
carries grading sign -, h the rest with sign +.

Everything is read off the structure tensor, with no matrix products.  The
matrix of D_{e_i,e_j} has column k equal to c[i][j][k].  A D_{e_i,e_j} kept
in the basis of h is its own basis vector; the h-coordinates of any other
come from its entries at the echelon pivots of h and one inverse of an
h_dim x h_dim matrix, computed only when some D_{e_i,e_j} was not kept.
Both steps read the matrices scaled to integers by the tensor's least
common denominator, which changes neither the span nor the h-coordinates.
Each D_{p,q} is a derivation of the triple product, so

    [D_{p,q}, D_{u,v}] = D_{(p,q,u),v} + D_{u,(p,q,v)},

and each bracket [A, B] of h is a combination of those coordinates,
summed over their nonzero entries only.  The identity needs valid
axioms, which is why the axioms are checked before anything else is
built.

The radical of G and its parts in M and in h are read off one matrix:
the rows of K·[G, G], reduced once per algebra, each of which lies in
the M or the h block (see ``_radical_blocks``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import TripleSystem, require_axioms, triple_product
from .exactla import (
    Echelon,
    Matrix,
    ONE,
    Subspace,
    inverse,
    kernel,
    unit_vec,
    vec,
    vec_nonzeros,
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


def _combination(terms) -> tuple:
    """The nonzero pairs (a, z), a increasing, of the sum of x·w over the
    pairs (x, w), each w given by its nonzero pairs."""
    acc = {}
    for x, w in terms:
        if x:
            for a, y in w:
                # Fraction first: int * Fraction takes the slower Fraction.__rmul__
                z = y * x
                acc[a] = acc[a] + z if a in acc else z
    return tuple([(a, z) for a, z in sorted(acc.items()) if z])


def standard_embedding(t: TripleSystem) -> StandardEmbedding:
    """Build G = M + h with a deterministic basis of h.

    The basis of h is chosen greedily from the basis derivations D_{e_i,e_j}
    in lexicographic (i, j) order, keeping each one that enlarges the span.
    """
    require_axioms(t)
    n = t.dim
    c, nz = t.c, t._nz
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # d·D_{e_i,e_j} in ints, flattened column by column: column k is d·c[i][j][k]
    S = t._integer[1]
    flat = {ij: [0] * (n * n) for ij in pairs}
    for (i, j), v in flat.items():
        for k, p in enumerate(S[i][j]):
            for l, x in p:
                v[k * n + l] = x
    h = Echelon(n * n)
    chosen = [ij for ij in pairs if h.insert(flat[ij])]
    h_dim = len(chosen)
    index = {ij: a for a, ij in enumerate(chosen)}
    if h_dim < len(pairs):
        # h's echelon rows are diagonal on h.pivots, so a flat D of the span is
        # (D at the pivots)·Q⁻¹ over the chosen flats; Q[a][s] is flat a at pivot s
        Q = Matrix(h_dim, h_dim, tuple(tuple(flat[ij][p] for p in h.pivots) for ij in chosen))
        Qinv = [vec_nonzeros(r) for r in inverse(Q).entries]

    # K[i][j]: the nonzero h-coordinates (a, x) of D_{e_i,e_j}, antisymmetric;
    # a chosen D is the unit vector of its index
    K = [[()] * n for _ in range(n)]
    # brackets[(i, j)], i < j: the nonzero pairs (l, x) of [e_i, e_j] in G
    brackets = {}
    for i, j in pairs:
        a = index.get((i, j))
        if a is None:
            K[i][j] = _combination(zip([flat[(i, j)][p] for p in h.pivots], Qinv))
        else:
            K[i][j] = ((a, ONE),)
        K[j][i] = tuple([(d, -x) for d, x in K[i][j]])
        if K[i][j]:
            brackets[(i, j)] = tuple([(n + d, x) for d, x in K[i][j]])
    for a, (p, q) in enumerate(chosen):
        npq = nz[p][q]
        for i in range(n):
            if npq[i]:
                # stored as [e_i, e_{n+a}] = -[A, X] = -A·e_i
                brackets[(i, n + a)] = tuple([(l, -x) for l, x in npq[i]])
        for b in range(a + 1, h_dim):
            u, v = chosen[b]
            # [D_{p,q}, D_{u,v}] = D_{(p,q,u),v} + D_{u,(p,q,v)}
            terms = [(x, K[l][v]) for l, x in npq[u]] + [(x, K[u][l]) for l, x in npq[v]]
            acc = _combination(terms)
            if acc:
                brackets[(n + a, n + b)] = tuple([(n + d, x) for d, x in acc])
    algebra = LieAlgebra._from_pairs(n + h_dim, brackets)
    grading = Grading(tuple([-1] * n + [1] * h_dim))
    h_basis = tuple(Matrix.from_rows(c[p][q], n).transpose() for p, q in chosen)
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
