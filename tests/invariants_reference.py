"""Reference invariants: the dense scans the library used before it kept
the nonzero brackets and products of each value.

Each routine visits every coordinate of every bracket or product it reads:
``bracket`` and ``triple_product`` loop over all coordinates of the
structure vectors, ``_series`` brackets full basis vectors (unit vectors
for the lower central series), ``derived_series`` takes the rational
products of ``derived_subspace`` at every step, ``lie_radical`` forms K·d
with the dense ``Matrix.vecmat``, and ``lie_center`` and ``lts_center``
hand every row, zero or not, to the kernel; ``check_grading`` reads
every coordinate of every bracket.  ``check_axioms`` scans all n^3 cyclic
and all n^5 derivation instances, not one instance per antisymmetry
class.  ``killing_signature`` is the congruence reduction that swaps each
pivot into place and sweeps whole rows and columns of the form after it.
The tests compare the library's routines against these, result for
result.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from lietriple.core import AxiomVerdict, TripleSystem
from lietriple.exactla import (
    Echelon,
    Matrix,
    Subspace,
    ZERO,
    full_subspace,
    kernel,
    span,
    unit_vec,
    vec,
)
from lietriple.lie import Grading, GradingVerdict, KillingSignature, LieAlgebra, killing_form


def bracket(g: LieAlgebra, x, y):
    """Bilinear extension of the bracket tensor."""
    m = g.dim
    x, y = vec(x), vec(y)
    if len(x) != m or len(y) != m:
        raise ValueError("dimension mismatch")
    out = [ZERO] * m
    for i, xi in enumerate(x):
        if not xi:
            continue
        fi = g.f[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            v = fi[j]
            s = xi * yj
            for l in range(m):
                if v[l]:
                    out[l] += s * v[l]
    return tuple(out)


def _series(g: LieAlgebra, lower_central: bool) -> tuple[Subspace, ...]:
    m = g.dim
    terms = [full_subspace(m)]
    while not terms[-1].is_zero():
        cur = terms[-1]
        vs = cur.vectors()
        if lower_central:
            pairs = ((unit_vec(m, i), b) for i in range(m) for b in vs)
        else:
            # antisymmetry: pairs with a <= b contribute nothing new
            pairs = ((vs[a], vs[b]) for a in range(len(vs)) for b in range(a + 1, len(vs)))
        ech = Echelon(m)
        for x, y in pairs:
            ech.insert(bracket(g, x, y))
            # [S, S] and [G, S] lie in S: at full rank the next term is S
            if ech.rank == cur.dim:
                break
        nxt = ech.subspace()
        terms.append(nxt)
        if nxt == cur:
            break
    return tuple(terms)


def _killing_form(g: LieAlgebra) -> Matrix:
    """The Killing form summed over the nonzero brackets only."""
    m = g.dim
    # (k, l, x): [e_i, e_k] has the nonzero coordinate x on e_l
    nonzero = [[(k, l, x) for k, v in enumerate(fi) for l, x in enumerate(v) if x] for fi in g.f]
    K = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            fj = g.f[j]
            s = sum((x * fj[l][k] for k, l, x in nonzero[i] if fj[l][k]), ZERO)
            K[i][j] = K[j][i] = s
    return Matrix.from_rows(K, m)


def killing_signature(g: LieAlgebra) -> KillingSignature:
    """Exact signature by symmetric congruence reduction (no eigenvalues).

    At each step: take a nonzero diagonal entry of the trailing block as
    pivot (swapping it up if needed); when the whole trailing diagonal
    vanishes, adding a row/column with a nonzero off-diagonal entry puts
    2·A[p][q] on the diagonal (characteristic 0).
    """
    K = killing_form(g)
    m = g.dim
    A = [list(r) for r in K.entries]

    def swap(p, q):
        A[p], A[q] = A[q], A[p]
        for row in A:
            row[p], row[q] = row[q], row[p]

    def add_into(p, q):
        for jj in range(m):
            A[p][jj] += A[q][jj]
        for ii in range(m):
            A[ii][p] += A[ii][q]

    for p in range(m):
        if A[p][p] == 0:
            pivot = next((q for q in range(p + 1, m) if A[q][q]), None)
            if pivot is not None:
                swap(p, pivot)
            else:
                off = next((q for q in range(p + 1, m) if A[p][q]), None)
                if off is None:
                    continue  # row p is zero in the trailing block
                add_into(p, off)  # diagonal becomes 2·A[p][off] != 0
        d = A[p][p]
        for r in range(p + 1, m):
            if A[r][p]:
                f = A[r][p] / d
                for jj in range(m):
                    A[r][jj] -= f * A[p][jj]
                for ii in range(m):
                    A[ii][r] -= f * A[ii][p]
    pos = sum(1 for p in range(m) if A[p][p] > 0)
    neg = sum(1 for p in range(m) if A[p][p] < 0)
    return KillingSignature(pos, neg, m - pos - neg)


def lie_radical(g: LieAlgebra) -> Subspace:
    """Radical as the Killing-orthogonal complement of [g, g] (characteristic 0)."""
    m = g.dim
    ech = Echelon(m)
    for v in (g.f[i][j] for i in range(m) for j in range(i + 1, m)):
        ech.insert(v)
        # [g, g] lies in g: at full rank the rest adds nothing
        if ech.rank == m:
            break
    derived = ech.subspace()
    if derived.is_zero():
        return full_subspace(m)
    K = _killing_form(g)
    return kernel(Matrix.from_rows([K.vecmat(d) for d in derived.vectors()]))


def lie_center(g: LieAlgebra) -> Subspace:
    """{x : [x, e_j] = 0 for all j}."""
    m = g.dim
    if m == 0:
        return full_subspace(0)
    rows = []
    for j in range(m):
        for l in range(m):
            rows.append(tuple(g.f[i][j][l] for i in range(m)))
    return kernel(Matrix.from_rows(rows))


def check_grading(g: LieAlgebra, gr: Grading) -> GradingVerdict:
    """Every bracket must land in the parity-correct coordinate span."""
    if len(gr.signs) != g.dim:
        raise ValueError("grading length does not match algebra dimension")
    m = g.dim
    for i in range(m):
        for j in range(i + 1, m):
            parity = gr.signs[i] * gr.signs[j]
            v = g.f[i][j]
            for l in range(m):
                if v[l] and gr.signs[l] != parity:
                    return GradingVerdict(False, (i + 1, j + 1), l + 1)
    return GradingVerdict(True)


def triple_product(t: TripleSystem, x, y, z):
    """Trilinear extension of the tensor: sum x_i y_j z_k (e_i,e_j,e_k)."""
    n = t.dim
    x, y, z = vec(x), vec(y), vec(z)
    if len(x) != n or len(y) != n or len(z) != n:
        raise ValueError("dimension mismatch")
    out = [ZERO] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        ci = t.c[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            cij = ci[j]
            s = xi * yj
            for k, zk in enumerate(z):
                if not zk:
                    continue
                v = cij[k]
                q = s * zk
                for l in range(n):
                    if v[l]:
                        out[l] += q * v[l]
    return tuple(out)


def derived_subspace(t: TripleSystem, om: Subspace) -> Subspace:
    """Span of (M, om, om): all (e_i, a, b) with a, b over the basis of om."""
    if om.ambient_dim != t.dim:
        raise ValueError("ambient dimension mismatch")
    products = []
    for i in range(t.dim):
        for a in om.vectors():
            for b in om.vectors():
                products.append(triple_product(t, unit_vec(t.dim, i), a, b))
    return span(products, t.dim)


def derived_series(t: TripleSystem, om: Subspace) -> tuple[Subspace, ...]:
    """om, (M, om, om), ... up to the first zero or repeated term, each step
    by the dense ``derived_subspace``."""
    terms = [om]
    while not terms[-1].is_zero():
        terms.append(derived_subspace(t, terms[-1]))
        if terms[-1] == terms[-2]:
            break
    return tuple(terms)


def lts_center(t: TripleSystem) -> Subspace:
    """{z : (z, x, y) = 0 and (x, y, z) = 0 for all basis x, y}."""
    n = t.dim
    rows = []
    for j in range(n):
        for k in range(n):
            for l in range(n):
                rows.append(tuple(t.c[i][j][k][l] for i in range(n)))
    for i in range(n):
        for j in range(n):
            for l in range(n):
                rows.append(tuple(t.c[i][j][k][l] for k in range(n)))
    if not rows:
        return full_subspace(n)
    return kernel(Matrix.from_rows(rows))


def integer_tensor(t: TripleSystem):
    """Least common denominator d of the dense tensor, and the map S from
    each (i, j, k) with a nonzero product to the pairs (l, d·c_ijk^l) of its
    nonzero coordinates, read off ``t.c``."""
    n = t.dim
    d = lcm(*(x.denominator for ci in t.c for cij in ci for v in cij for x in v))
    S = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        pairs = tuple((l, int(x * d)) for l, x in enumerate(t.c[i][j][k]) if x)
        if pairs:
            S[(i, j, k)] = pairs
    return d, S


def check_axioms(t: TripleSystem) -> AxiomVerdict:
    """The first violation over all basis instances, each identity scanned in
    lexicographic order on the sparse integer tensor."""
    n = t.dim
    d, S = integer_tensor(t)
    get = S.get
    rng = range(n)
    for i, j, k in itertools.product(rng, repeat=3):
        r = [0] * n
        for key in ((i, j, k), (j, k, i), (k, i, j)):
            for l, x in get(key, ()):
                r[l] += x
        if any(r):
            return AxiomVerdict(False, "cyclic", (i + 1, j + 1, k + 1), tuple(Fraction(x, d) for x in r))
    for i, j in itertools.product(rng, repeat=2):
        # D = D_{e_i,e_j}; residual D(u,v,w) - (Du,v,w) - (u,Dv,w) - (u,v,Dw)
        D = [get((i, j, u), ()) for u in rng]
        for u, v, w in itertools.product(rng, repeat=3):
            r = [0] * n
            for k, x in get((u, v, w), ()):
                for l, y in D[k]:
                    r[l] += x * y
            for k, x in D[u]:
                for l, y in get((k, v, w), ()):
                    r[l] -= x * y
            for k, x in D[v]:
                for l, y in get((u, k, w), ()):
                    r[l] -= x * y
            for k, x in D[w]:
                for l, y in get((u, v, k), ()):
                    r[l] -= x * y
            if any(r):
                residual = tuple(Fraction(x, d * d) for x in r)
                return AxiomVerdict(False, "derivation", (i + 1, j + 1, u + 1, v + 1, w + 1), residual)
    return AxiomVerdict(True)
