"""Reference invariants: the dense scans the library used before it kept
the nonzero brackets and products of each value.

Each routine visits every coordinate of every bracket or product it reads:
``bracket`` and ``triple_product`` loop over all coordinates of the
structure vectors, ``_series`` brackets full basis vectors (unit vectors
for the lower central series), ``lie_radical`` forms K·d with the dense
``Matrix.vecmat``, and ``lie_center`` and ``lts_center`` hand every row,
zero or not, to the kernel; ``check_grading`` reads every coordinate of
every bracket.  The tests compare the library's routines
against these, result for result.
"""

from __future__ import annotations

from lietriple.core import TripleSystem
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
from lietriple.lie import Grading, GradingVerdict, LieAlgebra


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
