"""Reference ``transform``: the earlier body of ``lietriple.core.transform``,
which forms each new product as a trilinear ``triple_product`` over the
full rows of T and maps it to new coordinates by ``T⁻¹.vecmat``, all in
``Fraction``s.  The tests compare the library's mode products with it."""

from lietriple.core import TripleSystem, triple_product
from lietriple.exactla import Matrix, inverse, vec_nonzeros


def transform(t: TripleSystem, T: Matrix) -> TripleSystem:
    n = t.dim
    if T.rows != n or T.cols != n:
        raise ValueError("transform matrix must be n x n")
    Tinv = inverse(T)  # raises SingularMatrix
    new_rows = T.entries
    pairs = {}
    for a in range(n):
        for b in range(a + 1, n):
            for k in range(n):
                prod_old = triple_product(t, new_rows[a], new_rows[b], new_rows[k])
                # old coords v relate to new coords x by v = x·T
                pairs[(a, b, k)] = vec_nonzeros(Tinv.vecmat(prod_old))
    return TripleSystem._from_pairs(n, pairs)
