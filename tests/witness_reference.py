"""Reference witness-search kernel: the row-major odometer.

This is the original pure-Python ``stage_search``: it walks every n*n digit
tuple of a stage in lexicographic order, skips singular matrices without
counting them, and checks every invertible candidate in full.  The tests
compare the row-at-a-time kernel in ``lietriple._witness_py`` against it,
call for call.

``flat`` gives the odometer its inputs from the two integer tables the
kernel reads: the source's nonzero entries with a < b and the target's
full tensor as one flat list.

``last_row_system`` is the kernel's earlier way to set up the linear
system of its last row: evaluate every linear equation at v = 0 and at
each unit vector.  The tests compare the kernel's direct read of the
coefficients against it, prefix for prefix.
"""

from __future__ import annotations

from itertools import product


def _det(mat, n):
    """Exact integer determinant by cofactor expansion, small n."""
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    if n == 3:
        return (
            mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
            - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
            + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0])
        )
    det = 0
    sign = 1
    for j in range(n):
        if mat[0][j]:
            minor = [[mat[r][c] for c in range(n) if c != j] for r in range(1, n)]
            det += sign * mat[0][j] * _det(minor, n - 1)
        sign = -sign
    return det


def flat(sa, sb):
    """(n, a_entries, b_flat) of ``stage_search`` from the integer tables
    sa and sb, whose cell [i][j][k] holds the pairs (l, value) of the
    nonzero coordinates of (e_i, e_j, e_k)."""
    n = len(sa)
    a_entries = [
        (i, j, k, l, x) for i in range(n) for j in range(i + 1, n) for k in range(n) for l, x in sa[i][j][k]
    ]
    b_flat = [0] * n**4
    for i, j, k in product(range(n), repeat=3):
        for l, x in sb[i][j][k]:
            b_flat[((i * n + j) * n + k) * n + l] = x
    return n, a_entries, b_flat


def stage_search(n, a_entries, b_flat, vals, new_start, budget, m_lhs, m_rhs):
    """Scan one stage of the candidate enumeration.

    n          matrix size
    a_entries  nonzero integer tensor entries of the source system as
               (a, b, c, l, value) with a < b, pre-scaled
    b_flat     full integer tensor of the target system, index
               ((i*n + j)*n + k)*n + l, pre-scaled
    vals       candidate entry values for this stage, pre-scaled integers,
               in canonical order
    new_start  index of the first value new to this stage; tuples whose
               digits all fall below it were scanned in earlier stages
    budget     remaining number of invertible candidates allowed
    m_lhs      integer multiplier applied to the transformed products
    m_rhs      integer multiplier applied to the target side

    Candidates are all n*n digit tuples over vals in lexicographic order
    (leftmost digit most significant).  Singular matrices are skipped
    without counting.  Returns (tested, digits-or-None).
    """
    nvals = len(vals)
    size = n * n
    digits = [0] * size
    tested = 0
    T = [[vals[0]] * n for _ in range(n)]
    while True:
        has_new = any(d >= new_start for d in digits) if new_start else True
        if has_new:
            for r in range(n):
                base = r * n
                row = T[r]
                for c in range(n):
                    row[c] = vals[digits[base + c]]
            if _det(T, n) != 0:
                tested += 1
                if _matches(n, a_entries, b_flat, T, m_lhs, m_rhs):
                    return tested, tuple(digits)
                if tested >= budget:
                    return tested, None
        # odometer increment, rightmost digit fastest
        pos = size - 1
        while pos >= 0:
            digits[pos] += 1
            if digits[pos] < nvals:
                break
            digits[pos] = 0
            pos -= 1
        if pos < 0:
            return tested, None


def _matches(n, a_entries, b_flat, T, m_lhs, m_rhs):
    """Exact cross-multiplied comparison transform(a, T) == b.

    With rows of T the new basis vectors, equality of the transformed
    tensor with b is equivalent to, for every i < j and every k:

        m_lhs * sum_{a<b,c} (T[i][a]T[j][b] - T[i][b]T[j][a]) T[k][c] A[abc]
            == m_rhs * (row (i,j,k) of B) · T
    """
    for i in range(n):
        Ti = T[i]
        for j in range(i + 1, n):
            Tj = T[j]
            for k in range(n):
                Tk = T[k]
                lhs = [0] * n
                for (a, b, c, l, val) in a_entries:
                    w = (Ti[a] * Tj[b] - Ti[b] * Tj[a]) * Tk[c] * val
                    if w:
                        lhs[l] += w
                base = ((i * n + j) * n + k) * n
                for l in range(n):
                    rhs = 0
                    for d in range(n):
                        bv = b_flat[base + d]
                        if bv:
                            rhs += bv * T[d][l]
                    if lhs[l] * m_lhs != rhs * m_rhs:
                        return False
    return True


def last_row_system(n, linear, pairs, rows, m_lhs, m_rhs):
    """The linear equations ``linear`` on the last row v as integer rows
    [coefficients of v | -constant], from rows[:n - 1].

    Both sides' difference is affine in v, so it is evaluated in full at
    v = 0, which gives the constants, and at each unit vector, which gives
    the constants plus one column of coefficients.  ``pairs`` is the
    source tensor grouped as [(a, b, [(c, l, value), ...]), ...]."""
    rows = list(rows)
    last = n - 1

    def residuals():
        out = []
        for i, j, k, brow in linear:
            Ti, Tj, Tk = rows[i], rows[j], rows[k]
            lhs = [0] * n
            for a, b, terms in pairs:
                w = Ti[a] * Tj[b] - Ti[b] * Tj[a]
                for c, l, val in terms:
                    lhs[l] += w * Tk[c] * val
            for l in range(n):
                out.append(lhs[l] * m_lhs - m_rhs * sum(bv * rows[d][l] for d, bv in brow))
        return out

    rows[last] = (0,) * n
    base = residuals()
    columns = []
    for c in range(n):
        rows[last] = tuple(int(r == c) for r in range(n))
        columns.append([x - y for x, y in zip(residuals(), base)])
    return [[col[e] for col in columns] + [-b] for e, b in enumerate(base)]
