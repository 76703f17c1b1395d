"""The witness-search kernel: one stage of the candidate enumeration.

The candidates of a stage are the n*n digit tuples over its values in
row-major lexicographic order.  ``stage_search`` places T one row at a
time, depth first, each row running through the ``len(vals)**n`` digit
rows in lexicographic order, which visits the candidates in that order
without walking every tuple.  It cuts two kinds of subtree:

* a row that is dependent on the rows above it: every completion is
  singular, and singular candidates are never counted;
* a prefix on which an equation of ``transform(a, T) == b`` already fails:
  no completion is a hit, so the subtree's invertible candidates are
  counted exactly, without being visited, and added to ``tested``.

All arithmetic is over Python ints (the driver pre-scales every rational
input), which are exact at any size.
"""

from __future__ import annotations

from itertools import product
from math import gcd


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
    without counting.  Returns (tested, digits-or-None): the number of
    invertible candidates up to and including the hit, or (budget, None)
    when the budget runs out first, or (all of them, None).
    """
    budget = max(budget, 1)  # the odometer checks one candidate even at budget 0
    nvals = len(vals)
    equations = _equations_by_row(n, a_entries, b_flat)
    pairs = _pairs(a_entries)
    rows = [None] * n  # value rows placed so far
    drows = [None] * n  # their digit rows
    # perp[d]: a basis of the integer vectors orthogonal to rows[:d]; a row
    # is independent of rows[:d] exactly when it is not orthogonal to all
    perp = [None] * (n + 1)
    perp[0] = [tuple(int(r == c) for c in range(n)) for r in range(n)]
    last_counts = {}
    tested = 0

    def holds(depth):
        """Equations decided by the row just placed at ``depth``."""
        for i, j, k, brow in equations[depth]:
            Ti, Tj, Tk = rows[i], rows[j], rows[k]
            lhs = [0] * n
            for a, b, terms in pairs:
                w = Ti[a] * Tj[b] - Ti[b] * Tj[a]
                if w:
                    for c, l, val in terms:
                        x = Tk[c]
                        if x:
                            lhs[l] += w * x * val
            for l in range(n):
                rhs = 0
                for d, bv in brow:
                    rhs += bv * rows[d][l]
                if lhs[l] * m_lhs != rhs * m_rhs:
                    return False
        return True

    def last_rows(has_new):
        """Invertible last rows under rows[:n - 1], with a digit new to the
        stage unless ``has_new``, memoised on the rows' normal."""
        (w,) = perp[n - 1]
        if next(x for x in w if x) < 0:
            w = tuple(-x for x in w)
        key = (w, has_new)
        count = last_counts.get(key)
        if count is None:
            count = nvals**n - _zeros(w, vals)
            if not has_new:
                count -= new_start**n - _zeros(w, vals[:new_start])
            last_counts[key] = count
        return count

    def completions(depth, has_new, cap):
        """Invertible completions of rows[:depth], with a digit new to the
        stage unless ``has_new``; counting stops once it reaches ``cap``."""
        if depth == n - 1:
            return last_rows(has_new)
        total = 0
        for drow, row in zip(product(range(nvals), repeat=n), product(vals, repeat=n)):
            perp[depth + 1] = _orthogonal(perp[depth], row)
            if perp[depth + 1] is None:
                continue
            total += completions(depth + 1, has_new or max(drow) >= new_start, cap - total)
            if total >= cap:
                break
        return total

    def search(depth, has_new):
        """Place rows depth.. in order: (tested, digits) at the hit,
        (budget, None) when the budget runs out, None when exhausted."""
        nonlocal tested
        last = depth == n - 1
        if last:
            (w,) = perp[depth]
        for drow, row in zip(product(range(nvals), repeat=n), product(vals, repeat=n)):
            new = has_new or max(drow) >= new_start
            if last:
                # a tuple without a new digit belongs to an earlier stage
                if not new or not sum(x * y for x, y in zip(w, row)):
                    continue
            else:
                perp[depth + 1] = _orthogonal(perp[depth], row)
                if perp[depth + 1] is None:
                    continue
            rows[depth] = row
            if holds(depth):
                drows[depth] = drow
                if last:
                    tested += 1
                    return tested, sum(drows, ())
                found = search(depth + 1, new)
                if found:
                    return found
            else:
                if last:
                    tested += 1
                else:
                    tested += completions(depth + 1, new, budget - tested)
                if tested >= budget:
                    return budget, None
        return None

    return search(0, not new_start) or (tested, None)


def _pairs(a_entries):
    """a_entries grouped by (a, b): [(a, b, [(c, l, value), ...]), ...]."""
    grouped = {}
    for a, b, c, l, val in a_entries:
        grouped.setdefault((a, b), []).append((c, l, val))
    return [(a, b, terms) for (a, b), terms in grouped.items()]


def _equations_by_row(n, a_entries, b_flat):
    """Equation (i, j, k), i < j, of transform(a, T) == b, filed under the
    last row it reads: with rows of T the new basis vectors it is, for
    every l,

        m_lhs * sum_{a<b,c} (T[i][a]T[j][b] - T[i][b]T[j][a]) T[k][c] A[abcl]
            == m_rhs * sum_d B[ijkd] T[d][l]

    so it reads rows i, j, k and every d with B[ijkd] != 0."""
    by_row = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                base = ((i * n + j) * n + k) * n
                brow = [(d, b_flat[base + d]) for d in range(n) if b_flat[base + d]]
                by_row[max([j, k] + [d for d, _ in brow])].append((i, j, k, brow))
    return by_row


def _orthogonal(perp, row):
    """A primitive integer basis of the vectors in span(perp) orthogonal to
    ``row``, or None when ``row`` is orthogonal to all of ``perp``."""
    dots = [sum(x * y for x, y in zip(k, row)) for k in perp]
    p = next((i for i, d in enumerate(dots) if d), None)
    if p is None:
        return None
    kp, dp = perp[p], dots[p]
    out = []
    for i, (k, d) in enumerate(zip(perp, dots)):
        if i != p:
            u = [dp * x - d * y for x, y in zip(k, kp)]
            g = gcd(*u)
            out.append(tuple(x // g for x in u))
    return out


def _zeros(w, vals):
    """Number of v in vals**len(w) with w·v == 0, meeting in the middle."""
    h = len(w) // 2
    left = _sums(w[:h], vals)
    return sum(count * left.get(-s, 0) for s, count in _sums(w[h:], vals).items())


def _sums(ws, vals):
    """{s: number of v in vals**len(ws) with ws·v == s}."""
    sums = {0: 1}
    for x in ws:
        nxt = {}
        for s, count in sums.items():
            for v in vals:
                t = s + x * v
                nxt[t] = nxt.get(t, 0) + count
        sums = nxt
    return sums
