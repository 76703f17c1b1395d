"""The witness-search kernel: one stage of the candidate enumeration.

The candidates of a stage are the n*n digit tuples over its values in
row-major lexicographic order.  ``stage_search`` places T one row at a
time, depth first, each row running through the ``len(vals)**n`` digit
rows in lexicographic order, which visits the candidates in that order
without walking every tuple.  It cuts four kinds of subtree:

* a row that is dependent on the rows above it: every completion is
  singular, and singular candidates are never counted;
* a prefix on which an equation of ``transform(a, T) == b`` already fails:
  no completion is a hit, so the walk below it checks no equation and
  adds the invertible last rows under each prefix of n - 1 rows to
  ``tested``;
* the last row, which is solved for.  Every equation that reads the last
  row v is linear in v, except those whose wedge and third argument both
  read it.  A linear one reads v in the wedge or in the third slot, and
  through the target's term for row n - 1, so its coefficients are
  bilinear in the rows already placed and are read off them directly.
  Reduced by ``exactla.Echelon`` on integer rows, these equations leave an
  affine solution set, and only its points on the value grid are checked
  in full.  Without a hit the row's invertible candidates are counted as
  in a cut; with one, the candidates before it are counted from the dot
  products of their suffixes;
* the mirror of a subtree already searched or counted.  Let S = diag(s)
  be a sign change that fixes b: s_i s_j s_k s_l = 1 at every nonzero
  b_ijk^l.  Replacing T by S·T multiplies both sides of equation
  (i, j, k) by s_i s_j s_k, so T and S·T are witnesses, and fail each
  equation, together.  When the first -1 of S is at row d < n - 1, S maps
  the subtree under (rows[:d], r) one to one onto the subtree under
  (rows[:d], -r), keeping invertibility and, since the values come in
  (v, -v) pairs, which digits are new to the stage.  Of r and -r the one
  whose first nonzero entry is positive comes first, so when the search
  reaches -r the subtree under r has been searched without a hit, and
  its count is added instead.  The rows d that qualify are the lowest
  bits of the sign changes fixing b, computed once per call.  Inside a
  counted subtree every depth qualifies: its count depends only on
  invertibility and stage-newness, which negating a row keeps, whether
  or not a sign change fixes b.

The geometry of the grid depends only on the stage's values and the rows
placed, never on the two systems: which rows are independent of the rows
above them, the integer basis orthogonal to those rows, and the number of
invertible last rows under them.  ``_orthogonal`` and ``_last_count``
compute it as pure functions of those values, each behind a
least-recently-used cache of 8,192 entries shared by every search in
the process (about 1.1 MB in all when a 12-dimensional search has filled
them).

All arithmetic is over Python ints, which are exact at any size.  The
kernel reads the two systems' integer tables as ``Table._integer`` keeps
them, each system scaled by its least common denominator, and the driver
scales the stage's values to integers and passes the multipliers that
balance the two sides.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd
from operator import mul, neg

from .exactla import Echelon


def stage_search(sa, sb, vals, new_start, budget, m_lhs, m_rhs):
    """Scan one stage of the candidate enumeration.

    sa, sb     the source and target systems' integer tables, as kept by
               ``Table._integer``: sa[i][j][k] holds the pairs (l, value)
               of the nonzero coordinates of (e_i, e_j, e_k), pre-scaled;
               n = len(sa) is the matrix size
    vals       candidate entry values for this stage, pre-scaled integers,
               in canonical order; subtrees are mirrored only when each
               -v is a value after v > 0, on the same side of new_start
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
    n, nvals = len(sa), len(vals)
    last = n - 1
    equations = _equations_by_row(sb)
    # the equations on the last row that are linear in it
    linear = [eq for eq in equations[last] if not eq[1] == eq[2] == last]
    # the nonzero wedges of the source: [(a, b, [(c, l, value), ...]), ...], a < b
    pairs = [
        (a, b, [(c, l, x) for c, p in enumerate(sa[a][b]) for l, x in p])
        for a in range(n) for b in range(a + 1, n) if any(sa[a][b])
    ]
    digit_of = {v: d for d, v in enumerate(vals)}
    # negating a row keeps it in the stage, and new to it or not, when
    # every -v is a value on the same side of new_start, after v > 0
    signed = all(
        -v in digit_of and (d < new_start) == (digit_of[-v] < new_start) and (v <= 0 or d < digit_of[-v])
        for d, v in enumerate(vals)
    )
    mirrored = _mirror_depths(equations) if signed else [False] * n
    rows = [None] * n  # value rows placed so far
    drows = [None] * n  # their digit rows
    # perps[d]: a basis of the integer vectors orthogonal to rows[:d]; a row
    # is independent of rows[:d] exactly when it is not orthogonal to all of them
    perps = [None] * n
    perps[0] = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    stage = (tuple(vals), new_start)
    tested = 0

    def holds(depth):
        """Equations decided by the row just placed at ``depth``."""
        for i, j, k, brow in equations[depth]:
            lhs = _image(n, pairs, rows[i], rows[j], rows[k])
            for l in range(n):
                rhs = 0
                for d, bv in brow:
                    rhs += bv * rows[d][l]
                if lhs[l] * m_lhs != rhs * m_rhs:
                    return False
        return True

    def solutions():
        """The rows over vals that satisfy every linear equation on the
        last row, as (digits, values) in digit order: every row, lazily,
        when those equations constrain no coordinate."""
        system = _last_row_system(n, linear, pairs, rows, m_lhs, m_rhs)
        ech = None if system is None else Echelon(n + 1, system)
        if ech is None or n in ech.pivots:
            return []
        if not ech.pivots:
            return zip(product(range(nvals), repeat=n), product(vals, repeat=n))
        return _grid_points(dict(zip(ech.pivots, ech.rows)), n, vals, digit_of)

    def rows_before(w, drow, has_new):
        """The rows _last_count(w, stage, has_new) counts that come before
        ``drow``: for each position p, those that agree with drow before p
        and are smaller at p, counted by the dot products of their suffixes."""
        count = 0
        s = 0  # w . the values of drow before p
        old = not has_new  # no digit of drow before p is new
        for p, dp in enumerate(drow):
            rest = n - p - 1
            sums = _sums(w[p + 1 :], vals)
            for e in range(dp):
                count += nvals**rest - sums.get(-s - w[p] * vals[e], 0)
            if old:
                sums = _sums(w[p + 1 :], vals[:new_start])
                for e in range(min(dp, new_start)):
                    count -= new_start**rest - sums.get(-s - w[p] * vals[e], 0)
                old = dp < new_start
            s += w[p] * vals[dp]
        return count

    def search(depth, has_new, live):
        """Place rows depth.. in order: (tested, digits) at the hit,
        (budget, None) when the budget runs out, None when exhausted.
        Under a prefix that fails an equation (``live`` false) nothing is
        checked, and the invertible candidates are only counted.  The
        last row, reached only under a live prefix, runs through the
        solutions in digit order: a hit is ranked by the rows before it,
        and a miss counts the last rows as a cut does."""
        nonlocal tested
        if depth == last:
            (w,) = perps[last]
            for drow, row in solutions():
                # a tuple without a new digit belongs to an earlier stage
                if not (has_new or max(drow) >= new_start) or not sum(map(mul, w, row)):
                    continue
                rows[last] = row
                if holds(last):
                    before = rows_before(w, drow, has_new)
                    if tested + before >= budget:
                        return budget, None
                    tested += before + 1
                    drows[last] = drow
                    return tested, sum(drows, ())
            tested += _last_count(w, stage, has_new)
            return (budget, None) if tested >= budget else None
        # counts[row]: the candidates counted under each positive-leading
        # row, kept where a sign change fixing b has its first -1, or
        # anywhere in a counted subtree
        counts = {} if (mirrored[depth] if live else signed) else None
        perp = perps[depth]
        for drow, row in zip(product(range(nvals), repeat=n), product(vals, repeat=n)):
            if counts is not None and next(filter(None, row), 0) < 0:
                # the mirror of a subtree searched or counted without a hit
                count = counts.get(tuple(map(neg, row)))
                if count is not None:
                    tested += count
                    if tested >= budget:
                        return budget, None
                continue
            below = _orthogonal(perp, row)
            if below is None:
                continue
            perps[depth + 1] = below
            start = tested
            rows[depth] = row
            drows[depth] = drow
            new_below, live_below = has_new or max(drow) >= new_start, live and holds(depth)
            if depth + 1 == last and not live_below:
                # a failed prefix of n - 1 rows: its last rows are only counted
                tested += _last_count(below[0], stage, new_below)
                found = (budget, None) if tested >= budget else None
            else:
                found = search(depth + 1, new_below, live_below)
            if found:
                return found
            if counts is not None:
                counts[row] = tested - start
        return None

    return search(0, not new_start, True) or (tested, None)


def _image(n, pairs, Ti, Tj, Tk):
    """(T_i, T_j, T_k) in the source system, in source coordinates."""
    lhs = [0] * n
    for a, b, terms in pairs:
        w = Ti[a] * Tj[b] - Ti[b] * Tj[a]
        if w:
            for c, l, val in terms:
                x = Tk[c]
                if x:
                    lhs[l] += w * x * val
    return lhs


def _last_row_system(n, linear, pairs, rows, m_lhs, m_rhs):
    """The equations ``linear`` on the last row v as integer rows
    [coefficients of v | -constant], read off the placed rows rows[:n - 1];
    None when one has no coefficient and a nonzero constant.

    The source side reads v in the wedge (j = n - 1) or in the third slot
    (k = n - 1), never both, and the target side through its term d = n - 1,
    so the coefficients are bilinear in the placed rows.  Rows without a
    coefficient are left out."""
    last = n - 1
    system = []
    for i, j, k, brow in linear:
        Ti = rows[i]
        coefs = [[0] * n for _ in range(n)]  # coefs[l]: coordinate l's coefficients of v
        if j == last:
            # (T_i ∧ v, T_k): a wedge term T_i[a]·v[b] - T_i[b]·v[a]
            Tk = rows[k]
            const = [0] * n
            for a, b, terms in pairs:
                ta, tb = Ti[a], Ti[b]
                if ta or tb:
                    for c, l, val in terms:
                        x = Tk[c] * val
                        if x:
                            coefs[l][b] += ta * x
                            coefs[l][a] -= tb * x
        elif k == last:
            # (T_i ∧ T_j, v)
            Tj = rows[j]
            const = [0] * n
            for a, b, terms in pairs:
                w = Ti[a] * Tj[b] - Ti[b] * Tj[a]
                if w:
                    for c, l, val in terms:
                        coefs[l][c] += w * val
        else:
            const = _image(n, pairs, Ti, rows[j], rows[k])
        for l in range(n):
            row = [m_lhs * x for x in coefs[l]]
            rhs = 0
            for d, bv in brow:
                if d == last:
                    row[l] -= m_rhs * bv
                else:
                    rhs += bv * rows[d][l]
            b = m_rhs * rhs - m_lhs * const[l]
            if any(row):
                row.append(b)
                system.append(row)
            elif b:
                return None
    return system


def _equations_by_row(sb):
    """Equation (i, j, k), i < j, of transform(a, T) == b, filed under the
    last row it reads: with rows of T the new basis vectors it is, for
    every l,

        m_lhs * sum_{a<b,c} (T[i][a]T[j][b] - T[i][b]T[j][a]) T[k][c] A[abcl]
            == m_rhs * sum_d B[ijkd] T[d][l]

    so it reads rows i, j, k and every d with B[ijkd] != 0, the pairs
    (d, B[ijkd]) of sb[i][j][k]."""
    n = len(sb)
    by_row = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k, brow in enumerate(sb[i][j]):
                by_row[max([j, k] + [d for d, _ in brow])].append((i, j, k, brow))
    return by_row


def _mirror_depths(equations):
    """For each depth d, whether some sign change diag(s) of the basis
    fixes b and has its first -1 at row d.

    Such a change fixes b exactly when s_i s_j s_k s_l = 1 at every
    nonzero b_ijk^l, so the changes form the GF(2) kernel of the
    equations x_i + x_j + x_k + x_l = 0, one bitmask each.  Eliminated
    on their highest bits, the equations have a set P of pivot bits; in
    the reduced form the kernel has, for each bit f outside P, the basis
    vector f plus the pivots of the rows holding f, all above f.  So the
    lowest bits of the kernel's vectors are the bits outside P.  Every
    mask has an even number of bits, so bit 0 is never a pivot (-I fixes
    every b)."""
    basis = {}  # highest bit -> reduced mask
    for i, j, k, brow in (eq for row in equations for eq in row):
        for l, _ in brow:
            mask = (1 << i) ^ (1 << j) ^ (1 << k) ^ (1 << l)
            while mask:
                h = mask.bit_length() - 1
                if h not in basis:
                    basis[h] = mask
                    break
                mask ^= basis[h]
    return [d not in basis for d in range(len(equations))]


def _grid_points(pivots, n, vals, digit_of):
    """The solutions of a reduced echelon system whose entries all lie in
    vals, as sorted (digits, values): the free coordinates run over vals,
    and each pivot coordinate must divide out exactly to a value."""
    free = [c for c in range(n) if c not in pivots]
    points = []
    for fdigits in product(range(len(vals)), repeat=len(free)):
        digits = [0] * n
        row = [0] * n
        for c, d in zip(free, fdigits):
            digits[c] = d
            row[c] = vals[d]
        for c, p in pivots.items():
            x, rem = divmod(p[n] - sum(p[f] * row[f] for f in free), p[c])
            d = digit_of.get(x)
            if rem or d is None:
                break
            digits[c] = d
            row[c] = x
        else:
            points.append((tuple(digits), tuple(row)))
    points.sort()
    return points


@lru_cache(maxsize=1 << 13)
def _orthogonal(perp, row):
    """A primitive integer basis of the vectors in span(perp) orthogonal to
    ``row``, as a tuple, or None when ``row`` is orthogonal to all of ``perp``.
    Each vector has its first nonzero entry positive: the normals w and -w
    of n - 1 rows count the same last rows, so they share one count."""
    dots = [sum(map(mul, k, row)) for k in perp]
    p = next((i for i, d in enumerate(dots) if d), None)
    if p is None:
        return None
    kp, dp = perp[p], dots[p]
    out = []
    for i, (k, d) in enumerate(zip(perp, dots)):
        if i != p:
            u = [dp * x - d * y for x, y in zip(k, kp)]
            g = gcd(*u)
            if next(filter(None, u)) < 0:
                g = -g
            out.append(tuple(x // g for x in u))
    return tuple(out)


@lru_cache(maxsize=1 << 13)
def _last_count(w, stage, has_new):
    """The invertible last rows under rows with the normal w: the rows v
    over the stage's values with w·v != 0, and with a digit new to the
    stage unless ``has_new``; stage is (vals, new_start)."""
    vals, new_start = stage
    count = len(vals) ** len(w) - _zeros(w, vals)
    if not has_new:
        count -= new_start ** len(w) - _zeros(w, vals[:new_start])
    return count


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
