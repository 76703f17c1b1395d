"""Deterministic search for a basis change carrying one triple system to
another.

Candidate matrices are enumerated in a fixed global order shared by the
compiled and pure-Python kernels:

* Entry values are ordered by *level*: level 1 is [0, 1, -1]; level s > 1
  appends every rational p/q in lowest terms with max(|p|, q) = s, ordered
  as [s, -s], then [k/s, -k/s] for k = 1..s-1 coprime to s, then
  [s/k, -s/k] for k = 2..s-1 coprime to s.  Levels 1-2 give exactly
  {0, ±1, ±2, ±1/2}; later stages widen the set.
* Stage s enumerates all n*n digit tuples over the first L_s values in
  lexicographic order (leftmost entry most significant, row-major),
  skipping tuples whose digits all belong to earlier stages.
* Singular matrices are skipped without counting; every invertible
  candidate tested counts against the budget.

The kernel backend is chosen at import: the compiled extension when it
built, otherwise the pure-Python twin.  Set LIETRIPLE_PURE=1 to force the
pure path.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import gcd, lcm

from . import _witness_py
from .core import TripleSystem, integer_tensor
from .exactla import Matrix

if os.environ.get("LIETRIPLE_PURE") == "1":
    _speedups = None
else:
    try:
        from . import _speedups
    except ImportError:
        _speedups = None

BACKEND = "c" if _speedups is not None else "python"

_INT64_GUARD = 2**62


def level_values(s: int) -> list[Fraction]:
    """Values introduced at level s, in canonical order."""
    if s == 1:
        return [Fraction(0), Fraction(1), Fraction(-1)]
    out = [Fraction(s), Fraction(-s)]
    for k in range(1, s):
        if gcd(k, s) == 1:
            out.append(Fraction(k, s))
            out.append(Fraction(-k, s))
    for k in range(2, s):
        if gcd(s, k) == 1:
            out.append(Fraction(s, k))
            out.append(Fraction(-s, k))
    return out


def value_prefix(stage: int) -> list[Fraction]:
    """All candidate entry values available at the given stage."""
    out = []
    for s in range(1, stage + 1):
        out.extend(level_values(s))
    return out


def _stage_fits_int64(n, max_a, max_b, da, db, vals_scaled, scale, n_entries):
    max_t = max((abs(v) for v in vals_scaled), default=0)
    if max_t == 0:
        return True
    lhs_bound = max(n_entries, 1) * 2 * max_t**3 * max_a * max(db, 1)
    rhs_bound = n * max_b * max_t * da * scale * scale
    return lhs_bound < _INT64_GUARD and rhs_bound < _INT64_GUARD


def search_witness(a: TripleSystem, b: TripleSystem, budget: int) -> Matrix | None:
    """First basis-change matrix T (in enumeration order) with
    transform(a, T) == b, scanning at most ``budget`` invertible candidates.

    Returns None when the budget is exhausted without a hit.
    """
    if a.dim != b.dim:
        return None
    n = a.dim
    if n == 0:
        # the empty basis change is the one candidate, and it is invertible
        return Matrix.identity(0) if budget >= 1 else None
    da, sa = integer_tensor(a)
    db, sb = integer_tensor(b)
    a_entries = [(i, j, k, l, x) for (i, j, k), pairs in sa.items() if i < j for l, x in pairs]
    b_flat = [0] * n**4
    for (i, j, k), pairs in sb.items():
        for l, x in pairs:
            b_flat[((i * n + j) * n + k) * n + l] = x
    max_a = max((abs(e[4]) for e in a_entries), default=0)
    max_b = max((abs(x) for x in b_flat), default=0)

    remaining = budget
    stage = 1
    prev_count = 0
    while remaining > 0:
        vals = value_prefix(stage)
        scale = lcm(*[v.denominator for v in vals])
        vals_scaled = [int(v * scale) for v in vals]
        new_start = prev_count
        m_lhs = db
        m_rhs = da * scale * scale
        use_c = (
            _speedups is not None
            and n <= 5
            and _stage_fits_int64(n, max_a, max_b, da, db, vals_scaled, scale, len(a_entries))
        )
        kernel = _speedups if use_c else _witness_py
        tested, digits = kernel.stage_search(
            n, a_entries, b_flat, vals_scaled, new_start, remaining, m_lhs, m_rhs
        )
        remaining -= tested
        if digits is not None:
            rows = [
                [vals[digits[r * n + c]] for c in range(n)] for r in range(n)
            ]
            return Matrix.from_rows(rows, n)
        prev_count = len(vals)
        stage += 1
    return None
