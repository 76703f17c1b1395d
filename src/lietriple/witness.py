"""Deterministic search for a basis change carrying one triple system to
another.

Candidate matrices are enumerated in a fixed global order:

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

The driver below hands ``_witness_py.stage_search`` both systems' integer
tables (``_integer``: a scaled by da, b by db) and each stage's values
scaled to integers by their common denominator; the kernel scans one
stage over Python ints, so the products stay exact at any size.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import _witness_py
from .core import TripleSystem
from .exactla import Matrix

BACKEND = "python"


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


def search_witness(a: TripleSystem, b: TripleSystem, budget: int) -> Matrix | None:
    """First basis-change matrix T (in enumeration order) with
    transform(a, T) == b, scanning at most ``budget`` invertible candidates.

    Returns None when the budget is exhausted without a hit.
    """
    if a.dim != b.dim:
        return None
    if a.dim == 0:
        # the empty basis change is the one candidate, and it is invertible
        return Matrix.identity(0) if budget >= 1 else None
    n = a.dim
    (da, sa), (db, sb) = a._integer, b._integer
    remaining = budget
    stage = 1
    prev_count = 0
    while remaining > 0:
        vals = value_prefix(stage)
        scale = lcm(*[v.denominator for v in vals])
        vals_scaled = [int(v * scale) for v in vals]
        tested, digits = _witness_py.stage_search(sa, sb, vals_scaled, prev_count, remaining, db, da * scale * scale)
        remaining -= tested
        if digits is not None:
            rows = [
                [vals[digits[r * n + c]] for c in range(n)] for r in range(n)
            ]
            return Matrix.from_rows(rows, n)
        prev_count = len(vals)
        stage += 1
    return None
