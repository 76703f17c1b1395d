"""Shared helpers: deterministic random rationals, vectors, matrices, and
the small vector, matrix and subspace operations only the tests use."""

import sys
from fractions import Fraction

from lietriple.core import TripleSystem
from lietriple.exactla import ZERO, Echelon, Matrix, Subspace


def vec_neg(a):
    """-a, keeping zero entries as they are (cheaper than negating them)."""
    return tuple(-x if x else x for x in a)


def matvec(m: Matrix, v):
    """Matrix times column vector."""
    if len(v) != m.cols:
        raise ValueError("dimension mismatch")
    return tuple(sum((r[j] * v[j] for j in range(m.cols) if v[j]), ZERO) for r in m.entries)


def subspace_le(a: Subspace, b: Subspace) -> bool:
    ech = Echelon(b.ambient_dim, b.vectors())
    return not any(any(ech.reduce(v)) for v in a.vectors())


def zero_subspace(n: int) -> Subspace:
    return Subspace(n, Matrix.zeros(0, n))


def random_rational(rng, lo=-3, hi=3, dens=(1, 2)):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def random_matrix(rng, rows, cols, lo=-3, hi=3, dens=(1, 2)):
    return Matrix.from_rows(
        [[random_rational(rng, lo, hi, dens) for _ in range(cols)] for _ in range(rows)], cols
    )


def random_invertible(rng, n, lo=-3, hi=3, dens=(1, 2)):
    while True:
        m = random_matrix(rng, n, n, lo, hi, dens)
        if Echelon(n, m.entries).rank == n:
            return m


def sphere_system(k):
    """(x, y, z) = <x,z> y - <y,z> x on Q^k with the standard inner product."""
    entries = {}
    for a in range(k):
        for b in range(a + 1, k):
            v = [0] * k
            v[b] = 1
            entries[(a, b, a)] = tuple(v)
            v = [0] * k
            v[a] = -1
            entries[(a, b, b)] = tuple(v)
    return TripleSystem.from_entries(k, entries)


def count_calls(monkeypatch, func):
    """Replace every binding of func in the lietriple modules by a wrapper
    that records each call; returns the list of records."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "lietriple" or name.startswith("lietriple.")):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counting)
    return calls
