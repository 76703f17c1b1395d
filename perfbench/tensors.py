"""Exact triple-system tensors, kept apart from the library under test.

The benchmark builds every input itself: it reads catalog entries through
their canonical ``.lts`` text, changes basis with its own arithmetic and
writes ``.lts`` text back.  Nothing here imports ``lietriple``, so no input
and no oracle value depends on the code being measured.

A tensor is a dict ``{(i, j, k): (q_1, ..., q_n)}`` over 0-based ``i < j``
holding the nonzero products ``(e_i, e_j, e_k)``; the antisymmetric
completion in the first two slots is implicit, as in the file format.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)


def parse_lts(text: str):
    """(n, tensor) from canonical ``.lts`` text."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    header = lines[0]
    if header[0] != "LTS":
        raise ValueError("missing LTS header")
    n = int(header[1])
    tensor = {}
    for i, j, k, l, q in lines[1:]:
        key = (int(i) - 1, int(j) - 1, int(k) - 1)
        vec = list(tensor.get(key, (ZERO,) * n))
        vec[int(l) - 1] = Fraction(q)
        tensor[key] = tuple(vec)
    return n, tensor


def format_lts(n: int, tensor) -> str:
    """Canonical ``.lts`` text: entries sorted, rationals in lowest terms."""
    lines = [f"LTS {n}"]
    for (i, j, k) in sorted(tensor):
        for l, q in enumerate(tensor[(i, j, k)]):
            if q:
                lines.append(f"{i + 1} {j + 1} {k + 1} {l + 1} {q}")
    return "\n".join(lines) + "\n"


def parse_lie(text: str):
    """(m, signs, brackets) from ``.lie`` text; brackets maps (i, j) -> vector."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if lines[0][0] != "LIE":
        raise ValueError("missing LIE header")
    m = int(lines[0][1])
    signs = None
    body = lines[1:]
    if body and body[0][0] == "GRADE":
        signs = tuple(body[0][1:])
        body = body[1:]
    brackets = {}
    for i, j, k, q in body:
        key = (int(i) - 1, int(j) - 1)
        vec = list(brackets.get(key, (ZERO,) * m))
        vec[int(k) - 1] = Fraction(q)
        brackets[key] = tuple(vec)
    return m, signs, brackets


def _clean(tensor):
    return {key: v for key, v in tensor.items() if any(v)}


def inverse(rows):
    """Exact inverse by Gauss-Jordan elimination; ValueError when singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def change_basis(n: int, tensor, T):
    """Tensor in the basis f_a = sum_i T[a][i] e_i (rows of T are the new basis).

    (f_a, f_b, f_c) = sum over i < j of (T[a][i]T[b][j] - T[a][j]T[b][i])
    times sum_k T[c][k] (e_i, e_j, e_k), read back in new coordinates by
    the row vector times T^-1.
    """
    T = [[Fraction(x) for x in row] for row in T]
    Tinv = inverse(T)
    out = {}
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                old = [ZERO] * n
                for (i, j, k), v in tensor.items():
                    w = (T[a][i] * T[b][j] - T[a][j] * T[b][i]) * T[c][k]
                    if w:
                        for l in range(n):
                            if v[l]:
                                old[l] += w * v[l]
                new = tuple(sum((old[l] * Tinv[l][q] for l in range(n) if old[l]), ZERO) for q in range(n))
                out[(a, b, c)] = new
    return _clean(out)


def gram(T):
    """G = T T^t, the standard inner product in the basis given by the rows of T."""
    T = [[Fraction(x) for x in row] for row in T]
    return [[sum((x * y for x, y in zip(r, s)), ZERO) for s in T] for r in T]


def sphere(G):
    """(x, y, z) = <x,z> y - <y,z> x for the inner product with Gram matrix G.

    With G the identity this is the unit sphere on Q^k; with G = T T^t it
    is the same system after the basis change T, written down directly.
    """
    k = len(G)
    out = {}
    for a in range(k):
        for b in range(a + 1, k):
            for c in range(k):
                v = [ZERO] * k
                v[b] += G[a][c]
                v[a] -= G[b][c]
                out[(a, b, c)] = tuple(v)
    return k, _clean(out)


def random_matrix(rng, n: int, values):
    """Seeded invertible n x n matrix with entries drawn from ``values``."""
    while True:
        rows = [[Fraction(rng.choice(values)) for _ in range(n)] for _ in range(n)]
        try:
            inverse(rows)
        except ValueError:
            continue
        return rows


def with_line(tensor):
    """The direct sum of a line and the system: indices shift by one."""
    return {(i + 1, j + 1, k + 1): (ZERO,) + v for (i, j, k), v in tensor.items()}


def tridiagonal_change(rng, k: int):
    """Signed row permutation of I + U, U with seeded signs on the superdiagonal.

    Every such change gives a Gram matrix of the same shape up to order
    and sign, so the cost of the changed system varies little with the seed.
    """
    U = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for i in range(k - 1):
        U[i][i + 1] = Fraction(rng.choice((1, -1)))
    perm = list(range(k))
    rng.shuffle(perm)
    return [[U[perm[i]][j] * rng.choice((1, -1)) for j in range(k)] for i in range(k)]


def perturb_cyclic(rng, n: int, tensor):
    """Change one coordinate of (e_i, e_j, e_k) with i < j and k not in {i, j}.

    That product enters the cyclic sum over (i, j, k) exactly once and no
    other stored product does, so the sum moves off zero: the result
    violates the cyclic identity while alternation still holds.
    """
    i, j = sorted(rng.sample(range(n), 2))
    k = rng.choice([x for x in range(n) if x not in (i, j)])
    l = rng.randrange(n)
    vec = list(tensor.get((i, j, k), (ZERO,) * n))
    vec[l] += Fraction(rng.choice((1, -1, 2, -2)))
    out = dict(tensor)
    out[(i, j, k)] = tuple(vec)
    return _clean(out)
