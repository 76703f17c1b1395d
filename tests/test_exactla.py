import random
import re
from fractions import Fraction
from math import comb

import pytest

from lietriple.exactla import (
    Echelon,
    Matrix,
    SingularMatrix,
    Subspace,
    form_inertia,
    inverse,
    kernel,
    rref,
    solve,
    span,
    subspace_contains,
    subspace_intersect,
    subspace_sum,
)
from util import matvec, random_invertible, random_matrix, random_rational, subspace_le, zero_subspace


def rows(m):
    return [list(r) for r in m.entries]


def test_rref_identity_already_reduced():
    m = Matrix.identity(2)
    reduced, rank = rref(m)
    assert reduced == m
    assert rank == 2


def test_rref_dependent_rows():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    reduced, rank = rref(m)
    assert rows(reduced) == [[1, 2], [0, 0]]
    assert rank == 1


def test_rref_zero_matrix():
    m = Matrix.zeros(2, 2)
    reduced, rank = rref(m)
    assert reduced == m
    assert rank == 0


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(7)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        reduced, _ = rref(m)
        again, _ = rref(reduced)
        assert again == reduced


def test_rank_equals_transpose_rank():
    rng = random.Random(11)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert rref(m)[1] == rref(m.transpose())[1]


def test_span_examples():
    s = span([(1, 0, 0), (1, 1, 0)], 3)
    assert rows(s.basis) == [[1, 0, 0], [0, 1, 0]]
    assert span([], 3) == zero_subspace(3)
    s2 = span([(2, 4)], 2)
    assert rows(s2.basis) == [[1, 2]]
    # a basis of ints given to the constructor is kept as the canonical one, in Fractions
    built, computed = Subspace(2, Matrix(1, 2, ((1, 0),))), span([(1, 0)], 2)
    assert built == computed and hash(built) == hash(computed)
    assert repr(built) == repr(computed)
    assert [type(x) for v in built.vectors() for x in v] == [Fraction, Fraction]


def test_span_rejects_wrong_length():
    with pytest.raises(ValueError):
        span([(1, 0)], 3)


def test_subspace_sum_spans_plane():
    a = span([(1, 0)], 2)
    b = span([(0, 1)], 2)
    assert subspace_sum(a, b) == span([(1, 0), (0, 1)], 2)


def test_subspace_intersect_example():
    a = span([(1, 0, 0), (0, 1, 0)], 3)
    b = span([(0, 1, 0), (0, 0, 1)], 3)
    assert subspace_intersect(a, b) == span([(0, 1, 0)], 3)


def test_subspace_contains_scalar_multiple():
    assert subspace_contains(span([(1, 2)], 2), (2, 4))
    assert not subspace_contains(span([(1, 2)], 2), (2, 5))


def test_dimension_formula_on_random_pairs():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = span([[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n))], n)
        b = span([[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n))], n)
        s = subspace_sum(a, b)
        i = subspace_intersect(a, b)
        assert s.dim + i.dim == a.dim + b.dim


def test_kernel_examples():
    assert kernel(Matrix.identity(3)) == zero_subspace(3)
    k = kernel(Matrix.from_rows([[1, 1]]))
    assert rows(k.basis) == [[1, -1]]
    assert kernel(Matrix.zeros(2, 3)).dim == 3


def test_kernel_vectors_annihilate():
    rng = random.Random(17)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        for v in kernel(m).vectors():
            assert all(x == 0 for x in matvec(m, v))


def test_inverse_round_trip_and_singular():
    m = Matrix.from_rows([[1, 2], [3, 5]])
    inv = inverse(m)
    assert m * inv == Matrix.identity(2)
    with pytest.raises(SingularMatrix, match="^matrix is singular$"):
        inverse(Matrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(SingularMatrix, match="^matrix is not square$"):
        inverse(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))
    rng = random.Random(19)
    for n in range(1, 6):
        m = random_invertible(rng, n)
        inv = inverse(m)
        assert m * inv == inv * m == Matrix.identity(n)
        with pytest.raises(SingularMatrix, match="^matrix is singular$"):
            inverse(random_matrix(rng, n, n - 1) * random_matrix(rng, n - 1, n))


def _low_rank(rng, rows, cols, rank):
    return random_matrix(rng, rows, rank) * random_matrix(rng, rank, cols)


def _rank(m):
    return rref(m)[1]


def test_kernel_on_tall_wide_rank_deficient_and_zero_row_matrices():
    rng = random.Random(37)
    for _ in range(15):
        cases = [
            random_matrix(rng, 5, 2),
            random_matrix(rng, 2, 5),
            _low_rank(rng, 4, 4, rng.randint(0, 3)),
            _low_rank(rng, 2, 5, rng.randint(0, 1)),
            Matrix.zeros(0, rng.randint(1, 4)),
        ]
        for m in cases:
            k = kernel(m)
            assert k.dim == m.cols - _rank(m)
            for v in k.vectors():
                assert not any(matvec(m, v))


def test_solve_on_rank_deficient_wide_systems():
    rng = random.Random(41)
    for _ in range(40):
        rows, cols = rng.randint(2, 4), rng.randint(4, 6)
        m = _low_rank(rng, rows, cols, rng.randint(0, rows - 1))
        prefix_ranks = [
            _rank(Matrix.from_rows([r[:j] for r in m.entries], j)) for j in range(cols + 1)
        ]
        non_pivot = [j for j in range(cols) if prefix_ranks[j + 1] == prefix_ranks[j]]
        b = matvec(m, [random_rational(rng) for _ in range(cols)])
        x = solve(m, b)
        assert matvec(m, x) == b
        assert all(x[j] == 0 for j in non_pivot)
        # rank < rows: y·m = 0 for some y != 0, and y·(b + y) = y·y != 0
        y = kernel(m.transpose()).vectors()[0]
        assert solve(m, tuple(p + q for p, q in zip(b, y))) is None


def test_subspace_intersect_against_membership_in_both_inputs():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 6)
        common = _random_rows(rng, rng.randint(0, 2), n)
        a = span(common + _random_rows(rng, rng.randint(0, n), n), n)
        b = span(common + _random_rows(rng, rng.randint(0, n), n), n)
        i = subspace_intersect(a, b)
        for v in i.vectors():
            assert subspace_contains(a, v) and subspace_contains(b, v)
        assert subspace_le(span(common, n), i)
        assert i.dim == a.dim + b.dim - subspace_sum(a, b).dim


def test_matrix_requires_consistent_shape():
    with pytest.raises(ValueError):
        Matrix(2, 2, ((Fraction(1),),))


def test_matrix_refuses_entries_that_are_not_exact():
    # a float or a bool is named as every coercion names it; anything else
    # that is not an int or a Fraction gets the table constructors' wording
    for entry, message in (
        (0.5, "0.5 is a float, not an exact rational"),
        (True, "True is a bool, not an exact rational"),
        ("1/2", "matrix entry '1/2' is not an int or a Fraction"),
        (None, "matrix entry None is not an int or a Fraction"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Matrix(2, 2, ((1, Fraction(1, 3)), (Fraction(2), entry)))
    # so no float reaches vecmat, * or sub, whose results it would turn into floats
    one = Matrix(1, 1, ((1,),))
    with pytest.raises(ValueError, match="^0.5 is a float, not an exact rational$"):
        one.vecmat((0.5,))
    with pytest.raises(ValueError, match="^0.5 is a float, not an exact rational$"):
        one * Matrix(1, 1, ((0.5,),))
    with pytest.raises(ValueError, match="^0.5 is a float, not an exact rational$"):
        one.sub(Matrix(1, 1, ((0.5,),)))
    # ints and Fractions give exact results through all three
    half = Matrix(1, 1, ((Fraction(1, 2),),))
    assert half.vecmat((1,)) == (Fraction(1, 2),)
    assert (one * half).entries == ((Fraction(1, 2),),)
    assert one.sub(half).entries == ((Fraction(1, 2),),)
    assert all(type(x) is Fraction for m in (one * half, one.sub(half)) for r in m.entries for x in r)


def test_subspace_ops_reject_ambient_mismatch():
    a = span([(1, 0)], 2)
    b = span([(1, 0, 0)], 3)
    with pytest.raises(ValueError):
        subspace_sum(a, b)
    with pytest.raises(ValueError):
        subspace_intersect(a, b)
    with pytest.raises(ValueError):
        subspace_contains(a, (1, 0, 0))


def _random_rows(rng, count, n):
    """Random rational rows, some of them combinations of earlier ones."""
    out = []
    for _ in range(count):
        if out and rng.random() < 0.3:
            coefs = [random_rational(rng) for _ in out]
            out.append(tuple(sum((c * v[j] for c, v in zip(coefs, out)), Fraction(0)) for j in range(n)))
        else:
            out.append(random_matrix(rng, 1, n).entries[0])
    return out


def test_echelon_agrees_with_span_and_solve():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 6)
        vectors = _random_rows(rng, rng.randint(0, 7), n)
        ech = Echelon(n)
        kept = [v for v in vectors if ech.insert(v)]
        assert ech.rank == len(kept)
        assert ech.subspace() == span(vectors, n)
        if not kept:
            continue
        basis = Matrix.from_rows(kept).transpose()
        for _ in range(3):
            coefs = [random_rational(rng) for _ in kept]
            v = matvec(basis, coefs)
            assert solve(basis, v) == tuple(coefs)
            assert not any(ech.reduce(v))


def _mixed_entry(rng, kinds):
    """A zero, or a rational with numerator and denominator up to 10^6 given
    as an int, a Fraction or a str."""
    kind = rng.choice(kinds)
    num, den = rng.randint(-(10**6), 10**6), rng.randint(1, 10**6)
    return {"zero": 0, "int": num, "frac": Fraction(num, den), "str": f"{num}/{den}"}[kind]


def _reference_rref(vectors, n):
    """The nonzero rows of the reduced row echelon form, by plain
    Gauss-Jordan elimination over Fractions."""
    pending = [[Fraction(x) for x in v] for v in vectors]
    done = []
    for c in range(n):
        r = next((r for r in pending if r[c]), None)
        if r is None:
            continue
        pending.remove(r)
        r = [x / r[c] for x in r]
        pending = [[x - s[c] * y for x, y in zip(s, r)] for s in pending]
        done = [[x - s[c] * y for x, y in zip(s, r)] for s in done] + [r]
    return done


def test_echelon_reduce_gives_the_exact_residual():
    """reduce(v) is v - sum of v[p]·row_p over the canonical RREF rows, with
    p the pivot of row_p, on large rationals in every accepted form."""
    rng = random.Random(47)
    for case in range(200):
        kinds = ("zero", "int") if case % 4 == 0 else ("zero", "int", "frac", "str")
        n = rng.randint(1, 6)
        vectors = [[_mixed_entry(rng, kinds) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
        basis = _reference_rref(vectors, n)
        ech = Echelon(n, vectors)
        assert rows(ech.subspace().basis) == basis
        for _ in range(3):
            v = [_mixed_entry(rng, kinds) for _ in range(n)]
            want = [Fraction(x) for x in v]
            for row in basis:
                c = Fraction(v[next(j for j, x in enumerate(row) if x)])
                want = [x - c * y for x, y in zip(want, row)]
            assert ech.reduce(v) == tuple(want)
            if basis:
                # a combination of the inserted vectors reduces to zero
                inside = [sum(Fraction(w[j]) for w in vectors) for j in range(n)]
                assert not any(ech.reduce(inside))


def test_inverse_of_the_hilbert_matrix():
    """Coefficient growth: the 8 x 8 Hilbert matrix 1/(i + j - 1) has the
    closed-form integer inverse."""
    n = 8
    hilbert = Matrix.from_rows([[Fraction(1, i + j - 1) for j in range(1, n + 1)] for i in range(1, n + 1)])
    want = [
        [
            (-1) ** (i + j)
            * (i + j - 1)
            * comb(n + i - 1, n - j)
            * comb(n + j - 1, n - i)
            * comb(i + j - 2, i - 1) ** 2
            for j in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]
    assert rows(inverse(hilbert)) == want


def test_echelon_insert_of_dependent_vector_is_rejected():
    ech = Echelon(3)
    assert ech.insert((1, 2, 0))
    assert ech.insert((0, 1, 1))
    assert not ech.insert((2, 5, 1))
    assert not ech.insert((0, 0, 0))
    assert ech.rank == 2
    assert solve(Matrix.from_rows([(1, 2, 0), (0, 1, 1)]).transpose(), (2, 5, 1)) == (2, 1)


def test_solve_off_the_span_and_of_zero():
    ech = Echelon(3, [(1, 2, 0), (0, 1, 1)])
    basis = Matrix.from_rows([(1, 2, 0), (0, 1, 1)]).transpose()
    assert solve(basis, (0, 0, 1)) is None
    assert any(ech.reduce((0, 0, 1)))
    assert solve(basis, (0, 0, 0)) == (0, 0)
    no_columns = Matrix.zeros(2, 0)
    assert solve(no_columns, (0, 0)) == ()
    assert solve(no_columns, (1, 0)) is None
    with pytest.raises(ValueError):
        ech.insert((1, 0))
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        solve(basis, (1, 0))


def test_inverse_of_the_empty_matrix_and_with_a_zero_leading_entry():
    assert inverse(Matrix.zeros(0, 0)) == Matrix.zeros(0, 0)
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    assert inverse(swap) == swap
    m = Matrix.from_rows([[0, 2, 1], [1, 0, 0], [0, 1, 1]])
    assert m * inverse(m) == Matrix.identity(3)
    with pytest.raises(SingularMatrix, match="^matrix is singular$"):
        inverse(Matrix.from_rows([[0, 1], [0, 2]]))


def test_solve_of_zero_on_a_rank_deficient_matrix():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 0]])
    assert solve(m, (0, 0, 0)) == (0, 0, 0)
    assert solve(Matrix.zeros(2, 3), (0, 0)) == (0, 0, 0)
    assert solve(Matrix.zeros(2, 3), (0, 1)) is None


def test_matrix_product_matches_dense_definition():
    rng = random.Random(29)
    for _ in range(30):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        b = random_matrix(rng, a.cols, rng.randint(1, 4))
        dense = [
            [sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), Fraction(0)) for j in range(b.cols)]
            for i in range(a.rows)
        ]
        assert rows(a * b) == dense


@pytest.mark.parametrize(
    "form, inertia",
    [
        ([], (0, 0, 0)),
        ([[0, 0], [0, 0]], (0, 0, 2)),
        ([[3, 0], [0, -5]], (1, 1, 0)),
        # a zero diagonal takes the congruence step
        ([[0, 1], [1, 0]], (1, 1, 0)),
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (1, 2, 0)),
        # a block-diagonal form, one block singular, and a zero row
        ([[2, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 0, -3, 0, 0], [0, 1, 0, 1, 0], [0] * 5], (2, 1, 2)),
        # a pivot with no other entry left keeps the scale of the rest
        ([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 3, 1], [0, 0, 1, -1]], (3, 1, 0)),
        # pivots whose Bareiss updates divide by the pivot before them
        ([[4, 6, 2], [6, 3, 5], [2, 5, 7]], (2, 1, 0)),
    ],
)
def test_form_inertia_of_small_forms(form, inertia):
    assert form_inertia(form) == inertia
    # a congruence by a change of basis with entries 1/2 keeps the inertia
    n = len(form)
    P = [[Fraction(1, 2) if i == j else Fraction(i < j) for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n)]
    moved = [[int(4 * sum(P[a][i] * form[i][j] * P[b][j] for i, j in cells)) for b in range(n)] for a in range(n)]
    assert form_inertia(moved) == inertia
