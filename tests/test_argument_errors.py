"""The documented argument checks of the public API raise what they say."""

import re

import pytest

from lietriple.catalog import from_operators
from lietriple.core import TripleSystem, derived_subspace, is_ideal, transform, triple_product
from lietriple.embed import inner_derivation
from lietriple.exactla import Echelon, Matrix, Subspace, full_subspace, kernel, rat, solve, span
from lietriple.formats import serialize_lie
from lietriple.lie import Grading, LieAlgebra, check_grading
from lietriple.witness import search_witness

T2 = TripleSystem.from_entries(2, {(0, 1, 0): (0, 1)})
G2 = LieAlgebra.from_entries(2, {(0, 1): (1, 0)})
I2, I3 = Matrix.identity(2), Matrix.identity(3)
ZERO2 = Matrix.zeros(2, 3)


def t2_with(x):
    """T2's dense tensor with its entry c[0][1][0][1] = 1 replaced by x."""
    return ((T2.c[0][0], ((0, x), T2.c[0][1][1])), T2.c[1])


def g2_with(x):
    """G2's dense table with its entry f[0][1][0] = 1 replaced by x."""
    return ((G2.f[0][0], (x, 0)), G2.f[1])


@pytest.mark.parametrize(
    "call, exception, message",
    [
        (lambda: TripleSystem.from_entries(2, {(1, 0, 0): (1, 0)}), ValueError, "bad tensor index (1,0,0)"),
        (lambda: TripleSystem.from_entries(2, {(0, 1, 0): (1,)}), ValueError, "coordinate vector length mismatch"),
        (lambda: TripleSystem.from_entries(2, {(0, 1): (1, 0)}), ValueError, "bad tensor index (0,1)"),
        (lambda: TripleSystem.from_entries(2, {(0, 1, 0.5): (1, 0)}), ValueError, "bad tensor index (0,1,0.5)"),
        (lambda: LieAlgebra.from_entries(2, {(1, 0): (1, 0)}), ValueError, "bad bracket index (1,0)"),
        (lambda: LieAlgebra.from_entries(2, {(0, 1): (1,)}), ValueError, "coordinate vector length mismatch"),
        (lambda: LieAlgebra.from_entries(2, {(0, 1, 0): (1, 0)}), ValueError, "bad bracket index (0,1,0)"),
        (lambda: LieAlgebra(2, G2.f[:1]), ValueError, "bracket tensor shape does not match dimension"),
        (lambda: TripleSystem.abelian(-1), ValueError, "tensor shape does not match dimension"),
        # an id of its own: the message repeats the row above, whose id would change
        pytest.param(
            lambda: LieAlgebra.abelian(-1), ValueError, "bracket tensor shape does not match dimension", id="lie-dim-1"
        ),
        (lambda: TripleSystem(2, t2_with(1.0)), ValueError, "table entry 1.0 is not an int or a Fraction"),
        (lambda: TripleSystem(2, t2_with("1")), ValueError, "table entry '1' is not an int or a Fraction"),
        (lambda: LieAlgebra(2, g2_with(0.5)), ValueError, "table entry 0.5 is not an int or a Fraction"),
        (lambda: LieAlgebra(2, g2_with("x")), ValueError, "table entry 'x' is not an int or a Fraction"),
        (lambda: transform(T2, ZERO2), ValueError, "transform matrix must be n x n"),
        (lambda: Grading((1, 0)), ValueError, "grading signs must be +1 or -1"),
        (lambda: check_grading(G2, Grading((1,))), ValueError, "grading length does not match algebra dimension"),
        (lambda: serialize_lie(G2, Grading((1,))), ValueError, "grading length does not match algebra dimension"),
        (lambda: Matrix.from_rows([]), ValueError, "column count required for a matrix with no rows"),
        (lambda: Matrix.from_rows([[1, 2]], 3), ValueError, "entry grid does not match declared shape"),
        (lambda: Subspace(3, Matrix.from_rows([[1, 0]])), ValueError, "basis width does not match ambient dimension"),
        (lambda: Subspace(2, Matrix.from_rows([[2, 0]])), ValueError, "basis is not in reduced row echelon form"),
        (lambda: solve(ZERO2, (1, 0, 0)), ValueError, "dimension mismatch"),
        (lambda: ZERO2.vecmat((1, 0, 0)), ValueError, "dimension mismatch"),
        (lambda: ZERO2 * I2, ValueError, "dimension mismatch"),
        (lambda: I2.sub(ZERO2), ValueError, "dimension mismatch"),
        (lambda: inner_derivation(T2, (1,), (1, 0)), ValueError, "dimension mismatch"),
        (lambda: is_ideal(T2, full_subspace(3)), ValueError, "ambient dimension mismatch"),
        (lambda: derived_subspace(T2, full_subspace(3)), ValueError, "ambient dimension mismatch"),
        (lambda: from_operators(I2, I3, I3), ValueError, "operators must be 3 x 3"),
        # exact inputs only: a float or a bool is refused wherever a value is coerced to a rational
        *[
            pytest.param(call, ValueError, message, id=name)
            for name, call, message in [
                ("rat-float", lambda: rat(0.1), "0.1 is a float, not an exact rational"),
                ("rat-bool", lambda: rat(True), "True is a bool, not an exact rational"),
                ("from-rows-float", lambda: Matrix.from_rows([[0.1, 1]]), "0.1 is a float, not an exact rational"),
                ("from-rows-bool", lambda: Matrix.from_rows([[1, False]]), "False is a bool, not an exact rational"),
                ("echelon-bool", lambda: Echelon(2, [(True, 0)]), "True is a bool, not an exact rational"),
                ("span-float", lambda: span([(0.1, 1)], 2), "0.1 is a float, not an exact rational"),
                ("span-zero-float", lambda: span([(0.0, 1)], 2), "0.0 is a float, not an exact rational"),
                ("kernel-float", lambda: kernel(Matrix(1, 2, ((0.1, 1),))), "0.1 is a float, not an exact rational"),
                (
                    "triple-product-float",
                    lambda: triple_product(T2, (0.1, 0), (1, 0), (0, 1)),
                    "0.1 is a float, not an exact rational",
                ),
                (
                    "transform-float",
                    lambda: transform(T2, Matrix(2, 2, ((0.5, 0), (0, 1)))),
                    "0.5 is a float, not an exact rational",
                ),
                (
                    "from-entries-float",
                    lambda: TripleSystem.from_entries(2, {(0, 1, 0): (0.5, 0)}),
                    "0.5 is a float, not an exact rational",
                ),
                ("grading-bool", lambda: Grading((True, -1)), "grading signs must be +1 or -1"),
                ("grading-float", lambda: Grading((1, -1.0)), "grading signs must be +1 or -1"),
            ]
        ],
    ],
)
def test_documented_argument_errors(call, exception, message):
    with pytest.raises(exception, match=f"^{re.escape(message)}$"):
        call()


def test_search_witness_across_dimensions_finds_nothing():
    assert search_witness(T2, TripleSystem.abelian(3), 10**6) is None
    assert search_witness(TripleSystem.abelian(3), T2, 10**6) is None
