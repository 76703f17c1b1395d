"""The documented argument checks of the public API raise what they say."""

import re

import pytest

from lietriple.catalog import from_operators
from lietriple.core import TripleSystem, derived_subspace, is_ideal, transform
from lietriple.embed import inner_derivation
from lietriple.exactla import Matrix, full_subspace, solve
from lietriple.formats import serialize_lie
from lietriple.lie import Grading, LieAlgebra, check_grading
from lietriple.witness import search_witness

T2 = TripleSystem.from_entries(2, {(0, 1, 0): (0, 1)})
G2 = LieAlgebra.from_entries(2, {(0, 1): (1, 0)})
I2, I3 = Matrix.identity(2), Matrix.identity(3)
ZERO2 = Matrix.zeros(2, 3)


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
        (lambda: transform(T2, ZERO2), ValueError, "transform matrix must be n x n"),
        (lambda: Grading((1, 0)), ValueError, "grading signs must be +1 or -1"),
        (lambda: check_grading(G2, Grading((1,))), ValueError, "grading length does not match algebra dimension"),
        (lambda: serialize_lie(G2, Grading((1,))), ValueError, "grading length does not match algebra dimension"),
        (lambda: Matrix.from_rows([]), ValueError, "column count required for a matrix with no rows"),
        (lambda: solve(ZERO2, (1, 0, 0)), ValueError, "dimension mismatch"),
        (lambda: ZERO2.vecmat((1, 0, 0)), ValueError, "dimension mismatch"),
        (lambda: ZERO2 * I2, ValueError, "dimension mismatch"),
        (lambda: I2.sub(ZERO2), ValueError, "dimension mismatch"),
        (lambda: inner_derivation(T2, (1,), (1, 0)), ValueError, "dimension mismatch"),
        (lambda: is_ideal(T2, full_subspace(3)), ValueError, "ambient dimension mismatch"),
        (lambda: derived_subspace(T2, full_subspace(3)), ValueError, "ambient dimension mismatch"),
        (lambda: from_operators(I2, I3, I3), ValueError, "operators must be 3 x 3"),
    ],
)
def test_documented_argument_errors(call, exception, message):
    with pytest.raises(exception, match=f"^{re.escape(message)}$"):
        call()


def test_search_witness_across_dimensions_finds_nothing():
    assert search_witness(T2, TripleSystem.abelian(3), 10**6) is None
    assert search_witness(TripleSystem.abelian(3), T2, 10**6) is None
