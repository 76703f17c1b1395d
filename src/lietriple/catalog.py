"""Frozen golden data: the canonical low-dimensional Lie triple systems.

Three families:

* ``dim2-*`` — the two-dimensional systems (x, y, z) = β(x,z)y − β(y,z)x
  for the diagonal symmetric forms β = diag(α, ν), α, ν ∈ {1, -1, 0}.
* ``dim3-*`` — the solvable three-dimensional types, assembled from the
  three operators A = (e1,e2,−), B = (e2,e3,−), C = (e3,e1,−).
* ``split-*`` — splitting systems: a one-dimensional solvable ideal ⟨e1⟩
  plus a two-dimensional simple part on ⟨e2,e3⟩.

The classical solvable table also lists a type with nonzero skew form
Φ(x,y)e1 = (x,y,e1) whose kernel is parallel to e1 (operators A = 0,
B = [[1,0,0],0,0], C = [[0,-1,0],0,0]).  That case admits no realization:
for Φ(e2,e3) = α the derivation identity forces 2α² = 0, so no such entry
appears here (see the tests for the mechanical check).  Two further
collapses the classical tables miss: types III and IV coincide up to
isomorphism (e3 ↦ e2 ∓ e3), and split-5 ≅ split-6 (e3 ↦ -e3).  All four
labels are kept because all four are classical; their fingerprints collide
by necessity.  ``ISOMORPHIC_GROUPS`` declares these groups with their
witnesses; the test suite verifies each witness exactly and checks that
the default witness search finds a witness between tied entries exactly
within a group, so classify reports a tie within one group without a
search.

Every entry records the invariant fingerprint the library computes for it;
the test suite recomputes and compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .catalog_data import EXPECTED_FINGERPRINTS
from .classify import Fingerprint
from .core import TripleSystem, direct_sum
from .exactla import Matrix, rat, vec_is_zero


class CyclicMismatch(ValueError):
    """Operator triple violates the cyclic compatibility A·e3 + B·e1 + C·e2 = 0."""


@dataclass(frozen=True)
class SymmetricForm2D:
    """Diagonal symmetric form diag(alpha, nu) on the plane."""

    alpha: Fraction
    nu: Fraction


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    system: TripleSystem
    ref: str  # where the system sits in the classical tables
    expected: Fingerprint
    notes: str


def from_symmetric_form(beta: SymmetricForm2D) -> TripleSystem:
    """Two-dimensional system (x, y, z) = β(x,z)y − β(y,z)x.

    On the basis: (e1,e2,e1) = α·e2 and (e1,e2,e2) = -ν·e1.  Valid for
    every rational α, ν.
    """
    alpha, nu = rat(beta.alpha), rat(beta.nu)
    entries = {}
    if alpha:
        entries[(0, 1, 0)] = (Fraction(0), alpha)
    if nu:
        entries[(0, 1, 1)] = (-nu, Fraction(0))
    return TripleSystem.from_entries(2, entries)


def from_operators(A: Matrix, B: Matrix, C: Matrix) -> TripleSystem:
    """Three-dimensional tensor from the operator slices.

    A, B, C act as matrix-times-coordinate-column: (e1,e2,e_k) = A·e_k,
    (e2,e3,e_k) = B·e_k, (e3,e1,e_k) = C·e_k, completed antisymmetrically.
    Raises CyclicMismatch unless A·e3 + B·e1 + C·e2 = 0; the caller is
    still responsible for check_axioms.
    """
    for M in (A, B, C):
        if M.rows != 3 or M.cols != 3:
            raise ValueError("operators must be 3 x 3")
    residual = tuple(A.col(2)[l] + B.col(0)[l] + C.col(1)[l] for l in range(3))
    if not vec_is_zero(residual):
        raise CyclicMismatch(f"A·e3 + B·e1 + C·e2 = {residual} != 0")
    entries = {}
    for k in range(3):
        for (i, j, col) in ((0, 1, A.col(k)), (1, 2, B.col(k))):
            if not vec_is_zero(col):
                entries[(i, j, k)] = col
        ccol = C.col(k)
        if not vec_is_zero(ccol):
            entries[(0, 2, k)] = tuple(-x for x in ccol)
    return TripleSystem.from_entries(3, entries)


def _m(rows) -> Matrix:
    return Matrix.from_rows(rows, 3)


_Z = ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def _definitions():
    one = Fraction(1)
    quarter = Fraction(1, 4)
    half = Fraction(1, 2)
    d2 = lambda a, v: from_symmetric_form(SymmetricForm2D(rat(a), rat(v)))  # noqa: E731
    abelian1 = TripleSystem.abelian(1)
    return [
        (
            "dim2-1",
            d2(1, 1),
            "dim-2 table, case 1 (spherical geometry)",
            "simple; enveloping pair of type so(3)/so(2)",
        ),
        (
            "dim2-2",
            d2(-1, -1),
            "dim-2 table, case 2 (Lobatchevski geometry)",
            "simple; enveloping pair of type sl(2,R)/so(2)",
        ),
        (
            "dim2-3",
            d2(1, -1),
            "dim-2 table, case 3 (non-compact h)",
            "simple; enveloping pair of type sl(2,R)/R",
        ),
        (
            "dim2-4a",
            d2(1, 0),
            "dim-2 table, case 4a (solvable)",
            "enveloping algebra g_{3,5}(p=0) in the Mubarakzyanov tables (rotation type)",
        ),
        (
            "dim2-4b",
            d2(-1, 0),
            "dim-2 table, case 4b (solvable)",
            "enveloping algebra g_{3,4}(h=-1) in the Mubarakzyanov tables (boost type)",
        ),
        (
            "dim2-5",
            d2(0, 0),
            "dim-2 table, case 5 (abelian)",
            "abelian plane; h = 0",
        ),
        (
            "dim3-I",
            from_operators(_m(_Z), _m(_Z), _m(_Z)),
            "solvable dim-3 table, type I",
            "abelian; enveloping algebra is the abelian 3-space",
        ),
        (
            "dim3-II",
            from_operators(_m(_Z), _m(((0, 0, 1), (0, 0, 0), (0, 0, 0))), _m(_Z)),
            "solvable dim-3 table, type II",
            "enveloping algebra g_{4,1} (Mubarakzyanov), 4-dim nilpotent non-decomposable",
        ),
        (
            "dim3-III+",
            from_operators(_m(((0, 1, 0), (0, 0, 0), (0, 0, 0))), _m(_Z), _m(_Z)),
            "solvable dim-3 table, type III, upper sign",
            "planar solvable times a line; enveloping algebra g_{3,4\\5}-family ⊕ R; the"
            " classical table prints stray entries in A that violate the cyclic identity,"
            " dropped here",
        ),
        (
            "dim3-III-",
            from_operators(_m(((0, -1, 0), (0, 0, 0), (0, 0, 0))), _m(_Z), _m(_Z)),
            "solvable dim-3 table, type III, lower sign",
            "planar solvable times a line; equals direct_sum(dim2-4a, point) after swapping"
            " e1 and e2",
        ),
        (
            "dim3-IV+",
            from_operators(
                _m(((0, 1, 1), (0, 0, 0), (0, 0, 0))),
                _m(_Z),
                _m(((0, -1, -1), (0, 0, 0), (0, 0, 0))),
            ),
            "solvable dim-3 table, type IV, upper sign",
            "g_{4,5\\6} tag in the classical table; C = -A is forced by the derivation"
            " identity (the printed sign-correlated C is not a triple system), which makes"
            " this isomorphic to dim3-III+ via e3 -> e2 - e3",
        ),
        (
            "dim3-IV-",
            from_operators(
                _m(((0, -1, 1), (0, 0, 0), (0, 0, 0))),
                _m(_Z),
                _m(((0, -1, 1), (0, 0, 0), (0, 0, 0))),
            ),
            "solvable dim-3 table, type IV, lower sign",
            "isomorphic to dim3-III- via e3 -> e2 + e3; see dim3-IV+",
        ),
        (
            "dim3-V+",
            from_operators(_m(_Z), _m(((0, 1, 0), (0, 0, 1), (0, 0, 0))), _m(_Z)),
            "solvable dim-3 table, type V, upper sign",
            "enveloping algebra in the g_{8\\9}-family (Mubarakzyanov), 4-dim solvable"
            " non-decomposable",
        ),
        (
            "dim3-V-",
            from_operators(_m(_Z), _m(((0, 1, 0), (0, 0, -1), (0, 0, 0))), _m(_Z)),
            "solvable dim-3 table, type V, lower sign",
            "see dim3-V+",
        ),
        (
            "dim3-VI",
            from_operators(
                _m(_Z),
                _m(((0, 0, 1), (0, 0, 0), (0, 0, 0))),
                _m(((0, 0, 0), (0, 0, 1), (0, 0, 0))),
            ),
            "solvable dim-3 table, type VI",
            "the classical tables tag its enveloping algebra g_{4,13}; that tag is"
            " unverified and, being a 4-dim label, cannot name the 5-dim solvable envelope"
            " (g_dim 5) the construction gives; the classical bracket table printed for it"
            " violates the Jacobi identity and the construction's own table is emitted instead",
        ),
        (
            "split-1a",
            direct_sum(abelian1, d2(1, 1)),
            "splitting table, type 1, so(3)/so(2) part",
            "direct sum of a line and dim2-1",
        ),
        (
            "split-1b",
            direct_sum(abelian1, d2(-1, -1)),
            "splitting table, type 1, sl(2,R)/so(2) part",
            "direct sum of a line and dim2-2",
        ),
        (
            "split-1c",
            direct_sum(abelian1, d2(1, -1)),
            "splitting table, type 1, sl(2,R)/R part",
            "direct sum of a line and dim2-3",
        ),
        (
            "split-2",
            from_operators(
                _m(((0, -1, 0), (0, 0, 0), (0, 0, 0))),
                _m(((0, 0, 0), (0, 0, -1), (0, 1, 0))),
                _m(((0, 0, 1), (0, 0, 0), (0, 0, 0))),
            ),
            "splitting table, type 2",
            "non-direct extension; simple part of type so(3)/so(2)",
        ),
        (
            "split-3",
            from_operators(
                _m(((0, 1, 0), (0, 0, 0), (0, 0, 0))),
                _m(((0, 0, 0), (0, 0, 1), (0, -1, 0))),
                _m(((0, 0, -1), (0, 0, 0), (0, 0, 0))),
            ),
            "splitting table, type 3",
            "non-direct extension; simple part of type sl(2,R)/so(2)",
        ),
        (
            "split-4",
            from_operators(
                _m(((0, -1, 0), (0, 0, 0), (0, 0, 0))),
                _m(((0, 0, 0), (0, 0, 1), (0, 1, 0))),
                _m(((0, 0, -1), (0, 0, 0), (0, 0, 0))),
            ),
            "splitting table, type 4",
            "non-direct extension; simple part on (e2,e3) is the sl(2,R)/R form, though the"
            " classical table labels it sl(2,R)/so(2)",
        ),
        (
            "split-5",
            from_operators(
                _m(((0, -quarter, quarter), (0, 0, 0), (0, 0, 0))),
                _m(((-half, 0, 0), (0, 0, one), (0, one, 0))),
                _m(((0, quarter, -quarter), (0, 0, 0), (0, 0, 0))),
            ),
            "splitting table, type 5",
            "A = -C with quarter entries; the ideal is acted on by B; isomorphic to"
            " split-6 via e3 -> -e3, though the classical table lists them separately",
        ),
        (
            "split-6",
            from_operators(
                _m(((0, -quarter, -quarter), (0, 0, 0), (0, 0, 0))),
                _m(((half, 0, 0), (0, 0, one), (0, one, 0))),
                _m(((0, -quarter, -quarter), (0, 0, 0), (0, 0, 0))),
            ),
            "splitting table, type 6",
            "A = C with quarter entries; the ideal is acted on by B; isomorphic to"
            " split-5 via e3 -> -e3",
        ),
    ]


# The groups of isomorphic entries, each pair (a, b) with the witness its
# notes name: transform(b, T) == a for T with these rows
ISOMORPHIC_GROUPS = {
    ("dim3-III+", "dim3-IV+"): ((1, 0, 0), (0, 1, 0), (0, 1, -1)),  # e3 -> e2 - e3
    ("dim3-III-", "dim3-IV-"): ((1, 0, 0), (0, 1, 0), (0, 1, 1)),  # e3 -> e2 + e3
    ("split-5", "split-6"): ((1, 0, 0), (0, 1, 0), (0, 0, -1)),  # e3 -> -e3
}

_ENTRIES: list[CatalogEntry] | None = None


def all_entries() -> list[CatalogEntry]:
    """The deterministic catalog, in table order."""
    global _ENTRIES
    if _ENTRIES is None:
        _ENTRIES = [
            CatalogEntry(label, system, ref, EXPECTED_FINGERPRINTS[label], notes)
            for (label, system, ref, notes) in _definitions()
        ]
    return list(_ENTRIES)


def labels() -> list[str]:
    return [e.label for e in all_entries()]


def get(label: str) -> CatalogEntry:
    for e in all_entries():
        if e.label == label:
            return e
    raise KeyError(f"no catalog entry labeled {label!r}")
