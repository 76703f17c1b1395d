import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from lietriple import catalog
from lietriple.catalog import CyclicMismatch, SymmetricForm2D, from_operators, from_symmetric_form
from lietriple.classify import fingerprint
from lietriple.core import check_axioms, direct_sum, transform, TripleSystem
from lietriple.exactla import Matrix

LABELS = [
    "dim2-1",
    "dim2-2",
    "dim2-3",
    "dim2-4a",
    "dim2-4b",
    "dim2-5",
    "dim3-I",
    "dim3-II",
    "dim3-III+",
    "dim3-III-",
    "dim3-IV+",
    "dim3-IV-",
    "dim3-V+",
    "dim3-V-",
    "dim3-VI",
    "split-1a",
    "split-1b",
    "split-1c",
    "split-2",
    "split-3",
    "split-4",
    "split-5",
    "split-6",
]


def test_catalog_labels_and_order(entries):
    assert [e.label for e in entries] == LABELS


def test_every_entry_passes_axioms(entries):
    for e in entries:
        assert check_axioms(e.system).ok, e.label


def test_expected_fingerprints_are_current(entries):
    for e in entries:
        assert fingerprint(e.system) == e.expected, e.label


def test_freeze_tool_renders_committed_catalog_data():
    root = Path(__file__).resolve().parents[1]
    tool = root / "tools" / "freeze_fingerprints.py"
    spec = importlib.util.spec_from_file_location("freeze_fingerprints", tool)
    freeze = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(freeze)
    committed = (root / "src" / "lietriple" / "catalog_data.py").read_text()
    assert freeze.render() == committed


def test_from_symmetric_form_values():
    t = from_symmetric_form(SymmetricForm2D(Fraction(1), Fraction(1)))
    assert t.c[0][1][0] == (Fraction(0), Fraction(1))
    assert t.c[0][1][1] == (Fraction(-1), Fraction(0))
    ab = from_symmetric_form(SymmetricForm2D(Fraction(0), Fraction(0)))
    assert ab.c == TripleSystem.abelian(2).c
    t4a = from_symmetric_form(SymmetricForm2D(Fraction(1), Fraction(0)))
    assert t4a.c[0][1][0] == (Fraction(0), Fraction(1))
    assert t4a.c[0][1][1] == (Fraction(0), Fraction(0))


def test_from_symmetric_form_valid_for_any_rational_form():
    for alpha, nu in [(2, 3), (-5, 7), (Fraction(1, 3), Fraction(-2, 5)), (0, 11)]:
        t = from_symmetric_form(SymmetricForm2D(Fraction(alpha), Fraction(nu)))
        assert check_axioms(t).ok, (alpha, nu)


def test_from_operators_zero_gives_abelian():
    z = Matrix.zeros(3, 3)
    assert from_operators(z, z, z).c == TripleSystem.abelian(3).c


def test_from_operators_type_ii_single_family():
    z = Matrix.zeros(3, 3)
    B = Matrix.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    t = from_operators(z, B, z)
    assert t.c[1][2][2] == (Fraction(1), Fraction(0), Fraction(0))
    nonzero = [
        (i, j, k)
        for i in range(3)
        for j in range(3)
        for k in range(3)
        if any(t.c[i][j][k])
    ]
    assert nonzero == [(1, 2, 2), (2, 1, 2)]


def test_from_operators_cyclic_mismatch():
    z = Matrix.zeros(3, 3)
    A = Matrix.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]])  # A·e3 = e1, unbalanced
    with pytest.raises(CyclicMismatch):
        from_operators(A, z, z)


def test_dim3_entries_match_their_operator_slices(by_label):
    specs = {
        "dim3-II": (None, [[0, 0, 1], [0, 0, 0], [0, 0, 0]], None),
        "dim3-III+": ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], None, None),
        "dim3-III-": ([[0, -1, 0], [0, 0, 0], [0, 0, 0]], None, None),
        "dim3-IV+": (
            [[0, 1, 1], [0, 0, 0], [0, 0, 0]],
            None,
            [[0, -1, -1], [0, 0, 0], [0, 0, 0]],
        ),
        "dim3-IV-": (
            [[0, -1, 1], [0, 0, 0], [0, 0, 0]],
            None,
            [[0, -1, 1], [0, 0, 0], [0, 0, 0]],
        ),
        "dim3-V+": (None, [[0, 1, 0], [0, 0, 1], [0, 0, 0]], None),
        "dim3-V-": (None, [[0, 1, 0], [0, 0, -1], [0, 0, 0]], None),
        "dim3-VI": (
            None,
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
        ),
    }
    zero = [[0] * 3] * 3
    for label, (A, B, C) in specs.items():
        t = by_label[label].system
        A = Matrix.from_rows(A or zero)
        B = Matrix.from_rows(B or zero)
        C = Matrix.from_rows(C or zero)
        for k in range(3):
            assert t.c[0][1][k] == A.col(k), (label, "A", k)
            assert t.c[1][2][k] == B.col(k), (label, "B", k)
            assert t.c[2][0][k] == C.col(k), (label, "C", k)


def test_skew_case_with_kernel_on_derived_line_is_empty():
    """The classical table's seventh solvable type: A = 0, B = [[a,0,0],...],
    C = [[0,-a,0],...].  For every nonzero a the derivation identity fails,
    so no such triple system exists."""
    z = Matrix.zeros(3, 3)
    for a in (1, -1, 2, Fraction(1, 2), Fraction(-3, 5)):
        B = Matrix.from_rows([[a, 0, 0], [0, 0, 0], [0, 0, 0]])
        C = Matrix.from_rows([[0, -a, 0], [0, 0, 0], [0, 0, 0]])
        t = from_operators(z, B, C)
        verdict = check_axioms(t)
        assert not verdict.ok, a
        assert verdict.kind == "derivation"
        assert verdict.indices == (1, 3, 2, 3, 2)
    # the raw tensor still exposes the printed operators slice-for-slice
    from lietriple.embed import inner_derivation
    from lietriple.core import is_ideal
    from lietriple.exactla import span

    t = from_operators(
        z,
        Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
        Matrix.from_rows([[0, -1, 0], [0, 0, 0], [0, 0, 0]]),
    )
    D = inner_derivation(t, (0, 1, 0), (0, 0, 1))
    assert [list(r) for r in D.entries] == [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert is_ideal(t, span([(1, 0, 0)], 3))


def test_sign_correlated_type_iv_operators_are_not_a_triple_system():
    z = Matrix.zeros(3, 3)
    for s in (1, -1):
        A = Matrix.from_rows([[0, s, 1], [0, 0, 0], [0, 0, 0]])
        C = Matrix.from_rows([[0, -1, s], [0, 0, 0], [0, 0, 0]])
        t = from_operators(A, z, C)
        verdict = check_axioms(t)
        assert not verdict.ok, s
        assert verdict.kind == "derivation"


def test_type_iv_is_isomorphic_to_type_iii(by_label):
    for sign, s in (("+", 1), ("-", -1)):
        iv = by_label[f"dim3-IV{sign}"].system
        iii = by_label[f"dim3-III{sign}"].system
        T = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 1, -s]])
        assert transform(iv, T).c == iii.c, sign


def test_split_5_isomorphic_to_split_6(by_label):
    T = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert transform(by_label["split-5"].system, T).c == by_label["split-6"].system.c


def test_split_direct_sums(by_label):
    one = TripleSystem.abelian(1)
    assert by_label["split-1a"].system.c == direct_sum(one, by_label["dim2-1"].system).c
    assert by_label["split-1b"].system.c == direct_sum(one, by_label["dim2-2"].system).c
    assert by_label["split-1c"].system.c == direct_sum(one, by_label["dim2-3"].system).c


def test_split_simple_parts(by_label):
    # products of e2, e3 inside the plane identify the two-dimensional type
    forms = {
        "split-2": ((0, 0, 1), (0, -1, 0)),  # beta = diag(1,1) pattern on (e2,e3)
        "split-3": ((0, 0, -1), (0, 1, 0)),  # beta = diag(-1,-1)
        "split-4": ((0, 0, 1), (0, 1, 0)),  # beta = diag(1,-1)
    }
    for label, (p232, p233) in forms.items():
        t = by_label[label].system
        assert t.c[1][2][1] == tuple(Fraction(x) for x in p232), label
        assert t.c[1][2][2] == tuple(Fraction(x) for x in p233), label


def test_get_and_labels():
    assert catalog.get("dim3-VI").label == "dim3-VI"
    with pytest.raises(KeyError):
        catalog.get("dim3-VII")
    assert catalog.labels() == LABELS


def test_mubarakzyanov_tags_recorded(by_label):
    assert "g_{4,1}" in by_label["dim3-II"].notes
    assert "g_{3,5}(p=0)" in by_label["dim2-4a"].notes
    assert "g_{3,4}(h=-1)" in by_label["dim2-4b"].notes
    assert "g_{4,13}" in by_label["dim3-VI"].notes
