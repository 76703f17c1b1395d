import random
import sys
from fractions import Fraction

import pytest

from lietriple import catalog
from lietriple.classify import (
    DEFAULT_CLASSIFY_BUDGET,
    UnsupportedDimension,
    classify,
    fingerprint,
    first_separator,
    isomorphic,
)
from lietriple.core import InvalidLTS, TripleSystem, check_axioms, transform
from lietriple.exactla import Echelon, Matrix, inverse
from lietriple.lie import KillingSignature
from lietriple.witness import level_values, search_witness, value_prefix
import classify_reference
from util import count_calls, random_invertible


def test_fingerprint_computes_the_killing_form_once(entries, monkeypatch):
    import lietriple.lie as lie

    calls = []
    compute = lie._killing_form
    monkeypatch.setattr(lie, "_killing_form", lambda g: calls.append(g.dim) or compute(g))
    for e in entries:
        calls.clear()
        fp = fingerprint(e.system)
        assert calls == [fp.g_dim], e.label


def test_fingerprint_abelian_dim3(by_label):
    fp = fingerprint(by_label["dim3-I"].system)
    assert fp.dim_m == 3
    assert fp.h_dim == 0
    assert fp.g_dim == 3
    assert fp.g_killing == KillingSignature(0, 0, 3)


def test_fingerprint_solvable_dim2_cases(by_label):
    fp_a = fingerprint(by_label["dim2-4a"].system)
    fp_b = fingerprint(by_label["dim2-4b"].system)
    assert fp_a.m_derived_dims == (2, 1, 0)
    assert fp_a.g_dim == 3
    # 4a embeds into the rotation algebra, 4b into the boost algebra
    assert fp_a.g_killing == KillingSignature(0, 1, 2)
    assert fp_b.g_killing == KillingSignature(1, 0, 2)
    assert first_separator(fp_a, fp_b) == "g_killing"


def test_fingerprint_invariance_random_transforms(entries):
    rng = random.Random(97)
    for e in entries:
        for _ in range(5):
            T = random_invertible(rng, e.system.dim)
            assert fingerprint(transform(e.system, T)) == e.expected, e.label


def test_value_order_prefix():
    assert [str(v) for v in value_prefix(1)] == ["0", "1", "-1"]
    assert [str(v) for v in value_prefix(2)] == ["0", "1", "-1", "2", "-2", "1/2", "-1/2"]
    assert [str(v) for v in level_values(3)] == [
        "3",
        "-3",
        "1/3",
        "-1/3",
        "2/3",
        "-2/3",
        "3/2",
        "-3/2",
    ]


def test_iso_reflexive_identity_witness(by_label):
    t = by_label["split-5"].system
    r = isomorphic(t, t)
    assert r.verdict == "isomorphic"
    assert r.witness == Matrix.identity(3)


def test_iso_separates_4a_4b(by_label):
    r = isomorphic(by_label["dim2-4a"].system, by_label["dim2-4b"].system)
    assert r.verdict == "non_isomorphic"
    assert r.separator == "g_killing"


def test_iso_finds_witness_for_transformed_system(by_label):
    a = by_label["dim2-1"].system
    T0 = Matrix.from_rows([[1, 1], [0, 1]])
    b = transform(a, T0)
    r = isomorphic(a, b)
    assert r.verdict == "isomorphic"
    assert transform(a, r.witness).c == b.c


def test_iso_witnesses_are_verified_exactly(by_label):
    r = isomorphic(by_label["dim3-IV+"].system, by_label["dim3-III+"].system)
    assert r.verdict == "isomorphic"
    assert transform(by_label["dim3-IV+"].system, r.witness).c == by_label["dim3-III+"].system.c


def test_iso_unknown_on_tied_fingerprints_without_witness(by_label):
    r = isomorphic(by_label["dim2-2"].system, by_label["dim2-3"].system, budget=3000)
    assert r.verdict == "unknown"
    assert r.witness is None


def test_iso_dim_mismatch_is_separated(by_label):
    r = isomorphic(by_label["dim2-1"].system, by_label["dim3-I"].system)
    assert r.verdict == "non_isomorphic"
    assert r.separator == "dim_m"


def test_classify_self_recognition(entries):
    tied = {
        "dim3-III+": ["dim3-III+", "dim3-IV+"],
        "dim3-IV+": ["dim3-III+", "dim3-IV+"],
        "dim3-III-": ["dim3-III-", "dim3-IV-"],
        "dim3-IV-": ["dim3-III-", "dim3-IV-"],
        "split-5": ["split-5", "split-6"],
        "split-6": ["split-5", "split-6"],
    }
    for e in entries:
        labels = classify(e.system)
        assert labels == tied.get(e.label, [e.label]), e.label


def test_classify_transformed_entries(by_label):
    rng = random.Random(101)
    for label in ("dim3-II", "split-2", "dim2-4a"):
        t = by_label[label].system
        T = random_invertible(rng, t.dim, lo=-1, hi=1, dens=(1,))
        assert label in classify(transform(t, T)), label


def test_classify_direct_sum_examples(by_label):
    from lietriple.core import direct_sum

    s = direct_sum(by_label["dim2-4a"].system, TripleSystem.abelian(1))
    labels = classify(s)
    assert "dim3-III-" in labels  # 4a ⊕ line is the minus variant of type III
    s2 = direct_sum(by_label["dim2-1"].system, TripleSystem.abelian(1))
    assert classify(s2) == ["split-1a"]


@pytest.mark.parametrize(
    "label, other, rows",
    [
        ("dim3-III-", "dim3-IV-", [[0, 1, -3], [Fraction(1, 3), 3, 3], [Fraction(1, 3), 1, -3]]),
        ("dim3-III+", "dim3-IV+", [[Fraction(1, 3), 3, -1], [1, 1, -1], [Fraction(1, 3), 0, 0]]),
    ],
)
def test_classify_keeps_a_label_the_search_misses(by_label, label, other, rows):
    """The search finds a witness to the other tied label only; its miss on
    the input's own label proves nothing, and the two entries' isomorphic
    group keeps that label."""
    t = transform(by_label[label].system, Matrix.from_rows(rows))
    assert isomorphic(t, by_label[label].system, DEFAULT_CLASSIFY_BUDGET).verdict == "unknown"
    assert isomorphic(t, by_label[other].system, DEFAULT_CLASSIFY_BUDGET).verdict == "isomorphic"
    assert classify(t) == [label, other]


def test_tied_entries_are_decided_by_the_default_search(entries):
    """classify drops a tied label only when no witness reaches it from an
    entry the input is isomorphic to: between the catalog's tied entries
    the search at the default budget finds a witness exactly for the
    isomorphic pairs, both ways round."""
    isomorphic_pairs = {
        frozenset(pair) for pair in (("dim3-III+", "dim3-IV+"), ("dim3-III-", "dim3-IV-"), ("split-5", "split-6"))
    }
    assert isomorphic_pairs == {frozenset(pair) for pair in catalog.ISOMORPHIC_GROUPS}
    for a in entries:
        for b in entries:
            if a is not b and a.expected == b.expected:
                found = search_witness(a.system, b.system, DEFAULT_CLASSIFY_BUDGET) is not None
                assert found == (frozenset((a.label, b.label)) in isomorphic_pairs), (a.label, b.label)


def test_isomorphic_groups_carry_exact_witnesses(by_label):
    """Each declared witness T carries the second entry of its group to the
    first, and T's inverse the first to the second, by an exact transform:
    the groups hold without the search."""
    for (a, b), rows in catalog.ISOMORPHIC_GROUPS.items():
        T = Matrix.from_rows(rows)
        assert transform(by_label[b].system, T).c == by_label[a].system.c, (a, b)
        assert transform(by_label[a].system, inverse(T)).c == by_label[b].system.c, (a, b)


TIED_VALUES = (0, 1, -1, 3, -3, Fraction(1, 3), Fraction(-1, 3))


def changed(rng, t, values):
    """t under a seeded invertible basis change with entries from values."""
    n = t.dim
    while True:
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
        if Echelon(n, rows).rank == n:
            return transform(t, Matrix.from_rows(rows, n))


def test_classify_matches_the_search_only_reference(entries):
    """On seeded changes of every tied entry, with entries like the
    benchmark's tied inputs and in {0, ±1}, classify gives the labels of
    the reference that decides ties by search alone, at every budget."""
    rng = random.Random(2029)
    tied = [e for e in entries if sum(x.expected == e.expected for x in entries) > 1]
    assert len(tied) == 12
    for e in tied:
        inputs = [e.system] + [changed(rng, e.system, values) for values in (TIED_VALUES, (0, 1, -1)) for _ in range(2)]
        for t in inputs:
            for budget in (0, 100, 3000, DEFAULT_CLASSIFY_BUDGET):
                assert classify(t, budget) == classify_reference.classify(t, budget), (e.label, budget)


def test_a_tie_within_one_group_makes_no_search(by_label, monkeypatch):
    """classify of a group member, plain, sheared (found by the search) or
    changed beyond the default budget (missed by it), returns the group
    without a search."""
    searches = count_calls(monkeypatch, search_witness)
    changes = ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[3, 1, 0], [0, Fraction(1, 3), 1], [1, 0, -3]])
    for pair in catalog.ISOMORPHIC_GROUPS:
        for label in pair:
            t = by_label[label].system
            for s in [t] + [transform(t, Matrix.from_rows(rows)) for rows in changes]:
                assert classify(s) == list(pair), label
    assert searches == []


@pytest.mark.parametrize(
    "label, labels",
    [
        ("dim3-III+", ["dim3-III+", "dim3-IV+"]),
        ("dim3-IV-", ["dim3-III-", "dim3-IV-"]),
        ("split-5", ["split-5", "split-6"]),
    ],
)
def test_classify_budget_bounds_only_the_input_search(by_label, label, labels):
    """The budget bounds the searches from the input only.  A tie within
    one of the isomorphic groups the catalog declares, which the tests
    above check against the default search, makes no search, so an entry
    keeps its isomorphic label even at a budget that would stop its own
    search short of that label's first witness (about 3600 candidates in)."""
    for budget in (0, 100, 3000):
        assert classify(by_label[label].system, budget) == labels, budget


def test_classify_keeps_a_false_tie_exact(by_label, monkeypatch):
    """A hit on one label of a tie between non-isomorphic entries adds no
    other label: no isomorphic group of the catalog holds both.  Every
    search starts at the input; none runs between two catalog entries."""
    searches = count_calls(monkeypatch, search_witness)
    shear = [[1, 1], [0, 1]]
    for label in ("dim2-2", "dim2-3", "split-3", "split-4", "split-1b", "split-1c"):
        t = by_label[label].system
        T = Matrix.from_rows(shear) if t.dim == 2 else Matrix.from_rows([shear[0] + [0], shear[1] + [0], [0, 0, 1]])
        s = transform(t, T)
        del searches[:]
        assert classify(s) == [label], label
        assert searches and all(args[0] is s for args in searches), label


@pytest.mark.parametrize(
    "label, labels",
    [
        ("split-1b", ["split-1b", "split-1c"]),
        ("dim3-III+", ["dim3-III+", "dim3-IV+"]),
        ("split-5", ["split-5", "split-6"]),
    ],
)
def test_classify_keeps_every_tied_label_when_the_search_finds_no_witness(by_label, label, labels):
    """A change the bounded search does not undo: with no witness to any
    tied entry, the miss proves nothing and every tied label is kept."""
    rows = [[3, 1, 0], [0, Fraction(1, 3), 1], [1, 0, -3]]
    t = transform(by_label[label].system, Matrix.from_rows(rows))
    for other in labels:
        assert isomorphic(t, by_label[other].system, DEFAULT_CLASSIFY_BUDGET).verdict == "unknown"
    for budget in (0, DEFAULT_CLASSIFY_BUDGET):
        assert classify(t, budget) == labels, budget


def sl2_double_bracket_system():
    """(x, y, z) = [[x, y], z] on the sl(2) vector space: a simple
    3-dimensional triple system, outside the solvable/splitting catalog."""
    from lietriple.lie import LieAlgebra, bracket

    g = LieAlgebra.from_entries(
        3, {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)}
    )  # basis h, e, f
    entries = {}
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(3):
                ei = tuple(1 if c == i else 0 for c in range(3))
                ej = tuple(1 if c == j else 0 for c in range(3))
                ek = tuple(1 if c == k else 0 for c in range(3))
                v = bracket(g, bracket(g, ei, ej), ek)
                if any(v):
                    entries[(i, j, k)] = v
    return TripleSystem.from_entries(3, entries)


def test_classify_no_match():
    t = sl2_double_bracket_system()
    assert check_axioms(t).ok
    fp = fingerprint(t)
    assert fp.lts_radical_dim == 0  # simple: no catalog entry matches at dim 3
    assert classify(t) == []


def test_scaled_sphere_ties_with_the_spherical_entry():
    # beta = diag(2, 3) is the sphere up to scale: fingerprints agree
    from lietriple.catalog import SymmetricForm2D, from_symmetric_form

    t = from_symmetric_form(SymmetricForm2D(Fraction(2), Fraction(3)))
    assert classify(t) == ["dim2-1"]


def test_classify_rejects_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        classify(TripleSystem.abelian(4))


CYCLIC_BAD = TripleSystem.from_entries(3, {(0, 1, 2): (1, 0, 0)})
CYCLIC_MSG = r"cyclic identity violated at \(1, 2, 3\)"
DERIVATION_BAD = TripleSystem.from_entries(2, {(0, 1, 0): (1, 0)})
DERIVATION_MSG = r"derivation identity violated at \(1, 2, 1, 2, 1\)"


def test_classify_rejects_invalid():
    with pytest.raises(InvalidLTS, match=CYCLIC_MSG):
        classify(CYCLIC_BAD)


def test_iso_rejects_invalid_before_identity_shortcut():
    # equal tensors would otherwise be answered "isomorphic" by the identity
    with pytest.raises(InvalidLTS, match=CYCLIC_MSG):
        isomorphic(CYCLIC_BAD, CYCLIC_BAD)


def test_iso_rejects_invalid_on_either_side(by_label):
    valid = by_label["dim3-II"].system
    with pytest.raises(InvalidLTS, match=CYCLIC_MSG):
        isomorphic(valid, CYCLIC_BAD)
    with pytest.raises(InvalidLTS, match=CYCLIC_MSG):
        isomorphic(CYCLIC_BAD, valid)


def test_iso_reports_the_first_invalid_argument():
    with pytest.raises(InvalidLTS, match=DERIVATION_MSG):
        isomorphic(DERIVATION_BAD, CYCLIC_BAD)
    with pytest.raises(InvalidLTS, match=CYCLIC_MSG):
        isomorphic(CYCLIC_BAD, DERIVATION_BAD)


def test_each_input_is_validated_and_fingerprinted_once(by_label, monkeypatch):
    changed = transform(by_label["dim3-III+"].system, Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    checks = count_calls(monkeypatch, check_axioms)
    fingerprints = count_calls(monkeypatch, fingerprint)
    assert classify(changed) == ["dim3-III+", "dim3-IV+"]
    assert (len(checks), len(fingerprints)) == (1, 1)
    del checks[:], fingerprints[:]
    # fresh copies of the tied entries: each system keeps its verdict, and the
    # catalog's own instances may have been checked before
    a, b = (TripleSystem(t.dim, t.c) for t in (by_label["dim3-III+"].system, by_label["dim3-IV+"].system))
    r = isomorphic(a, b)
    assert r.verdict == "isomorphic"
    assert (len(checks), len(fingerprints)) == (2, 2)
    # asked again, neither system is checked again
    del checks[:], fingerprints[:]
    assert isomorphic(a, b).verdict == "isomorphic"
    assert (len(checks), len(fingerprints)) == (0, 2)


@pytest.mark.parametrize(
    "a, b, separator",
    [("dim2-1", "dim3-I", "dim_m"), ("dim3-II", "dim3-VI", "m_derived_dims"), ("dim3-VI", "dim3-II", "m_derived_dims")],
)
def test_iso_separated_on_m_alone_builds_no_embedding(by_label, monkeypatch, a, b, separator):
    def refuse(t):
        raise AssertionError("standard embedding built")

    # the package exports the function classify under the module's name
    monkeypatch.setattr(sys.modules["lietriple.classify"], "standard_embedding", refuse)
    assert first_separator(by_label[a].expected, by_label[b].expected) == separator
    r = isomorphic(by_label[a].system, by_label[b].system)
    assert (r.verdict, r.separator) == ("non_isomorphic", separator)


def test_iso_checks_b_after_a_even_when_m_separates(by_label):
    # the dimensions differ, yet the invalid side is reported
    with pytest.raises(InvalidLTS, match=CYCLIC_MSG):
        isomorphic(by_label["dim2-1"].system, CYCLIC_BAD)
    with pytest.raises(InvalidLTS, match=DERIVATION_MSG):
        isomorphic(by_label["dim3-I"].system, DERIVATION_BAD)


def test_all_pairs_fingerprint_table(entries):
    """The full collision structure of the catalog fingerprints."""
    collisions = set()
    for i, a in enumerate(entries):
        for b in entries[i + 1 :]:
            if a.expected == b.expected:
                collisions.add(frozenset((a.label, b.label)))
    assert collisions == {
        frozenset({"dim2-2", "dim2-3"}),
        frozenset({"dim3-III+", "dim3-IV+"}),
        frozenset({"dim3-III-", "dim3-IV-"}),
        frozenset({"split-1b", "split-1c"}),
        frozenset({"split-3", "split-4"}),
        frozenset({"split-5", "split-6"}),
    }


def scaled(t, scale):
    """The triple system with every structure constant multiplied by scale."""
    c = tuple(tuple(tuple(tuple(scale * x for x in v) for v in cij) for cij in ci) for ci in t.c)
    return TripleSystem(t.dim, c)


@pytest.mark.parametrize(
    "a, b, n, rows",
    [
        ("dim3-III+", "dim3-IV+", 3623, [[1, 0, 0], [0, 1, 0], [0, 1, 1]]),
        ("dim3-IV+", "dim3-III+", 3587, [[1, 0, 0], [0, 0, 1], [0, 1, -1]]),
        ("dim3-III-", "dim3-IV-", 3625, [[1, 0, 0], [0, 1, 0], [0, -1, 1]]),
        ("split-5", "split-6", 3622, [[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
    ],
)
def test_search_witness_pins_enumeration_order(by_label, a, b, n, rows):
    """The documented order makes the n-th invertible candidate the first hit.

    Both tensors scaled by one factor are still Lie triple systems (both
    identities are homogeneous) with the same witnesses; the scale factors
    take the kernel's integer products far beyond 64 bits."""
    for scale in (1, Fraction(10**20), Fraction(1, 10**20)):
        sa, sb = (scaled(by_label[x].system, scale) for x in (a, b))
        assert search_witness(sa, sb, n) == Matrix.from_rows(rows), scale
        assert search_witness(sa, sb, n - 1) is None, scale


def test_search_witness_abelian_edge():
    # empty source tensor: the first invertible candidate is a witness
    a = TripleSystem.abelian(2)
    w = search_witness(a, a, 100)
    assert w is not None
    assert transform(a, w).c == a.c
