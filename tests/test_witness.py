"""The row-at-a-time witness kernel against the odometer it replaced.

``lietriple._witness_py.stage_search`` places T one row at a time and
counts the invertible candidates of every cut subtree without visiting
them; ``witness_reference.stage_search`` is the original odometer, which
visits and checks every invertible candidate.  Both must return the same
``(tested, digits)`` for every call.
"""

import random
import subprocess
import sys
from fractions import Fraction

import pytest

import lietriple._witness_py as wpy
import witness_reference as ref
from lietriple.core import TripleSystem, integer_tensor, transform
from lietriple.exactla import Echelon, Matrix
from lietriple.witness import search_witness
from util import sphere_system

TIED_GROUPS = [
    ("dim2-2", "dim2-3"),
    ("dim3-III+", "dim3-IV+"),
    ("dim3-III-", "dim3-IV-"),
    ("split-1b", "split-1c"),
    ("split-3", "split-4"),
    ("split-5", "split-6"),
]
ISOMORPHIC_GROUPS = [TIED_GROUPS[1], TIED_GROUPS[2], TIED_GROUPS[5]]


@pytest.fixture
def driver_calls(monkeypatch):
    """Run ``search_witness``, checking every kernel call it makes against
    the reference; the checked calls are recorded here."""
    calls = []
    kernel = wpy.stage_search

    def checked(*args):
        got = kernel(*args)
        assert got == ref.stage_search(*args), (args[0], args[3:6])
        calls.append((args, got))
        return got

    monkeypatch.setattr(wpy, "stage_search", checked)
    return calls


def kernel_args(a, b):
    """(n, a_entries, b_flat, m_lhs, m_rhs) as the driver builds them for
    integer candidate values."""
    n = a.dim
    da, sa = integer_tensor(a)
    db, sb = integer_tensor(b)
    a_entries = [(i, j, k, l, x) for (i, j, k), pairs in sa.items() if i < j for l, x in pairs]
    b_flat = [0] * n**4
    for (i, j, k), pairs in sb.items():
        for l, x in pairs:
            b_flat[((i * n + j) * n + k) * n + l] = x
    return n, a_entries, b_flat, db, da


def assert_same(n, a_entries, b_flat, vals, new_start, budget, m_lhs, m_rhs):
    args = (n, a_entries, b_flat, vals, new_start, budget, m_lhs, m_rhs)
    got = wpy.stage_search(*args)
    assert got == ref.stage_search(*args), (n, vals, new_start, budget)
    return got


def test_kernel_matches_reference_on_tied_pairs(by_label, driver_calls):
    # 4000 reaches past the first hit of each isomorphic pair (3587-3625)
    # and, at n = 2, into stages 2 and 3
    for pair in TIED_GROUPS:
        for a, b in (pair, pair[::-1]):
            search_witness(by_label[a].system, by_label[b].system, 4000)
    assert sum(got[1] is not None for _, got in driver_calls) == 6
    assert any(args[4] > 0 for args, _ in driver_calls)


def test_kernel_matches_reference_past_the_first_stage(by_label, driver_calls):
    # an n = 3 miss that exhausts stage 1 (11,808 invertible candidates),
    # an n = 2 hit in stage 2 and an n = 2 miss that runs out in stage 3
    search_witness(by_label["split-3"].system, by_label["split-4"].system, 12500)
    a = by_label["dim2-1"].system
    search_witness(a, transform(a, Matrix.from_rows([[2, 1], [1, 1]])), 25000)
    search_witness(by_label["dim2-2"].system, by_label["dim2-3"].system, 2500)
    assert [args[4] for args, _ in driver_calls] == [0, 3, 0, 3, 0, 3, 7]
    assert [got for _, got in driver_calls] == [
        (11808, None),
        (692, None),
        (48, None),
        (356, (1, 3, 1, 1)),
        (48, None),
        (2032, None),
        (420, None),
    ]


def test_kernel_matches_reference_on_basis_changes(by_label, driver_calls):
    rng = random.Random(20261018)
    values = (0, 1, -1, 2, -2, Fraction(1, 2))
    for group in TIED_GROUPS:
        for label in group:
            t = by_label[label].system
            n = t.dim
            while True:
                T = Matrix.from_rows([[rng.choice(values) for _ in range(n)] for _ in range(n)])
                if Echelon(n, T.entries).rank == n:
                    break
            changed = transform(t, T)
            for target in group:
                # changed systems on both sides: as the target, their
                # equations read rows below max(j, k)
                search_witness(changed, by_label[target].system, 1000)
                search_witness(by_label[target].system, changed, 1000)
    assert any(got[1] is not None for _, got in driver_calls)


def test_kernel_budgets_around_hits_and_inside_cut_subtrees(by_label, driver_calls):
    """Budget N returns the hit, N - 1 runs out one short of it, and seeded
    budgets below N stop part-way: of the ~3600 candidates before each
    3-dim hit only a handful are visited, so nearly every budget ends
    inside a subtree that was counted without being visited."""
    for pair in ISOMORPHIC_GROUPS:
        for a, b in (pair, pair[::-1]):
            search_witness(by_label[a].system, by_label[b].system, 4000)
    rng = random.Random(7)
    hits = [args for args, (_, digits) in driver_calls if digits is not None]
    assert len(hits) == 6
    for n, a_entries, b_flat, vals, new_start, _, m_lhs, m_rhs in hits:
        tested, digits = ref.stage_search(n, a_entries, b_flat, vals, new_start, 10**6, m_lhs, m_rhs)
        budgets = [tested, tested - 1] + [rng.randint(1, tested - 1) for _ in range(3)]
        for budget in budgets:
            got = assert_same(n, a_entries, b_flat, vals, new_start, budget, m_lhs, m_rhs)
            assert got == ((tested, digits) if budget == tested else (budget, None))


def test_kernel_stage_with_new_start(by_label):
    # stage 1 alone: the first automorphism of dim2-1 over {0, 1, -1}
    n, a_entries, b_flat, m_lhs, m_rhs = kernel_args(by_label["dim2-1"].system, by_label["dim2-1"].system)
    assert assert_same(n, a_entries, b_flat, [0, 1, -1], 0, 10**6, m_lhs, m_rhs)[1] is not None
    # stage 2 alone, with tuples over the stage-1 values excluded, scaled by 2
    vals = [0, 2, -2, 4, -4, 1, -1]
    for a, b, budget in (("dim3-III+", "dim3-IV+", 3000), ("split-5", "split-6", 3000), ("dim2-1", "dim2-1", 10**6)):
        n, a_entries, b_flat, m_lhs, m_rhs = kernel_args(by_label[a].system, by_label[b].system)
        assert_same(n, a_entries, b_flat, vals, 3, budget, m_lhs, m_rhs * 4)
    # a whole 3-dim stage whose only new value is 2: subtrees cut under
    # prefixes of old values count only the completions holding a 2
    n, a_entries, b_flat, m_lhs, m_rhs = kernel_args(by_label["split-3"].system, by_label["split-4"].system)
    assert_same(n, a_entries, b_flat, [0, 1, 2], 2, 10**6, m_lhs, m_rhs)


def test_kernel_dimension_one():
    for b_flat in ([0], [5]):
        for vals, new_start in (([0, 1, -1], 0), ([0, 2, -2, 4, -4, 1, -1], 3)):
            for budget in (1, 2, 10):
                assert_same(1, [], b_flat, vals, new_start, budget, 1, 1)


def test_kernel_dimension_four():
    # entries in {0, 1}: 2^16 candidate tuples, 22,560 of them invertible
    a = sphere_system(4)
    b = transform(a, Matrix.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 0]]))
    n, a_entries, b_flat, m_lhs, m_rhs = kernel_args(a, b)
    tested, digits = assert_same(n, a_entries, b_flat, [0, 1], 0, 10**6, m_lhs, m_rhs)
    assert digits is not None
    assert_same(n, a_entries, b_flat, [0, 1], 0, tested - 1, m_lhs, m_rhs)
    n, a_entries, b_flat, m_lhs, m_rhs = kernel_args(a, TripleSystem.abelian(4))
    assert assert_same(n, a_entries, b_flat, [0, 1], 0, 10**6, m_lhs, m_rhs) == (22560, None)


def test_search_witness_zero_dimension_returns():
    """Each stage of a 0-dim search counts nothing; the search must still end."""
    code = (
        "from lietriple import TripleSystem\n"
        "from lietriple.witness import search_witness\n"
        "t = TripleSystem.abelian(0)\n"
        "print(search_witness(t, t, 5).rows, search_witness(t, t, 0))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "0 None\n")
