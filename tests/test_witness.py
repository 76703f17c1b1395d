"""The row-at-a-time witness kernel against the odometer it replaced.

``lietriple._witness_py.stage_search`` places T one row at a time,
solves for the last row, and counts the invertible candidates of every
cut subtree and of every last row it solved past without visiting them;
``witness_reference.stage_search`` is the original odometer, which
visits and checks every invertible candidate.  Both must return the same
``(tested, digits)`` for every call: the kernel reads the two systems'
integer tables, and ``witness_reference.flat`` lays them out for the
odometer.
"""

import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

import lietriple._witness_py as wpy
import witness_reference as ref
from lietriple.core import TripleSystem, direct_sum, transform
from lietriple.exactla import Echelon, Matrix
from lietriple.witness import search_witness
from util import random_invertible, sphere_system

TIED_GROUPS = [
    ("dim2-2", "dim2-3"),
    ("dim3-III+", "dim3-IV+"),
    ("dim3-III-", "dim3-IV-"),
    ("split-1b", "split-1c"),
    ("split-3", "split-4"),
    ("split-5", "split-6"),
]
ISOMORPHIC_GROUPS = [TIED_GROUPS[1], TIED_GROUPS[2], TIED_GROUPS[5]]


def kernel_args(a, b):
    """(sa, sb, m_lhs, m_rhs) of the kernel for integer candidate values:
    the integer tables of a, scaled by da, and of b, scaled by db, with
    m_lhs = db and m_rhs = da."""
    (da, sa), (db, sb) = a._integer, b._integer
    return sa, sb, db, da


def odometer(sa, sb, *args):
    """The reference's (tested, digits) for the kernel's arguments."""
    return ref.stage_search(*ref.flat(sa, sb), *args)


def reduced(system, n):
    """The ``Echelon`` rows of the integer system [a_0 .. a_{n-1} | b] of a·x = b
    as {pivot column: primitive row}, or None when it has no solution."""
    ech = Echelon(n + 1, system)
    return None if n in ech.pivots else dict(zip(ech.pivots, ech.rows))


@pytest.fixture
def driver_calls(monkeypatch):
    """Run ``search_witness``, checking every kernel call it makes against
    the reference; the checked calls are recorded here."""
    calls = []
    kernel = wpy.stage_search

    def checked(*args):
        got = kernel(*args)
        assert got == odometer(*args), (len(args[0]), args[2:5])
        calls.append((args, got))
        return got

    monkeypatch.setattr(wpy, "stage_search", checked)
    return calls


def assert_same(sa, sb, vals, new_start, budget, m_lhs, m_rhs):
    args = (sa, sb, vals, new_start, budget, m_lhs, m_rhs)
    got = wpy.stage_search(*args)
    assert got == odometer(*args), (len(sa), vals, new_start, budget)
    return got


def assert_budgets_around_hits(hits, rng):
    """Budget N returns the hit at candidate N, N - 1 runs out one short of
    it, and seeded budgets below N stop part-way."""
    for sa, sb, vals, new_start, _, m_lhs, m_rhs in hits:
        tested, digits = odometer(sa, sb, vals, new_start, 10**6, m_lhs, m_rhs)
        budgets = [tested, tested - 1] + [rng.randint(1, tested - 1) for _ in range(3)]
        for budget in budgets:
            got = assert_same(sa, sb, vals, new_start, budget, m_lhs, m_rhs)
            assert got == ((tested, digits) if budget == tested else (budget, None))


def test_kernel_matches_reference_on_tied_pairs(by_label, driver_calls):
    # 4000 reaches past the first hit of each isomorphic pair (3587-3625)
    # and, at n = 2, into stages 2 and 3
    for pair in TIED_GROUPS:
        for a, b in (pair, pair[::-1]):
            search_witness(by_label[a].system, by_label[b].system, 4000)
    assert sum(got[1] is not None for _, got in driver_calls) == 6
    assert any(args[3] > 0 for args, _ in driver_calls)


def test_kernel_matches_reference_past_the_first_stage(by_label, driver_calls):
    # an n = 3 miss that exhausts stage 1 (11,808 invertible candidates),
    # an n = 2 hit in stage 2 and an n = 2 miss that runs out in stage 3
    search_witness(by_label["split-3"].system, by_label["split-4"].system, 12500)
    a = by_label["dim2-1"].system
    search_witness(a, transform(a, Matrix.from_rows([[2, 1], [1, 1]])), 25000)
    search_witness(by_label["dim2-2"].system, by_label["dim2-3"].system, 2500)
    assert [args[3] for args, _ in driver_calls] == [0, 3, 0, 3, 0, 3, 7]
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
    hits = [args for args, (_, digits) in driver_calls if digits is not None]
    assert len(hits) == 6
    assert_budgets_around_hits(hits, random.Random(7))


def test_kernel_stage_with_new_start(by_label):
    # stage 1 alone: the first automorphism of dim2-1 over {0, 1, -1}
    sa, sb, m_lhs, m_rhs = kernel_args(by_label["dim2-1"].system, by_label["dim2-1"].system)
    assert assert_same(sa, sb, [0, 1, -1], 0, 10**6, m_lhs, m_rhs)[1] is not None
    # stage 2 alone, with tuples over the stage-1 values excluded, scaled by 2
    vals = [0, 2, -2, 4, -4, 1, -1]
    for a, b, budget in (("dim3-III+", "dim3-IV+", 3000), ("split-5", "split-6", 3000), ("dim2-1", "dim2-1", 10**6)):
        sa, sb, m_lhs, m_rhs = kernel_args(by_label[a].system, by_label[b].system)
        assert_same(sa, sb, vals, 3, budget, m_lhs, m_rhs * 4)
    # a whole 3-dim stage whose only new value is 2: subtrees cut under
    # prefixes of old values count only the completions holding a 2
    sa, sb, m_lhs, m_rhs = kernel_args(by_label["split-3"].system, by_label["split-4"].system)
    assert_same(sa, sb, [0, 1, 2], 2, 10**6, m_lhs, m_rhs)


def test_kernel_dimension_one():
    # the zero table, and a literal table whose one cell (e_0, e_0, e_0) is 5·e_0
    zero = TripleSystem.abelian(1)._integer[1]
    for sb in (zero, (((((0, 5),),),),)):
        for vals, new_start in (([0, 1, -1], 0), ([0, 2, -2, 4, -4, 1, -1], 3)):
            for budget in (1, 2, 10):
                assert_same(zero, sb, vals, new_start, budget, 1, 1)


def test_kernel_dimension_four():
    # entries in {0, 1}: 2^16 candidate tuples, 22,560 of them invertible
    a = sphere_system(4)
    b = transform(a, Matrix.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 0]]))
    sa, sb, m_lhs, m_rhs = kernel_args(a, b)
    tested, digits = assert_same(sa, sb, [0, 1], 0, 10**6, m_lhs, m_rhs)
    assert digits is not None
    assert_same(sa, sb, [0, 1], 0, tested - 1, m_lhs, m_rhs)
    sa, sb, m_lhs, m_rhs = kernel_args(a, TripleSystem.abelian(4))
    assert assert_same(sa, sb, [0, 1], 0, 10**6, m_lhs, m_rhs) == (22560, None)


@pytest.fixture
def last_row_solves(monkeypatch):
    """Record each solve of the last row: the reduced system of its linear
    equations ({} when they constrain nothing, None when they have no
    solution) and, for a solution set, its grid points."""
    record = {"systems": [], "points": []}
    read, grid = wpy._last_row_system, wpy._grid_points

    def system(n, *args):
        got = read(n, *args)
        if got is not None:
            record["systems"].append(reduced(got, n))
        return got

    def points(*args):
        record["points"].append(grid(*args))
        return record["points"][-1]

    monkeypatch.setattr(wpy, "_last_row_system", system)
    monkeypatch.setattr(wpy, "_grid_points", points)
    return record


def test_last_row_solve_budgets_around_2dim_hits(by_label, driver_calls, last_row_solves):
    """2-dim hits in stage 2, where the hit's rank among the last rows is
    counted rather than scanned; under three of them the first row holds
    only stage-1 values, so the rank leaves out the last rows without a
    stage-2 value."""
    rng = random.Random(2)
    values = (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))
    for label in ("dim2-1", "dim2-2", "dim2-3", "dim2-4a", "dim2-4b"):
        t = by_label[label].system
        while True:
            T = Matrix.from_rows([[rng.choice(values) for _ in range(2)] for _ in range(2)])
            if Echelon(2, T.entries).rank == 2:
                break
        assert search_witness(t, transform(t, T), 20000) is not None, label
    hits = [args for args, (_, digits) in driver_calls if digits is not None]
    assert len(hits) == 5 and all(args[3] == 3 for args in hits)
    old_prefix = [got for args, got in driver_calls if got[1] is not None and max(got[1][:2]) < args[3]]
    assert len(old_prefix) == 3
    # every last row was solved, none scanned
    assert last_row_solves["systems"] and {} not in last_row_solves["systems"]
    assert_budgets_around_hits(hits, rng)


def test_last_row_solve_2dim_misses_across_stages(by_label, driver_calls, last_row_solves):
    """An n = 2 miss whose last rows are solved, each to one point or none,
    through stages 1 to 3 and into stage 4."""
    assert search_witness(by_label["dim2-2"].system, by_label["dim2-3"].system, 50000) is None
    assert [(args[3], got) for args, got in driver_calls] == [
        (0, (48, None)),
        (3, (2032, None)),
        (7, (46304, None)),
        (15, (1616, None)),
    ]
    assert last_row_solves["systems"] and all(len(p) == 2 for p in last_row_solves["systems"])


def test_last_row_solve_on_lines(by_label, driver_calls, last_row_solves):
    """Solution sets that are lines: a miss whose lines hold points of every
    stage and no hit, and, from a seeded scan of basis changes of dim2-1,
    a hit that is not the first point of its line."""
    assert search_witness(by_label["dim2-3"].system, by_label["dim2-2"].system, 2500) is None
    # one line per stage, each holding all 3, 7 and 15 values of its stage;
    # the prefixes that mirror these three are not solved again
    assert sum(p is not None and len(p) == 1 for p in last_row_solves["systems"]) == 3
    solved = [p for p in last_row_solves["systems"] if p]
    lines = [q for p, q in zip(solved, last_row_solves["points"]) if len(p) == 1]
    assert [len(q) for q in lines] == [3, 7, 15]
    assert all(last_row_solves["points"])
    rng = random.Random(2)
    values = (0, 1, -1, 2, -2, Fraction(1, 2))
    t = by_label["dim2-1"].system
    for _ in range(20):
        T = Matrix.from_rows([[rng.choice(values) for _ in range(2)] for _ in range(2)])
        if Echelon(2, T.entries).rank < 2:
            continue
        del driver_calls[:], last_row_solves["systems"][:], last_row_solves["points"][:]
        search_witness(t, transform(t, T), 5000)
        (_, digits), points = driver_calls[-1][1], last_row_solves["points"][-1]
        assert digits is not None
        if len(last_row_solves["systems"][-1]) == 1 and [d for d, _ in points].index(digits[2:]) > 0:
            break
    else:
        pytest.fail("no hit after the first point of a line")
    assert_budgets_around_hits([driver_calls[-1][0]], rng)


def test_last_row_scan_without_a_pivot(by_label, last_row_solves):
    """Against the abelian target the linear equations of some prefixes
    constrain nothing, and the last row is scanned: a hit at the first
    invertible candidate for an abelian source, and misses for dim2-4a
    and dim3-II, where a miss with no pivot counts its last rows as a cut
    does."""
    sources = (TripleSystem.abelian(2), TripleSystem.abelian(3), by_label["dim2-4a"].system, by_label["dim3-II"].system)
    for source in sources:
        sa, sb, m_lhs, m_rhs = kernel_args(source, TripleSystem.abelian(source.dim))
        n, a_entries, b_flat = ref.flat(sa, sb)
        # the whole of a 3-dim stage 2 is 7**9 tuples for the reference
        stages = [([0, 1, -1], 0)] + [([0, 2, -2, 4, -4, 1, -1], 3)] * (n == 2)
        for vals, new_start in stages:
            tested, digits = ref.stage_search(n, a_entries, b_flat, vals, new_start, 10**6, m_lhs, m_rhs)
            for budget in {1, 2, tested - 1, tested, tested + 1} - {0}:
                assert_same(sa, sb, vals, new_start, budget, m_lhs, m_rhs)
            assert (digits is None) == bool(a_entries)
    assert {} in last_row_solves["systems"]


@pytest.fixture
def direct_systems(monkeypatch):
    """Check each last-row system the kernel reads off its placed rows
    against ``witness_reference.last_row_system``, which evaluates the
    equations at 0 and at each unit vector: both reduce to the same echelon
    rows, or neither has a solution.  The checked systems are recorded
    here as (read, reduced)."""
    checked = []
    read = wpy._last_row_system

    def compared(n, linear, pairs, rows, m_lhs, m_rhs):
        got = read(n, linear, pairs, rows, m_lhs, m_rhs)
        want = reduced(ref.last_row_system(n, linear, pairs, rows, m_lhs, m_rhs), n)
        assert (None if got is None else reduced(got, n)) == want, (n, rows[: n - 1])
        checked.append((got, want))
        return got

    monkeypatch.setattr(wpy, "_last_row_system", compared)
    return checked


def test_last_row_system_read_off_the_placed_rows(by_label, direct_systems):
    """On every live prefix of the tied pairs, of the 4-dim cases, of
    searches for dim3-V+ and for the abelian 3-dim system, and of seeded
    changes of the 6-sphere, the system read off the placed rows reduces as
    the evaluated one does.  Against dim3-V+ some read system has a row
    without a coefficient and a nonzero constant, so no solution; between
    abelian systems the system is empty."""
    for pair in TIED_GROUPS:
        for a, b in (pair, pair[::-1]):
            search_witness(by_label[a].system, by_label[b].system, 4000)
    a = sphere_system(4)
    for b in (transform(a, Matrix.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 0]])), TripleSystem.abelian(4)):
        sa, sb, m_lhs, m_rhs = kernel_args(a, b)
        wpy.stage_search(sa, sb, [0, 1], 0, 10**6, m_lhs, m_rhs)
    v, abelian = by_label["dim3-V+"].system, TripleSystem.abelian(3)
    for a, b in ((v, v), (abelian, v), (abelian, abelian)):
        sa, sb, m_lhs, m_rhs = kernel_args(a, b)
        wpy.stage_search(sa, sb, [0, 1, -1], 0, 10**6, m_lhs, m_rhs)
    # rows e6, e5, e4, e3, then two seeded rows: a hit after a few thousand
    # candidates, its prefix live
    rng = random.Random(6)
    a = sphere_system(6)
    hits = 0
    for _ in range(4):
        T = Matrix.from_rows([[0] * (5 - r) + [1] + [rng.choice((0, 1, -1)) * (r >= 4) for _ in range(r)] for r in range(6)])
        hits += search_witness(a, transform(a, T), 20000) is not None
    assert hits >= 2
    ranks = {None if got is None else len(want) for got, want in direct_systems}
    assert {None, 0, 1, 2, 3, 5} <= ranks


def clear_grid_caches():
    """Empty both caches of the grid geometry."""
    wpy._orthogonal.cache_clear()
    wpy._last_count.cache_clear()


def test_grid_memo_cold_and_warm_agree(by_label, monkeypatch):
    """Every stage of the tied pairs, and two reorderings of the stage-1
    values, gives the same (tested, digits) from empty caches of the grid
    geometry as from the caches those searches filled; the warm tied
    searches compute no orthogonal basis."""
    stages = []
    kernel = wpy.stage_search
    monkeypatch.setattr(wpy, "stage_search", lambda *args: stages.append(args) or kernel(*args))
    clear_grid_caches()
    for pair in TIED_GROUPS:
        for a, b in (pair, pair[::-1]):
            search_witness(by_label[a].system, by_label[b].system, 20000)
    # the same values in other orders: the bases are keyed by value rows
    sa, sb, m_lhs, m_rhs = kernel_args(by_label["split-1b"].system, by_label["split-1c"].system)
    stages += [(sa, sb, vals, 0, 20000, m_lhs, m_rhs) for vals in ([0, -1, 1], [1, -1, 0])]
    misses = wpy._orthogonal.cache_info().misses
    warm = [kernel(*args) for args in stages[:-2]]
    assert wpy._orthogonal.cache_info().misses == misses
    warm += [kernel(*args) for args in stages[-2:]]
    for args, got in zip(stages, warm):
        clear_grid_caches()
        assert kernel(*args) == got, (len(args[0]), args[2:5])


def test_grid_memo_stays_within_its_limit(by_label):
    """The changed 12-sphere search at 20000 meets more geometry than the
    caches keep (44,304 rows tested for independence); the caches fill to
    their limit and no further, and the search still misses.  The
    split-1b/split-1c miss after it keeps its geometry: run again, it
    computes no orthogonal basis."""
    clear_grid_caches()
    a = sphere_system(12)
    assert search_witness(a, transform(a, random_invertible(random.Random(1), 12, -1, 1, (1,))), 20000) is None
    info = wpy._orthogonal.cache_info()
    assert info.misses > info.maxsize == info.currsize
    assert wpy._last_count.cache_info().currsize <= wpy._last_count.cache_info().maxsize
    split = by_label["split-1b"].system, by_label["split-1c"].system
    assert search_witness(*split, 20000) is None
    misses = wpy._orthogonal.cache_info().misses
    assert search_witness(*split, 20000) is None
    assert wpy._orthogonal.cache_info().misses == misses


def mirror_depths(sb):
    """The kernel's depths with a sign change fixing the target b."""
    return wpy._mirror_depths(wpy._equations_by_row(sb))


def sign_change_depths(t):
    """For each d, whether some sign change diag(s) with transform(t,
    diag(s)) == t has its first -1 at d, by a scan of all of {1, -1}^n."""
    n = t.dim
    firsts = set()
    for s in product((1, -1), repeat=n):
        S = Matrix.from_rows([[s[r] if r == c else 0 for c in range(n)] for r in range(n)], n)
        if -1 in s and transform(t, S).c == t.c:
            firsts.add(s.index(-1))
    return [d in firsts for d in range(n)]


def negative_leading(row):
    return next((x for x in row if x), 0) < 0


def test_mirror_depths_match_a_scan_of_sign_changes(by_label):
    """The kernel's mirrored depths equal a scan of every sign change on
    the catalog, the spheres k <= 6, seeded basis changes (which keep
    from none to all of the depths beyond 0) and sums with a line."""
    rng = random.Random(14)
    line = TripleSystem.abelian(1)
    catalog = [e.system for e in by_label.values()]
    spheres = [sphere_system(k) for k in range(1, 7)]
    changed = [transform(t, random_invertible(rng, t.dim)) for t in catalog + spheres[:4]]
    sums = [direct_sum(line, t) for t in catalog] + [direct_sum(t, line) for t in catalog]
    for t in catalog + spheres + changed + sums:
        got = mirror_depths(t._integer[1])
        assert got == sign_change_depths(t), t.dim
        assert got[0]  # -I fixes every b
    got = {label: mirror_depths(e.system._integer[1]) for label, e in by_label.items()}
    assert sum(all(m) for m in got.values()) == 15
    assert [label for label, m in got.items() if not m[1]] == ["dim3-II", "dim3-VI"]
    assert [label for label, m in got.items() if m[1:] == [True, False]] == [
        "dim3-IV+", "dim3-IV-", "dim3-V+", "dim3-V-", "split-5", "split-6"
    ]


def test_mirror_budgets_inside_skipped_subtrees(by_label):
    """split-1b against split-1c in stage 1 is a miss, and a sign change
    fixing split-1c starts at every depth.  Under the first row (0, 0, 1)
    each depth-1 row (0, 1, x) leaves the 18 last rows with a nonzero
    first entry, so candidates 55-72 lie under (0, -1, 0), whose subtree
    is counted from that of (0, 1, 0) instead of searched; and (0, 0, 1)
    has 48 * 9 = 432 invertible completions, so candidates 433-864 lie
    under (0, 0, -1), counted from the subtree of (0, 0, 1)."""
    sa, sb, m_lhs, m_rhs = kernel_args(by_label["split-1b"].system, by_label["split-1c"].system)
    assert mirror_depths(sb) == [True] * 3
    rng = random.Random(55)
    budgets = list(range(1, 73)) + [433, 434, 863, 864, 865, 10**6]
    for budget in budgets + [rng.randint(435, 862) for _ in range(3)]:
        assert_same(sa, sb, [0, 1, -1], 0, budget, m_lhs, m_rhs)


def hit_under_unmirrored_negative_row(rng, sources, vals, first_rows, tuples):
    """Kernel arguments for a seeded basis change T of a source, its rows
    first_rows and then rows over vals: the first whose search over vals
    hits within the first ``tuples`` digit tuples, with a negative-leading
    row at a depth d < n - 1 where no sign change fixing the target
    starts.  Its hit lies in a subtree that mirroring at d would skip."""
    for _ in range(500):
        a = rng.choice(sources)
        n = a.dim
        rows = first_rows + [[rng.choice(vals) for _ in range(n)] for _ in range(n - len(first_rows))]
        T = Matrix.from_rows(rows, n)
        if Echelon(n, T.entries).rank < n:
            continue
        sa, sb, m_lhs, m_rhs = kernel_args(a, transform(a, T))
        args = (sa, sb, vals, 0, 10**6, m_lhs, m_rhs)
        _, digits = wpy.stage_search(*args)
        index = 0
        for d in digits:
            index = index * len(vals) + d
        hit = [[vals[d] for d in digits[r * n : r * n + n]] for r in range(n)]
        mirrored = mirror_depths(sb)
        if index < tuples and any(negative_leading(hit[d]) and not mirrored[d] for d in range(n - 1)):
            return args
    pytest.fail("no hit under a negative-leading row without a sign change")


def test_mirror_hit_under_a_negative_row_without_symmetry(by_label):
    """Hits whose row at a depth without a sign change fixing the target is
    negative-leading, from seeded basis changes.  At n = 4 the values are
    ordered 1, -1, 0: every invertible candidate over 0, 1, -1 follows the
    3**12 tuples whose first row is zero, too many for the odometer, while
    here the first row (1, 1, 1, 1) comes first."""
    rng = random.Random(3)
    sources = [e.system for e in by_label.values() if e.system.dim == 3]
    args = hit_under_unmirrored_negative_row(rng, sources, [0, 1, -1], [], 3**9)
    assert_budgets_around_hits([args], rng)
    line = TripleSystem.abelian(1)
    sources = [sphere_system(4)] + [direct_sum(t, line) for t in sources] + [direct_sum(line, t) for t in sources]
    args = hit_under_unmirrored_negative_row(rng, sources, [1, -1, 0], [[1, 1, 1, 1], [1, 1, 1, -1]], 10**4)
    tested, digits = assert_same(*args)
    # the odometer gives (budget, None) below its hit
    for budget in (tested - 1, rng.randint(1, tested - 2)):
        assert wpy.stage_search(*args[:4], budget, *args[5:]) == (budget, None)


def test_mirror_four_dim_target_with_inner_symmetries(by_label):
    """A sign change fixing the line plus split-1b starts at every depth.
    From dim3-II plus the line, over values ordered 1, -1, 0, the search
    places (1, 1, 1, 1) and (1, 1, 1, -1), and the first depth-2 row it
    mirrors, (-1, 1, 1, 1), holds candidates 1369-1422."""
    line = TripleSystem.abelian(1)
    a = direct_sum(by_label["dim3-II"].system, line)
    b = direct_sum(line, by_label["split-1b"].system)
    sa, sb, m_lhs, m_rhs = kernel_args(a, b)
    assert mirror_depths(sb) == [True] * 4
    for budget in (1369, random.Random(4).randint(1370, 1421), 1422, 1423):
        assert_same(sa, sb, [1, -1, 0], 0, budget, m_lhs, m_rhs)


def fails_at_last_row(sa, sb, m_lhs, m_rhs, rows):
    """Whether an equation filed under the last of ``rows`` fails on them."""
    n, a_entries, _ = ref.flat(sa, sb)
    for i, j, k, brow in wpy._equations_by_row(sb)[len(rows) - 1]:
        lhs = [0] * n
        for a, b, c, l, val in a_entries:
            lhs[l] += (rows[i][a] * rows[j][b] - rows[i][b] * rows[j][a]) * rows[k][c] * val
        if any(lhs[l] * m_lhs != m_rhs * sum(bv * rows[d][l] for d, bv in brow) for l in range(n)):
            return True
    return False


def test_mirror_inside_a_counted_subtree():
    """Below a prefix that fails an equation, a negative-leading row is
    counted from its negation at any depth, though no sign change fixing
    the target starts there.  Against a change of the 4-sphere (its last
    two rows drawn with seed 1) only -I fixes the target.  Over values
    ordered 1, -1, 0, an equation filed under row 1 fails at (1, 1, 1, 1),
    (1, 1, 1, -1); below it the depth-2 rows (-1, 1, 1, 1) and
    (-1, 1, 1, -1) hold candidates 1369-1422 and 1423-1476, counted from
    (1, -1, -1, -1) and (1, -1, -1, 1), and 34 more depth-2 rows are
    counted from their mirrors before the hit, candidate 6682, under
    (1, 1, 1, 1), (1, 1, 1, 0)."""
    a = sphere_system(4)
    T = Matrix.from_rows([[1, 1, 1, 1], [1, 1, 1, 0], [0, -1, 0, 1], [0, 1, 1, 1]])
    sa, sb, m_lhs, m_rhs = kernel_args(a, transform(a, T))
    assert mirror_depths(sb) == [True, False, False, False]
    assert fails_at_last_row(sa, sb, m_lhs, m_rhs, [(1, 1, 1, 1), (1, 1, 1, -1)])
    rng = random.Random(0)
    budgets = [1368, 1369, rng.randint(1370, 1421), 1422, 1423, rng.randint(1424, 1475), 1476, 1477, 6681, 10**6]
    for budget in budgets:
        got = assert_same(sa, sb, [1, -1, 0], 0, budget, m_lhs, m_rhs)
    assert got[0] == 6682 and got[1][4:8] == (0, 0, 0, 2)


def test_mirror_needs_sign_paired_values(by_label):
    """Negating a row maps the stage onto itself only when every -v is a
    value on the same side of new_start as v, and after v > 0: with -1
    before 1, or with 1 old and -1 new, no subtree is mirrored."""
    sa, sb, m_lhs, m_rhs = kernel_args(by_label["split-1b"].system, by_label["split-1c"].system)
    for vals, new_start in (([0, -1, 1], 0), ([0, 1, -1], 2)):
        assert_same(sa, sb, vals, new_start, 10**6, m_lhs, m_rhs)


def test_mirror_work_guard(by_label):
    """The split-1b/split-1c miss at the default budget, from empty caches
    of the grid geometry, computes 213 orthogonal bases; searching the
    mirrored subtrees too, it computes 762."""
    clear_grid_caches()
    assert search_witness(by_label["split-1b"].system, by_label["split-1c"].system, 20000) is None
    assert wpy._orthogonal.cache_info().misses <= 300


def test_counted_subtree_work_guard():
    """A miss against a seeded {0, ±1} change of the 6-sphere at budget
    10**6 counts nearly every candidate in cut subtrees; from empty caches
    of the grid geometry, mirroring inside them, it computes 395 orthogonal
    bases, and 776 without."""
    clear_grid_caches()
    a = sphere_system(6)
    assert search_witness(a, transform(a, random_invertible(random.Random(1), 6, -1, 1, (1,))), 10**6) is None
    assert wpy._orthogonal.cache_info().misses <= 450


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
