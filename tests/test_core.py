import collections
import itertools
import random
import re
from fractions import Fraction

import pytest

from lietriple.core import (
    InvalidLTS,
    NotAnIdeal,
    TripleSystem,
    check_axioms,
    derived_series,
    derived_subspace,
    direct_sum,
    is_ideal,
    is_subsystem,
    lts_center,
    quotient,
    transform,
    triple_product,
)
from lietriple.exactla import (
    Matrix,
    SingularMatrix,
    full_subspace,
    span,
    unit_vec,
)
import invariants_reference as ref
import transform_reference
from util import random_invertible, random_rational, sphere_system, zero_subspace

E1, E2 = (1, 0), (0, 1)


def test_construction_rejects_nonalternating_tensor():
    with pytest.raises(InvalidLTS):
        TripleSystem(1, ((((Fraction(1),),),),))


def test_tensor_rejections_keep_their_messages():
    zero = (Fraction(0),) * 2
    one = (Fraction(1), Fraction(0))
    minus = (Fraction(-1), Fraction(0))

    def tensor(products):
        return tuple(
            tuple(tuple(products.get((i, j, k), zero) for k in range(2)) for j in range(2))
            for i in range(2)
        )

    assert TripleSystem(2, tensor({(0, 1, 0): one, (1, 0, 0): minus})).c[0][1][0] == one
    with pytest.raises(ValueError, match="tensor shape does not match dimension"):
        TripleSystem(2, tensor({})[:1])
    for products, message in (
        ({(0, 0, 1): one}, "(e1,e1,e2) must vanish"),
        ({(1, 1, 0): one}, "(e2,e2,e1) must vanish"),
        # for each i, the (e_i,e_i,e_k) come before the antisymmetry at (i, j, k)
        ({(0, 0, 1): one, (0, 1, 0): one}, "(e1,e1,e2) must vanish"),
        ({(1, 1, 0): one, (0, 1, 0): one}, "antisymmetric in the first two slots at (1,2,1)"),
    ):
        with pytest.raises(InvalidLTS, match=re.escape(message)):
            TripleSystem(2, tensor(products))
    # only one side nonzero, either side, and both nonzero but equal
    message = re.escape("tensor not antisymmetric in the first two slots at (1,2,2)")
    for products in ({(0, 1, 1): one}, {(1, 0, 1): one}, {(0, 1, 1): one, (1, 0, 1): one}):
        with pytest.raises(InvalidLTS, match=message):
            TripleSystem(2, tensor(products))


def test_from_entries_fills_antisymmetric_half():
    t = TripleSystem.from_entries(2, {(0, 1, 0): (0, 1)})
    assert t.c[1][0][0] == (Fraction(0), Fraction(-1))


def test_triple_product_spherical_example(by_label):
    t = by_label["dim2-1"].system
    assert triple_product(t, E1, E2, E1) == (Fraction(0), Fraction(1))  # (e1,e2,e1) = e2
    assert triple_product(t, E1, E2, E2) == (Fraction(-1), Fraction(0))  # (e1,e2,e2) = -e1


def test_triple_product_alternates_in_first_two_slots(entries):
    rng = random.Random(3)
    for e in entries:
        n = e.system.dim
        x = tuple(random_rational(rng) for _ in range(n))
        y = tuple(random_rational(rng) for _ in range(n))
        assert triple_product(e.system, x, x, y) == (Fraction(0),) * n


def test_triple_product_type_ii_operator_column(by_label):
    t = by_label["dim3-II"].system
    e2, e3 = (0, 1, 0), (0, 0, 1)
    assert triple_product(t, e2, e3, e3) == (Fraction(1), Fraction(0), Fraction(0))


def test_triple_product_is_trilinear(by_label):
    t = by_label["split-5"].system
    rng = random.Random(5)
    x = tuple(random_rational(rng) for _ in range(3))
    y = tuple(random_rational(rng) for _ in range(3))
    z = tuple(random_rational(rng) for _ in range(3))
    q = Fraction(7, 3)
    base = triple_product(t, x, y, z)
    scaled = triple_product(t, tuple(q * c for c in x), y, z)
    assert scaled == tuple(q * c for c in base)


def test_triple_product_dimension_mismatch(by_label):
    with pytest.raises(ValueError):
        triple_product(by_label["dim2-1"].system, (1, 0, 0), (0, 1), (0, 1))


def test_check_axioms_zero_tensor():
    assert check_axioms(TripleSystem.abelian(4)).ok


def test_check_axioms_all_catalog_entries(entries):
    for e in entries:
        assert check_axioms(e.system).ok, e.label


def test_check_axioms_reports_first_cyclic_violation():
    t = TripleSystem.from_entries(3, {(0, 1, 2): (1, 0, 0)})
    verdict = check_axioms(t)
    assert not verdict.ok
    assert verdict.kind == "cyclic"
    assert verdict.indices == (1, 2, 3)
    assert verdict.residual == (Fraction(1), Fraction(0), Fraction(0))


def reference_check_axioms(t):
    """(kind, indices, residual) of the first violation over every basis
    instance, x >= y included, in lexicographic order: cyclic triples, then
    derivation 5-tuples; (None, None, None) when both identities hold."""
    n = t.dim
    e = [unit_vec(n, i) for i in range(n)]

    def p(x, y, z):
        return triple_product(t, x, y, z)

    def add(*vs):
        return tuple(sum(c) for c in zip(*vs))

    for x, y, z in itertools.product(range(n), repeat=3):
        r = add(p(e[x], e[y], e[z]), p(e[y], e[z], e[x]), p(e[z], e[x], e[y]))
        if any(r):
            return "cyclic", (x + 1, y + 1, z + 1), r
    for x, y, u, v, w in itertools.product(range(n), repeat=5):
        def D(z):
            return p(e[x], e[y], z)

        lhs = D(p(e[u], e[v], e[w]))
        rhs = add(p(D(e[u]), e[v], e[w]), p(e[u], D(e[v]), e[w]), p(e[u], e[v], D(e[w])))
        r = tuple(a - b for a, b in zip(lhs, rhs))
        if any(r):
            return "derivation", (x + 1, y + 1, u + 1, v + 1, w + 1), r
    return None, None, None


def perturbed(t, rng):
    """t with one seeded rational added to one structure constant."""
    n = t.dim
    entries = {
        (i, j, k): t.c[i][j][k]
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(n)
        if any(t.c[i][j][k])
    }
    i, j = sorted(rng.sample(range(n), 2))
    k, l = rng.randrange(n), rng.randrange(n)
    v = list(entries.get((i, j, k), (Fraction(0),) * n))
    v[l] += Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
    entries[(i, j, k)] = tuple(v)
    return TripleSystem.from_entries(n, entries)


def test_check_axioms_matches_reference_scan(entries):
    rng = random.Random(41)
    bases = [e.system for e in entries]
    bases += [transform(t, random_invertible(rng, t.dim)) for t in bases]
    bases += [sphere_system(k) for k in (2, 3, 4)]
    systems = bases + [perturbed(t, rng) for t in bases for _ in range(3)]
    kinds = set()
    for t in systems:
        verdict = check_axioms(t)
        expected = reference_check_axioms(t)
        assert (verdict.kind, verdict.indices, verdict.residual) == expected
        assert verdict.ok == (expected[0] is None)
        kinds.add(verdict.kind)
    assert kinds == {None, "cyclic", "derivation"}


def cyclic_blind_perturbed(t, rng):
    """t with one seeded rational added where the cyclic identity cannot see
    it: to a coordinate of a product (e_i, e_j, e_i) or (e_i, e_j, e_j), or,
    given k > j, to one of (e_i, e_j, e_k) and subtracted from the same
    coordinate of (e_j, e_k, e_i).  The derivation scan decides these."""
    n = t.dim
    entries = {
        (i, j, k): list(t.c[i][j][k])
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(n)
        if any(t.c[i][j][k])
    }
    i, j = sorted(rng.sample(range(n), 2))
    l = rng.randrange(n)
    q = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
    if j + 1 < n and rng.random() < 0.5:
        k = rng.randrange(j + 1, n)
        changes = (((i, j, k), q), ((j, k, i), -q))
    else:
        changes = (((i, j, rng.choice((i, j))), q),)
    for key, x in changes:
        entries.setdefault(key, [Fraction(0)] * n)[l] += x
    return TripleSystem.from_entries(n, {key: tuple(v) for key, v in entries.items()})


def test_check_axioms_scans_one_instance_per_class(entries):
    """The scan over i < j < k and u < v reports what the scan over all n^3
    and n^5 instances reports, on seeded perturbations of the catalog, of
    4- to 6-dim direct sums and of spheres."""
    rng = random.Random(1616)
    catalog_systems = [e.system for e in entries]
    two = [t for t in catalog_systems if t.dim == 2]
    three = [t for t in catalog_systems if t.dim == 3]
    sums = [direct_sum(*rng.sample(two, 2)) for _ in range(2)]
    sums += [direct_sum(rng.choice(two), rng.choice(three)) for _ in range(2)]
    sums += [direct_sum(*rng.sample(three, 2)) for _ in range(2)]
    bases = catalog_systems + sums + [sphere_system(k) for k in (4, 5, 6)]
    systems = list(bases)
    for t in bases:
        for _ in range(8):
            for change in (perturbed, cyclic_blind_perturbed):
                s = change(t, rng)
                if s.dim <= 3 and rng.random() < 0.5:
                    s = transform(s, random_invertible(rng, s.dim))
                systems.append(s)
    kinds = collections.Counter()
    for t in systems:
        verdict = check_axioms(t)
        assert verdict == ref.check_axioms(t)
        kinds[verdict.kind] += 1
    assert len(systems) - len(bases) >= 500
    assert min(kinds[kind] for kind in (None, "cyclic", "derivation")) >= 50, kinds


def test_is_ideal_trivial_cases(by_label):
    t = by_label["dim3-II"].system
    assert is_ideal(t, full_subspace(3))
    assert is_ideal(t, zero_subspace(3))


def test_is_ideal_derived_line_of_split_entries(by_label):
    for label in ("split-2", "split-3", "split-4", "split-5", "split-6"):
        t = by_label[label].system
        assert is_ideal(t, span([(1, 0, 0)], 3)), label
        assert not is_ideal(t, span([(0, 1, 0)], 3)), label


def test_is_subsystem(by_label):
    abelian = TripleSystem.abelian(3)
    assert is_subsystem(abelian, span([(1, 1, 0)], 3))
    t2 = by_label["split-2"].system
    assert is_subsystem(t2, span([(0, 1, 0), (0, 0, 1)], 3))
    sphere = by_label["dim2-1"].system
    assert is_subsystem(sphere, span([(1, 0)], 2))
    assert not is_ideal(sphere, span([(1, 0)], 2))


def test_derived_subspace_examples(by_label):
    t = by_label["dim2-4a"].system
    d1 = derived_subspace(t, full_subspace(2))
    assert d1 == span([(0, 1)], 2)
    assert derived_subspace(t, d1) == zero_subspace(2)


def test_derived_series_abelian():
    series = derived_series(TripleSystem.abelian(3), full_subspace(3))
    assert series.dims == (3, 0)
    assert series.solvable
    assert series.depth == 1


def test_derived_series_of_a_zero_ideal_ends_at_it(by_label):
    for t in (TripleSystem.abelian(0), by_label["dim2-1"].system):
        series = derived_series(t, zero_subspace(t.dim))
        assert series.dims == (0,)
        assert series.solvable
        assert series.depth == 0


def test_derived_series_two_steps(by_label):
    series = derived_series(by_label["dim2-4a"].system, full_subspace(2))
    assert series.dims == (2, 1, 0)
    assert series.solvable


def test_derived_series_not_solvable(by_label):
    series = derived_series(by_label["dim2-1"].system, full_subspace(2))
    assert series.dims == (2, 2)
    assert not series.solvable


def test_derived_series_requires_ideal(by_label):
    with pytest.raises(NotAnIdeal):
        derived_series(by_label["dim2-1"].system, span([(1, 0)], 2))


def test_derived_series_terms_are_ideals(entries):
    for e in entries:
        series = derived_series(e.system, full_subspace(e.system.dim))
        for term in series.terms:
            assert is_ideal(e.system, term), e.label


def test_sum_of_solvable_ideals_is_solvable(by_label):
    # the coordinate lines of the abelian system, and radical lines of splits
    t = by_label["split-2"].system
    line = span([(1, 0, 0)], 3)
    assert derived_series(t, line).solvable
    ab = TripleSystem.abelian(3)
    a = span([(1, 0, 0)], 3)
    b = span([(0, 1, 1)], 3)
    from lietriple.exactla import subspace_sum

    assert derived_series(ab, subspace_sum(a, b)).solvable


def test_lts_center_examples(by_label):
    assert lts_center(TripleSystem.abelian(3)) == full_subspace(3)
    assert lts_center(by_label["dim3-II"].system) == span([(1, 0, 0)], 3)
    assert lts_center(by_label["dim2-1"].system) == zero_subspace(2)


def test_quotient_by_zero_is_identity_relabeling(by_label):
    t = by_label["dim3-VI"].system
    q = quotient(t, zero_subspace(3))
    assert q.c == t.c


def test_quotient_collapses_products(by_label):
    t = by_label["dim2-4a"].system
    q = quotient(t, span([(0, 1)], 2))
    assert q.dim == 1
    assert check_axioms(q).ok
    assert q.c == TripleSystem.abelian(1).c

    t2 = by_label["dim3-II"].system
    q2 = quotient(t2, span([(1, 0, 0)], 3))
    assert q2.dim == 2
    assert q2.c == TripleSystem.abelian(2).c


def test_quotient_requires_ideal(by_label):
    with pytest.raises(NotAnIdeal):
        quotient(by_label["dim2-1"].system, span([(1, 0)], 2))


def test_quotient_passes_axioms_for_all_series_ideals(entries):
    for e in entries:
        series = derived_series(e.system, full_subspace(e.system.dim))
        for term in series.terms:
            assert check_axioms(quotient(e.system, term)).ok, e.label


def test_direct_sum_blocks(by_label):
    a = by_label["dim2-4a"].system
    s = direct_sum(a, TripleSystem.abelian(1))
    assert s.dim == 3
    assert check_axioms(s).ok
    assert triple_product(s, (1, 0, 0), (0, 1, 0), (1, 0, 0)) == (
        Fraction(0),
        Fraction(1),
        Fraction(0),
    )
    # cross products vanish
    assert triple_product(s, (1, 0, 0), (0, 0, 1), (0, 1, 0)) == (Fraction(0),) * 3


def test_direct_sum_preserves_solvability(by_label):
    solvable = direct_sum(by_label["dim2-4a"].system, TripleSystem.abelian(1))
    assert derived_series(solvable, full_subspace(3)).solvable
    mixed = direct_sum(by_label["dim2-1"].system, TripleSystem.abelian(1))
    assert not derived_series(mixed, full_subspace(3)).solvable


def test_transform_identity(by_label):
    t = by_label["split-3"].system
    assert transform(t, Matrix.identity(3)).c == t.c


def test_transform_sign_flip_cancels(by_label):
    t = by_label["dim2-4a"].system
    flipped = transform(t, Matrix.from_rows([[1, 0], [0, -1]]))
    assert flipped.c == t.c


def test_transform_scaling(by_label):
    t = by_label["dim2-4a"].system
    scaled = transform(t, Matrix.from_rows([[2, 0], [0, 1]]))
    # (2e1, e2, 2e1) = 4e2; expressed in the new basis still 4e2
    assert scaled.c[0][1][0] == (Fraction(0), Fraction(4))


def test_transform_requires_invertible(by_label):
    with pytest.raises(SingularMatrix):
        transform(by_label["dim2-1"].system, Matrix.from_rows([[1, 1], [1, 1]]))


def test_transform_preserves_axioms(entries):
    rng = random.Random(23)
    for e in entries:
        T = random_invertible(rng, e.system.dim)
        assert check_axioms(transform(e.system, T)).ok, e.label


def test_transform_matches_the_trilinear_reference(entries):
    """The mode products give the reference's products, formed trilinearly
    over the rows of T in Fractions: on seeded changes of every entry, on
    the spheres, on T with prime denominators near 10^6, applied once and
    again, and for n = 0 and n = 1."""
    rng = random.Random(3311)
    cases = [(e.system, random_invertible(rng, e.system.dim)) for e in entries for _ in range(3)]
    cases += [(sphere_system(k), random_invertible(rng, k)) for k in range(2, 8)]
    cases.append((sphere_system(12), random_invertible(random.Random(1), 12, -1, 1, (1,))))
    large = (999_979, 1_000_003)
    for t in [e.system for e in entries] + [sphere_system(5)]:
        T = random_invertible(rng, t.dim, dens=large)
        cases += [(t, T), (transform_reference.transform(t, T), random_invertible(rng, t.dim, dens=large))]
    cases += [(TripleSystem.abelian(0), Matrix.identity(0)), (TripleSystem.abelian(1), Matrix.from_rows([[Fraction(-2, 3)]]))]
    for t, T in cases:
        assert transform(t, T)._nz == transform_reference.transform(t, T)._nz, (t.dim, T)
