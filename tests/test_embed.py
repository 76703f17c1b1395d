import dataclasses
import importlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

import embed_reference as ref
from lietriple import catalog, embed, lie
from lietriple.core import InvalidLTS, TripleSystem, check_axioms, quotient, transform
from lietriple.embed import (
    StandardEmbedding,
    decompose,
    inner_derivation,
    is_canonical,
    lts_radical,
    standard_embedding,
)
from lietriple.exactla import (
    Echelon,
    Matrix,
    full_subspace,
    kernel,
    span,
    unit_vec,
)
from lietriple.lie import (
    Grading,
    InvalidGrading,
    LieAlgebra,
    bracket,
    check_grading,
    check_jacobi,
    lie_radical,
)
from lietriple.classify import fingerprint
from lietriple.core import derived_series, is_ideal
from lietriple.formats import serialize_lie
from util import count_calls, random_invertible, sphere_system, zero_subspace

GOLDEN = Path(__file__).parent / "golden"

E = {i: tuple(1 if c == i else 0 for c in range(3)) for i in range(3)}


def test_inner_derivation_abelian():
    t = TripleSystem.abelian(2)
    assert inner_derivation(t, (1, 0), (0, 1)).is_zero()


def test_inner_derivation_spherical(by_label):
    t = by_label["dim2-1"].system
    D = inner_derivation(t, (1, 0), (0, 1))
    assert [list(r) for r in D.entries] == [[0, -1], [1, 0]]


def test_inner_derivation_is_bilinear(by_label):
    t = by_label["split-4"].system
    D1 = inner_derivation(t, (1, 2, 0), (0, 0, 3))
    D2 = inner_derivation(t, (1, 0, 0), (0, 0, 1))
    D3 = inner_derivation(t, (0, 1, 0), (0, 0, 1))
    combined = [
        [3 * (D2.entries[i][j] + 2 * D3.entries[i][j]) for j in range(3)] for i in range(3)
    ]
    assert [list(r) for r in D1.entries] == combined


def test_standard_embedding_dimensions(by_label):
    expected = {
        "dim3-I": 3,
        "dim3-II": 4,
        "dim3-III+": 4,
        "dim3-III-": 4,
        "dim3-IV+": 4,
        "dim3-IV-": 4,
        "dim3-V+": 4,
        "dim3-V-": 4,
        "dim3-VI": 5,
    }
    for label, gdim in expected.items():
        e = standard_embedding(by_label[label].system)
        assert e.algebra.dim == gdim, label


def test_standard_embedding_type_ii_brackets(by_label):
    e = standard_embedding(by_label["dim3-II"].system)
    g = e.algebra
    assert g.f[1][2] == (Fraction(0), Fraction(0), Fraction(0), Fraction(1))  # [e2,e3]=e4
    assert g.f[2][3] == (Fraction(-1), Fraction(0), Fraction(0), Fraction(0))  # [e3,e4]=-e1
    assert e.h_dim == 1


def test_standard_embedding_invariants(entries):
    for e in entries:
        emb = standard_embedding(e.system)
        assert check_jacobi(emb.algebra).ok, e.label
        assert check_grading(emb.algebra, emb.grading).ok, e.label
        assert emb.algebra.dim == e.system.dim + emb.h_dim
        n = e.system.dim
        # [A, X] = A·X on basis vectors
        for a, D in enumerate(emb.h_basis):
            for i in range(n):
                got = tuple(-x for x in emb.algebra.f[i][n + a][:n])
                assert got == D.col(i), e.label


def test_standard_embedding_rejects_invalid():
    bad = TripleSystem.from_entries(3, {(0, 1, 2): (1, 0, 0)})
    with pytest.raises(InvalidLTS):
        standard_embedding(bad)


def test_h_dim_equals_rank_of_all_derivations(entries):
    def unit(n, i):
        return tuple(1 if c == i else 0 for c in range(n))

    for e in entries:
        t = e.system
        n = t.dim
        flats = []
        for i in range(n):
            for j in range(i + 1, n):
                D = inner_derivation(t, unit(n, i), unit(n, j))
                flats.append(tuple(x for row in D.entries for x in row))
        total = span(flats, n * n)
        assert total.dim == standard_embedding(t).h_dim, e.label


def test_is_canonical_for_all_embeddings(entries):
    # standard_embedding keeps only derivations that raise the rank, so the
    # rank test always passes, and fingerprint takes canonical from that
    rng = random.Random(67)
    systems = [(e.label, e.system) for e in entries]
    systems += [
        (f"{e.label} changed", transform(e.system, random_invertible(rng, e.system.dim)))
        for e in entries
    ]
    systems += [(f"sphere {k}", sphere_system(k)) for k in range(2, 8)]
    for name, t in systems:
        canonical = is_canonical(standard_embedding(t))
        assert canonical, name
        assert fingerprint(t).canonical == canonical, name


def test_fingerprint_recomputes_nothing_the_construction_settles(monkeypatch, by_label):
    def refuse(*args):
        raise AssertionError("rank test or subspace intersection called")

    for module in ("lietriple.classify", "lietriple.embed", "lietriple.exactla"):
        module = importlib.import_module(module)
        for name in ("is_canonical", "subspace_intersect"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for t in (by_label["split-2"].system, by_label["dim3-VI"].system, sphere_system(4)):
        assert fingerprint(t).canonical


def test_fingerprint_reads_the_centre_of_g_off_m(monkeypatch, entries):
    def refuse(*args):
        raise AssertionError("centre of the Lie algebra computed")

    for module in ("lietriple.classify", "lietriple.lie"):
        module = importlib.import_module(module)
        if hasattr(module, "lie_center"):
            monkeypatch.setattr(module, "lie_center", refuse)
    for e in entries:
        fp = fingerprint(e.system)
        assert fp == e.expected, e.label
        assert fp.g_center_dim == fp.m_center_dim
    assert fingerprint(sphere_system(4)).g_center_dim == 0


def fixpoint_is_canonical(e):
    """Reference: the largest ideal inside the h-span by the shrinking fixpoint
    I_{k+1} = {x in I_k : [x, G] ⊆ I_k} starting from all of h."""
    g = e.algebra
    m = g.dim
    n = e.source.dim
    current = span([unit_vec(m, n + a) for a in range(e.h_dim)], m)
    while not current.is_zero():
        vs = list(current.vectors())
        residual = Echelon(m, vs).reduce
        conditions = []
        for j in range(m):
            images = [residual(bracket(g, b, unit_vec(m, j))) for b in vs]
            for l in range(m):
                conditions.append(tuple(img[l] for img in images))
        lam_space = kernel(Matrix.from_rows(conditions, len(vs)))
        nxt = span([current.basis.vecmat(lam) for lam in lam_space.vectors()], m)
        if nxt == current:
            return False
        current = nxt
    return True


def adjoined_center(base, mixed):
    """base with one more h-direction z, central in the algebra; with
    ``mixed`` the new basis vector is z + h_1 instead, so no bracket row of
    the plus basis vanishes although h still holds the ideal spanned by z."""
    t, g0 = base.source, base.algebra
    m0 = g0.dim
    entries = {(i, j): g0.f[i][j] + (0,) for i in range(m0) for j in range(i + 1, m0)}
    if mixed:
        h1 = t.dim
        entries.update({(i, m0): g0.f[i][h1] + (0,) for i in range(m0)})
    g = LieAlgebra.from_entries(m0 + 1, entries)
    return StandardEmbedding(
        source=t,
        algebra=g,
        grading=Grading(tuple([-1] * t.dim + [1] * (base.h_dim + 1))),
        h_basis=base.h_basis + (Matrix.zeros(t.dim, t.dim),),
        h_dim=base.h_dim + 1,
    )


def test_is_canonical_matches_fixpoint(entries):
    rng = random.Random(61)
    systems = [e.system for e in entries]
    systems += [transform(t, random_invertible(rng, t.dim)) for t in systems]
    systems += [sphere_system(k) for k in (2, 3, 4)]
    embeddings = [standard_embedding(t) for t in systems]
    fakes = [adjoined_center(b, mixed=False) for b in embeddings]
    fakes += [adjoined_center(b, mixed=True) for b in embeddings if b.h_dim]
    answers = set()
    for e in embeddings + fakes:
        assert check_jacobi(e.algebra).ok
        answers.add(is_canonical(e))
        assert is_canonical(e) == fixpoint_is_canonical(e)
    assert answers == {True, False}


def test_is_canonical_rejects_wrong_parity(by_label):
    base = standard_embedding(by_label["dim2-1"].system)
    wrong = dataclasses.replace(base, grading=Grading((-1, -1, -1)))
    with pytest.raises(InvalidGrading, match=r"bracket \[e1,e2\] has a component of wrong parity"):
        is_canonical(wrong)


def test_is_canonical_rejects_adjoined_center(by_label):
    # take dim2-4a's envelope and adjoin a central h-direction by hand
    fake = adjoined_center(standard_embedding(by_label["dim2-4a"].system), mixed=False)
    assert check_jacobi(fake.algebra).ok
    assert check_grading(fake.algebra, fake.grading).ok
    assert not is_canonical(fake)


def test_decompose_solvable_entry(by_label):
    e = standard_embedding(by_label["dim3-V+"].system)
    dec = decompose(e)
    assert dec.r.dim == e.algebra.dim
    assert dec.m_prime == full_subspace(3)
    assert dec.h_prime.dim == e.h_dim


def test_decompose_semisimple_entry(by_label):
    e = standard_embedding(by_label["dim2-1"].system)
    dec = decompose(e)
    assert dec.r.dim == 0
    assert dec.m_prime == zero_subspace(2)


def test_decompose_split_entry(by_label):
    e = standard_embedding(by_label["split-2"].system)
    dec = decompose(e)
    assert dec.m_prime == span([(1, 0, 0)], 3)
    assert dec.r.dim == dec.m_prime.dim + dec.h_prime.dim


def test_decompose_matches_intersection_reference(entries):
    # the projections of the radical's basis equal its intersections with M and h
    rng = random.Random(20261019)
    systems = [(e.label, e.system) for e in entries]
    systems += [
        (f"{e.label} changed {r}", transform(e.system, random_invertible(rng, e.system.dim)))
        for e in entries
        for r in range(2)
    ]
    systems += [(f"sphere {k}", sphere_system(k)) for k in range(2, 8)]
    for name, t in systems:
        emb = standard_embedding(t)
        assert decompose(emb) == ref.decompose(emb), name


def test_decompose_rejects_an_ungraded_radical():
    # sl2 + Q z in the basis h, e, f, f + z with the last vector in h: the
    # radical Q z = Q (e4 - e3) meets neither M nor h
    brackets = {
        (0, 1): (0, 2, 0, 0),
        (0, 2): (0, 0, -2, 0),
        (1, 2): (1, 0, 0, 0),
        (0, 3): (0, 0, -2, 0),
        (1, 3): (1, 0, 0, 0),
    }
    g = LieAlgebra.from_entries(4, brackets)
    assert check_jacobi(g).ok
    assert lie_radical(g) == span([(0, 0, -1, 1)], 4)
    fake = StandardEmbedding(
        source=TripleSystem.abelian(3),
        algebra=g,
        grading=Grading((-1, -1, -1, 1)),
        h_basis=(Matrix.zeros(3, 3),),
        h_dim=1,
    )
    for split in (decompose, ref.decompose):
        with pytest.raises(AssertionError, match="radical is not graded by the involution"):
            split(fake)


def test_the_block_split_agrees_with_the_general_kernels(entries):
    # fingerprint counts the rows of the two blocks of K·[G, G] and decompose
    # sums their kernels; lie_radical takes the kernel of the whole matrix
    rng = random.Random(20261021)
    systems = [(e.label, e.system) for e in entries]
    systems += [
        (f"{e.label} changed {r}", transform(e.system, random_invertible(rng, e.system.dim)))
        for e in entries
        for r in range(3)
    ]
    systems += [(f"sphere {k}", sphere_system(k)) for k in range(2, 8)]
    for name, t in systems:
        emb = standard_embedding(t)
        r = lie_radical(emb.algebra)
        fp = fingerprint(t)
        assert fp.g_radical_dim == r.dim, name
        assert fp.lts_radical_dim == lts_radical(t).dim, name
        assert decompose(emb).r == r, name


def test_decompose_takes_no_kernel_of_the_whole_matrix(by_label, monkeypatch):
    calls = count_calls(monkeypatch, lie_radical)
    for t in (by_label["split-2"].system, by_label["dim3-II"].system, sphere_system(4)):
        decompose(standard_embedding(t))
    assert calls == []
    # the probe sees a call through the library's own binding
    lie.lie_radical(LieAlgebra.abelian(2))
    assert len(calls) == 1


def test_lts_radical_catalog(entries):
    for e in entries:
        r = lts_radical(e.system)
        if e.label.startswith("dim3"):
            assert r == full_subspace(3), e.label
        elif e.label in ("dim2-1", "dim2-2", "dim2-3"):
            assert r == zero_subspace(2), e.label
        elif e.label in ("dim2-4a", "dim2-4b", "dim2-5"):
            assert r == full_subspace(2), e.label
        else:
            assert r == span([(1, 0, 0)], 3), e.label


def test_lts_radical_is_solvable_ideal(entries):
    for e in entries:
        r = lts_radical(e.system)
        assert is_ideal(e.system, r), e.label
        assert derived_series(e.system, r).solvable, e.label


def test_quotient_by_radical_is_semisimple(entries):
    for e in entries:
        r = lts_radical(e.system)
        q = quotient(e.system, r)
        assert check_axioms(q).ok, e.label
        assert lts_radical(q).is_zero(), e.label


def test_round_trip_on_random_transforms(entries):
    from lietriple.lie import lie_to_lts

    rng = random.Random(41)
    for e in entries:
        for _ in range(3):
            T = random_invertible(rng, e.system.dim)
            t = transform(e.system, T)
            emb = standard_embedding(t)
            assert lie_to_lts(emb.algebra, emb.grading).c == t.c, e.label


def test_sphere_embedding_matches_golden_bytes():
    # pins the greedy h-basis order and every bracket coordinate at n = 4
    cases = {
        "sphere4.lie": sphere_system(4),
        "sphere4-changed.lie": transform(
            sphere_system(4),
            Matrix.from_rows([[1, 1, 0, 0], [0, 1, 2, 0], [1, 0, 1, -1], [0, "1/2", 0, 3]]),
        ),
    }
    for name, t in cases.items():
        e = standard_embedding(t)
        assert serialize_lie(e.algebra, e.grading) == (GOLDEN / name).read_text(), name


def test_standard_embedding_matches_matrix_commutator_reference(entries):
    # the brackets [h, h] come from the derivation identity on the tensor;
    # the reference computes them as matrix commutators
    rng = random.Random(20261018)
    systems = [(e.label, e.system) for e in entries]
    systems += [
        (f"{e.label} changed {r}", transform(e.system, random_invertible(rng, e.system.dim)))
        for e in entries
        for r in range(2)
    ]
    systems += [(f"sphere {k}", sphere_system(k)) for k in range(2, 8)]
    for name, t in systems:
        got, want = standard_embedding(t), ref.standard_embedding(t)
        assert serialize_lie(got.algebra, got.grading) == serialize_lie(want.algebra, want.grading), name
        assert got.h_basis == want.h_basis, name
        assert got.h_dim == want.h_dim, name
        assert got.algebra == want.algebra, name


def test_standard_embedding_forms_no_matrix_products_and_inverts_q_only_for_rejected_pairs(monkeypatch):
    def refuse(*args):
        raise AssertionError("matrix product formed")

    calls = []
    inverse = embed.inverse
    monkeypatch.setattr(Matrix, "__mul__", refuse)
    monkeypatch.setattr(Matrix, "sub", refuse)
    monkeypatch.setattr(embed, "inverse", lambda m: calls.append(m.rows) or inverse(m))
    for k in (2, 3, 5):
        calls.clear()
        assert standard_embedding(sphere_system(k)).h_dim == k * (k - 1) // 2
        # every D_{e_i,e_j} is kept, so each is its own basis vector of h
        assert calls == []
    # some D_{e_i,e_j} is rejected: one inverse of the h_dim x h_dim matrix Q
    for label, h_dim in (("dim3-II", 1), ("dim3-VI", 2)):
        calls.clear()
        assert standard_embedding(catalog.get(label).system).h_dim == h_dim
        assert calls == [h_dim]
