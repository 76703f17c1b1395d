import random
import re
from fractions import Fraction

import pytest

from lietriple.core import lts_center, transform
from lietriple.embed import standard_embedding
from lietriple.exactla import Matrix, full_subspace, kernel, span
from lietriple.lie import (
    Grading,
    InvalidGrading,
    KillingSignature,
    LieAlgebra,
    bracket,
    check_grading,
    check_jacobi,
    killing_form,
    killing_signature,
    lie_center,
    lie_derived_series,
    lie_radical,
    lie_to_lts,
    lower_central_series,
)
from util import random_invertible, sphere_system, subspace_le, zero_subspace


def emb(by_label, label):
    return standard_embedding(by_label[label].system)


def dims(series):
    return tuple(s.dim for s in series)


def test_bracket_table_rejections_keep_their_messages():
    zero = (Fraction(0),) * 2
    one = (Fraction(1), Fraction(0))
    minus = (Fraction(-1), Fraction(0))

    def table(f00, f01, f10):
        return ((f00, f01), (f10, zero))

    assert LieAlgebra(2, table(zero, one, minus)).f[0][1] == one
    with pytest.raises(ValueError, match=re.escape("[e1,e1] must vanish")):
        LieAlgebra(2, table(one, zero, zero))
    # only one side nonzero, either side, and both nonzero but equal
    for f01, f10 in ((one, zero), (zero, one), (one, one)):
        with pytest.raises(ValueError, match=re.escape("brackets not antisymmetric at (1,2)")):
            LieAlgebra(2, table(zero, f01, f10))


def test_check_jacobi_abelian():
    assert check_jacobi(LieAlgebra.abelian(3)).ok


def test_check_jacobi_catalog_embeddings(entries):
    for e in entries:
        assert check_jacobi(standard_embedding(e.system).algebra).ok, e.label


def test_check_jacobi_violation_reported():
    # [e1,e2] = e3 and [e1,e3] = e1 cannot close up
    g = LieAlgebra.from_entries(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    verdict = check_jacobi(g)
    assert not verdict.ok
    assert verdict.indices == (1, 2, 3)
    assert verdict.residual == (Fraction(0), Fraction(0), Fraction(-1))


def dense_jacobi(g):
    """Reference scan: every coordinate of every bracket, all basis triples
    in lexicographic order."""
    m = g.dim
    for i in range(m):
        for j in range(m):
            for k in range(m):
                r = [Fraction(0)] * m
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for q, vq in enumerate(g.f[a][b]):
                        if vq:
                            w = g.f[q][c]
                            for l in range(m):
                                if w[l]:
                                    r[l] += vq * w[l]
                if any(r):
                    return (i + 1, j + 1, k + 1), tuple(r)
    return None


def test_check_jacobi_matches_dense_reference(entries):
    """Same verdict, first violation and residual on catalog and sphere
    envelopes and seeded one-constant perturbations of each."""
    rng = random.Random(4101)
    algebras = [standard_embedding(e.system).algebra for e in entries]
    algebras += [standard_embedding(sphere_system(k)).algebra for k in (3, 4, 5)]
    violations = 0
    for g in algebras:
        cases = [g]
        upper = {(i, j): g.f[i][j] for i in range(g.dim) for j in range(i + 1, g.dim)}
        for _ in range(4 if upper else 0):
            (i, j), v = rng.choice(sorted(upper.items()))
            v = list(v)
            v[rng.randrange(g.dim)] += Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))
            changed = dict(upper)
            changed[(i, j)] = v
            cases.append(LieAlgebra.from_entries(g.dim, changed))
        for h in cases:
            verdict = check_jacobi(h)
            expected = dense_jacobi(h)
            if expected is None:
                assert verdict.ok
            else:
                violations += 1
                assert (verdict.ok, verdict.indices, verdict.residual) == (False, *expected)
    assert violations > 50


def test_series_abelian():
    g = LieAlgebra.abelian(4)
    assert dims(lie_derived_series(g)) == (4, 0)
    assert dims(lower_central_series(g)) == (4, 0)


def test_series_type_ii_embedding(by_label):
    g = emb(by_label, "dim3-II").algebra
    assert dims(lie_derived_series(g)) == (4, 2, 0)
    assert dims(lower_central_series(g)) == (4, 2, 1, 0)


def test_series_spherical_embedding_is_perfect(by_label):
    g = emb(by_label, "dim2-1").algebra
    assert dims(lie_derived_series(g)) == (3, 3)


def test_killing_form_abelian():
    g = LieAlgebra.abelian(3)
    assert killing_form(g).is_zero()
    assert killing_signature(g) == KillingSignature(0, 0, 3)


def test_killing_signature_compact_and_split(by_label):
    assert killing_signature(emb(by_label, "dim2-1").algebra) == KillingSignature(0, 3, 0)
    assert killing_signature(emb(by_label, "dim2-3").algebra) == KillingSignature(2, 1, 0)


def test_killing_form_symmetric_invariant(entries):
    for e in entries:
        g = standard_embedding(e.system).algebra
        K = killing_form(g)
        assert K == K.transpose()
        m = g.dim
        basis = [tuple(1 if c == i else 0 for c in range(m)) for i in range(m)]
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    lhs = sum(
                        bracket(g, basis[i], basis[j])[q] * K.entries[q][k] for q in range(m)
                    )
                    rhs = sum(
                        K.entries[j][q] * bracket(g, basis[i], basis[k])[q] for q in range(m)
                    )
                    assert lhs + rhs == 0


def _dense_killing(g):
    """K[i][j] = trace(ad e_i ∘ ad e_j), straight from the bracket."""
    m = g.dim
    e = [tuple(1 if c == i else 0 for c in range(m)) for i in range(m)]
    return [
        [sum(bracket(g, e[i], bracket(g, e[j], e[k]))[k] for k in range(m)) for j in range(m)]
        for i in range(m)
    ]


def test_killing_form_matches_dense_trace_definition(entries):
    from lietriple.core import transform

    rng = random.Random(37)
    systems = [sphere_system(4)]
    for e in entries:
        systems.append(transform(e.system, random_invertible(rng, e.system.dim, lo=-2, hi=2)))
    for t in systems:
        g = standard_embedding(t).algebra
        assert [list(r) for r in killing_form(g).entries] == _dense_killing(g)


def test_killing_signature_basis_invariant(by_label):
    rng = random.Random(31)
    g = emb(by_label, "split-2").algebra
    sig = killing_signature(g)
    for _ in range(5):
        T = random_invertible(rng, g.dim, lo=-2, hi=2, dens=(1,))
        rows = T.entries
        entries = {}
        from lietriple.exactla import inverse

        Tinv = inverse(T)
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                v = Tinv.vecmat(bracket(g, rows[i], rows[j]))
                entries[(i, j)] = v
        transformed = LieAlgebra.from_entries(g.dim, entries)
        assert check_jacobi(transformed).ok
        assert killing_signature(transformed) == sig


def test_killing_signature_zero_diagonal_regression(by_label):
    # basis change of the dim2-3 system that makes every diagonal Killing
    # entry vanish mid-reduction; the signature must stay (2,1,0)
    from lietriple.core import transform
    from lietriple.exactla import Matrix

    t = transform(by_label["dim2-3"].system, Matrix.from_rows([[-1, -1], [-1, 3]]))
    g = standard_embedding(t).algebra
    assert killing_signature(g) == KillingSignature(2, 1, 0)


def test_lie_radical_cases(by_label):
    assert lie_radical(LieAlgebra.abelian(3)) == full_subspace(3)
    assert lie_radical(emb(by_label, "dim2-1").algebra) == zero_subspace(3)
    assert lie_radical(emb(by_label, "dim3-II").algebra) == full_subspace(4)


def test_lie_radical_matches_the_whole_derived_span(entries):
    # the radical reads [g, g] only until its rank reaches dim g
    algebras = [standard_embedding(e.system).algebra for e in entries]
    algebras += [standard_embedding(sphere_system(k)).algebra for k in (2, 3, 4, 5)]
    perfect = 0
    for g in algebras:
        m = g.dim
        derived = span([g.f[i][j] for i in range(m) for j in range(i + 1, m)], m)
        perfect += derived.dim == m
        if derived.is_zero():
            expected = full_subspace(m)
        else:
            K = killing_form(g)
            expected = kernel(Matrix.from_rows([K.vecmat(d) for d in derived.vectors()]))
        assert lie_radical(g) == expected
    assert perfect >= 4


def test_series_of_the_zero_algebra_end_at_its_first_term():
    g = LieAlgebra.abelian(0)
    assert dims(lie_derived_series(g)) == (0,)
    assert dims(lower_central_series(g)) == (0,)


def test_lie_radical_is_solvable_ideal(entries):
    for e in entries:
        g = standard_embedding(e.system).algebra
        r = lie_radical(g)
        m = g.dim
        for v in r.vectors():
            for j in range(m):
                ej = tuple(1 if c == j else 0 for c in range(m))
                assert subspace_le(span([bracket(g, v, ej)], m), r), e.label
        # derived series of the radical subalgebra reaches zero
        cur = r
        while not cur.is_zero():
            nxt = span(
                [bracket(g, a, b) for a in cur.vectors() for b in cur.vectors()], m
            )
            assert nxt.dim < cur.dim, e.label
            cur = nxt


def test_lie_center_is_the_lts_center(entries):
    """h acts faithfully on M and the centre of G is graded, so Z(G) = Z(M):
    the fingerprint reports the centre dimension of M for both fields."""
    rng = random.Random(1616)
    systems = [e.system for e in entries]
    systems += [transform(t, random_invertible(rng, t.dim)) for t in systems for _ in range(2)]
    systems += [sphere_system(k) for k in range(2, 8)]
    for t in systems:
        n = t.dim
        center = lie_center(standard_embedding(t).algebra)
        assert center.dim == lts_center(t).dim
        # zero on the h coordinates, and the M coordinates span Z(M)
        assert all(not any(v[n:]) for v in center.vectors())
        assert span([v[:n] for v in center.vectors()], n) == lts_center(t)


def test_lie_center_cases(by_label):
    assert lie_center(LieAlgebra.abelian(2)) == full_subspace(2)
    assert lie_center(emb(by_label, "dim3-II").algebra) == span([(1, 0, 0, 0)], 4)
    assert lie_center(emb(by_label, "dim2-1").algebra) == zero_subspace(3)


def test_check_grading(by_label):
    e = emb(by_label, "dim2-1")
    assert check_grading(e.algebra, e.grading).ok
    # all-plus is always a valid grading (with empty minus part)
    assert check_grading(e.algebra, Grading((1, 1, 1))).ok
    # [e1,e2] = e3 with all minus signs has even parity target: invalid
    bad = check_grading(e.algebra, Grading((-1, -1, -1)))
    assert not bad.ok
    assert bad.indices == (1, 2)


def test_check_grading_all_plus_is_valid_only_with_empty_minus_part():
    g = LieAlgebra.from_entries(3, {(0, 1): (0, 0, 1)})
    assert check_grading(g, Grading((1, 1, 1))).ok
    assert lie_to_lts(g, Grading((1, 1, 1))).dim == 0


def test_lie_to_lts_abelian():
    g = LieAlgebra.abelian(3)
    t = lie_to_lts(g, Grading((-1, -1, 1)))
    assert t.dim == 2
    assert t.c == ((((Fraction(0),) * 2,) * 2,) * 2,) * 2


def test_lie_to_lts_round_trip(entries):
    for e in entries:
        embedding = standard_embedding(e.system)
        back = lie_to_lts(embedding.algebra, embedding.grading)
        assert back.dim == e.system.dim, e.label
        assert back.c == e.system.c, e.label


def test_lie_to_lts_spherical_from_rotation_algebra():
    # so(3)-type brackets graded with two odd directions
    g = LieAlgebra.from_entries(
        3, {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (0, 2): (0, -1, 0)}
    )
    assert check_jacobi(g).ok
    t = lie_to_lts(g, Grading((-1, -1, 1)))
    assert t.c[0][1][0] == (Fraction(0), Fraction(1))
    assert t.c[0][1][1] == (Fraction(-1), Fraction(0))


def test_lie_to_lts_rejects_bad_grading(by_label):
    e = emb(by_label, "dim2-1")
    with pytest.raises(InvalidGrading):
        lie_to_lts(e.algebra, Grading((-1, -1, -1)))
