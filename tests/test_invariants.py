"""The invariants read from the cached nonzero brackets and products agree
with the dense reference scans of ``invariants_reference``."""

import copy
import itertools
import pickle
import random
import sys
from fractions import Fraction

import pytest

import embed_reference
import invariants_reference as ref
from lietriple import _tensor, core, exactla, lie
from lietriple.classify import fingerprint
from lietriple.core import (
    TripleSystem,
    check_axioms,
    derived_series,
    derived_subspace,
    direct_sum,
    lts_center,
    quotient,
    transform,
    triple_product,
)
from lietriple.embed import decompose, lts_radical, standard_embedding
from lietriple.exactla import (
    Echelon,
    Matrix,
    Subspace,
    capped_span,
    full_subspace,
    inverse,
    kernel,
    span,
    unit_vec,
)
from lietriple.formats import parse_lie, parse_lts, serialize_lie, serialize_lts
from lietriple.lie import (
    Grading,
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
from util import random_invertible, random_rational, sphere_system


def hand_built_algebra():
    """so(3) with rescaled brackets, plus a non-abelian plane and a central line."""
    h = Fraction(1, 2)
    g = LieAlgebra.from_entries(
        6,
        {
            (0, 1): (0, 0, h, 0, 0, 0),
            (1, 2): (Fraction(3, 2), 0, 0, 0, 0, 0),
            (0, 2): (0, Fraction(-2, 3), 0, 0, 0, 0),
            (3, 4): (0, 0, 0, Fraction(1, 3), h, 0),
        },
    )
    assert check_jacobi(g).ok
    return g


# pairwise coprime: two primes below 10^6, and 10^6 = 2^6·5^6
LARGE_DENOMINATORS = (1, 999_979, 999_983, 10**6)


def systems(entries):
    rng = random.Random(20261019)
    out = [e.system for e in entries]
    out += [transform(t, random_invertible(rng, t.dim)) for t in out for _ in range(2)]
    out += [sphere_system(k) for k in range(2, 8)]
    out += [TripleSystem.abelian(n) for n in range(4)]
    # the outputs of the internal builders, which the dense constructor re-checks below
    base, changed = out[: len(entries)], out[len(entries) : 3 * len(entries) : 5]
    out += [direct_sum(a, b) for a, b in zip(base[:3], base[-3:])]
    out += [quotient(t, s) for t in base for s in derived_series(t, full_subspace(t.dim)).terms if 0 < s.dim < t.dim]
    out += [lie_to_lts(e.algebra, e.grading) for e in map(standard_embedding, changed)]
    # changes by matrices with large pairwise coprime denominators: the
    # tables' least common denominators and the primitive basis rows run to
    # dozens of digits
    spheres = [sphere_system(k) for k in (3, 4)]
    out += [transform(t, random_invertible(rng, t.dim, -9, 9, LARGE_DENOMINATORS)) for t in base + spheres]
    return out


def random_vec(rng, n):
    # about a third of the entries are zero
    return tuple(random_rational(rng, dens=(1, 3)) if rng.random() < 0.67 else Fraction(0) for _ in range(n))


def random_tensor(rng, n):
    """An alternating tensor with a few nonzero products, not a triple system."""
    keys = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)]
    return TripleSystem.from_entries(n, {key: random_vec(rng, n) for key in rng.sample(keys, n)})


def test_triple_system_invariants_match_dense_reference(entries):
    rng = random.Random(7)
    # the tensors fail the cyclic identity, which ties the two halves of the centre
    tensors = [random_tensor(rng, n) for n in (2, 3, 3, 4, 4)]
    for t in systems(entries) + tensors:
        n = t.dim
        # the nonzero pairs handed over equal those read off the dense tensor
        dense = TripleSystem(n, t.c)
        assert dense == t and dense._nz == t._nz
        parsed = parse_lts(serialize_lts(t))
        assert parsed.c == t.c and parsed._nz == t._nz
        assert lts_center(t) == ref.lts_center(t), t
        oms = [full_subspace(n), span([random_vec(rng, n) for _ in range(2)], n)]
        oms += derived_series(t, full_subspace(n)).terms
        for om in oms:
            assert derived_subspace(t, om) == ref.derived_subspace(t, om), t
        for _ in range(3):
            x, y, z = (random_vec(rng, n) for _ in range(3))
            assert triple_product(t, x, y, z) == ref.triple_product(t, x, y, z), t


def test_lie_invariants_match_dense_reference(entries):
    rng = random.Random(8)
    algebras = [standard_embedding(t).algebra for t in systems(entries)]
    algebras += [LieAlgebra.abelian(m) for m in range(4)] + [hand_built_algebra()]
    gradings = 0
    for g in algebras:
        m = g.dim
        # the nonzero pairs handed over equal those read off the dense table
        dense = LieAlgebra(m, g.f)
        assert dense == g and dense._nz == g._nz
        parsed, _ = parse_lie(serialize_lie(g))
        assert parsed.f == g.f and parsed._nz == g._nz
        assert lie_derived_series(g) == ref._series(g, lower_central=False)
        assert lower_central_series(g) == ref._series(g, lower_central=True)
        assert killing_form(g) == ref._killing_form(g)
        assert lie_radical(g) == ref.lie_radical(g)
        assert lie_center(g) == ref.lie_center(g)
        for _ in range(3):
            x, y = random_vec(rng, m), random_vec(rng, m)
            assert bracket(g, x, y) == ref.bracket(g, x, y)
        for _ in range(2):
            gr = Grading(tuple(rng.choice((1, -1)) for _ in range(m)))
            verdict = check_grading(g, gr)
            assert verdict == ref.check_grading(g, gr)
            gradings += not verdict
    # the random gradings reach the first-offender paths
    assert gradings >= 20


def lie_transform(g, T):
    """g in the basis given by the rows of T."""
    Tinv, rows = inverse(T), T.entries
    m = g.dim
    return LieAlgebra.from_entries(
        m, {(i, j): Tinv.vecmat(bracket(g, rows[i], rows[j])) for i in range(m) for j in range(i + 1, m)}
    )


def lie_direct_sum(g, h):
    a, m = g.dim, g.dim + h.dim
    entries = {(i, j): g.f[i][j] + (0,) * h.dim for i in range(a) for j in range(i + 1, a)}
    entries.update(
        {(a + i, a + j): (0,) * a + h.f[i][j] for i in range(h.dim) for j in range(i + 1, h.dim)}
    )
    return LieAlgebra.from_entries(m, entries)


def isotropic_basis(g):
    """g in a basis of Killing-isotropic vectors with coordinates in {-1, 0, 1},
    so that the form has a zero diagonal; None if those vectors span too little."""
    m = g.dim
    K = [(i, j, x) for i, row in enumerate(killing_form(g).entries) for j, x in enumerate(row) if x]
    ech, rows = Echelon(m), []
    for v in itertools.product((0, 1, -1), repeat=m):
        if not sum(x * v[i] * v[j] for i, j, x in K) and ech.insert(v):
            rows.append(v)
            if ech.rank == m:
                return lie_transform(g, Matrix.from_rows(rows))
    return None


def test_killing_signature_matches_congruence_reference(entries, by_label):
    rng = random.Random(19)
    catalog = [e.system for e in entries]
    spheres = [sphere_system(k) for k in range(2, 8)]
    systems = catalog + spheres
    systems += [transform(t, random_invertible(rng, t.dim)) for t in catalog for _ in range(5)]
    systems += [transform(t, random_invertible(rng, t.dim)) for t in spheres]
    # the zero-diagonal regression input of test_lie
    systems.append(transform(by_label["dim2-3"].system, Matrix.from_rows([[-1, -1], [-1, 3]])))
    algebras = [standard_embedding(t).algebra for t in systems]
    small = [g for g in algebras if g.dim <= 6]
    for _ in range(12):
        g = lie_direct_sum(*rng.sample(small, 2))
        algebras.append(lie_transform(g, random_invertible(rng, g.dim, lo=-2, hi=2, dens=(1,))))
    plain = dict(zip(by_label, algebras))
    plain["4a+4b"] = lie_direct_sum(plain["dim2-4a"], plain["dim2-4b"])
    plain["4b+2"] = lie_direct_sum(plain["dim2-4b"], plain["dim2-2"])
    # the diagonal is zero from the first pivot on
    zero_diagonal = [h for h in map(isotropic_basis, plain.values()) if h and not killing_form(h).is_zero()]
    assert len(zero_diagonal) >= 10
    algebras += zero_diagonal
    algebras += [LieAlgebra.abelian(m) for m in range(3)] + [hand_built_algebra()]
    assert len(algebras) >= 150
    for g in algebras:
        assert killing_signature(g) == ref.killing_signature(g), g


def test_hand_built_algebra_has_its_expected_invariants():
    g = hand_built_algebra()
    e = [tuple(Fraction(int(c == i)) for c in range(6)) for i in range(6)]
    assert lie_radical(g) == span(e[3:], 6)
    assert lie_center(g) == span(e[5:], 6)
    assert tuple(s.dim for s in lie_derived_series(g)) == (6, 4, 3, 3)


def test_public_products_coerce_and_check_their_arguments(by_label):
    t = by_label["dim3-II"].system
    g = standard_embedding(t).algebra
    x, y, z = (1, "1/2", 0), ("-3", 0, 2), (0, "2/3", 1)
    as_fractions = [tuple(Fraction(v) for v in w) for w in (x, y, z)]
    assert triple_product(t, x, y, z) == ref.triple_product(t, *as_fractions)
    gx, gy = (1, "1/2", 0, "-2"), ("3/4", 0, 1, 5)
    assert bracket(g, gx, gy) == ref.bracket(g, gx, gy)
    with pytest.raises(ValueError, match="dimension mismatch"):
        triple_product(t, x, y, (1, 0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        bracket(g, gx, (1, 0, 0))


def test_fingerprint_forms_no_dense_products_and_centres_get_no_zero_rows(monkeypatch):
    t = sphere_system(4)
    g = standard_embedding(t).algebra

    def refuse(*args):
        raise AssertionError("dense Matrix.vecmat called")

    monkeypatch.setattr(Matrix, "vecmat", refuse)
    fingerprint(t)
    inserted = []
    insert = Echelon.insert

    def record(self, v):
        inserted.append(tuple(v))
        return insert(self, v)

    monkeypatch.setattr(Echelon, "insert", record)
    lie_center(g)
    lts_center(t)
    assert inserted
    assert all(any(v) for v in inserted)


def recorded_caps(monkeypatch) -> list:
    """The list to which each later call of capped_span appends its cap."""
    caps = []
    capped_span = exactla.capped_span

    def record(vectors, ambient_dim, cap):
        caps.append(cap)
        return capped_span(vectors, ambient_dim, cap)

    for module in (exactla, core, lie):
        monkeypatch.setattr(module, "capped_span", record)
    return caps


def test_fingerprint_spans_the_derived_algebra_once(monkeypatch, by_label):
    caps = recorded_caps(monkeypatch)
    # h is nonzero, so only a span inside G is capped at g_dim
    for t in (sphere_system(4), by_label["dim3-VI"].system, by_label["split-2"].system):
        caps.clear()
        fp = fingerprint(t)
        assert fp.h_dim > 0
        # [G, G], the second term of both series and the span the radical is
        # orthogonal to, is (M, M, M) + h, handed to the algebra by the embedding
        assert caps.count(fp.g_dim) == 0, t


def test_parsed_algebra_spans_the_derived_algebra_once(monkeypatch, by_label):
    # an algebra read from a .lie file has no construction to read [G, G] off
    caps = recorded_caps(monkeypatch)
    for t in (sphere_system(4), by_label["dim3-VI"].system, by_label["split-2"].system):
        emb = standard_embedding(t)
        want = [f(emb.algebra) for f in (lie_derived_series, lower_central_series, lie_radical)]
        g, _ = parse_lie(serialize_lie(emb.algebra, emb.grading))
        caps.clear()
        assert [f(g) for f in (lie_derived_series, lower_central_series, lie_radical)] == want, t
        assert caps.count(g.dim) == 1, t


def test_embedding_hands_its_algebra_the_span_of_its_brackets(entries):
    # [G, G] = (M, M, M) + h, read off the grading, is the span of the nonzero
    # brackets that the algebra would otherwise take
    rng = random.Random(31)
    catalog = [e.system for e in entries]
    systems = catalog + [transform(t, random_invertible(rng, t.dim)) for t in catalog for _ in range(2)]
    systems += [sphere_system(k) for k in range(2, 8)]
    for t in systems:
        g = standard_embedding(t).algebra
        assert "_derived" in vars(g), t
        want = capped_span(_tensor.integer_cells(g), g.dim, g.dim)
        assert (g._derived.dim, g._derived._rows) == (want.dim, want._rows), t
        assert g._derived == want, t


def test_derived_series_of_proper_ideals_matches_dense_reference(entries):
    # a proper ideal takes the step (M, om, om) on its own primitive basis
    # rows, not on the table's cells; the radical, where it is proper, is an
    # ideal that need not be a term of the series
    steps = 0
    for t in systems(entries):
        n = t.dim
        terms = derived_series(t, full_subspace(n)).terms
        for om in [s for s in (*terms, lts_radical(t)) if 0 < s.dim < n]:
            series = derived_series(t, om)
            assert series.terms == ref.derived_series(t, om), t
            steps += series.dims[1] > 0
    assert steps >= 30


def test_standard_embedding_with_rejected_pairs_matches_reference(entries):
    # some D_{e_i,e_j} is not kept, so the h-coordinates go through Q⁻¹ on the
    # integer flats; the reference solves on the rational ones
    large = 0
    for t in systems(entries):
        got = standard_embedding(t)
        if got.h_dim == t.dim * (t.dim - 1) // 2:
            continue
        want = embed_reference.standard_embedding(t)
        assert serialize_lie(got.algebra, got.grading) == serialize_lie(want.algebra, want.grading), t
        assert got.h_basis == want.h_basis and got.h_dim == want.h_dim, t
        assert got.algebra == want.algebra, t
        denominators = [x.denominator for ci in t.c for cij in ci for v in cij for x in v]
        large += max(denominators, default=1) >= 999_979
    assert large >= 10


FRACTION_ARITHMETIC = frozenset({"_add", "_sub", "_mul", "_div"})


def profiled_calls(call, names, filename):
    """The names, among names, of the functions defined in a file called
    filename that call() runs, once per call."""
    seen = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name in names:
            if code.co_filename.endswith(filename):
                seen.append(code.co_name)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


def fraction_arithmetic(call):
    """The names of the Fraction operators that call() runs; forming a
    Fraction, comparing one or reading its parts is not counted."""
    return profiled_calls(call, FRACTION_ARITHMETIC, "fractions.py")


def test_axiom_check_and_embedding_do_no_fraction_arithmetic(by_label):
    # dim3-VI keeps two of its three D_{e_i,e_j}, so a change of it takes the Q⁻¹ path
    changed = transform(by_label["dim3-VI"].system, random_invertible(random.Random(29), 3))
    assert standard_embedding(changed).h_dim < 3
    for text in (serialize_lts(sphere_system(7)), serialize_lts(changed)):
        # each call starts from a fresh system, which scales its table and checks its axioms
        t = parse_lts(text)
        assert fraction_arithmetic(lambda: embed_reference.standard_embedding(t)), text
        t = parse_lts(text)
        assert fraction_arithmetic(lambda: check_axioms(t)) == [], text
        t = parse_lts(text)
        assert fraction_arithmetic(lambda: standard_embedding(t)) == [], text


def test_spans_kernels_and_series_do_no_fraction_arithmetic(by_label):
    changed = transform(by_label["dim3-III+"].system, random_invertible(random.Random(23), 3))
    for t in (sphere_system(7), changed):
        g = standard_embedding(t).algebra
        # the probe sees the arithmetic it is for
        ones = (Fraction(1),) * t.dim
        assert fraction_arithmetic(lambda: triple_product(t, ones, ones, ones))
        for call in (
            lambda: derived_series(t, full_subspace(t.dim)),
            lambda: lts_center(t),
            lambda: lie_center(g),
            lambda: lie_derived_series(g),
            lambda: lower_central_series(g),
            lambda: lie_radical(g),
        ):
            assert fraction_arithmetic(call) == [], t


def public_subspaces(t):
    """Every public Subspace result on t, from scratch: t is copied, so no
    span cached on t or on its embedding is shared between calls."""
    t = TripleSystem(t.dim, t.c)
    n = t.dim
    emb = standard_embedding(t)
    g = emb.algebra
    products = [v for ci in t.c for cij in ci for v in cij]
    dec = decompose(emb)
    return {
        "derived_series": derived_series(t, full_subspace(n)).terms,
        "lts_center": (lts_center(t),),
        "lie_center": (lie_center(g),),
        "lie_derived_series": lie_derived_series(g),
        "lower_central_series": lower_central_series(g),
        "lie_radical": (lie_radical(g),),
        "decompose": (dec.r, dec.m_prime, dec.h_prime),
        "span": (span(products, n),),
        "capped_span": (capped_span(products, n, span(products, n).dim),),
        "kernel": (kernel(killing_form(g)),),
        "full_subspace": (full_subspace(n), full_subspace(g.dim)),
    }


def test_subspaces_equal_hash_and_print_like_eager_ones(entries):
    # a Subspace from elimination forms its basis when equality, hashing or
    # repr first reads it; each reader gets its own fresh results
    compared = 0
    for t in systems(entries):
        eager = {
            name: [Subspace(s.ambient_dim, s.basis) for s in subspaces]
            for name, subspaces in public_subspaces(t).items()
        }
        read = {"eq": public_subspaces(t), "hash": public_subspaces(t), "repr": public_subspaces(t)}
        for name, want in eager.items():
            assert [s.dim for s in read["eq"][name]] == [s.dim for s in want], (t, name)
            assert list(read["eq"][name]) == want, (t, name)
            assert [hash(s) for s in read["hash"][name]] == [hash(s) for s in want], (t, name)
            assert [repr(s) for s in read["repr"][name]] == [repr(s) for s in want], (t, name)
            for got, w in zip(public_subspaces(t)[name], want):
                n, d = w.ambient_dim, w.dim
                # a subspace of the same dimension and another basis is another subspace
                last = span([tuple(int(c == j) for c in range(n)) for j in range(n - d, n)], n)
                assert (got == last) == (w.basis == last.basis), (t, name)
                assert got.vectors() == w.vectors() and got.is_zero() == w.is_zero(), (t, name)
                compared += 1
    assert compared >= 2000


def test_standard_embedding_matches_reference_under_fractional_changes(entries):
    # changes by matrices with entries such as 7/5 and -11/3: the integer
    # sums run on the scale d·q of the tensor and of Q⁻¹, and each bracket is
    # formed once over it
    rng = random.Random(53)
    fixed = {2: [["7/5", "-11/3"], [1, 2]], 3: [["7/5", "-11/3", 0], [0, 1, "2/5"], [1, 0, 1]]}
    rejected = 0
    for t in [e.system for e in entries] + [sphere_system(k) for k in (3, 4)]:
        changes = [random_invertible(rng, t.dim, -11, 11, (1, 3, 5))]
        changes += [Matrix.from_rows(fixed[t.dim])] if t.dim in fixed else []
        for T in changes:
            s = transform(t, T)
            got, want = standard_embedding(s), embed_reference.standard_embedding(s)
            assert serialize_lie(got.algebra, got.grading) == serialize_lie(want.algebra, want.grading), s
            assert got.h_basis == want.h_basis and got.h_dim == want.h_dim, s
            assert got.algebra == want.algebra, s
            rejected += got.h_dim < s.dim * (s.dim - 1) // 2
    assert rejected >= 20


def test_dense_tables_are_built_when_first_read(monkeypatch, entries):
    # fingerprint reads the nonzero pairs only; c and f are built from them
    # when first read, and equal the tables the public constructors hold
    embeddings = []

    def record(t):
        embeddings.append(standard_embedding(t))
        return embeddings[-1]

    monkeypatch.setattr(sys.modules["lietriple.classify"], "standard_embedding", record)
    copies = (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))
    rng = random.Random(37)
    catalog = [e.system for e in entries]
    texts = [serialize_lts(t) for t in catalog + [sphere_system(2), sphere_system(5)]]
    texts += [serialize_lts(transform(t, random_invertible(rng, t.dim))) for t in catalog]
    for text in texts:
        t = parse_lts(text)
        fingerprint(t)
        g = embeddings[-1].algebra
        assert "c" not in vars(t) and "f" not in vars(g), text
        before = [(copy_(t), copy_(g)) for copy_ in copies]
        assert all("c" not in vars(a) and "f" not in vars(b) for a, b in before), text
        # the dense tables, read off the products and brackets of the basis vectors
        e, u = [unit_vec(t.dim, i) for i in range(t.dim)], [unit_vec(g.dim, i) for i in range(g.dim)]
        c = tuple(tuple(tuple(triple_product(t, x, y, z) for z in e) for y in e) for x in e)
        f = tuple(tuple(bracket(g, x, y) for y in u) for x in u)
        assert t.c == c and g.f == f, text
        assert vars(t)["c"] is t.c and vars(g)["f"] is g.f, text
        assert {type(x) for x in _tensor.scalars(t.c, 3)} | {type(x) for x in _tensor.scalars(g.f, 2)} <= {Fraction}
        for obj, dense in ((t, TripleSystem(t.dim, c)), (g, LieAlgebra(g.dim, f))):
            assert dense == obj and hash(dense) == hash(obj) and repr(dense) == repr(obj), text
        after = [(copy_(t), copy_(g)) for copy_ in copies]
        for a, b in before + after:
            assert a == t and hash(a) == hash(t) and a._nz == t._nz, text
            assert b == g and hash(b) == hash(g) and b._nz == g._nz, text


def test_decompose_matches_projection_reference(entries):
    # the kernels of the column blocks of K·[G, G] equal the projections of
    # the radical's basis, which are r ∩ M and r ∩ h
    proper = 0
    for t in systems(entries):
        emb = standard_embedding(t)
        got = decompose(emb)
        assert got == embed_reference.decompose_by_projection(emb), t
        proper += 0 < got.m_prime.dim < t.dim and got.h_prime.dim > 0
    assert proper >= 10


def test_fingerprint_dimensions_match_the_centre_and_radical_subspaces(entries):
    # the fingerprint reads these dimensions as ranks of rows, not off the
    # subspaces that lts_center and decompose build; systems() holds the
    # plain spheres k = 2..7, and each is changed by a seeded basis here
    rng = random.Random(28)
    changed = [transform(sphere_system(k), random_invertible(rng, k)) for k in range(2, 8)]
    proper = 0
    for t in systems(entries) + changed:
        fp = fingerprint(t)
        dec = decompose(standard_embedding(t))
        got = (fp.m_center_dim, fp.lts_radical_dim, fp.g_radical_dim)
        assert got == (lts_center(t).dim, dec.m_prime.dim, dec.r.dim), t
        proper += 0 < fp.lts_radical_dim < t.dim and 0 < fp.g_radical_dim
    assert proper >= 10


LAZY_BUILDERS = frozenset({"_canonical_basis", "_kernel_rows"})


def test_fingerprint_forms_no_canonical_or_kernel_basis(by_label):
    # fingerprint reads dimensions only: no Fraction basis of a span and no
    # basis vector of a kernel is formed on its path
    changed = transform(by_label["dim3-III+"].system, random_invertible(random.Random(23), 3))
    for make in (lambda: sphere_system(7), lambda: TripleSystem(changed.dim, changed.c)):
        # the probe sees the builders it is for
        t = make()
        assert set(profiled_calls(lambda: lts_radical(t).basis, LAZY_BUILDERS, "exactla.py")) == LAZY_BUILDERS
        t = make()
        assert profiled_calls(lambda: fingerprint(t), LAZY_BUILDERS, "exactla.py") == [], t
