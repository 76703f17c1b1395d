"""Basis-independent fingerprints, sound isomorphism testing with explicit
witnesses, and classification against the built-in catalog.

A fingerprint collects only quantities that cannot change under an
invertible change of basis: dimensions of canonical series and radicals,
and the exact signature of the Killing form of the enveloping algebra.
Distinct fingerprints certify non-isomorphism; equal fingerprints decide
nothing by themselves, which is why the isomorphism test is three-valued.
The dimensions of the centre and the radicals are read as ranks of
integer rows, with no subspace built for them.  The fields read off M
alone are kept on the system (``TripleSystem._m_fields``), and
``isomorphic`` compares them before it builds a standard embedding.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .core import TripleSystem, require_axioms, transform
from .embed import _radical_blocks, standard_embedding
from .exactla import Matrix
from .lie import KillingSignature, killing_signature, lie_derived_series, lower_central_series
from .witness import search_witness

DEFAULT_ISO_BUDGET = 10**6


class UnsupportedDimension(ValueError):
    """classify only knows the catalog's 2- and 3-dimensional systems."""


@dataclass(frozen=True)
class Fingerprint:
    """Invariant vector of a triple system and its enveloping algebra."""

    dim_m: int
    m_derived_dims: tuple
    m_center_dim: int
    lts_radical_dim: int
    h_dim: int
    g_dim: int
    g_derived_dims: tuple
    g_lcs_dims: tuple
    g_killing: KillingSignature
    g_radical_dim: int
    g_center_dim: int
    canonical: bool


FINGERPRINT_FIELDS = tuple(f.name for f in dataclasses.fields(Fingerprint))


@dataclass(frozen=True)
class IsoResult:
    verdict: str  # "isomorphic" | "non_isomorphic" | "unknown"
    witness: Matrix | None = None
    separator: str | None = None


def fingerprint(t: TripleSystem) -> Fingerprint:
    """All invariants, computed exactly from one standard embedding."""
    require_axioms(t)  # raises InvalidLTS before any invariant is computed
    dim_m, m_derived_dims, center_dim = t._m_fields
    emb = standard_embedding(t)
    g = emb.algebra
    m_rows, h_rows = _radical_blocks(emb)
    return Fingerprint(
        dim_m=dim_m,
        m_derived_dims=m_derived_dims,
        m_center_dim=center_dim,
        lts_radical_dim=dim_m - len(m_rows),
        h_dim=emb.h_dim,
        g_dim=g.dim,
        g_derived_dims=tuple(s.dim for s in lie_derived_series(g)),
        g_lcs_dims=tuple(s.dim for s in lower_central_series(g)),
        g_killing=killing_signature(g),
        g_radical_dim=g.dim - len(m_rows) - len(h_rows),
        # h acts faithfully on M, so no nonzero element of h is central, and
        # the centre of G is graded: Z(G) = Z(M)
        g_center_dim=center_dim,
        # is_canonical would rank the rows [e_p, e_i] of the h basis: they are the
        # D_{e_p,e_q} that standard_embedding kept for raising the rank, so the
        # rank is always h_dim
        canonical=True,
    )


def first_separator(a: Fingerprint, b: Fingerprint) -> str | None:
    """Name of the first fingerprint field on which a and b differ."""
    for name in FINGERPRINT_FIELDS:
        if getattr(a, name) != getattr(b, name):
            return name
    return None


def isomorphic(a: TripleSystem, b: TripleSystem, budget: int = DEFAULT_ISO_BUDGET) -> IsoResult:
    """Three-valued isomorphism test.

    Both systems are validated, a first; b equal to a gives the identity
    with no invariant computed.  Distinct fingerprints give a certified
    negative with the separating field named; the fields read off M alone
    are compared first, and the standard embeddings are built only when
    those tie.  Otherwise a deterministic search for a basis-change witness
    runs up to ``budget`` invertible candidates, its hit verified by an
    exact transform.  The search runs only when the Killing forms on M have
    the same inertia (``TripleSystem._m_inertia``): a witness carries one
    form to the other.
    """
    require_axioms(a)
    if a._nz == b._nz:
        return IsoResult("isomorphic", Matrix.identity(a.dim))
    require_axioms(b)
    sep = next((name for name, x, y in zip(FINGERPRINT_FIELDS, a._m_fields, b._m_fields) if x != y), None)
    if sep is None:
        sep = first_separator(fingerprint(a), fingerprint(b))
    if sep is not None:
        return IsoResult("non_isomorphic", separator=sep)
    T = search_witness(a, b, budget) if a._m_inertia == b._m_inertia else None
    if T is None:
        return IsoResult("unknown")
    if transform(a, T)._nz != b._nz:
        raise AssertionError("search returned a non-witness")
    return IsoResult("isomorphic", T)


def classify(t: TripleSystem) -> list[str]:
    """Labels of the catalog entries with the system's fingerprint and the
    inertia of its Killing form on M, in catalog order; empty for no match.

    Both are invariants over R (the form on M since an isomorphism extends
    to the standard embeddings, Lister 1952), so no entry left out is
    isomorphic to the input, and the test suite checks that two entries
    left form one of the groups ``catalog.ISOMORPHIC_GROUPS`` declares.  The
    fingerprint is computed once, and no witness search runs.
    """
    from . import catalog

    if t.dim not in (2, 3):
        raise UnsupportedDimension("classification covers dimensions 2 and 3 only")
    fp = fingerprint(t)
    return [e.label for e in catalog.all_entries() if e.expected == fp and e.system._m_inertia == t._m_inertia]
