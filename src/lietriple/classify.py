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
DEFAULT_CLASSIFY_BUDGET = 20_000


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


def _witness(a: TripleSystem, b: TripleSystem, budget: int) -> IsoResult:
    """Witness step for fingerprint-tied systems: the identity for equal
    tensors, else the bounded search, whose hit is verified by an exact
    transform before being returned."""
    if a._nz == b._nz:
        return IsoResult("isomorphic", Matrix.identity(a.dim))
    T = search_witness(a, b, budget)
    if T is None:
        return IsoResult("unknown")
    if transform(a, T)._nz != b._nz:
        raise AssertionError("search returned a non-witness")
    return IsoResult("isomorphic", T)


def isomorphic(a: TripleSystem, b: TripleSystem, budget: int = DEFAULT_ISO_BUDGET) -> IsoResult:
    """Three-valued isomorphism test.

    Both systems are validated, a first.  Distinct fingerprints give a
    certified negative with the separating field named; the fields read
    off M alone are compared first, and the standard embeddings are built
    only when those tie.  Otherwise a deterministic search for a
    basis-change witness runs up to ``budget`` invertible candidates.
    """
    require_axioms(a)
    require_axioms(b)
    sep = next((name for name, x, y in zip(FINGERPRINT_FIELDS, a._m_fields, b._m_fields) if x != y), None)
    if sep is None:
        sep = first_separator(fingerprint(a), fingerprint(b))
    if sep is not None:
        return IsoResult("non_isomorphic", separator=sep)
    return _witness(a, b, budget)


def classify(t: TripleSystem, budget: int = DEFAULT_CLASSIFY_BUDGET) -> list[str]:
    """Labels of catalog entries the system can be: equal fingerprint,
    refined by the bounded isomorphism search where that is conclusive.

    The input's fingerprint is computed once and compared with the frozen
    catalog fingerprints.  An empty list means no catalog entry shares
    it.  The tied entries fall into classes: a group of isomorphic entries
    the catalog declares (``catalog.ISOMORPHIC_GROUPS``, which the test
    suite checks against the default search), or an entry alone.  A tie
    within one class gives every tied label with no search.  Otherwise
    the search from the input, bounded by ``budget``, runs for each tied
    entry whose class has no witness yet: the labels are the classes with
    a witness, since no other tied entry is isomorphic to those, or every
    tied label when the search finds none.  The order follows the catalog.
    """
    from . import catalog

    if t.dim not in (2, 3):
        raise UnsupportedDimension("classification covers dimensions 2 and 3 only")
    fp = fingerprint(t)
    candidates = [e for e in catalog.all_entries() if e.expected == fp]
    group = {label: pair for pair in catalog.ISOMORPHIC_GROUPS for label in pair}
    classes = {}  # an entry's isomorphic group, or its label alone -> its tied entries
    for e in candidates:
        classes.setdefault(group.get(e.label, e.label), []).append(e)
    if len(classes) <= 1:
        return [e.label for e in candidates]
    hits = {
        key
        for key, members in classes.items()
        if any(_witness(t, e.system, budget).verdict == "isomorphic" for e in members)
    }
    return [e.label for e in candidates if not hits or group.get(e.label, e.label) in hits]
