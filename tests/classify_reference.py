"""Reference ``classify`` and ``isomorphic``: the tied entries decided by
search alone.

``classify`` is an earlier body of ``lietriple.classify.classify``, which
knows nothing of the catalog's isomorphic groups or of the Killing form
on M.  It searches from the input to every tied entry, bounded by
``budget``; when some entries have a witness, it keeps those and every
tied entry with a witness from one of them, searched between the catalog
entries at ``DEFAULT_CLASSIFY_BUDGET``.  ``witness`` is the earlier
witness step of ``lietriple.classify.isomorphic``, which searches between
any two tied systems, whatever the Killing forms on M, and ``isomorphic``
is the library's body on top of it.  The tests compare the library's
``isomorphic`` with these, verdict for verdict and witness for witness,
and its ``classify`` with these labels cut down to those of the input's
inertia on M.
"""

from __future__ import annotations

from lietriple import catalog
from lietriple.classify import (
    DEFAULT_ISO_BUDGET,
    FINGERPRINT_FIELDS,
    IsoResult,
    UnsupportedDimension,
    fingerprint,
    first_separator,
)
from lietriple.core import require_axioms, transform
from lietriple.exactla import Matrix
from lietriple.witness import search_witness

DEFAULT_CLASSIFY_BUDGET = 20_000  # the budget of the earlier classify's searches


def witness(a, b, budget):
    if a._nz == b._nz:
        return IsoResult("isomorphic", Matrix.identity(a.dim))
    T = search_witness(a, b, budget)
    if T is None:
        return IsoResult("unknown")
    if transform(a, T)._nz != b._nz:
        raise AssertionError("search returned a non-witness")
    return IsoResult("isomorphic", T)


def isomorphic(a, b, budget=DEFAULT_ISO_BUDGET):
    require_axioms(a)
    require_axioms(b)
    sep = next((name for name, x, y in zip(FINGERPRINT_FIELDS, a._m_fields, b._m_fields) if x != y), None)
    if sep is None:
        sep = first_separator(fingerprint(a), fingerprint(b))
    if sep is not None:
        return IsoResult("non_isomorphic", separator=sep)
    return witness(a, b, budget)


def classify(t, budget=DEFAULT_CLASSIFY_BUDGET):
    if t.dim not in (2, 3):
        raise UnsupportedDimension("classification covers dimensions 2 and 3 only")
    fp = fingerprint(t)
    candidates = [e for e in catalog.all_entries() if e.expected == fp]
    if len(candidates) <= 1:
        return [e.label for e in candidates]
    hits = [e for e in candidates if witness(t, e.system, budget).verdict == "isomorphic"]
    if not hits:
        return [e.label for e in candidates]
    return [
        e.label
        for e in candidates
        if e in hits
        or any(witness(x.system, e.system, DEFAULT_CLASSIFY_BUDGET).verdict == "isomorphic" for x in hits)
    ]
