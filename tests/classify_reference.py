"""Reference ``classify``: the tied entries decided by search alone.

This is the earlier body of ``lietriple.classify.classify``, which knows
nothing of the catalog's isomorphic groups.  It searches from the input
to every tied entry, bounded by ``budget``; when some entries have a
witness, it keeps those and every tied entry with a witness from one of
them, searched between the catalog entries at the default budget.  The
tests compare the library's ``classify`` with it, label for label.
"""

from __future__ import annotations

from lietriple import catalog
from lietriple.classify import DEFAULT_CLASSIFY_BUDGET, UnsupportedDimension, _witness, fingerprint


def classify(t, budget=DEFAULT_CLASSIFY_BUDGET):
    if t.dim not in (2, 3):
        raise UnsupportedDimension("classification covers dimensions 2 and 3 only")
    fp = fingerprint(t)
    candidates = [e for e in catalog.all_entries() if e.expected == fp]
    if len(candidates) <= 1:
        return [e.label for e in candidates]
    hits = [e for e in candidates if _witness(t, e.system, budget).verdict == "isomorphic"]
    if not hits:
        return [e.label for e in candidates]
    return [
        e.label
        for e in candidates
        if e in hits
        or any(_witness(x.system, e.system, DEFAULT_CLASSIFY_BUDGET).verdict == "isomorphic" for x in hits)
    ]
