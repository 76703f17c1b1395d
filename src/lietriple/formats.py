"""Bit-exact text formats for triple systems and Lie algebras.

Triple-system files::

    # comment lines start with '#'
    LTS n
    i j k l q        # c[i][j][k] has coordinate q on e_l, 1 <= i < j <= n

Lie-algebra files::

    LIE m
    GRADE s1 ... sm  # optional; each s is '+' or '-'
    i j k q          # [e_i, e_j] has coordinate q on e_k, i < j

Only the canonical half i < j is stored; the antisymmetric completion is
implicit.  Rationals are written "p" or "p/q" in lowest terms with q > 0.
Output is ASCII with LF line endings, entries sorted lexicographically, so
serialisation is canonical: parse(serialize(x)) == x and
serialize(parse(s)) == s for canonical s.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import TripleSystem
from .exactla import ZERO
from .lie import Grading, LieAlgebra

_RATIONAL_RE = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?\Z")


# The largest dimensions a header may declare.  A parser allocates the dense
# tensor (n^4 slots for LTS n, m^3 for LIE m) from the header alone, so larger
# headers are refused before any allocation.  MAX_LIE_DIM is n + n(n-1)/2 for
# n = MAX_LTS_DIM, the largest standard embedding of an accepted system, so
# every embedding written by ``embed -o`` parses back.
MAX_LTS_DIM = 12
MAX_LIE_DIM = MAX_LTS_DIM + MAX_LTS_DIM * (MAX_LTS_DIM - 1) // 2


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


def _format_rational(q: Fraction) -> str:
    return str(q)


def _parse_rational(tok: str, line_no: int) -> Fraction:
    if not _RATIONAL_RE.match(tok):
        raise ParseError(line_no, f"malformed rational {tok!r}")
    try:
        q = Fraction(tok)
    except ValueError:  # more digits than int() converts
        raise ParseError(line_no, f"rational of {len(tok)} characters exceeds the digit limit") from None
    if _format_rational(q) != tok:
        raise ParseError(line_no, f"rational {tok!r} not in lowest terms")
    return q


def _content_lines(text: str):
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line


def _header(it, word: str, letter: str, limit: int) -> int:
    """The dimension declared by the leading '<word> <letter>' line."""
    try:
        line_no, header = next(it)
    except StopIteration:
        raise ParseError(1, f"missing {word} header") from None
    parts = header.split()
    if len(parts) != 2 or parts[0] != word or not (parts[1].isascii() and parts[1].isdigit()):
        raise ParseError(line_no, f"expected header '{word} {letter}'")
    digits = parts[1].lstrip("0") or "0"
    # compare lengths first: int() refuses more than a few thousand digits
    if len(digits) > len(str(limit)) or int(digits) > limit:
        raise ParseError(line_no, f"{word} dimension above the limit of {limit}")
    return int(digits)


def serialize_lts(t: TripleSystem) -> str:
    lines = [f"LTS {t.dim}"]
    for i in range(t.dim):
        for j in range(i + 1, t.dim):
            for k in range(t.dim):
                v = t.c[i][j][k]
                for l in range(t.dim):
                    if v[l]:
                        lines.append(f"{i + 1} {j + 1} {k + 1} {l + 1} {_format_rational(v[l])}")
    return "\n".join(lines) + "\n"


def parse_lts(text: str) -> TripleSystem:
    it = _content_lines(text)
    n = _header(it, "LTS", "n", MAX_LTS_DIM)
    entries: dict = {}
    seen = set()
    for line_no, line in it:
        toks = line.split()
        if len(toks) != 5:
            raise ParseError(line_no, "expected 'i j k l q'")
        try:
            i, j, k, l = (int(x) for x in toks[:4])
        except ValueError:
            raise ParseError(line_no, "indices must be integers") from None
        if not (1 <= i and i < j and j <= n):
            raise ParseError(line_no, "i<j required with 1 <= i < j <= n")
        if not (1 <= k <= n and 1 <= l <= n):
            raise ParseError(line_no, "k and l must lie in 1..n")
        if (i, j, k, l) in seen:
            raise ParseError(line_no, f"duplicate entry ({i},{j},{k},{l})")
        seen.add((i, j, k, l))
        q = _parse_rational(toks[4], line_no)
        if q == 0:
            raise ParseError(line_no, "zero coordinates are implicit and must be omitted")
        key = (i - 1, j - 1, k - 1)
        vec = list(entries.get(key, [ZERO] * n))
        vec[l - 1] = q
        entries[key] = vec
    return TripleSystem.from_entries(n, {k: tuple(v) for k, v in entries.items()})


def serialize_lie(g: LieAlgebra, grading: Grading | None = None) -> str:
    lines = [f"LIE {g.dim}"]
    if grading is not None:
        if len(grading.signs) != g.dim:
            raise ValueError("grading length does not match algebra dimension")
        lines.append("GRADE " + " ".join("+" if s == 1 else "-" for s in grading.signs))
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            v = g.f[i][j]
            for k in range(g.dim):
                if v[k]:
                    lines.append(f"{i + 1} {j + 1} {k + 1} {_format_rational(v[k])}")
    return "\n".join(lines) + "\n"


def parse_lie(text: str) -> tuple[LieAlgebra, Grading | None]:
    it = _content_lines(text)
    m = _header(it, "LIE", "m", MAX_LIE_DIM)
    grading = None
    entries: dict = {}
    seen = set()
    first = True
    for line_no, line in it:
        toks = line.split()
        if first and toks[0] == "GRADE":
            first = False
            signs = toks[1:]
            if len(signs) != m or any(s not in ("+", "-") for s in signs):
                raise ParseError(line_no, f"GRADE line must list {m} signs '+' or '-'")
            grading = Grading(tuple(1 if s == "+" else -1 for s in signs))
            continue
        first = False
        if len(toks) != 4:
            raise ParseError(line_no, "expected 'i j k q'")
        try:
            i, j, k = (int(x) for x in toks[:3])
        except ValueError:
            raise ParseError(line_no, "indices must be integers") from None
        if not (1 <= i and i < j and j <= m):
            raise ParseError(line_no, "i<j required with 1 <= i < j <= m")
        if not 1 <= k <= m:
            raise ParseError(line_no, "k must lie in 1..m")
        if (i, j, k) in seen:
            raise ParseError(line_no, f"duplicate entry ({i},{j},{k})")
        seen.add((i, j, k))
        q = _parse_rational(toks[3], line_no)
        if q == 0:
            raise ParseError(line_no, "zero coordinates are implicit and must be omitted")
        key = (i - 1, j - 1)
        vec = list(entries.get(key, [ZERO] * m))
        vec[k - 1] = q
        entries[key] = vec
    return LieAlgebra.from_entries(m, {k: tuple(v) for k, v in entries.items()}), grading
