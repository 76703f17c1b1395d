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
implicit.  Indices are ASCII digits, leading zeros allowed; any other index
token ('+1', '-1', '1_0', a non-ASCII digit) is "indices must be integers",
and one too long to convert gets the range error of its value.
Rationals are written "p" or "p/q" in lowest terms with q > 0.
Output is ASCII with LF line endings, entries sorted lexicographically, so
serialisation is canonical: parse(serialize(x)) == x and
serialize(parse(s)) == s for canonical s.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import _tensor
from .core import TripleSystem
from .lie import Grading, LieAlgebra

_RATIONAL_RE = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?\Z")


# The largest dimensions a header may declare.  The tables parsed are sparse,
# but the axiom check and the embedding of LTS n allocate n^4 slots, as does
# the dense table of LIE m (m^3) when read, so larger headers are refused
# before anything is built.  MAX_LIE_DIM is n + n(n-1)/2 for
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


def _naturals(toks: list, limit: int) -> tuple | None:
    """The values of tokens of ASCII digits, leading zeros allowed, or None
    when some token is not one.  A value too long to convert reads as
    limit + 1, which lies above ``limit`` as the value does."""
    joined = "".join(toks)
    if not (joined.isascii() and joined.isdigit()):
        return None
    width = len(str(limit))
    if len(joined) > width * len(toks):
        # a long token: compare lengths first, as int() refuses more than a
        # few thousand digits
        toks = [t.lstrip("0") or "0" for t in toks]
        return tuple([limit + 1 if len(t) > width else int(t) for t in toks])
    return tuple(map(int, toks))


def _header(it, word: str, letter: str, limit: int) -> int:
    """The dimension declared by the leading '<word> <letter>' line."""
    try:
        line_no, header = next(it)
    except StopIteration:
        raise ParseError(1, f"missing {word} header") from None
    parts = header.split()
    values = _naturals(parts[1:], limit) if len(parts) == 2 and parts[0] == word else None
    if values is None:
        raise ParseError(line_no, f"expected header '{word} {letter}'")
    (dim,) = values
    if dim > limit:
        raise ParseError(line_no, f"{word} dimension above the limit of {limit}")
    return dim


def _read_entries(lines, dim: int, form: str, letter: str, slots: str) -> dict:
    """The sparse map {0-based key indices: the pairs (0-based coordinate
    index, rational) in increasing index} of the entry lines.  Each line
    holds the tokens ``form`` names: the key indices i, j, ..., the
    coordinate index, then the rational.  ``slots`` names the indices after
    i and j in their range error."""
    width = len(form.split())
    entries: dict = {}
    seen = set()
    for line_no, line in lines:
        toks = line.split()
        if len(toks) != width:
            raise ParseError(line_no, f"expected '{form}'")
        idx = _naturals(toks[:-1], dim)
        if idx is None:
            raise ParseError(line_no, "indices must be integers")
        if not 1 <= idx[0] < idx[1] <= dim:
            raise ParseError(line_no, f"i<j required with 1 <= i < j <= {letter}")
        # the slots after i and j: k and l, or k alone
        if not (1 <= idx[2] <= dim and 1 <= idx[-1] <= dim):
            raise ParseError(line_no, f"{slots} must lie in 1..{letter}")
        if idx in seen:
            raise ParseError(line_no, f"duplicate entry ({','.join(map(str, idx))})")
        seen.add(idx)
        q = _parse_rational(toks[-1], line_no)
        if q == 0:
            raise ParseError(line_no, "zero coordinates are implicit and must be omitted")
        entries.setdefault(idx[:-1], []).append((idx[-1] - 1, q))
    # a key's coordinate indices are distinct, so the sort compares no rationals
    return {tuple([x - 1 for x in key]): tuple(sorted(pairs)) for key, pairs in entries.items()}


def _write_entries(lines: list, products) -> str:
    """The lines, then 'i j ... l q' for each nonzero coordinate q on e_l of
    each (key, nonzero pairs) in ``products``, with 1-based indices."""
    for key, pairs in products:
        prefix = " ".join(str(x + 1) for x in key)
        for l, q in pairs:
            lines.append(f"{prefix} {l + 1} {_format_rational(q)}")
    return "\n".join(lines) + "\n"


def serialize_lts(t: TripleSystem) -> str:
    return _write_entries([f"LTS {t.dim}"], _tensor.upper(t._nz, 3))


def parse_lts(text: str) -> TripleSystem:
    it = _content_lines(text)
    n = _header(it, "LTS", "n", MAX_LTS_DIM)
    return TripleSystem._from_pairs(n, _read_entries(it, n, "i j k l q", "n", "k and l"))


def serialize_lie(g: LieAlgebra, grading: Grading | None = None) -> str:
    lines = [f"LIE {g.dim}"]
    if grading is not None:
        if len(grading.signs) != g.dim:
            raise ValueError("grading length does not match algebra dimension")
        lines.append("GRADE " + " ".join("+" if s == 1 else "-" for s in grading.signs))
    return _write_entries(lines, _tensor.upper(g._nz, 2))


def parse_lie(text: str) -> tuple[LieAlgebra, Grading | None]:
    it = _content_lines(text)
    m = _header(it, "LIE", "m", MAX_LIE_DIM)
    lines = list(it)
    grading = None
    if lines and lines[0][1].split()[0] == "GRADE":
        line_no, line = lines.pop(0)
        signs = line.split()[1:]
        if len(signs) != m or any(s not in ("+", "-") for s in signs):
            raise ParseError(line_no, f"GRADE line must list {m} signs '+' or '-'")
        grading = Grading(tuple(1 if s == "+" else -1 for s in signs))
    return LieAlgebra._from_pairs(m, _read_entries(lines, m, "i j k q", "m", "k")), grading
