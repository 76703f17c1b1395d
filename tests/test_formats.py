import random
import re
import subprocess
import sys
import tracemalloc

import pytest

from lietriple.core import TripleSystem, transform
from lietriple.formats import (
    MAX_LIE_DIM,
    MAX_LTS_DIM,
    ParseError,
    parse_lie,
    parse_lts,
    serialize_lie,
    serialize_lts,
)
from lietriple.embed import standard_embedding
from lietriple.lie import LieAlgebra
from util import random_invertible


def test_round_trip_catalog_entries(entries):
    for e in entries:
        text = serialize_lts(e.system)
        back = parse_lts(text)
        assert back.dim == e.system.dim and back.c == e.system.c, e.label
        assert serialize_lts(back) == text, e.label


def test_round_trip_random_transforms(entries):
    rng = random.Random(59)
    for e in entries:
        T = random_invertible(rng, e.system.dim)
        t = transform(e.system, T)
        assert parse_lts(serialize_lts(t)).c == t.c, e.label


def test_round_trip_lie_files(entries):
    for e in entries:
        emb = standard_embedding(e.system)
        text = serialize_lie(emb.algebra, emb.grading)
        g, grading = parse_lie(text)
        assert g.dim == emb.algebra.dim and g.f == emb.algebra.f
        assert grading == emb.grading
        assert serialize_lie(g, grading) == text


def test_serialized_form_is_sorted_and_ascii(by_label):
    text = serialize_lts(by_label["split-5"].system)
    lines = text.splitlines()
    assert lines[0] == "LTS 3"
    body = lines[1:]
    keys = [tuple(int(x) for x in ln.split()[:4]) for ln in body]
    assert keys == sorted(keys)
    assert text.encode("ascii")
    assert "1 2 2 1 -1/4" in body


def test_parse_accepts_comments_and_blank_lines():
    text = "# a comment\n\nLTS 2\n# another\n1 2 1 2 1\n\n"
    t = parse_lts(text)
    assert t.dim == 2
    assert t.c[0][1][0][1] == 1


def test_entries_in_any_line_order_give_the_dense_nonzeros():
    # coordinates of one product or bracket listed out of order, keys interleaved
    t = parse_lts("LTS 3\n1 2 1 3 -1\n2 3 2 1 1/2\n1 2 1 1 2\n1 2 3 2 1\n")
    assert t._nz == TripleSystem(t.dim, t.c)._nz
    assert t._nz[0][1][0] == ((0, 2), (2, -1)) and t._nz[1][0][0] == ((0, -2), (2, 1))
    g, _ = parse_lie("LIE 3\n1 2 3 1\n2 3 1 -1/2\n1 2 1 1\n")
    assert g._nz == LieAlgebra(g.dim, g.f)._nz
    assert g._nz[0][1] == ((0, 1), (2, 1)) and g._nz[1][0] == ((0, -1), (2, -1))


def test_parse_lts_errors():
    with pytest.raises(ParseError, match="line 1: missing LTS header"):
        parse_lts("")
    with pytest.raises(ParseError, match="expected header"):
        parse_lts("LTS x\n")
    with pytest.raises(ParseError, match="i<j required"):
        parse_lts("LTS 2\n1 1 2 2 1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_lts("LTS 2\n2 1 1 1 1\n")
    with pytest.raises(ParseError, match="1..n"):
        parse_lts("LTS 2\n1 2 3 1 1\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_lts("LTS 2\n1 2 1 2 1\n1 2 1 2 1\n")
    with pytest.raises(ParseError, match="malformed rational"):
        parse_lts("LTS 2\n1 2 1 2 1/-2\n")
    with pytest.raises(ParseError, match="lowest terms"):
        parse_lts("LTS 2\n1 2 1 2 2/4\n")
    with pytest.raises(ParseError, match="zero coordinates"):
        parse_lts("LTS 2\n1 2 1 2 0\n")
    with pytest.raises(ParseError, match="expected 'i j k l q'"):
        parse_lts("LTS 2\n1 2 1 1\n")


def test_parse_lie_grade_handling():
    g, grading = parse_lie("LIE 2\nGRADE - +\n")
    assert g.dim == 2 and grading.signs == (-1, 1)
    g2, none = parse_lie("LIE 2\n1 2 1 1\n")
    assert none is None
    with pytest.raises(ParseError, match="GRADE line must list 2 signs"):
        parse_lie("LIE 2\nGRADE - \n")
    with pytest.raises(ParseError, match="i<j required"):
        parse_lie("LIE 2\n2 2 1 1\n")


def test_huge_headers_fail_fast_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="line 1: LTS dimension above the limit of 12"):
            parse_lts("LTS 100000\n")
        with pytest.raises(ParseError, match="line 2: LIE dimension above the limit of 78"):
            parse_lie("# comment\nLIE 100000\n")
        with pytest.raises(ParseError, match="above the limit"):
            parse_lts("LTS " + "9" * 5000 + "\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_header_limits_are_inclusive():
    assert parse_lts(f"LTS {MAX_LTS_DIM}\n").dim == MAX_LTS_DIM
    assert parse_lie(f"LIE {MAX_LIE_DIM}\n")[0].dim == MAX_LIE_DIM
    with pytest.raises(ParseError, match="above the limit"):
        parse_lts(f"LTS {MAX_LTS_DIM + 1}\n")
    with pytest.raises(ParseError, match="above the limit"):
        parse_lie(f"LIE {MAX_LIE_DIM + 1}\n")
    with pytest.raises(ParseError, match="expected header 'LTS n'"):
        parse_lts("LTS \u00b2\n")  # a digit to str.isdigit, not to int()


def test_lts_serialization_of_empty_system():
    t = TripleSystem.abelian(1)
    assert serialize_lts(t) == "LTS 1\n"
    assert parse_lts("LTS 1\n").dim == 1


# more digits than int() converts under the interpreter's default limit of 4300
HUGE_RATIONALS = (
    ("check", "x.lts", "LTS 2\n1 2 1 2 " + "1" * 5000 + "\n"),
    ("lie-check", "x.lie", "LIE 2\n1 2 1 " + "1" * 4400 + "/7\n"),
)


def test_huge_rationals_are_parse_errors():
    for command, _, text in HUGE_RATIONALS:
        parse = parse_lts if command == "check" else parse_lie
        with pytest.raises(ParseError, match=r"^line 2: rational of \d+ characters exceeds the digit limit$") as exc:
            parse(text)
        assert len(str(exc.value)) < 100


def test_huge_rationals_exit_1_without_traceback(tmp_path):
    for command, name, text in HUGE_RATIONALS:
        path = tmp_path / name
        path.write_text(text)
        result = subprocess.run(
            [sys.executable, "-m", "lietriple", command, str(path)],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.startswith("parse error line 2:")
        assert "Traceback" not in result.stderr


# an index with more digits than int() converts, in the coordinate slot
HUGE_INDICES = (
    ("check", "x.lts", "LTS 2\n1 2 1 " + "1" * 5000 + " 1\n", "k and l must lie in 1..n"),
    ("lie-check", "x.lie", "LIE 2\n1 2 " + "1" * 5000 + " 1\n", "k must lie in 1..m"),
)


def test_huge_indices_get_their_range_error(tmp_path):
    for command, name, text, message in HUGE_INDICES:
        parse = parse_lts if command == "check" else parse_lie
        with pytest.raises(ParseError, match=f"^line 2: {re.escape(message)}$"):
            parse(text)
        path = tmp_path / name
        path.write_text(text)
        result = subprocess.run(
            [sys.executable, "-m", "lietriple", command, str(path)],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == f"parse error line 2: {message}\n"


def test_huge_indices_in_the_pair_slots_fail_the_pair_check():
    huge = "9" * 5000
    for text in (f"LTS 2\n{huge} 2 1 1 1\n", f"LTS 2\n1 {huge} 1 1 1\n"):
        with pytest.raises(ParseError, match=r"^line 2: i<j required with 1 <= i < j <= n$"):
            parse_lts(text)
    with pytest.raises(ParseError, match=r"^line 2: i<j required with 1 <= i < j <= m$"):
        parse_lie(f"LIE 2\n1 {huge} 1 1\n")


def test_index_tokens_are_ascii_digits():
    # int() reads each of these as an integer, the formats do not; \u0661 is
    # the Arabic-Indic digit one
    for tok in ("+1", "1_0", "\u0661", "-1"):
        for slot in range(4):
            toks = ["1", "2", "1", "2"]
            toks[slot] = tok
            with pytest.raises(ParseError, match=r"^line 2: indices must be integers$"):
                parse_lts("LTS 2\n" + " ".join(toks) + " 1\n")
            if slot < 3:
                with pytest.raises(ParseError, match=r"^line 2: indices must be integers$"):
                    parse_lie("LIE 2\n" + " ".join(toks[:3]) + " 1\n")


def test_index_tokens_may_have_leading_zeros():
    assert parse_lts("LTS 2\n01 002 1 02 1\n") == parse_lts("LTS 2\n1 2 1 2 1\n")
    assert parse_lie("LIE 3\n01 02 003 1\n") == parse_lie("LIE 3\n1 2 3 1\n")
    # more zeros than int() converts
    zeros = "0" * 5000
    assert parse_lts(f"LTS {zeros}2\n1 2 1 {zeros}2 1\n") == parse_lts("LTS 2\n1 2 1 2 1\n")
    assert parse_lie(f"LIE {zeros}3\n1 {zeros}2 3 1\n") == parse_lie("LIE 3\n1 2 3 1\n")
    with pytest.raises(ParseError, match=r"^line 3: duplicate entry \(1,2,1,2\)$"):
        parse_lts("LTS 2\n1 2 1 2 1\n01 2 1 2 3\n")
    with pytest.raises(ParseError, match=r"^line 3: duplicate entry \(1,2,3\)$"):
        parse_lie("LIE 3\n1 2 3 1\n1 2 03 2\n")
