import subprocess
import sys
import time
from pathlib import Path

import pytest

from lietriple import catalog, cli, serialize_lts
from lietriple.cli import main
from util import sphere_system

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def dump(tmp_path, label, name=None):
    path = tmp_path / (name or f"{label}.lts")
    path.write_text(serialize_lts(catalog.get(label).system), newline="")
    return str(path)


def test_check_valid(capsys, tmp_path):
    code, out, _ = run(capsys, "check", dump(tmp_path, "dim3-II"))
    assert (code, out) == (0, "valid\n")


def test_check_parse_error_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.lts"
    path.write_text("LTS 2\n1 1 2 2 1\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 1
    assert "line 2" in err and "i<j required" in err


def test_check_huge_header_exit_1(capsys, tmp_path):
    path = tmp_path / "huge.lts"
    path.write_text("LTS 100000\n")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert "line 1" in err and "above the limit" in err


def test_check_at_the_header_limit_is_fast(capsys, tmp_path):
    path = tmp_path / "sphere12.lts"
    path.write_text(serialize_lts(sphere_system(12)), newline="")
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", str(path))
    assert (code, out) == (0, "valid\n")
    assert time.perf_counter() - start < 1.0


def test_non_ascii_input_exit_1(capsys, tmp_path):
    cases = (("check", b"LTS 2\n# \xc2\xb2\n", "0xc2", 8), ("lie-check", b"LIE \xb2\n", "0xb2", 4))
    for command, text, byte, offset in cases:
        path = tmp_path / "bad.txt"
        path.write_bytes(text)
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, "")
        assert err == f"cannot read {path}: byte {byte} at offset {offset} is not ASCII\n"


def test_zero_dimensional_fingerprint_and_iso(capsys, tmp_path):
    path = tmp_path / "zero.lts"
    path.write_text("LTS 0\n")
    code, out, _ = run(capsys, "fingerprint", str(path))
    assert code == 0
    assert "dim_m: 0\n" in out and "g_killing: 0 0 0\n" in out
    # the zero space is listed once in each series
    for name in ("m_derived_dims", "g_derived_dims", "g_lcs_dims"):
        assert f"\n{name}: 0\n" in out
    code, out, _ = run(capsys, "series", str(path))
    assert (code, out) == (0, "dims: 0\nsolvable: yes\n")
    code, out, _ = run(capsys, "iso", str(path), str(path))
    assert (code, out) == (0, "isomorphic\n")


def test_check_axiom_violation_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.lts"
    path.write_text("LTS 3\n1 2 3 1 1\n")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 2
    assert out.startswith("cyclic identity violated at (1,2,3)")


def test_embed_golden_files(capsys, tmp_path):
    cases = {
        "dim3-I": "dim3-I.lie",
        "dim3-II": "dim3-II.lie",
        "dim3-V+": "dim3-Vplus.lie",
        "dim3-V-": "dim3-Vminus.lie",
        "dim2-1": "dim2-1.lie",
    }
    for label, golden in cases.items():
        code, out, _ = run(capsys, "embed", dump(tmp_path, label, "in.lts"))
        assert code == 0
        assert out == (GOLDEN / golden).read_text(), label


def test_embed_output_file(capsys, tmp_path):
    out_path = tmp_path / "out.lie"
    code, _, _ = run(capsys, "embed", dump(tmp_path, "dim3-II"), "-o", str(out_path))
    assert code == 0
    assert out_path.read_text() == (GOLDEN / "dim3-II.lie").read_text()


def test_series_solvable(capsys, tmp_path):
    code, out, _ = run(capsys, "series", dump(tmp_path, "dim2-4a"))
    assert code == 0
    assert out == "dims: 2 1 0\nsolvable: yes\n"


def test_series_not_solvable_exit_2(capsys, tmp_path):
    code, out, _ = run(capsys, "series", dump(tmp_path, "dim2-1"))
    assert code == 2
    assert out == "dims: 2 2\nsolvable: no\n"


def test_series_rejects_an_invalid_system_exit_2(capsys, tmp_path):
    # the classical seventh solvable type, which violates the derivation identity
    path = tmp_path / "seventh.lts"
    path.write_text("LTS 3\n1 3 2 1 1\n2 3 1 1 1\n")
    code, out, err = run(capsys, "series", str(path))
    assert (code, out, err) == (2, "", "error: derivation identity violated at (1, 3, 2, 3, 2)\n")


def test_radical_output(capsys, tmp_path):
    code, out, _ = run(capsys, "radical", dump(tmp_path, "split-2"))
    assert code == 0
    assert out == "dim: 1\n1 0 0\n"


def test_fingerprint_output(capsys, tmp_path):
    code, out, _ = run(capsys, "fingerprint", dump(tmp_path, "dim3-II"))
    assert code == 0
    assert out == (
        "dim_m: 3\n"
        "m_derived_dims: 3 1 0\n"
        "m_center_dim: 1\n"
        "lts_radical_dim: 3\n"
        "h_dim: 1\n"
        "g_dim: 4\n"
        "g_derived_dims: 4 2 0\n"
        "g_lcs_dims: 4 2 1 0\n"
        "g_killing: 0 0 4\n"
        "g_radical_dim: 4\n"
        "g_center_dim: 1\n"
        "canonical: yes\n"
    )


def test_classify_self(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", dump(tmp_path, "dim3-I"))
    assert (code, out) == (0, "dim3-I\n")


def test_classify_tie(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", dump(tmp_path, "split-5"))
    assert code == 0
    assert out == "split-5\nsplit-6\n"


def test_classify_no_match_exit_2(capsys, tmp_path):
    # (x,y,z) = [[x,y],z] on sl(2): simple, hence outside the catalog
    from test_classify import sl2_double_bracket_system

    path = tmp_path / "sl2.lts"
    path.write_text(serialize_lts(sl2_double_bracket_system()), newline="")
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 2
    assert out == "no match\n"


def test_iso_non_isomorphic_exit_2(capsys, tmp_path):
    a = dump(tmp_path, "dim2-4a", "a.lts")
    b = dump(tmp_path, "dim2-4b", "b.lts")
    code, out, _ = run(capsys, "iso", a, b)
    assert code == 2
    assert out == "non-isomorphic separator=g_killing\n"


def test_iso_isomorphic_exit_0(capsys, tmp_path):
    a = dump(tmp_path, "dim3-IV+", "a.lts")
    b = dump(tmp_path, "dim3-III+", "b.lts")
    code, out, _ = run(capsys, "iso", a, b)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "isomorphic"
    assert len(lines) == 4  # witness rows follow


def test_iso_unknown_exit_3(capsys, tmp_path):
    a = dump(tmp_path, "dim2-2", "a.lts")
    b = dump(tmp_path, "dim2-3", "b.lts")
    code, out, _ = run(capsys, "iso", a, b, "--budget", "2000")
    assert code == 3
    assert out == "unknown\n"


def test_usage_errors_exit_1(capsys, tmp_path):
    a = dump(tmp_path, "dim2-2", "a.lts")
    b = dump(tmp_path, "dim2-3", "b.lts")
    for argv in (["iso", a, b, "--budget", "x"], ["frobnicate"], []):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("usage: "), argv


def test_iso_negative_budget_is_usage_error(capsys, tmp_path):
    a = dump(tmp_path, "dim2-2", "a.lts")
    b = dump(tmp_path, "dim2-3", "b.lts")
    code, out, err = run(capsys, "iso", a, b, "--budget", "-5")
    assert (code, out) == (1, "")
    assert "--budget: must be non-negative: -5" in err


def test_help_exit_0(capsys):
    for argv in (["--help"], ["iso", "--help"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert out.startswith("usage: lietriple"), argv


def test_one_parser_serves_every_call(capsys, tmp_path):
    """The parser is built once per process; a call after a usage error,
    a --help or a non-default option reads as on a fresh parser."""
    a = dump(tmp_path, "dim3-III+", "a.lts")
    b = dump(tmp_path, "dim3-IV+", "b.lts")
    calls = (
        ["iso", a, b, "--budget", "x"],
        ["fingerprint", a],
        ["--help"],
        ["iso", a, b, "--budget", "5"],
        ["iso", a, b],
    )
    in_one_process = [run(capsys, *argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert in_one_process == fresh
    assert [code for code, _, _ in fresh] == [1, 0, 0, 3, 0]


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "--list")
    assert code == 0
    assert out.splitlines() == catalog.labels()


def test_catalog_dump_round_trip(capsys):
    code, out, _ = run(capsys, "catalog", "--dump", "split-5")
    assert code == 0
    assert out == serialize_lts(catalog.get("split-5").system)


def test_catalog_dump_unknown_label(capsys):
    code, _, err = run(capsys, "catalog", "--dump", "dim3-VII")
    assert code == 1
    assert "unknown catalog label" in err


def test_lie_check(capsys, tmp_path):
    path = tmp_path / "g.lie"
    path.write_text("LIE 3\n1 2 3 1\n1 3 1 1\n")
    code, out, _ = run(capsys, "lie-check", str(path))
    assert code == 2
    assert out.startswith("jacobi identity violated at (1,2,3)")
    path.write_text("LIE 3\n1 2 3 1\n")
    code, out, _ = run(capsys, "lie-check", str(path))
    assert (code, out) == (0, "valid\n")


@pytest.mark.parametrize(
    "command, text, out",
    [
        ("check", "LTS 3\n1 2 3 1 1\n", "cyclic identity violated at (1,2,3): residual 1 0 0\n"),
        ("check", "LTS 3\n1 2 3 1 1/3\n", "cyclic identity violated at (1,2,3): residual 1/3 0 0\n"),
        # the classical seventh solvable type
        ("check", "LTS 3\n1 3 2 1 1\n2 3 1 1 1\n", "derivation identity violated at (1,3,2,3,2): residual -2 0 0\n"),
        (
            "check",
            "LTS 3\n1 3 2 1 1/2\n2 3 1 1 1/2\n",
            "derivation identity violated at (1,3,2,3,2): residual -1/2 0 0\n",
        ),
        ("lie-check", "LIE 3\n1 2 3 1\n1 3 1 1\n", "jacobi identity violated at (1,2,3): residual 0 0 -1\n"),
        ("lie-check", "LIE 3\n1 2 3 1/2\n1 3 1 1/3\n", "jacobi identity violated at (1,2,3): residual 0 0 -1/6\n"),
        (
            "lie-check",
            "LIE 4\nGRADE - - - +\n1 2 4 1\n1 4 1 1\n2 4 3 1\n3 4 1 1\n",
            "jacobi identity violated at (1,2,3): residual -1 0 0 0\n",
        ),
    ],
)
def test_identity_violations_print_their_kind_indices_and_residual(capsys, tmp_path, command, text, out):
    path = tmp_path / "in.txt"
    path.write_text(text)
    assert run(capsys, command, str(path)) == (2, out, "")


def test_lie_to_lts_round_trip(capsys, tmp_path):
    src = dump(tmp_path, "split-3", "in.lts")
    lie_path = tmp_path / "mid.lie"
    code, _, _ = run(capsys, "embed", src, "-o", str(lie_path))
    assert code == 0
    code, out, _ = run(capsys, "lie-to-lts", str(lie_path))
    assert code == 0
    assert out == Path(src).read_text()


def test_lie_to_lts_requires_grade(capsys, tmp_path):
    path = tmp_path / "g.lie"
    path.write_text("LIE 2\n1 2 1 1\n")
    code, _, err = run(capsys, "lie-to-lts", str(path))
    assert code == 1
    assert "no GRADE line" in err


def test_lie_to_lts_rejects_a_restriction_that_is_no_triple_system_exit_2(capsys, tmp_path):
    # a valid grading of a bracket table that fails the Jacobi identity
    path = tmp_path / "g.lie"
    path.write_text("LIE 4\nGRADE - - - +\n1 2 4 1\n1 4 1 1\n2 4 3 1\n3 4 1 1\n")
    code, out, _ = run(capsys, "lie-check", str(path))
    assert (code, out[:35]) == (2, "jacobi identity violated at (1,2,3)")
    out_path = tmp_path / "out.lts"
    for extra in ((), ("-o", str(out_path))):
        code, out, err = run(capsys, "lie-to-lts", str(path), *extra)
        assert (code, out, err) == (2, "", "error: cyclic identity violated at (1, 2, 3)\n")
    assert not out_path.exists()


def test_write_failures_exit_1(capsys, tmp_path):
    lie_path = tmp_path / "g.lie"
    lie_path.write_text("LIE 2\nGRADE - +\n")
    missing = str(tmp_path / "missing" / "out")
    for argv in (
        ("embed", dump(tmp_path, "dim3-II"), "-o", missing),
        ("catalog", "--dump", "split-5", "-o", missing),
        ("lie-to-lts", str(lie_path), "-o", missing),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith(f"cannot write {missing}: ") and "Traceback" not in err, argv


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/path.lts")
    assert code == 1
    assert "cannot read" in err


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "lietriple", "catalog", "--list"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines() == catalog.labels()


def test_outputs_are_deterministic(capsys, tmp_path):
    path = dump(tmp_path, "split-6")
    first = run(capsys, "fingerprint", path)
    second = run(capsys, "fingerprint", path)
    assert first == second
