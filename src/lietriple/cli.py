"""Command-line interface.

Exit codes: 0 affirmative/success, 1 usage/IO/parse error, 2 negative
verdict, 3 unknown (inconclusive isomorphism search).  All output is
deterministic ASCII with LF line endings.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from . import catalog
from .classify import (
    DEFAULT_ISO_BUDGET,
    UnsupportedDimension,
    classify as classify_op,
    fingerprint,
    isomorphic,
)
from .core import InvalidLTS, check_axioms, derived_series, require_axioms
from .embed import lts_radical, standard_embedding
from .exactla import full_subspace
from .formats import ParseError, parse_lie, parse_lts, serialize_lie, serialize_lts
from .lie import InvalidGrading, check_jacobi, lie_to_lts


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise _CliError(f"cannot read {path}: byte 0x{byte:02x} at offset {exc.start} is not ASCII") from exc


class _CliError(Exception):
    pass


def _write_out(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError(f"cannot write {out}: {exc.strerror}") from exc


def _load_lts(path: str):
    return parse_lts(_read(path))


def _print_verdict(verdict) -> int:
    """``valid`` (exit 0), or the first violation of the verdict's identity (exit 2)."""
    if verdict:
        print("valid")
        return 0
    residual = " ".join(str(x) for x in verdict.residual)
    indices = ",".join(str(i) for i in verdict.indices)
    print(f"{verdict.kind} identity violated at ({indices}): residual {residual}")
    return 2


def cmd_check(args) -> int:
    return _print_verdict(check_axioms(_load_lts(args.path)))


def cmd_embed(args) -> int:
    emb = standard_embedding(_load_lts(args.path))
    _write_out(serialize_lie(emb.algebra, emb.grading), args.output)
    return 0


def cmd_series(args) -> int:
    t = _load_lts(args.path)
    require_axioms(t)
    series = derived_series(t, full_subspace(t.dim))
    print("dims: " + " ".join(str(d) for d in series.dims))
    print("solvable: " + ("yes" if series.solvable else "no"))
    return 0 if series.solvable else 2


def cmd_radical(args) -> int:
    radical = lts_radical(_load_lts(args.path))
    print(f"dim: {radical.dim}")
    for row in radical.vectors():
        print(" ".join(str(x) for x in row))
    return 0


def cmd_fingerprint(args) -> int:
    fp = fingerprint(_load_lts(args.path))
    for field in dataclasses.fields(fp):
        value = getattr(fp, field.name)
        if field.name == "g_killing":
            text = f"{value.positive} {value.negative} {value.zero}"
        elif isinstance(value, tuple):
            text = " ".join(str(x) for x in value)
        elif isinstance(value, bool):
            text = "yes" if value else "no"
        else:
            text = str(value)
        print(f"{field.name}: {text}")
    return 0


def cmd_classify(args) -> int:
    labels = classify_op(_load_lts(args.path))
    if not labels:
        print("no match")
        return 2
    for label in labels:
        print(label)
    return 0


def cmd_iso(args) -> int:
    a = _load_lts(args.path_a)
    b = _load_lts(args.path_b)
    result = isomorphic(a, b, budget=args.budget)
    if result.verdict == "isomorphic":
        print("isomorphic")
        for row in result.witness.entries:
            print(" ".join(str(x) for x in row))
        return 0
    if result.verdict == "non_isomorphic":
        print(f"non-isomorphic separator={result.separator}")
        return 2
    print("unknown")
    return 3


def cmd_catalog(args) -> int:
    if args.list:
        for label in catalog.labels():
            print(label)
        return 0
    try:
        entry = catalog.get(args.dump)
    except KeyError:
        raise _CliError(f"unknown catalog label {args.dump!r}") from None
    _write_out(serialize_lts(entry.system), args.output)
    return 0


def cmd_lie_check(args) -> int:
    g, _ = parse_lie(_read(args.path))
    return _print_verdict(check_jacobi(g))


def cmd_lie_to_lts(args) -> int:
    g, grading = parse_lie(_read(args.path))
    if grading is None:
        raise _CliError("input file has no GRADE line")
    t = lie_to_lts(g, grading)
    require_axioms(t)
    _write_out(serialize_lts(t), args.output)
    return 0


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lietriple",
        description="Exact-arithmetic Lie triple systems: verify, embed, classify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def budget(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be non-negative: {text}")
        return value

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("check", cmd_check, "verify the defining identities of a triple-system file")
    p.add_argument("path")

    p = add("embed", cmd_embed, "write the enveloping graded Lie algebra")
    p.add_argument("path")
    p.add_argument("-o", "--output", default=None)

    p = add("series", cmd_series, "derived series dimensions and solvability")
    p.add_argument("path")

    p = add("radical", cmd_radical, "maximal solvable ideal, as canonical basis rows")
    p.add_argument("path")

    p = add("fingerprint", cmd_fingerprint, "basis-independent invariant fingerprint")
    p.add_argument("path")

    p = add("classify", cmd_classify, "match against the built-in catalog")
    p.add_argument("path")

    p = add("iso", cmd_iso, "test two files for isomorphism")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--budget", type=budget, default=DEFAULT_ISO_BUDGET)

    p = add("catalog", cmd_catalog, "list catalog labels or dump one entry")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--dump", metavar="LABEL")
    p.add_argument("-o", "--output", default=None)

    p = add("lie-check", cmd_lie_check, "verify the Jacobi identity of a Lie-algebra file")
    p.add_argument("path")

    p = add("lie-to-lts", cmd_lie_to_lts, "restrict a graded Lie algebra to its triple system")
    p.add_argument("path")
    p.add_argument("-o", "--output", default=None)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error {exc}", file=sys.stderr)
        return 1
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (InvalidLTS, InvalidGrading, UnsupportedDimension) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
