"""The seeded workloads and the oracles that check every operation.

A workload is a seeded pool of *passes*, cycled; a pass is a list of
operations.  Every operation is one ``lietriple`` CLI command run in
process through ``lietriple.cli.main`` on generated ``.lts`` files, except
the library round trip of ``sphere``.  Each operation carries its own
expectation, computed by the benchmark alone (see ``tensors.py``) or read
from the frozen catalog fingerprints; ``check`` compares an operation's
result against it and names the mismatch.

Roles select what an operation feeds besides ``pass_cost``: ``main`` feeds
``p50``/``tail`` and ``side`` feeds ``side_p50``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
from fractions import Fraction
from pathlib import Path

import tensors as tz

MAIN, SIDE = "main", "side"

# Catalog groups whose members share one fingerprint.  The first three are
# pairs of isomorphic systems, the last three are not isomorphic over Q.
TIED_GROUPS = (
    ("dim3-III+", "dim3-IV+"),
    ("dim3-III-", "dim3-IV-"),
    ("split-5", "split-6"),
    ("dim2-2", "dim2-3"),
    ("split-1b", "split-1c"),
    ("split-3", "split-4"),
)
ISOMORPHIC_GROUPS = TIED_GROUPS[:3]

ISO_BUDGET = 20_000  # iso --budget in tied; equals the default classify budget

# Basis-change entries.  orbit mixes integers with small-denominator
# rationals so coefficient height varies; tied uses entries whose inverse
# changes mostly lie beyond the search's first stages.
ORBIT_VALUES = (0, 0, 1, -1, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-3, 2))
TIED_VALUES = (0, 1, -1, 3, -3, Fraction(1, 3), Fraction(-1, 3))
LEVEL1_VALUES = (0, 1, -1)


@dataclasses.dataclass
class Op:
    """One operation: a CLI command (``argv``) or a library round trip."""

    kind: str
    argv: list
    expect: dict
    role: str | None = None


@dataclasses.dataclass
class Result:
    code: int | None
    out: str
    err: str


def run_op(lib, op: Op) -> Result:
    """Execute an operation; library attributes are looked up at call time."""
    if op.kind == "roundtrip":
        text = Path(op.argv[0]).read_text(encoding="ascii")
        g, grading = lib.parse_lie(text)
        return Result(0, lib.serialize_lts(lib.lie_to_lts(g, grading)), "")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(op.argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code if isinstance(exc.code, int) else 1
    return Result(code, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------- oracles


def fingerprint_lines(fp) -> list[str]:
    """The CLI text of a fingerprint value, field by field, as documented."""
    lines = []
    for field in dataclasses.fields(fp):
        value = getattr(fp, field.name)
        if hasattr(value, "positive"):
            text = f"{value.positive} {value.negative} {value.zero}"
        elif isinstance(value, tuple):
            text = " ".join(str(x) for x in value)
        elif isinstance(value, bool):
            text = "yes" if value else "no"
        else:
            text = str(value)
        lines.append(f"{field.name}: {text}")
    return lines


def sphere_fields(k: int) -> dict:
    """Invariants of the sphere on Q^k from theory: G = so(k+1), compact simple."""
    g = k * (k + 1) // 2
    return {
        "dim_m": f"{k}",
        "m_derived_dims": f"{k} {k}",
        "m_center_dim": "0",
        "lts_radical_dim": "0",
        "h_dim": f"{k * (k - 1) // 2}",
        "g_dim": f"{g}",
        "g_derived_dims": f"{g} {g}",
        "g_lcs_dims": f"{g} {g}",
        "g_killing": f"0 {g} 0",
        "g_radical_dim": "0",
        "g_center_dim": "0",
        "canonical": "yes",
    }


def _witness(out: str):
    rows = [line.split() for line in out.splitlines()[1:]]
    return [[Fraction(x) for x in row] for row in rows]


def check(op: Op, res: Result) -> str | None:
    """None when the result meets the expectation, else the mismatch."""
    e = op.expect
    k = op.kind
    if k == "reject":
        if res.code != 2 or "cyclic" not in res.err or res.out:
            return f"expected exit 2 with a cyclic error, got exit {res.code}: {res.err.strip()!r}"
        return None
    if res.code not in e.get("codes", (0,)):
        return f"exit {res.code}: {res.err.strip()!r}"
    if k == "fingerprint":
        if res.out.splitlines() != e["lines"]:
            return "fingerprint differs from the frozen one"
        return None
    if k == "sphere-fingerprint":
        got = dict(line.split(": ", 1) for line in res.out.splitlines())
        bad = [name for name, value in e["fields"].items() if got.get(name) != value]
        return f"fingerprint fields {bad} differ from so(k+1) theory" if bad else None
    if k == "embed":
        m, signs, _ = tz.parse_lie(Path(e["lie_path"]).read_text(encoding="ascii"))
        if m != e["g_dim"] or signs is None or signs.count("-") != e["k"]:
            return f"embedding has dim {m}, grading {signs}"
        return None
    if k == "roundtrip":
        if tz.parse_lts(res.out) != e["tensor"]:
            return "lie_to_lts(parse_lie(embed)) differs from the input tensor"
        return None
    if k == "classify":
        labels = res.out.split()
        if e["label"] not in labels or not set(labels) <= set(e["group"]) or len(set(labels)) != len(labels):
            return f"classify gave {labels} for a member of {e['group']} labelled {e['label']}"
        return None
    if k == "iso-hit":
        if not res.out.startswith("isomorphic\n"):
            return f"expected a witness, got {res.out.strip()!r}"
        n, a = e["a"]
        try:
            image = tz.change_basis(n, a, _witness(res.out))
        except (ValueError, IndexError, ZeroDivisionError):
            return "witness is not an invertible n x n matrix"
        return None if image == e["b"][1] else "witness does not carry a onto b"
    if k == "iso-miss":
        # the pair has no rational witness: unknown, or a certified negative
        if res.out.split()[:1] not in (["unknown"], ["non-isomorphic"]):
            return f"pair without a rational witness answered {res.out.strip()!r}"
        return None
    raise ValueError(f"unknown operation kind {k!r}")


# -------------------------------------------------------------- workloads


class Workload:
    """Seeded inputs: a pool of passes, built up front and cycled.

    Cycling runs every operation several times in a run, so that the
    median of its repeats can stand for its cost (see run.py).
    """

    name = ""
    main_kind = ""
    side_kind = ""
    tail_pct = 50

    def __init__(self, lib, seed: int, workdir: Path, small: bool = False):
        self.workdir = workdir
        self.small = small
        self.rng = random.Random(f"{self.name}:{seed}")
        self._files = 0
        # (n, source tensor, T, changed tensor) for every basis change made,
        # in order; the traced run replays the first ones through transform
        self.changes = []
        self.catalog = {}
        for entry in lib.catalog.all_entries():
            self.catalog[entry.label] = tz.parse_lts(lib.serialize_lts(entry.system))
        self.frozen = dict(lib.catalog_data.EXPECTED_FINGERPRINTS)
        self.pool = []

    def write(self, text: str) -> str:
        self._files += 1
        path = self.workdir / f"{self.name}-{self._files}.lts"
        path.write_text(text, encoding="ascii")
        return str(path)

    def pass_ops(self, p: int) -> list[Op]:
        return self.pool[p % len(self.pool)]


class Orbit(Workload):
    """Catalog entries under seeded basis changes, through ``fingerprint``.

    A pass holds every catalog entry once under its own change, plus
    ``INVALID`` 3-dim inputs with one product perturbed so that the cyclic
    identity fails; those must be rejected.  The pool holds ``POOL`` passes.
    """

    name = "orbit"
    main_kind = "fingerprint"
    side_kind = "reject"
    # p99 of the 1104 inputs has eleven beyond it but moved by 40% between
    # seeds here; p90 moved by 14%
    tail_pct = 90
    POOL = 48
    INVALID = 4

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        labels = list(self.catalog)
        if self.small:
            labels = labels[:2] + labels[6:9]
        self.pool = [self._make_pass(labels) for _ in range(2 if self.small else self.POOL)]

    def _make_pass(self, labels):
        ops = []
        for label in labels:
            n, tensor = self.catalog[label]
            T = tz.random_matrix(self.rng, n, ORBIT_VALUES)
            changed = tz.change_basis(n, tensor, T)
            self.changes.append((n, tensor, T, changed))
            path = self.write(tz.format_lts(n, changed))
            lines = fingerprint_lines(self.frozen[label])
            ops.append(Op("fingerprint", ["fingerprint", path], {"lines": lines}, MAIN))
        three = [label for label in labels if self.catalog[label][0] == 3]
        for label in self.rng.sample(three, min(self.INVALID, len(three))):
            n, tensor = self.catalog[label]
            T = tz.random_matrix(self.rng, n, ORBIT_VALUES)
            bad = tz.perturb_cyclic(self.rng, n, tz.change_basis(n, tensor, T))
            ops.append(Op("reject", ["fingerprint", self.write(tz.format_lts(n, bad))], {}, SIDE))
        self.rng.shuffle(ops)
        return ops


class Sphere(Workload):
    """(x, y, z) = <x,z> y - <y,z> x on Q^k, k = 3..7, plain and basis-changed.

    The one pass holds every system of the family: k = 3..7 plain and a
    seeded basis change for k <= 6.  Each system gets ``fingerprint``,
    ``embed -o`` and the library round trip parse_lie -> lie_to_lts ->
    serialize_lts of the emitted file; the largest system gets them
    ``LARGEST_REPEATS`` times, as they alone give the latency metrics.
    """

    name = "sphere"
    main_kind = "sphere-fingerprint"
    side_kind = "embed"
    # One main input (the plain k = 7 system): no percentile has ten
    # samples beyond it, so the tail is reported at the median.
    tail_pct = 50
    LARGEST_REPEATS = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        kmax = 4 if self.small else 7
        kmax_changed = 3 if self.small else 6
        self.plain_systems = [tz.sphere(tz.gram(_identity(k))) for k in range(3, kmax + 1)]
        ops = []
        for k, tensor in self.plain_systems:
            ops += self._ops((k, tensor), k == kmax) * (self.LARGEST_REPEATS if k == kmax else 1)
            if k <= kmax_changed:
                T = tz.tridiagonal_change(self.rng, k)
                changed = tz.sphere(tz.gram(T))
                self.changes.append((k, tensor, T, changed[1]))
                ops += self._ops(changed, False)
        self.pool = [ops]

    def _ops(self, system, largest):
        k, tensor = system
        path = self.write(tz.format_lts(k, tensor))
        lie_path = path[: -len(".lts")] + ".lie"
        g = k * (k + 1) // 2
        return [
            Op("sphere-fingerprint", ["fingerprint", path], {"fields": sphere_fields(k)}, MAIN if largest else None),
            Op("embed", ["embed", path, "-o", lie_path], {"lie_path": lie_path, "g_dim": g, "k": k}, SIDE if largest else None),
            Op("roundtrip", [lie_path], {"tensor": (k, tensor)}),
        ]


class Tied(Workload):
    """Inputs whose fingerprints are tied in the catalog.

    The one pass classifies seeded basis changes of ``MEMBERS`` seeded
    members of each of the six tied groups, and runs ``iso --budget ISO_BUDGET`` on pairs with a
    witness (the three isomorphic groups both ways round, which are the
    side operations, ``SIDE_REPEATS`` times each, and three members against
    a known change with entries in {0, 1, -1}) and on two pairs without a
    rational witness: the form diag(1, 2) against dim2-1, and both summed
    with a line.
    """

    name = "tied"
    main_kind = "classify"
    side_kind = "iso-hit"
    tail_pct = 75
    # Three members per group so that the classify quantiles rest on 18
    # inputs: one classify takes about a second, so a run holds only about
    # 25.  The side operations take milliseconds and run this many times
    # per pass, so that their median is taken over about ten tries.
    MEMBERS = 3
    SIDE_REPEATS = 4

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        groups = TIED_GROUPS[3:4] if self.small else TIED_GROUPS
        self.paths = {label: self.write(tz.format_lts(*self.catalog[label])) for label in self.catalog}
        ops = []
        members = [(self.rng.choice(group), group) for group in groups for _ in range(1 if self.small else self.MEMBERS)]
        for label, group in members:
            n, tensor = self.catalog[label]
            T = tz.random_matrix(self.rng, n, TIED_VALUES)
            changed = tz.change_basis(n, tensor, T)
            self.changes.append((n, tensor, T, changed))
            path = self.write(tz.format_lts(n, changed))
            ops.append(Op("classify", ["classify", path], {"label": label, "group": group}, MAIN))
        if not self.small:
            pairs = []
            for a_label, b_label in ISOMORPHIC_GROUPS:
                pairs.append(self._iso_hit(a_label, self.paths[b_label], self.catalog[b_label], SIDE))
                pairs.append(self._iso_hit(b_label, self.paths[a_label], self.catalog[a_label], SIDE))
            ops += pairs * self.SIDE_REPEATS
        for label, _ in self.rng.sample(members, 1 if self.small else 3):
            n, tensor = self.catalog[label]
            changed = tz.change_basis(n, tensor, tz.random_matrix(self.rng, n, LEVEL1_VALUES))
            ops.append(self._iso_hit(label, self.write(tz.format_lts(n, changed)), (n, changed), SIDE if self.small else None))
        diag12 = {(0, 1, 0): (Fraction(0), Fraction(1)), (0, 1, 1): (Fraction(-2), Fraction(0))}
        miss_pairs = [(self.write(tz.format_lts(2, diag12)), self.paths["dim2-1"])]
        if not self.small:
            dim2_1 = self.catalog["dim2-1"][1]
            miss_pairs.append(
                (self.write(tz.format_lts(3, tz.with_line(diag12))), self.write(tz.format_lts(3, tz.with_line(dim2_1))))
            )
        for a_path, b_path in miss_pairs:
            ops.append(Op("iso-miss", ["iso", a_path, b_path, "--budget", str(ISO_BUDGET)], {"codes": (2, 3)}))
        self.pool = [ops]

    def _iso_hit(self, a_label, b_path, b, role=None):
        a = self.catalog[a_label]
        argv = ["iso", self.paths[a_label], b_path, "--budget", str(ISO_BUDGET)]
        return Op("iso-hit", argv, {"a": a, "b": b}, role)


def _identity(k):
    return [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]


WORKLOADS = {w.name: w for w in (Orbit, Sphere, Tied)}


def classify_exact(op: Op, res: Result) -> bool:
    """classify returned exactly the catalog labels isomorphic to the input."""
    truth = set(op.expect["group"]) if tuple(op.expect["group"]) in ISOMORPHIC_GROUPS else {op.expect["label"]}
    return set(res.out.split()) == truth
