"""Benchmark of lietriple, end to end through its CLI and layer by layer.

Usage, from the root of a source checkout (nothing is built or installed;
the package is imported from ``src/``)::

    python3 perfbench/run.py --workload {orbit,sphere,tied} --seed N \\
        --seconds S --trace {0,1}

Each workload is a closed loop with one client in one process, no threads:
an operation starts when the previous one has returned.  Its inputs are a
pool of passes (see ``workloads.py``), generated from ``--seed`` only,
written as ``.lts`` files under ``perfbench/out/`` and handed to
``lietriple.cli.main``; every result is checked by an oracle that does not
come from the code under test.  The pool's operations are cycled, in order,
until ``--seconds`` have been spent on them and on the reference below, and
at least once; at 30 s an operation runs twice in orbit, three times in
sphere (six on the largest system) and once or twice in tied.

Workloads
---------
orbit   the 23 catalog entries under seeded basis changes mixing integer and
        small-denominator rational entries, through ``fingerprint``; the
        output must equal the frozen catalog fingerprint.  Each pass also
        holds 4 changed 3-dim entries with one product perturbed (i < j,
        k not in {i, j}), which breaks the cyclic identity: ``fingerprint``
        must exit 2 with a ``cyclic`` error.  48 passes in the pool.  Small
        n: per-call cost in core/embed/lie dominates; no witness search.
sphere  (x, y, z) = <x,z> y - <y,z> x on Q^k for k = 3..7, plain, plus a
        seeded basis change for k <= 6.  Each system runs ``fingerprint``
        (checked against so(k+1) theory: g_dim k(k+1)/2, Killing (0, g_dim,
        0), radical 0, centre 0, m_derived_dims (k, k), canonical), ``embed
        -o`` and the library round trip parse_lie -> lie_to_lts ->
        serialize_lts of the emitted file, which must give back the input
        tensor.  One pass, the family, with the operations on the largest
        system twice.  Large n: the asymptotic cost of standard_embedding.
tied    ``classify`` of seeded basis changes of three seeded members of each
        of the six fingerprint-tied catalog groups (default budget 20000): the
        labels must contain the member's own and lie within its group.
        ``iso --budget 20000`` on pairs with a witness (III+/IV+, III-/IV-,
        split-5/6 both ways round and four times, three members against a
        known change with entries in {0, 1, -1}), whose printed witness is
        re-verified by the benchmark's own basis change; and on two pairs
        without a rational witness (diag(1, 2) against dim2-1, and both
        summed with a line), which must not answer ``isomorphic``.  One
        pass.  The witness kernel does the work.

End-to-end metrics (``--trace 0``)
----------------------------------
Costs are given in units of a reference computation timed next to them:
the exact Gauss-Jordan inverse of one fixed 4 x 4 rational matrix by the
benchmark's own ``tensors.inverse``, the same kind of pure-Python
``Fraction`` work the library does.  The reference runs three times
between two operations and, from a timer signal, every 10 ms during one;
the samples' own time is left out of the operation's.  An execution's time
is divided by the median of the reference samples from the block before it
to the block after it.  On a machine shared with other load, all code runs
faster or slower together, over seconds and over minutes: measured on 2
shared cores, the medians of 30 s windows of the same operations moved by
22% (interquartile range over median), and a 1.5 s operation ran in 1.0 s
or 1.7 s as the machine switched between a fast and a slow state within
seconds, while its ratio to the reference sampled during it moved by 7%.
A change to the library moves these ratios as it moves its times; the
reference does not depend on the library.  The raw times, the reference's
median in ms and its sample count are printed and recorded beside them.

An operation's cost is the median of its repeats in the run.  Latency
metrics are statistics over the distinct inputs of that cost; the
benchmark's own checking is not timed.  "main" and "side" operations per
workload:

    workload  main (p50, tail)               side (side_p50)
    orbit     fingerprint, valid input        fingerprint, planted invalid
    sphere    fingerprint, plain k = 7        embed, plain k = 7
    tied      classify                        iso on III+/IV+, III-/IV-,
                                              split-5/6, both ways round

setup_s      s    median of 15 fresh interpreters running
                  ``python -m lietriple catalog --list`` (import, catalog
                  build, CLI), started at even steps through the run and
                  each checked against the frozen labels; in seconds, not
                  reference units
pass_cost    ref  cost of one pass, the sum of the costs of its distinct
                  operations; median over the pool's passes (sphere: the
                  whole family)
p50          ref  median cost of the main operation over its inputs
tail         ref  main operation at the workload's fixed tail percentile,
                  nearest rank: orbit p90 (1104 inputs), tied p75 (18);
                  sphere has one main input, so its tail is reported at
                  p50.  The percentile and the inputs beyond it are recorded
side_p50     ref  median cost of the side operation over its inputs

Per-layer metrics (``--trace 1``)
---------------------------------
The traced run executes every operation twice, once plainly and once with
spans recorded (``spans.py``), alternating which goes first, until both
together have taken ``--seconds`` (at least one pass); times here are in
ms, not reference units, since no bound applies to them.  After the
passes it runs auxiliary calls on the first pass's inputs so that every
layer is measured on every workload: ``core.transform`` replaying the
benchmark's basis changes (the result must match), the exactla reductions
of the embedding, the serialize_lie -> parse_lie -> lie_to_lts round trip,
``isomorphic`` on the witness hit pair, and ``search_witness`` on the three
pairs of ``benchmarks/bench_witness.py`` (miss, miss-3d, hit).

A ``*_ms`` metric is the mean self time per call of one function (its
span minus its child spans), over all its spans in the traced run.  The
``*_calls`` counts are per workload operation.  Layer -> metric -> what it
should move:

    formats   parse_lts_ms serialize_lie_ms parse_lie_ms -> p50 (orbit),
              pass_cost (sphere), setup_s
    cli       overhead_ms (self time of cli.main: argument parsing, file
              reading, printing) -> p50, side_p50 (orbit)
    core      check_axioms_ms transform_ms derived_series_ms lts_center_ms
              -> orbit p50 (side_p50 for check_axioms), sphere pass_cost;
              transform also verifies every tied witness
    exactla   span_ms: span() of the flattened D_{e_i,e_j} rows (shape
              pairs x n^2); solve_ms: solve() of one commutator's
              coordinates against the chosen h basis (n^2 x h_dim); shapes
              recorded -> sphere pass_cost and p50 most, orbit little
    embed     standard_embedding_ms decompose_ms is_canonical_ms
              standard_embedding_total_ms -> sphere, orbit p50
    lie       derived_series_ms lower_central_ms killing_signature_ms
              center_ms to_lts_ms -> orbit p50, sphere pass_cost
    classify  fingerprint_ms isomorphic_ms (self), fingerprint_total_ms
              isomorphic_total_ms (inclusive) -> orbit pass_cost, tied p50
    witness   cand_per_s (budget-exhausted searches), hit_ms, tested_to_hit
              (exact candidate count from the kernel) -> every tied latency,
              neither orbit nor sphere
    calls     core.check_axioms_calls classify.fingerprint_calls
              embed.standard_embedding_calls per workload operation
    trace     overhead_pct: traced over plain time of the same operations

The split of self time by layer over the workload's own operations (not the
auxiliary calls) is printed and written with the spans.  witness takes
nearly all of tied and none of orbit or sphere.

Output
------
Human-readable lines, then as the last line one JSON object::

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {"<name>": {"value": float, "unit": str}, ...}}

``attempted`` counts checked results, ``failed`` those an oracle rejected
(or that raised); the exit code is 1 when any failed.  The full record
(seed, Python version, witness backend, LIETRIPLE_PURE, CPU count, git
revision or a digest of ``src/lietriple``, input and repeat counts, the
tail percentile, wall-clock operations per second, the share of classify
calls returning exactly the labels isomorphic to the input, exactla
shapes, the split) is written to
``perfbench/out/<workload>-<seed>-trace<t>.json``; traced runs also write
their spans to ``perfbench/out/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tensors as tz
import workloads as W
from spans import END, INFO, NAME, PARENT, REQUEST, START, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 15
REFERENCE_TICK = 0.01  # seconds between reference samples during an operation
REFERENCE_BLOCK = 3  # reference samples between two operations
AUX_CHANGES = 24  # basis changes replayed through core.transform in a traced run
WITNESS_CASE_BUDGET = 20_000


def load_library():
    """Import lietriple from this checkout's src/, never from elsewhere."""
    if not (SRC / "lietriple" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lietriple sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import lietriple
    import lietriple.catalog_data  # noqa: F401
    import lietriple.cli  # noqa: F401
    import lietriple.exactla  # noqa: F401

    if Path(lietriple.__file__).resolve().parent != SRC / "lietriple":
        sys.exit(f"perfbench: imported lietriple from {lietriple.__file__}, not from {SRC}")
    return lietriple


def environment(lib, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lietriple").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "witness_backend": lib.WITNESS_BACKEND,
        "LIETRIPLE_PURE": os.environ.get("LIETRIPLE_PURE"),
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
    }


class Tally:
    """Checked results: attempted, failed, and the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, what: str, problem: str | None):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {problem}")


def execute(lib, op, tally, reference=None):
    """Run one operation, time it and check it; returns (seconds, result).

    With a ``reference``, the reference is sampled during the operation and
    the samples' own time is left out of the operation's.
    """
    before = reference.spent if reference else 0.0
    with reference.ticking() if reference else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            res = W.run_op(lib, op)
            problem = None
        except Exception:  # an exception is a failed operation, not a crash
            res = None
            problem = traceback.format_exc(limit=3).strip().splitlines()[-1]
        elapsed = time.perf_counter() - start
    if reference:
        elapsed -= reference.spent - before
    tally.record(f"{op.kind} {op.argv}", problem if res is None else W.check(op, res))
    return elapsed, res


class Reference:
    """The fixed computation whose time is the unit of the costs.

    It uses nothing from the library, so the library's changes leave it
    alone, and it does the same kind of work (pure-Python ``Fraction``
    elimination), so it slows down and speeds up with the machine as the
    library does.
    """

    def __init__(self):
        values = (0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2))
        self.matrix = tz.random_matrix(random.Random("reference"), 4, values)
        self.samples = []
        self.spent = 0.0

    def sample(self, *_):
        start = time.perf_counter()
        tz.inverse(self.matrix)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def block(self):
        """The samples taken between two operations."""
        for _ in range(REFERENCE_BLOCK):
            self.sample()

    @contextlib.contextmanager
    def ticking(self):
        """Sample every ``REFERENCE_TICK`` seconds, from a timer signal."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_TICK, REFERENCE_TICK)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def measure_setup(lib, tally) -> float:
    """One fresh interpreter running ``catalog --list``; returns its seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lietriple", "catalog", "--list"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and sorted(proc.stdout.split()) == sorted(lib.catalog_data.EXPECTED_FINGERPRINTS)
    tally.record("catalog --list", None if ok else f"exit {proc.returncode}, {proc.stdout[:80]!r}")
    return elapsed


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def run_plain(wl, lib, seconds, tally, reference, setups):
    """The pool's operations, untraced and cycled in order, until ``seconds``
    have gone to them and to the reference; every operation runs at least once.

    The reference is sampled between operations and during each.  Returns
    the executions as (op, seconds, unit, result), where the unit is the
    median of the reference samples from the block before the operation to
    the block after it.  ``SETUP_REPEATS`` set-up times are measured at even
    steps of the run and appended to ``setups``.
    """
    pool = [op for p in wl.pool for op in p]
    done = []
    spent = 0.0
    reference.block()
    while len(done) < len(pool) or spent + reference.spent < seconds:
        if len(setups) < SETUP_REPEATS and spent + reference.spent >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(measure_setup(lib, tally))
        op = pool[len(done) % len(pool)]
        first = len(reference.samples) - REFERENCE_BLOCK
        elapsed, res = execute(lib, op, tally, reference)
        reference.block()
        done.append((op, elapsed, statistics.median(reference.samples[first:]), res))
        spent += elapsed
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(lib, tally))
    return done


def end_to_end(wl, ops, setup_s):
    """Metrics from the executions, in reference units; raw times in ``info``."""
    repeats = {}
    for op, t, unit, _ in ops:
        repeats.setdefault(id(op), []).append((t / unit, t))
    distinct = list({id(op): op for p in wl.pool for op in p}.values())

    def stats(which):
        cost = {key: statistics.median(x[which] for x in rs) for key, rs in repeats.items()}
        main = [cost[id(op)] for op in distinct if op.role == "main"]
        side = [cost[id(op)] for op in distinct if op.role == "side"]
        values = {
            "pass_cost": statistics.median(sum(cost[key] for key in {id(op) for op in p}) for p in wl.pool),
            "p50": statistics.median(main),
            "tail": nearest_rank(main, wl.tail_pct),
            "side_p50": statistics.median(side),
        }
        return values, main, side

    values, main, side = stats(0)
    metrics = {"setup_s": (setup_s, "s"), **{name: (value, "ref") for name, value in values.items()}}
    info = {
        "ops": len(ops),
        "pool_ops": len(distinct),
        "repeats_min": min(len(rs) for rs in repeats.values()),
        "raw_ms": {name: value * 1e3 for name, value in stats(1)[0].items()},
        "wall_ops_per_s": len(ops) / sum(t for _, t, _, _ in ops),
        "main_kind": wl.main_kind,
        "main_inputs": len(main),
        "side_kind": wl.side_kind,
        "side_inputs": len(side),
        "tail_percentile": wl.tail_pct,
        "tail_inputs_beyond": sum(1 for t in main if t > values["tail"]),
        "main_costs": main,
    }
    classified = [(op, res) for op, _, _, res in ops if op.kind == "classify" and res is not None]
    if classified:
        exact = sum(1 for op, res in classified if W.classify_exact(op, res))
        info["classify_exact_frac"] = exact / len(classified)
    return metrics, info


# ------------------------------------------------------------- traced run


def run_traced(wl, lib, tracer, seconds, tally):
    """Each operation plainly and traced, in alternating order, cycling the
    pool until both together have taken ``seconds``; the first pass at least.

    Returns (plain seconds, traced seconds, workload operation count).
    """
    pool = [op for p in wl.pool for op in p]
    plain = traced = 0.0
    count = 0
    while count < len(wl.pass_ops(0)) or plain + traced < seconds:
        op = pool[count % len(pool)]
        for with_spans in ((False, True) if (count % 2 == 0) else (True, False)):
            if with_spans:
                tracer.request = str(count)
                tracer.install()
                try:
                    elapsed, _ = execute(lib, op, tally)
                finally:
                    tracer.uninstall()
                traced += elapsed
            else:
                elapsed, _ = execute(lib, op, tally)
                plain += elapsed
        count += 1
    return plain, traced, count


def _lts(lib, n, tensor):
    return lib.parse_lts(tz.format_lts(n, tensor))


def run_aux(wl, lib, tracer, tally, changes):
    """Auxiliary traced calls that cover every layer on this workload's inputs."""
    Matrix, solve = lib.Matrix, lib.exactla.solve
    shapes = {"span": [], "solve": []}
    systems = [(n, changed) for n, _, _, changed in changes]
    if wl.name == "sphere":
        systems += wl.plain_systems
    tracer.install()
    try:
        for idx, (n, source, T, changed) in enumerate(changes):
            tracer.request = f"aux:transform:{idx}"
            image = lib.transform(_lts(lib, n, source), Matrix.from_rows(T, n))
            tally.record("transform", None if tz.parse_lts(lib.serialize_lts(image)) == (n, changed) else "mismatch")
        for idx, (n, tensor) in enumerate(systems):
            tracer.request = f"aux:system:{idx}"
            t = _lts(lib, n, tensor)
            units = [tuple(Fraction(int(c == i)) for c in range(n)) for i in range(n)]
            rows = [
                tuple(x for row in lib.inner_derivation(t, units[i], units[j]).entries for x in row)
                for i in range(n)
                for j in range(i + 1, n)
            ]
            if rows:
                with tracer.span("exactla.span"):
                    lib.span(rows, n * n)
                shapes["span"].append([len(rows), n * n])
            emb = lib.standard_embedding(t)
            if emb.h_dim >= 2:
                D0, D1 = emb.h_basis[0], emb.h_basis[1]
                comm = (D0 * D1).sub(D1 * D0)
                h_solver = Matrix.from_rows([[x for r in D.entries for x in r] for D in emb.h_basis]).transpose()
                with tracer.span("exactla.solve"):
                    coords = solve(h_solver, [x for r in comm.entries for x in r])
                tally.record("solve", None if coords is not None else "commutator outside h")
                shapes["solve"].append([h_solver.rows, h_solver.cols])
            if wl.name != "sphere":
                g, grading = lib.parse_lie(lib.serialize_lie(emb.algebra, emb.grading))
                back = tz.parse_lts(lib.serialize_lts(lib.lie_to_lts(g, grading)))
                tally.record("roundtrip", None if back == (n, tensor) else "mismatch")
        # the three pairs of benchmarks/bench_witness.py, and isomorphic on the hit
        v_plus = wl.catalog["dim3-V+"]
        hit_b = (3, tz.change_basis(3, v_plus[1], [[2, 1, 0], [1, 1, 0], [0, 1, 1]]))
        cases = {
            "miss": (wl.catalog["dim2-2"], wl.catalog["dim2-3"]),
            "miss-3d": (wl.catalog["split-3"], wl.catalog["split-4"]),
            "hit": (v_plus, hit_b),
        }
        for name, (a, b) in cases.items():
            tracer.request = f"aux:witness:{name}"
            T = lib.search_witness(_lts(lib, *a), _lts(lib, *b), WITNESS_CASE_BUDGET)
            ok = T is None if name != "hit" else T is not None and tz.change_basis(3, a[1], T.entries) == b[1]
            tally.record(f"search_witness {name}", None if ok else f"returned {T}")
        tracer.request = "aux:isomorphic:hit"
        res = lib.isomorphic(_lts(lib, *v_plus), _lts(lib, *hit_b), WITNESS_CASE_BUDGET)
        ok = res.verdict == "isomorphic" and tz.change_basis(3, v_plus[1], res.witness.entries) == hit_b[1]
        tally.record("isomorphic hit", None if ok else f"verdict {res.verdict}")
    finally:
        tracer.uninstall()
    return shapes


SELF_MS = {
    "formats.parse_lts_ms": "formats.parse_lts",
    "formats.serialize_lie_ms": "formats.serialize_lie",
    "formats.parse_lie_ms": "formats.parse_lie",
    "cli.overhead_ms": "cli.main",
    "core.check_axioms_ms": "core.check_axioms",
    "core.transform_ms": "core.transform",
    "core.derived_series_ms": "core.derived_series",
    "core.lts_center_ms": "core.lts_center",
    "exactla.span_ms": "exactla.span",
    "exactla.solve_ms": "exactla.solve",
    "embed.standard_embedding_ms": "embed.standard_embedding",
    "embed.decompose_ms": "embed.decompose",
    "embed.is_canonical_ms": "embed.is_canonical",
    "lie.derived_series_ms": "lie.lie_derived_series",
    "lie.lower_central_ms": "lie.lower_central_series",
    "lie.killing_signature_ms": "lie.killing_signature",
    "lie.center_ms": "lie.lie_center",
    "lie.to_lts_ms": "lie.lie_to_lts",
    "classify.fingerprint_ms": "classify.fingerprint",
    "classify.isomorphic_ms": "classify.isomorphic",
}
TOTAL_MS = {
    "embed.standard_embedding_total_ms": "embed.standard_embedding",
    "classify.fingerprint_total_ms": "classify.fingerprint",
    "classify.isomorphic_total_ms": "classify.isomorphic",
}
CALLS = {
    "core.check_axioms_calls": "core.check_axioms",
    "classify.fingerprint_calls": "classify.fingerprint",
    "embed.standard_embedding_calls": "embed.standard_embedding",
}


def per_layer(tracer, plain, traced, op_count):
    spans = tracer.spans
    own = tracer.self_times()
    by_name = {}
    for s, t in zip(spans, own):
        by_name.setdefault(s[NAME], []).append((s, t))

    def mean_ms(values):
        return 1e3 * sum(values) / len(values) if values else 0.0

    metrics = {}
    for metric, name in SELF_MS.items():
        metrics[metric] = (mean_ms([t for _, t in by_name.get(name, [])]), "ms")
    for metric, name in TOTAL_MS.items():
        metrics[metric] = (mean_ms([s[END] - s[START] for s, _ in by_name.get(name, [])]), "ms")
    for metric, name in CALLS.items():
        calls = sum(1 for s, _ in by_name.get(name, []) if not str(s[REQUEST]).startswith("aux"))
        metrics[metric] = (calls / op_count, "count")

    tested = {}
    for s in spans:
        if s[NAME] == "witness.kernel" and s[PARENT] is not None and s[INFO] is not None:
            tested[s[PARENT]] = tested.get(s[PARENT], 0) + s[INFO]
    searches = [(s, tested.get(i, 0)) for i, s in enumerate(spans) if s[NAME] == "witness.search_witness"]
    misses = [(s, n) for s, n in searches if not s[INFO]]
    hits = [(s, n) for s, n in searches if s[INFO]]
    miss_time = sum(s[END] - s[START] for s, _ in misses)
    metrics["witness.cand_per_s"] = (sum(n for _, n in misses) / miss_time if miss_time else 0.0, "1/s")
    metrics["witness.hit_ms"] = (mean_ms([s[END] - s[START] for s, _ in hits]), "ms")
    metrics["witness.tested_to_hit"] = (sum(n for _, n in hits) / len(hits) if hits else 0.0, "count")
    metrics["trace.overhead_pct"] = (100.0 * (traced / plain - 1.0), "%")

    # self time by layer over the workload's own operations
    layers = dict.fromkeys(["cli", "formats", "core", "exactla", "embed", "lie", "classify", "catalog", "witness"], 0.0)
    for s, t in zip(spans, own):
        if not str(s[REQUEST]).startswith("aux"):
            layer = s[NAME].split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + t
    layers["untraced"] = traced - sum(layers.values())
    split = {layer: 100.0 * t / traced for layer, t in sorted(layers.items(), key=lambda kv: -kv[1])}
    return metrics, split


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lietriple benchmark")
    parser.add_argument("--workload", required=True, choices=("orbit", "sphere", "tied"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = load_library()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT))
    tally = Tally()
    record = {"environment": environment(lib, args)}
    try:
        build_start = time.perf_counter()
        wl = W.WORKLOADS[args.workload](lib, args.seed, workdir)
        wl.pass_ops(0)
        first_changes = wl.changes[:AUX_CHANGES]
        record["input_build_s"] = time.perf_counter() - build_start
        if args.trace == 0:
            reference = Reference()
            setups = []
            ops = run_plain(wl, lib, args.seconds, tally, reference, setups)
            metrics, info = end_to_end(wl, ops, statistics.median(setups))
            info["reference_ms"] = statistics.median(reference.samples) * 1e3
            info["reference_samples"] = len(reference.samples)
        else:
            tracer = Tracer()
            plain, traced, count = run_traced(wl, lib, tracer, args.seconds, tally)
            shapes = run_aux(wl, lib, tracer, tally, first_changes)
            metrics, split = per_layer(tracer, plain, traced, count)
            info = {"ops": count, "split_pct": split, "exactla_shapes": shapes, "spans": len(tracer.spans)}
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
            spans_path.write_text(json.dumps({"environment": record["environment"], "split_pct": split,
                                              "spans": tracer.as_json()}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(info)
    record["failures"] = tally.failures
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for key, value in record["environment"].items():
        print(f"# {key}: {value}")
    for key, value in info.items():
        if key != "main_costs":
            print(f"# {key}: {value}")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.4f} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
