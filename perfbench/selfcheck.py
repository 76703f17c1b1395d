"""Fast self-check of the benchmark and its oracles.

Runs every workload at a tiny size, untraced and traced, and requires that
nothing fails and that every metric is reported.  Then it plants one wrong
answer per oracle and requires each to be counted as a failure, so that an
oracle cannot pass silently.  Takes about ten seconds::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run
import tensors as tz
import workloads as W
from spans import Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _perturbed(n, tensor):
    return tz.perturb_cyclic(random.Random(0), n, tensor) if n == 3 else {**tensor, (0, 1, 0): (Fraction(5),) * n}


def plants(wl):
    """(description, operation) pairs whose results must be rejected."""
    ops = wl.pass_ops(0)
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    out = []

    def planted(kind, what, **changes):
        out.append((what, dataclasses.replace(first[kind], **changes)))

    if wl.name == "orbit":
        lines = list(first["fingerprint"].expect["lines"])
        lines[-1] = "canonical: no" if lines[-1].endswith("yes") else "canonical: yes"
        planted("fingerprint", "fingerprint differing from the frozen one", expect={"lines": lines})
        planted("reject", "valid input expected to be rejected", argv=first["fingerprint"].argv)
        planted("fingerprint", "invalid input expected to pass", argv=first["reject"].argv)
    elif wl.name == "sphere":
        fields = dict(first["sphere-fingerprint"].expect["fields"], g_dim="99")
        planted("sphere-fingerprint", "so(k+1) invariant changed", expect={"fields": fields})
        planted("embed", "embedding dimension changed", expect=dict(first["embed"].expect, g_dim=99))
        n, tensor = first["roundtrip"].expect["tensor"]
        planted("roundtrip", "round trip against another tensor", expect={"tensor": (n, _perturbed(n, tensor))})
    else:
        planted("classify", "classify label outside the tied group", expect={"label": "dim3-I", "group": ("dim3-I",)})
        n, b = first["iso-hit"].expect["b"]
        planted("iso-hit", "witness checked against another target", expect=dict(first["iso-hit"].expect, b=(n, _perturbed(n, b))))
        planted("iso-miss", "pair with a witness expected to stay unknown", argv=first["iso-hit"].argv)
    out.append(("unreadable input", W.Op("fingerprint", ["fingerprint", str(wl.workdir / "missing.lts")], {"lines": []})))
    return out


def main() -> int:
    lib = run.load_library()
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT))
    problems = []
    try:
        for k in (3, 4):
            T = tz.tridiagonal_change(random.Random(k), k)
            if tz.sphere(tz.gram(T))[1] != tz.change_basis(k, tz.sphere(tz.gram(W._identity(k)))[1], T):
                problems.append(f"sphere(gram(T)) differs from the basis change by T at k={k}")
        for name, cls in W.WORKLOADS.items():
            wl = cls(lib, 7, workdir, small=True)
            tally = run.Tally()
            reference = run.Reference()
            ops = run.run_plain(wl, lib, 0, tally, reference, [])
            metrics, _ = run.end_to_end(wl, ops, 0.1)
            tracer = Tracer()
            plain, traced, count = run.run_traced(wl, lib, tracer, 0, tally)
            run.run_aux(wl, lib, tracer, tally, wl.changes[:3])
            layer_metrics, split = run.per_layer(tracer, plain, traced, count)
            if tally.failed or not tally.attempted:
                problems.append(f"{name}: {tally.failed} of {tally.attempted} checks failed: {tally.failures}")
            for group, got in (("end_to_end", metrics), ("per_layer", layer_metrics)):
                missing = {m["name"] for m in BENCHMARK[group]} - set(got)
                if missing:
                    problems.append(f"{name}: {group} metrics {sorted(missing)} not reported")
            if name == "tied" and split["witness"] < 50:
                problems.append(f"tied: witness holds only {split['witness']:.1f}% of the traced time")
            if name != "tied" and split["witness"] != 0:
                problems.append(f"{name}: witness work inside the workload's own operations")
            planted_ops = plants(wl)
            for what, op in planted_ops:
                planted = run.Tally()
                run.execute(lib, op, planted)
                if planted.failed != 1:
                    problems.append(f"{name}: planted {what} was not counted as a failure")
            print(f"{name}: {tally.attempted} checks passed, {len(planted_ops)} planted failures tried")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print("PROBLEM", problem)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
