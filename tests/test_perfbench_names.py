"""The library names the benchmark reads must exist.

``perfbench/`` drives the package it loads as ``lib``; a name deleted from
the library would otherwise fail only in a benchmark run.
"""

import re
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LIB_NAME = re.compile(r"(?<![\w.])lib\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")


def test_every_library_name_the_benchmark_reads_resolves(monkeypatch):
    names = {name for path in PERFBENCH.glob("*.py") for name in LIB_NAME.findall(path.read_text())}
    # the scan finds the names it is for
    assert {
        "WITNESS_BACKEND",
        "exactla.solve",
        "inner_derivation",
        "span",
        "catalog_data.EXPECTED_FINGERPRINTS",
        "cli.main",
    } <= names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # leave no bytecode cache in the benchmark's directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import run

    lib = run.load_library()
    missing = []
    for name in sorted(names):
        obj = lib
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert not missing, f"perfbench reads lib.{', lib.'.join(missing)}"
