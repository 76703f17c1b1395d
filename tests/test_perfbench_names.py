"""The library names the benchmark reads and traces must exist.

``perfbench/`` drives the package it loads as ``lib``, and wraps the
functions ``spans.TRACED`` names; a name deleted from the library would
otherwise fail, or lose its span, only in a benchmark run.
"""

import importlib
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



def test_every_traced_function_resolves(monkeypatch):
    """Each (module, function) that ``perfbench/spans.py`` traces names a
    function of the library: a rename would silently drop its span, and
    with the kernel's span the witness metrics.  The one exception is the
    C kernel ``_speedups``, which the library no longer has."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import run
    import spans

    lib = run.load_library()
    traced = [target for targets in spans.TRACED.values() for target in targets]
    assert ("_witness_py", "stage_search") in traced
    missing = []
    for mod_name, fn_name in traced:
        if (mod_name, fn_name) == ("_speedups", "stage_search"):
            continue
        try:
            module = importlib.import_module(f"{lib.__name__}.{mod_name}")
        except ImportError:
            module = None
        if not callable(getattr(module, fn_name, None)):
            missing.append(f"{mod_name}.{fn_name}")
    assert not missing, f"perfbench traces missing functions: {', '.join(missing)}"
