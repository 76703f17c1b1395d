"""Benchmark: compiled vs pure-Python witness-search kernel.

Runs the same deterministic candidate searches through both backends and
reports candidates counted per second, budget / elapsed, for searches that
exhaust the budget.  The compiled kernel checks every invertible candidate;
the pure one counts the candidates of each cut subtree without visiting
them, so its figure is work avoided as much as work done.  Workloads:

* miss       exhaust the budget proving nothing (2-dim pair with equal
             fingerprints and no rational witness in range)
* miss-3d    same, on a 3-dimensional pair
* hit        find a witness for a transformed system

Usage: python benchmarks/bench_witness.py [--budget N]
"""

import argparse
import time

import lietriple.witness as witness
from lietriple import catalog, transform
from lietriple.exactla import Matrix
from lietriple.witness import search_witness


def run(a, b, budget):
    start = time.perf_counter()
    result = search_witness(a, b, budget)
    return time.perf_counter() - start, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=200_000)
    args = parser.parse_args()

    workloads = {
        "miss": (catalog.get("dim2-2").system, catalog.get("dim2-3").system),
        "miss-3d": (catalog.get("split-3").system, catalog.get("split-4").system),
        "hit": (
            catalog.get("dim3-V+").system,
            transform(
                catalog.get("dim3-V+").system,
                Matrix.from_rows([[2, 1, 0], [1, 1, 0], [0, 1, 1]]),
            ),
        ),
    }

    if witness._speedups is None:
        print("compiled kernel unavailable; showing pure-Python numbers only")
        backends = [("python", None)]
    else:
        backends = [("c", witness._speedups), ("python", None)]

    saved = witness._speedups
    print(f"budget {args.budget} candidates per workload")
    rates = {}
    try:
        for name, module in backends:
            witness._speedups = module
            for wname, (a, b) in workloads.items():
                elapsed, result = run(a, b, args.budget)
                rates[(name, wname)] = (elapsed, result)
                if result is None:
                    rate = args.budget / elapsed if elapsed else float("inf")
                    print(
                        f"{name:7s} {wname:8s} {elapsed:8.3f}s  "
                        f"{rate:12,.0f} candidates counted/s  (budget exhausted)"
                    )
                else:
                    print(f"{name:7s} {wname:8s} {elapsed:8.3f}s  (witness found)")
    finally:
        witness._speedups = saved

    if len(backends) == 2:
        print()
        for wname in workloads:
            c_time = rates[("c", wname)][0]
            py_time = rates[("python", wname)][0]
            if c_time:
                print(f"speedup {wname:8s} {py_time / c_time:6.1f}x")


if __name__ == "__main__":
    main()
