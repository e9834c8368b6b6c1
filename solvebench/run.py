#!/usr/bin/env python3
"""Seeded end-to-end solve benchmark for cfpopt, with an output audit and a layer trace.

Run from the repository root, with nothing installed:

    python3 solvebench/run.py --workload plant-cspm --seed 1 --seconds 30 --trace 0

Workloads (``workloads.py``): ``plant-cspm``, ``plant-art3``, ``dose-cspm``.
One process, one thread: the BLAS and OpenMP pools are pinned to one thread
before numpy is imported.  The inputs are built from the seed (untimed);
then each pass sets the problems up and solves the whole problem x variant
matrix through the calls ``cfpopt bench`` makes (``load_qps`` ->
``run_variant`` -> ``emit_report``), pass after pass for about ``--seconds``
(see ``bench.py``).  Every solve is audited (``audit.py``), and every later
pass must repeat the first one's status, bitwise ``f_hat`` and counters.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes under the layer tracer (``tracing.py``),
requires both to give identical results, and prints the per-layer metrics
per pass and the tracing overhead.  The last line of standard output is one
JSON object.  The exit code is 1 when any audit fails, and 2 on bad usage or
in a checkout without the package sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GENERATOR = ROOT / "benchmarks" / "make_problems.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="plant-cspm | plant-art3 | dose-cspm")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long to keep solving passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for needed in (SRC / "cfpopt" / "__init__.py", GENERATOR):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(SRC), str(GENERATOR.parent)]

    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choices: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    for line in bench.environment(THREAD_VARS):
        print(line)

    # The benchmark reads and writes only inside the checkout it runs from, so
    # its work directory (QPS files and the report) is made there, not in the
    # system temp dir; .gitignore names it in case a killed run leaves it behind.
    with tempfile.TemporaryDirectory(prefix=".solvebench-", dir=ROOT) as tmp:
        run = bench.run_traced if args.trace else bench.run_untraced
        metrics, notes, attempted, failed, failures = run(
            bench.Bench(workload, args.seed, Path(tmp), args.seconds), args.seconds)

    print(f"workload {workload.name} seed {args.seed}: {workload.instances} problems x "
          f"{len(workload.variants)} variants ({', '.join(workload.variants)}), "
          f"max_outer={bench.CONFIG.max_outer}, trace={args.trace}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<38} {value:>16.6g} {unit}{note}")
    for failure in failures:
        print(f"AUDIT FAILED: {failure}")

    # Printed above but kept out of the result: fail_share is its failed /
    # attempted, false_cert_share can be 0, which no relative bound holds, and
    # the solve times move with the host's speed phases by more than the
    # largest bound a regression check may use (see bench.py).
    reported = {k: v for k, v in metrics.items()
                if k not in ("fail_share", "false_cert_share", "wall_s", "solve_ms_p50")}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in reported.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
