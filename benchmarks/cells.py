#!/usr/bin/env python3
"""Print one matrix pass of a solvebench workload, cell by cell, as JSON.

Usage:
    python3 benchmarks/cells.py WORKLOAD SEED [VARIANTS]

Builds the workload's inputs at ``SEED`` through ``solvebench/workloads.py``,
solves every problem x variant cell once with the benchmark's ``CONFIG``, and
prints one JSON object that maps ``problem/variant`` to
``[status, repr(f_hat), projections, obj_evals, outer_steps]`` (or to
``["raised", message]``).  A refactor that must not change results is checked
by running this on the old and the new code and diffing the output.

``VARIANTS`` is a comma-separated list of variant names, or ``all`` for the
whole harness matrix; it defaults to the workload's own variants, so that a
refactor gate can also cover the variants no workload runs.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cells(workload_name: str, seed: int, variants: list[str] | None = None) -> dict[str, list]:
    import bench
    import workloads
    from cfpopt import harness

    workload = workloads.WORKLOADS[workload_name]
    variants = workload.variants if variants is None else variants
    out = {}
    with tempfile.TemporaryDirectory(prefix="cfpopt-cells-") as tmp:
        inputs = workloads.make_inputs(workload, seed, Path(tmp))
        for i in range(workload.instances):
            problem = workloads.setup(inputs, i)
            for variant in variants:
                try:
                    r = harness.run_variant(variant, problem, bench.CONFIG,
                                            fstar=inputs.f_ref[problem.name])
                    cell = [r.status, repr(r.f_hat), r.projections, r.obj_evals, r.outer_steps]
                except Exception as exc:  # noqa: BLE001 - a raising cell is part of the output
                    cell = ["raised", f"{type(exc).__name__}: {exc}"]
                out[f"{problem.name}/{variant}"] = cell
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "solvebench"), str(ROOT / "benchmarks")]
    variants = None
    if len(argv) == 3:
        from cfpopt import harness

        variants = list(harness.VARIANTS) if argv[2] == "all" else argv[2].split(",")
        unknown = [v for v in variants if v not in harness.VARIANTS]
        if unknown:
            print(f"unknown variants {unknown}; choices: {', '.join(harness.VARIANTS)}", file=sys.stderr)
            return 2
    out = cells(argv[0], int(argv[1]), variants)
    # one cell per line, so that two outputs diff cell by cell
    print("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in out.items()) + "\n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
