#!/usr/bin/env python3
"""Print one matrix pass of a solvebench workload, cell by cell, as JSON.

Usage:
    python3 benchmarks/cells.py WORKLOAD SEED [VARIANTS [CONFIG]]

Builds the workload's inputs at ``SEED`` through ``solvebench/workloads.py``,
solves every problem x variant cell once with a harness config, and prints one
JSON object that maps ``problem/variant`` to
``[status, repr(f_hat), projections, obj_evals, outer_steps]`` (or to
``["raised", message]``), each problem's cells after ``problem/f_ref``, the
``repr`` of the reference value the benchmark's audit judges its
certificates against.  A refactor that must not change results is checked
by running this on the old and the new code and diffing the output.

``VARIANTS`` is a comma-separated list of variant names, or ``all`` for the
whole harness matrix; it defaults to the workload's own variants, so that a
refactor gate can also cover the variants no workload runs.

``CONFIG`` names the harness config (see ``CONFIGS``): ``bench``, the
benchmark's ``CONFIG`` (the default); ``accel``, the same with a stall
counter that fires after every stalled level (``accel_c=10, accel_s=0.001,
block=1``), since at the benchmark's settings no stall ever fires and the
accelerated variants never perturb a warm start; and ``accel-adaptive``,
``accel`` with the backtracking step.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


CONFIGS = ("bench", "accel", "accel-adaptive")


def config(name: str):
    """The harness config ``name`` of ``CONFIGS``."""
    import bench

    accel = replace(bench.CONFIG, accel_c=10.0, accel_s=0.001, block=1)
    return {"bench": bench.CONFIG, "accel": accel,
            "accel-adaptive": replace(accel, accel_adaptive=True)}[name]


def cells(workload_name: str, seed: int, variants: list[str] | None = None,
          config_name: str = "bench") -> dict[str, list | str]:
    import workloads
    from cfpopt import harness

    workload = workloads.WORKLOADS[workload_name]
    cfg = config(config_name)
    variants = workload.variants if variants is None else variants
    out = {}
    with tempfile.TemporaryDirectory(prefix="cfpopt-cells-") as tmp:
        inputs = workloads.make_inputs(workload, seed, Path(tmp))
        for i in range(workload.instances):
            problem = workloads.setup(inputs, i)
            out[f"{problem.name}/f_ref"] = repr(inputs.f_ref[problem.name])
            for variant in variants:
                try:
                    r = harness.run_variant(variant, problem, cfg,
                                            fstar=inputs.f_ref[problem.name])
                    cell = [r.status, repr(r.f_hat), r.projections, r.obj_evals, r.outer_steps]
                except Exception as exc:  # noqa: BLE001 - a raising cell is part of the output
                    cell = ["raised", f"{type(exc).__name__}: {exc}"]
                out[f"{problem.name}/{variant}"] = cell
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (2, 3, 4):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "solvebench"), str(ROOT / "benchmarks")]
    variants = None
    if len(argv) >= 3:
        from cfpopt import harness

        variants = list(harness.VARIANTS) if argv[2] == "all" else argv[2].split(",")
        unknown = [v for v in variants if v not in harness.VARIANTS]
        if unknown:
            print(f"unknown variants {unknown}; choices: {', '.join(harness.VARIANTS)}", file=sys.stderr)
            return 2
    config_name = argv[3] if len(argv) == 4 else "bench"
    if config_name not in CONFIGS:
        print(f"unknown config {config_name!r}; choices: {', '.join(CONFIGS)}", file=sys.stderr)
        return 2
    out = cells(argv[0], int(argv[1]), variants, config_name)
    # one cell per line, so that two outputs diff cell by cell
    print("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in out.items()) + "\n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
