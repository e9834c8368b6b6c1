#!/usr/bin/env python3
"""Audit every certificate of the 12 variants on QPs whose rows bind at the optimum.

Usage:
    python3 benchmarks/soundness.py [SEEDS]

Builds the Rosen-Suzuki QPs of ``make_problems.rosen_suzuki_instance``
(n = 20, m = 30, k = 5 binding rows) at ``SEEDS`` (``0-9`` by default, or
a comma-separated list), in the three families of ``make_problems.BOXES``:
a box around x*, lower bounds only, and no box.  Then the unbounded LP
``min x s.t. x <= 1`` with x free (``make_problems.unbounded_lp``), whose
every certificate is false.  Every variant solves every problem once with
``HarnessConfig(max_outer=100)``, the benchmark's outer cap, and each result
is audited as ``solvebench/audit.py`` audits the benchmark's: a
``case2-or-3`` result certifies ``f_hat - f* <= eps``, and the certificate
is false when that fails.

Prints one line per run, ``FAMILY/PROBLEM/VARIANT STATUS F_HAT VERDICT``
(the verdict is ``holds``, ``FALSE``, ``none`` for a result with no
certificate, or the audit's failure), then one line per family,
``FAMILY: F false of C certificates``.  The planted workloads place their
optimum at the unconstrained minimiser of f, which flatters every emptiness
proof; here the rows bind, so a change to the level tests or the sweeps
that makes a certificate false shows.  The output holds no time, so two
trees that compute the same iterates print the same text.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)


def verdict(variant: str, problem, fstar: float, report, config) -> str:
    """The audit of one result: ``holds``, ``FALSE``, ``none`` or the failure."""
    import audit

    solve = audit.Solve(problem.name, variant, 0.0, report)
    result = audit.audit(solve, problem, fstar, config)
    if result.failure is not None:
        return result.failure.replace(" ", "_")
    if result.false_cert is None:
        return "none"
    return "FALSE" if result.false_cert else "holds"


def family_lines(family: str, instances, config) -> tuple[list[str], int, int]:
    """The run lines of ``family`` over ``instances``, its false certificates and all of them."""
    from cfpopt import VARIANTS, run_variant

    lines, false, certs = [], 0, 0
    for problem, fstar in instances:
        for variant in VARIANTS:
            key = f"{family}/{problem.name}/{variant}"
            try:
                # the quality score needs a finite f*; the audit reads f* itself
                report = run_variant(variant, problem, config,
                                     fstar=fstar if math.isfinite(fstar) else None)
            except Exception as exc:  # noqa: BLE001 - a raising run is part of the output
                lines.append(f"{key} raised {type(exc).__name__}: {exc}")
                continue
            v = verdict(variant, problem, fstar, report, config)
            false += v == "FALSE"
            certs += v in ("FALSE", "holds")
            lines.append(f"{key} {report.status} {report.f_hat!r} {v}")
    return lines, false, certs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "solvebench"), str(ROOT / "benchmarks")]
    from make_problems import BOXES, rosen_suzuki_instance, unbounded_lp

    from cfpopt import HarnessConfig

    seeds = SEEDS if not argv else [int(s) for s in argv[0].split(",")]
    config = HarnessConfig(max_outer=100)
    families = [(box, [rosen_suzuki_instance(seed, box=box) for seed in seeds]) for box in BOXES]
    families.append(("unbounded", [unbounded_lp()]))
    totals = []
    for family, instances in families:
        lines, false, certs = family_lines(family, instances, config)
        print("\n".join(lines), flush=True)
        totals.append(f"{family}: {false} false of {certs} certificates")
    print("\n".join(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
