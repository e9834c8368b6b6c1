#!/usr/bin/env python3
"""Print one SHA-256 per QPS file of a solvebench workload, over the loaded problem.

Usage:
    python3 benchmarks/qps_digest.py WORKLOAD SEED

Builds the workload's QPS files at ``SEED`` through ``solvebench/workloads.py``
(as ``cells.py`` does), loads each with ``load_qps`` and prints
``FILE SHA256`` per file.  The digest covers every array, interval, bound
and name of the loaded ``Problem``: the raw float64 bytes of ``Q``, ``c``,
the constant, each row's ``a``, ``lo``, ``hi`` and ``norm2``, the bound
vectors and the same four of each row of ``problem.bounds.to_rows()`` (the
box's coordinate rows), then the problem, variable and row names.  A change to the QPS reader that must
give a bitwise-equal ``Problem`` is checked by running this on the old and
the new code and diffing the output.  Only the planted workloads have QPS
files; the others exit with status 2.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(problem) -> str:
    import numpy as np

    h = hashlib.sha256()

    def floats(*values):
        for v in values:
            h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())

    obj = problem.objective
    floats(obj.Q, obj.c, obj.constant)
    for con in problem.constraints:
        floats(con.a, con.lo, con.hi, con.norm2)
    floats(problem.bounds.lo, problem.bounds.hi)
    for con in problem.bounds.to_rows():
        floats(con.a, con.lo, con.hi, con.norm2)
    for name in [problem.name, *problem.var_names, *problem.row_names]:
        h.update(name.encode() + b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "solvebench"), str(ROOT / "benchmarks")]
    import workloads
    from cfpopt import load_qps

    workload = workloads.WORKLOADS[argv[0]]
    with tempfile.TemporaryDirectory(prefix="cfpopt-qps-digest-") as tmp:
        inputs = workloads.make_inputs(workload, int(argv[1]), Path(tmp))
        if not inputs.files:
            print(f"workload {argv[0]} has no QPS files", file=sys.stderr)
            return 2
        for path in inputs.files:
            print(path.name, digest(load_qps(path)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
