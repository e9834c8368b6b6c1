#!/usr/bin/env python3
"""Print the traced peak memory and the time of ``load_qps`` on the first QPS file of a workload.

Usage:
    python3 benchmarks/qps_peak.py WORKLOAD SEED

Builds the workload's QPS files at ``SEED`` through ``solvebench/workloads.py``
(as ``qps_digest.py`` does), loads the first one once under ``tracemalloc``,
then 20 times more untraced, and prints ``FILE CHARS PEAK MS``: the file
name, its length in characters, the peak of the memory traced during the
first call, in bytes, above what was traced before it, and the fastest of
the 20 untraced calls in milliseconds of the thread's CPU time.  The peak
covers the file's bytes and text, the parse and the ``Problem``, and it does
not depend on the machine's speed; the time does.  Only the planted
workloads have QPS files; the others exit with status 2.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
    with tempfile.TemporaryDirectory(prefix="cfpopt-qps-peak-") as tmp:
        inputs = workloads.make_inputs(workload, int(argv[1]), Path(tmp))
        if not inputs.files:
            print(f"workload {argv[0]} has no QPS files", file=sys.stderr)
            return 2
        path = inputs.files[0]
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        load_qps(path)
        peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.stop()
        best = float("inf")
        for _ in range(20):
            start = time.thread_time()
            load_qps(path)
            best = min(best, time.thread_time() - start)
        print(path.name, len(path.read_text(encoding="utf-8")), peak, f"{best * 1e3:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
