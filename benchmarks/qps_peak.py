#!/usr/bin/env python3
"""Print the traced peak memory and the times of ``load_qps`` on the first QPS file of a workload.

Usage:
    python3 benchmarks/qps_peak.py WORKLOAD SEED

Builds the workload's QPS files at ``SEED`` through ``solvebench/workloads.py``
(as ``qps_digest.py`` does), loads the first one once under ``tracemalloc``,
then 20 times more untraced, and prints ``FILE CHARS PEAK MS READ PARSE
TO_PROBLEM``: the file name, its length in characters, the peak of the
memory traced during the first call, in bytes, above what was traced before
it, and the fastest of the 20 untraced calls in milliseconds of the thread's
CPU time, whole and split into its steps.  ``PARSE`` and ``TO_PROBLEM`` are
the fastest calls of ``parse_qps_document`` and ``QpsDocument.to_problem``
inside them, and ``READ`` the fastest rest of a call: reading the file,
and decoding it where the parse takes text.  The peak covers the file's
bytes (and text, where it is decoded), the parse and the ``Problem``, and it
does not depend on the machine's speed; the times do.  Only the planted
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
    from cfpopt import load_qps, qps

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
        steps = {"parse": _Timed(qps, "parse_qps_document"), "to_problem": _Timed(qps.QpsDocument, "to_problem")}
        best = dict.fromkeys(("load", "read", *steps), float("inf"))
        for _ in range(20):
            start = time.thread_time()
            load_qps(path)
            took = {"load": time.thread_time() - start, **{name: step.pop() for name, step in steps.items()}}
            took["read"] = took["load"] - took["parse"] - took["to_problem"]
            best = {name: min(best[name], took[name]) for name in best}
        for step in steps.values():
            step.undo()
        print(path.name, len(path.read_text(encoding="utf-8")), peak,
              *(f"{best[name] * 1e3:.2f}" for name in ("load", "read", "parse", "to_problem")))
    return 0


class _Timed:
    """Wraps ``owner.attr`` to add up the thread time of its calls until ``pop``."""

    def __init__(self, owner, attr: str):
        self.owner, self.attr, self.total = owner, attr, 0.0
        self.original = original = getattr(owner, attr)

        def timed(*args, **kwargs):
            start = time.thread_time()
            try:
                return original(*args, **kwargs)
            finally:
                self.total += time.thread_time() - start

        setattr(owner, attr, timed)

    def pop(self) -> float:
        total, self.total = self.total, 0.0
        return total

    def undo(self) -> None:
        setattr(self.owner, self.attr, self.original)


if __name__ == "__main__":
    sys.exit(main())
