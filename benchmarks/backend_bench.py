#!/usr/bin/env python3
"""Compare the c and numpy sweep-kernel backends on synthetic systems.

Builds consistent random affine systems (optionally with a quadratic level
constraint riding at the end of the cycle, as the optimization schemes add
it) and times full CSPM and ART3+ feasibility solves under each backend.
The two backends compute the same bits, so the solves are identical; the
point of the comparison is wall time.  The c library is built (or loaded
from the cache) before any timing starts; where it cannot run, its rows
print ``n/a``.

A second table times single ``cspm_sweep`` and ``art3_pass`` calls (the
latter over a queue of every row) in ns per row, at m=120/n=60 and at the
``--m``/``--n`` size; every call also sums the steps that the emptiness
certificate of :mod:`cfpopt.feasibility` reads, into the binding's ``out``.
Each call is the first pass of a fresh row binding, whose screen evaluates
every row.  ``moved`` is the share of rows that moved x.

A third table prints the cost of one c wrapper call in us, at m=70/n=30
and m=280/n=120, from the planted point with every row screened: the kernel
then evaluates no row, so what is left is the cost of crossing from Python
into the kernel and back (best of 7 x 20,000 calls).  ``art3_pass`` runs
over a queue of every row.

A fourth table times ``parse_qps_document`` on the text of the seed-101
plant-art3 ``PLANT000`` file (built through ``solvebench/workloads.py``, as
the benchmark builds it) under each backend (``c`` with the scan kernel,
``numpy`` in Python alone), in ms per MB of text and ns per line (best of
20 thread times).

Usage:
    python benchmarks/backend_bench.py [--n 400] [--m 600] [--repeats 3]
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from cfpopt import _kernels, qps
from cfpopt.feasibility import SolverSpec, cfp_solve, cfp_with_level
from cfpopt.model import AffineConstraint, Problem, QuadraticFunction


def make_system(m, n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)  # planted feasible point
    rows = []
    for _ in range(m):
        a = rng.standard_normal(n)
        c = float(a @ z)
        slack = abs(rng.standard_normal()) * 0.1 + 0.01
        rows.append(AffineConstraint.interval(a, c - slack, c + slack))
    x0 = z + rng.standard_normal(n) * 2.0
    return rows, x0, z


def make_level_problem(rows, n, seed):
    rng = np.random.default_rng(seed + 1)
    M = rng.standard_normal((n, n)) / np.sqrt(n)
    return Problem(QuadraticFunction(M @ M.T, rng.standard_normal(n)), rows, n=n)


def timed(fn, repeats):
    best = np.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def kernel_ns_per_row(kernel, m, n, seed, repeats):
    """Best ns per row of one ``kernel`` call ('cspm' or 'art3'), and the share of rows that moved."""
    rows, x0, _z = make_system(m, n, seed)
    A = np.ascontiguousarray([r.a for r in rows])
    lo, hi = np.array([r.lo for r in rows]), np.array([r.hi for r in rows])
    norm2 = np.array([r.norm2 for r in rows])
    queue = np.arange(m, dtype=np.int64)

    def bind():
        return _kernels.Rows(A, lo, hi, norm2, np.zeros(3))

    def call(x, rows):
        """One pass from x; returns the number of rows that moved."""
        if kernel == "cspm":
            return _kernels.cspm_sweep(A, rows, x, 1.5, 1e-8)[1]
        return _kernels.art3_pass(A, rows, x, 1e-8, rows.out, queue).shape[0]

    for _ in range(3):  # start where some rows still move and some hold
        call(x0, bind())
    calls = max(1, 100_000 // m)
    best, moves = np.inf, 0
    for _ in range(repeats):
        # a fresh binding per call: its screen has evaluated no row yet
        bound = [bind() for _ in range(calls)]
        t0 = time.perf_counter()
        for rows in bound:
            moves = call(x0.copy(), rows)
        best = min(best, (time.perf_counter() - t0) / (calls * m))
    return best * 1e9, moves / m


def call_us(kernel, m, n, seed, calls=20_000, repeats=7):
    """Best us per ``kernel`` wrapper call ('cspm' or 'art3') when the screen skips every row."""
    rows, _x0, z = make_system(m, n, seed)
    A = np.ascontiguousarray([r.a for r in rows])
    lo, hi = np.array([r.lo for r in rows]), np.array([r.hi for r in rows])
    norm2 = np.array([r.norm2 for r in rows])
    queue = np.arange(m, dtype=np.int64)
    x = z.copy()  # the planted point satisfies every row
    path = np.array([0.0, float(np.linalg.norm(x)), _kernels.screen_rtol(n, m + 1)])
    bound = _kernels.Rows(A, lo, hi, norm2, path)
    if kernel == "cspm":
        def call():
            _kernels.cspm_sweep(A, bound, x, 1.5, 1e-8)
    else:
        def call():
            _kernels.art3_pass(A, bound, x, 1e-8, bound.out, queue)
    call()  # the first call evaluates every row and records its violation
    call()
    if bound.out[3] != 0:  # the rows the second call evaluated
        raise RuntimeError(f"{kernel} m={m}: the screen left rows to evaluate")
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best * 1e6


def plant_art3_text() -> str:
    """The text of the seed-101 plant-art3 ``PLANT000`` file."""
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "solvebench"), str(root / "benchmarks")]
    import workloads

    with tempfile.TemporaryDirectory(prefix="cfpopt-backend-bench-") as tmp:
        inputs = workloads.make_inputs(workloads.WORKLOADS["plant-art3"], 101, Path(tmp))
        return inputs.files[0].read_text(encoding="utf-8")


def parse_ms(text, repeats=20):
    """Best thread time of ``parse_qps_document(text)``, in ms."""
    best = np.inf
    for _ in range(repeats):
        t0 = time.thread_time()
        qps.parse_qps_document(text)
        best = min(best, time.thread_time() - t0)
    return best * 1e3


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=600, help="number of affine rows")
    ap.add_argument("--n", type=int, default=400, help="number of variables")
    ap.add_argument("--max-sweeps", type=int, default=300)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rows, x0, _z = make_system(args.m, args.n, args.seed)
    problem = make_level_problem(rows, args.n, args.seed)
    t_level = problem.objective.value(x0)  # loose level: exercises the mixed path

    cases = {
        "cspm  (affine rows)": lambda: cfp_solve(
            rows, x0, SolverSpec("cspm", lam=1.5, max_sweeps=args.max_sweeps)),
        "art3+ (interval rows)": lambda: cfp_solve(
            rows, x0, SolverSpec("art3+", max_sweeps=args.max_sweeps)),
        "cspm  (rows + quadratic level)": lambda: cfp_with_level(
            problem, t_level, SolverSpec("cspm", lam=1.5, max_sweeps=args.max_sweeps), x0=x0),
    }

    print(f"system: m={args.m} rows, n={args.n} vars, "
          f"max_sweeps={args.max_sweeps}, best of {args.repeats}")
    header = f"{'case':<32}{'backend':<9}{'seconds':>10}{'sweeps':>8}  found"
    print(header)
    print("-" * len(header))
    available = _kernels.available_backends()
    summary = {}
    for case, runner in cases.items():
        for backend in ("c", "numpy"):
            if backend not in available:
                print(f"{case:<32}{backend:<9}{'n/a':>10}")
                continue
            _kernels.set_backend(backend)
            secs, out = timed(runner, args.repeats)
            summary[(case, backend)] = secs
            print(f"{case:<32}{backend:<9}{secs:>10.4f}{out.sweeps:>8}  {out.found}")
        both = [summary.get((case, b)) for b in ("c", "numpy")]
        if all(v is not None for v in both):
            print(f"{'':<32}{'speedup':<9}{both[1] / both[0]:>9.1f}x")

    print()
    header = f"{'kernel':<32}{'backend':<9}{'ns/row':>10}{'moved':>8}"
    print(header)
    print("-" * len(header))
    for kernel in ("cspm", "art3"):
        for m, n in ((120, 60), (args.m, args.n)):
            for backend in ("c", "numpy"):
                if backend not in available:
                    continue
                _kernels.set_backend(backend)
                ns, moved = kernel_ns_per_row(kernel, m, n, args.seed, args.repeats)
                print(f"{f'{kernel} m={m}, n={n}':<32}{backend:<9}{ns:>10.1f}{moved:>8.0%}")

    print()
    header = f"{'call, every row screened':<32}{'backend':<9}{'us/call':>10}"
    print(header)
    print("-" * len(header))
    if "c" in available:
        _kernels.set_backend("c")
        for kernel in ("cspm", "art3"):
            for m, n in ((70, 30), (280, 120)):
                us = call_us(kernel, m, n, args.seed)
                print(f"{f'{kernel} m={m}, n={n}':<32}{'c':<9}{us:>10.2f}")

    print()
    text = plant_art3_text()
    mb, lines = len(text.encode()) / 1e6, len(text.splitlines())
    header = f"{f'parse PLANT000, {mb:.2f} MB':<32}{'backend':<9}{'ms':>10}{'ms/MB':>10}{'ns/line':>10}"
    print(header)
    print("-" * len(header))
    for backend in ("c", "numpy"):
        if backend not in available:
            continue
        _kernels.set_backend(backend)
        ms = parse_ms(text)
        print(f"{f'{lines} lines':<32}{backend:<9}{ms:>10.2f}{ms / mb:>10.2f}{ms * 1e6 / lines:>10.0f}")
    _kernels.set_backend("auto")


if __name__ == "__main__":
    main()
