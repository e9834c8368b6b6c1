#!/usr/bin/env python3
"""Generate a directory of synthetic convex QPs in QPS format for `bench`.

Each instance plants the unconstrained minimizer of a random PSD quadratic
strictly inside a random polytope (plus a box), so the optimal value is known
in closed form and is written to the fstar.json sidecar alongside the .qps
files.

``rosen_suzuki_instance`` builds QPs whose optimum has binding rows instead
(Rosen & Suzuki, "Construction of nonlinear programming test problems",
Comm. ACM 8, 1965), and ``unbounded_lp`` an LP with no optimum; both are for
``benchmarks/soundness.py``.

Usage:
    python benchmarks/make_problems.py --out /tmp/qps --count 20 --n 30 --m 40
    cfpopt bench --problems /tmp/qps --fstar-file /tmp/qps/fstar.json --out /tmp/rep
"""

import argparse
import json
from pathlib import Path

import numpy as np

from cfpopt.model import AffineConstraint, Bounds, Problem, QuadraticFunction
from cfpopt.qps import write_qps


def planted_instance(seed, n, m):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) / np.sqrt(n)
    Q = M @ M.T + 0.1 * np.eye(n)
    xstar = rng.standard_normal(n)
    c = -Q @ xstar
    fstar = float(0.5 * xstar @ (Q @ xstar) + c @ xstar)
    rows = []
    for _ in range(m):
        a = rng.standard_normal(n)
        slack = 0.2 + abs(rng.standard_normal())
        if rng.random() < 0.3:
            lo = float(a @ xstar) - slack
            rows.append(AffineConstraint.interval(a, lo, lo + 2 * slack))
        else:
            rows.append(AffineConstraint.leq(a, float(a @ xstar) + slack))
    margin = 2.0 + np.abs(rng.standard_normal(n))
    bounds = Bounds(xstar - margin, xstar + margin)
    name = f"PLANT{seed:03d}"
    problem = Problem(QuadraticFunction(Q, c), rows, bounds=bounds, n=n, name=name)
    return problem, fstar


# the boxes of a Rosen-Suzuki family: around x*, below x* only, or none
BOXES = ("full", "lower", "none")


def rosen_suzuki_instance(seed, n=20, m=30, k=5, box="full"):
    """A convex QP ``min 1/2 x'Qx + c'x s.t. A x <= b`` whose optimum has ``k`` binding rows.

    ``Q = M M'/n + 0.1 I`` and a point x*.  The first ``k`` rows pass through
    x* with multipliers ``mu_i`` in [0.5, 1.5), the others keep a slack of
    ``0.2 + |N(0, 1)|`` there, and ``c = -Q x* - A_S' mu``.  So x* and mu
    satisfy the KKT conditions, and ``f* = f(x*)`` is exact.  ``box``
    (one of ``BOXES``) puts x* at least 2 inside a box on both sides,
    below only, or leaves the variables free; the box never binds, and
    every ``box`` draws the same numbers, so the three share Q, c and A.
    Returns the problem and f*.
    """
    if box not in BOXES:
        raise ValueError(f"box must be one of {BOXES}, got {box!r}")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    Q = M @ M.T / n + 0.1 * np.eye(n)
    xstar = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    mu = rng.uniform(0.5, 1.5, k)
    b = A @ xstar
    b[k:] += 0.2 + np.abs(rng.standard_normal(m - k))
    c = -Q @ xstar - A[:k].T @ mu
    fstar = float(0.5 * xstar @ (Q @ xstar) + c @ xstar)
    margin = 2.0 + np.abs(rng.standard_normal(n))
    inf = np.full(n, np.inf)
    bounds = {"full": Bounds(xstar - margin, xstar + margin),
              "lower": Bounds(xstar - margin, inf), "none": Bounds(-inf, inf)}[box]
    rows = [AffineConstraint.leq(a, float(bi)) for a, bi in zip(A, b)]
    name = f"RS{seed:03d}"
    return Problem(QuadraticFunction(Q, c), rows, bounds=bounds, n=n, name=name), fstar


def unbounded_lp():
    """``min x s.t. x <= 1`` with x free: no optimum, so f* = -inf and no certificate holds."""
    objective = QuadraticFunction(np.zeros((1, 1)), np.ones(1))
    free = Bounds(np.full(1, -np.inf), np.full(1, np.inf))
    return Problem(objective, [AffineConstraint.leq(np.ones(1), 1.0)], bounds=free, n=1,
                   name="UNBOUNDED"), -np.inf


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--count", type=int, default=10)
    ap.add_argument("--n", type=int, default=20, help="variables per instance")
    ap.add_argument("--m", type=int, default=30, help="rows per instance")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fstars = {}
    for i in range(args.count):
        problem, fstar = planted_instance(args.seed + i, args.n, args.m)
        (out / f"{problem.name.lower()}.qps").write_text(write_qps(problem))
        fstars[problem.name] = fstar
    (out / "fstar.json").write_text(json.dumps(fstars, indent=2) + "\n")
    print(f"wrote {args.count} instances and fstar.json under {out}")


if __name__ == "__main__":
    main()
