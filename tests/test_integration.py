"""Randomized end-to-end checks on constructed problems with known optima.

Each instance plants the unconstrained minimizer of a random PSD quadratic
strictly inside a random polytope, so the constrained optimum and its value
are known exactly; every scheme's certificate must then hold at its stated
tolerance.
"""

import numpy as np
import pytest

from cfpopt.feasibility import SolverSpec, cfp_solve
from cfpopt.harness import HarnessConfig, run_variant
from cfpopt.model import AffineConstraint, Bounds, Problem, QuadraticFunction
from cfpopt.schemes import CASE2_OR_3, BisectionConfig, bisection_solve, level_set_solve


def planted_qp(seed, n=None, m=None, with_bounds=False):
    """Random PSD quadratic whose free minimizer x* is strictly feasible."""
    rng = np.random.default_rng(seed)
    n = n if n is not None else int(rng.integers(2, 6))
    m = m if m is not None else int(rng.integers(2, 7))
    M = rng.standard_normal((n, n))
    Q = M @ M.T + 0.5 * np.eye(n)
    xstar = rng.standard_normal(n)
    c = -Q @ xstar
    fstar = float(0.5 * xstar @ (Q @ xstar) + c @ xstar)
    rows = []
    for _ in range(m):
        a = rng.standard_normal(n)
        rows.append(AffineConstraint.leq(a, float(a @ xstar) + 0.5 + abs(rng.standard_normal())))
    bounds = None
    if with_bounds:
        margin = 1.0 + np.abs(rng.standard_normal(n))
        bounds = Bounds(xstar - margin, xstar + margin)
    p = Problem(QuadraticFunction(Q, c), rows, bounds=bounds, fstar=fstar,
                name=f"planted_{seed}")
    return p, rng.standard_normal(n) * 3.0


@pytest.mark.parametrize("seed", range(8))
def test_level_set_certificate_on_planted_qps(seed):
    p, x0 = planted_qp(seed)
    res = level_set_solve(p, x0=x0)
    assert res.case == CASE2_OR_3
    assert p.max_violation(res.best_x) <= 1e-8
    assert res.best_value >= p.fstar - 1e-7
    assert abs(res.best_value - p.fstar) < res.epsilon + 1e-6


@pytest.mark.parametrize("seed", range(8, 12))
def test_bisection_certificate_on_planted_qps(seed):
    p, x0 = planted_qp(seed)
    res = bisection_solve(p, SolverSpec("cspm", lam=1.0), x0=x0,
                          cfg=BisectionConfig(f_lower=p.fstar - 1.0, gamma=1e-5))
    assert res.case == CASE2_OR_3
    assert res.upper - res.lower <= 1e-5
    assert abs(res.best_value - p.fstar) <= 1e-5 + 1e-6
    assert p.max_violation(res.best_x) <= 1e-8


@pytest.mark.parametrize("variant", ["ls_cspm", "ls_art3+", "ls_sup_cspm",
                                     "bis_cspm", "bis_art3+", "ls_acc_sup_cspm"])
def test_variants_agree_on_planted_qp(variant):
    p, x0 = planted_qp(99, with_bounds=True)
    cfg = HarnessConfig(f_lower=p.fstar - 1.0)
    r = run_variant(variant, p, cfg, x0=x0)
    assert r.status == CASE2_OR_3, variant
    assert r.quality is not None
    # every variant lands within the loosest certificate in play
    assert r.f_hat >= p.fstar - 1e-7
    assert abs(r.f_hat - p.fstar) <= max(0.1 * max(abs(p.fstar), 1.0), 0.1) + 1e-6


def test_negative_tolerance_rejected():
    rows = [AffineConstraint.geq([1.0], 1.0)]
    with pytest.raises(ValueError):
        cfp_solve(rows, [0.0], SolverSpec(tol=-1e-3))
    with pytest.raises(ValueError):
        cfp_solve(rows, [0.0], SolverSpec(tol=np.nan))


def test_art3_equality_row_is_kaczmarz_step():
    row = [AffineConstraint.eq([2.0], 3.0)]  # x = 1.5, zero-width interval
    out = cfp_solve(row, [10.0], "art3+")
    assert out.found
    assert out.x == pytest.approx([1.5])


def test_seeded_start_points_deterministic():
    p, _ = planted_qp(5)
    a = p.start_point(seed=7)
    b = p.start_point(seed=7)
    c = p.start_point(seed=8)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()
    np.testing.assert_array_equal(p.start_point(), np.zeros(p.n))
