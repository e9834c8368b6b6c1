"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Numeric tolerances are fixed here and must not be loosened.
"""

import csv
import math
import time

import numpy as np
import pytest

from cfpopt import _kernels
from cfpopt.cli import main as cli_main
from cfpopt.feasibility import cfp_solve, cfp_with_level, SolverSpec
from cfpopt.harness import (
    VARIANTS,
    HarnessConfig,
    builtin_problems,
    quality_score,
    run_variant,
)
from cfpopt.model import (
    AffineConstraint,
    Counters,
    CustomFunction,
    DoseModel,
    QuadraticFunction,
    make_pnorm,
    make_underdose,
)
from cfpopt.qps import parse_qps, write_qps
from cfpopt.schemes import (
    CASE1,
    CASE2_OR_3,
    AccelerationConfig,
    BisectionConfig,
    accelerated_level_set_solve,
    bisection_solve,
    counterexample_run,
    level_set_solve,
)
from cfpopt.superiorize import PerturbationTrace, SuperiorizationConfig


def _pass(num: int, text: str) -> None:
    print(f"[ACCEPTANCE {num:02d}] PASS  {text}")


# the epsilon-certificate suite: (problem name, start point, optimal value);
# qp2d's optimum is certified independently by the grid oracle below
SUITE = (("simple_qp", [2.0], 1.0), ("box_lp", [0.7], 0.0), ("qp2d", [2.0, 2.0], -0.5))


def qp2d_grid_oracle(step: float = 1e-3) -> float:
    """Brute-force the qp2d optimum on a fine grid (independent of the solvers)."""
    g = np.arange(0.0, 2.0 + step, step)
    X, Y = np.meshgrid(g, g, indexing="ij")
    F = 0.5 * (X**2 + Y**2) - X
    F[X + Y > 2.0] = np.inf
    return float(F.min())


def test_criterion_01_counterexample():
    start = time.perf_counter()
    trace = counterexample_run(steps=100)
    rc = cli_main(["diag", "counterexample"])
    elapsed = time.perf_counter() - start

    assert trace.ts[0] == 360.0  # exact
    assert abs(trace.xs[1] - math.sqrt(460.0)) <= 1e-12 * math.sqrt(460.0)
    assert np.all(trace.ts >= 0.0)
    assert np.all(np.abs(trace.fs - trace.t_star) >= 100.0)
    assert float(np.sum(trace.epss[1:])) <= trace.ts[0]
    assert rc == 0
    assert elapsed < 1.0
    _pass(1, f"t0=360 exact, x1=sqrt(460), divergence bounds hold ({elapsed:.3f}s)")


def test_criterion_02_epsilon_optimality_certificates():
    oracle = qp2d_grid_oracle()
    assert abs(oracle - (-0.5)) <= 1e-6  # grid pins the frozen optimum

    start = time.perf_counter()
    problems = builtin_problems()
    for name, x0, fstar in SUITE:
        res = level_set_solve(problems[name], x0=x0)
        assert res.case == CASE2_OR_3, name
        assert abs(res.best_value - fstar) < res.epsilon + 1e-6, name
        assert problems[name].max_violation(res.best_x) <= 1e-8, name
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _pass(2, f"level-set certificates valid on all three problems ({elapsed:.3f}s)")


def test_criterion_03_bisection_gamma_optimality():
    gamma = 1e-5
    problems = builtin_problems()
    for name, x0, fstar in SUITE:
        p = problems[name]
        f_l = fstar - 1.0
        # the count model assumes steps land on the level boundary: lam = 1
        out0 = cfp_with_level(p, np.inf, SolverSpec("cspm", lam=1.0), x0=x0)
        fh0 = p.objective.value(out0.x)
        predicted = math.ceil(math.log2((fh0 - f_l) / gamma))
        res = bisection_solve(p, SolverSpec("cspm", lam=1.0), x0=x0,
                              cfg=BisectionConfig(f_lower=f_l, gamma=gamma))
        assert res.upper - res.lower <= gamma, name
        assert abs(res.best_value - fstar) <= gamma + 1e-6, name
        assert abs(res.level_steps - predicted) <= 2, (name, res.level_steps, predicted)
    _pass(3, "bracket width, accuracy and step counts within bounds")


def test_criterion_04_fejer_monotonicity():
    rng = np.random.default_rng(2024)
    lams = (0.5, 1.0, 1.5, 1.9)
    for trial in range(100):
        n = int(rng.integers(2, 11))
        z = rng.standard_normal(n)
        cons = []
        for _ in range(int(rng.integers(2, 7))):
            a = rng.standard_normal(n)
            cons.append(AffineConstraint.leq(a, float(a @ z) + abs(rng.standard_normal())))
        center = z + rng.standard_normal(n) * 0.1
        radius2 = float((z - center) @ (z - center)) + abs(rng.standard_normal()) + 0.1
        cons.append(QuadraticFunction(2.0 * np.eye(n), -2.0 * center,
                                      float(center @ center) - radius2))
        x0 = rng.standard_normal(n) * 5.0
        lam = lams[trial % len(lams)]
        hist = []
        cfp_solve(cons, x0, SolverSpec(lam=lam, max_sweeps=40), history=hist)
        dists = [float(np.linalg.norm(x - z)) for x in hist]
        prev = float(np.linalg.norm(x0 - z))
        for d in dists:
            assert d <= prev + 1e-9
            prev = d
    _pass(4, "iterate distances to a feasible point never grew (100 CFPs x 4 lambdas)")


def _subgradient_checks(fn, sample_x, sample_y, count=1000, tol=1e-9):
    for _ in range(count):
        x, y = sample_x(), sample_y()
        fx = fn.value(x)
        xi = fn.subgrad(x)
        assert fn.value(y) >= fx + float(xi @ (y - x)) - tol


def _fd_grad(fn, x, h=1e-6):
    g = np.zeros_like(x)
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (fn.value(x + e) - fn.value(x - e)) / (2 * h)
    return g


def test_criterion_05_subgradient_oracles():
    rng = np.random.default_rng(77)
    M = rng.standard_normal((4, 4))
    model = DoseModel(rng.random((6, 4)) + 0.05, target=(0, 1, 2), risk=(3, 4, 5),
                      prescription=1.0, p=2)
    model8 = DoseModel(model.D, risk=(0, 1, 2, 3), p=8)
    kinds = {
        "quadratic": QuadraticFunction(M @ M.T, rng.standard_normal(4), 0.7),
        "affine": AffineConstraint.leq(rng.standard_normal(4), 0.3),
        "interval-affine": AffineConstraint.interval(rng.standard_normal(4), -0.5, 1.5),
        "equality": AffineConstraint.eq(rng.standard_normal(4), 0.1),
        "underdose": make_underdose(model),
        "pnorm2": make_pnorm(model),
        "pnorm8": make_pnorm(model8),
        "custom": CustomFunction(
            lambda x: float(np.abs(x).sum()),
            lambda x: np.sign(x),
            name="l1",
        ),
    }
    draw = lambda: rng.standard_normal(4) * 3.0
    for name, fn in kinds.items():
        _subgradient_checks(fn, draw, draw, count=1000, tol=1e-9)

    # smooth kinds against central differences
    for _ in range(50):
        x = rng.standard_normal(4)
        np.testing.assert_allclose(kinds["quadratic"].subgrad(x),
                                   _fd_grad(kinds["quadratic"], x), rtol=1e-4, atol=1e-8)
        np.testing.assert_allclose(kinds["affine"].subgrad(x),
                                   _fd_grad(kinds["affine"], x), rtol=1e-4, atol=1e-10)
    checked = 0
    for _ in range(300):
        x = rng.random(4) * 0.5
        fu = kinds["underdose"]
        d = model.D[[0, 1, 2]] @ x
        if np.all(np.abs(1.0 - d) > 1e-3) and fu.value(x) > 1e-3:
            np.testing.assert_allclose(fu.subgrad(x), _fd_grad(fu, x), rtol=1e-4)
            checked += 1
        fp = kinds["pnorm2"]
        if fp.value(x) > 1e-3:
            np.testing.assert_allclose(fp.subgrad(x), _fd_grad(fp, x), rtol=1e-4)
    assert checked > 30
    _pass(5, "1000 subgradient-inequality checks per kind; smooth gradients match FD")


def test_criterion_06_superiorization_contract():
    phi = QuadraticFunction([[2.0]], [0.0])
    cons = [AffineConstraint.geq([1.0], 1.0)]

    # (a) merit safety, exact
    trace = PerturbationTrace()
    cfp_solve(cons, [5.0], SolverSpec(sup=SuperiorizationConfig(N=3, a=0.9), lam=1.0, max_sweeps=500),
              objective=phi, trace=trace)
    assert trace.accepted
    for _k, _ell, _beta, z, anchor in trace.accepted:
        assert phi.value(z) <= anchor

    # (b) N = 0 reproduces the base solver bitwise
    rng = np.random.default_rng(5)
    z = rng.standard_normal(4)
    rand_cons = [AffineConstraint.leq(a, float(a @ z) + 0.05)
                 for a in rng.standard_normal((6, 4))]
    x0 = rng.standard_normal(4) * 4
    c1, c2 = Counters(), Counters()
    h1, h2 = [], []
    base = cfp_solve(rand_cons, x0, SolverSpec(lam=1.5), counters=c1, history=h1)
    sup0 = cfp_solve(rand_cons, x0, SolverSpec(sup=SuperiorizationConfig(N=0, a=0.5), lam=1.5,
                                               max_sweeps=1000),
                     counters=c2, history=h2, objective=phi)
    assert base.x.tobytes() == sup0.x.tobytes()
    assert c1 == c2 and base.sweeps == sup0.sweeps
    assert all(a_.tobytes() == b_.tobytes() for a_, b_ in zip(h1, h2))

    # (c) resilience: base and superiorized both certify every consistent CFP
    problems = builtin_problems()
    for name, x0_, _fstar in SUITE + (("imrt_small", [1.0, 1.0, 1.0, 1.0], None),):
        p = problems[name]
        spec = SolverSpec("cspm", sup=SuperiorizationConfig(N=1, a=0.5))
        plain = cfp_with_level(p, np.inf, "cspm", x0=x0_)
        sup = cfp_with_level(p, np.inf, spec, x0=x0_)
        assert plain.found and sup.found, name

    # (d) superiority instance: phi ~ 1 versus the base solver's 25
    base = cfp_solve(cons, [5.0], SolverSpec(lam=1.0))
    sup = cfp_solve(cons, [5.0], SolverSpec(sup=SuperiorizationConfig(N=40, a=0.9), lam=1.0,
                                            max_sweeps=2000), objective=phi)
    assert base.found and sup.found
    assert phi.value(base.x) == 25.0
    assert phi.value(sup.x) < phi.value(base.x)
    assert phi.value(sup.x) <= 1.0 + 1e-6
    _pass(6, "merit safety, N=0 bitwise, resilience, superiority (1 vs 25)")


def test_criterion_07_pocs_cspm_coincidence():
    rng = np.random.default_rng(11)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        z = rng.standard_normal(n)
        cons = [AffineConstraint.leq(a, float(a @ z) + 0.05)
                for a in rng.standard_normal((int(rng.integers(2, 9)), n))]
        x0 = rng.standard_normal(n) * 3
        h1, h2 = [], []
        o1 = cfp_solve(cons, x0, SolverSpec(lam=1.5), history=h1)
        o2 = cfp_solve(cons, x0, SolverSpec("pocs", lam=1.5), history=h2)
        assert o1.found == o2.found and len(h1) == len(h2)
        for xa, xb in zip(h1, h2):
            np.testing.assert_allclose(xa, xb, rtol=0, atol=1e-12)
    _pass(7, "POCS and CSPM iterate sequences identical on canonical halfspaces")


FIXTURE_QP = """\
NAME          FIXQP1
ROWS
 N  OBJ
 L  C1
COLUMNS
    X1        OBJ       -1.0      C1        1.0
    X2        C1        1.0
RHS
    RHS       C1        2.0
QUADOBJ
    X1        X1        1.0
    X2        X2        1.0
ENDATA
"""

QMATRIX_TWIN = FIXTURE_QP.replace(
    "QUADOBJ\n    X1        X1        1.0\n    X2        X2        1.0",
    "QMATRIX\n    X1        X1        1.0\n    X2        X2        1.0",
)


def test_criterion_08_qps_parser():
    p = parse_qps(FIXTURE_QP)
    np.testing.assert_array_equal(p.objective.Q, np.eye(2))
    np.testing.assert_array_equal(p.objective.c, [-1.0, 0.0])
    row = p.constraints[0]
    np.testing.assert_array_equal(row.a, [1.0, 1.0])
    assert (row.lo, row.hi) == (-np.inf, 2.0)
    np.testing.assert_array_equal(p.bounds.lo, [0.0, 0.0])
    np.testing.assert_array_equal(p.bounds.hi, [np.inf, np.inf])

    q = parse_qps(write_qps(p))
    np.testing.assert_allclose(q.objective.Q, p.objective.Q, atol=1e-12)
    np.testing.assert_allclose(q.objective.c, p.objective.c, atol=1e-12)
    assert q.objective.constant == pytest.approx(p.objective.constant, abs=1e-12)
    for ca, cb in zip(p.constraints, q.constraints):
        np.testing.assert_allclose(ca.a, cb.a, atol=1e-12)
        assert cb.lo == pytest.approx(ca.lo, abs=1e-12)
        assert cb.hi == pytest.approx(ca.hi, abs=1e-12)

    m = parse_qps(QMATRIX_TWIN)
    np.testing.assert_array_equal(m.objective.Q, p.objective.Q)
    _pass(8, "fixture parses exactly, round-trips, QUADOBJ == QMATRIX")


def test_criterion_09_accelerated_degeneracy():
    problems = builtin_problems()
    for name, x0, _fstar in SUITE:
        plain = level_set_solve(problems[name], x0=x0)
        accel = accelerated_level_set_solve(problems[name], x0=x0,
                                            accel=AccelerationConfig(s=np.inf))
        assert plain.case == accel.case, name
        assert plain.best_x.tobytes() == accel.best_x.tobytes(), name
        assert plain.trace == accel.trace, name
        assert plain.counters == accel.counters, name

    # adaptive perturbation never increases the objective
    from cfpopt.schemes import _perturb
    from cfpopt.model import Problem

    quartic = CustomFunction(lambda x: float(np.sum(x**4)), lambda x: 4.0 * x**3, name="q")
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.standard_normal(3) * 2
        p = Problem(quartic, [AffineConstraint.geq(np.ones(3), -1e6)], n=3)
        out = _perturb(p, x, AccelerationConfig(adaptive=True), Counters())
        assert quartic.value(out) <= quartic.value(x) + 1e-12
    _pass(9, "s=inf acceleration bitwise-identical; adaptive step never increases f")


def test_criterion_10_harness_determinism_and_schema(tmp_path, fixtures_dir):
    assert set(VARIANTS) == {
        "ls_cspm", "ls_art3+", "ls_acc_cspm", "ls_sup_cspm", "ls_sup_art3+",
        "ls_acc_sup_cspm", "bis_cspm", "bis_art3+", "bis_acc_cspm",
        "bis_sup_cspm", "bis_sup_art3+", "bis_acc_sup_cspm",
    }
    assert quality_score(0.5, 0.0) == 0.5
    assert quality_score(0.55, 0.5) == pytest.approx(0.05)
    assert quality_score(-90.0, -100.0) == pytest.approx(0.1)

    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        rc = cli_main(["bench", "--problems", str(fixtures_dir), "--variants", "all",
                       "--fstar-file", str(fixtures_dir / "fstar.json"),
                       "--out", str(out)])
        assert rc == 0
        outs.append(out)

    def rows_without_ms(path):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            r.pop("ms")
        return rows

    assert rows_without_ms(outs[0] / "runs.csv") == rows_without_ms(outs[1] / "runs.csv")
    assert (outs[0] / "aggregate.csv").read_text() == (outs[1] / "aggregate.csv").read_text()
    _pass(10, "bench CSVs identical modulo wall time; 12-name registry; Q branches exact")


def test_criterion_11_infeasibility_handling():
    _kernels.warmup()
    p = builtin_problems()["infeasible"]
    start = time.perf_counter()
    cfg = HarnessConfig(max_sweeps=1000)
    for name in VARIANTS:
        r = run_variant(name, p, cfg)
        assert r.status == CASE1, name
    rc = cli_main(["solve", "--builtin", "infeasible", "--variant", "ls_cspm"])
    assert rc == 1
    rc = cli_main(["solve", "--builtin", "infeasible", "--variant", "bis_sup_art3+"])
    assert rc == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _pass(11, f"all 12 variants report case1, CLI exits 1 ({elapsed:.3f}s)")
