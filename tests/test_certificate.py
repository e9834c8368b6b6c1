"""The early emptiness certificate of CSPM and ART3+: sound, fast, and invisible in results.

A solve given the problem's bound box sums its steps into Farkas
combinations, over the whole solve and over windows of recent sweeps, and
stops with ``infeasibility_certified`` once one proves no tol-feasible point
exists.  These tests hold it to four promises: it never fires on a nonempty
level set, it fires within a few sweeps on clearly empty ones, it never fires
without a finite box, and the schemes' results are the ones the time-out
rule gives, with less work.  A level below the objective's
``lower_bound()`` is proven empty before the first sweep; the last tests
hold that proof to the same promises, at the edge of its test.
"""

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cfpopt import _kernels, feasibility
from cfpopt.feasibility import SolverSpec, cfp_with_level, make_sweeper
from cfpopt.harness import HarnessConfig, builtin_problems, run_variant
from cfpopt.model import (AffineConstraint, Bounds, Counters, DoseModel, PNormFunction, Problem,
                          QuadraticFunction, UnderdoseFunction)
from cfpopt.superiorize import PerturbationTrace, SuperiorizationConfig

_spec = importlib.util.spec_from_file_location(
    "make_problems", Path(__file__).parents[1] / "benchmarks" / "make_problems.py")
make_problems = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_problems)


def planted(i):
    return make_problems.planted_instance(i, 30, 40)


SOLVERS = [SolverSpec("cspm"), SolverSpec("cspm", sup=SuperiorizationConfig()),
           SolverSpec("art3+"), SolverSpec("art3+", sup=SuperiorizationConfig())]


@pytest.mark.parametrize("i", range(4))
def test_never_certifies_a_nonempty_level_set(i):
    problem, fstar = planted(i)
    starts = [None, *(np.random.default_rng(s).standard_normal(problem.n) * 3.0 for s in (1, 2))]
    for t in (fstar, fstar + 1e-6):
        for solver in SOLVERS:
            for x0 in starts:
                out = cfp_with_level(problem, t, solver, x0=x0)
                assert not out.infeasibility_certified, (t - fstar, solver, out.sweeps)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("tol", [0.0, 1e-8, 1e-4])
@pytest.mark.parametrize("via", ["rows", "level"])
def test_never_certifies_a_set_that_is_one_box_vertex(seed, tol, via):
    # x <= hi (the box) and a . x >= a . hi with a > 0 leave only x = hi: the
    # aggregate then touches the set at the box minimum, and only the rounding
    # margin stands between the computed gap and a false certificate.  The
    # cuts a . x >= a . hi are rows, or the linear objective -a . x at the
    # level -a . hi, whose linearisations are the cut itself.
    rng = np.random.default_rng(seed)
    n = 30
    hi = rng.uniform(-3.0, 3.0, n) * 10.0 ** rng.uniform(-2.0, 2.0)
    lo = hi - rng.uniform(0.5, 2.0, n)
    cuts = rng.uniform(0.1, 1.0, (5, n))
    if via == "rows":
        objective, t = QuadraticFunction(np.eye(n), np.zeros(n)), np.inf
        rows = [AffineConstraint.geq(a, float(a @ hi)) for a in cuts]
    else:
        objective, t = QuadraticFunction(np.zeros((n, n)), -cuts[0]), float(-cuts[0] @ hi)
        rows = []
    problem = Problem(objective, rows, bounds=Bounds(lo, hi), n=n)
    for solver in SOLVERS:
        out = cfp_with_level(problem, t, replace(solver, tol=tol), x0=lo.copy())
        assert not out.infeasibility_certified, (solver, out.sweeps)


def test_step_sums_by_hand():
    # box 0 <= x <= 1 and the level -x/2 <= -1/2, tol 0.1, lam 1.5, from x = 0
    problem = Problem(QuadraticFunction([[0.0]], [-0.5]), bounds=Bounds([0.0], [1.0]))
    sweeper = make_sweeper(SolverSpec("cspm", lam=1.5, tol=0.1), problem.constraints,
                           Counters(), problem.bounds, problem.objective, -0.5)
    agg = sweeper.aggregate
    # sweep 1: the box row holds; the level (v = 0.5, xi = -0.5) steps with
    # mu = 3 to x = 1.5, off xi . y <= xi . 0 - v + tol
    x = sweeper.sweep(np.zeros(1), 0)
    assert x[0] == 1.5
    assert agg.c[0] == pytest.approx(3 * -0.5)
    assert agg.b == pytest.approx(3 * (0.0 - 0.5 + 0.1))
    # sweep 2: the box row (over by 0.5) steps with mu = 0.75 to x = 0.75, off
    # y <= 1 + tol; the level (v = 0.125) steps with mu = 0.75, off
    # xi . y <= xi . 0.75 - v + tol
    x = sweeper.sweep(x, 1)
    assert agg.c[0] == pytest.approx(3 * -0.5 + 0.75 * 1.0 + 0.75 * -0.5)
    assert agg.b == pytest.approx(3 * (0.0 - 0.5 + 0.1) + 0.75 * 1.1
                                  + 0.75 * (-0.375 - 0.125 + 0.1))
    assert not sweeper.empty


def test_certifies_empty_level_sets_within_few_sweeps():
    for i in range(4):
        problem, fstar = planted(i)
        out = cfp_with_level(problem, fstar - 10.0, "cspm")
        assert out.infeasibility_certified and not out.found
        assert out.sweeps <= 20, (i, out.sweeps)
    problem, fstar = planted(0)
    out = cfp_with_level(problem, fstar - 1.0, "cspm")
    assert out.infeasibility_certified and out.sweeps <= 200


def test_art3_certifies_empty_level_sets_within_few_sweeps():
    # the reflections add next to nothing to the gap; the unrelaxed level
    # visits and the midline projections build it
    for i in range(4):
        problem, fstar = planted(i)
        out = cfp_with_level(problem, fstar - 10.0, "art3+")
        assert out.infeasibility_certified and not out.found
        assert out.sweeps <= 20, (i, out.sweeps)


def test_pocs_certifies_an_empty_affine_system():
    # x_0 + x_1 >= 3 inside the box [0, 1]^2
    problem = Problem(QuadraticFunction(np.eye(2), np.zeros(2)),
                      [AffineConstraint.geq([1.0, 1.0], 3.0)],
                      bounds=Bounds(np.zeros(2), np.ones(2)))
    out = cfp_with_level(problem, np.inf, "pocs")
    assert out.infeasibility_certified and not out.found
    assert out.sweeps < 10


@pytest.mark.parametrize("box", ["none", "infinite", "lower only", "upper only"])
def test_no_finite_box_never_certifies(box):
    problem, fstar = planted(0)
    inf = np.full(problem.n, np.inf)
    bounds = {"none": None, "infinite": Bounds(-inf, inf),
              "lower only": Bounds(problem.bounds.lo, inf),
              "upper only": Bounds(-inf, problem.bounds.hi)}[box]
    unboxed = Problem(problem.objective, problem.constraints, bounds=bounds, n=problem.n)
    for kind in ("cspm", "art3+"):
        out = cfp_with_level(unboxed, fstar - 10.0, SolverSpec(kind, max_sweeps=200))
        assert not out.found and not out.infeasibility_certified, kind
        assert out.sweeps == 200, kind


PLANT_VARIANTS = ("ls_cspm", "ls_acc_cspm", "ls_sup_cspm", "bis_cspm", "bis_sup_cspm",
                  "ls_art3+", "ls_sup_art3+", "bis_art3+", "bis_sup_art3+")


def test_results_match_the_time_out_rule(monkeypatch):
    config = HarnessConfig(max_outer=100)
    problems = [planted(i) for i in (0, 1)]

    def matrix():
        return {(p.name, v): run_variant(v, p, config, fstar=fstar)
                for p, fstar in problems for v in PLANT_VARIANTS}

    with_check = matrix()
    monkeypatch.setattr(feasibility._StepAggregate, "empty", lambda self, x, moves, sweeps: False)
    time_out_only = matrix()
    for cell, r in with_check.items():
        base = time_out_only[cell]
        assert r.status == base.status, cell
        assert r.f_hat == base.f_hat, cell  # bitwise, None included
        assert r.projections <= base.projections, cell
    assert (sum(r.projections for r in with_check.values())
            < 0.5 * sum(r.projections for r in time_out_only.values()))


def whole_solve_only(monkeypatch):
    """Keep only the window that starts at sweep 0, the whole solve's sum."""
    aggregate = feasibility._StepAggregate
    open_window = aggregate._open
    monkeypatch.setattr(aggregate, "_open", lambda self, k: open_window(self, k) if k == 0 else None)


def three_cuts():
    # x_0 >= 1, x_1 >= 1 and the level x_0 + x_1 <= 1.5 in the box [-100, 100]^2:
    # every two of them meet, all three do not
    rows = [AffineConstraint.geq([1.0, 0.0], 1.0), AffineConstraint.geq([0.0, 1.0], 1.0)]
    objective = QuadraticFunction(np.zeros((2, 2)), [1.0, 1.0])
    return Problem(objective, rows, bounds=Bounds(np.full(2, -100.0), np.full(2, 100.0))), 1.5


def test_windows_certify_an_empty_system_that_needs_its_rows(monkeypatch):
    problem, t = three_cuts()
    far = [-90.0, 90.0]
    for pair in ([0, 1], [0], [1]):
        rows = [problem.constraints[i] for i in pair]
        level = t if len(pair) < 2 else np.inf
        alone = Problem(problem.objective, rows, bounds=problem.bounds, n=2)
        assert cfp_with_level(alone, level, "cspm", x0=far).found, pair
    for kind in ("cspm", "art3+"):
        windows = cfp_with_level(problem, t, kind, x0=far)
        assert windows.infeasibility_certified and windows.sweeps <= 20, (kind, windows.sweeps)
        with monkeypatch.context() as m:
            whole_solve_only(m)
            whole = cfp_with_level(problem, t, kind, x0=far)
        # the early steps from the far start keep the whole solve's sum from
        # separating; the recent sweeps' sums do
        assert windows.sweeps <= whole.sweeps, kind
        assert whole.timed_out, (kind, whole.sweeps)


def test_art3_certifies_a_level_just_below_the_optimum(monkeypatch):
    # with the whole solve's sum alone this level times out after 1000 sweeps
    problem, fstar = planted(0)
    out = cfp_with_level(problem, fstar - 1e-4, "art3+")
    assert out.infeasibility_certified and not out.found
    assert out.sweeps < 300, out.sweeps
    whole_solve_only(monkeypatch)
    out = cfp_with_level(problem, fstar - 1e-4, "art3+")
    assert out.timed_out and out.sweeps == feasibility.DEFAULT_MAX_SWEEPS


def test_windows_follow_the_dyadic_starts():
    # x falls by one unit a sweep and every sweep adds 1 to b, so each
    # window's sums count its own sweeps exactly
    max_sweeps = 4096
    agg = feasibility._StepAggregate(Bounds(np.zeros(1), np.ones(1)), 0.0)
    most = 0
    for k in range(max_sweeps):
        agg.begin(np.array([-float(k)]), k)
        agg.add(1.0, 1.0, 1.0)
        agg.end(np.array([-float(k + 1)]), k + 1, k + 1, True)
        want = {0} | {(k >> j << j) - d for j in range(k.bit_length()) for d in (0, 1 << j)}
        starts = [start for start, _ in agg.starts]
        assert sorted(starts) == sorted(want), k
        live = len(starts)
        assert agg.windows.shape[1] == live <= k.bit_length() + 1
        assert live <= 2 * math.log2(k + 1) + 1
        for col, start in enumerate(starts):
            assert col == (start & -start).bit_length()
            assert agg.windows[1, col] == k + 1 - start  # c
            assert agg.windows[2, col] == k + 1 - start  # b
        if k < feasibility.DEFAULT_MAX_SWEEPS:
            most = max(most, live)
    # at most 2 log2(max_sweeps) + 1 windows: 21 in a 1000-sweep solve
    assert most <= 2 * math.log2(feasibility.DEFAULT_MAX_SWEEPS) + 1


@pytest.fixture
def restore_backend():
    saved = _kernels.active_backend()
    yield
    _kernels.set_backend(saved)


def planted_just_below_the_optimum():
    # dense rows: a dot product summed in another order than the c kernel's
    # drifts off its bits, and the certificate lands sweeps later
    problem, fstar = planted(0)
    return problem, fstar - 1e-4


@pytest.mark.parametrize("case, x0", [(three_cuts, [-90.0, 90.0]),
                                      (planted_just_below_the_optimum, None)])
@pytest.mark.parametrize("kind", ["cspm", "art3+"])
def test_backends_certify_at_the_same_sweep(kind, case, x0, restore_backend):
    problem, t = case()
    outs = {}
    for backend in _kernels.available_backends():
        _kernels.set_backend(backend)
        outs[backend] = cfp_with_level(problem, t, kind, x0=x0)
    for backend, out in outs.items():
        assert out.infeasibility_certified, backend
        assert (out.sweeps, out.projections) == (outs["numpy"].sweeps, outs["numpy"].projections)
        assert np.array_equal(out.x, outs["numpy"].x), backend


def dose_level(kind):
    """A nonnegative dose objective in the box [0, 2], and a start from which CSPM reaches f = 0."""
    dose = DoseModel(np.array([[1.0, 0.5], [0.2, 1.0]]), target=(0, 1), risk=(0, 1), p=8)
    if kind == "underdose":
        objective, x0 = UnderdoseFunction(dose), [0.5, 0.5]
    else:  # the p-norm is 0 at x = 0 alone, which its steps only approach
        objective, x0 = PNormFunction(dose), [0.0, 0.0]
    return Problem(objective, bounds=Bounds(np.zeros(2), np.full(2, 2.0))), x0


@pytest.mark.parametrize("solver", SOLVERS, ids=["cspm", "sup_cspm", "art3+", "sup_art3+"])
@pytest.mark.parametrize("kind", ["underdose", "pnorm"])
def test_lower_bound_certifies_just_past_the_tolerance(kind, solver):
    # f >= 0, so the level f <= t fails every visit's test f(x) - t <= tol
    # exactly when -t > tol; at t = -tol the point with f = 0 passes it
    problem, x0 = dose_level(kind)
    tol = solver.tol
    at_edge = cfp_with_level(problem, -tol, solver, x0=x0)
    assert at_edge.found and not at_edge.infeasibility_certified
    assert at_edge.sweeps > 0 and problem.objective.value(at_edge.x) == 0.0
    counters = Counters()
    past = cfp_with_level(problem, np.nextafter(-tol, -np.inf), solver, x0=x0, counters=counters)
    assert past.infeasibility_certified and not past.found
    assert (past.sweeps, past.projections, past.obj_evals, past.moves) == (0, 0, 0, 0)
    assert counters == Counters()
    np.testing.assert_array_equal(past.x, x0)


def test_zero_sweep_solve_calls_no_oracle_and_no_perturbation():
    calls = []

    class Counted(UnderdoseFunction):
        def value(self, x):
            calls.append("value")
            return super().value(x)

        def subgrad(self, x):
            calls.append("subgrad")
            return super().subgrad(x)

    objective = Counted(DoseModel(np.eye(2), target=(0, 1)))
    trace = PerturbationTrace()
    out = feasibility.cfp_solve([], [0.5, 0.5], SolverSpec(sup=SuperiorizationConfig(N=3)),
                                bounds=Bounds(np.zeros(2), np.ones(2)), objective=objective, t=-0.5,
                                trace=trace)
    assert out.infeasibility_certified and out.sweeps == 0
    assert calls == [] and trace == PerturbationTrace()


def test_lower_bound_changes_no_result(monkeypatch):
    # the builtin dose problem reaches f = 0, so its level-set runs end on a
    # level below 0: proven at zero sweeps now, after sweeps without the bound
    problem = builtin_problems()["imrt_small"]
    variants = ("ls_cspm", "ls_sup_cspm", "ls_acc_cspm", "bis_cspm", "bis_sup_cspm")

    def matrix():
        return {v: run_variant(v, problem, HarnessConfig()) for v in variants}

    with_bound = matrix()
    monkeypatch.setattr(UnderdoseFunction, "lower_bound", lambda self: -np.inf)
    without = matrix()
    for v, r in with_bound.items():
        base = without[v]
        assert (r.status, r.f_hat, r.outer_steps) == (base.status, base.f_hat, base.outer_steps), v
        assert r.projections <= base.projections and r.obj_evals <= base.obj_evals, v
    assert with_bound["ls_cspm"].projections < without["ls_cspm"].projections
