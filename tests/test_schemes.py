import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import cfpopt
from cfpopt import schemes
from cfpopt.feasibility import FeasibilityOutcome, SolverSpec
from cfpopt.harness import VARIANTS, HarnessConfig, builtin_problems, run_variant
from cfpopt.model import AffineConstraint, Bounds, Counters, CustomFunction, Problem, QuadraticFunction
from cfpopt.qps import parse_qps
from cfpopt.schemes import (
    CASE1,
    CASE2_OR_3,
    CASE3,
    ITERATION_CAP,
    AccelerationConfig,
    BisectionConfig,
    EpsilonRule,
    accelerated_level_set_solve,
    bisection_solve,
    counterexample_run,
    epsilon_update,
    level_set_solve,
)

_spec = importlib.util.spec_from_file_location(
    "make_problems", Path(__file__).parents[1] / "benchmarks" / "make_problems.py")
make_problems = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_problems)


def simple_qp():
    return Problem(QuadraticFunction([[2.0]], [0.0]), [AffineConstraint.geq([1.0], 1.0)],
                   fstar=1.0, name="simple_qp")


def box_lp():
    return Problem(QuadraticFunction([[0.0]], [1.0]), [], bounds=Bounds([0.0], [1.0]),
                   fstar=0.0, name="box_lp")


def infeasible_problem():
    return Problem(QuadraticFunction([[2.0]], [0.0]),
                   [AffineConstraint.leq([1.0], -1.0), AffineConstraint.geq([1.0], 1.0)])


class TestEpsilonUpdate:
    def test_above_one(self):
        assert epsilon_update(400.0, EpsilonRule()) == pytest.approx(40.0)

    def test_floor_branch(self):
        assert epsilon_update(0.5, EpsilonRule()) == pytest.approx(0.1)

    def test_absolute_value(self):
        assert epsilon_update(-20.0, EpsilonRule()) == pytest.approx(2.0)

    def test_multiplicative_mode(self):
        rule = EpsilonRule(mode="multiplicative", factor=0.1)
        assert epsilon_update(0.5, rule) == pytest.approx(0.05)

    def test_constant_mode(self):
        rule = EpsilonRule(mode="constant", floor=0.3)
        assert epsilon_update(123.0, rule) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            EpsilonRule(mode="linear")
        with pytest.raises(ValueError):
            EpsilonRule(floor=0.0)
        with pytest.raises(ValueError):
            epsilon_update(np.inf, EpsilonRule())


class TestLevelSet:
    def test_simple_qp_certificate(self):
        res = level_set_solve(simple_qp(), x0=[2.0])
        assert res.case == CASE2_OR_3
        assert 1.0 - 1e-8 <= res.best_value <= 1.1 + 1e-6
        assert abs(res.best_value - 1.0) < res.epsilon + 1e-6
        assert simple_qp().max_violation(res.best_x) <= 1e-8

    def test_infeasible_is_case1(self):
        res = level_set_solve(infeasible_problem(), SolverSpec("cspm", max_sweeps=200))
        assert res.case == CASE1
        assert res.best_x is None

    def test_box_lp_near_zero(self):
        res = level_set_solve(box_lp(), x0=[0.7])
        assert res.case == CASE2_OR_3
        assert abs(res.best_value - 0.0) < res.epsilon + 1e-6

    def test_levels_strictly_decreasing_and_floor_bounded(self):
        res = level_set_solve(simple_qp(), x0=[2.0])
        ts = [t for (_k, t, _f) in res.trace]
        assert all(t1 < t0 for t0, t1 in zip(ts, ts[1:]))
        floor = 0.1
        for k, t, _f in res.trace:
            assert t <= ts[0] - k * floor + 1e-12

    def test_finite_termination_bound(self):
        p = simple_qp()
        res = level_set_solve(p, x0=[2.0])
        t0 = res.trace[0][1]
        bound = math.ceil((t0 - p.fstar) / 0.1) + 1
        assert res.level_steps <= bound

    def test_warm_start_feasible_every_step(self):
        p = simple_qp()
        res = level_set_solve(p, x0=[2.0])
        # every accepted trace point was feasible: f decreases monotonically
        fs = [f for (_k, _t, f) in res.trace]
        assert all(f1 < f0 for f0, f1 in zip(fs, fs[1:]))

    def test_counters_accumulate(self):
        res = level_set_solve(simple_qp(), x0=[2.0])
        assert res.counters.projections > 0
        assert res.counters.obj_evals > 0


class TestAcceleratedLevelSet:
    def test_degenerate_config_is_bitwise_identical(self):
        for problem, x0 in ((simple_qp(), [2.0]), (box_lp(), [0.7])):
            plain = level_set_solve(problem, x0=x0)
            accel = accelerated_level_set_solve(
                problem, x0=x0, accel=AccelerationConfig(s=np.inf))
            assert plain.case == accel.case
            assert plain.best_x.tobytes() == accel.best_x.tobytes()
            assert plain.trace == accel.trace
            assert plain.counters == accel.counters

    def test_firing_stalls_still_certify(self):
        res = accelerated_level_set_solve(
            simple_qp(), x0=[2.0],
            accel=AccelerationConfig(c=1.0, s=0.001, block=10))
        assert res.case == CASE2_OR_3
        assert 1.0 - 1e-8 <= res.best_value <= 1.1 + 1e-6

    def test_adaptive_perturbation_never_increases_objective(self):
        # f(x) = x^4 at x = 1: the raw 1.9-gradient step overshoots badly
        quartic = CustomFunction(
            lambda x: float(x[0] ** 4),
            lambda x: 4.0 * x**3,
            name="quartic",
        )
        p = Problem(quartic, [AffineConstraint.geq([1.0], -100.0)], n=1)
        from cfpopt.schemes import _perturb

        counters = Counters()
        x = np.array([1.0])
        raw = _perturb(p, x, AccelerationConfig(adaptive=False), counters)
        assert quartic.value(raw) > quartic.value(x)  # the heuristic overshoots
        adapted = _perturb(p, x, AccelerationConfig(adaptive=True), counters)
        assert quartic.value(adapted) <= quartic.value(x)

    def test_adaptive_accepted_alpha_satisfies_descent(self):
        quartic = CustomFunction(lambda x: float(x[0] ** 4), lambda x: 4.0 * x**3, name="q")
        x = np.array([1.0])
        fx = quartic.value(x)
        g = quartic.subgrad(x)
        alpha = 1.9
        while quartic.value(x - alpha * g) > fx:
            alpha *= 0.5
        assert quartic.value(x - alpha * g) <= fx
        assert alpha < 1.9


class TestAccelerationIncumbent:
    """A stall perturbation moves only the warm start: whatever fires, the
    returned point is one a solve found, feasible, with f(best_x) == f_hat."""

    CONFIGS = [
        HarnessConfig(accel_c=c, accel_s=0.001, block=block, accel_adaptive=adaptive)
        for c, block in ((1.0, 10), (10.0, 1))
        for adaptive in (False, True)
    ]

    @pytest.mark.parametrize("variant", ["ls_acc_cspm", "ls_acc_sup_cspm",
                                         "bis_acc_cspm", "bis_acc_sup_cspm"])
    @pytest.mark.parametrize("config", CONFIGS,
                             ids=lambda c: f"c{c.accel_c:g}-b{c.block}-adaptive{int(c.accel_adaptive)}")
    def test_best_x_is_a_found_point(self, variant, config, scheme_results):
        for name, problem in builtin_problems().items():
            r = run_variant(variant, problem, config)
            if r.best_x is None:
                continue
            assert problem.max_violation(r.best_x) <= config.feas_tol, name
            assert problem.objective.value(r.best_x) == r.f_hat, name
            if variant.startswith("bis_"):  # f_hi never increases
                f_hi = [f for (_k, _t, f) in scheme_results[-1].trace]
                assert all(b <= a for a, b in zip(f_hi, f_hi[1:])), name


# simple_qp from x0 = 2 with f_lower = 0 tests t = 2, then t = 3: a time-out at 2
# and a point of value 1 at 3 cross the bracket (f_lo = 2 > f_hi = 1), so every
# later level is 1.5, which the incumbent x = 1 itself satisfies
CROSSING = {2.0: None, 3.0: [1.0]}


def scripted_level_tests(monkeypatch, script):
    """Patch the schemes' level test: a level in ``script`` times out (None) or
    finds the given point, any other level is solved.  Returns the list of
    ``(t, warm start)`` pairs the test was called with."""
    calls = []
    solve = schemes.cfp_with_level

    def scripted(problem, t, solver, x0, **kw):
        calls.append((t, x0.copy()))
        if t not in script:
            return solve(problem, t, solver, x0, **kw)
        x = script[t]
        return FeasibilityOutcome(x is not None, x0.copy() if x is None else np.array(x), 1, 0, 0, 0)

    monkeypatch.setattr(schemes, "cfp_with_level", scripted)
    return calls


def crossed_bisection(max_outer, accel=None):
    return bisection_solve(simple_qp(), x0=[2.0], cfg=BisectionConfig(f_lower=0.0), accel=accel,
                           max_outer=max_outer)


class TestBisection:
    def test_simple_qp_gamma_optimal(self):
        res = bisection_solve(simple_qp(), x0=[2.0], cfg=BisectionConfig(f_lower=0.0))
        assert res.case == CASE2_OR_3
        assert res.upper - res.lower <= 1e-5
        assert abs(res.best_value - 1.0) <= 1e-5 + 1e-6
        assert res.epsilon == pytest.approx(1e-5)

    def test_step_count_near_log2_bound(self):
        res = bisection_solve(simple_qp(), x0=[2.0], cfg=BisectionConfig(f_lower=0.0))
        # initial bracket [0, 4] shrinks to 1e-5
        predicted = math.ceil(math.log2(4.0 / 1e-5))
        assert abs(res.level_steps - predicted) <= 2

    def test_bracket_width_at_least_halves(self):
        res = bisection_solve(simple_qp(), x0=[2.0], cfg=BisectionConfig(f_lower=0.0))
        # the trace stores (k, midpoint after update, f_hi), so the bracket
        # reconstructs as f_lo = 2 t - f_hi and width = 2 (f_hi - t)
        widths = [2.0 * (f - t) for (_k, t, f) in res.trace]
        assert all(w >= -1e-12 for w in widths)
        for w0, w1 in zip(widths, widths[1:]):
            assert w1 <= 0.5 * w0 + 1e-7  # found steps may overshoot by feas_tol
        assert res.lower <= res.upper
        assert res.upper - res.lower == pytest.approx(widths[-1], abs=1e-12)

    def test_instant_stop_when_bracket_tight(self):
        p = simple_qp()
        res = bisection_solve(p, x0=[1.0], cfg=BisectionConfig(f_lower=1.0 - 1e-6, gamma=1e-5))
        assert res.level_steps == 0
        assert res.case == CASE2_OR_3

    def test_infeasible_is_case1(self):
        res = bisection_solve(infeasible_problem(), SolverSpec("cspm", max_sweeps=100))
        assert res.case == CASE1

    def test_lower_bound_above_the_first_feasible_value_rejected(self):
        # f(x^0) = 4 at x0 = 2, so f_lower = 5 cannot bound f* = 1
        counters = Counters()
        with pytest.raises(ValueError, match="f_lower 5.0 exceeds the first feasible value 4.0"):
            bisection_solve(simple_qp(), x0=[2.0], cfg=BisectionConfig(f_lower=5.0),
                            counters=counters)
        assert counters.projections == 1  # the first feasibility solve only
        res = bisection_solve(simple_qp(), x0=[2.0], cfg=BisectionConfig(f_lower=4.0))
        assert (res.case, res.level_steps) == (CASE2_OR_3, 0)

    def test_default_lower_bound_used(self):
        res = bisection_solve(simple_qp(), x0=[2.0])
        assert res.case == CASE2_OR_3
        # crude bound min(0, f0 - |f0|) = 0 for f0 = 4 > 0
        assert res.lower >= 0.0 - 1e-12

    def test_accelerated_bisection_runs(self):
        res = bisection_solve(simple_qp(), x0=[2.0], cfg=BisectionConfig(f_lower=0.0),
                              accel=AccelerationConfig(c=1.0, s=0.001, block=10))
        assert res.case == CASE2_OR_3
        assert abs(res.best_value - 1.0) <= 1e-4

    def test_accelerated_bisection_perturbs_only_found_points(self, monkeypatch):
        # a stall that fires after a failed test shifts the incumbent again,
        # not the shifted warm start of the failed test: shifts never compound
        found, perturbed, starts_after_failure = [], [], []
        solve, perturb = schemes.cfp_with_level, schemes._perturb
        failed = False

        def recording_solve(problem, t, solver, x0, **kwargs):
            nonlocal failed
            if failed:
                starts_after_failure.append(x0.copy())
            out = solve(problem, t, solver, x0, **kwargs)
            failed = not out.found
            if out.found:
                found.append(out.x.copy())
            return out

        def recording_perturb(problem, x, accel, counters):
            perturbed.append(x.copy())
            return perturb(problem, x, accel, counters)

        monkeypatch.setattr(schemes, "cfp_with_level", recording_solve)
        monkeypatch.setattr(schemes, "_perturb", recording_perturb)
        res = bisection_solve(simple_qp(), x0=[2.0], cfg=BisectionConfig(f_lower=0.0),
                              accel=AccelerationConfig(c=10.0, s=0.001, block=1))
        assert res.case == CASE2_OR_3
        # some stalls fire after a failed test: the next test starts from a shifted point
        assert any(not any(np.array_equal(x, y) for y in found) for x in starts_after_failure)
        for x in perturbed:
            assert any(np.array_equal(x, y) for y in found)

    @pytest.mark.parametrize("found", [[1.2], [-1.0]], ids=["worse", "equal"])
    def test_found_point_no_better_than_the_incumbent_is_kept_out(self, monkeypatch, found):
        # in the crossed bracket the test at 1.5 finds a point of value 1.44 or 1 >= f_hi = 1
        scripted_level_tests(monkeypatch, {**CROSSING, 1.5: found})
        res = crossed_bisection(max_outer=3)
        assert res.case == ITERATION_CAP
        assert res.best_x.tolist() == [1.0]
        assert (res.best_value, res.upper, res.lower) == (1.0, 1.0, 2.0)
        assert res.trace == [(0, 2.0, 4.0), (1, 3.0, 4.0), (2, 1.5, 1.0), (3, 1.5, 1.0)]

    def test_repeated_level_test_is_not_solved_again(self, monkeypatch):
        # from the crossing on, every test is (1.5, x = 1) and finds x = 1 again
        calls = scripted_level_tests(monkeypatch, CROSSING)
        short = crossed_bisection(max_outer=3)
        assert [t for t, _x in calls] == [np.inf, 2.0, 3.0, 1.5]
        calls.clear()
        res = crossed_bisection(max_outer=10)
        assert [t for t, _x in calls] == [np.inf, 2.0, 3.0, 1.5]  # once per distinct test
        assert res.counters == short.counters  # repeats cost nothing
        assert res.counters.projections > 0
        # what a run that solved every repeat gives
        assert (res.case, res.level_steps) == (ITERATION_CAP, 10)
        assert res.trace == [(0, 2.0, 4.0), (1, 3.0, 4.0)] + [(k, 1.5, 1.0) for k in range(2, 11)]
        assert res.best_x.tolist() == [1.0]

    def test_repeated_level_with_a_shifted_warm_start_is_solved(self, monkeypatch):
        # the stall fires at every repeat of 1.5 and shifts x = 1 to x - 1.9 f'(x)
        calls = scripted_level_tests(monkeypatch, CROSSING)
        res = crossed_bisection(max_outer=6, accel=AccelerationConfig(c=10.0, s=0.001, block=1))
        starts = [x.tolist() for t, x in calls if t == 1.5]
        assert starts == [[1.0], [1.0 - 1.9 * 2.0]]  # the same shift again is a repeat
        assert res.best_x.tolist() == [1.0]
        assert res.trace[2:] == [(k, 1.5, 1.0) for k in range(2, 7)]

    def test_stalls_at_an_unchanged_incumbent_shift_it_once(self, monkeypatch):
        # the stall fires at every step, and the incumbent changes once, at the
        # crossing: each distinct incumbent is shifted once, not once per test
        scripted_level_tests(monkeypatch, CROSSING)
        perturbed, perturb = [], schemes._perturb

        def recording_perturb(problem, x, accel, counters):
            perturbed.append(x.tolist())
            return perturb(problem, x, accel, counters)

        monkeypatch.setattr(schemes, "_perturb", recording_perturb)
        res = crossed_bisection(max_outer=6, accel=AccelerationConfig(c=10.0, s=0.001, block=1))
        assert perturbed == [[2.0], [1.0]]
        assert res.trace[2:] == [(k, 1.5, 1.0) for k in range(2, 7)]


def square(bounds=None):
    """``min x^2 s.t. x >= 1`` with the objective behind the oracle interface, not a QP."""
    f = CustomFunction(lambda x: float(x[0] * x[0]), lambda x: 2.0 * x, name="square")
    return Problem(f, [AffineConstraint.geq([1.0], 1.0)], bounds=bounds, fstar=1.0, name="square")


class TestHonestBisection:
    """Bisection on an objective that is not a QP ends at its first unproven time-out; a QP's does not."""

    # from x0 = 2 (f = 4) over [0, 4]: the test at 2 finds x = 1.5 (f = 2.25), and the
    # test at 1.125 times out
    SCRIPT = {2.0: [1.5], 1.125: None}

    def test_a_time_out_ends_a_non_qp_run_in_case3(self, monkeypatch):
        calls = scripted_level_tests(monkeypatch, self.SCRIPT)
        res = bisection_solve(square(), x0=[2.0], cfg=BisectionConfig(f_lower=0.0))
        assert [t for t, _x in calls] == [np.inf, 2.0, 1.125]
        assert res.case == CASE3 == cfpopt.CASE3 == "case3"
        assert res.epsilon is None
        assert (res.lower, res.upper) == (0.0, 2.25)  # the time-out left f_lo where it was
        assert (res.best_x.tolist(), res.best_value) == ([1.5], 2.25)
        assert res.level_steps == 2
        assert res.trace == [(0, 2.0, 4.0), (1, 1.125, 2.25)]

    def test_a_qp_still_reads_the_time_out_as_a_proof(self, monkeypatch):
        scripted_level_tests(monkeypatch, self.SCRIPT)
        res = bisection_solve(simple_qp(), x0=[2.0], cfg=BisectionConfig(f_lower=0.0), max_outer=2)
        assert res.case == ITERATION_CAP
        assert (res.lower, res.upper) == (1.125, 2.25)
        assert res.trace == [(0, 2.0, 4.0), (1, 1.125, 2.25), (2, 1.6875, 2.25)]

    def test_a_non_qp_run_without_proofs_ends_in_case3(self):
        # without a box no solve can prove its level set empty
        res = bisection_solve(square(), x0=[2.0], cfg=BisectionConfig(f_lower=0.0))
        assert res.case == CASE3 and res.epsilon is None
        assert res.lower == 0.0 <= res.upper == res.best_value

    def test_a_non_qp_run_whose_failures_are_proven_still_certifies(self):
        res = bisection_solve(square(Bounds([-3.0], [3.0])), x0=[2.0], cfg=BisectionConfig(f_lower=0.0))
        assert res.case == CASE2_OR_3
        assert res.epsilon == 1e-5
        assert res.lower <= 1.0 <= res.upper <= res.lower + 1e-5


# min x s.t. x <= 1 with x free: no optimum, so no certificate holds
UNBOUNDED_LP = """\
NAME          UNBOUNDED
ROWS
 N  OBJ
 L  C1
COLUMNS
    X1        OBJ       1.0        C1        1.0
RHS
    RHS       C1        1.0
BOUNDS
 FR BND       X1
ENDATA
"""


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="bisection's default lower bound, 0.0 here, closes the bracket "
                   "at once; ROADMAP items 2 (Stage B, Part B) and 5 own the fix")
@pytest.mark.parametrize("variant", ["bis_cspm", "bis_art3+", "bis_sup_cspm"])
def test_bisection_certifies_no_optimum_of_an_unbounded_lp(variant):
    assert run_variant(variant, parse_qps(UNBOUNDED_LP)).status != CASE2_OR_3


@pytest.mark.parametrize("solve", [level_set_solve, accelerated_level_set_solve, bisection_solve])
def test_negative_max_outer_rejected_before_any_solve(solve):
    counters = Counters()
    with pytest.raises(ValueError, match="max_outer must be nonnegative, got -1"):
        solve(simple_qp(), x0=[2.0], max_outer=-1, counters=counters)
    with pytest.raises(ValueError, match="max_outer must be an integer, got 2.5"):
        solve(simple_qp(), x0=[2.0], max_outer=2.5, counters=counters)
    assert counters.projections == 0


class TestCounterexample:
    def test_paper_start_values(self):
        tr = counterexample_run()
        assert tr.fs[0] == 400.0
        assert tr.epss[0] == pytest.approx(40.0)
        assert tr.ts[0] == 360.0  # exact
        assert tr.xs[1] == pytest.approx(math.sqrt(460.0), rel=1e-12)
        assert tr.fs[1] == pytest.approx(360.0)

    def test_recursion_identity(self):
        tr = counterexample_run()
        for k in range(1, len(tr.xs)):
            assert tr.xs[k] == pytest.approx(
                math.sqrt(10.0 + 0.9 * tr.xs[k - 1] ** 2), rel=1e-12)

    def test_divergence_checks(self):
        tr = counterexample_run(steps=100)
        assert tr.ok_levels_nonnegative
        assert tr.ok_gap_at_least_100
        assert tr.ok_slack_sum_bounded
        assert tr.ok

    def test_levels_follow_geometric_decay(self):
        tr = counterexample_run(steps=10)
        for k in range(1, len(tr.ts)):
            assert tr.ts[k] == pytest.approx(0.9 * tr.ts[k - 1], rel=1e-12)

    @pytest.mark.parametrize("steps", [0, -3, 2.5])
    def test_steps_below_one_rejected(self, steps):
        with pytest.raises(ValueError, match="steps must be"):
            counterexample_run(steps=steps)


class TestSchemeEdges:
    def test_iteration_cap_flagged(self):
        # multiplicative-only slack on an unconstrained-ish problem never
        # triggers infeasibility within a small cap, and the bisection bracket
        # cannot close in 5 steps: both schemes report the cap distinctly
        p = Problem(QuadraticFunction([[2.0]], [0.0], -100.0),
                    [AffineConstraint.geq([1.0], -1000.0)])
        for solve in (level_set_solve, bisection_solve):
            res = solve(p, x0=[math.sqrt(500.0)],
                        rule=EpsilonRule(mode="multiplicative", factor=0.1),
                        max_outer=5)
            assert res.case == ITERATION_CAP, solve.__name__
            assert res.level_steps == 5, solve.__name__
            assert res.epsilon is None, solve.__name__

    def test_case2_certificate_via_level_minimum(self):
        # objective minimum inside the feasible set: the scheme walks to it
        # and the empty level set is certified by the vanishing subgradient
        under = CustomFunction(
            lambda x: float(max(0.0, 1.0 - x[0]) ** 2),
            lambda x: np.array([-2.0 * max(0.0, 1.0 - x[0])]),
            name="hinge2",
        )
        p = Problem(under, [AffineConstraint.leq([1.0], 10.0)], n=1)
        res = level_set_solve(p, x0=[0.0])
        assert res.case == CASE2_OR_3
        assert res.best_value < 0.1 + 1e-9


def capped_dose():
    """The bundled fluence-map problem with dense rows around its oracle cap: rows, oracle, rows, box."""
    base = builtin_problems()["imrt_small"]
    rows = [AffineConstraint.geq([1.0, 1.0, 1.0, 1.0], 0.5), *base.constraints,
            AffineConstraint.leq([1.0, 0.0, 1.0, 0.0], 8.0)]
    return Problem(base.objective, rows, bounds=base.bounds, name="capped_dose")


def recorded_level_tests(monkeypatch):
    """Record ``(t, found, certified, x)`` for every level test the schemes make."""
    tests = []
    solve = schemes.cfp_with_level

    def recording(problem, t, *args, **kw):
        out = solve(problem, t, *args, **kw)
        tests.append((float(t).hex(), out.found, out.infeasibility_certified, out.x.tobytes()))
        return out

    monkeypatch.setattr(schemes, "cfp_with_level", recording)
    return tests


def run_cells(problems, config, variants):
    """``{(problem, variant): (report or raised message, level tests)}`` for each cell."""
    cells = {}
    for problem in problems:
        for variant in variants:
            with pytest.MonkeyPatch.context() as m:
                tests = recorded_level_tests(m)
                try:
                    cells[problem.name, variant] = run_variant(variant, problem, config), tests
                except ValueError as exc:
                    cells[problem.name, variant] = str(exc), tests
    return cells


class TestCarriedPlan:
    """A scheme run packs its rows once and carries every row's screen across its
    feasibility solves (``feasibility.RowPlan``): the same run as one whose every
    solve packs its own, with no more projections."""

    ACCEL = HarnessConfig(accel_c=10.0, accel_s=0.001, block=1)

    @pytest.mark.parametrize("config", [HarnessConfig(max_outer=100), ACCEL], ids=["default", "accel"])
    def test_same_run_as_fresh_plans(self, config, monkeypatch):
        planted, _fstar = make_problems.planted_instance(0, 30, 40)
        problems = [simple_qp(), planted, capped_dose()]
        carried = run_cells(problems, config, VARIANTS)
        monkeypatch.setattr(schemes, "RowPlan", lambda: None)  # every solve packs its own rows
        fresh = run_cells(problems, config, VARIANTS)
        saved = 0
        for cell, (report, tests) in carried.items():
            base, base_tests = fresh[cell]
            assert tests == base_tests, cell  # every solve's level, verdict and point
            if isinstance(base, str):  # ART3+ takes no oracle constraint
                assert report == base, cell
                continue
            assert report.status == base.status, cell
            assert repr(report.f_hat) == repr(base.f_hat), cell
            assert (report.obj_evals, report.outer_steps) == (base.obj_evals, base.outer_steps), cell
            assert report.projections <= base.projections, cell
            saved += base.projections - report.projections
        assert saved > 0

    def test_a_jump_onto_a_violated_row_is_swept(self, monkeypatch):
        # x0 + x1 >= 0, proven satisfied by the first solve at [3, 3]; the level
        # test at 14.4 then returns [-3, -4], 7 below the row, and the level's
        # steps (along (1, -1)) leave x0 + x1 where it is: only the row moves it back
        row = AffineConstraint.geq([1.0, 1.0], 0.0)
        problem = Problem(QuadraticFunction([[2.0, -2.0], [-2.0, 2.0]], [-8.0, 8.0], 16.0), [row])
        assert problem.objective.value(np.array([3.0, 3.0])) == 16.0
        scripted_level_tests(monkeypatch, {16.0 - 1.6: [-3.0, -4.0]})
        tests = []
        scripted = schemes.cfp_with_level

        def recording(*args, **kw):
            tests.append(scripted(*args, **kw))
            return tests[-1]

        monkeypatch.setattr(schemes, "cfp_with_level", recording)
        res = level_set_solve(problem, x0=[3.0, 3.0], max_outer=2)
        first, jump, after = tests[:3]
        assert first.found and first.sweeps == 1
        assert jump.x.tolist() == [-3.0, -4.0]
        assert after.found and after.moves > 0
        assert row.value(after.x) <= 1e-8
        assert problem.max_violation(res.best_x) <= 1e-8

    @pytest.mark.parametrize("variants", [("ls_cspm", "bis_art3+"), ("ls_sup_cspm", "bis_cspm")])
    def test_runs_on_one_problem_count_alike_in_either_order(self, variants):
        planted, _fstar = make_problems.planted_instance(1, 30, 40)
        config = HarnessConfig(max_outer=100)
        first = [run_variant(v, planted, config) for v in variants]
        second = [run_variant(v, planted, config) for v in reversed(variants)][::-1]
        for a, b in zip(first, second):
            assert (a.status, repr(a.f_hat), a.projections, a.obj_evals, a.outer_steps) == \
                (b.status, repr(b.f_hat), b.projections, b.obj_evals, b.outer_steps), a.variant
