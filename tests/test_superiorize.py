import math

import numpy as np
import pytest

from cfpopt.feasibility import cfp_solve, cfp_with_level, SolverSpec
from cfpopt.model import (
    AffineConstraint,
    Bounds,
    Counters,
    CustomFunction,
    Problem,
    QuadraticFunction,
)
from cfpopt.superiorize import SuperiorizationConfig, nonascending_direction


def norm2_fn(n=2):
    return QuadraticFunction(2.0 * np.eye(n), np.zeros(n))


class TestNonascendingDirection:
    def test_normalized_negative_gradient(self):
        d = nonascending_direction(norm2_fn(), np.array([3.0, 4.0]))
        np.testing.assert_allclose(d, [-0.6, -0.8])

    def test_zero_at_minimizer(self):
        d = nonascending_direction(norm2_fn(), np.zeros(2))
        np.testing.assert_array_equal(d, [0.0, 0.0])

    def test_scalar_shifted_quadratic(self):
        phi = QuadraticFunction([[2.0]], [0.0], -100.0)
        d = nonascending_direction(phi, np.array([math.sqrt(500.0)]))
        assert d == pytest.approx([-1.0])

    def test_unit_norm_bound(self):
        rng = np.random.default_rng(31)
        phi = norm2_fn(5)
        for _ in range(30):
            d = nonascending_direction(phi, rng.standard_normal(5))
            assert np.linalg.norm(d) <= 1.0 + 1e-12


class TestStepSizes:
    def test_kernel_sequence(self):
        cfg = SuperiorizationConfig(N=1, a=0.5)
        assert cfg.a**3 == pytest.approx(0.125)

    def test_first_candidate_accepted(self, solves):
        # phi = ||x||^2 at (1,0), d = (-1,0), beta = eta_0 = 1 -> z = (0,0)
        phi = norm2_fn()
        cons = [AffineConstraint.leq([1.0, 0.0], 5.0)]
        cfp_solve(cons, [1.0, 0.0], SolverSpec(sup=SuperiorizationConfig(N=1, a=0.5), max_sweeps=1),
                  objective=phi)
        # one step, in the hook before sweep 0, of beta = a**0: the first candidate
        x, z = solves[0].hooks[0]
        assert np.linalg.norm(z - x) == 1.0
        np.testing.assert_allclose(z, [0.0, 0.0])
        assert phi.value(x) == pytest.approx(1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuperiorizationConfig(N=-1)
        with pytest.raises(ValueError):
            SuperiorizationConfig(a=1.0)
        with pytest.raises(ValueError, match="N must be an integer, got 1.5"):
            SuperiorizationConfig(N=1.5)


class TestAlgorithmContract:
    def cfp(self):
        return [AffineConstraint.geq([1.0], 1.0)]

    def test_merit_safety_exact(self, solves):
        phi = QuadraticFunction([[2.0]], [0.0])
        cfp_solve(self.cfp(), [5.0], SolverSpec(sup=SuperiorizationConfig(N=3, a=0.9), lam=1.0,
                                                max_sweeps=500), objective=phi)
        assert any(len(path) > 1 for path in solves[0].hooks)
        for x, *accepted in solves[0].hooks:
            anchor = phi.value(x)
            for z in accepted:
                assert phi.value(z) <= anchor  # exact, no tolerance

    def test_global_step_index_monotone(self, solves):
        phi = QuadraticFunction([[2.0]], [0.0])
        cfp_solve(self.cfp(), [5.0], SolverSpec(sup=SuperiorizationConfig(N=2, a=0.9), lam=1.0,
                                                max_sweeps=500), objective=phi)
        # beta = a**l with 0 < a < 1: l strictly rises as beta strictly falls
        betas = [float(np.linalg.norm(z - x)) for path in solves[0].hooks
                 for x, z in zip(path, path[1:])]
        assert len(betas) > 1
        assert all(b1 < b0 for b0, b1 in zip(betas, betas[1:]))

    def test_n_zero_reproduces_base_bitwise(self, solves):
        rng = np.random.default_rng(23)
        z = rng.standard_normal(4)
        cons = []
        for _ in range(6):
            a = rng.standard_normal(4)
            cons.append(AffineConstraint.leq(a, float(a @ z) + 0.05))
        x0 = rng.standard_normal(4) * 4
        c1, c2 = Counters(), Counters()
        base = cfp_solve(cons, x0, SolverSpec(lam=1.5, max_sweeps=500), counters=c1)
        sup = cfp_solve(cons, x0, SolverSpec(sup=SuperiorizationConfig(N=0, a=0.5), lam=1.5,
                                             max_sweeps=500),
                        counters=c2, objective=norm2_fn(4))
        h1, h2 = (solve.iterates for solve in solves)
        assert base.found == sup.found
        assert base.sweeps == sup.sweeps
        assert base.x.tobytes() == sup.x.tobytes()
        assert c1 == c2
        assert len(h1) == len(h2)
        assert all(a_.tobytes() == b_.tobytes() for a_, b_ in zip(h1, h2))

    def test_superiority_instance(self):
        phi = QuadraticFunction([[2.0]], [0.0])
        base = cfp_solve(self.cfp(), [5.0], SolverSpec(lam=1.0))
        sup = cfp_solve(self.cfp(), [5.0], SolverSpec(sup=SuperiorizationConfig(N=40, a=0.9),
                                                      lam=1.0, max_sweeps=2000), objective=phi)
        assert base.found and sup.found
        assert phi.value(base.x) == pytest.approx(25.0)
        assert phi.value(sup.x) < phi.value(base.x)
        assert phi.value(sup.x) == pytest.approx(1.0, abs=1e-6)

    def test_resilience_found_on_consistent_cfp(self):
        rng = np.random.default_rng(29)
        phi = norm2_fn(3)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal(3)
            cons = [AffineConstraint.leq(a, float(a @ z) + 0.2)
                    for a in rng.standard_normal((5, 3))]
            x0 = rng.standard_normal(3) * 2
            base = cfp_solve(cons, x0, SolverSpec(lam=1.5, max_sweeps=1000))
            sup = cfp_solve(cons, x0, SolverSpec(sup=SuperiorizationConfig(N=1, a=0.5), lam=1.5,
                                                 max_sweeps=1000), objective=phi)
            assert base.found and sup.found

    def test_domain_membership_enforced(self, solves):
        phi = QuadraticFunction([[2.0]], [0.0])
        box = Bounds([0.5], [10.0])
        cfg = SuperiorizationConfig(N=1, a=0.5)
        cfp_solve(self.cfp(), [5.0], SolverSpec(sup=cfg, lam=1.0, max_sweeps=200),
                  bounds=box, objective=phi)
        for _x, *accepted in solves[0].hooks:
            for z in accepted:
                assert box.contains(z)

    def test_dead_inner_loop_guard(self, solves):
        # a merit whose value grows in every direction candidate except zero
        # steps: rejects everything, so the step index races to underflow.
        # From x = 0 every candidate 0 + 0.5**ell, ell = 0..996, is positive,
        # so none is a zero step and the loop ends only at the step-size floor
        hostile = CustomFunction(
            lambda x: float(x[0]),
            lambda x: np.array([-1.0]),  # direction +1, but phi increases then
            name="hostile",
        )
        cfg = SuperiorizationConfig(N=1, a=0.5)
        counters = Counters()
        out = cfp_solve(self.cfp(), [0.0], SolverSpec(sup=cfg, lam=1.0, max_sweeps=3),
                        counters, objective=hostile)
        assert out.found  # exits the dead loop and still sweeps
        assert all(len(path) == 1 for path in solves[0].hooks)
        # the first hook's anchor and its 997 rejected candidates; the later
        # hooks, past the floor, evaluate nothing
        assert counters.obj_evals == 1 + 997

    def test_perturbation_stops_once_steps_exhausted(self, solves):
        # the hostile merit along x[0] rejects every candidate while x[1]
        # cycles between two contradictory rows, so the global step index
        # passes the floor in the first outer step and the solve times out
        calls = {"value": 0, "subgrad": 0}

        def value(x):
            calls["value"] += 1
            return float(x[0])

        def subgrad(x):
            calls["subgrad"] += 1
            return np.array([-1.0, 0.0])

        hostile = CustomFunction(value, subgrad, name="hostile")
        cons = [AffineConstraint.leq([0.0, 1.0], -1.0), AffineConstraint.geq([0.0, 1.0], 1.0)]
        out = cfp_solve(cons, [0.0, 0.0], SolverSpec(sup=SuperiorizationConfig(N=1, a=0.5), lam=1.0,
                                                     max_sweeps=50), objective=hostile)
        assert out.timed_out and out.sweeps == 50
        # one anchor and one direction, in outer step 0 only: every other value
        # call is a rejected candidate
        rejected = calls["value"] - 1
        assert all(len(path) == 1 for path in solves[0].hooks) and 0.5 ** (rejected + 1) < 1e-300
        assert calls["subgrad"] == 1

    @staticmethod
    def exp800():
        # exp(800 x): at x = 1 its value and subgradient overflow; at x = 0.885
        # the value is 3e307 and the subgradient 800 times that, inf
        return CustomFunction(lambda x: float(np.exp(800.0 * x[0])),
                              lambda x: 800.0 * np.exp(800.0 * x), name="exp800")

    def test_non_finite_direction_stops_perturbing(self, solves):
        # the direction is -inf / inf = nan, a candidate no box holds: the hook
        # stops at once, and the level visit's own check then raises
        counters = Counters()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite step"):
                cfp_solve([], [1.0], SolverSpec(sup=SuperiorizationConfig(N=1)), counters,
                          bounds=Bounds([-10.0], [10.0]), objective=self.exp800(), t=5.0)
        assert [len(path) for path in solves[0].hooks] == [1]
        assert counters.obj_evals == 1  # the anchor, which the level visit reuses

    def test_overflowing_subgradient_under_a_level_that_holds_still_solves(self, solves):
        counters = Counters()
        with np.errstate(over="ignore", invalid="ignore"):
            out = cfp_solve([AffineConstraint.geq([1.0], 0.5)], [0.885],
                            SolverSpec(sup=SuperiorizationConfig(N=1)), counters,
                            bounds=Bounds([-10.0], [10.0]), objective=self.exp800(), t=1e308)
        assert out.found and out.sweeps == 1 and out.x.tolist() == [0.885]
        assert all(len(path) == 1 for path in solves[0].hooks)
        assert counters.obj_evals == 1  # the anchor, which the level visit reuses

    def test_nan_anchor_raises_at_once(self):
        # f is NaN from x = 2 on: no candidate could pass against a NaN anchor, so
        # the hook raises the level visit's error there instead of walking out
        # the step sizes
        calls = []

        def value(x):
            calls.append(x.copy())
            return math.nan if x[0] >= 2.0 else float(x[0])

        f = CustomFunction(value, lambda x: np.ones(1), name="nan")
        with pytest.raises(ValueError, match=r"objective CustomFunction\(nan\) is NaN at the visit point"):
            cfp_solve([], [5.0], SolverSpec(sup=SuperiorizationConfig(N=1)), objective=f, t=100.0)
        assert len(calls) == 1

    def test_art3_base_operator(self):
        rows = [AffineConstraint.interval([1.0], 1.0, 4.0)]
        phi = QuadraticFunction([[2.0]], [0.0])
        out = cfp_solve(rows, [5.0], SolverSpec("art3+", sup=SuperiorizationConfig(N=1, a=0.9),
                                                max_sweeps=1000), objective=phi)
        assert out.found
        assert 1.0 - 1e-8 <= out.x[0] <= 4.0 + 1e-8
        assert phi.value(out.x) < 25.0

    def test_missing_merit_rejected(self):
        with pytest.raises(ValueError):
            cfp_solve(self.cfp(), [5.0], SolverSpec(sup=SuperiorizationConfig(N=1, a=0.5)))

    @pytest.mark.parametrize("t", [np.nan, -np.inf])
    def test_bad_level_rejected(self, t):
        with pytest.raises(ValueError, match="level must be finite"):
            cfp_solve(self.cfp(), [5.0], SolverSpec(sup=SuperiorizationConfig(N=1, a=0.5)),
                      objective=QuadraticFunction([[2.0]], [0.0]), t=t)

    def test_box_is_swept_and_proves_emptiness(self):
        # the sweeps visit the box 0 <= x <= 1 after {x >= 2}, so their steps
        # prove the two disjoint within one sweep
        out = cfp_solve([AffineConstraint.geq([1.0], 2.0)], [0.0],
                        SolverSpec(sup=SuperiorizationConfig(N=0)), bounds=Bounds([0.0], [1.0]))
        assert out.infeasibility_certified and not out.found
        assert out.sweeps == 1

    def test_perturbation_across_a_satisfied_row_is_swept(self, solves):
        # rows y0 <= 1/4, then y1 >= 1/64, from y = (-1, 0), superiorizing
        # f = -y0: the perturbation before sweep 0 steps y0 to 0, where the
        # first row holds with slack 1/4, and sweep 0 moves only y1, by 3/128.
        # The one before sweep 1 steps y0 to 1/2: the row screen must take
        # that jump as path and evaluate the first row, which steps y0 by
        # 1.5 * 1/4 to 1/8
        rows = [AffineConstraint.leq([1.0, 0.0], 0.25), AffineConstraint.geq([0.0, 1.0], 2.0**-6)]
        out = cfp_solve(rows, [-1.0, 0.0], SolverSpec(sup=SuperiorizationConfig(N=1)),
                        bounds=Bounds([-10.0, -10.0], [10.0, 10.0]),
                        objective=QuadraticFunction(np.zeros((2, 2)), [-1.0, 0.0]))
        hooks, iterates = solves[0].hooks, solves[0].iterates
        assert [z.tolist() for _x, z in hooks[:2]] == [[0.0, 0.0], [0.5, 1.5 * 2.0**-6]]
        assert iterates[0].tolist() == [0.0, 1.5 * 2.0**-6]
        assert iterates[1].tolist() == [0.125, 1.5 * 2.0**-6]
        assert out.found and out.x[0] <= 0.25 + 1e-8

    def test_art3_perturbation_across_a_satisfied_row_is_swept(self, solves):
        # the ART3+ twin: the same rows, start and objective.  Pass 0, from
        # y0 = 0, drops the first row (slack 1/4) and reflects y1 to 1/32;
        # pass 1 runs the queue [1] alone, from y0 = 1/2.  Pass 2 refills the
        # queue from y0 = 3/4: the row screen must take both jumps as path
        # and evaluate the first row, whose reflection steps y0 by 2 * 1/2
        # to -1/4
        rows = [AffineConstraint.leq([1.0, 0.0], 0.25), AffineConstraint.geq([0.0, 1.0], 2.0**-6)]
        out = cfp_solve(rows, [-1.0, 0.0], SolverSpec("art3+", sup=SuperiorizationConfig(N=1)),
                        bounds=Bounds([-10.0, -10.0], [10.0, 10.0]),
                        objective=QuadraticFunction(np.zeros((2, 2)), [-1.0, 0.0]))
        hooks, iterates = solves[0].hooks, solves[0].iterates
        assert [z.tolist() for _x, z in hooks[:3]] == [[0.0, 0.0], [0.5, 2.0**-5], [0.75, 2.0**-5]]
        assert [x.tolist() for x in iterates[:3]] == [[0.0, 2.0**-5], [0.5, 2.0**-5],
                                                      [-0.25, 2.0**-5]]
        assert out.found and out.x[0] <= 0.25 + 1e-8


class TestThroughCfpWithLevel:
    def test_superiorized_spec_counts_merit_evals(self):
        p = Problem(QuadraticFunction([[2.0]], [0.0]), [AffineConstraint.geq([1.0], 1.0)])
        counters = Counters()
        spec = SolverSpec(kind="cspm", sup=SuperiorizationConfig(N=1, a=0.5))
        out = cfp_with_level(p, np.inf, spec, x0=[5.0], counters=counters)
        assert out.found
        assert counters.obj_evals > 0  # anchors and merit tests hit the objective

    def test_domain_defaults_to_bound_box(self):
        p = Problem(
            QuadraticFunction([[2.0]], [0.0]),
            [AffineConstraint.geq([1.0], 1.0)],
            bounds=Bounds([0.9], [9.0]),
        )
        spec = SolverSpec(kind="cspm", sup=SuperiorizationConfig(N=5, a=0.9))
        out = cfp_with_level(p, np.inf, spec, x0=[5.0])
        assert out.found
        assert 0.9 - 1e-8 <= out.x[0]
