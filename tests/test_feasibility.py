import math
from dataclasses import replace

import numpy as np
import pytest

from cfpopt.feasibility import (
    SolverSpec,
    ZeroSubgradientError,
    cfp_solve,
    cfp_with_level,
    make_sweeper,
)
from cfpopt.model import (
    AffineConstraint,
    Bounds,
    Counters,
    CustomFunction,
    DoseModel,
    Problem,
    QuadraticFunction,
    UnderdoseFunction,
)
from cfpopt.schemes import level_set_solve
from cfpopt.superiorize import SuperiorizationConfig


def halfspace_ge1():
    # g(x) = 1 - x <= 0, i.e. x >= 1
    return AffineConstraint.geq([1.0], 1.0)


class TestCspm:
    def test_single_halfspace_exact_step(self):
        out = cfp_solve([halfspace_ge1()], [0.0], SolverSpec(lam=1.0))
        assert out.found
        assert out.x == pytest.approx([1.0])
        assert out.moves == 1
        # the certifying pass re-checks the constraint, so two visits total
        assert out.projections == 2
        assert out.sweeps == 2

    def test_feasible_start_no_moves(self):
        out = cfp_solve([halfspace_ge1()], [3.0], SolverSpec(lam=1.5))
        assert out.found
        assert out.moves == 0
        assert out.sweeps == 1
        np.testing.assert_array_equal(out.x, [3.0])

    def test_inconsistent_times_out(self):
        cons = [AffineConstraint.leq([1.0], -1.0), AffineConstraint.geq([1.0], 1.0)]
        out = cfp_solve(cons, [0.0], SolverSpec(lam=1.0, max_sweeps=1000))
        assert not out.found
        assert out.sweeps == 1000

    def test_empty_constraints_rejected(self):
        with pytest.raises(ValueError):
            cfp_solve([], [0.0])

    def test_counters_shared_across_solves(self):
        counters = Counters()
        cfp_solve([halfspace_ge1()], [0.0], SolverSpec(lam=1.0), counters=counters)
        cfp_solve([halfspace_ge1()], [0.0], SolverSpec(lam=1.0), counters=counters)
        assert counters.projections == 4

    @pytest.mark.parametrize("kind", ["cspm", "pocs", "art3+"])
    @pytest.mark.parametrize("sup", [None, SuperiorizationConfig(N=1)], ids=["plain", "superiorized"])
    def test_the_sweep_cap_is_the_only_time_out(self, kind, sup):
        # two projections a sweep on an inconsistent pair: the solve stops
        # after max_sweeps sweeps, uncertified, whatever it has projected
        cons = [AffineConstraint.leq([1.0], -1.0), AffineConstraint.geq([1.0], 1.0)]
        out = cfp_solve(cons, [0.0], SolverSpec(kind, sup=sup, max_sweeps=7),
                        objective=QuadraticFunction([[2.0]], [0.0]))
        assert out.timed_out and not out.infeasibility_certified
        assert (out.sweeps, out.projections) == (7, 14)

    def test_zero_subgradient_propagates(self):
        bad = CustomFunction(lambda x: 1.0, lambda x: np.zeros_like(x), name="bad")
        with pytest.raises(ZeroSubgradientError):
            cfp_solve([bad], [0.0])

    def test_fejer_distances_nonincreasing(self, solves):
        rng = np.random.default_rng(42)
        n = 4
        z = rng.standard_normal(n)  # feasible anchor by construction
        cons = []
        for _ in range(6):
            a = rng.standard_normal(n)
            cons.append(AffineConstraint.leq(a, float(a @ z) + abs(rng.standard_normal())))
        for lam in (0.5, 1.0, 1.5, 1.9):
            cfp_solve(cons, rng.standard_normal(n) * 5, SolverSpec(lam=lam, max_sweeps=50))
            dists = [np.linalg.norm(x - z) for x in solves[-1].iterates]
            for d0, d1 in zip(dists, dists[1:]):
                assert d1 <= d0 + 1e-9


class TestPocs:
    def test_orthogonal_hyperplanes_one_sweep(self):
        cons = [AffineConstraint.eq([1.0, 0.0], 0.0), AffineConstraint.eq([0.0, 1.0], 0.0)]
        out = cfp_solve(cons, [1.0, 1.0], SolverSpec("pocs", lam=1.0))
        assert out.found
        np.testing.assert_allclose(out.x, [0.0, 0.0], atol=1e-15)

    def test_feasible_start(self):
        out = cfp_solve([AffineConstraint.leq([1.0, 0.0], 1.0)], [0.0, 0.5], "pocs")
        assert out.found
        np.testing.assert_array_equal(out.x, [0.0, 0.5])

    def test_rejects_nonaffine(self):
        ball = QuadraticFunction(2 * np.eye(2), np.zeros(2), -1.0)
        with pytest.raises(ValueError):
            cfp_solve([ball], [0.0, 0.0], "pocs")

    def test_identical_iterates_with_cspm(self, solves):
        rng = np.random.default_rng(9)
        cons = []
        z = rng.standard_normal(5)
        for _ in range(8):
            a = rng.standard_normal(5)
            cons.append(AffineConstraint.leq(a, float(a @ z) + 0.1))
        x0 = rng.standard_normal(5) * 3
        o1 = cfp_solve(cons, x0, SolverSpec(lam=1.5))
        o2 = cfp_solve(cons, x0, SolverSpec("pocs", lam=1.5))
        h1, h2 = (solve.iterates for solve in solves)
        assert o1.found and o2.found
        assert len(h1) == len(h2)
        for a_, b_ in zip(h1, h2):
            np.testing.assert_allclose(a_, b_, rtol=0, atol=1e-12)


class TestArt3Plus:
    def test_midpoint_rule(self):
        out = cfp_solve([AffineConstraint.interval([1.0], 0.0, 2.0)], [5.0], "art3+")
        assert out.found
        assert out.x == pytest.approx([1.0])

    def test_reflection_rule(self):
        out = cfp_solve([AffineConstraint.interval([1.0], 0.0, 2.0)], [2.5], "art3+")
        assert out.found
        assert out.x == pytest.approx([1.5])

    def test_feasible_start_certifies_in_one_pass(self):
        rows = [
            AffineConstraint.interval([1.0, 0.0], 0.0, 2.0),
            AffineConstraint.interval([0.0, 1.0], 0.0, 2.0),
        ]
        out = cfp_solve(rows, [1.0, 1.0], "art3+")
        assert out.found
        assert out.moves == 0
        assert out.sweeps == 1
        assert out.projections == 2

    def test_queue_skips_satisfied_rows(self):
        # first pass fixes row 0 only; row 0 stays queued (it moved) while
        # row 1 is dropped, so the second pass touches a shorter queue
        rows = [
            AffineConstraint.interval([1.0, 0.0], 0.0, 2.0),
            AffineConstraint.interval([0.0, 1.0], 0.0, 2.0),
        ]
        counters = Counters()
        out = cfp_solve(rows, [2.5, 1.0], "art3+", counters=counters)
        assert out.found
        # pass 1: both visited (one move); pass 2: only the moved row; then a
        # full verification pass over both, which the row screen skips: no
        # step has moved x since either row was last found satisfied
        assert out.projections == 2 + 1 + 0
        assert (out.sweeps, out.moves) == (3, 1)

    def test_rejects_nonaffine(self):
        ball = QuadraticFunction(2 * np.eye(1), np.zeros(1), -1.0)
        with pytest.raises(ValueError):
            cfp_solve([ball], [0.0], "art3+")

    def test_inconsistent_times_out(self):
        rows = [AffineConstraint.leq([1.0], -1.0), AffineConstraint.geq([1.0], 1.0)]
        out = cfp_solve(rows, [0.0], SolverSpec("art3+", max_sweeps=200))
        assert not out.found

    def test_agreement_with_cspm_on_wide_intervals(self):
        # split every interval into two halfspaces for CSPM; statuses agree
        rng = np.random.default_rng(17)
        rows, halves = [], []
        z = rng.standard_normal(3)
        for _ in range(5):
            a = rng.standard_normal(3)
            c = float(a @ z)
            rows.append(AffineConstraint.interval(a, c - 50.0, c + 50.0))
            halves.append(AffineConstraint.leq(a, c + 50.0))
            halves.append(AffineConstraint.geq(a, c - 50.0))
        x0 = z + rng.standard_normal(3)
        assert cfp_solve(rows, x0, "art3+").found == cfp_solve(halves, x0).found


class TestCfpWithLevel:
    def problem(self):
        # min x^2 over {x >= 1}
        return Problem(QuadraticFunction([[2.0]], [0.0]), [halfspace_ge1()], fstar=1.0, name="p")

    def test_infinite_level_is_plain_feasibility(self):
        p = self.problem()
        out = cfp_with_level(p, np.inf, SolverSpec("cspm", lam=1.0), x0=[0.0])
        assert out.found
        assert out.x == pytest.approx([1.0])
        assert out.obj_evals == 0  # objective never touched

    def test_feasible_band(self):
        p = self.problem()
        counters = Counters()
        out = cfp_with_level(p, 3.6, "cspm", x0=[2.0], counters=counters)
        assert out.found
        x = out.x[0]
        assert 1.0 - 1e-8 <= x <= math.sqrt(3.6) + 1e-6
        assert counters.obj_evals > 0  # level checks evaluate the objective

    def test_empty_level_set_times_out(self):
        p = self.problem()
        out = cfp_with_level(p, 0.5, SolverSpec("cspm", max_sweeps=300), x0=[2.0])
        assert not out.found

    @pytest.mark.parametrize("solver", [
        SolverSpec("cspm", lam=1.0), SolverSpec("cspm", sup=SuperiorizationConfig(), lam=1.0),
        SolverSpec("art3+"), SolverSpec("art3+", sup=SuperiorizationConfig()),
    ], ids=["cspm", "superiorized", "art3+", "superiorized-art3+"])
    def test_level_at_objective_minimum_certifies_infeasibility(self, solver):
        # a vanishing objective subgradient at a violated level proves the
        # level set empty; starting at the minimizer of x^2 triggers it
        p = Problem(QuadraticFunction([[2.0]], [0.0]), [AffineConstraint.geq([1.0], -10.0)])
        out = cfp_with_level(p, -1.0, solver, x0=[0.0])
        assert not out.found
        assert out.infeasibility_certified
        # from a generic start the level's ray-minimum step lands on the
        # minimizer (|xi|^4 = 1 < 2 q v = 5), and the next visit proves it
        out = cfp_with_level(p, -1.0, replace(solver, max_sweeps=100), x0=[0.5])
        assert not out.found
        assert out.infeasibility_certified and out.sweeps == 2

    @pytest.mark.parametrize("solver", [SolverSpec("cspm", lam=1.0),
                                        SolverSpec("cspm", sup=SuperiorizationConfig(), lam=1.0)],
                             ids=["cspm", "superiorized"])
    @pytest.mark.parametrize("t", [-1.0, np.inf])
    def test_zero_subgradient_of_a_constraint_still_raises(self, solver, t):
        # only the level's vanishing subgradient proves emptiness; a violated
        # constraint without a subgradient is an error, level or no level
        bad = CustomFunction(lambda x: 1.0, lambda x: np.zeros_like(x), name="bad")
        p = Problem(QuadraticFunction([[2.0]], [0.0]), [bad], n=1)
        with pytest.raises(ZeroSubgradientError):
            cfp_with_level(p, t, solver, x0=[0.0])

    def test_art3_solver_with_level(self):
        p = Problem(
            QuadraticFunction([[2.0]], [0.0]),
            [AffineConstraint.interval([1.0], 1.0, 4.0)],
        )
        out = cfp_with_level(p, 3.6, "art3+", x0=[5.0])
        assert out.found
        assert 1.0 - 1e-8 <= out.x[0] <= math.sqrt(3.6) + 1e-6

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            cfp_with_level(self.problem(), -np.inf, "cspm")

    def test_bounds_join_the_cycle(self):
        p = Problem(
            QuadraticFunction([[0.0]], [1.0]),
            [],
            bounds=Bounds([0.0], [1.0]),
        )
        out = cfp_with_level(p, 0.6, "cspm", x0=[2.0])
        assert out.found
        assert 0.0 - 1e-8 <= out.x[0] <= 0.6 + 1e-8

    def test_solver_spec_validation(self):
        with pytest.raises(ValueError):
            SolverSpec(kind="gradient-descent")

    @pytest.mark.parametrize("kind", ["cspm", "pocs", "art3+"])
    @pytest.mark.parametrize("settings, message", [
        ({"lam": 0.0}, "relaxation parameter must lie in (0, 2), got 0.0"),
        ({"lam": 2.0}, "relaxation parameter must lie in (0, 2), got 2.0"),
        ({"lam": np.nan}, "relaxation parameter must lie in (0, 2), got nan"),
        ({"tol": -1e-3}, "feasibility tolerance must be finite and nonnegative, got -0.001"),
        ({"tol": np.inf}, "feasibility tolerance must be finite and nonnegative, got inf"),
        ({"max_sweeps": 0}, "max_sweeps must be at least 1, got 0"),
        ({"max_sweeps": 2.5}, "max_sweeps must be an integer, got 2.5"),
        ({"sup": True}, "sup must be a SuperiorizationConfig or None, got True"),
        ({"sup": {"N": 1}}, "sup must be a SuperiorizationConfig or None, got {'N': 1}"),
    ], ids=["lam 0", "lam 2", "lam nan", "negative tol", "infinite tol", "no sweeps",
            "fractional sweeps", "sup True", "sup dict"])
    def test_solver_spec_rejects_settings_no_solve_can_run(self, kind, settings, message):
        with pytest.raises(ValueError) as exc:
            SolverSpec(kind, **settings)
        assert str(exc.value) == message

    def test_solver_spec_takes_numpy_integers(self):
        spec = SolverSpec(sup=SuperiorizationConfig(N=np.int64(1)), max_sweeps=np.int64(3))
        out = cfp_solve([halfspace_ge1()], [0.0], spec, objective=QuadraticFunction([[2.0]], [0.0]))
        assert out.found

    def test_solver_spec_stores_floats(self):
        spec = SolverSpec("art3+", lam=1, tol=0)
        assert (type(spec.lam), type(spec.tol)) == (float, float)
        assert spec == SolverSpec("art3+", lam=1.0, tol=0.0)

    def test_problem_without_rows_is_vacuous(self):
        p = Problem(QuadraticFunction([[2.0]], [0.0]), [])
        out = cfp_with_level(p, np.inf, "cspm", x0=[3.0])
        assert out.found and (out.sweeps, out.projections) == (0, 0)


class TestBoxRows:
    # the box 0 <= x_0 <= 1, x_1 free, swept as its one coordinate row
    BOX = Bounds([0.0, -np.inf], [1.0, np.inf])
    CUT = AffineConstraint.geq([1.0, 1.0], 2.0)

    @pytest.mark.parametrize("kind", ["cspm", "pocs", "art3+"])
    @pytest.mark.parametrize("rows", [[], [AffineConstraint.bound(0, 2, 0.0, 1.0), CUT],
                                      [CUT, AffineConstraint.bound(0, 2, 0.0, 2.0)],
                                      [CUT, AffineConstraint.bound(1, 2, 0.0, 1.5)]],
                             ids=["missing", "not last", "other bounds", "other coordinate"])
    def test_box_swept_after_any_rows(self, kind, rows, solves):
        # whatever coordinate rows the list holds, bounds= sweeps the box
        # after them, as if its own row trailed the list
        spec = SolverSpec(kind, max_sweeps=500)
        o1 = cfp_solve([self.CUT, *rows], [3.0, -4.0], spec, bounds=self.BOX)
        o2 = cfp_solve([self.CUT, *rows, *self.BOX.to_rows()], [3.0, -4.0], spec)
        h1, h2 = (solve.iterates for solve in solves)
        assert o1.found
        assert np.all(o1.x >= self.BOX.lo - spec.tol) and np.all(o1.x <= self.BOX.hi + spec.tol)
        assert (o1.sweeps, o1.projections, o1.moves) == (o2.sweeps, o2.projections, o2.moves)
        assert len(h1) == len(h2)
        for a, b in zip(h1, h2):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["cspm", "pocs", "art3+"])
    def test_box_with_its_rows_accepted(self, kind):
        # given as bounds=, the box's row joins the trailing affine run
        sweeper = make_sweeper(SolverSpec(kind), [self.CUT], Counters(), self.BOX,
                               QuadraticFunction(np.eye(2), np.zeros(2)), 1.0)
        assert sweeper.aggregate is not None
        packed = sweeper.packed if kind == "art3+" else sweeper.segments[0][1]
        np.testing.assert_array_equal(packed.A, [[1.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(packed.lo, [2.0, 0.0])
        np.testing.assert_array_equal(packed.hi, [np.inf, 1.0])
        np.testing.assert_array_equal(packed.norm2, [2.0, 1.0])

    @pytest.mark.parametrize("kind", ["cspm", "pocs", "art3+"])
    def test_bounds_sweep_as_their_rows(self, kind, solves):
        # a 6-row, 4-column system with one free column: the box given as
        # bounds= runs the iterates of the box given as its trailing rows
        rng = np.random.default_rng(7)
        box = Bounds([-1.0, 0.0, -np.inf, -2.0], [1.0, np.inf, np.inf, 0.5])
        rows = [AffineConstraint.interval(a, -0.5, 0.5) if kind == "art3+"
                else AffineConstraint.leq(a, 0.5) for a in rng.standard_normal((6, 4))]
        x0 = rng.standard_normal(4) * 3.0
        o1 = cfp_solve(rows, x0, SolverSpec(kind, max_sweeps=200), bounds=box)
        o2 = cfp_solve([*rows, *box.to_rows()], x0, SolverSpec(kind, max_sweeps=200))
        h1, h2 = (solve.iterates for solve in solves)
        assert o1.found and o2.found
        assert (o1.sweeps, o1.projections, o1.moves) == (o2.sweeps, o2.projections, o2.moves)
        assert len(h1) == len(h2)
        for a, b in zip(h1, h2):
            np.testing.assert_array_equal(a, b)

    def test_box_alone_is_a_system(self):
        out = cfp_solve([], [3.0, -5.0], bounds=self.BOX)
        assert out.found
        assert self.BOX.contains(out.x)

    def test_box_after_a_generic_constraint(self):
        ball = CustomFunction(lambda x: float(x @ x) - 9.0, lambda x: 2.0 * x, name="ball")
        sweeper = make_sweeper(SolverSpec("cspm"), [self.CUT, ball], Counters(), self.BOX)
        assert [tag for tag, _ in sweeper.segments] == ["rows", "fn", "rows"]
        np.testing.assert_array_equal(sweeper.segments[2][1].A, [[1.0, 0.0]])
        out = cfp_solve([self.CUT, ball], [5.0, 5.0], bounds=self.BOX)
        assert out.found and self.BOX.contains(out.x)

    @pytest.mark.parametrize("x0", [[0.0], [0.0, 0.0, 0.0]], ids=["short", "long"])
    def test_box_of_another_length_rejected(self, x0):
        with pytest.raises(ValueError, match="bounds have 2 entries for a point of"):
            cfp_solve([AffineConstraint.geq(np.ones(len(x0)), 1.0)], x0, bounds=self.BOX)


def exp800(shift: float, name: str) -> CustomFunction:
    """exp(800 x) - shift: its value and subgradient overflow to inf at x = 1."""
    return CustomFunction(lambda x: float(np.exp(800.0 * x[0])) - shift,
                          lambda x: 800.0 * np.exp(800.0 * x), name=name)


class TestNonFiniteOracles:
    """A NaN value or a non-finite step raises before x moves; it never certifies."""

    BOX = Bounds([-10.0], [10.0])

    @pytest.mark.parametrize("fn", [
        exp800(1.0, "overflow"),
        CustomFunction(lambda x: math.nan, lambda x: np.ones(1), name="nan-value"),
        CustomFunction(lambda x: float(x[0]), lambda x: np.array([np.inf]), name="inf-subgradient"),
    ], ids=["overflow", "nan-value", "inf-subgradient"])
    def test_constraint_raises_with_x_untouched(self, fn):
        x = np.array([1.0])
        sweeper = make_sweeper(SolverSpec("cspm"), [fn], Counters())
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=rf"constraint CustomFunction\({fn.name}\)"):
                sweeper.sweep(x, 0)
            with pytest.raises(ValueError, match=fn.name):
                cfp_solve([fn], [1.0])
        np.testing.assert_array_equal(x, [1.0])

    @pytest.mark.parametrize("kind", ["cspm", "art3+"])
    def test_level_raises_with_x_untouched(self, kind):
        # f(x) = exp(800 x) <= 5 in [-10, 10]: at x = 1 the level's step is inf / inf
        f = exp800(0.0, "f")
        x = np.array([1.0])
        sweeper = make_sweeper(SolverSpec(kind), [], Counters(), self.BOX, f, 5.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"objective CustomFunction\(f\) gives a non-finite step"):
                sweeper.sweep(x, 0)
            np.testing.assert_array_equal(x, [1.0])
            for solver in (SolverSpec(kind), SolverSpec(kind, sup=SuperiorizationConfig())):
                with pytest.raises(ValueError, match="non-finite step"):
                    cfp_solve([], [1.0], solver, bounds=self.BOX, objective=f, t=5.0)

    def test_level_set_solve_names_the_constraint(self):
        # the first feasibility solve fails on the constraint's step; it no
        # longer hands the scheme a NaN point as feasible
        p = Problem(exp800(0.0, "f"), [exp800(1.0, "g")], self.BOX, n=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"constraint CustomFunction\(g\) gives a non-finite step"):
                level_set_solve(p, x0=[1.0])


class TestRayMinimumStep:
    """A quadratic level that the subgradient ray does not reach is visited by a step to the ray's lowest point.

    Along ``x - s xi``, ``f = 1/2 |x|^2`` is ``f(x) - s |xi|^2 + s^2 |xi|^2 / 2``
    (``q = xi' Q xi = |xi|^2``): at x0 = (3, 4), ``f = 12.5`` and the ray's
    lowest point, 0 at ``s = 1``, is below t = 5 but above t = -1.
    """

    BOX = Bounds([-10.0, -10.0], [10.0, 10.0])
    X0 = (3.0, 4.0)
    KINDS = ["cspm", "pocs", "art3+"]

    @staticmethod
    def lam(kind: str) -> float:
        return 1.0 if kind == "art3+" else SolverSpec(kind).lam

    def first_sweep(self, kind: str, f, t: float, x0=X0) -> np.ndarray:
        return make_sweeper(SolverSpec(kind), [], Counters(), self.BOX, f, t).sweep(np.array(x0), 0)

    @staticmethod
    def subgradient_step(f, t: float, lam: float, x0) -> np.ndarray:
        """The subgradient step ``lam v / |xi|^2`` along ``-xi``, computed as the sweeper computes it."""
        x0 = np.array(x0)
        xi = f.subgrad(x0)
        return x0 - (lam * (f.value(x0) - t) / float(xi.dot(xi))) * xi

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_level_below_the_ray_steps_to_its_lowest_point(self, kind, solves):
        f = QuadraticFunction(np.eye(2), np.zeros(2))
        out = cfp_solve([], self.X0, kind, bounds=self.BOX, objective=f, t=-1.0)
        # |xi|^4 = 625 < 2 q v = 2 * 25 * 13.5: s = 25 / 25 lands on the minimiser
        np.testing.assert_array_equal(solves[0].iterates[0], [0.0, 0.0])
        # where the next visit's zero subgradient proves the level set empty
        assert out.infeasibility_certified and not out.found
        assert (out.sweeps, out.moves) == (2, 1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_level_the_ray_reaches_keeps_the_subgradient_step(self, kind):
        f = QuadraticFunction(np.eye(2), np.zeros(2))
        # v = 7.5: |xi|^4 = 625 >= 2 q v = 375
        x = self.first_sweep(kind, f, 5.0)
        x0 = np.array(self.X0)
        np.testing.assert_array_equal(x, x0 - (self.lam(kind) * 7.5 / 25.0) * x0)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("f, t", [
        (QuadraticFunction(np.zeros((2, 2)), [1.0, 2.0]), 5.0),
        (UnderdoseFunction(DoseModel(np.eye(2), target=(0, 1), prescription=10.0)), 1.0),
    ], ids=["Q = 0", "underdose"])
    def test_objectives_without_curvature_keep_the_subgradient_step(self, kind, f, t):
        x = self.first_sweep(kind, f, t)
        assert f.value(np.array(self.X0)) - t > 0.0
        np.testing.assert_array_equal(x, self.subgradient_step(f, t, self.lam(kind), self.X0))

    @pytest.mark.parametrize("kind", KINDS)
    def test_an_overflowing_curvature_keeps_the_subgradient_step(self, kind):
        # at x = (1e-290, 0), xi = (1e10, 1): |xi|^4 = 1e40 is finite, q = 1e300 * 1e20
        # overflows; taken at face value, s = |xi|^2 / q would be 0 and x would not move
        f = QuadraticFunction(np.diag([1e300, 0.0]), [0.0, 1.0])
        x0 = (1e-290, 0.0)
        with np.errstate(over="ignore"):
            x = self.first_sweep(kind, f, -1.0, x0)
        np.testing.assert_array_equal(x, self.subgradient_step(f, -1.0, self.lam(kind), x0))
        assert x.tolist() != list(x0)


def linear(a, b: float, name: str) -> CustomFunction:
    """``a . y - b`` through the oracle interface, so that its visits are oracle visits."""
    a = np.array(a, dtype=float)
    return CustomFunction(lambda y: float(a @ y) - b, lambda y: a.copy(), name=name)


def disc(center, radius: float, name: str) -> CustomFunction:
    """``|y - center|^2 - radius^2``: at most 0 on the disc."""
    c = np.array(center, dtype=float)
    return CustomFunction(lambda y: float((y - c) @ (y - c)) - radius**2, lambda y: 2.0 * (y - c), name=name)


class TestTwoCutStep:
    """A violated oracle visit after one of another function may project onto both cuts at once.

    With ``g1 = y_0`` and ``g2 = y_1 - y_0`` from (1, 2), the first visit
    steps to ``(1 - lam, 2)``, and the single step off ``g2``'s cut would
    leave ``y_0 > 0``: the two cuts meet at the origin, the vertex of the
    feasible wedge, and x takes the relaxed projection onto it.
    """

    BOX = Bounds([-10.0, -10.0], [10.0, 10.0])
    WEDGE = (linear([1.0, 0.0], 0.0, "g1"), linear([-1.0, 1.0], 0.0, "g2"))

    @staticmethod
    def first_sweep(constraints, x0, lam=1.5, bounds=None, objective=None, t=np.inf):
        sweeper = make_sweeper(SolverSpec("cspm", lam=lam), constraints, Counters(), bounds, objective, t)
        return sweeper, sweeper.sweep(np.array(x0, dtype=float), 0)

    @pytest.mark.parametrize("lam, expected", [(1.0, [0.0, 0.0]), (1.5, [0.25, -1.0])])
    def test_the_step_is_the_relaxed_projection_onto_both_cuts(self, lam, expected):
        # lam = 1: x1 = (0, 2) lands on the vertex; lam = 1.5: x1 = (-0.5, 2), whose
        # projection onto both cuts is the origin too, and x1 + 1.5 (0 - x1) = (0.25, -1)
        _, x = self.first_sweep(self.WEDGE, [1.0, 2.0], lam)
        np.testing.assert_array_equal(x, expected)

    def test_the_step_matches_the_closed_form_at_a_generic_point(self):
        a1, b1, a2, b2 = np.array([2.0, 0.5]), 0.3, np.array([-1.2, 1.1]), -0.2
        x0, lam = np.array([1.3, 2.1]), 1.5
        x1 = x0 - lam * (a1 @ x0 - b1) / (a1 @ a1) * a1
        single = x1 - lam * (a2 @ x1 - b2) / (a2 @ a2) * a2
        assert a1 @ single - b1 > 0.0  # the single step would violate the older cut
        vertex = np.linalg.solve(np.array([a1, a2]), [b1, b2])
        _, x = self.first_sweep([linear(a1, b1, "g1"), linear(a2, b2, "g2")], x0, lam)
        np.testing.assert_allclose(x, x1 + lam * (vertex - x1), rtol=1e-13, atol=1e-13)

    def test_both_cuts_enter_the_aggregate_with_their_multipliers(self):
        # steps: 1.5 (1, 0) off g1, then 2.25 (1, 0) and 3 (-1, 1) off the two cuts,
        # each cut's halfspace tight at its visit (beta = at - v = 0)
        sweeper, x = self.first_sweep(self.WEDGE, [1.0, 2.0], bounds=self.BOX)
        agg = sweeper.aggregate
        np.testing.assert_array_equal(agg.c, [0.75, 3.0])
        assert agg.b == pytest.approx(6.75 * agg.tol)
        np.testing.assert_array_equal(x, [0.25, -1.0])
        assert sweeper.moves == 2

    @pytest.mark.parametrize("constraints, x0, lam, objective, t, expected", [
        # x1 = (-0.5, 2); the single step 1.125 (1, 1) off g2 = y_0 + y_1 keeps y_0 <= 0
        ((linear([1.0, 0.0], 0.0, "g1"), linear([1.0, 1.0], 0.0, "g2")), [1.0, 2.0], 1.5, None, np.inf,
         [-1.625, 0.875]),
        # the row y_0 >= 0.75 moves x1 = (-0.5, 1) back to (1.375, 1), across g1's cut; the
        # single step 1.78125 (1, 1) off g2 satisfies that cut again, though both
        # multipliers of the projection onto the two cuts, 0.375 and 1, are nonnegative
        ((linear([1.0, 0.0], 0.0, "g1"), AffineConstraint.geq([1.0, 0.0], 0.75),
          linear([1.0, 1.0], 0.0, "g2")), [1.0, 1.0], 1.5, None, np.inf, [-0.40625, -0.78125]),
        # parallel cuts (y_0 <= 0 and y_0 >= 1): a zero Gram determinant
        ((linear([1.0, 0.0], 0.0, "g1"), linear([-1.0, 0.0], -1.0, "g2")), [0.5, 0.0], 1.5, None, np.inf,
         [1.625, 0.0]),
        # a quadratic level out of its ray's reach keeps the step to the ray's lowest point,
        # (0, 0), though that leaves the older cut y_0 <= -1 violated and the projection onto
        # both cuts has multipliers 9.5 / 16 and 9.5 / 16
        ((linear([1.0, 0.0], -1.0, "g1"),), [3.0, 4.0], 1.0, QuadraticFunction(np.eye(2), np.zeros(2)),
         -1.0, [0.0, 0.0]),
    ], ids=["older cut kept", "older cut kept after a row", "parallel cuts", "ray minimum"])
    def test_the_single_step_is_taken_bit_for_bit_otherwise(self, constraints, x0, lam, objective, t,
                                                            expected):
        _, x = self.first_sweep(constraints, x0, lam, objective=objective, t=t)
        np.testing.assert_array_equal(x, expected)

    @pytest.mark.parametrize("x0", [[0.3, 2.0], [0.0, 2.5], [2.0, -1.0], [-2.5, 2.5]])
    @pytest.mark.parametrize("lam", [1.0, 1.5, 1.9])
    def test_disjoint_discs_in_a_box_are_certified_empty(self, x0, lam):
        discs = [disc([-1.0, 0.0], 0.5, "a"), disc([1.0, 0.0], 0.5, "b")]
        out = cfp_solve(discs, x0, SolverSpec("cspm", lam=lam), bounds=Bounds([-3.0, -3.0], [3.0, 3.0]))
        assert out.infeasibility_certified and not out.found
        assert out.sweeps <= 20

    @pytest.mark.parametrize("as_level", [False, True], ids=["constraints", "constraint and level"])
    @pytest.mark.parametrize("x0", [[0.3, 2.0], [0.0, 2.5]])
    def test_discs_meeting_at_a_small_angle_are_found_in_few_sweeps(self, x0, as_level):
        # radius 1.001 about (-1, 0) and (1, 0): a lens 0.002 wide, whose edges meet at
        # about 5 degrees; single steps zig-zag between them for 558 sweeps from either start
        r = 1.001
        a, b = disc([-1.0, 0.0], r, "a"), disc([1.0, 0.0], r, "b")
        box = Bounds([-3.0, -3.0], [3.0, 3.0])
        if as_level:
            # the level |y - (-1, 0)|^2 <= r^2 is disc a
            f = CustomFunction(lambda y: a.value(y) + r**2, a.subgrad, name="f")
            out = cfp_solve([b], x0, bounds=box, objective=f, t=r**2)
        else:
            out = cfp_solve([a, b], x0, bounds=box)
        assert out.found
        assert out.sweeps <= 20
        assert max(a.value(out.x), b.value(out.x)) <= SolverSpec().tol
