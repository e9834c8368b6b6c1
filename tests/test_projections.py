"""The projection rule, checked through the solver that runs it.

One CSPM sweep of :func:`cfp_solve` over a single set, with ``tol=0``, is the
relaxed projection onto that set: the orthogonal projection for halfspaces,
hyperplanes and boxes (a box given as ``bounds``), the subgradient
projection for any other convex constraint.
"""

import numpy as np
import pytest

from cfpopt.feasibility import SolverSpec, ZeroSubgradientError, cfp_solve
from cfpopt.model import AffineConstraint, Bounds, Counters, CustomFunction, QuadraticFunction


def step(sets, x, lam=1.0, counters=None, bounds=None):
    """One relaxed projection of ``x`` onto the intersection swept once in order."""
    sets = sets if isinstance(sets, list) else [sets]
    return cfp_solve(sets, x, SolverSpec(lam=lam, tol=0.0, max_sweeps=1), counters=counters,
                     bounds=bounds).x


def project_halfspace(a, b, x):
    return step(AffineConstraint.leq(a, b), x)


def project_hyperplane(a, b, x):
    return step(AffineConstraint.eq(a, b), x)


def project_box(lo, hi, x):
    return step([], x, bounds=Bounds(lo, hi))


class TestHalfspace:
    def test_axis_aligned(self):
        out = project_halfspace(np.array([1.0, 0.0]), 1.0, np.array([2.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_feasible_untouched(self):
        x = np.array([0.0, 0.0])
        out = project_halfspace(np.array([1.0, 0.0]), 1.0, x)
        np.testing.assert_array_equal(out, x)

    def test_against_grid_minimization_oracle(self):
        # brute-force the closest feasible point on a fine grid
        a, b = np.array([1.0, 1.0]), 0.0
        x = np.array([1.0, 1.0])
        grid = np.linspace(-2.0, 2.0, 401)
        best, best_d = None, np.inf
        for u in grid:
            for v in grid:
                if u + v <= b:
                    d = (u - x[0]) ** 2 + (v - x[1]) ** 2
                    if d < best_d:
                        best, best_d = (u, v), d
        out = project_halfspace(a, b, x)
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(out, best, atol=1e-2)

    def test_boundary_after_projection(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.standard_normal(4)
            b = rng.standard_normal()
            x = rng.standard_normal(4) * 5
            out = project_halfspace(a, b, x)
            if a @ x > b:
                assert a @ out == pytest.approx(b, abs=1e-9)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            AffineConstraint.leq(np.zeros(2), 0.0)


class TestHyperplane:
    def test_scalar(self):
        assert project_hyperplane(np.array([1.0]), 5.0, np.array([0.0])) == pytest.approx([5.0])

    def test_on_plane_identity(self):
        x = np.array([2.0, -1.0])
        out = project_hyperplane(np.array([1.0, 2.0]), 0.0, x)
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_closed_form(self):
        out = project_hyperplane(np.array([3.0, 4.0]), 0.0, np.array([3.0, 4.0]))
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-12)


class TestBox:
    def test_clamp_above(self):
        assert project_box([0.0], [1.0], np.array([2.0])) == pytest.approx([1.0])

    def test_inside(self):
        x = np.array([0.5])
        np.testing.assert_array_equal(project_box([0.0], [1.0], x), x)

    def test_componentwise(self):
        out = project_box([-1.0, 0.0], [1.0, 1.0], np.array([-2.0, 0.5]))
        np.testing.assert_allclose(out, [-1.0, 0.5])

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            Bounds([1.0], [0.0])


class TestSubgradientProject:
    def test_coincides_with_halfspace_projection(self):
        # c(x) = x - 1 as an oracle, and the same halfspace as a packed row
        c = CustomFunction(lambda x: float(x[0] - 1.0), lambda x: np.array([1.0]), name="x-1")
        out = step(c, np.array([3.0]))
        assert out == pytest.approx([1.0])
        np.testing.assert_allclose(out, project_halfspace(np.array([1.0]), 1.0, np.array([3.0])))

    def test_quadratic_level_set_hand_value(self):
        # c(x) = ||x||^2 - 1 at (2, 0): c = 3, grad = (4, 0) -> (2,0) - (3/16)(4,0)
        c = QuadraticFunction(2.0 * np.eye(2), np.zeros(2), -1.0)
        out = step(c, np.array([2.0, 0.0]))
        np.testing.assert_allclose(out, [1.25, 0.0])

    def test_feasible_point_never_moves(self):
        c = QuadraticFunction(2.0 * np.eye(2), np.zeros(2), -1.0)
        x = np.array([0.3, 0.4])
        out = cfp_solve([c], x, SolverSpec(lam=1.0, tol=0.0, max_sweeps=1))
        assert out.moves == 0
        np.testing.assert_array_equal(out.x, x)

    def test_zero_subgradient_errors(self):
        bad = CustomFunction(lambda x: 1.0, lambda x: np.zeros_like(x), name="bad")
        with pytest.raises(ZeroSubgradientError):
            step(bad, np.zeros(2))

    def test_counter_increments_even_on_noop(self):
        c = AffineConstraint.leq([1.0], 1.0)
        counters = Counters()
        step(c, np.array([0.0]), counters=counters)
        step(c, np.array([3.0]), counters=counters)
        assert counters.projections == 2


class TestRelaxStep:
    def test_halfway(self):
        assert step(AffineConstraint.leq([1.0], 0.0), np.array([2.0]), lam=0.5) == pytest.approx([1.0])

    def test_out_of_range_rejected(self):
        for lam in (0.0, -0.5, 2.0, 2.5):
            with pytest.raises(ValueError):
                step(AffineConstraint.leq([1.0], 0.0), np.zeros(1), lam=lam)


class TestOperatorProperties:
    def test_idempotence(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = rng.standard_normal(3)
            b = rng.standard_normal()
            x = rng.standard_normal(3) * 4
            p1 = project_halfspace(a, b, x)
            np.testing.assert_allclose(project_halfspace(a, b, p1), p1, atol=1e-12)
            h1 = project_hyperplane(a, b, x)
            np.testing.assert_allclose(project_hyperplane(a, b, h1), h1, atol=1e-12)
            lo, hi = np.sort(rng.standard_normal((2, 3)), axis=0)
            b1 = project_box(lo, hi, x)
            # a row step sets x_j - (x_j - hi_j), which rounding can leave off hi_j
            np.testing.assert_allclose(project_box(lo, hi, b1), b1, atol=1e-12)

    def test_nonexpansiveness(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rng.standard_normal(4)
            b = rng.standard_normal()
            x, y = rng.standard_normal(4) * 3, rng.standard_normal(4) * 3
            for proj in (
                lambda z: project_halfspace(a, b, z),
                lambda z: project_hyperplane(a, b, z),
            ):
                lhs = np.linalg.norm(proj(x) - proj(y))
                assert lhs <= np.linalg.norm(x - y) + 1e-12

    def test_relaxed_subgradient_step_is_fejer(self):
        # distance to any feasible point does not grow for lam in (0, 2)
        rng = np.random.default_rng(8)
        c = QuadraticFunction(2.0 * np.eye(3), np.zeros(3), -1.0)  # unit ball
        for _ in range(50):
            x = rng.standard_normal(3) * 3
            if c.value(x) <= 0:
                continue
            z = rng.standard_normal(3)
            z = 0.9 * z / np.linalg.norm(z)  # feasible reference
            for lam in (0.5, 1.0, 1.5, 1.9):
                x_new = step(c, x, lam=lam)
                assert np.linalg.norm(x_new - z) <= np.linalg.norm(x - z) + 1e-9
