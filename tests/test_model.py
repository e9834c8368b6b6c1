import math

import numpy as np
import pytest

from cfpopt import model
from cfpopt.model import (
    AffineConstraint,
    Bounds,
    Counters,
    CustomFunction,
    DoseModel,
    Problem,
    QuadraticFunction,
    as_vector,
    make_pnorm,
    make_underdose,
)


def quad_1d():
    # f(x) = x^2 - 100
    return QuadraticFunction([[2.0]], [0.0], -100.0)


def abs_fn():
    # |x| with the minimal-norm subgradient 0 at the kink
    return CustomFunction(
        lambda x: abs(float(x[0])),
        lambda x: np.array([0.0]) if x[0] == 0.0 else np.sign(x[:1]),
        name="abs",
    )


class TestEval:
    def test_quadratic_value_at_sqrt500(self):
        f = quad_1d()
        assert f.value(np.array([math.sqrt(500.0)])) == pytest.approx(400.0, rel=1e-12)

    def test_affine_zero_case(self):
        g = AffineConstraint.leq([1.0], 0.0)
        assert g.value(np.zeros(1)) == 0.0

    def test_underdose_direct_formula(self):
        model = DoseModel(np.array([[1.0]]), target=(0,), prescription=2.0)
        f = make_underdose(model)
        # max(0, 2 - 1)^2 averaged over one voxel, then square-rooted
        assert f.value(np.array([1.0])) == pytest.approx(1.0)

    def test_dimension_mismatch_raises(self):
        f = QuadraticFunction(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            f.value(np.zeros(3))

    def test_objective_counter(self):
        p = Problem(quad_1d(), [])
        counters = Counters()
        counters.objective(p.objective, np.array([1.0]))
        counters.objective(p.objective, np.array([2.0]))
        assert counters.obj_evals == 2


def counting(fn):
    """Wrap ``fn.value`` in an independent call counter; returns the call list."""
    calls = []
    value = fn.value

    def counted(x):
        calls.append(x.copy())
        return value(x)

    fn.value = counted
    return calls


class TestObjectiveMemo:
    def test_repeat_at_the_same_bytes_is_served_without_a_call(self):
        f = quad_1d()
        calls = counting(f)
        counters = Counters()
        x = np.array([3.0])
        first = counters.objective(f, x)
        assert counters.objective(f, x) == first
        assert counters.objective(f, x.copy()) == first
        assert len(calls) == counters.obj_evals == 1

    def test_in_place_update_is_recomputed(self):
        # the C kernel moves x in place, so the array object alone says nothing
        f = quad_1d()
        calls = counting(f)
        counters = Counters()
        x = np.array([3.0])
        assert counters.objective(f, x) == -91.0
        x[0] = 4.0
        assert counters.objective(f, x) == -84.0
        assert len(calls) == counters.obj_evals == 2

    def test_signed_zero_misses(self):
        f = abs_fn()
        calls = counting(f)
        counters = Counters()
        counters.objective(f, np.array([0.0]))
        counters.objective(f, np.array([-0.0]))
        assert len(calls) == counters.obj_evals == 2

    def test_equal_bytes_of_another_dtype_miss(self):
        f = abs_fn()
        calls = counting(f)
        counters = Counters()
        x = np.array([2.5])
        as_int = x.view(np.int64)
        assert as_int.tobytes() == x.tobytes()
        assert counters.objective(f, x) == 2.5
        assert counters.objective(f, as_int) == float(as_int[0])
        assert len(calls) == counters.obj_evals == 2

    def test_another_function_at_the_same_point_misses(self):
        f, g = quad_1d(), quad_1d()
        f_calls, g_calls = counting(f), counting(g)
        counters = Counters()
        x = np.array([1.0])
        counters.objective(f, x)
        counters.objective(g, x)
        counters.objective(f, x)
        assert (len(f_calls), len(g_calls), counters.obj_evals) == (2, 1, 3)

    def test_runs_sharing_a_problem_share_no_memo(self):
        p = Problem(quad_1d(), [])
        calls = counting(p.objective)
        first, second = Counters(), Counters()
        x = np.array([1.0])
        first.objective(p.objective, x)
        second.objective(p.objective, x)
        first.objective(p.objective, x)
        assert (first.obj_evals, second.obj_evals, len(calls)) == (1, 1, 2)

    def test_equality_and_repr_ignore_the_memo(self):
        used, fresh = Counters(), Counters(obj_evals=1)
        used.objective(quad_1d(), np.array([1.0]))
        assert used == fresh
        assert repr(used) == repr(fresh) == "Counters(projections=0, obj_evals=1)"


class TestSubgradient:
    def test_quadratic_gradient(self):
        f = quad_1d()
        assert f.subgrad(np.array([2.0])) == pytest.approx([4.0])

    def test_affine_constant_gradient(self):
        g = AffineConstraint.leq(np.array([3.0, -1.0]), 0.0)
        for x in (np.zeros(2), np.array([5.0, -7.0])):
            np.testing.assert_allclose(g.subgrad(x), [3.0, -1.0])

    def test_abs_at_kink_returns_zero_and_is_valid(self):
        f = abs_fn()
        x = np.zeros(1)
        xi = f.subgrad(x)
        assert xi == pytest.approx([0.0])
        # subgradient inequality on a grid of y
        for y in np.linspace(-3.0, 3.0, 61):
            assert f.value(np.array([y])) >= f.value(x) + xi[0] * (y - 0.0) - 1e-12

    def test_determinism_bitwise(self):
        model = DoseModel(np.array([[1.0, 0.5], [0.3, 0.9]]), target=(0,), risk=(1,), prescription=2.0)
        x = np.array([0.3, 0.7])
        for fn in (make_underdose(model), make_pnorm(model), quad_1d() if False else QuadraticFunction(np.eye(2), [1.0, -2.0])):
            a = fn.subgrad(x)
            b = fn.subgrad(x)
            assert a.tobytes() == b.tobytes()
            assert fn.value(x) == fn.value(x)


class TestUnderdose:
    def setup_method(self):
        self.model = DoseModel(np.array([[1.0]]), target=(0,), prescription=2.0)
        self.f = make_underdose(self.model)

    def test_met_prescription_is_zero(self):
        assert self.f.value(np.array([2.0])) == 0.0

    def test_hand_value(self):
        assert self.f.value(np.array([0.0])) == pytest.approx(2.0)

    def test_gradient_hand_and_fd(self):
        x = np.array([0.0])
        g = self.f.subgrad(x)
        assert g == pytest.approx([-1.0])
        h = 1e-6
        fd = (self.f.value(x + h) - self.f.value(x - h)) / (2 * h)
        assert g[0] == pytest.approx(fd, rel=1e-6)

    def test_zero_subgradient_at_minimum(self):
        np.testing.assert_array_equal(self.f.subgrad(np.array([3.0])), [0.0])

    def test_empty_target_raises(self):
        with pytest.raises(ValueError):
            make_underdose(DoseModel(np.array([[1.0]]), target=(), prescription=2.0))


class TestPNorm:
    def test_equal_doses(self):
        model = DoseModel(np.array([[1.0], [1.0]]), risk=(0, 1), p=2)
        assert make_pnorm(model).value(np.array([2.0])) == pytest.approx(2.0)

    def test_mixed_doses_p2(self):
        model = DoseModel(np.array([[1.0], [0.0]]), risk=(0, 1), p=2)
        assert make_pnorm(model).value(np.array([2.0])) == pytest.approx(math.sqrt(2.0))

    def test_mixed_doses_p8(self):
        model = DoseModel(np.array([[1.0], [0.0]]), risk=(0, 1), p=8)
        expected = 2.0 * 0.5 ** (1.0 / 8.0)
        assert make_pnorm(model).value(np.array([2.0])) == pytest.approx(expected)

    def test_unsupported_p_raises(self):
        with pytest.raises(ValueError):
            make_pnorm(DoseModel(np.array([[1.0]]), risk=(0,), p=3))

    def test_nonnegative_on_nonneg_orthant(self):
        rng = np.random.default_rng(7)
        model = DoseModel(rng.random((4, 3)), target=(0, 1), risk=(2, 3), prescription=1.5, p=2)
        fu, fn = make_underdose(model), make_pnorm(model)
        for _ in range(50):
            x = rng.random(3) * 3.0
            assert fu.value(x) >= 0.0
            assert fn.value(x) >= 0.0


class TestLowerBound:
    """``lower_bound()`` bounds every value the oracle computes, at any point."""

    def points(self, rng, n, D, R):
        # random points of both signs and scales, points where every target
        # voxel meets R (zero shortfall), D x = 0, and doses that underflow
        yield np.zeros(n)
        yield np.full(n, 1e-200)
        yield np.full(n, R / D.sum(axis=1).min())
        for _ in range(200):
            yield rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
        for _ in range(50):
            yield rng.random(n) * 10.0 * R

    @pytest.mark.parametrize("p", [2, 8])
    def test_dose_values_never_go_below_it(self, p):
        rng = np.random.default_rng(41 + p)
        D = rng.random((6, 4))
        dose = DoseModel(D, target=(0, 1, 2), risk=(3, 4, 5), prescription=1.5, p=p)
        fns = (make_underdose(dose), make_pnorm(dose))
        assert [fn.lower_bound() for fn in fns] == [0.0, 0.0]
        seen_zero = set()
        for x in self.points(rng, 4, D, 1.5):
            for fn in fns:
                value = fn.value(x)
                assert value >= fn.lower_bound(), (fn, x)
                if value == 0.0:
                    seen_zero.add(type(fn))
        assert len(seen_zero) == 2  # the bound is attained: both hit 0

    def test_other_functions_know_no_bound(self):
        assert quad_1d().lower_bound() == -np.inf
        assert abs_fn().lower_bound() == -np.inf
        assert AffineConstraint.leq([1.0], 0.0).lower_bound() == -np.inf

    def test_mean_is_numpy_mean_bit_for_bit(self):
        rng = np.random.default_rng(43)
        for size in (*range(1, 40), 127, 128, 129, 1000, 4099):
            v = rng.standard_normal(size) * 10.0 ** rng.uniform(-5.0, 5.0, size)
            for w in (v, v * v, np.abs(v) ** 8):
                assert model._mean(w).tobytes() == np.mean(w).tobytes()


class TestMaxViolation:
    def test_strictly_inside(self):
        p = Problem(quad_1d(), [AffineConstraint.leq([1.0], 5.0)], bounds=Bounds([-10.0], [10.0]))
        assert p.max_violation(np.array([0.0])) == 0.0

    def test_single_constraint(self):
        p = Problem(quad_1d(), [AffineConstraint.leq([1.0], 1.0)])
        assert p.max_violation(np.array([3.0])) == pytest.approx(2.0)

    def test_max_over_two(self):
        p = Problem(
            quad_1d(),
            [AffineConstraint.leq([1.0], 1.0), AffineConstraint.geq([1.0], -1.0)],
        )
        # g1 = 2, g2 = -4: the positive part of the max is 2
        assert p.max_violation(np.array([3.0])) == pytest.approx(2.0)

    def test_bound_rows_participate(self):
        p = Problem(quad_1d(), [], bounds=Bounds([0.0], [1.0]))
        assert p.max_violation(np.array([2.0])) == pytest.approx(1.0)


def _random_pair(rng, n, scale=3.0):
    return rng.standard_normal(n) * scale, rng.standard_normal(n) * scale


def _check_subgradient_inequality(fn, xs_ys, tol=1e-9):
    for x, y in xs_ys:
        fx = fn.value(x)
        xi = fn.subgrad(x)
        assert fn.value(y) >= fx + float(xi @ (y - x)) - tol


class TestSubgradientInequality:
    """Randomized oracle validity checks for every function kind."""

    def test_quadratic(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((3, 3))
        fn = QuadraticFunction(M @ M.T, rng.standard_normal(3), 1.3)
        _check_subgradient_inequality(fn, [_random_pair(rng, 3) for _ in range(200)])

    def test_affine_kinds(self):
        rng = np.random.default_rng(12)
        for make in (
            lambda a: AffineConstraint.leq(a, 0.7),
            lambda a: AffineConstraint.geq(a, -0.2),
            lambda a: AffineConstraint.eq(a, 0.1),
            lambda a: AffineConstraint.interval(a, -1.0, 1.0),
        ):
            fn = make(rng.standard_normal(4))
            _check_subgradient_inequality(fn, [_random_pair(rng, 4) for _ in range(200)])

    def test_dose_kinds(self):
        rng = np.random.default_rng(13)
        model = DoseModel(rng.random((5, 3)), target=(0, 1), risk=(2, 3, 4), prescription=1.0, p=2)
        for fn in (make_underdose(model), make_pnorm(model)):
            _check_subgradient_inequality(fn, [_random_pair(rng, 3) for _ in range(200)])
        model8 = DoseModel(rng.random((5, 3)), risk=(0, 1, 2), p=8)
        pairs = [(rng.random(3), rng.random(3)) for _ in range(200)]
        _check_subgradient_inequality(make_pnorm(model8), pairs)

    def test_custom_abs(self):
        rng = np.random.default_rng(14)
        _check_subgradient_inequality(abs_fn(), [_random_pair(rng, 1) for _ in range(200)])


class TestFiniteDifferences:
    """Smooth kinds: central differences agree with the oracle."""

    @staticmethod
    def _fd(fn, x, h=1e-6):
        g = np.zeros_like(x)
        for j in range(x.shape[0]):
            e = np.zeros_like(x)
            e[j] = h
            g[j] = (fn.value(x + e) - fn.value(x - e)) / (2 * h)
        return g

    def test_quadratic(self):
        rng = np.random.default_rng(21)
        M = rng.standard_normal((4, 4))
        fn = QuadraticFunction(M @ M.T, rng.standard_normal(4))
        for _ in range(20):
            x = rng.standard_normal(4)
            np.testing.assert_allclose(fn.subgrad(x), self._fd(fn, x), rtol=1e-4, atol=1e-8)

    def test_dose_kinds_away_from_kinks(self):
        rng = np.random.default_rng(22)
        model = DoseModel(rng.random((4, 3)) + 0.1, target=(0, 1), risk=(2, 3), prescription=1.0, p=2)
        fu, fp = make_underdose(model), make_pnorm(model)
        checked = 0
        for _ in range(200):
            x = rng.random(3) * 0.4  # keeps doses below prescription: smooth region
            d = model.D[[0, 1]] @ x
            if np.all(np.abs(1.0 - d) > 1e-3) and fu.value(x) > 1e-3:
                np.testing.assert_allclose(fu.subgrad(x), self._fd(fu, x), rtol=1e-4)
                checked += 1
            if fp.value(x) > 1e-3:
                np.testing.assert_allclose(fp.subgrad(x), self._fd(fp, x), rtol=1e-4)
        assert checked > 20


class TestConstruction:
    def test_q_must_be_symmetric(self):
        with pytest.raises(ValueError):
            QuadraticFunction([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0])

    @pytest.mark.parametrize("Q, constant, message", [
        ([[np.inf, 0.0], [0.0, 1.0]], 0.0, "Q entries must be finite"),
        ([[1.0, np.nan], [np.nan, 1.0]], 0.0, "Q entries must be finite"),  # not "symmetric"
        ([[1.0, 0.0], [0.0, 1.0]], np.inf, "constant must be finite"),
        ([[1.0, 0.0], [0.0, 1.0]], np.nan, "constant must be finite"),
    ])
    def test_q_and_constant_must_be_finite(self, Q, constant, message):
        with pytest.raises(ValueError) as exc:
            QuadraticFunction(Q, [0.0, 0.0], constant)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind", [float, np.float64, np.array], ids=["float", "numpy-scalar", "0-d-array"])
    def test_bound_checks_do_not_depend_on_the_number_type(self, kind):
        nan, inf = np.nan, np.inf
        for lo, hi, message in [(nan, 1.0, "bounds must not be NaN"), (0.0, nan, "bounds must not be NaN"),
                                (-inf, inf, "at least one of lo, hi must be finite"),
                                (inf, inf, "at least one of lo, hi must be finite"),
                                (-inf, -inf, "at least one of lo, hi must be finite"),
                                (inf, 1.0, "empty interval: lo=inf > hi=1.0")]:
            for make in (lambda lo, hi: AffineConstraint([1.0, 0.0], lo, hi),
                         lambda lo, hi: AffineConstraint.bound(1, 2, lo, hi)):
                with pytest.raises(ValueError) as exc:
                    make(kind(lo), kind(hi))
                assert str(exc.value) == message
        for lo, hi, message in [(nan, 1.0, "bounds must not be NaN"), (0.0, nan, "bounds must not be NaN"),
                                (inf, inf, "a lower bound of +inf or an upper bound of -inf empties the box"),
                                (2.0, 1.0, "lower bound exceeds upper bound")]:
            with pytest.raises(ValueError) as exc:
                Bounds([kind(0.0), kind(lo)], [kind(1.0), kind(hi)])
            assert str(exc.value) == message
        rows = Bounds([kind(-inf), kind(0.0), kind(-inf)], [kind(inf), kind(inf), kind(2.5)]).to_rows()
        assert [(r.lo, r.hi, r.sense) for r in rows] == [(0.0, inf, ">="), (-inf, 2.5, "<=")]
        assert all(type(r.lo) is float and type(r.hi) is float for r in rows)

    def test_box_contains_its_faces_and_not_nan(self):
        box = Bounds([0.0, -np.inf], [1.0, 2.0])
        assert box.contains(np.array([0.0, -1e300])) and box.contains(np.array([1.0, 2.0]))
        assert not box.contains(np.array([1.5, 0.0])) and not box.contains(np.array([0.5, 2.5]))
        assert not box.contains(np.array([np.nan, 0.0]))

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            AffineConstraint.leq([0.0, 0.0], 1.0)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            AffineConstraint.interval([1.0], 2.0, 1.0)

    def test_bounds_must_nest(self):
        with pytest.raises(ValueError):
            Bounds([1.0], [0.0])
        # a box that holds no point, or NaN, raises when it is built
        for lo, hi in [([np.inf], [np.inf]), ([-np.inf], [-np.inf]),
                       ([0.0, np.inf], [1.0, np.inf])]:
            with pytest.raises(ValueError, match="empties the box"):
                Bounds(lo, hi)
        for lo, hi in [([np.nan], [1.0]), ([0.0], [np.nan])]:
            with pytest.raises(ValueError, match="must not be NaN"):
                Bounds(lo, hi)

    def test_nonfinite_vector_rejected(self):
        with pytest.raises(ValueError):
            as_vector([np.nan])

    def test_constraint_dimension_checked(self):
        with pytest.raises(ValueError):
            Problem(quad_1d(), [AffineConstraint.leq([1.0, 1.0], 0.0)])

    def test_bounds_expand_to_rows_in_order(self):
        rows = Bounds([0.0, -np.inf, -np.inf], [1.0, np.inf, 2.0]).to_rows()
        assert len(rows) == 2  # the free variable contributes no row
        assert [r.sense for r in rows] == ["range", "<="]
        np.testing.assert_array_equal(rows[0].a, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(rows[1].a, [0.0, 0.0, 1.0])
