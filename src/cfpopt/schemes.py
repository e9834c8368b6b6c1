"""Optimization schemes built on repeated convex feasibility solves.

The level-set scheme constrains the objective from above, tightening the
level ``t_k = f(x^k) - eps_k`` after every feasible point until the
feasibility solver can no longer find one; the last feasible point is then
an eps-optimal solution.  The bisection scheme instead maintains bounds
``[f_lo, f_hi]`` on the optimal value and halves the bracket with one
feasibility test per step.  Both start every solve from the incumbent and
share one acceleration rule: stalled levels warm-start the next solve from a
negative-gradient shift of the incumbent, which never becomes the incumbent
itself.

Termination is classified into four cases: the very first feasibility
solve already fails (``CASE1``); some later solve fails, certifying the
previous point as eps-optimal (``CASE2_OR_3``); a bisection test on an
objective that is not a :class:`~cfpopt.model.QuadraticFunction` times out
without a proof (``CASE3``, no certificate: ``lower`` and ``upper`` are the
bracket at the stop); or the outer iteration cap is hit before any of these
(``ITERATION_CAP``, no certificate).  A solve fails either with a proof that
its level set is empty or by exhausting its sweep budget.  The proofs are
three (see :mod:`cfpopt.feasibility`): the step multipliers of CSPM, POCS
and ART3+ when the problem has a finite bound box; a violated level visit at
a minimiser of the objective; and, before the first sweep, a level more than
tol below the objective's ``lower_bound()``.  The level-set schemes, and
bisection on a quadratic objective, still read a time-out as a proof (the
time-out rule), so the two theoretical sub-cases of ``CASE2_OR_3`` are
reported jointly there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .feasibility import RowPlan, _check_count, cfp_with_level
from .model import Counters, Problem, QuadraticFunction, as_vector

__all__ = [
    "CASE1",
    "CASE2_OR_3",
    "CASE3",
    "ITERATION_CAP",
    "DEFAULT_MAX_OUTER",
    "EpsilonRule",
    "epsilon_update",
    "AccelerationConfig",
    "BisectionConfig",
    "SchemeResult",
    "level_set_solve",
    "accelerated_level_set_solve",
    "bisection_solve",
    "counterexample_run",
    "CounterexampleTrace",
    "default_lower_bound",
]

CASE1 = "case1"
CASE2_OR_3 = "case2-or-3"
CASE3 = "case3"
ITERATION_CAP = "iteration-cap"
DEFAULT_MAX_OUTER = 10_000


@dataclass(frozen=True)
class EpsilonRule:
    """How the slack eps_k is derived from the current objective value.

    ``max-floor`` returns ``max(factor*|f|, floor)`` (the floor keeps the
    slack series divergent, which the termination guarantee needs),
    ``multiplicative`` returns ``factor*|f|`` and ``constant`` returns the
    floor alone.
    """

    mode: str = "max-floor"
    factor: float = 0.1
    floor: float = 0.1

    def __post_init__(self):
        if self.mode not in ("max-floor", "multiplicative", "constant"):
            raise ValueError(f"unknown epsilon rule mode {self.mode!r}")
        if not 0.0 < self.factor < np.inf:
            raise ValueError(f"epsilon factor must be finite and positive, got {self.factor}")
        if not np.isfinite(self.floor) or (self.mode != "multiplicative" and self.floor <= 0.0):
            raise ValueError(f"epsilon floor must be finite and positive, got {self.floor}")


def epsilon_update(fx: float, rule: EpsilonRule) -> float:
    """Slack for the next level, per the rule (see :class:`EpsilonRule`)."""
    if not np.isfinite(fx):
        raise ValueError(f"objective value must be finite, got {fx}")
    if rule.mode == "max-floor":
        return max(rule.factor * abs(fx), rule.floor)
    if rule.mode == "multiplicative":
        return rule.factor * abs(fx)
    return rule.floor


@dataclass(frozen=True)
class AccelerationConfig:
    """Stall detection and gradient perturbation for the accelerated schemes.

    A stall counter grows whenever the level about to be tested differs from
    the previous one by at most ``c * eps(f_best)``; once ``delta / block > s``
    the counter resets and the next solve's warm start is shifted by
    ``step_factor`` times the negative objective gradient -- verbatim in
    non-adaptive mode, with backtracking halving of the step until the
    objective does not increase in adaptive mode.  Levels, brackets and the
    incumbent only ever come from points a solve found.
    """

    c: float = 1.0
    s: float = 0.5
    block: int = 1000
    step_factor: float = 1.9
    adaptive: bool = False

    def __post_init__(self):
        # "not > 0" rejects NaN too; s = inf is a stall rule that never fires
        if not self.c > 0.0:
            raise ValueError(f"acceleration c must be positive, got {self.c}")
        if not self.s > 0.0:
            raise ValueError(f"acceleration s must be positive, got {self.s}")
        _check_count("block", self.block, 1)
        if not 0.0 < self.step_factor < np.inf:
            raise ValueError(f"step_factor must be finite and positive, got {self.step_factor}")


@dataclass(frozen=True)
class BisectionConfig:
    """Bracket data for the bisection scheme.

    ``f_lower`` must underestimate the optimal value over the feasible set;
    a bad bound degrades the answer but feasible outputs stay feasible.
    Left unset, a crude bound is derived from the first feasible value.
    """

    f_lower: float | None = None
    gamma: float = 1e-5

    def __post_init__(self):
        if self.f_lower is not None and not np.isfinite(self.f_lower):
            raise ValueError("f_lower must be finite")
        if not 0.0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")


def default_lower_bound(f0: float) -> float:
    """Crude objective lower bound from the first feasible value."""
    return min(0.0, f0 - abs(f0))


@dataclass
class SchemeResult:
    """Outcome of one scheme run.

    ``best_x``/``best_value`` hold the best point a feasibility solve found
    and its objective (None in ``CASE1``); ``epsilon`` is the optimality
    certificate, set only in ``CASE2_OR_3`` (the eps of the last accepted
    step, or gamma for bisection).  ``trace`` records ``(k, t, f)``, the
    next level and the incumbent value after step ``k`` (a failing level-set
    step, and a bisection test that ends the run in ``CASE3``, end it
    unrecorded), and ``level_steps`` is the number of level-constrained
    feasibility attempts.  ``lower`` and ``upper`` are a bisection run's
    bracket when it stopped.
    """

    case: str
    best_x: np.ndarray | None
    best_value: float | None
    epsilon: float | None
    level_steps: int
    trace: list[tuple[int, float, float]]
    counters: Counters
    lower: float | None = None
    upper: float | None = None


def _perturb(problem: Problem, x: np.ndarray, accel: AccelerationConfig, counters: Counters) -> np.ndarray:
    """Shift x along the negative objective gradient per the acceleration rule."""
    g = problem.objective.subgrad(x)
    if float(g @ g) == 0.0:
        return x
    if not accel.adaptive:
        return x - accel.step_factor * g
    fx = counters.objective(problem.objective, x)
    alpha = accel.step_factor
    for _ in range(64):
        cand = x - alpha * g
        if counters.objective(problem.objective, cand) <= fx:
            return cand
        alpha *= 0.5
    return x


def _warm_starts(problem: Problem, accel: AccelerationConfig | None, rule: EpsilonRule,
                 counters: Counters):
    """The acceleration rule of :class:`AccelerationConfig` as ``warm_start(t, x, f_best)``:
    the warm start for testing level ``t``, ``x`` itself unless a stall fires.

    A shift depends on ``x`` alone, so a stall at an unchanged incumbent
    reuses the last shifted point instead of computing it again.
    """
    prev, delta = None, 0
    last = None  # (incumbent bytes, its shifted point)

    def warm_start(t: float, x: np.ndarray, f_best: float) -> np.ndarray:
        nonlocal prev, delta, last
        if accel is None:
            return x
        if prev is not None and abs(prev - t) <= accel.c * epsilon_update(f_best, rule):
            delta += 1
        prev = t
        if delta / accel.block <= accel.s:
            return x
        delta = 0
        if last is None or last[0] != x.tobytes():
            last = x.tobytes(), _perturb(problem, x, accel, counters)
        return last[1]

    return warm_start


def _objective(problem: Problem, x: np.ndarray, counters: Counters, where: str) -> float:
    fx = counters.objective(problem.objective, x)
    if not np.isfinite(fx):
        raise ValueError(f"objective is non-finite ({fx}) {where}")
    return fx


def _start(problem: Problem, solver, x0, max_outer: int, counters: Counters):
    """``(solve, x, f(x))``: the level test ``solve(t, x)`` bound to the run's solver
    and the first feasible point (None, None when there is none).

    Every test of the run shares one :class:`~cfpopt.feasibility.RowPlan`:
    the problem's rows are packed for the first, and each later test starts
    from the screens the last one left.  A test's point and verdict are a
    deterministic function of its level and warm start (a screen skips only
    rows that would not move x), so a test that repeats the last one bitwise
    returns the last outcome without solving or counting, as
    :meth:`Counters.objective` serves a repeated point.
    """
    _check_count("max_outer", max_outer, 0)
    x0 = problem.start_point() if x0 is None else as_vector(x0, problem.n)
    last = None
    plan = RowPlan()

    def solve(t: float, x: np.ndarray):
        nonlocal last
        key = (float(t).hex(), x.tobytes())
        if last is not None and last[0] == key:
            return last[1]
        # the level stays the second positional argument: solvebench's tracer reads it there
        out = cfp_with_level(problem, t, solver, x, counters=counters, plan=plan)
        last = key, out
        return out

    out = solve(np.inf, x0)
    if not out.found:
        return solve, None, None
    return solve, out.x, _objective(problem, out.x, counters, "at the first feasible point")


def _level_engine(problem: Problem, solver, x0, rule: EpsilonRule, accel: AccelerationConfig | None,
                  max_outer: int, counters: Counters) -> SchemeResult:
    solve, x, fx = _start(problem, solver, x0, max_outer, counters)
    if x is None:
        return SchemeResult(CASE1, None, None, None, 0, [], counters)
    warm_start = _warm_starts(problem, accel, rule, counters)
    eps = epsilon_update(fx, rule)
    t = fx - eps
    trace = [(0, t, fx)]

    for k in range(1, max_outer + 1):
        out = solve(t, warm_start(t, x, fx))
        if not out.found:
            # the level set became (operationally) infeasible: the previous
            # point carries the eps certificate
            return SchemeResult(CASE2_OR_3, x, fx, eps, k, trace, counters)
        x = out.x
        fx = _objective(problem, x, counters, f"at step {k}")
        eps = epsilon_update(fx, rule)
        t = fx - eps
        trace.append((k, t, fx))

    return SchemeResult(ITERATION_CAP, x, fx, None, max_outer, trace, counters)


def level_set_solve(problem: Problem, solver="cspm", x0=None, rule: EpsilonRule | None = None,
                    max_outer: int = DEFAULT_MAX_OUTER,
                    counters: Counters | None = None) -> SchemeResult:
    """Minimize by repeatedly tightening the objective level set.

    Step 0 solves plain feasibility; each later step asks the feasibility
    solver for a point of the constraint set intersected with
    ``{f <= t_(k-1)}``, warm-started from the previous point, and tightens
    ``t_k = f(x^k) - eps_k`` on success.  The first failing step certifies
    the previous point as eps-optimal.  ``solver``, a
    :class:`~cfpopt.feasibility.SolverSpec` or a bare solver kind, solves
    every test (see :func:`~cfpopt.feasibility.cfp_with_level`).
    """
    counters = counters if counters is not None else Counters()
    rule = rule if rule is not None else EpsilonRule()
    return _level_engine(problem, solver, x0, rule, None, max_outer, counters)


def accelerated_level_set_solve(problem: Problem, solver="cspm", x0=None,
                                rule: EpsilonRule | None = None,
                                accel: AccelerationConfig | None = None,
                                max_outer: int = DEFAULT_MAX_OUTER,
                                counters: Counters | None = None) -> SchemeResult:
    """Level-set scheme with stall detection and gradient perturbations.

    Identical to :func:`level_set_solve` except that stalled level progress
    (see :class:`AccelerationConfig`) warm-starts the next feasibility solve
    from a negative-gradient shift of the incumbent; the shifted point never
    becomes the incumbent.  With a stall threshold that never fires this
    reproduces the plain scheme exactly.
    """
    counters = counters if counters is not None else Counters()
    rule = rule if rule is not None else EpsilonRule()
    accel = accel if accel is not None else AccelerationConfig()
    return _level_engine(problem, solver, x0, rule, accel, max_outer, counters)


def bisection_solve(problem: Problem, solver="cspm", x0=None, cfg: BisectionConfig | None = None,
                    accel: AccelerationConfig | None = None, rule: EpsilonRule | None = None,
                    max_outer: int = DEFAULT_MAX_OUTER,
                    counters: Counters | None = None) -> SchemeResult:
    """Bracket the optimal value and halve the bracket by feasibility tests.

    After an initial plain feasibility solve sets ``f_hi = f(x^0)``, each
    step tests the level ``t = (f_lo + f_hi)/2``: a test that proves its
    level set empty raises ``f_lo`` to ``t``; a found point becomes the
    incumbent, lowering ``f_hi`` to its value, only when that value is below
    ``f_hi``.  A test that times out proves nothing, and on an objective
    that is not a :class:`~cfpopt.model.QuadraticFunction` it ends the run
    in ``CASE3``, with no certificate and the bracket as it stood.  On a
    quadratic objective it still raises ``f_lo``, the paper's time-out rule,
    until a proven dual bound replaces it.  A found
    value is at most ``t`` plus the solver's tolerance, so with a tolerance
    below ``gamma/2`` a found point is kept out only in a crossed bracket
    (``f_lo > f_hi``, after a time-out read as a proof or from a lower
    bound above the optimum).  The next test then repeats the last one
    bitwise unless a stall shifts its warm start, and a repeated test
    returns the last outcome without solving again (see ``_start``).  The
    scheme stops once ``|f_hi - f_lo| <= gamma``, returning the best
    feasible point as a gamma-optimal solution.  When no lower bound is
    supplied, a crude one is derived from the first feasible value; a
    supplied one above that value raises ``ValueError``.  Every test starts
    from the incumbent, as the level-set scheme's steps do; the optional
    acceleration (see :class:`AccelerationConfig`) shifts that warm start on
    stalled brackets, and the shifted point never becomes the incumbent.
    ``solver`` is passed to every test as in :func:`level_set_solve`.
    """
    counters = counters if counters is not None else Counters()
    rule = rule if rule is not None else EpsilonRule()
    solve, x, f_hi = _start(problem, solver, x0, max_outer, counters)
    if x is None:
        return SchemeResult(CASE1, None, None, None, 0, [], counters)
    cfg = cfg if cfg is not None else BisectionConfig()
    if cfg.f_lower is not None and cfg.f_lower > f_hi:
        raise ValueError(f"f_lower {cfg.f_lower!r} exceeds the first feasible value {f_hi!r}, "
                         "so it cannot bound the optimum")
    f_lo = cfg.f_lower if cfg.f_lower is not None else default_lower_bound(f_hi)
    gamma = cfg.gamma

    warm_start = _warm_starts(problem, accel, rule, counters)
    # a QP's time-out is still read as a proof, until a proven bound from the
    # QP's dual (ROADMAP item 2, Stage B) takes its place; then this goes
    timeout_is_proof = isinstance(problem.objective, QuadraticFunction)
    t = 0.5 * (f_lo + f_hi)
    trace = [(0, t, f_hi)]
    k = 0
    while abs(f_hi - f_lo) > gamma:
        if k >= max_outer:
            return SchemeResult(ITERATION_CAP, x, f_hi, None, k, trace, counters,
                                lower=f_lo, upper=f_hi)
        k += 1
        out = solve(t, warm_start(t, x, f_hi))
        if out.found:
            fx = _objective(problem, out.x, counters, f"at step {k}")
            if fx < f_hi:
                x, f_hi = out.x, fx
        elif out.infeasibility_certified or timeout_is_proof:
            f_lo = t
        else:
            return SchemeResult(CASE3, x, f_hi, None, k, trace, counters, lower=f_lo, upper=f_hi)
        t = 0.5 * (f_lo + f_hi)
        trace.append((k, t, f_hi))

    return SchemeResult(CASE2_OR_3, x, f_hi, gamma, k, trace, counters,
                        lower=f_lo, upper=f_hi)


@dataclass
class CounterexampleTrace:
    """Trajectory of the divergence diagnostic (see :func:`counterexample_run`).

    Arrays are indexed by step; ``ok_*`` summarize the checks: levels stay
    nonnegative, every objective value misses the true optimum by at least
    100, and the slack series has partial sums bounded by the first level.
    """

    xs: np.ndarray
    fs: np.ndarray
    epss: np.ndarray
    ts: np.ndarray
    t_star: float
    ok_levels_nonnegative: bool
    ok_gap_at_least_100: bool
    ok_slack_sum_bounded: bool

    @property
    def ok(self) -> bool:
        return self.ok_levels_nonnegative and self.ok_gap_at_least_100 and self.ok_slack_sum_bounded


def counterexample_run(steps: int = 100) -> CounterexampleTrace:
    """Show that a purely multiplicative slack rule can stall far from optimal.

    Minimizes f(x) = x^2 - 100 over the whole line (true optimum -100),
    starting from x = sqrt(500), with slack eps_k = 0.1*|f(x^k)| and an exact
    level oracle that returns x^k with f(x^k) = t_(k-1) at every step.  The
    levels then follow t_k = 0.9*t_(k-1) and never drop below zero, so every
    iterate stays at objective distance >= 100 from the optimum while the
    slack series sums to at most t_0: without a floor on eps the scheme runs
    forever yet converges to the wrong value.  ``steps`` must be at least 1.
    """
    _check_count("steps", steps, 1)
    rule = EpsilonRule(mode="multiplicative", factor=0.1)
    t_star = -100.0
    # f(x^0) = 400 exactly: x0 = sqrt(500) has x0^2 = 500 algebraically
    xs = [math.sqrt(500.0)]
    fs = [400.0]
    epss = [epsilon_update(fs[0], rule)]
    ts = [fs[0] - epss[0]]
    for _ in range(steps):
        f_k = ts[-1]  # exact oracle: f(x^k) = t_(k-1)
        xs.append(math.sqrt(100.0 + f_k))
        fs.append(f_k)
        epss.append(epsilon_update(f_k, rule))
        ts.append(f_k - epss[-1])
    xs = np.array(xs)
    fs = np.array(fs)
    epss = np.array(epss)
    ts = np.array(ts)
    return CounterexampleTrace(
        xs=xs,
        fs=fs,
        epss=epss,
        ts=ts,
        t_star=t_star,
        ok_levels_nonnegative=bool(np.all(ts >= 0.0)),
        ok_gap_at_least_100=bool(np.all(np.abs(fs - t_star) >= 100.0)),
        ok_slack_sum_bounded=bool(np.sum(epss[1:]) <= ts[0]),
    )
