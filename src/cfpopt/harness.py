"""Benchmark harness: the solver-variant matrix, scoring and CSV reports.

Twelve named variants combine a scheme (level set or bisection, plain or
accelerated) with a feasibility solver (CSPM or ART3+), optionally
superiorized; :func:`run_variant` dispatches the scheme through one table,
``_SCHEMES``.  Each (variant, problem) run yields a :class:`RunReport` with
the best value found, a quality score against the best known value when one
is supplied, and the projection / objective-evaluation counters that serve
as machine-independent complexity measures.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .feasibility import DEFAULT_FEAS_TOL, DEFAULT_MAX_SWEEPS, DEFAULT_RELAXATION, SolverSpec
from .model import AffineConstraint, Bounds, CustomFunction, DoseModel, Problem, QuadraticFunction, make_pnorm, make_underdose
from .schemes import (
    DEFAULT_MAX_OUTER,
    AccelerationConfig,
    BisectionConfig,
    EpsilonRule,
    accelerated_level_set_solve,
    bisection_solve,
    level_set_solve,
)
from .superiorize import SuperiorizationConfig

__all__ = [
    "VariantSpec",
    "VARIANTS",
    "HarnessConfig",
    "RunReport",
    "StatsSummary",
    "quality_score",
    "run_variant",
    "aggregate",
    "aggregate_by_variant",
    "emit_report",
    "builtin_problems",
    "AGGREGATE_METRICS",
]


# scheme name -> runner(problem, config, keyword arguments); each runner looks
# its scheme function up by its module-level name at call time, so a rebinding
# of that name (a tracer's, say) reaches every variant
_SCHEMES = {
    "levelset": lambda problem, config, kw: level_set_solve(problem, **kw),
    "levelset-accelerated": lambda problem, config, kw: accelerated_level_set_solve(
        problem, accel=config.acceleration(), **kw),
    "bisection": lambda problem, config, kw: bisection_solve(problem, cfg=config.bisection(), **kw),
    "bisection-accelerated": lambda problem, config, kw: bisection_solve(
        problem, cfg=config.bisection(), accel=config.acceleration(), **kw),
}


@dataclass(frozen=True)
class VariantSpec:
    """One cell of the tested-scheme matrix."""

    name: str
    scheme: str  # a key of _SCHEMES
    feas_solver: str  # a SolverSpec kind: cspm | art3+ | pocs
    superiorized: bool = False

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        SolverSpec(kind=self.feas_solver)  # raises on an unknown solver kind


def _variant_table() -> dict[str, VariantSpec]:
    table = {}
    for name, scheme, solver, sup in (
        ("ls_cspm", "levelset", "cspm", False),
        ("ls_art3+", "levelset", "art3+", False),
        ("ls_acc_cspm", "levelset-accelerated", "cspm", False),
        ("ls_sup_cspm", "levelset", "cspm", True),
        ("ls_sup_art3+", "levelset", "art3+", True),
        ("ls_acc_sup_cspm", "levelset-accelerated", "cspm", True),
        ("bis_cspm", "bisection", "cspm", False),
        ("bis_art3+", "bisection", "art3+", False),
        ("bis_acc_cspm", "bisection-accelerated", "cspm", False),
        ("bis_sup_cspm", "bisection", "cspm", True),
        ("bis_sup_art3+", "bisection", "art3+", True),
        ("bis_acc_sup_cspm", "bisection-accelerated", "cspm", True),
    ):
        table[name] = VariantSpec(name, scheme, solver, sup)
    return table


VARIANTS: dict[str, VariantSpec] = _variant_table()


@dataclass(frozen=True)
class HarnessConfig:
    """All solver knobs in one place; the defaults are those of the configured classes."""

    max_sweeps: int = DEFAULT_MAX_SWEEPS
    feas_tol: float = DEFAULT_FEAS_TOL
    lam: float = DEFAULT_RELAXATION
    gamma: float = BisectionConfig.gamma
    f_lower: float | None = BisectionConfig.f_lower
    epsilon_mode: str = EpsilonRule.mode
    epsilon_factor: float = EpsilonRule.factor
    epsilon_floor: float = EpsilonRule.floor
    accel_c: float = AccelerationConfig.c
    accel_s: float = AccelerationConfig.s
    block: int = AccelerationConfig.block
    accel_step: float = AccelerationConfig.step_factor
    accel_adaptive: bool = AccelerationConfig.adaptive
    sup_n: int = SuperiorizationConfig.N
    sup_a: float = SuperiorizationConfig.a
    max_outer: int = DEFAULT_MAX_OUTER
    seed: int | None = None

    def epsilon_rule(self) -> EpsilonRule:
        return EpsilonRule(self.epsilon_mode, self.epsilon_factor, self.epsilon_floor)

    def acceleration(self) -> AccelerationConfig:
        return AccelerationConfig(self.accel_c, self.accel_s, self.block,
                                  self.accel_step, self.accel_adaptive)

    def superiorization(self) -> SuperiorizationConfig:
        return SuperiorizationConfig(N=self.sup_n, a=self.sup_a)

    def bisection(self) -> BisectionConfig:
        return BisectionConfig(self.f_lower, self.gamma)


@dataclass
class RunReport:
    """Result of one (variant, problem) run."""

    problem: str
    variant: str
    status: str
    f_hat: float | None
    quality: float | None
    projections: int
    obj_evals: int
    outer_steps: int
    ms: float
    best_x: np.ndarray | None = None


@dataclass(frozen=True)
class StatsSummary:
    """Average, median (midpoint rule) and nearest-rank 10/90 quantiles."""

    average: float
    median: float
    q10: float
    q90: float


def quality_score(f_hat: float, fstar: float) -> float:
    """Deviation-from-optimality score; closer to 0 is better.

    The value itself when the best known value is 0, the absolute gap when
    the best known value is at most 1 in magnitude, the relative gap
    otherwise; the branches are tested in exactly that order.
    """
    if not (np.isfinite(f_hat) and np.isfinite(fstar)):
        raise ValueError("quality score needs finite values")
    if fstar == 0.0:
        return f_hat
    if abs(fstar) <= 1.0:
        return f_hat - fstar
    return (f_hat - fstar) / abs(fstar)


def run_variant(variant: VariantSpec | str, problem: Problem,
                config: HarnessConfig | None = None,
                fstar: float | None = None, x0=None) -> RunReport:
    """Execute one variant on one problem and report counters and scores.

    Deterministic: identical inputs give an identical report apart from the
    wall-time field.  Raises ``ValueError`` before any sweep when the
    variant's feasibility solver cannot take the problem's constraint kinds
    (see :func:`cfpopt.feasibility.make_sweeper`), or when the known optimum
    (``fstar``, else ``problem.fstar``) is NaN or infinite, which no
    quality score can be measured against.
    """
    if isinstance(variant, str):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; choices: {sorted(VARIANTS)}")
        variant = VARIANTS[variant]
    config = config if config is not None else HarnessConfig()
    effective_fstar = fstar if fstar is not None else problem.fstar
    if effective_fstar is not None and not math.isfinite(effective_fstar):
        raise ValueError(f"fstar must be finite to score a run against, got {effective_fstar}")
    if x0 is None:
        x0 = problem.start_point(config.seed)

    spec = SolverSpec(variant.feas_solver,
                      sup=config.superiorization() if variant.superiorized else None,
                      lam=config.lam, tol=config.feas_tol, max_sweeps=config.max_sweeps)
    common = dict(solver=spec, x0=x0, rule=config.epsilon_rule(), max_outer=config.max_outer)
    start = time.perf_counter()
    result = _SCHEMES[variant.scheme](problem, config, common)
    ms = (time.perf_counter() - start) * 1e3

    quality = None
    if effective_fstar is not None and result.best_value is not None:
        quality = quality_score(result.best_value, effective_fstar)

    return RunReport(
        problem=problem.name or "problem",
        variant=variant.name,
        status=result.case,
        f_hat=result.best_value,
        quality=quality,
        projections=result.counters.projections,
        obj_evals=result.counters.obj_evals,
        outer_steps=result.level_steps,
        ms=ms,
        best_x=result.best_x,
    )


def _nearest_rank(sorted_vals: list[float], p: float) -> float:
    rank = max(1, math.ceil(p * len(sorted_vals)))
    return sorted_vals[rank - 1]


def aggregate(values) -> StatsSummary:
    """Summary statistics over numbers."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("cannot aggregate an empty collection")
    svals = sorted(vals)
    return StatsSummary(
        average=sum(svals) / len(svals),
        median=float(statistics.median(svals)),
        q10=_nearest_rank(svals, 0.10),
        q90=_nearest_rank(svals, 0.90),
    )


AGGREGATE_METRICS = ("quality", "projections", "obj_evals")


def aggregate_by_variant(reports: list[RunReport]) -> dict[tuple[str, str], StatsSummary]:
    """Per-variant summaries of quality scores and work counters."""
    out: dict[tuple[str, str], StatsSummary] = {}
    variants = sorted({r.variant for r in reports})
    for variant in variants:
        rows = [r for r in reports if r.variant == variant]
        for metric in AGGREGATE_METRICS:
            vals = [getattr(r, metric) for r in rows if getattr(r, metric) is not None]
            if vals:
                out[(variant, metric)] = aggregate(vals)
    return out


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


RUN_CSV_FIELDS = ("problem", "variant", "status", "f_hat", "Q", "projections",
                  "obj_evals", "outer_steps", "ms")


def emit_report(reports: list[RunReport], stats, out_dir) -> list[Path]:
    """Write per-run and aggregate CSVs (plus a small metadata JSON).

    The per-run CSV always carries its header; the aggregate CSV is omitted
    when there are no stats.  Numbers are serialized with 17 significant
    digits so they re-parse exactly.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    runs_path = out_dir / "runs.csv"
    with open(runs_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RUN_CSV_FIELDS)
        for r in reports:
            w.writerow([
                r.problem, r.variant, r.status, _fmt(r.f_hat), _fmt(r.quality),
                r.projections, r.obj_evals, r.outer_steps, _fmt(r.ms),
            ])
    written.append(runs_path)

    if stats:
        agg_path = out_dir / "aggregate.csv"
        with open(agg_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("variant", "metric", "avg", "median", "q10", "q90"))
            for (variant, metric), s in sorted(stats.items()):
                w.writerow([variant, metric, _fmt(s.average), _fmt(s.median),
                            _fmt(s.q10), _fmt(s.q90)])
        written.append(agg_path)

    meta_path = out_dir / "report_meta.json"
    meta_path.write_text(json.dumps({
        "quantile_method": "nearest-rank",
        "median_method": "midpoint-of-central-pair",
        "runs": len(reports),
    }, indent=2) + "\n")
    written.append(meta_path)
    return written


# ---------------------------------------------------------------------------
# Built-in test problems


def _simple_qp() -> Problem:
    """min x^2 subject to x >= 1; optimum 1 at x = 1."""
    return Problem(
        QuadraticFunction([[2.0]], [0.0]),
        [AffineConstraint.geq([1.0], 1.0)],
        fstar=1.0,
        name="simple_qp",
    )


def _box_lp() -> Problem:
    """min x subject to 0 <= x <= 1 (linear objective as Q = 0); optimum 0."""
    return Problem(
        QuadraticFunction([[0.0]], [1.0]),
        [],
        bounds=Bounds([0.0], [1.0]),
        fstar=0.0,
        name="box_lp",
    )


def _qp2d() -> Problem:
    """min 1/2 (x1^2 + x2^2) - x1 s.t. x1 + x2 <= 2, x >= 0; optimum -0.5 at (1, 0)."""
    return Problem(
        QuadraticFunction(np.eye(2), [-1.0, 0.0]),
        [AffineConstraint.leq([1.0, 1.0], 2.0)],
        bounds=Bounds([0.0, 0.0], [np.inf, np.inf]),
        fstar=-0.5,
        name="qp2d",
    )


def _infeasible() -> Problem:
    """min x^2 subject to x <= -1 and x >= 1 (empty feasible set)."""
    return Problem(
        QuadraticFunction([[2.0]], [0.0]),
        [AffineConstraint.leq([1.0], -1.0), AffineConstraint.geq([1.0], 1.0)],
        name="infeasible",
    )


def _imrt_small() -> Problem:
    """Small synthetic fluence-map problem with nonlinear objective and constraint."""
    D = np.array([
        [1.0, 0.4, 0.0, 0.2],
        [0.6, 1.0, 0.3, 0.0],
        [0.0, 0.5, 1.0, 0.1],
        [0.3, 0.0, 0.2, 0.9],
        [0.1, 0.3, 0.6, 0.4],
        [0.2, 0.1, 0.1, 0.8],
    ])
    model = DoseModel(D, target=(0, 1, 2), risk=(3, 4, 5), prescription=1.0, p=2)
    objective = make_underdose(model)
    pnorm = make_pnorm(model)
    cap = 0.8
    risk_cap = CustomFunction(
        lambda x, _p=pnorm, _c=cap: _p.value(x) - _c,
        lambda x, _p=pnorm: _p.subgrad(x),
        name="risk_pnorm_cap",
    )
    return Problem(
        objective,
        [risk_cap],
        bounds=Bounds(np.zeros(4), np.full(4, 5.0)),
        n=4,
        name="imrt_small",
    )


def builtin_problems() -> dict[str, Problem]:
    """Fresh instances of the bundled test problems, keyed by name."""
    return {
        p.name: p
        for p in (_simple_qp(), _box_lp(), _qp2d(), _infeasible(), _imrt_small())
    }
