"""The benchmark's three workloads: inputs from a seed, and the timed set-up.

Each workload is a fixed suite of instances (numbers 0, 1, ...) and a list of
solver variants.  The seed permutes the variables of every instance (the
columns of the QPS files, or the beamlets of a dose model), so each seed gives
different input files and a different floating-point summation order.  The
suite itself is the same for every seed on purpose: how much work a solve
takes depends strongly on the instance (a bisection run may time out zero or
sixteen times), so fresh instances per seed would move the matrix time by
tens of percent between seeds, more than the bound a regression is judged
by.  A variable permutation leaves the optimum and, up to rounding, every
iterate unchanged.  The suites are small so that a run fits several passes.

``make_inputs`` is not timed.  ``setup`` builds one problem and is what
``setup_s`` times: QPS parse, ``to_problem`` and ``Problem`` construction for
the planted suites, and model and ``Problem`` construction for the dose suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cfpopt import (
    AffineConstraint,
    Bounds,
    CustomFunction,
    DoseModel,
    Problem,
    QuadraticFunction,
    load_qps,
    make_pnorm,
    make_underdose,
    write_qps,
)
from make_problems import planted_instance


@dataclass
class Inputs:
    """What ``make_inputs`` hands to ``setup``: files or arrays, plus f_ref."""

    f_ref: dict[str, float]
    files: list[Path] = field(default_factory=list)
    dose: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    """A suite of ``instances`` problems, each solved by every variant.

    Why each workload is in the benchmark is recorded in BENCHMARK.json.
    """

    name: str
    variants: tuple[str, ...]
    instances: int


def _permuted(problem: Problem, perm: np.ndarray) -> Problem:
    """The same planted QP with its variables reordered by ``perm``."""
    obj = problem.objective
    rows = [AffineConstraint(c.a[perm], c.lo, c.hi) for c in problem.constraints]
    return Problem(
        QuadraticFunction(obj.Q[np.ix_(perm, perm)], obj.c[perm], constant=obj.constant),
        rows,
        bounds=Bounds(problem.bounds.lo[perm], problem.bounds.hi[perm]),
        n=problem.n,
        name=problem.name,
    )


def _planted_inputs(workload: Workload, n: int, m: int, seed: int, workdir: Path) -> Inputs:
    rng = np.random.default_rng(seed)
    inputs = Inputs(f_ref={})
    for i in range(workload.instances):
        problem, fstar = planted_instance(i, n, m)
        problem = _permuted(problem, rng.permutation(n))
        path = workdir / f"{problem.name.lower()}.qps"
        path.write_text(write_qps(problem))
        inputs.files.append(path)
        inputs.f_ref[problem.name] = fstar
    return inputs


# ---------------------------------------------------------------------------
# Fluence-map (dose) instances

DOSE_GRID = 20  # voxels per side of the square phantom
DOSE_ANGLES = 6
DOSE_OFFSETS = 10  # beamlets per angle: 60 in all
DOSE_BOX = 5.0


def _dose_matrix(rng: np.random.Generator) -> tuple[np.ndarray, tuple, tuple]:
    """Voxels on a grid, pencil beamlets with Gaussian profile and attenuation."""
    ticks = np.linspace(-1.0, 1.0, DOSE_GRID)
    vx, vy = (g.ravel() for g in np.meshgrid(ticks, ticks))
    angles = np.linspace(0.0, np.pi, DOSE_ANGLES, endpoint=False) + rng.uniform(0, 0.3, DOSE_ANGLES)
    offsets = np.linspace(-0.6, 0.6, DOSE_OFFSETS)
    cols = []
    for th in angles:
        along = vx * np.cos(th) + vy * np.sin(th)
        across = -vx * np.sin(th) + vy * np.cos(th)
        depth = along + 1.5
        for s in offsets:
            cols.append(np.exp(-((across - s) ** 2) / (2 * 0.12**2)) * np.exp(-0.3 * depth))
    D = np.column_stack(cols)
    tc = rng.uniform(-0.15, 0.15, 2)
    phi = rng.uniform(0.0, 2 * np.pi)
    rc = tc + 0.5 * np.array([np.cos(phi), np.sin(phi)])
    target = tuple(int(i) for i in np.flatnonzero(np.hypot(vx - tc[0], vy - tc[1]) <= 0.4))
    near_risk = np.hypot(vx - rc[0], vy - rc[1]) <= 0.3
    risk = tuple(int(i) for i in np.flatnonzero(near_risk) if i not in target)
    return D, target, risk


def _dose_problem(D, target, risk, caps, name) -> Problem:
    """Underdose objective, p=2 and p=8 risk caps, box [0, DOSE_BOX]."""
    constraints = []
    for p, cap in zip((2, 8), caps):
        pnorm = make_pnorm(DoseModel(D, target=target, risk=risk, p=p))
        constraints.append(CustomFunction(
            lambda x, _f=pnorm, _c=cap: _f.value(x) - _c,
            pnorm.subgrad,
            name=f"risk_p{p}_cap",
        ))
    n = D.shape[1]
    return Problem(
        make_underdose(DoseModel(D, target=target, risk=risk)),
        constraints,
        bounds=Bounds(np.zeros(n), np.full(n, DOSE_BOX)),
        n=n,
        name=name,
    )


def _slsqp_reference(problem: Problem) -> float:
    """Objective value SLSQP reaches from a flat fluence; at or above the optimum."""
    from scipy.optimize import minimize

    cons = [{"type": "ineq", "fun": (lambda x, _g=g: -_g.value(x)),
             "jac": (lambda x, _g=g: -_g.subgrad(x))} for g in problem.constraints]
    res = minimize(problem.objective.value, np.full(problem.n, 0.5), jac=problem.objective.subgrad,
                   method="SLSQP", bounds=list(zip(problem.bounds.lo, problem.bounds.hi)),
                   constraints=cons, options={"maxiter": 500, "ftol": 1e-12})
    if problem.max_violation(res.x) > 1e-8:
        raise RuntimeError(f"SLSQP reference for {problem.name} is infeasible: {res.message}")
    return float(problem.objective.value(res.x))


def _dose_inputs(workload: Workload, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    inputs = Inputs(f_ref={})
    for i in range(workload.instances):
        D, target, risk = _dose_matrix(np.random.default_rng(1000 + i))
        # caps: a fraction of the risk-organ p-norms under a flat fluence that
        # gives the target its prescription, so the caps bind at the optimum
        flat = np.full(D.shape[1], 1.0 / float(np.mean(D[list(target)].sum(axis=1))))
        caps = tuple(0.5 * make_pnorm(DoseModel(D, target=target, risk=risk, p=p)).value(flat)
                     for p in (2, 8))
        D = D[:, rng.permutation(D.shape[1])]
        name = f"DOSE{i:03d}"
        inputs.dose.append({"D": D, "target": target, "risk": risk, "caps": caps, "name": name})
        inputs.f_ref[name] = _slsqp_reference(_dose_problem(D, target, risk, caps, name))
    return inputs


# The accelerated variants other than ls_acc_cspm are left out: at these
# settings their stall counter never fires, so they repeat their plain twins'
# counters exactly.  ls_acc_cspm stays as the witness of the accelerated path.
WORKLOADS = {
    w.name: w for w in (
        Workload("plant-cspm",
                 ("ls_cspm", "ls_acc_cspm", "ls_sup_cspm", "bis_cspm", "bis_sup_cspm"), 2),
        Workload("plant-art3",
                 ("ls_art3+", "ls_sup_art3+", "bis_art3+", "bis_sup_art3+"), 4),
        Workload("dose-cspm",
                 ("ls_cspm", "ls_sup_cspm", "bis_cspm", "bis_sup_cspm"), 2),
    )
}

PLANT_SIZES = {"plant-cspm": (30, 40), "plant-art3": (120, 160)}


def make_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    if workload.name in PLANT_SIZES:
        n, m = PLANT_SIZES[workload.name]
        return _planted_inputs(workload, n, m, seed, workdir)
    return _dose_inputs(workload, seed)


def setup(inputs: Inputs, i: int) -> Problem:
    """Build the workload's problem ``i`` from its inputs (the timed set-up)."""
    if inputs.files:
        return load_qps(inputs.files[i])
    d = inputs.dose[i]
    return _dose_problem(d["D"], d["target"], d["risk"], d["caps"], d["name"])
