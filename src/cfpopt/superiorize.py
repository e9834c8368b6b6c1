"""Superiorization: merit-decreasing perturbations woven into feasibility seeking.

Between consecutive applications of the feasibility operator (one full sweep
of the chosen projection solver), the iterate takes N accepted perturbation
steps along non-ascending directions of a merit function.  Candidate step
sizes come from the strictly decreasing sequence ``eta_l = a**l`` whose index
l is global: it only ever advances, across inner loops and outer iterations
alike, so the total perturbation budget is finite.  A candidate
``z = x + eta_l d`` is accepted when it stays inside the admissible domain
and does not increase the merit relative to the current outer iterate.

The feasibility algorithm itself is unchanged: a superiorized solve runs the
base solver's own sweep loop, with the perturbations as its pre-sweep hook.
Once the step sizes fall below ``_BETA_FLOOR`` no candidate can be tried
again, so the hook leaves the iterate alone for the rest of the solve.
:func:`cfpopt.feasibility.cfp_solve` runs it for a ``SolverSpec`` whose
``sup`` is set, and the rest of that spec sets the solve as it would unperturbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .feasibility import FeasibilityOutcome, SolverSpec, _run, make_sweeper
from .model import Bounds, ConvexFunction, Counters, as_vector

__all__ = [
    "SuperiorizationConfig",
    "PerturbationTrace",
    "nonascending_direction",
    "superiorized_solve",
]

# candidate step sizes below this are treated as exhausted, for the rest of the
# solve; the inner loop would otherwise never terminate once no candidate is
# acceptable
_BETA_FLOOR = 1e-300


@dataclass(frozen=True)
class SuperiorizationConfig:
    """Knobs of the perturbation engine.

    ``N`` accepted perturbations are taken per outer iteration; step sizes
    are ``a**l`` with ``0 < a < 1``.  ``merit`` defaults to the objective
    that :func:`superiorized_solve` is given, and ``domain`` (a membership
    predicate) to its bound box, or the whole space without one.
    """

    N: int = 1
    a: float = 0.5
    merit: ConvexFunction | None = None
    domain: object = None  # callable x -> bool

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("N must be nonnegative")
        if not 0.0 < self.a < 1.0:
            raise ValueError("step-size kernel a must lie in (0, 1)")


@dataclass
class PerturbationTrace:
    """Record of the perturbation history of one superiorized solve.

    ``accepted`` holds (outer step k, global index l, step size beta, point z,
    merit anchor) per accepted perturbation; ``rejected`` counts discarded
    candidates.
    """

    accepted: list = field(default_factory=list)
    rejected: int = 0


def nonascending_direction(merit: ConvexFunction, x: np.ndarray) -> np.ndarray:
    """Unit step direction that locally does not increase the merit.

    Returns the normalized negative subgradient, or the zero vector at points
    where the subgradient vanishes (there the zero direction is vacuously
    non-ascending).
    """
    xi = merit.subgrad(x)
    norm = float(np.sqrt(xi @ xi))
    if norm == 0.0:
        return np.zeros_like(xi)
    return -xi / norm


def superiorized_solve(solver: SolverSpec, constraints, x0, counters: Counters | None = None,
                       history: list | None = None, trace: PerturbationTrace | None = None,
                       bounds: Bounds | None = None, objective: ConvexFunction | None = None,
                       t: float = np.inf) -> FeasibilityOutcome:
    """Feasibility seeking with interleaved merit perturbations, per ``solver.sup``.

    The base solver ``solver.kind``'s sweep loop over ``constraints`` (and
    the level ``objective(x) <= t`` when ``t`` is finite, see
    :func:`make_sweeper`), with a pre-sweep hook: per outer iteration, N
    accepted perturbation steps, then one sweep.  Once the global step index
    passes the step-size floor the hook perturbs no more.  Termination
    follows the base solver's contract: found once a full sweep certifies
    every constraint within ``solver.tol``, proven empty once the sweeps'
    steps certify it (every solver kind, given the bound box ``bounds``; the
    perturbations take no part in the certificate), timed out as
    ``solver`` says (one sweep per outer iteration).
    With ``N=0`` this reproduces the base solver's iterates exactly.

    The merit is ``solver.sup.merit``, or else ``objective``; the domain is
    ``solver.sup.domain``, or else the box ``bounds``.  When the merit is the
    objective its values go through ``counters.objective``, so an anchor at
    the point where the last sweep's level visit left x reuses that visit's
    value instead of calling the oracle again.
    """
    cfg = solver.sup
    merit = cfg.merit if cfg.merit is not None else objective
    if merit is None and cfg.N > 0:
        raise ValueError("superiorization needs a merit function when N > 0")
    domain = cfg.domain
    if domain is None and bounds is not None:
        domain = bounds.contains
    counters = counters if counters is not None else Counters()
    sweeper = make_sweeper(solver, constraints, counters, bounds, objective, t)

    def merit_value(z: np.ndarray) -> float:
        if merit is objective:
            return counters.objective(merit, z)
        return merit.value(z)

    ell = -1
    exhausted = False

    def perturb(x: np.ndarray, k: int) -> np.ndarray:
        """N accepted merit steps from x before sweep k; none once the step sizes run out."""
        nonlocal ell, exhausted
        if exhausted:
            return x
        anchor = merit_value(x)
        for _ in range(cfg.N):
            d = nonascending_direction(merit, x)
            while True:
                ell += 1
                beta = cfg.a**ell
                if beta < _BETA_FLOOR:
                    exhausted = True
                    return x
                z = x + beta * d
                if (domain is None or domain(z)) and merit_value(z) <= anchor:
                    if trace is not None:
                        trace.accepted.append((k, ell, beta, z.copy(), anchor))
                    x = z
                    break
                if trace is not None:
                    trace.rejected += 1
        return x

    return _run(sweeper, as_vector(x0), solver, counters, history, perturb if cfg.N > 0 else None)
