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
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .feasibility import FeasibilityOutcome, _run, make_sweeper
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
    are ``a**l`` with ``0 < a < 1``.  ``merit`` defaults to the problem
    objective at dispatch time and ``domain`` (a membership predicate) to the
    whole space, or the bound box when the problem has one.
    """

    N: int = 1
    a: float = 0.5
    merit: ConvexFunction | None = None
    domain: object = None  # callable x -> bool
    merit_is_objective: bool = False

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("N must be nonnegative")
        if not 0.0 < self.a < 1.0:
            raise ValueError("step-size kernel a must lie in (0, 1)")

    def with_merit(self, merit: ConvexFunction, merit_is_objective: bool = False) -> "SuperiorizationConfig":
        return dataclasses.replace(self, merit=merit, merit_is_objective=merit_is_objective)

    def with_domain(self, domain) -> "SuperiorizationConfig":
        return dataclasses.replace(self, domain=domain)


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


def superiorized_solve(kind: str, constraints, x0, cfg: SuperiorizationConfig,
                       lam=1.5, max_outer: int = 1000, tol: float = 1e-8,
                       counters: Counters | None = None, history: list | None = None,
                       max_projections: int | None = None,
                       trace: PerturbationTrace | None = None,
                       bounds: Bounds | None = None) -> FeasibilityOutcome:
    """Feasibility seeking with interleaved merit perturbations.

    The base solver ``kind``'s sweep loop over ``constraints``, with a
    pre-sweep hook: per outer iteration, N accepted perturbation steps, then
    one sweep.  Once the global step index passes the step-size floor the
    hook perturbs no more.  Termination follows the base solver's contract:
    found once a full sweep certifies every constraint within ``tol``, proven
    empty once the sweeps' steps certify it (every solver kind, given the
    bound box ``bounds``, see :func:`make_sweeper`; the perturbations take
    no part in the certificate), timed out after ``max_outer`` outer
    iterations.
    With ``N=0`` this reproduces the base solver's iterates exactly.
    """
    if cfg.merit is None and cfg.N > 0:
        raise ValueError("superiorization needs a merit function when N > 0")
    counters = counters if counters is not None else Counters()
    sweeper = make_sweeper(kind, constraints, lam, tol, counters, bounds)

    def merit_value(z: np.ndarray) -> float:
        """The merit at z; the objective as merit goes through ``counters.objective``.

        So an anchor at the point where the last sweep's level visit left x
        reuses that visit's objective value instead of calling the oracle again.
        """
        if cfg.merit_is_objective:
            return counters.objective(cfg.merit, z)
        return cfg.merit.value(z)

    ell = -1
    exhausted = False

    def perturb(x: np.ndarray, k: int) -> np.ndarray:
        """N accepted merit steps from x before sweep k; none once the step sizes run out."""
        nonlocal ell, exhausted
        if exhausted:
            return x
        anchor = merit_value(x)
        for _ in range(cfg.N):
            d = nonascending_direction(cfg.merit, x)
            while True:
                ell += 1
                beta = cfg.a**ell
                if beta < _BETA_FLOOR:
                    exhausted = True
                    return x
                z = x + beta * d
                if (cfg.domain is None or cfg.domain(z)) and merit_value(z) <= anchor:
                    if trace is not None:
                        trace.accepted.append((k, ell, beta, z.copy(), anchor))
                    x = z
                    break
                if trace is not None:
                    trace.rejected += 1
        return x

    return _run(sweeper, as_vector(x0), max_outer, counters, history, max_projections,
                perturb if cfg.N > 0 else None)
