"""Superiorization: objective-decreasing perturbations woven into feasibility seeking.

Between consecutive applications of the feasibility operator (one full sweep
of the chosen projection solver), the iterate takes N accepted perturbation
steps along non-ascending directions of the solve's objective, the target
function of the superiorization method.  Candidate step sizes come from the
strictly decreasing sequence ``eta_l = a**l`` whose index l is global: it
only ever advances, across inner loops and outer iterations alike, so the
total perturbation budget is finite.  A candidate ``z = x + eta_l d`` is
accepted when it stays inside the solve's bound box and does not increase
the objective relative to the current outer iterate.

The feasibility algorithm itself is unchanged: a superiorized solve runs the
base solver's own sweep loop, with the perturbations as its pre-sweep hook.
Once the step sizes fall below ``_BETA_FLOOR`` no candidate can be tried
again, so the hook leaves the iterate alone for the rest of the solve; so it
does after a non-finite direction (an objective subgradient that
overflows), whose candidates are no points at all.
:func:`cfpopt.feasibility.cfp_solve` runs it for a ``SolverSpec`` whose
``sup`` (a :class:`SuperiorizationConfig`) is set, and the rest of that spec
sets the solve as it would unperturbed.  To superiorize toward some other
function, pass it to ``cfp_solve`` as the ``objective`` with the default
level ``t = inf``; the box passed as ``bounds`` both holds the perturbations
and is swept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .feasibility import FeasibilityOutcome, SuperiorizationConfig, make_sweeper
from .model import ConvexFunction

__all__ = [
    "SuperiorizationConfig",
    "PerturbationTrace",
    "nonascending_direction",
]

# candidate step sizes below this are treated as exhausted, for the rest of the
# solve; the inner loop would otherwise never terminate once no candidate is
# acceptable
_BETA_FLOOR = 1e-300


@dataclass
class PerturbationTrace:
    """Record of the perturbation history of one superiorized solve.

    ``accepted`` holds (outer step k, global index l, step size beta, point z,
    objective anchor) per accepted perturbation; ``rejected`` counts discarded
    candidates.
    """

    accepted: list = field(default_factory=list)
    rejected: int = 0


def nonascending_direction(fn: ConvexFunction, x: np.ndarray) -> np.ndarray:
    """Unit step direction that locally does not increase ``fn``.

    Returns the normalized negative subgradient, or the zero vector at points
    where the subgradient vanishes (there the zero direction is vacuously
    non-ascending).
    """
    xi = fn.subgrad(x)
    norm = float(np.sqrt(xi @ xi))
    if norm == 0.0:
        return np.zeros_like(xi)
    return -xi / norm


def superiorized_solve(constraints, x0, solver, counters, history, bounds, objective, t,
                       trace) -> FeasibilityOutcome:
    """:func:`~cfpopt.feasibility.cfp_solve`'s superiorized branch, with its arguments.

    The base solver ``solver.kind``'s sweep loop over ``constraints`` (and
    the level ``objective(x) <= t`` when ``t`` is finite, see
    :func:`make_sweeper`), with a pre-sweep hook: per outer iteration,
    ``solver.sup.N`` accepted perturbation steps that do not increase
    ``objective`` and keep x in the box ``bounds``, then one sweep.  Once the
    global step index passes the step-size floor, or a direction is not
    finite, the hook perturbs no more.
    Termination follows the base solver's contract: found once a full sweep
    certifies every constraint within ``solver.tol``, proven empty once the
    sweeps' steps certify it (every solver kind, given the bound box
    ``bounds``; the perturbations take no part in the certificate), timed
    out as ``solver`` says (one sweep per outer iteration).  With ``N=0``
    this reproduces the base solver's iterates exactly.

    Every objective value goes through ``counters.objective``, so an anchor
    at the point where the last sweep's level visit left x reuses that
    visit's value instead of calling the oracle again.  A NaN anchor raises
    ``ValueError``, as a level visit reading NaN does: no candidate could
    pass against it.
    """
    cfg = solver.sup
    if objective is None and cfg.N > 0:
        raise ValueError("superiorization needs an objective when N > 0")
    sweeper = make_sweeper(solver, constraints, counters, bounds, objective, t)
    ell = -1
    exhausted = False

    def perturb(x: np.ndarray, k: int) -> np.ndarray:
        """N accepted objective steps from x before sweep k; none once the step sizes or directions fail."""
        nonlocal ell, exhausted
        if exhausted:
            return x
        anchor = counters.objective(objective, x)
        if anchor != anchor:  # every candidate would fail against it
            raise ValueError(f"objective {objective!r} is NaN at the visit point")
        for _ in range(cfg.N):
            d = nonascending_direction(objective, x)
            # d is a unit or zero vector unless the subgradient holds an inf or
            # a NaN: then d holds a NaN, and every candidate would fail
            if not math.isfinite(d.dot(d)):
                exhausted = True
                return x
            while True:
                ell += 1
                beta = cfg.a**ell
                if beta < _BETA_FLOOR:
                    exhausted = True
                    return x
                z = x + beta * d
                if ((bounds is None or bounds.contains(z))
                        and counters.objective(objective, z) <= anchor):
                    if trace is not None:
                        trace.accepted.append((k, ell, beta, z.copy(), anchor))
                    x = z
                    break
                if trace is not None:
                    trace.rejected += 1
        return x

    return sweeper.run(x0, history, perturb if cfg.N > 0 else None)
