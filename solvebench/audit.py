"""Output and certificate audit of every solve the benchmark runs.

A solve fails the audit when it raises, when it ends in ``case1`` (every
workload's problems are feasible by construction), or when its best point
violates a constraint or bound by more than ``feas_tol``.  A failed solve is
counted and the workload goes on.

A ``case2-or-3`` result certifies ``f_hat - f* <= eps``.  ``RunReport`` does
not carry eps, so it is recomputed from the variant and the config:
``epsilon_update(f_hat, rule)`` for the level-set schemes, ``gamma`` for
bisection.  The certificate is false when ``f_hat - f_ref > eps``.  For the
planted QPs ``f_ref`` is the planted optimum; for the dose problems it is an
SLSQP value, which lies at or above the optimum, so that audit can only miss
a false certificate, never invent one.
"""

from __future__ import annotations

from dataclasses import dataclass

from cfpopt import CASE1, CASE2_OR_3, VARIANTS, HarnessConfig, Problem, RunReport, epsilon_update


@dataclass
class Solve:
    """One (problem, variant) cell of one pass over the matrix."""

    problem: str
    variant: str
    ms: float
    report: RunReport | None
    error: str | None = None

    def fingerprint(self):
        """What must repeat exactly between passes and with tracing on."""
        r = self.report
        if r is None:
            return (self.error,)
        return (r.status, None if r.f_hat is None else r.f_hat.hex(), r.projections, r.obj_evals)


@dataclass
class Verdict:
    failure: str | None
    gap: float | None  # (f_hat - f_ref) / max(1, |f_ref|)
    false_cert: bool | None  # None unless the result carries a certificate


def certificate_eps(variant: str, f_hat: float, config: HarnessConfig) -> float:
    if VARIANTS[variant].scheme.startswith("bisection"):
        return config.gamma
    return epsilon_update(f_hat, config.epsilon_rule())


def audit(solve: Solve, problem: Problem, f_ref: float, config: HarnessConfig) -> Verdict:
    r = solve.report
    if r is None:
        return Verdict(f"raised {solve.error}", None, None)
    if r.status == CASE1:
        return Verdict("case1 on a feasible problem", None, None)
    violation = problem.max_violation(r.best_x)
    if violation > config.feas_tol:
        return Verdict(f"best_x violates the constraints by {violation:.3g}", None, None)
    gap = (r.f_hat - f_ref) / max(1.0, abs(f_ref))
    false_cert = None
    if r.status == CASE2_OR_3:
        false_cert = r.f_hat - f_ref > certificate_eps(solve.variant, r.f_hat, config)
    return Verdict(None, gap, false_cert)
