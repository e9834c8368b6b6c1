"""The one-entry objective memo: the counter stays honest and results do not move.

Every objective evaluation of a run goes through ``Counters.objective``,
which serves a repeat of the last call (same function, bitwise-same point)
without calling the oracle.  ``obj_evals`` must still be the number of
oracle calls actually made, and a run with the memo must give the results of
a run without it, with fewer calls where the superiorized anchor, the level
visit and the scheme's ``f(x^k)`` repeat each other.
"""

import importlib.util
from pathlib import Path

import pytest

from cfpopt.harness import VARIANTS, HarnessConfig, run_variant
from cfpopt.model import Counters

_spec = importlib.util.spec_from_file_location(
    "make_problems", Path(__file__).parents[1] / "benchmarks" / "make_problems.py")
make_problems = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_problems)

CONFIG = HarnessConfig(max_outer=100)


def planted(i):
    return make_problems.planted_instance(i, 30, 40)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_obj_evals_counts_the_oracle_calls_made(variant):
    problem, fstar = planted(0)
    calls = 0
    value = problem.objective.value

    def counted(x):
        nonlocal calls
        calls += 1
        return value(x)

    problem.objective.value = counted
    report = run_variant(variant, problem, CONFIG, fstar=fstar)
    assert report.obj_evals == calls > 0


MEMO_VARIANTS = ("ls_cspm", "ls_acc_cspm", "ls_sup_cspm", "bis_cspm", "bis_sup_cspm",
                 "ls_sup_art3+", "bis_sup_art3+")


def test_results_match_a_run_without_the_memo(monkeypatch):
    problem, fstar = planted(0)

    def matrix():
        return {v: run_variant(v, problem, CONFIG, fstar=fstar) for v in MEMO_VARIANTS}

    with_memo = matrix()

    def always_miss(self, fn, x):
        self.obj_evals += 1
        return fn.value(x)

    monkeypatch.setattr(Counters, "objective", always_miss)
    without = matrix()
    for v, r in with_memo.items():
        base = without[v]
        assert r.status == base.status, v
        assert r.f_hat == base.f_hat, v  # bitwise, None included
        assert r.projections == base.projections, v
        assert r.outer_steps == base.outer_steps, v
        if VARIANTS[v].superiorized:
            assert r.obj_evals < base.obj_evals, v
        else:
            assert r.obj_evals <= base.obj_evals, v
