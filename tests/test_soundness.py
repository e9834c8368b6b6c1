"""The binding-row QPs of the soundness check, and the check's audit of one result."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from cfpopt import HarnessConfig

BENCHMARKS = Path(__file__).parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_problems = _load("make_problems")
soundness = _load("soundness")


@pytest.mark.parametrize("seed", [0, 3])
def test_rosen_suzuki_optimum_satisfies_kkt_with_binding_rows(seed):
    problems = {box: make_problems.rosen_suzuki_instance(seed, box=box)
                for box in make_problems.BOXES}
    problem, fstar = problems["full"]
    Q, c = problem.objective.Q, problem.objective.c
    A = np.array([r.a for r in problem.constraints])
    b = np.array([r.hi for r in problem.constraints])
    # x* and mu solve Q x + A_S' mu = -c and A_S x = b_S, with A_S the first 5 rows
    k, n = 5, problem.n
    kkt = np.block([[Q, A[:k].T], [A[:k], np.zeros((k, k))]])
    sol = np.linalg.solve(kkt, np.concatenate([-c, b[:k]]))
    x, mu = sol[:n], sol[n:]
    assert np.all(mu >= 0.5 - 1e-9) and np.all(mu < 1.5 + 1e-9)
    slack = b - A @ x
    assert np.allclose(slack[:k], 0.0, atol=1e-9) and np.all(slack[k:] >= 0.2 - 1e-9)
    assert problem.objective.value(x) == pytest.approx(fstar, rel=1e-9, abs=1e-9)
    # the box holds x* at least 2 inside; the three families share the rows and f
    assert np.all(x - problem.bounds.lo >= 2.0 - 1e-9) and np.all(problem.bounds.hi - x >= 2.0 - 1e-9)
    lower, _ = problems["lower"]
    assert np.array_equal(lower.bounds.lo, problem.bounds.lo) and np.all(np.isinf(lower.bounds.hi))
    free, free_fstar = problems["none"]
    assert np.all(np.isinf(free.bounds.lo)) and free_fstar == fstar
    assert np.array_equal(free.objective.c, c)
    assert all(np.array_equal(r.a, s.a) for r, s in zip(free.constraints, problem.constraints))


def test_unbounded_lp_certificates_are_false():
    sys.path[:0] = [str(Path(__file__).parents[1] / "solvebench")]
    try:
        lines, false, certs = soundness.family_lines(
            "unbounded", [make_problems.unbounded_lp()], HarnessConfig(max_outer=100))
    finally:
        del sys.path[0]
    assert len(lines) == 12 and certs == false
    assert "unbounded/UNBOUNDED/bis_cspm case2-or-3 0.0 FALSE" in lines
