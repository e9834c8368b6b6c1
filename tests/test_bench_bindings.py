"""The benchmark's layer tracer still finds, wraps and restores its bindings.

``solvebench/tracing.py`` rebinds cfpopt functions at the names their callers
look them up by.  A refactor that moves such a call off its name would leave
``solvebench/run.py --trace 1`` counting nothing (or raise in ``install``):
``harness.run_variant``, for one, must look its scheme functions up by their
module names at call time.
"""

from pathlib import Path

import numpy as np
import pytest

from cfpopt import _kernels, feasibility, harness, qps, schemes, superiorize
from cfpopt.feasibility import SolverSpec, cfp_with_level
from cfpopt.model import AffineConstraint, Bounds, Problem, QuadraticFunction
from cfpopt.superiorize import SuperiorizationConfig

ROOT = Path(__file__).resolve().parent.parent

# every name Tracer.install rebinds but the model oracles
BINDINGS = [
    (_kernels, "cspm_sweep"),
    (_kernels, "art3_pass"),
    (schemes, "cfp_with_level"),
    (superiorize, "make_sweeper"),
    (superiorize, "superiorized_solve"),
    (superiorize, "nonascending_direction"),
    (feasibility, "make_sweeper"),
    (harness, "level_set_solve"),
    (harness, "accelerated_level_set_solve"),
    (harness, "bisection_solve"),
    (qps, "parse_qps_document"),
    (qps.QpsDocument, "to_problem"),
    (harness, "emit_report"),
]


@pytest.fixture
def tracer_class(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    monkeypatch.syspath_prepend(str(ROOT / "solvebench"))
    from tracing import Tracer

    return Tracer


def test_superiorized_solve_is_traced_and_restored(tracer_class):
    originals = {(owner.__name__, attr): getattr(owner, attr) for owner, attr in BINDINGS}
    problem = Problem(QuadraticFunction(2.0 * np.eye(2), [-2.0, -2.0]),
                      [AffineConstraint.leq([1.0, 1.0], 1.0)],
                      bounds=Bounds([-5.0, -5.0], [5.0, 5.0]))
    tracer = tracer_class()
    tracer.install()
    try:
        for owner, attr in BINDINGS:
            assert getattr(owner, attr) is not originals[(owner.__name__, attr)], attr
        out = cfp_with_level(problem, 0.0, SolverSpec("cspm", sup=SuperiorizationConfig()),
                             x0=[4.0, 4.0])
        # run_variant's scheme table must reach the rebound scheme functions
        for variant in ("ls_acc_cspm", "bis_cspm"):
            harness.run_variant(variant, problem, x0=[4.0, 4.0])
    finally:
        tracer.uninstall()
    assert out.found
    assert tracer.calls["schemes.run"][0] == 2
    # the tracer reads each level test's level from cfp_with_level's second positional argument
    assert tracer.count["schemes.level_tests"] > 0
    for name in ("superiorize.solve", "superiorize.direction", "feasibility.setup"):
        assert tracer.calls[name][0] > 0, name
    for owner, attr in BINDINGS:
        assert getattr(owner, attr) is originals[(owner.__name__, attr)], attr


def test_load_qps_is_traced(tracer_class, fixtures_dir):
    path = fixtures_dir / "fix_qp1.qps"
    tracer = tracer_class()
    tracer.install()
    try:
        problem = qps.load_qps(path)
    finally:
        tracer.uninstall()
    assert problem.name == "FIXQP1"
    assert tracer.calls["qps.parse"][0] == 1
    assert tracer.calls["qps.to_problem"][0] == 1
    assert tracer.count["qps.bytes"] == len(path.read_text())


# every call layer that Tracer.metrics reads a count or a time from
CALL_LAYERS = ("kernels.cspm", "kernels.art3", "model.value", "model.subgrad",
               "feasibility.solve", "feasibility.setup", "superiorize.solve",
               "superiorize.direction", "schemes.run", "qps.parse", "qps.to_problem",
               "harness.emit_report")


def test_one_traced_pass_counts_every_call_layer(tracer_class, fixtures_dir, tmp_path):
    tracer = tracer_class()
    tracer.install()
    try:
        problem = qps.load_qps(fixtures_dir / "fix_qp1.qps")
        reports = [harness.run_variant(variant, problem) for variant in ("bis_sup_cspm", "ls_art3+")]
        harness.emit_report(reports, harness.aggregate_by_variant(reports), tmp_path)
    finally:
        tracer.uninstall()
    counts = {name: tracer.calls[name][0] for name in CALL_LAYERS}
    assert all(counts.values()), counts
