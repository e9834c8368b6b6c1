import csv
import dataclasses

import numpy as np
import pytest

from cfpopt import harness, schemes
from cfpopt.feasibility import SolverSpec
from cfpopt.harness import (
    AGGREGATE_METRICS,
    VARIANTS,
    HarnessConfig,
    RunReport,
    aggregate,
    aggregate_by_variant,
    builtin_problems,
    emit_report,
    quality_score,
    run_variant,
)
from cfpopt.schemes import (
    CASE1,
    CASE2_OR_3,
    DEFAULT_MAX_OUTER,
    AccelerationConfig,
    BisectionConfig,
    EpsilonRule,
)
from cfpopt.superiorize import SuperiorizationConfig

TABLE_NAMES = {
    "ls_cspm", "ls_art3+", "ls_acc_cspm", "ls_sup_cspm", "ls_sup_art3+",
    "ls_acc_sup_cspm", "bis_cspm", "bis_art3+", "bis_acc_cspm",
    "bis_sup_cspm", "bis_sup_art3+", "bis_acc_sup_cspm",
}


class TestQualityScore:
    def test_zero_optimum_branch(self):
        assert quality_score(0.5, 0.0) == pytest.approx(0.5)

    def test_small_optimum_branch(self):
        assert quality_score(0.55, 0.5) == pytest.approx(0.05)

    def test_relative_branch(self):
        assert quality_score(-90.0, -100.0) == pytest.approx(0.1)

    def test_branch_order_zero_before_small(self):
        # f* = 0 must hit the first branch even though |f*| <= 1
        assert quality_score(2.0, 0.0) == 2.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            quality_score(np.inf, 1.0)


class TestAggregate:
    def test_small_set(self):
        s = aggregate([0.0, 0.0, 1.0])
        assert s.average == pytest.approx(1.0 / 3.0)
        assert s.median == 0.0

    def test_single_value_degenerate(self):
        s = aggregate([7.0])
        assert s.average == s.median == s.q10 == s.q90 == 7.0

    def test_nearest_rank_quantiles(self):
        s = aggregate(range(1, 11))
        assert s.q10 == 1.0
        assert s.q90 == 9.0

    def test_even_median_is_midpoint(self):
        s = aggregate([1.0, 2.0, 3.0, 4.0])
        assert s.median == pytest.approx(2.5)

    def test_quantile_order_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = aggregate(rng.standard_normal(rng.integers(1, 40)))
            assert s.q10 <= s.median <= s.q90

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


def _report():
    return RunReport(problem="p", variant="v", status=CASE2_OR_3, f_hat=1.0, quality=0.0,
                     projections=10, obj_evals=5, outer_steps=3, ms=1.0)


class TestRegistry:
    def test_exactly_twelve_table_names(self):
        assert set(VARIANTS) == TABLE_NAMES
        assert len(VARIANTS) == 12

    def test_dispatch_fields_consistent(self):
        for name, v in VARIANTS.items():
            assert v.name == name
            assert ("sup" in name) == v.superiorized
            assert ("acc" in name) == v.scheme.endswith("accelerated")
            assert name.startswith("ls" if v.scheme.startswith("levelset") else "bis")
            assert v.feas_solver in name


class TestRunVariant:
    def test_levelset_cspm_quality(self):
        p = builtin_problems()["simple_qp"]
        r = run_variant("ls_cspm", p, HarnessConfig(), x0=[2.0])
        assert r.status == CASE2_OR_3
        assert r.quality is not None
        assert r.quality <= 0.1 + 1e-5

    def test_bisection_cspm_gamma_accuracy(self):
        p = builtin_problems()["simple_qp"]
        cfg = HarnessConfig(f_lower=0.0, gamma=1e-5)
        r = run_variant("bis_cspm", p, cfg, x0=[2.0])
        assert abs(r.f_hat - 1.0) <= 1e-5 + 1e-6

    def test_art3_on_nonlinear_constraints_rejected(self):
        p = builtin_problems()["imrt_small"]
        with pytest.raises(ValueError):
            run_variant("ls_art3+", p, HarnessConfig())

    @pytest.mark.parametrize("fstar", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("on_problem", [False, True], ids=["argument", "problem"])
    def test_nonfinite_fstar_rejected_before_any_solve(self, fstar, on_problem, monkeypatch):
        calls = []
        monkeypatch.setattr(schemes, "cfp_with_level", lambda *a, **kw: calls.append(a))
        p = builtin_problems()["simple_qp"]
        if on_problem:
            p.fstar = fstar
        with pytest.raises(ValueError, match="fstar must be finite"):
            run_variant("bis_cspm", p, fstar=None if on_problem else fstar)
        assert calls == []

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            run_variant("ls_gradient", builtin_problems()["simple_qp"])

    def test_deterministic_reports(self, scheme_results):
        p = builtin_problems()["qp2d"]
        cfg = HarnessConfig()
        a = run_variant("ls_sup_cspm", p, cfg, x0=[2.0, 2.0])
        b = run_variant("ls_sup_cspm", p, cfg, x0=[2.0, 2.0])
        fields = {f.name for f in dataclasses.fields(RunReport)} - {"ms", "best_x"}
        for f in fields:
            assert getattr(a, f) == getattr(b, f)
        first, second = scheme_results
        assert first.trace == second.trace
        assert a.best_x.tobytes() == b.best_x.tobytes()

    def test_infeasible_all_variants_case1(self):
        p = builtin_problems()["infeasible"]
        cfg = HarnessConfig(max_sweeps=200)
        for name in VARIANTS:
            r = run_variant(name, p, cfg)
            assert r.status == CASE1, name
            assert r.f_hat is None


class TestDefaults:
    def test_config_builds_the_classes_defaults(self):
        cfg = HarnessConfig()
        assert cfg.epsilon_rule() == EpsilonRule()
        assert cfg.acceleration() == AccelerationConfig()
        assert cfg.bisection() == BisectionConfig()
        assert cfg.superiorization() == SuperiorizationConfig()

    @pytest.mark.parametrize("variant, sup", [("ls_cspm", None),
                                              ("ls_sup_art3+", SuperiorizationConfig())])
    def test_run_variant_passes_the_default_spec(self, monkeypatch, variant, sup):
        seen = {}

        def level_set_solve(problem, **kw):
            seen.update(kw)
            return original(problem, **kw)

        original = harness.level_set_solve
        monkeypatch.setattr(harness, "level_set_solve", level_set_solve)
        run_variant(variant, builtin_problems()["simple_qp"])
        assert seen["solver"] == SolverSpec(VARIANTS[variant].feas_solver, sup=sup)
        assert seen["max_outer"] == DEFAULT_MAX_OUTER


class TestEmitReport:
    def test_empty_reports_header_only(self, tmp_path):
        emit_report([], {}, tmp_path)
        lines = (tmp_path / "runs.csv").read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("problem,variant,status")
        assert not (tmp_path / "aggregate.csv").exists()

    def test_single_run_row_and_degenerate_stats(self, tmp_path):
        reports = [_report()]
        emit_report(reports, aggregate_by_variant(reports), tmp_path)
        rows = list(csv.DictReader(open(tmp_path / "runs.csv")))
        assert len(rows) == 1
        agg = list(csv.DictReader(open(tmp_path / "aggregate.csv")))
        metrics = {r["metric"] for r in agg}
        assert metrics == set(AGGREGATE_METRICS)
        for row in agg:
            assert row["avg"] == row["median"] == row["q10"] == row["q90"]

    def test_numeric_round_trip(self, tmp_path):
        p = builtin_problems()["simple_qp"]
        r = run_variant("ls_cspm", p, HarnessConfig(), x0=[2.0])
        emit_report([r], {}, tmp_path)
        row = next(csv.DictReader(open(tmp_path / "runs.csv")))
        assert float(row["f_hat"]) == r.f_hat
        assert float(row["Q"]) == r.quality
        assert int(row["projections"]) == r.projections
        assert int(row["obj_evals"]) == r.obj_evals
