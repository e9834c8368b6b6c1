import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cfpopt
from cfpopt import _kernels
from cfpopt.cli import _config_from, build_parser, main
from cfpopt.harness import HarnessConfig


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSolve:
    def test_builtin_success(self, tmp_path, capsys):
        rc = main(["solve", "--builtin", "simple_qp", "--variant", "ls_cspm",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "status       : case2-or-3" in out
        rows = _read_rows(tmp_path / "runs.csv")
        assert rows[0]["variant"] == "ls_cspm"
        assert rows[0]["problem"] == "simple_qp"

    def test_infeasible_exit_code(self, tmp_path):
        rc = main(["solve", "--builtin", "infeasible", "--variant", "ls_cspm",
                   "--max-sweeps", "200", "--out", str(tmp_path)])
        assert rc == 1

    def test_unknown_builtin_is_input_error(self):
        assert main(["solve", "--builtin", "nope", "--variant", "ls_cspm"]) == 2

    def test_missing_qps_file_is_input_error(self):
        assert main(["solve", "--qps", "/no/such/file.qps", "--variant", "ls_cspm"]) == 2

    def test_unknown_variant_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--builtin", "simple_qp", "--variant", "simplex"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags, message", [
        (["bis_art3+", "--max-sweeps", "0"], "max_sweeps must be at least 1, got 0"),
        (["bis_art3+", "--max-sweeps", "-3"], "max_sweeps must be at least 1, got -3"),
        (["bis_art3+", "--lambda", "3"], "relaxation parameter must lie in (0, 2), got 3.0"),
        (["ls_cspm", "--max-outer", "-1"], "max_outer must be nonnegative, got -1"),
        (["bis_cspm", "--f-lower", "5"],
         "f_lower 5.0 exceeds the first feasible value 0.0, so it cannot bound the optimum"),
        (["bis_cspm", "--gamma", "nan"], "gamma must be finite and positive, got nan"),
        (["bis_cspm", "--gamma", "inf"], "gamma must be finite and positive, got inf"),
        (["ls_cspm", "--epsilon-floor", "nan"], "epsilon floor must be finite and positive, got nan"),
        (["ls_cspm", "--epsilon-factor", "nan"],
         "epsilon factor must be finite and positive, got nan"),
        (["ls_acc_cspm", "--accel-s", "nan"], "acceleration s must be positive, got nan"),
    ], ids=["no sweeps", "negative sweeps", "lambda", "max-outer", "f-lower",
            "gamma nan", "gamma inf", "epsilon-floor nan", "epsilon-factor nan", "accel-s nan"])
    def test_degenerate_setting_is_input_error(self, flags, message, capsys):
        assert main(["solve", "--builtin", "qp2d", "--variant", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_pairing_error_is_input_error(self, capsys):
        assert main(["solve", "--builtin", "imrt_small", "--variant", "ls_art3+"]) == 2
        err = capsys.readouterr().err
        assert "art3+ requires affine (interval) constraints, got CustomFunction(risk_pnorm_cap)" in err

    def test_qps_with_fstar(self, tmp_path, fixtures_dir, capsys):
        rc = main(["solve", "--qps", str(fixtures_dir / "fix_qp1.qps"),
                   "--variant", "bis_cspm", "--fstar", "-0.5",
                   "--f-lower", "-1.5", "--out", str(tmp_path)])
        assert rc == 0
        row = _read_rows(tmp_path / "runs.csv")[0]
        assert abs(float(row["Q"])) < 1e-3

    def test_qps_file_with_a_byte_order_mark(self, tmp_path, fixtures_dir, capsys):
        path = tmp_path / "bom.qps"
        path.write_bytes(b"\xef\xbb\xbf" + (fixtures_dir / "fix_qp1.qps").read_bytes())
        assert main(["solve", "--variant", "ls_cspm", "--qps", str(path)]) == 0
        assert "status       : case2-or-3" in capsys.readouterr().out

    def test_fstar_file_lookup(self, tmp_path, fixtures_dir):
        rc = main(["solve", "--qps", str(fixtures_dir / "fix_qp1.qps"),
                   "--variant", "ls_cspm",
                   "--fstar-file", str(fixtures_dir / "fstar.json"),
                   "--out", str(tmp_path)])
        assert rc == 0
        row = _read_rows(tmp_path / "runs.csv")[0]
        assert row["Q"] != ""

    def test_numpy_backend_flag(self, tmp_path, monkeypatch):
        # the flag switches the process's backend: the later tests get theirs back
        monkeypatch.setattr(_kernels, "_backend", _kernels._backend)
        rc = main(["solve", "--builtin", "simple_qp", "--variant", "ls_cspm",
                   "--backend", "numpy", "--out", str(tmp_path)])
        assert rc == 0
        assert _kernels.active_backend() == "numpy"

    def test_unknown_backend_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--builtin", "simple_qp", "--variant", "ls_cspm",
                  "--backend", "numba"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_unavailable_backend_is_input_error(self, monkeypatch, capsys):
        # what the loader records on a machine without a C compiler
        monkeypatch.setattr(_kernels, "_c_outcome",
                            _kernels.BackendUnavailableError("no 'cc' on PATH"))
        before = _kernels.active_backend()
        for cmd in (["solve", "--builtin", "simple_qp", "--variant", "ls_cspm"],
                    ["bench", "--problems", ".", "--out", "."]):
            assert main(cmd + ["--backend", "c"]) == 2
            assert "no 'cc' on PATH" in capsys.readouterr().err
        assert _kernels.active_backend() == before
        # the same backend asked for by CFPOPT_BACKEND=c, with no flag
        monkeypatch.setenv("CFPOPT_BACKEND", "c")
        monkeypatch.setattr(_kernels, "_backend", None)
        for cmd in (["solve", "--builtin", "simple_qp", "--variant", "ls_cspm"],
                    ["bench", "--problems", ".", "--out", "."]):
            assert main(cmd) == 2
            err = capsys.readouterr().err
            assert "no 'cc' on PATH" in err and err.count("\n") == 1, err

    def test_unknown_env_backend_is_one_error_line(self):
        # the variable is read at first use, not at import
        env = dict(os.environ, CFPOPT_BACKEND="bogus", PYTHONPATH=os.pathsep.join(
            [str(Path(cfpopt.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-m", "cfpopt.cli", "solve", "--builtin", "simple_qp",
                              "--variant", "ls_cspm"], env=env, capture_output=True, text=True)
        assert out.returncode == 2
        assert out.stderr.splitlines() == [
            "error: CFPOPT_BACKEND='bogus' is not a backend; choices: ('c', 'numpy') or 'auto'"]

    def test_unknown_env_backend_fails_bench_before_any_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CFPOPT_BACKEND", "bogus")
        monkeypatch.setattr(_kernels, "_backend", None)
        assert main(["bench", "--problems", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: CFPOPT_BACKEND='bogus' is not a backend; choices: ('c', 'numpy') or 'auto'"]

    def test_backend_flag_is_used_without_reading_the_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CFPOPT_BACKEND", "bogus")
        monkeypatch.setattr(_kernels, "_backend", None)
        assert main(["solve", "--builtin", "simple_qp", "--variant", "ls_cspm",
                     "--backend", "numpy", "--out", str(tmp_path)]) == 0
        assert _kernels.active_backend() == "numpy"

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")
    def test_c_build_failure_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "_kernels.c"
        bad.write_text("int cfp_cspm_sweep(;\n")
        monkeypatch.setattr(_kernels, "_SOURCE", bad)
        monkeypatch.setattr(_kernels, "_c_outcome", None)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        assert main(["solve", "--builtin", "simple_qp", "--variant", "ls_cspm", "--backend", "c"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: backend 'c' is unavailable: ")
        assert "failed to build _kernels.c (exit " in line and "<stdin>:1" in line

    def test_qps_from_stdin(self, monkeypatch, fixtures_dir, capsys):
        import io

        text = (fixtures_dir / "fix_qp1.qps").read_text()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        rc = main(["solve", "--qps", "-", "--variant", "ls_cspm"])
        assert rc == 0
        assert "status       : case2-or-3" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["solve", "--builtin", "simple_qp", "--variant", "ls_cspm"],
    ["bench", "--problems", "qps", "--out", "rep"],
])
def test_flag_defaults_are_the_harness_defaults(argv):
    assert _config_from(build_parser().parse_args(argv)) == HarnessConfig()


class TestBench:
    def test_fixture_directory(self, tmp_path, fixtures_dir):
        out = tmp_path / "rep"
        rc = main(["bench", "--problems", str(fixtures_dir),
                   "--variants", "ls_cspm,bis_cspm",
                   "--fstar-file", str(fixtures_dir / "fstar.json"),
                   "--out", str(out)])
        assert rc == 0
        rows = _read_rows(out / "runs.csv")
        assert len(rows) == 4  # 2 problems x 2 variants
        assert (out / "aggregate.csv").exists()
        meta = json.loads((out / "report_meta.json").read_text())
        assert meta["quantile_method"] == "nearest-rank"

    def test_unknown_variant_rejected(self, tmp_path, fixtures_dir):
        rc = main(["bench", "--problems", str(fixtures_dir),
                   "--variants", "ls_cspm,warp", "--out", str(tmp_path)])
        assert rc == 2

    def test_empty_directory_rejected(self, tmp_path):
        rc = main(["bench", "--problems", str(tmp_path), "--out", str(tmp_path)])
        assert rc == 2

    def test_solver_error_is_input_error(self, tmp_path, capsys):
        # the objective overflows at the first feasible point (x1 >= 1e200)
        problems = tmp_path / "qps"
        problems.mkdir()
        path = problems / "overflow.qps"
        path.write_text(
            "NAME          OVERFLOW\n"
            "ROWS\n"
            " N  OBJ\n"
            " G  C1\n"
            "COLUMNS\n"
            "    X1        C1        1.0\n"
            "RHS\n"
            "    RHS       C1        1e200\n"
            "QUADOBJ\n"
            "    X1        X1        1e200\n"
            "ENDATA\n"
        )
        with np.errstate(over="ignore"):
            rc = main(["bench", "--problems", str(problems), "--variants", "ls_cspm",
                       "--out", str(tmp_path / "rep")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {path}: ls_cspm: objective is non-finite (inf)" in err

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_overflow_prints_only_the_error_line(self, command, tmp_path):
        # QUADOBJ 1e200 at the bound x1 >= 1e200: f overflows at the first
        # feasible point, and numpy's overflow warning must not reach stderr
        problems = tmp_path / "qps"
        problems.mkdir()
        path = problems / "overflow.qps"
        path.write_text(
            "NAME          OVERFLOW\n"
            "ROWS\n"
            " N  OBJ\n"
            "COLUMNS\n"
            "    X1        OBJ       0.0\n"
            "RHS\n"
            "BOUNDS\n"
            " LO BND       X1        1e200\n"
            "QUADOBJ\n"
            "    X1        X1        1e200\n"
            "ENDATA\n"
        )
        args = {"solve": ["solve", "--qps", str(path)],
                "bench": ["bench", "--problems", str(problems), "--out", str(tmp_path / "rep")]}
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cfpopt.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-m", "cfpopt.cli", *args[command],
                              "--variant" if command == "solve" else "--variants", "ls_cspm"],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 2
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr
        assert "objective is non-finite (inf)" in lines[0]

    def test_deterministic_csvs(self, tmp_path, fixtures_dir):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = main(["bench", "--problems", str(fixtures_dir),
                       "--variants", "all",
                       "--fstar-file", str(fixtures_dir / "fstar.json"),
                       "--out", str(out)])
            assert rc == 0
            outs.append(out)

        def strip_ms(path):
            rows = _read_rows(path)
            for r in rows:
                r.pop("ms", None)
            return rows

        assert strip_ms(outs[0] / "runs.csv") == strip_ms(outs[1] / "runs.csv")
        assert (outs[0] / "aggregate.csv").read_text() == (outs[1] / "aggregate.csv").read_text()


class TestDiag:
    def test_counterexample_passes(self, capsys):
        rc = main(["diag", "counterexample"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "t_0 = 360.0" in out
        assert "levels nonnegative        : True" in out
        assert "slack partial sums <= t_0 : True" in out

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_counterexample_without_steps_is_input_error(self, steps, capsys):
        rc = main(["diag", "counterexample", "--steps", steps])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: steps must be at least 1, got {steps}"], err


BAD_QPS_BASE = (
    "NAME          BAD\n"
    "ROWS\n"
    " N  OBJ\n"
    " L  C1\n"
    "COLUMNS\n"
    "    X1        OBJ       -1.0      C1        1.0\n"
    "    X2        C1        1.0\n"
    "RHS\n"
    "    RHS       C1        2.0\n"
    "BOUNDS\n"
    " UP BND       X1        4.0\n"
    "QUADOBJ\n"
    "    X1        X1        1.0\n"
    "ENDATA\n"
)

BAD_QPS = {
    "empty_row": (BAD_QPS_BASE.replace(" L  C1\n", " L  C1\n G  C2\n").encode(),
                  "line 5 [ROWS]: row 'C2' has no nonzero coefficient"),
    "nan_bound": (BAD_QPS_BASE.replace("X1        4.0", "X1        nan").encode(),
                  "line 11 [BOUNDS]: non-finite numeric field 'nan'"),
    "nan_coefficient": (BAD_QPS_BASE.replace("X2        C1        1.0", "X2        C1        nan").encode(),
                        "line 7 [COLUMNS]: non-finite numeric field 'nan'"),
    "nan_quadratic": (BAD_QPS_BASE.replace("X1        X1        1.0", "X1        X1        nan").encode(),
                      "line 13 [QUADOBJ]: non-finite numeric field 'nan'"),
    "inf_rhs": (BAD_QPS_BASE.replace("C1        2.0", "C1        inf").encode(),
                "line 9 [RHS]: non-finite numeric field 'inf'"),
    "not_utf8": (BAD_QPS_BASE.replace("BAD", "B\u00c4D").encode("latin-1"),
                 "line 1 [-]: not UTF-8 text: invalid continuation byte at byte 15"),
    "overflow_coefficient": (BAD_QPS_BASE.replace("    X2        C1        1.0\n",
                                                  "    X2        C1        1e308\n" * 2).encode(),
                             "line 4 [ROWS]: entries of row 'C1' in column 'X2' sum to a non-finite value"),
    "overflow_quadratic": (BAD_QPS_BASE.replace("    X1        X1        1.0\n",
                                                "    X2        X2        1e308\n" * 2).encode(),
                           "line 0 [QUADOBJ]: entries of columns 'X2' and 'X2' sum to a non-finite value"),
}


class TestBadQpsInput:
    """Input faults end in exit code 2 and one error line, never a traceback."""

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("case", sorted(BAD_QPS))
    def test_exit_code_2_with_one_line(self, case, command, tmp_path, capsys):
        data, message = BAD_QPS[case]
        problems = tmp_path / "qps"
        problems.mkdir()
        path = problems / "bad.qps"
        path.write_bytes(data)
        if command == "solve":
            rc = main(["solve", "--qps", str(path), "--variant", "ls_cspm"])
        else:
            rc = main(["bench", "--problems", str(problems), "--variants", "ls_cspm",
                       "--out", str(tmp_path / "rep")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith(message), err

    def test_bench_unreadable_file_is_input_error(self, tmp_path, capsys):
        problems = tmp_path / "qps"
        (problems / "dir.qps").mkdir(parents=True)
        rc = main(["bench", "--problems", str(problems), "--variants", "ls_cspm",
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {problems / 'dir.qps'}: "), err


def _fault_argv(fault, command, fixtures_dir, tmp_path):
    """The argv of ``command`` with ``fault`` in its arguments."""
    out = tmp_path / "rep"
    if fault == "out under a file":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "rep"
    fstar = fixtures_dir / "fstar.json"
    if fault.startswith("fstar"):
        fstar = tmp_path / "fstar.json"
        fstar.write_text(json.dumps({"FIXQP1": None if fault == "fstar null" else [-0.5]}))
    if command == "solve":
        return ["solve", "--qps", str(fixtures_dir / "fix_qp1.qps"), "--variant", "ls_cspm",
                "--fstar-file", str(fstar), "--out", str(out)]
    variants = "," if fault == "no variants" else "ls_cspm"
    return ["bench", "--problems", str(fixtures_dir), "--variants", variants,
            "--fstar-file", str(fstar), "--out", str(out)]


@pytest.mark.parametrize("fault, command, message", [
    ("out under a file", "solve", "Not a directory"),
    ("out under a file", "bench", "Not a directory"),
    ("fstar null", "solve", "fstar file maps 'FIXQP1' to null, not a number"),
    ("fstar null", "bench", "fstar file maps 'FIXQP1' to null, not a number"),
    ("fstar list", "solve", "fstar file maps 'FIXQP1' to [-0.5], not a number"),
    ("fstar list", "bench", "fstar file maps 'FIXQP1' to [-0.5], not a number"),
    ("no variants", "bench", "--variants ',' names no variant"),
], ids=["out-solve", "out-bench", "fstar-null-solve", "fstar-null-bench", "fstar-list-solve",
        "fstar-list-bench", "no-variants-bench"])
def test_argument_fault_exits_2_before_any_solve(fault, command, message, fixtures_dir,
                                                 tmp_path, capsys):
    assert main(_fault_argv(fault, command, fixtures_dir, tmp_path)) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
    assert captured.out == ""  # no solve ran
