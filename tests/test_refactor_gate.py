"""The refactor gate names every cell a change moves, not only the first, and counts code lines.

It also repeats runs under the numpy backend, which must match the default backend's bits, and
reports each workload's statuses and false certificates.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "refactor_gate", Path(__file__).parents[1] / "benchmarks" / "refactor_gate.py")
refactor_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(refactor_gate)

OLD = """{
 "P0/ls_cspm": ["case2-or-3", "1.0", 10, 3, 2],
 "P0/bis_cspm": ["case2-or-3", "1.5", 20, 4, 5],
 "P1/ls_cspm": ["case1", "None", 5, 0, 0]
}"""


def test_equal_outputs_do_not_differ():
    assert refactor_gate.differences(OLD, OLD) is None


def test_every_differing_cell_is_named():
    new = OLD.replace('"1.0", 10', '"1.0", 11').replace('"case1"', '"raised"')
    lines = refactor_gate.differences(OLD, new).split("\n")
    assert lines[0] == "2 of 5 lines differ: P0/ls_cspm, P1/ls_cspm"
    assert lines[1].strip() == "cells per field: status 1, projections 1"
    assert lines[2].strip() == '- "P0/ls_cspm": ["case2-or-3", "1.0", 10, 3, 2],'
    assert lines[3].strip() == '+ "P0/ls_cspm": ["case2-or-3", "1.0", 11, 3, 2],'
    assert len(lines) == 4


def test_counter_only_changes_read_as_such():
    new = OLD.replace('"1.0", 10', '"1.0", 4').replace('"1.5", 20', '"1.5", 9')
    lines = refactor_gate.differences(OLD, new).split("\n")
    assert lines[1].strip() == "cells per field: projections 2"
    raised = OLD.replace('["case1", "None", 5, 0, 0]', '["raised", "ValueError: x"]')
    assert refactor_gate.differences(OLD, raised).split("\n")[1].strip() == "cells per field: status 1"


def test_counter_moves_count_the_cells_that_fell_and_rose():
    new = (OLD.replace('"1.0", 10, 3', '"1.0", 4, 3').replace('"1.5", 20, 4', '"1.5", 20, 6')
           .replace('["case1", "None", 5, 0, 0]', '["raised", "ValueError: x"]'))
    assert refactor_gate.counter_moves(OLD, new) == {"projections": [1, 0], "obj_evals": [0, 1]}
    assert refactor_gate.counter_moves(OLD, OLD) == {"projections": [0, 0], "obj_evals": [0, 0]}
    assert refactor_gate.counter_moves("a.qps 1f\n", "a.qps 2e\n") == {"projections": [0, 0],
                                                                      "obj_evals": [0, 0]}


def test_numpy_runs_repeat_each_workloads_seed_101_cells_run():
    backend_runs = refactor_gate.backend_runs()
    assert backend_runs == ([("cells.py", w, "101") for w in ("plant-cspm", "plant-art3", "dose-cspm")]
                            + [("qps_digest.py", w, "101") for w in ("plant-cspm", "plant-art3")])
    # each is compared with the tree's own run of the same arguments
    assert set(backend_runs) <= set(refactor_gate.runs())


def test_digest_lines_are_named_by_file():
    diff = refactor_gate.differences("a.qps 1f\nb.qps 2e\n", "a.qps 1f\nb.qps 2d\n")
    assert diff.split("\n")[0] == "1 of 2 lines differ: b.qps"


def test_missing_lines_are_reported():
    diff = refactor_gate.differences(OLD, "\n".join(OLD.splitlines()[:2]))
    assert diff == "5 lines against 2"


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    source = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


class A:
    """Class docstring."""

    # a comment alone does not count
    def f(self, x):
        """Function docstring."""
        text = """a string
that is not a docstring"""
        return (x +
                len(text))
'''
    # import, class, def, the two lines of the string, return and its continuation
    assert refactor_gate.code_lines(source) == 7


def test_code_lines_are_reported_per_module_next_to_the_total(tmp_path):
    package = tmp_path / "src" / "cfpopt"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text('"""Docstring."""\n\nz = 3\n')
    (package / "notes.txt").write_text("not a module\n")
    new = refactor_gate.module_code_lines(tmp_path)
    assert new == {"a.py": 2, "b.py": 1}
    lines = refactor_gate.code_line_report("abc123", {"a.py": 5, "gone.py": 4}, new)
    assert lines == [
        "src/cfpopt code lines: 9 at abc123, 3 here (net -6)",
        "  a.py                 5 at abc123,     2 here (net -3)",
        "  b.py                 0 at abc123,     1 here (net +1)",
        "  gone.py              4 at abc123,     0 here (net -4)",
    ]


def test_c_code_lines_leave_out_comments_and_blanks():
    source = """/* a comment
   over two lines */
int x;  // a comment after code counts

static const char *s = "/* a string, not a comment */";
/* a comment */ int y = '*';
    // a comment alone does not count
"""
    # int x, the string's line and int y
    assert refactor_gate.c_code_lines(source) == 3
    assert refactor_gate.kernel_code_line_report("abc123", 541, 540) == (
        "src/cfpopt/_kernels.c code lines: 541 at abc123, 540 here (net -1)")


def test_cli_csvs_is_a_gate_run_without_wall_times():
    assert "cli_csvs.py" in refactor_gate.GATE_SCRIPTS
    assert ("cli_csvs.py",) in refactor_gate.runs()
    script = Path(__file__).parents[1] / "benchmarks" / "cli_csvs.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    runs_at, agg_at = out.index("runs.csv"), out.index("aggregate.csv")
    assert out[runs_at + 1] == "problem,variant,status,f_hat,Q,projections,obj_evals,outer_steps"
    assert agg_at - runs_at - 2 == 2 * 12  # 2 fixture problems x 12 variants
    assert out[agg_at + 1] == "variant,metric,avg,median,q10,q90"


def test_csv_rows_are_named_by_their_first_two_fields():
    old = "runs.csv\nP0,ls_cspm,case2-or-3,1.0\nP0,bis_cspm,case1,\n"
    new = old.replace("case1", "case2-or-3")
    assert refactor_gate.differences(old, new).split("\n")[0] == "1 of 3 lines differ: P0/bis_cspm"


def test_load_qps_peak_and_time_are_reported_for_both_trees():
    assert refactor_gate.PEAK_RUN[0] in refactor_gate.GATE_SCRIPTS
    line = refactor_gate.peak_report("abc123", "plant000.qps 1000000 5000000 30.5 1.25 26 3.25\n",
                                     "plant000.qps 1000000 2500000 12.25 0.5 8.5 3.25\n")
    assert line == ("load_qps traced peak and best of 20 times, plant-art3 101: "
                    "5.00 MB (5.00x the text of plant000.qps), 30.50 ms (read 1.25, parse 26.00, "
                    "to_problem 3.25) at abc123; "
                    "2.50 MB (2.50x the text of plant000.qps), 12.25 ms (read 0.50, parse 8.50, "
                    "to_problem 3.25) here")
    assert refactor_gate.peak_report("abc123", "exit 1: ImportError\n", "x 1 1 1\n").startswith(
        "load_qps traced peak and best of 20 times, plant-art3 101: 'exit 1: ImportError' at abc123")


def test_qps_peak_prints_file_chars_peak_and_time():
    script = Path(__file__).parents[1] / "benchmarks" / "qps_peak.py"
    out = subprocess.run([sys.executable, str(script), "plant-cspm", "101"], capture_output=True,
                         text=True, check=True).stdout
    name, chars, peak, *times = out.split()
    assert name == "plant000.qps"
    assert 0 < int(chars) < int(peak)
    ms, read, parse, to_problem = map(float, times)
    assert min(read, parse, to_problem) > 0
    # each step's best is at most its share of the best whole call
    assert read + parse + to_problem <= ms + 0.05


def test_counters_are_summed_per_workload_for_both_trees():
    assert refactor_gate.counter_totals(OLD) == {"projections": 35, "obj_evals": 7}
    assert refactor_gate.counter_totals("a.qps 1f\n") is None
    old = {("cells.py", w, "101"): OLD for w in refactor_gate.WORKLOADS}
    new = dict(old)
    new[("cells.py", "dose-cspm", "101")] = OLD.replace('"1.5", 20, 4', '"1.5", 13, 3')
    assert refactor_gate.counter_report("abc123", old, new) == [
        "projections, plant-cspm 101: 35 at abc123, 35 here (+0.00%); obj_evals: 7 at abc123, 7 here (+0.00%)",
        "projections, plant-art3 101: 35 at abc123, 35 here (+0.00%); obj_evals: 7 at abc123, 7 here (+0.00%)",
        "projections, dose-cspm 101: 35 at abc123, 28 here (-20.00%); obj_evals: 7 at abc123, 6 here (-14.29%)",
    ]


def test_soundness_is_a_gate_run_with_its_false_certificates_reported():
    assert {"soundness.py", "make_problems.py"} <= set(refactor_gate.GATE_SCRIPTS)
    assert ("soundness.py",) in refactor_gate.runs()
    out = ("full/RS000/ls_cspm case2-or-3 1.5 holds\n"
           "full: 45 false of 90 certificates\nunbounded: 6 false of 6 certificates\n")
    assert refactor_gate.false_certificates(out) == "full 45/90, unbounded 6/6"
    assert refactor_gate.false_certificates("exit 1: ImportError\n") == "'exit 1: ImportError'"
    # a soundness line is named by its family, problem and variant
    diff = refactor_gate.differences(out, out.replace("holds", "FALSE"))
    assert diff.split("\n")[0] == "1 of 3 lines differ: full/RS000/ls_cspm"



def test_statuses_and_false_certificates_are_reported_per_workload_for_both_trees():
    out = OLD.replace('{\n', '{\n "P0/f_ref": "0.5",\n "P1/f_ref": "2.0",\n')
    # certificates that hold within eps = 0.6: P0/ls_cspm (1.0) does, P0/bis_cspm (1.5) does not
    eps = lambda variant, f_hat: 0.6  # noqa: E731
    statuses, false, certs = refactor_gate.certificates(out, eps)
    assert statuses == {"case2-or-3": 2, "case1": 1}
    assert (false, certs) == (1, 2)
    # the benchmark's audit judges the bisection cell against gamma, the level-set cell against eps(f)
    rule = refactor_gate.certificate_rule()
    assert rule("bis_cspm", 1.5) == 1e-5
    assert rule("ls_cspm", 1.0) == 0.1
    assert refactor_gate.certificates("exit 1: ImportError\n", eps) is None
    old = {("cells.py", w, "101"): out for w in refactor_gate.WORKLOADS}
    new = dict(old)
    new[("cells.py", "dose-cspm", "101")] = out.replace('["case2-or-3", "1.5"', '["case3", "1.5"')
    new[("cells.py", "plant-art3", "101")] = "exit 1: ImportError\n"
    assert refactor_gate.status_report("abc123", old, new, eps) == [
        "statuses, plant-cspm 101: case1 1, case2-or-3 2 at abc123; case1 1, case2-or-3 2 here; "
        "false certificates: 1 of 2 at abc123, 1 of 2 here",
        "statuses, plant-art3 101: case1 1, case2-or-3 2 at abc123; 'exit 1: ImportError' here; "
        "false certificates: 1 of 2 at abc123, 'exit 1: ImportError' here",
        "statuses, dose-cspm 101: case1 1, case2-or-3 2 at abc123; case1 1, case2-or-3 1, case3 1 here; "
        "false certificates: 1 of 2 at abc123, 0 of 1 here",
    ]


def test_cells_lead_each_problem_with_its_reference_value():
    script = Path(__file__).parents[1] / "benchmarks" / "cells.py"
    out = subprocess.run([sys.executable, str(script), "dose-cspm", "101", "ls_sup_cspm"],
                         capture_output=True, text=True, check=True).stdout
    entries = json.loads(out)
    assert list(entries) == ["DOSE000/f_ref", "DOSE000/ls_sup_cspm", "DOSE001/f_ref", "DOSE001/ls_sup_cspm"]
    assert float(entries["DOSE000/f_ref"]) > 0.0
    # a reference value is no cell: it counts in no counter total
    assert refactor_gate.counter_totals(out) == {
        name: sum(entries[k][refactor_gate.CELL_FIELDS.index(name)] for k in entries if "f_ref" not in k)
        for name in refactor_gate.COUNTERS}
