#!/usr/bin/env python3
"""Check that the working tree gives the same results as a parent revision.

Usage:
    python3 benchmarks/refactor_gate.py PARENT_REV

Extracts ``PARENT_REV`` with ``git archive`` into a temporary directory and
runs the same gate scripts (this tree's ``cells.py``, ``qps_digest.py``,
``cli_csvs.py``, ``qps_peak.py`` and ``soundness.py``, with the problem
generator ``make_problems.py`` they share) against both sources:

* ``cells.py`` for each workload at seeds 101-103 with its own variants, and
  at seed 101 with ``all`` variants;
* ``cells.py`` with the four accelerated variants on plant-cspm and
  dose-cspm at seed 101, under the ``accel`` and ``accel-adaptive`` configs,
  whose stalls fire (the benchmark's own config never perturbs a warm start);
* ``qps_digest.py`` for each planted workload at seeds 101-110;
* ``cli_csvs.py``, the CSV reports of ``cfpopt bench`` over the test
  fixtures with ``all`` variants, without the ``ms`` column;
* ``soundness.py``, every variant's status, ``f_hat`` and certificate audit
  on QPs whose rows bind at the optimum, and on an unbounded LP.

Then it runs ``cells.py`` for each workload, and ``qps_digest.py`` for each
planted workload, at seed 101 in the working tree once more, under
``CFPOPT_BACKEND=numpy``, and compares the output with the tree's run of the
same arguments under the caller's backend (``auto``, so ``c`` wherever
``cc`` builds the library): the two backends must compute the same bits,
and read the same problems (the numpy backend's QPS reader scans nothing).

Each run prints ``same``, or the number of its differing lines, their keys
(``problem/variant``, ``variant/metric`` for an aggregate CSV row) or digest
names, for ``cells.py`` how many cells differ in each field (status, f_hat,
projections, obj_evals, outer_steps), so that a change to the counters alone
reads as such, and the first differing pair as ``- old / + new``.  After the runs, one line per counter
(``projections: 41 fell, 0 rose``) says in how many differing cells of all
``cells.py`` runs that counter fell and in how many it rose, one line per
workload gives the summed ``projections`` and ``obj_evals`` of its seed-101
``cells.py`` run (one pass of the benchmark's matrix) at ``PARENT_REV`` and
here, so that a change to the counters alone reads directly, one line per
workload gives that run's tally of statuses and its false certificates in
both trees (a ``case2-or-3`` cell whose ``f_hat`` exceeds the run's
``f_ref`` by more than ``solvebench/audit.py``'s ``certificate_eps`` at the
benchmark's config), and one line gives the false
certificates per ``soundness.py`` family in both trees.  The gate ends
with the ``git diff --numstat PARENT_REV -- src`` totals
and the code lines of ``src/cfpopt/*.py`` (docstrings, comments and blank
lines left out) at ``PARENT_REV`` and in the working tree: their total, then
each module's, so that a change shows where its lines went, the code lines
of ``src/cfpopt/_kernels.c`` (comments and blank lines left out) in both
trees, and the traced
peak memory and the best of 20 thread times of ``load_qps`` on the seed-101
plant-art3 ``PLANT000`` file (``qps_peak.py``), whole and split into read,
parse and ``to_problem``, at ``PARENT_REV`` and in the working tree.  The
summed counters, the statuses, the false certificates, the code lines, the peak and
the times are information: they never fail the gate (a
changed ``soundness.py`` output does, as any differing run).  The exit
status is 1 when any output differs, else 0.  The two trees run side by side,
one process each; the parent gets its own kernel cache directory, so that its
kernel build does not evict this tree's.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("plant-cspm", "plant-art3", "dose-cspm")
PLANTED = ("plant-cspm", "plant-art3")
ACCELERATED = "ls_acc_cspm,ls_acc_sup_cspm,bis_acc_cspm,bis_acc_sup_cspm"
GATE_SCRIPTS = ("cells.py", "qps_digest.py", "cli_csvs.py", "qps_peak.py", "soundness.py",
                "make_problems.py")
PEAK_RUN = ("qps_peak.py", "plant-art3", "101")
# the entries of a cells.py cell, in order
CELL_FIELDS = ("status", "f_hat", "projections", "obj_evals", "outer_steps")
COUNTERS = ("projections", "obj_evals")


def runs() -> list[tuple[str, ...]]:
    """The gate's script invocations, as ``(script, *arguments)``."""
    out = [("cells.py", w, str(seed)) for w in WORKLOADS for seed in (101, 102, 103)]
    out += [("cells.py", w, "101", "all") for w in WORKLOADS]
    out += [("cells.py", w, "101", ACCELERATED, cfg) for w in ("plant-cspm", "dose-cspm")
            for cfg in ("accel", "accel-adaptive")]
    out += [("qps_digest.py", w, str(seed)) for w in PLANTED for seed in range(101, 111)]
    out.append(("cli_csvs.py",))
    out.append(("soundness.py",))
    return out


def backend_runs() -> list[tuple[str, ...]]:
    """The runs of :func:`runs` that the working tree repeats under the numpy backend."""
    return [("cells.py", w, "101") for w in WORKLOADS] + [("qps_digest.py", w, "101") for w in PLANTED]


def extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    # the same measurement on both sides: only src/ and solvebench/ differ
    for name in GATE_SCRIPTS:
        shutil.copy2(ROOT / "benchmarks" / name, dest / "benchmarks" / name)


def start(tree: Path, run: tuple[str, ...], env: dict) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(tree / "benchmarks" / run[0]), *run[1:]],
                            cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def output(proc: subprocess.Popen) -> str:
    out, err = proc.communicate()
    if proc.returncode != 0:
        last = (err.strip().splitlines() or [""])[-1]
        return f"exit {proc.returncode}: {last}\n{out}"
    return out


def line_key(line: str) -> str:
    """A ``cells.py`` line's ``problem/variant`` key, a ``qps_digest.py`` line's file name,
    or a ``cli_csvs.py`` row's first two fields joined by ``/``."""
    words = line.split()
    return "/".join(words[0].strip('":').split(",")[:2]) if words else "(blank)"


def cell(line: str) -> list | None:
    """The entries of a ``cells.py`` line's cell, or None for any other line."""
    try:
        value = json.loads("{" + line.strip().rstrip(",") + "}")
    except json.JSONDecodeError:
        return None
    (entries,) = value.values()
    return entries if isinstance(entries, list) else None


def field_counts(pairs: list[tuple[str, str]]) -> str | None:
    """How many of the differing ``cells.py`` line pairs differ in each cell field.

    A cell that raised on either side holds no counters; it counts as a
    status difference.  None when no pair is a pair of cells.
    """
    counts = dict.fromkeys(CELL_FIELDS, 0)
    cells = 0
    for x, y in pairs:
        a, b = cell(x), cell(y)
        if a is None or b is None:
            continue
        cells += 1
        if len(a) != len(CELL_FIELDS) or len(b) != len(CELL_FIELDS):
            counts["status"] += 1
            continue
        for name, u, v in zip(CELL_FIELDS, a, b):
            counts[name] += u != v
    if not cells:
        return None
    return "cells per field: " + ", ".join(f"{name} {k}" for name, k in counts.items() if k)


def counter_moves(old: str, new: str) -> dict[str, list[int]]:
    """Per counter field, in how many cells of two ``cells.py`` outputs it fell and rose.

    Lines are paired in order; a line that is not a cell with counters on
    both sides counts nowhere.
    """
    moves = {name: [0, 0] for name in COUNTERS}
    for x, y in zip(old.splitlines(), new.splitlines()):
        a, b = cell(x), cell(y)
        if a is None or b is None or len(a) != len(CELL_FIELDS) or len(b) != len(CELL_FIELDS):
            continue
        for name in COUNTERS:
            i = CELL_FIELDS.index(name)
            if a[i] != b[i]:
                moves[name][b[i] > a[i]] += 1
    return moves


def differences(old: str, new: str) -> str | None:
    """How ``new`` differs from ``old`` line by line, or None when they are equal.

    Names every differing line by its key, counts the differing cells per
    field, then gives the first differing pair as ``'- old / + new'`` and
    any difference in length.
    """
    a, b = old.splitlines(), new.splitlines()
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    parts = []
    if pairs:
        keys = ", ".join(line_key(x) for x, _ in pairs)
        parts.append(f"{len(pairs)} of {len(a)} lines differ: {keys}")
        fields = field_counts(pairs)
        if fields is not None:
            parts.append(fields)
        x, y = pairs[0]
        parts += [f"- {x.strip()}", f"+ {y.strip()}"]
    if len(a) != len(b):
        parts.append(f"{len(a)} lines against {len(b)}")
    return "\n      ".join(parts) if parts else None


def numstat(rev: str) -> tuple[int, int]:
    text = subprocess.run(["git", "-C", str(ROOT), "diff", "--numstat", rev, "--", "src"],
                          check=True, capture_output=True, text=True).stdout
    added = deleted = 0
    for line in text.splitlines():
        a, d, _ = line.split("\t", 2)
        if a != "-":
            added, deleted = added + int(a), deleted + int(d)
    return added, deleted


def code_lines(source: str) -> int:
    """The lines of Python ``source`` that hold code, not only docstrings, comments or blanks."""
    docstrings = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.append(((first.lineno, first.col_offset),
                                   (first.end_lineno, first.end_col_offset)))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in layout or (tok.type == tokenize.STRING and any(
                start <= tok.start and tok.end <= end for start, end in docstrings)):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def module_code_lines(tree: Path) -> dict[str, int]:
    """The code lines of each ``src/cfpopt`` module of ``tree``, by file name."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted((tree / "src" / "cfpopt").glob("*.py"))}


def code_line_report(rev: str, old: dict[str, int], new: dict[str, int]) -> list[str]:
    """The total code lines at ``rev`` and here, then one line per module of
    either tree (a module one tree lacks counts 0 lines there)."""
    total_old, total_new = sum(old.values()), sum(new.values())
    lines = [f"src/cfpopt code lines: {total_old} at {rev}, {total_new} here "
             f"(net {total_new - total_old:+d})"]
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, 0), new.get(name, 0)
        lines.append(f"  {name:<16} {a:>5} at {rev}, {b:>5} here (net {b - a:+d})")
    return lines


# a C comment, or a string or character literal, which may hold what looks like a comment
_C_TOKEN = re.compile(r"""/\*.*?\*/|//[^\n]*|"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*'""", re.DOTALL)


def c_code_lines(source: str) -> int:
    """The lines of C ``source`` that hold code, not only comments or blanks."""
    code = _C_TOKEN.sub(lambda m: "\n" * m[0].count("\n") if m[0][0] == "/" else m[0], source)
    return sum(1 for line in code.splitlines() if line.strip())


def kernel_code_line_report(rev: str, old: int, new: int) -> str:
    """The code lines of ``src/cfpopt/_kernels.c`` at ``rev`` and here."""
    return f"src/cfpopt/_kernels.c code lines: {old} at {rev}, {new} here (net {new - old:+d})"


def counter_totals(out: str) -> dict[str, int] | None:
    """The summed counters of a ``cells.py`` output's cells, by name, or None when it has none."""
    cells = [c for c in map(cell, out.splitlines()) if c is not None and len(c) == len(CELL_FIELDS)]
    if not cells:
        return None
    return {name: sum(c[CELL_FIELDS.index(name)] for c in cells) for name in COUNTERS}


def counter_report(rev: str, old_outs: dict, new_outs: dict) -> list[str]:
    """Per workload, the summed projections and obj_evals of its seed-101 ``cells.py`` run at
    ``rev`` and here, on one line."""
    lines = []
    for workload in WORKLOADS:
        run = ("cells.py", workload, "101")
        old, new = counter_totals(old_outs[run]), counter_totals(new_outs[run])
        parts = []
        for name in COUNTERS:
            a = old[name] if old else None
            b = new[name] if new else None
            change = f" ({(b - a) / a:+.2%})" if a and b is not None else ""
            parts.append(f"{a} at {rev}, {b} here{change}")
        lines.append(f"projections, {workload} 101: {parts[0]}; obj_evals: {parts[1]}")
    return lines


def certificate_rule():
    """``solvebench/audit.py``'s ``certificate_eps`` at the benchmark's config, as ``eps(variant, f_hat)``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "solvebench"), str(ROOT / "benchmarks")]
    import audit
    import bench

    return lambda variant, f_hat: audit.certificate_eps(variant, f_hat, bench.CONFIG)


def certificates(out: str, eps) -> tuple[Counter, int, int] | None:
    """The status tally of a ``cells.py`` output, its false certificates and its certificates.

    A ``case2-or-3`` cell is a false certificate when its ``f_hat`` exceeds
    its problem's ``f_ref`` by more than ``eps(variant, f_hat)``.  None when
    the output is not a ``cells.py`` object.
    """
    try:
        entries = json.loads(out)
    except json.JSONDecodeError:
        return None
    f_ref = {key.split("/")[0]: float(v) for key, v in entries.items() if key.endswith("/f_ref")}
    statuses, false, certs = Counter(), 0, 0
    for key, value in entries.items():
        if key.endswith("/f_ref"):
            continue
        problem, variant = key.split("/")
        statuses[value[0]] += 1
        if value[0] == "case2-or-3":
            certs += 1
            f_hat = float(value[1])
            false += f_hat - f_ref[problem] > eps(variant, f_hat)
    return statuses, false, certs


def status_report(rev: str, old_outs: dict, new_outs: dict, eps) -> list[str]:
    """Per workload, the statuses and false certificates of its seed-101 ``cells.py`` run at ``rev``
    and here, on one line."""
    def tally(out: str) -> tuple[str, str]:
        found = certificates(out, eps)
        if found is None:
            last = repr((out.strip().splitlines() or [""])[-1])
            return last, last
        statuses, false, certs = found
        return (", ".join(f"{name} {k}" for name, k in sorted(statuses.items())),
                f"{false} of {certs}")

    lines = []
    for workload in WORKLOADS:
        run = ("cells.py", workload, "101")
        (old_status, old_false), (new_status, new_false) = tally(old_outs[run]), tally(new_outs[run])
        lines.append(f"statuses, {workload} 101: {old_status} at {rev}; {new_status} here; "
                     f"false certificates: {old_false} at {rev}, {new_false} here")
    return lines


def false_certificates(out: str) -> str:
    """The ``FAMILY: F false of C certificates`` totals of a ``soundness.py`` output, as
    ``FAMILY F/C`` joined by commas; the output's last line when it has none."""
    totals = []
    for line in out.splitlines():
        family, _, rest = line.partition(": ")
        words = rest.split()
        if len(words) == 5 and words[1:3] == ["false", "of"]:
            totals.append(f"{family} {words[0]}/{words[3]}")
    return ", ".join(totals) or repr((out.strip().splitlines() or [""])[-1])


def peak_report(rev: str, old: str, new: str) -> str:
    """One line with the ``qps_peak.py`` outputs at ``rev`` and here: the
    peak in MB and as a multiple of the file's length, and the best times; a
    run that did not print ``FILE CHARS PEAK MS READ PARSE TO_PROBLEM`` is
    shown as it ended."""
    def peak(out: str) -> str:
        try:
            name, chars, nbytes, ms, read, parse, to_problem = out.split()
            return (f"{int(nbytes) / 1e6:.2f} MB ({int(nbytes) / int(chars):.2f}x the text of {name}), "
                    f"{float(ms):.2f} ms (read {float(read):.2f}, parse {float(parse):.2f}, "
                    f"to_problem {float(to_problem):.2f})")
        except ValueError:
            return repr(out.strip())

    return (f"load_qps traced peak and best of 20 times, {' '.join(PEAK_RUN[1:])}: {peak(old)} at {rev}; "
            f"{peak(new)} here")


def report(label: str, diff: str | None) -> bool:
    """Print a run's line; True when it differs."""
    print(f"{label:<36} {'same' if diff is None else 'DIFFERS: ' + diff}", flush=True)
    return diff is not None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rev = argv[0]
    differs = 0
    moves = {name: [0, 0] for name in COUNTERS}
    with tempfile.TemporaryDirectory(prefix="cfpopt-gate-") as tmp:
        parent = Path(tmp) / "parent"
        parent.mkdir()
        extract(rev, parent)
        new_env = dict(os.environ)
        old_env = dict(os.environ, XDG_CACHE_HOME=str(Path(tmp) / "cache"))
        old_outs, new_outs = {}, {}
        for run in runs():
            old = start(parent, run, old_env)
            new = start(ROOT, run, new_env)
            old_out, new_out = output(old), output(new)
            old_outs[run], new_outs[run] = old_out, new_out
            diff = differences(old_out, new_out)
            for name, (fell, rose) in counter_moves(old_out, new_out).items():
                moves[name][0] += fell
                moves[name][1] += rose
            differs += report(" ".join(run), diff)
        numpy_env = dict(os.environ, CFPOPT_BACKEND="numpy")
        for run in backend_runs():
            diff = differences(new_outs[run], output(start(ROOT, run, numpy_env)))
            differs += report(" ".join(run) + " numpy", diff)
        old_code, new_code = module_code_lines(parent), module_code_lines(ROOT)
        old_c, new_c = (c_code_lines((tree / "src" / "cfpopt" / "_kernels.c").read_text(encoding="utf-8"))
                        for tree in (parent, ROOT))
        old_peak, new_peak = map(output, (start(parent, PEAK_RUN, old_env), start(ROOT, PEAK_RUN, new_env)))
    for name, (fell, rose) in moves.items():
        print(f"{name}: {fell} fell, {rose} rose")
    print("\n".join(counter_report(rev, old_outs, new_outs)))
    print("\n".join(status_report(rev, old_outs, new_outs, certificate_rule())))
    sound = ("soundness.py",)
    print(f"soundness.py false certificates: {false_certificates(old_outs[sound])} at {rev}; "
          f"{false_certificates(new_outs[sound])} here")
    added, deleted = numstat(rev)
    print(f"src/ against {rev}: +{added} -{deleted} (net {added - deleted:+d})")
    print("\n".join(code_line_report(rev, old_code, new_code)))
    print(kernel_code_line_report(rev, old_c, new_c))
    print(peak_report(rev, old_peak, new_peak))
    print(f"{differs} of {len(runs()) + len(backend_runs())} runs differ")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
