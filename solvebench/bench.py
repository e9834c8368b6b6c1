"""Measurement loop of the solve benchmark: set-up, passes, audit, metrics.

A pass solves the whole problem x variant matrix once through
``run_variant``, followed by ``emit_report``, as ``cfpopt bench`` does.  A run
makes passes until ``--seconds`` would be exceeded, and at least
``MIN_PASSES``.  Set-up (``setup_s``) is sampled before every cell, until
set-up has had ``SETUP_SHARE`` of the run's time, and in the time left after
the last pass, so its samples are spread over the whole run; past
``--seconds`` it is sampled only once per pass.

Times are the CPU time of the benchmark's one thread (``time.thread_time``),
so time the process spends descheduled is left out, and every time is the
fastest of a run's samples.  On a shared host the CPU switches between a
fast and slower speeds, up to 1.8x apart (a 2-vCPU Xeon VM whose cores other
tenants share), in phases that last from a tenth of a second to minutes.
The slow phases slow the CPU time as much as the wall time, so no clock
removes them; a run's mean or median depends on which phases it caught,
while the fastest of many samples spread over the run is the cost of the
code in a fast phase.  ``setup_s`` sums, over the problems, the fastest of
each problem's set-ups (dozens to thousands of them a run).  ``wall_s`` sums,
over the matrix cells, each cell's fastest solve, and ``solve_ms_p50`` is
the median of those per-cell times; a cell is solved only once per pass, so
a few times a run, and whether all of them fall in slow phases varies
between runs.  These two are printed but left out of the result a
regression check reads.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time

import numpy as np
import scipy

import cfpopt
import workloads
from audit import Solve, audit
from cfpopt import HarnessConfig, harness

# max_outer bounds the bisection runs that never close their bracket (they
# end as iteration-cap results) to seconds instead of minutes; every other
# run on these suites ends within 30 outer steps
CONFIG = HarnessConfig(max_outer=100)
MIN_PASSES = 3
CLOCK = time.thread_time
SETUP_SHARE = 0.4  # share of the run's time given to set-up samples


def environment(thread_vars) -> list[str]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return [
        f"env: backend={cfpopt.active_backend()} available={','.join(cfpopt.available_backends())}",
        f"env: python={platform.python_version()} numpy={np.__version__} scipy={scipy.__version__}",
        f"env: nproc={len(os.sched_getaffinity(0))} cpu={cpu}",
        f"env: {', '.join(thread_vars)} pinned to 1 before numpy import; one process, one thread",
    ]


Cell = tuple  # (problem name, variant name)


class Bench:
    """One workload at one seed."""

    def __init__(self, workload: workloads.Workload, seed: int, workdir, seconds: float):
        self.workload = workload
        self.inputs = workloads.make_inputs(workload, seed, workdir)
        self.report_dir = workdir / "report"
        self.setup_times: list[list[float]] = [[] for _ in range(workload.instances)]  # per problem
        self.setup_total = 0.0
        self.start = CLOCK()
        self.deadline = time.perf_counter() + seconds

    @property
    def setups(self) -> int:
        return len(self.setup_times[0])

    def setup_slot(self, problems=None):
        """Set the problems up until set-up has had ``SETUP_SHARE`` of the run so far.

        Sets up at least once when no problems are given, and only then once
        past the deadline, which the minimum passes may overrun; returns the
        problems.
        """
        while problems is None or (self.setup_total < SETUP_SHARE * (CLOCK() - self.start)
                                   and time.perf_counter() < self.deadline):
            problems = []
            for i, times in enumerate(self.setup_times):
                t0 = CLOCK()
                problems.append(workloads.setup(self.inputs, i))
                times.append(CLOCK() - t0)
                self.setup_total += times[-1]
        return problems

    def _solve(self, problem, variant: str) -> Solve:
        t0 = CLOCK()
        try:
            report = harness.run_variant(variant, problem, CONFIG, fstar=self.inputs.f_ref[problem.name])
            error = None
        except Exception as exc:  # an audit failure; the workload goes on
            report, error = None, f"{type(exc).__name__}: {exc}"
        return Solve(problem.name, variant, (CLOCK() - t0) * 1e3, report, error)

    def one_pass(self) -> dict[Cell, Solve]:
        """Set the problems up, then solve every cell of the matrix once.

        Before each cell the problems are set up again, for ``setup_s``,
        until set-up has had its share of the run, and the new ones are
        discarded.
        """
        problems = self.setup_slot()
        self.problems = {p.name: p for p in problems}
        cells = {}
        for p in problems:
            for v in self.workload.variants:
                self.setup_slot(problems)
                cells[(p.name, v)] = self._solve(p, v)
        reports = [s.report for s in cells.values() if s.report is not None]
        harness.emit_report(reports, harness.aggregate_by_variant(reports), self.report_dir)
        return cells

    def audit(self, samples: dict[Cell, list[Solve]]):
        """Audit each cell's first solve; every later one must repeat it exactly.

        Returns the first solves' verdicts, one message per failing cell, and
        the number of failed solves.
        """
        verdicts, failures, failed = [], [], 0
        for (problem, variant), runs in samples.items():
            first = runs[0]
            verdict = audit(first, self.problems[problem], self.inputs.f_ref[problem], CONFIG)
            verdicts.append(verdict)
            differ = [s for s in runs[1:] if s.fingerprint() != first.fingerprint()]
            if verdict.failure:
                failures.append(f"{problem} {variant}: {verdict.failure}")
                failed += len(runs)
            elif differ:
                failures.append(f"{problem} {variant}: {len(differ)} solves differ from the first: "
                                f"{differ[0].fingerprint()} != {first.fingerprint()}")
                failed += len(differ)
        return verdicts, failures, failed


def merged(passes: list[dict[Cell, Solve]]) -> dict[Cell, list[Solve]]:
    """Each cell's solves, one per pass, in pass order."""
    return {cell: [cells[cell] for cells in passes] for cell in passes[0]}


def keep_going(start: float, rounds: int, min_rounds: int, seconds: float) -> bool:
    """Another round fits in the time, judged by the mean round so far."""
    if rounds < min_rounds:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds <= seconds


def best_ms(samples: dict[Cell, list[Solve]]) -> list[float]:
    """Per matrix cell, its fastest solve."""
    return [min(s.ms for s in runs) for runs in samples.values()]


def audit_summary(verdicts) -> dict:
    gaps = [v.gap for v in verdicts if v.gap is not None]
    certs = [v.false_cert for v in verdicts if v.false_cert is not None]
    return {
        "gap_p50": statistics.median(gaps) if gaps else 0.0,
        "gaps": len(gaps),
        "false_cert_share": sum(certs) / len(certs) if certs else 0.0,
        "certs": len(certs),
    }


def run_untraced(bench: Bench, seconds: float):
    passes = []
    start = time.perf_counter()
    while keep_going(start, len(passes), MIN_PASSES, seconds):
        passes.append(bench.one_pass())
    # the time left after the last pass holds set-up slots only: more of the
    # run's time is then sampled for setup_s
    while time.perf_counter() < bench.deadline:
        bench.setup_slot()
    samples = merged(passes)
    verdicts, failures, failed = bench.audit(samples)
    attempted = sum(len(runs) for runs in samples.values())
    cells = best_ms(samples)
    reports = [runs[0].report for runs in samples.values() if runs[0].report is not None]
    summary = audit_summary(verdicts)
    metrics = {
        "setup_s": (sum(min(times) for times in bench.setup_times), "s"),
        "wall_s": (sum(cells) / 1e3, "s"),
        "solve_ms_p50": (statistics.median(cells), "ms"),
        "projections": (sum(r.projections for r in reports), "count"),
        "obj_evals": (sum(r.obj_evals for r in reports), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_share": (failed / attempted, "ratio"),
        "false_cert_share": (summary["false_cert_share"], "ratio"),
        "gap_p50": (summary["gap_p50"], "ratio"),
    }
    notes = {
        "setup_s": f"sum over problems of the fastest of {bench.setups} set-ups; with medians "
                   f"{sum(statistics.median(times) for times in bench.setup_times):.6g} s",
        "wall_s": f"sum over {len(cells)} cells of the fastest of {len(passes)} passes; printed only",
        "solve_ms_p50": f"n={len(cells)} cells; printed only",
        "projections": "one pass",
        "obj_evals": "one pass",
        "fail_share": f"{failed} of {attempted} solves",
        "false_cert_share": f"of {summary['certs']} case2-or-3 results",
        "gap_p50": f"n={summary['gaps']} solves",
    }
    return metrics, notes, attempted, failed, failures


def run_traced(bench: Bench, seconds: float):
    """Alternate untraced and traced passes and compare them; per-layer metrics per pass."""
    from tracing import Tracer

    tracer = Tracer()
    base, traced = [], []
    start = time.perf_counter()
    while keep_going(start, len(traced), 2, seconds):
        base.append(bench.one_pass())
        setups = bench.setups
        tracer.install()
        try:
            traced.append(bench.one_pass())
        finally:
            tracer.uninstall()
        tracer.setups += bench.setups - setups
    base_samples, traced_samples, samples = merged(base), merged(traced), merged(base + traced)
    verdicts, failures, failed = bench.audit(samples)
    attempted = sum(len(runs) for runs in samples.values())
    untraced_s = sum(best_ms(base_samples)) / 1e3
    overhead = sum(best_ms(traced_samples)) / 1e3 - untraced_s
    metrics = tracer.metrics(passes=len(traced))
    metrics["harness.matrix_s"] = (untraced_s, "s")
    metrics["trace.overhead"] = (overhead, "s")
    metrics["audit.false_cert_share"] = (audit_summary(verdicts)["false_cert_share"], "ratio")
    notes = {"harness.matrix_s": "untraced, sum over cells of the fastest pass",
             "trace.overhead": f"fastest of {len(traced)} traced vs {len(base)} untraced "
                               f"solves per cell, {overhead / untraced_s:+.1%}"}
    return metrics, notes, attempted, failed, failures
