"""Command line driver.

Subcommands:

* ``solve``  -- run one variant on one problem (QPS file or builtin).
* ``bench``  -- run a variant set over a directory of QPS problems and emit
  the per-run and aggregate CSV reports.
* ``diag counterexample`` -- reproduce the multiplicative-slack divergence
  diagnostic and print its trace.

Exit codes: 0 on success, 1 when no feasible point was ever found (or a
diagnostic check fails), 2 on input errors.  A command raises ``OSError`` or
``ValueError`` on an input fault, and :func:`main` alone prints it as one
line and returns 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import _kernels
from .harness import (
    VARIANTS,
    HarnessConfig,
    aggregate_by_variant,
    builtin_problems,
    emit_report,
    run_variant,
)
from .qps import load_qps, parse_qps
from .schemes import CASE1, counterexample_run

_EPSILON_MODES = {"max-floor": "max-floor", "mult": "multiplicative", "const": "constant"}


class _EpsilonMode(argparse.Action):
    """Store the epsilon rule mode that a ``--epsilon-rule`` choice names."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, _EPSILON_MODES[values])


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    defaults = HarnessConfig()
    p.add_argument("--max-sweeps", type=int, default=defaults.max_sweeps,
                   help="sweep budget per feasibility solve (time-out rule)")
    p.add_argument("--feas-tol", type=float, default=defaults.feas_tol, help="feasibility tolerance")
    p.add_argument("--lambda", dest="lam", type=float, default=defaults.lam,
                   help="relaxation parameter in (0, 2)")
    p.add_argument("--gamma", type=float, default=defaults.gamma, help="bisection bracket tolerance")
    p.add_argument("--f-lower", type=float, default=defaults.f_lower,
                   help="objective lower bound for bisection (default: derived)")
    p.add_argument("--epsilon-rule", dest="epsilon_mode", choices=sorted(_EPSILON_MODES),
                   default=defaults.epsilon_mode, action=_EpsilonMode)
    p.add_argument("--epsilon-factor", type=float, default=defaults.epsilon_factor)
    p.add_argument("--epsilon-floor", type=float, default=defaults.epsilon_floor)
    p.add_argument("--block", type=int, default=defaults.block, help="stall-counter block size")
    p.add_argument("--accel-c", type=float, default=defaults.accel_c)
    p.add_argument("--accel-s", type=float, default=defaults.accel_s)
    p.add_argument("--accel-step", type=float, default=defaults.accel_step)
    p.add_argument("--adaptive", dest="accel_adaptive", action="store_true",
                   help="backtrack the acceleration step until the objective does not increase")
    p.add_argument("--sup-N", dest="sup_n", type=int, default=defaults.sup_n,
                   help="accepted perturbations per outer step in superiorized variants")
    p.add_argument("--sup-a", dest="sup_a", type=float, default=defaults.sup_a,
                   help="perturbation step-size kernel in (0, 1)")
    p.add_argument("--max-outer", type=int, default=defaults.max_outer, help="outer scheme iteration cap")
    p.add_argument("--seed", type=int, default=defaults.seed,
                   help="seed for the random start point (default: zeros)")
    p.add_argument("--backend", choices=("auto", "c", "numpy"), default=None,
                   help="sweep kernel backend (default: CFPOPT_BACKEND or auto)")


def _config_from(args) -> HarnessConfig:
    return HarnessConfig(**{f.name: getattr(args, f.name) for f in fields(HarnessConfig)})


def _load_fstar_file(path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("fstar file must map problem names to values")
    fstars = {}
    for k, v in data.items():
        try:
            fstars[str(k)] = float(v)
        except TypeError:
            raise ValueError(f"fstar file maps {k!r} to {json.dumps(v)}, not a number") from None
    return fstars


def _make_out_dir(out) -> None:
    """Create the report directory before any solve, so that a bad ``--out`` costs none."""
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)


def _print_report(r) -> None:
    print(f"problem      : {r.problem}")
    print(f"variant      : {r.variant}")
    print(f"status       : {r.status}")
    print(f"f_hat        : {'-' if r.f_hat is None else repr(r.f_hat)}")
    print(f"Q            : {'-' if r.quality is None else repr(r.quality)}")
    print(f"projections  : {r.projections}")
    print(f"obj_evals    : {r.obj_evals}")
    print(f"outer_steps  : {r.outer_steps}")
    print(f"wall_ms      : {r.ms:.3f}")


def _select_backend(name) -> None:
    """Apply ``--backend``, or else resolve ``CFPOPT_BACKEND``; raise ValueError
    when that names no backend or one that cannot run here."""
    try:
        if name:
            _kernels.set_backend(name)
        else:
            _kernels.active_backend()
    except _kernels.BackendUnavailableError as exc:
        label = repr(name) if name else "named by CFPOPT_BACKEND"
        raise ValueError(f"backend {label} is unavailable: {exc}") from exc


def _cmd_solve(args) -> int:
    _select_backend(args.backend)
    if args.builtin:
        problems = builtin_problems()
        if args.builtin not in problems:
            raise ValueError(f"unknown builtin {args.builtin!r}; choices: {sorted(problems)}")
        problem = problems[args.builtin]
    elif args.qps == "-":
        problem = parse_qps(sys.stdin.read(), name="stdin")
    else:
        problem = load_qps(args.qps)

    fstar = args.fstar
    if fstar is None and args.fstar_file:
        fstar = _load_fstar_file(args.fstar_file).get(problem.name)

    _make_out_dir(args.out)
    report = run_variant(args.variant, problem, _config_from(args), fstar=fstar)
    _print_report(report)
    if args.out:
        paths = emit_report([report], aggregate_by_variant([report]), args.out)
        print("wrote: " + ", ".join(str(p) for p in paths))
    return 1 if report.status == CASE1 else 0


def _cmd_bench(args) -> int:
    _select_backend(args.backend)
    problems_dir = Path(args.problems)
    paths = sorted(problems_dir.glob("*.qps")) + sorted(problems_dir.glob("*.QPS"))
    if not paths:
        raise ValueError(f"no .qps files under {problems_dir}")

    if args.variants == "all":
        variant_names = list(VARIANTS)
    else:
        variant_names = [v.strip() for v in args.variants.split(",") if v.strip()]
        unknown = [v for v in variant_names if v not in VARIANTS]
        if unknown:
            raise ValueError(f"unknown variants {unknown}; choices: {sorted(VARIANTS)}")
        if not variant_names:
            raise ValueError(f"--variants {args.variants!r} names no variant")

    fstars = _load_fstar_file(args.fstar_file) if args.fstar_file else {}
    _make_out_dir(args.out)
    config = _config_from(args)
    reports = []
    for path in paths:
        try:
            problem = load_qps(path)
        except (OSError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
        for vname in variant_names:
            try:
                report = run_variant(vname, problem, config, fstar=fstars.get(problem.name))
            except ValueError as exc:
                raise ValueError(f"{path}: {vname}: {exc}") from exc
            reports.append(report)
            print(f"{problem.name:<16} {vname:<18} {report.status:<14} "
                  f"f_hat={'-' if report.f_hat is None else f'{report.f_hat:.6g}'}")

    paths_written = emit_report(reports, aggregate_by_variant(reports), args.out)
    print("wrote: " + ", ".join(str(p) for p in paths_written))
    return 0


def _cmd_diag(args) -> int:
    trace = counterexample_run(steps=args.steps)
    print(" k            x^k          f(x^k)        eps_k            t_k")
    shown = list(range(min(6, len(trace.ts)))) + list(range(max(6, len(trace.ts) - 2), len(trace.ts)))
    last = None
    for k in shown:
        if last is not None and k != last + 1:
            print(" ...")
        print(f"{k:3d} {trace.xs[k]:14.8f} {trace.fs[k]:14.8f} {trace.epss[k]:13.8f} {trace.ts[k]:14.8f}")
        last = k
    print(f"t_0 = {float(trace.ts[0])!r}")
    print(f"x_1 = {float(trace.xs[1])!r} (sqrt(460) = {460.0 ** 0.5!r})")
    print(f"levels nonnegative        : {trace.ok_levels_nonnegative}")
    print(f"gap to optimum >= 100     : {trace.ok_gap_at_least_100}")
    print(f"slack partial sums <= t_0 : {trace.ok_slack_sum_bounded}")
    return 0 if trace.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cfpopt", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one variant on one problem")
    src = p_solve.add_mutually_exclusive_group(required=True)
    src.add_argument("--qps", help="path to a QPS problem file ('-' for stdin)")
    src.add_argument("--builtin", help="name of a bundled problem")
    p_solve.add_argument("--variant", required=True, choices=sorted(VARIANTS),
                         metavar="VARIANT", help=f"one of {', '.join(VARIANTS)}")
    p_solve.add_argument("--fstar", type=float, default=None,
                         help="best known objective value (for the quality score)")
    p_solve.add_argument("--fstar-file", default=None,
                         help="JSON file mapping problem names to best known values")
    p_solve.add_argument("--out", default=None, help="directory for CSV reports")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="run variants over a directory of QPS problems")
    p_bench.add_argument("--problems", required=True, help="directory containing .qps files")
    p_bench.add_argument("--variants", default="all",
                         help="'all' or a comma-separated list of variant names")
    p_bench.add_argument("--fstar-file", default=None,
                         help="JSON file mapping problem names to best known values")
    p_bench.add_argument("--out", required=True, help="directory for CSV reports")
    _add_solver_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_diag = sub.add_parser("diag", help="built-in diagnostics")
    p_diag.add_argument("what", choices=("counterexample",))
    p_diag.add_argument("--steps", type=int, default=100)
    p_diag.set_defaults(func=_cmd_diag)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a command raises on an input fault, and this is its one exit: an
    # objective that overflows is reported by this error line (a non-finite
    # value); numpy's overflow warning would only come first
    try:
        with np.errstate(over="ignore"):
            return args.func(args)
    except (OSError, ValueError) as exc:  # QpsParseError and JSON/UTF-8 decode errors included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
