from dataclasses import dataclass, field
from pathlib import Path

import pytest

from cfpopt import _kernels, feasibility, harness, superiorize

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # build the C kernel library (or load it from the cache) and resolve the
    # backend once, so timed tests measure the algorithms, not the compiler
    _kernels.warmup()


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def scheme_results(monkeypatch):
    """The ``SchemeResult`` of each scheme run that ``run_variant`` makes, in order."""
    results = []
    for name in ("level_set_solve", "accelerated_level_set_solve", "bisection_solve"):
        def recording(*args, _solve=getattr(harness, name), **kw):
            results.append(_solve(*args, **kw))
            return results[-1]
        monkeypatch.setattr(harness, name, recording)
    return results


@dataclass
class Solve:
    """What one feasibility solve did, as the ``solves`` fixture watched it.

    ``iterates`` holds the iterate after each sweep.  ``hooks`` holds, for
    each superiorized sweep k, the points its perturbation hook passed
    through: its input, then each accepted step's end, so the last is the
    point it returned.  The anchor of sweep k is the objective at
    ``hooks[k][0]``, and a step's size beta is the distance between
    consecutive points, as the step direction is a unit vector.
    """

    iterates: list = field(default_factory=list)
    hooks: list = field(default_factory=list)


@pytest.fixture
def solves(monkeypatch):
    """A :class:`Solve` per feasibility solve run from here on, in order.

    Rebinds ``make_sweeper`` where ``cfp_solve`` and ``superiorized_solve``
    look it up, wrapping each sweeper's ``run`` and ``sweep``, and
    ``nonascending_direction``, which the hook calls at the start of each
    step: at its input, then at each accepted step's end.
    """
    watched: list[Solve] = []
    starts = None  # the running hook's direction points, None between hooks

    def watch_hook(before_sweep, solve):
        def hook(x, k):
            nonlocal starts
            starts = []
            out = before_sweep(x, k)
            path = [x, *starts[1:]]
            starts = None
            if out is not path[-1]:  # the last step was accepted
                path.append(out)
            # the sweep then moves these arrays in place
            solve.hooks.append([p.copy() for p in path])
            return out
        return hook

    def watching(make_sweeper):
        def make(*args, **kw):
            sweeper = make_sweeper(*args, **kw)
            solve = Solve()
            run, sweep = sweeper.run, sweeper.sweep

            def watched_sweep(x, k):
                x = sweep(x, k)
                solve.iterates.append(x.copy())
                return x

            def watched_run(x0, before_sweep=None):
                watched.append(solve)
                return run(x0, None if before_sweep is None else watch_hook(before_sweep, solve))

            sweeper.run, sweeper.sweep = watched_run, watched_sweep
            return sweeper
        return make

    def direction(fn, x, _direction=superiorize.nonascending_direction):
        if starts is not None:
            starts.append(x)
        return _direction(fn, x)

    for module in (feasibility, superiorize):
        monkeypatch.setattr(module, "make_sweeper", watching(module.make_sweeper))
    monkeypatch.setattr(superiorize, "nonascending_direction", direction)
    return watched
