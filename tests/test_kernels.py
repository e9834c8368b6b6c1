import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from cfpopt import _kernels
from cfpopt.feasibility import SolverSpec, cfp_solve
from cfpopt.model import AffineConstraint, Bounds, QuadraticFunction
from cfpopt.superiorize import SuperiorizationConfig


# The c backend needs a C compiler; where one is present a broken build must
# fail these tests, so they are not guarded on available_backends().
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")


@pytest.fixture
def restore_backend():
    saved = _kernels.active_backend()
    yield
    _kernels.set_backend(saved)


def _random_system(seed, m=25, n=7):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(m):
        a = rng.standard_normal(n)
        kind = rng.integers(3)
        if kind == 0:
            rows.append(AffineConstraint.leq(a, rng.standard_normal() + 1.0))
        elif kind == 1:
            lo = rng.standard_normal()
            rows.append(AffineConstraint.interval(a, lo, lo + abs(rng.standard_normal()) + 0.5))
        else:
            rows.append(AffineConstraint.eq(a, 0.1 * rng.standard_normal()))
    return rows, rng.standard_normal(n) * 2.0


@needs_cc
def test_both_backends_available():
    assert set(_kernels.available_backends()) == {"c", "numpy"}


@needs_cc
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cspm_backend_agreement(seed, restore_backend, solves):
    rows, x0 = _random_system(seed)
    results = {}
    for backend in ("c", "numpy"):
        _kernels.set_backend(backend)
        out = cfp_solve(rows, x0, SolverSpec(lam=1.5, max_sweeps=300))
        results[backend] = (out, solves[-1].iterates)
    a, ha = results["c"]
    b, hb = results["numpy"]
    assert a.found == b.found
    assert a.sweeps == b.sweeps
    assert a.projections == b.projections
    assert a.x.tobytes() == b.x.tobytes()
    assert [x.tobytes() for x in ha] == [x.tobytes() for x in hb]


def _bind(A, lo, hi, norm2, x0):
    """Bind the rows for a solve from ``x0``, with a fresh path state."""
    return _kernels.Rows(A, lo, hi, norm2, np.array([0.0, math.sqrt(x0 @ x0), 0.0]))


def _result(rows, ret):
    """A ``cspm_sweep`` call's result ``ret`` with what it wrote to ``rows.out``.

    That is (largest violation, moves, step sums, rows evaluated).
    """
    b, size, steps, evaluated = rows.out.tolist()[:4]
    return ret[0], ret[1], (b, size, steps), int(evaluated)


def _sweeps(rows, x, count, lam, tol, shift=None):
    """``count`` screened sweeps of ``x`` in place, as a sweeper runs them.

    ``shift(k)``, when given, returns the vector that moves x before sweep
    ``k``, or None; the path sum grows by its length.  Returns each sweep's
    :func:`_result` and the iterate after it.
    """
    out, moves = [], 0
    for k in range(count):
        delta = shift(k) if shift is not None else None
        if delta is not None:
            x += delta
            rows.path[0] += math.sqrt(delta @ delta)
        rows.path[2] = _kernels.screen_rtol(x.shape[0], moves + k + 1 + rows.A.shape[0])
        result = _result(rows, _kernels.cspm_sweep(rows.A, rows, x, lam, tol))
        moves += result[1]
        out.append((result, x.copy()))
    return out


def _python_dot(a, x):
    """The kernels' dot product: summed left to right from 0.0, one rounding per operation."""
    r = 0.0
    for a_j, x_j in zip(a.tolist(), x.tolist()):
        r += a_j * x_j
    return r


def _unscreened_sweep(A, rows, x, lam, tol):
    """The reference ``cspm_sweep`` that evaluates every row.

    Its arithmetic is the kernels' without the screen, and it counts every
    row as evaluated.
    """
    lo, hi, norm2 = rows.lo, rows.hi, rows.norm2
    maxv = 0.0
    moves = 0
    b = size = steps = 0.0
    for i in range(A.shape[0]):
        r = _python_dot(A[i], x)
        over = r - hi[i]
        under = lo[i] - r
        v = over if over >= under else under
        if v > maxv:
            maxv = v
        if v > tol:
            moves += 1
            coef = lam * v / norm2[i]
            if over >= under:
                x -= coef * A[i]
                beta = hi[i]
            else:
                x += coef * A[i]
                beta = -lo[i]
            b += coef * (beta + tol)
            size += coef * (abs(beta) + tol)
            steps += coef * math.sqrt(norm2[i])
    rows.out[:] = b, size, steps, A.shape[0], maxv
    return maxv, moves


def _unscreened_art3(branches=None):
    """The reference ``art3_pass`` that evaluates every queued row.

    Its arithmetic is the kernels' without the screen, and it counts every
    queued row as evaluated.  Each move appends ``"reflect"`` or
    ``"midline"`` to ``branches``, when given.
    """

    def art3(A, rows, x, tol, out, queue):
        lo, hi, norm2 = rows.lo, rows.hi, rows.norm2
        kept = []
        b = size = steps = 0.0
        for i in queue.tolist():
            r = _python_dot(A[i], x)
            if lo[i] - tol <= r <= hi[i] + tol:
                continue
            kept.append(i)
            width = hi[i] - lo[i]
            viol = r - hi[i] if r > hi[i] else lo[i] - r
            reflect = viol <= width
            if branches is not None:
                branches.append("reflect" if reflect else "midline")
            if r > hi[i]:
                coef = 2.0 * viol / norm2[i] if reflect else (r - 0.5 * (lo[i] + hi[i])) / norm2[i]
                x -= coef * A[i]
                beta = hi[i]
            else:
                coef = 2.0 * viol / norm2[i] if reflect else (0.5 * (lo[i] + hi[i]) - r) / norm2[i]
                x += coef * A[i]
                beta = -lo[i]
            b += coef * (beta + tol)
            size += coef * (abs(beta) + tol)
            steps += coef * math.sqrt(norm2[i])
        out[0], out[1], out[2], out[3] = b, size, steps, queue.shape[0]
        return np.array(kept, dtype=np.int64)

    return art3


def _art3_passes(rows, x, count, tol, art3=None, shift=None):
    """``count`` ART3+ passes of ``x`` in place, with the work queue of a sweeper.

    The queue starts full, keeps the rows each pass moved, and is refilled
    when it empties; the pass that empties it certifies when no pass has
    moved x since the last refill.  ``shift`` is as in :func:`_sweeps`.
    Returns, per pass, the kept rows, the ``out`` array, whether it
    certifies and the iterate after it.
    """
    art3 = art3 or _kernels.art3_pass
    m = rows.A.shape[0]
    full = np.arange(m, dtype=np.int64)
    queue, moved, moves, passes = full, False, 0, []
    for k in range(count):
        if queue.shape[0] == 0:
            queue, moved = full, False
        delta = shift(k) if shift is not None else None
        if delta is not None:
            x += delta
            rows.path[0] += math.sqrt(delta @ delta)
        rows.path[2] = _kernels.screen_rtol(x.shape[0], moves + k + 1 + m)
        out = np.zeros(4)
        queue = art3(rows.A, rows, x, tol, out, queue)
        moves += queue.shape[0]
        moved = moved or queue.shape[0] > 0
        passes.append((queue.tolist(), out, not moved, x.copy()))
    return passes


BACKENDS = ["numpy", pytest.param("c", marks=needs_cc)]


@pytest.fixture
def backend(request, restore_backend):
    """Each screen test runs under both backends."""
    _kernels.set_backend(request.param)
    return request.param


def _planted_rows(seed, m=30, n=6, equalities=False):
    """Rows and unit box rows around a planted point, some sides infinite, and a start point.

    With ``equalities``, every fifteenth row is an equality through the point.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    az = A @ z
    slack = rng.uniform(0.01, 1.0, (2, m))
    lo, hi = az - slack[0], az + slack[1]
    side = rng.integers(3, size=m)
    lo[side == 1], hi[side == 2] = -np.inf, np.inf
    if equalities:
        lo[::15] = hi[::15] = az[::15]
    # the box: a unit row per column, one side infinite in every third column
    box_lo, box_hi = z - rng.uniform(0.1, 2.0, n), z + rng.uniform(0.1, 2.0, n)
    box_lo[::3], box_hi[1::3] = -np.inf, np.inf
    A = np.ascontiguousarray(np.vstack([A, np.eye(n)]))
    lo, hi = np.concatenate([lo, box_lo]), np.concatenate([hi, box_hi])
    return A, lo, hi, np.einsum("ij,ij->i", A, A), z + 3.0 * rng.standard_normal(n)


def _shifts(seed, n):
    """``shift`` for :func:`_sweeps`: x jumps before some sweeps, by up to 0.5 per coordinate,
    as a superiorization perturbation moves it."""
    rng = np.random.default_rng(seed)
    return {k: rng.uniform(-0.5, 0.5, n) for k in (5, 9, 10, 20, 30)}.get


def _assert_same_as_unscreened(backend, A, lo, hi, norm2, x0, count, lam, tol, shift=None):
    """Screened sweeps give bitwise the reference's iterates, moves, sums and certification.

    Returns the number of rows the screened sweeps evaluated and the number
    of row visits.
    """
    screened = _sweeps(_bind(A, lo, hi, norm2, x0), x0.copy(), count, lam, tol, shift)
    rows = _bind(A, lo, hi, norm2, x0)
    x = x0.copy()
    for k, ((maxv, moves, sums, _), xs) in enumerate(screened):
        delta = shift(k) if shift is not None else None
        if delta is not None:
            x += delta
        ref_maxv, ref_moves, ref_sums, _ = _result(rows, _unscreened_sweep(A, rows, x, lam, tol))
        assert xs.tobytes() == x.tobytes(), k
        assert (moves, sums) == (ref_moves, ref_sums), k
        assert (maxv <= tol) == (ref_maxv <= tol), k
        assert maxv <= ref_maxv
    return sum(r[0][3] for r in screened), count * A.shape[0]


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("tol", [1e-8, 0.0])
def test_screened_sweeps_equal_unscreened(backend, seed, tol):
    A, lo, hi, norm2, x0 = _planted_rows(seed)
    evaluated, visits = _assert_same_as_unscreened(backend, A, lo, hi, norm2, x0, 60, 1.5, tol)
    # the screen skips rows here, so the comparison tests it
    assert evaluated < 0.7 * visits


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("seed", [4, 5])
def test_screened_sweeps_follow_a_shifted_x(backend, seed):
    # the path sum takes each jump, and the coordinate path catches it up
    A, lo, hi, norm2, x0 = _planted_rows(seed)
    evaluated, visits = _assert_same_as_unscreened(backend, A, lo, hi, norm2, x0, 40, 1.5, 1e-8,
                                                   _shifts(seed, x0.shape[0]))
    assert evaluated < 0.8 * visits


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_screen_skips_a_slack_just_above_its_margin(backend):
    # probes -y0 + 2^-30 y1 <= c_j, then the mover y0 <= 0, from y = (1, 0),
    # tol 0, lam 1: y1 stays 0, and the mover steps y0 to 0 after the probes'
    # evaluation, so on the second sweep each probe's slack is exactly c_j.
    # A probe has two nonzero entries, so the path screen applies, with the
    # margin rel ((|a|_1 + |a|_2)(|x0|_2 + P) + |a|_2 P + |v| + |c_j|), about
    # 2^-30 (2 * 2 + 1 + 1) with |a|_2 = 1 (rounded), |x0|_2 = P = 1 and
    # |v| = 1 + c_j
    rel = _kernels.screen_rtol(2, 0)
    margin = rel * (2.0 * 2.0 + 1.0 + 1.0)
    c = margin * np.array([0.5, 0.9, 0.99, 1.01, 1.1, 2.0])
    A = np.ascontiguousarray([[-1.0, 2.0**-30]] * c.shape[0] + [[1.0, 0.0]])
    lo, hi = np.full(A.shape[0], -np.inf), np.append(c, 0.0)
    norm2 = np.ones(A.shape[0])
    x0 = np.array([1.0, 0.0])
    _assert_same_as_unscreened(backend, A, lo, hi, norm2, x0, 3, 1.0, 0.0)
    rows = _bind(A, lo, hi, norm2, x0)
    (_, first), (second, x), _ = _sweeps(rows, x0.copy(), 3, 1.0, 0.0)
    assert first.tolist() == [0.0, 0.0] and x.tolist() == [0.0, 0.0]
    # the three probes within their margin and the mover are evaluated, the
    # three beyond it skipped; nothing moves and the sweep certifies
    assert second[:2] == (0.0, 0) and second[3] == 4
    assert rows.screen[:3, 0].tolist() == (-c[:3]).tolist()
    assert rows.screen[3:6, 0].tolist() == (-1.0 - c[3:]).tolist()


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("kind", ["cspm", "art3+"])
def test_solves_equal_unscreened(backend, kind, monkeypatch, solves):
    # a superiorized solve over rows (for CSPM with an oracle constraint
    # among them), the box and the level: every iterate as with the
    # unscreened kernel, fewer projections
    A, lo, hi, norm2, x0 = _planted_rows(6, m=20, n=5)
    rows = [AffineConstraint(a, l, h) for a, l, h in zip(A[:20], lo[:20], hi[:20])]
    if kind == "cspm":
        ball = QuadraticFunction(np.eye(5), np.zeros(5), -8.0)  # |y|_2 <= 4
        rows = [*rows[:10], ball, *rows[10:]]
    box = Bounds(lo[20:], hi[20:])
    objective = QuadraticFunction(np.eye(5), np.ones(5))
    spec = SolverSpec(kind, sup=SuperiorizationConfig(N=2), max_sweeps=200)
    # the kernel, its unscreened reference, and the largest share of the
    # reference's projections the screened solve may make
    name, reference, share = {
        "cspm": ("cspm_sweep", _unscreened_sweep, 0.5),
        "art3+": ("art3_pass", _unscreened_art3(), 0.85),
    }[kind]
    runs = []
    for kernel in (getattr(_kernels, name), reference):
        monkeypatch.setattr(_kernels, name, kernel)
        out = cfp_solve(rows, x0, spec, bounds=box, objective=objective, t=6.0)
        runs.append((out, solves[-1].iterates))
    (out, iterates), (ref, ref_iterates) = runs
    assert [x.tobytes() for x in iterates] == [x.tobytes() for x in ref_iterates]
    assert (out.found, out.infeasibility_certified, out.sweeps, out.moves, out.obj_evals) == (
        ref.found, ref.infeasibility_certified, ref.sweeps, ref.moves, ref.obj_evals)
    assert out.sweeps > 10 and out.projections < share * ref.projections


def _assert_art3_same_as_unscreened(backend, A, lo, hi, norm2, x0, count, tol, shift=None):
    """Screened ART3+ passes give bitwise the reference's kept rows, iterates, sums and certification.

    Returns the number of rows the screened passes evaluated, the number of
    queued rows, and the reference's steps (see :func:`_unscreened_art3`).
    """
    screened = _art3_passes(_bind(A, lo, hi, norm2, x0), x0.copy(), count, tol, shift=shift)
    branches = []
    reference = _art3_passes(_bind(A, lo, hi, norm2, x0), x0.copy(), count, tol,
                             _unscreened_art3(branches), shift)
    for k, (ours, ref) in enumerate(zip(screened, reference)):
        (kept, out, certified, x), (ref_kept, ref_out, ref_certified, ref_x) = ours, ref
        assert x.tobytes() == ref_x.tobytes(), k
        assert (kept, certified) == (ref_kept, ref_certified), k
        assert out[:3].tobytes() == ref_out[:3].tobytes(), k
    return sum(p[1][3] for p in screened), sum(p[1][3] for p in reference), branches


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
# an equality row is within tol 0 of no computed point, so only tol > 0 certifies with them
@pytest.mark.parametrize("tol, equalities", [(1e-8, False), (0.0, False), (1e-8, True)])
def test_screened_art3_passes_equal_unscreened(backend, seed, tol, equalities):
    A, lo, hi, norm2, x0 = _planted_rows(seed, equalities=equalities)
    evaluated, queued, steps = _assert_art3_same_as_unscreened(backend, A, lo, hi, norm2, x0, 80,
                                                               tol)
    # rows reflect and take the midline, and the screen skips queued rows,
    # so the comparison tests both
    assert {"reflect", "midline"} <= set(steps)
    assert evaluated < 0.2 * queued


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("seed", [4, 5])
def test_screened_art3_passes_follow_a_shifted_x(backend, seed):
    # x jumps as in test_screened_sweeps_follow_a_shifted_x
    A, lo, hi, norm2, x0 = _planted_rows(seed)
    evaluated, queued, _ = _assert_art3_same_as_unscreened(backend, A, lo, hi, norm2, x0, 60,
                                                           1e-8, _shifts(seed, x0.shape[0]))
    assert evaluated < 0.4 * queued


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_art3_screen_skips_a_slack_just_above_its_margin(backend):
    # probes -y0 + 2^-30 y1 <= c_j, then the mover y0 = 0, from y = (1, 0),
    # tol 0: the mover's midline step takes y0 to 0 after the probes'
    # evaluation, the next pass finds the mover satisfied, and on the refill
    # pass each probe's slack is exactly c_j, with the margin of the CSPM case
    rel = _kernels.screen_rtol(2, 0)
    margin = rel * (2.0 * 2.0 + 1.0 + 1.0)
    c = margin * np.array([0.5, 0.9, 0.99, 1.01, 1.1, 2.0])
    A = np.ascontiguousarray([[-1.0, 2.0**-30]] * c.shape[0] + [[1.0, 0.0]])
    lo, hi = np.append(np.full(c.shape[0], -np.inf), 0.0), np.append(c, 0.0)
    norm2 = np.ones(A.shape[0])
    x0 = np.array([1.0, 0.0])
    _assert_art3_same_as_unscreened(backend, A, lo, hi, norm2, x0, 4, 0.0)
    rows = _bind(A, lo, hi, norm2, x0)
    first, second, third, _ = _art3_passes(rows, x0.copy(), 4, 0.0)
    assert first[0] == [6] and first[3].tolist() == [0.0, 0.0] and first[1][3] == 7
    assert second[0] == [] and not second[2] and second[1][3] == 1
    # the three probes within their margin and the mover are evaluated, the
    # three beyond it skipped; nothing moves and the pass certifies
    kept, out, certified, x = third
    assert (kept, certified, out[3]) == ([], True, 4) and x.tolist() == [0.0, 0.0]
    assert rows.screen[:3, 0].tolist() == (-c[:3]).tolist()
    assert rows.screen[3:6, 0].tolist() == (-1.0 - c[3:]).tolist()


def _singleton_rows(seed):
    """:func:`_planted_rows`, with each box row scaled by a factor of either sign.

    So the rows with one nonzero entry have ``|a_ij|`` other than 1.
    """
    A, lo, hi, norm2, x0 = _planted_rows(seed)
    n = x0.shape[0]
    m = A.shape[0] - n
    scale = np.random.default_rng(seed).uniform(0.5, 3.0, n) * np.array([1.0, -1.0] * n)[:n]
    A[m:] *= scale[:, None]
    box_lo, box_hi = lo[m:] * scale, hi[m:] * scale
    lo[m:], hi[m:] = np.where(scale > 0, box_lo, box_hi), np.where(scale > 0, box_hi, box_lo)
    return A, lo, hi, np.einsum("ij,ij->i", A, A), x0


def _path_screen_only(rows):
    """``rows`` with every row on the path screen, as if no row had one nonzero entry."""
    rows.coord[:] = -1
    return rows


def test_rows_find_the_column_of_each_single_nonzero_row():
    A = np.array([[0.0, -2.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [-0.0, 0.0, 3.0]])
    ones = np.ones(4)
    rows = _bind(A, -ones, ones, ones, np.zeros(3))
    # -0.0 is a zero; an empty row has no column to read
    assert rows.coord.tolist() == [1, -1, -1, 2]
    assert rows.q.tolist() == rows.xend.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("seed", [5, 7])
@pytest.mark.parametrize("shifted", [False, True])
def test_coordinate_screen_sweeps_equal_unscreened(backend, seed, shifted):
    A, lo, hi, norm2, x0 = _singleton_rows(seed)
    shift = _shifts(seed, x0.shape[0]) if shifted else None
    evaluated, _ = _assert_same_as_unscreened(backend, A, lo, hi, norm2, x0, 40, 1.5, 1e-8, shift)
    # the path screen alone gives the same iterates and evaluates more rows
    path_only = _path_screen_only(_bind(A, lo, hi, norm2, x0))
    path_sweeps = _sweeps(path_only, x0.copy(), 40, 1.5, 1e-8, shift)
    assert evaluated < sum(result[3] for result, _ in path_sweeps)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("seed", [5, 7])
@pytest.mark.parametrize("shifted", [False, True])
def test_coordinate_screen_art3_passes_equal_unscreened(backend, seed, shifted):
    A, lo, hi, norm2, x0 = _singleton_rows(seed)
    shift = _shifts(seed, x0.shape[0]) if shifted else None
    evaluated, _, _ = _assert_art3_same_as_unscreened(backend, A, lo, hi, norm2, x0, 60, 1e-8,
                                                      shift)
    path_only = _path_screen_only(_bind(A, lo, hi, norm2, x0))
    path_passes = _art3_passes(path_only, x0.copy(), 60, 1e-8, shift=shift)
    assert evaluated < sum(p[1][3] for p in path_passes)


def _untouched_box_row():
    """A box row y0 <= 1, its dense twin y0 + 2^-30 y2 <= 1, and the mover y1 <= -10, at y = 0.

    y2 stays 0, so the twin's value is the box row's, but it has two
    nonzero entries and so the path screen.
    """
    A = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 2.0**-30], [0.0, 1.0, 0.0]])
    lo, hi = np.full(3, -np.inf), np.array([1.0, 1.0, -10.0])
    return A, lo, hi, np.einsum("ij,ij->i", A, A), np.zeros(3)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_coordinate_screen_skips_a_box_row_whose_coordinate_is_untouched(backend):
    # the mover steps y1 to -10, then a jump takes y1 to 90 and the mover
    # steps it back: x travels 210 along y1 and not at all along y0, so the
    # box row stays skipped while the path screen evaluates its twin
    A, lo, hi, norm2, x0 = _untouched_box_row()
    shift = {2: np.array([0.0, 100.0, 0.0])}.get
    _assert_same_as_unscreened(backend, A, lo, hi, norm2, x0, 3, 1.0, 1e-8, shift)
    rows = _bind(A, lo, hi, norm2, x0)
    sweeps = _sweeps(rows, x0.copy(), 3, 1.0, 1e-8, shift)
    assert [result[3] for result, _ in sweeps] == [3, 2, 2]
    assert [result[1] for result, _ in sweeps] == [1, 0, 1]
    assert rows.screen[0, :2].tolist() == [-1.0, 0.0]  # from the first sweep
    assert rows.q.tolist() == [0.0, 210.0, 0.0]
    assert rows.xend.tolist() == sweeps[-1][1].tolist() == [0.0, -10.0, 0.0]


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_coordinate_screen_skips_an_untouched_box_row_in_art3(backend):
    # the mover reflects y1 to -20 and is found satisfied on the next pass;
    # on the refill pass only the twin is evaluated, and the pass certifies
    A, lo, hi, norm2, x0 = _untouched_box_row()
    _assert_art3_same_as_unscreened(backend, A, lo, hi, norm2, x0, 3, 1e-8)
    rows = _bind(A, lo, hi, norm2, x0)
    passes = _art3_passes(rows, x0.copy(), 3, 1e-8)
    assert [(kept, out[3], certified) for kept, out, certified, _ in passes] == [
        ([2], 3, False), ([], 1, False), ([], 1, True)]
    assert rows.q.tolist() == [0.0, 20.0, 0.0]


def _coordinate_probes(c):
    """Probes -y0 <= c_j, then the mover y0 <= 0 (or y0 = 0 for ART3+), all single-entry rows."""
    A = np.ascontiguousarray([[-1.0, 0.0]] * c.shape[0] + [[1.0, 0.0]])
    return A, np.full(A.shape[0], -np.inf), np.append(c, 0.0), np.ones(A.shape[0])


# From y = (1, 0), tol 0: the first call adds |x0| = 1 to q[0], the probes
# record Q_0i = 1, and the mover's step adds 1 more, taking y0 to 0.  At the
# probes' next evaluation each slack is exactly c_j, and the margin is
# rel (|a| Q_0 + |v| + |c_j|) = rel (2 + 1 + 2 c_j), about 3 rel.
COORDINATE_MARGIN = 3.0 * _kernels.screen_rtol(2, 0)
COORDINATE_SLACKS = COORDINATE_MARGIN * np.array([0.5, 0.9, 0.99, 1.01, 1.1, 2.0])


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_coordinate_screen_skips_a_slack_just_above_its_margin(backend):
    c = COORDINATE_SLACKS
    A, lo, hi, norm2 = _coordinate_probes(c)
    x0 = np.array([1.0, 0.0])
    _assert_same_as_unscreened(backend, A, lo, hi, norm2, x0, 3, 1.0, 0.0)
    rows = _bind(A, lo, hi, norm2, x0)
    (_, first), (second, x), _ = _sweeps(rows, x0.copy(), 3, 1.0, 0.0)
    assert first.tolist() == [0.0, 0.0] and x.tolist() == [0.0, 0.0]
    # the three probes within the margin and the mover are evaluated, the
    # three beyond it skipped; nothing moves and the sweep certifies
    assert second[:2] == (0.0, 0) and second[3] == 4
    assert rows.screen[:3, :2].tolist() == [[-cj, 2.0] for cj in c[:3]]
    assert rows.screen[3:6, :2].tolist() == [[-1.0 - cj, 1.0] for cj in c[3:]]


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_coordinate_screen_skips_a_slack_just_above_its_margin_in_art3(backend):
    # the mover is the equality y0 = 0: its midline step takes y0 to 0, the
    # next pass finds it satisfied, and the refill pass reads the probes
    c = COORDINATE_SLACKS
    A, lo, hi, norm2 = _coordinate_probes(c)
    lo[-1] = 0.0
    x0 = np.array([1.0, 0.0])
    _assert_art3_same_as_unscreened(backend, A, lo, hi, norm2, x0, 4, 0.0)
    rows = _bind(A, lo, hi, norm2, x0)
    first, second, third, _ = _art3_passes(rows, x0.copy(), 4, 0.0)
    assert first[0] == [6] and first[3].tolist() == [0.0, 0.0] and first[1][3] == 7
    assert second[0] == [] and not second[2] and second[1][3] == 1
    kept, out, certified, x = third
    assert (kept, certified, out[3]) == ([], True, 4) and x.tolist() == [0.0, 0.0]
    assert rows.screen[:3, :2].tolist() == [[-cj, 2.0] for cj in c[:3]]
    assert rows.screen[3:6, :2].tolist() == [[-1.0 - cj, 1.0] for cj in c[3:]]


@needs_cc
@pytest.mark.parametrize("kernel", ["cspm", "art3"])
def test_coordinate_path_backend_agreement(kernel, restore_backend):
    # after every call, bit for bit: x, the coordinate path q, xend, the
    # screen state and the path sum
    A, lo, hi, norm2, x0 = _singleton_rows(9)
    shift = _shifts(9, x0.shape[0])
    full = np.arange(A.shape[0], dtype=np.int64)
    results = {}
    for backend in ("c", "numpy"):
        _kernels.set_backend(backend)
        rows, x, moves, states = _bind(A, lo, hi, norm2, x0), x0.copy(), 0, []
        for k in range(40):
            delta = shift(k)
            if delta is not None:
                x += delta
                rows.path[0] += math.sqrt(delta @ delta)
            rows.path[2] = _kernels.screen_rtol(x.shape[0], moves + k + 1 + A.shape[0])
            if kernel == "cspm":
                moves += _kernels.cspm_sweep(A, rows, x, 1.5, 1e-8)[1]
            else:
                moves += _kernels.art3_pass(A, rows, x, 1e-8, rows.out, full).shape[0]
            states.append([a.tobytes() for a in (x, rows.q, rows.xend, rows.screen, rows.path,
                                                 rows.out)])
        results[backend] = states
    assert moves > 0
    assert results["c"] == results["numpy"]


@needs_cc
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cspm_step_sums_backend_agreement(seed, restore_backend):
    rows, x0 = _random_system(seed)
    A = np.ascontiguousarray([r.a for r in rows])
    lo, hi = np.array([r.lo for r in rows]), np.array([r.hi for r in rows])
    norm2 = np.array([r.norm2 for r in rows])
    results = {}
    for backend in ("c", "numpy"):
        _kernels.set_backend(backend)
        x = x0.copy()
        passes = [(result, xk.tobytes())
                  for result, xk in _sweeps(_bind(A, lo, hi, norm2, x0), x, 50, 1.5, 1e-8)]
        results[backend] = passes
    assert sum(result[1] for result, _ in results["c"]) > 0
    # every sweep's iterate, violation, moves, sums and rows evaluated, bit
    # for bit: repr tells -0.0 from 0.0
    assert repr(results["c"]) == repr(results["numpy"])


@needs_cc
@pytest.mark.parametrize("seed", [3, 4])
def test_art3_backend_agreement(seed, restore_backend):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(15):
        a = rng.standard_normal(5)
        lo = rng.standard_normal()
        rows.append(AffineConstraint.interval(a, lo, lo + 1.0 + abs(rng.standard_normal())))
    x0 = rng.standard_normal(5) * 3.0
    results = {}
    for backend in ("c", "numpy"):
        _kernels.set_backend(backend)
        results[backend] = cfp_solve(rows, x0, SolverSpec("art3+", max_sweeps=500))
    a, b = results["c"], results["numpy"]
    assert a.found == b.found
    assert a.sweeps == b.sweeps
    assert a.projections == b.projections
    assert a.x.tobytes() == b.x.tobytes()


@needs_cc
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_art3_step_sums_backend_agreement(seed, restore_backend):
    # one-sided rows always reflect, equality rows always take the midline,
    # and slabs do either
    rows, x0 = _random_system(seed)
    A = np.ascontiguousarray([r.a for r in rows])
    lo, hi = np.array([r.lo for r in rows]), np.array([r.hi for r in rows])
    norm2 = np.array([r.norm2 for r in rows])
    queue = np.arange(len(rows), dtype=np.int64)
    results = {}
    for backend in ("c", "numpy"):
        _kernels.set_backend(backend)
        x, passes, bound, moves = x0.copy(), [], _bind(A, lo, hi, norm2, x0), 0
        for k in range(50):
            bound.path[2] = _kernels.screen_rtol(x.shape[0], moves + k + 1 + len(rows))
            sums = np.zeros(4)
            kept = _kernels.art3_pass(A, bound, x, 1e-8, sums, queue)
            moves += kept.shape[0]
            passes.append((kept.tolist(), sums.tobytes()))
        results[backend] = (x, passes)
    (xa, pa), (xb, pb) = results["c"], results["numpy"]
    assert sum(len(p[0]) for p in pa) > 0
    assert xa.tobytes() == xb.tobytes()
    assert pa == pb


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_art3_pass_validates_the_sums_array(backend):
    A = np.array([[1.0]])
    lo, hi, norm2 = np.array([0.0]), np.array([2.0]), np.array([1.0])
    queue = np.array([0], dtype=np.int64)
    frozen = np.zeros(4)
    frozen.setflags(write=False)
    # out holds the three step sums and the number of rows evaluated
    for bad, error in ((np.zeros(3), ValueError), (frozen, ValueError),
                       (np.zeros(4, dtype=np.float32), TypeError)):
        x = np.array([5.0])
        with pytest.raises(error):
            _kernels.art3_pass(A, _bind(A, lo, hi, norm2, x), x, 1e-8, bad, queue)
        assert x[0] == 5.0


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("index", [-1, 2])
def test_art3_pass_rejects_a_queue_index_outside_the_rows(backend, index):
    # -1 is no row counted from the end: the pass raises before it touches
    # x, the screen state, the path sum or the coordinate path
    A = np.array([[1.0], [-1.0]])
    lo, hi, norm2 = np.array([0.0, -2.0]), np.array([2.0, 0.0]), np.array([1.0, 1.0])
    x = np.array([5.0])
    rows = _bind(A, lo, hi, norm2, x)
    out = np.full(4, -1.0)
    state = (x, rows.screen, rows.path, rows.q, rows.xend, out)
    before = [a.copy() for a in state]
    with pytest.raises(IndexError):
        _kernels.art3_pass(A, rows, x, 1e-8, out, np.array([0, index], dtype=np.int64))
    for a, b in zip(state, before):
        assert a.tobytes() == b.tobytes()


@needs_cc
def test_c_art3_pass_takes_any_out_and_queue_on_one_binding(restore_backend):
    # a binding keeps its converted arguments and copies each queue into a
    # buffer of its own; a new out, a longer queue and a read-only one must
    # each pass on c as they do on numpy
    A = np.array([[1.0], [-1.0]])
    lo, hi, norm2 = np.array([0.0, -2.0]), np.array([2.0, 0.0]), np.array([1.0, 1.0])
    frozen = np.array([1, 0, 1, 0, 1], dtype=np.int64)
    frozen.setflags(write=False)
    queues = [np.array([0], dtype=np.int64), frozen, np.array([1, 1, 0], dtype=np.int64)]
    results = {}
    for backend in ("c", "numpy"):
        _kernels.set_backend(backend)
        x = np.array([5.0])
        rows = _bind(A, lo, hi, norm2, x)
        passes = []
        for k, queue in enumerate(queues):
            rows.path[0] += abs(5.0 + k - x[0])  # the jump, as a sweeper counts it
            x[0] = 5.0 + k
            out = np.full(4, -1.0)
            kept = _kernels.art3_pass(A, rows, x, 1e-8, out, queue)
            passes.append((kept.tolist(), out.tolist(), x.tolist()))
        results[backend] = passes
    assert results["c"] == results["numpy"]
    assert [kept for kept, _, _ in results["c"]] == [[0], [1], [1]]
    _kernels.set_backend("c")
    with pytest.raises(ValueError):
        _kernels.art3_pass(A, rows, x, 1e-8, np.zeros(3), queues[0])


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_kernels_update_in_place_and_validate(backend):
    A = np.array([[1.0]])
    lo, hi, norm2 = np.array([0.0]), np.array([2.0]), np.array([1.0])
    x = np.array([5.0])
    rows = _bind(A, lo, hi, norm2, x)
    result = _result(rows, _kernels.cspm_sweep(A, rows, x, 1.0, 1e-8))
    assert result == (3.0, 1, (3.0 * (2.0 + 1e-8),) * 2 + (3.0,), 1)
    assert x[0] == 2.0 and rows.path[0] == 3.0
    x, sums = np.array([5.0]), np.zeros(4)
    queued = _bind(A, lo, hi, norm2, x)
    kept = _kernels.art3_pass(A, queued, x, 1e-8, sums, np.array([0], dtype=np.int64))
    assert list(kept) == [0] and x[0] == 1.0 and queued.path[0] == 4.0
    assert sums == pytest.approx([4.0 * (2.0 + 1e-8), 4.0 * (2.0 + 1e-8), 4.0, 1.0])
    with pytest.raises(TypeError):
        _kernels.cspm_sweep(A, rows, np.array([5.0], dtype=np.float32), 1.0, 1e-8)
    I2, ones = np.eye(2), np.ones(2)
    with pytest.raises(TypeError):
        _kernels.cspm_sweep(I2, _bind(I2, -ones, ones, ones, ones), np.zeros(4)[::2], 1.0, 1e-8)
    with pytest.raises(TypeError):
        _bind(np.asfortranarray(np.ones((2, 2))), -ones, ones, ones, ones)
    with pytest.raises(ValueError):
        _bind(I2, -ones, ones, np.ones(3), ones)
    with pytest.raises(ValueError):
        _kernels.Rows(A, lo, hi, norm2, np.zeros(2))
    frozen = np.array([5.0])
    frozen.setflags(write=False)
    with pytest.raises(ValueError):
        _kernels.cspm_sweep(A, rows, frozen, 1.0, 1e-8)
    with pytest.raises(ValueError):
        _kernels.cspm_sweep(A, rows, np.array([5.0, 0.0]), 1.0, 1e-8)
    with pytest.raises(ValueError):
        _kernels.cspm_sweep(A.copy(), rows, np.array([5.0]), 1.0, 1e-8)
    x = np.array([5.0])
    with pytest.raises(IndexError):
        _kernels.art3_pass(A, queued, x, 1e-8, sums, np.array([0, 1], dtype=np.int64))
    with pytest.raises(TypeError):
        _kernels.art3_pass(A, queued, x, 1e-8, sums, np.array([0], dtype=np.int32))
    with pytest.raises(ValueError):
        _kernels.art3_pass(A.copy(), queued, x, 1e-8, sums, np.array([0], dtype=np.int64))
    assert x[0] == 5.0


def test_rows_reject_an_empty_interval():
    # an ART3+ midline step off an empty interval could move x against its
    # normal, which the screen's path sum cannot take
    A, ones = np.eye(2), np.ones(2)
    for lo in (np.array([0.0, 2.0]), np.array([0.0, np.nan])):
        with pytest.raises(ValueError, match="lo <= hi"):
            _bind(A, lo, ones, ones, ones)
    _bind(A, ones, ones, ones, ones)  # an equality row is an interval


@needs_cc
def test_c_build_failure_reports_compiler_stderr(restore_backend, tmp_path, monkeypatch):
    bad = tmp_path / "_kernels.c"
    bad.write_text("int cfp_cspm_sweep(;\n")
    monkeypatch.setattr(_kernels, "_SOURCE", bad)
    monkeypatch.setattr(_kernels, "_c_outcome", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with pytest.raises(_kernels.CBuildError, match="<stdin>:1"):
        _kernels.set_backend("c")
    with pytest.warns(RuntimeWarning, match="<stdin>:1"):
        _kernels.set_backend("auto")
    assert _kernels.active_backend() == "numpy"
    assert list((tmp_path / "cache" / "cfpopt").iterdir()) == []  # no partial library


@needs_cc
def test_c_build_failure_is_one_line_and_keeps_the_whole_stderr(restore_backend, tmp_path,
                                                                  monkeypatch):
    bad = tmp_path / "_kernels.c"
    bad.write_text("int cfp_cspm_sweep(;\nint cfp_art3_pass(;\n")
    monkeypatch.setattr(_kernels, "_SOURCE", bad)
    monkeypatch.setattr(_kernels, "_c_outcome", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with pytest.raises(_kernels.CBuildError) as exc:
        _kernels.set_backend("c")
    stderr = exc.value.stderr
    assert "\n" not in str(exc.value) and str(exc.value).endswith(stderr.splitlines()[0])
    assert "<stdin>:1" in stderr and "<stdin>:2" in stderr
    with pytest.warns(RuntimeWarning) as record:
        _kernels.set_backend("auto")
    assert stderr.strip() in str(record[0].message)


def test_set_backend_rejects_unknown(restore_backend):
    with pytest.raises(ValueError):
        _kernels.set_backend("fortran")


def test_set_backend_rejects_an_empty_name(restore_backend):
    # only the environment variable reads empty as auto
    with pytest.raises(ValueError, match="unknown backend ''"):
        _kernels.set_backend("")


@pytest.fixture
def unresolved_backend(restore_backend, monkeypatch):
    """The state of a process that has imported the package and run no kernel."""
    monkeypatch.setattr(_kernels, "_backend", None)
    return monkeypatch


@pytest.mark.parametrize("value, want", [
    ("numpy", "numpy"), (" NumPy ", "numpy"), ("", "auto"), ("auto", "auto"), (None, "auto"),
], ids=["numpy", "padded", "empty", "auto", "unset"])
def test_env_value_is_resolved_at_first_use(unresolved_backend, value, want):
    if value is None:
        unresolved_backend.delenv("CFPOPT_BACKEND", raising=False)
    else:
        unresolved_backend.setenv("CFPOPT_BACKEND", value)
    assert _kernels._backend is None
    if want == "auto":  # c when it runs here, else numpy
        want = _kernels.available_backends()[0]
    assert _kernels.active_backend() == want
    assert _kernels._backend[0] == want


def test_set_backend_before_first_use_reads_no_env(unresolved_backend):
    unresolved_backend.setenv("CFPOPT_BACKEND", "gpu")
    _kernels.set_backend("numpy")
    assert _kernels.active_backend() == "numpy"


def test_rejected_env_value_leaves_the_backend_unresolved(unresolved_backend):
    # every first use raises until the variable is mended; a kernel call too
    unresolved_backend.setenv("CFPOPT_BACKEND", "gpu")
    message = "CFPOPT_BACKEND='gpu' is not a backend; choices: ('c', 'numpy') or 'auto'"
    with pytest.raises(ValueError) as exc:
        _kernels.active_backend()
    assert str(exc.value) == message
    assert _kernels._backend is None
    rows, x0 = _random_system(0)
    with pytest.raises(ValueError) as exc:
        cfp_solve(rows, x0, SolverSpec(max_sweeps=5))
    assert str(exc.value) == message
    unresolved_backend.setenv("CFPOPT_BACKEND", "numpy")
    assert _kernels.active_backend() == "numpy"


@needs_cc
def test_env_flag_selects_backend():
    code = "import cfpopt; print(cfpopt.active_backend())"
    for want in ("numpy", "c"):
        env = dict(os.environ, CFPOPT_BACKEND=want)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == want


def test_env_flag_rejects_unknown():
    # importing reads no environment variable; the first use rejects the value
    code = ("import cfpopt\n"
            "try:\n    cfpopt.active_backend()\n"
            "except ValueError as exc:\n    print(exc)")
    env = dict(os.environ, CFPOPT_BACKEND="gpu")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "CFPOPT_BACKEND='gpu' is not a backend; choices: ('c', 'numpy') or 'auto'"


@needs_cc
def test_c_build_keeps_other_versions_and_loads_without_compiling(tmp_path, monkeypatch):
    # a change and its parent that share a cache run in turns: building the
    # second version must not delete the first's library, and a process of
    # the first version loads it again without compiling, without touching
    # the cache and without cffi's C parser
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cc = shutil.which("cc")
    first = _kernels._build(cc)
    changed = tmp_path / "_kernels.c"
    changed.write_bytes(_kernels._SOURCE.read_bytes() + b"\n/* another version */\n")
    monkeypatch.setattr(_kernels, "_SOURCE", changed)
    second = _kernels._build(cc)
    assert second != first and first.exists() and second.exists()

    def listing():
        return sorted((p.name, p.stat().st_mtime_ns) for p in first.parent.iterdir())

    before = listing()
    # a compiler that only leaves a mark
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    fake_cc = bin_dir / "cc"
    fake_cc.write_text(f"#!/bin/sh\ntouch {tmp_path / 'compiled'}\nexit 1\n")
    fake_cc.chmod(0o755)
    code = ("import sys, cfpopt; print(cfpopt.active_backend(), "
            "'cffi' in sys.modules, 'pycparser' in sys.modules)")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), CFPOPT_BACKEND="c",
               PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["c", "False", "False"]
    assert not (tmp_path / "compiled").exists()
    assert listing() == before


@needs_cc
def test_c_backend_runs_without_cffi(tmp_path):
    # the library loads through the standard library's ctypes
    code = ("import sys; sys.modules['cffi'] = None; import cfpopt; "
            "print(cfpopt.active_backend())")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    env.pop("CFPOPT_BACKEND", None)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "c"


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_cspm_sweep_semantics_by_hand(backend):
    # one slab 0 <= x <= 2 from x=5 with lam=1: exact projection to 2
    A = np.array([[1.0]])
    lo, hi, norm2 = np.array([0.0]), np.array([2.0]), np.array([1.0])

    def sweep(x, lam):
        rows = _bind(A, lo, hi, norm2, x)
        return _result(rows, _kernels.cspm_sweep(A, rows, x, lam, 1e-8))

    x = np.array([5.0])
    maxv, moves, sums, evaluated = sweep(x, 1.0)
    assert maxv == pytest.approx(3.0)
    assert moves == evaluated == 1
    assert x == pytest.approx([2.0])
    # the step sums: mu = 3 off the upper face x <= 2 (beta = 2, |h| = 1),
    # and mu = 1.5 (lam 0.5) off the lower face -x <= 0 from x = -3
    assert sums == pytest.approx((3.0 * (2.0 + 1e-8), 3.0 * (2.0 + 1e-8), 3.0))
    _, _, sums, _ = sweep(np.array([-3.0]), 0.5)
    assert sums == pytest.approx((1.5 * 1e-8, 1.5 * 1e-8, 1.5), rel=1e-12, abs=0)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_art3_pass_reflect_and_midline(backend):
    A = np.array([[1.0]])
    lo, hi, norm2 = np.array([0.0]), np.array([2.0]), np.array([1.0])
    sums = np.zeros(4)

    def art3(x):
        return _kernels.art3_pass(A, _bind(A, lo, hi, norm2, x), x, 1e-8, sums,
                                  np.array([0], dtype=np.int64))

    # overshoot beyond the width: midline projection to 1
    x = np.array([5.0])
    kept = art3(x)
    assert list(kept) == [0]
    assert x == pytest.approx([1.0])
    assert sums == pytest.approx([4.0 * (2.0 + 1e-8), 4.0 * (2.0 + 1e-8), 4.0, 1.0])
    # small overshoot: reflect across the upper face
    x = np.array([2.5])
    art3(x)
    assert x == pytest.approx([1.5])
    assert sums == pytest.approx([1.0 * (2.0 + 1e-8), 1.0 * (2.0 + 1e-8), 1.0, 1.0])
    # satisfied row is dropped and untouched
    x = np.array([1.0])
    kept = art3(x)
    assert kept.shape[0] == 0
    assert x == pytest.approx([1.0])
    assert list(sums) == [0.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("backend", ["numpy", pytest.param("c", marks=needs_cc)])
def test_art3_pass_step_sums_by_hand(backend, restore_backend):
    _kernels.set_backend(backend)
    tol = 1e-8
    queue = np.array([0], dtype=np.int64)

    def art3(a, lo, hi, x):
        a = np.array([a])
        x, sums = np.array(x), np.zeros(4)
        rows = _bind(a, np.array([lo]), np.array([hi]), np.array([a[0] @ a[0]]), x)
        kept = _kernels.art3_pass(a, rows, x, tol, sums, queue)
        assert list(kept) == [0] and sums[3] == 1.0
        return x, sums[:3]

    # the slab 0 <= 3 y0 + 4 y1 <= 10 (|a| = 5); each step moves x by -coef * h,
    # h = a off the upper face (beta = 10), h = -a off the lower one (beta = 0)
    a = [3.0, 4.0]
    # upper face, over by 5 <= width: reflect, coef = 2 * 5 / 25
    x, sums = art3(a, 0.0, 10.0, [1.8, 2.4])
    assert x == pytest.approx([0.6, 0.8])
    assert sums == pytest.approx([0.4 * (10.0 + tol), 0.4 * (10.0 + tol), 0.4 * 5.0])
    # upper face, over by 15 > width: midline, coef = (25 - 5) / 25
    x, sums = art3(a, 0.0, 10.0, [3.0, 4.0])
    assert x == pytest.approx([0.6, 0.8])
    assert sums == pytest.approx([0.8 * (10.0 + tol), 0.8 * (10.0 + tol), 0.8 * 5.0])
    # lower face, under by 5: reflect, coef = 2 * 5 / 25, beta = -lo = 0
    x, sums = art3(a, 0.0, 10.0, [-0.6, -0.8])
    assert x == pytest.approx([0.6, 0.8])
    assert sums == pytest.approx([0.4 * tol, 0.4 * tol, 0.4 * 5.0])
    # lower face, under by 15: midline, coef = (5 + 15) / 25
    x, sums = art3(a, 0.0, 10.0, [-1.8, -2.4])
    assert x == pytest.approx([0.6, 0.8])
    assert sums == pytest.approx([0.8 * tol, 0.8 * tol, 0.8 * 5.0])
    # a lower face with beta = -lo < 0: the reflection off 4 <= a . y
    x, sums = art3(a, 4.0, 10.0, [0.0, 0.0])
    assert x == pytest.approx([0.96, 1.28])
    assert sums == pytest.approx([0.32 * (-4.0 + tol), 0.32 * (4.0 + tol), 0.32 * 5.0])
    # the equality row a . y = 5 always takes the midline: from below with
    # coef 0.2 off -a . y <= -5, from above with coef 0.8 off a . y <= 5
    x, sums = art3(a, 5.0, 5.0, [0.0, 0.0])
    assert x == pytest.approx([0.6, 0.8])
    assert sums == pytest.approx([0.2 * (-5.0 + tol), 0.2 * (5.0 + tol), 0.2 * 5.0])
    x, sums = art3(a, 5.0, 5.0, [3.0, 4.0])
    assert x == pytest.approx([0.6, 0.8])
    assert sums == pytest.approx([0.8 * (5.0 + tol), 0.8 * (5.0 + tol), 0.8 * 5.0])
