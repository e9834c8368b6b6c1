"""Hot sweep kernels and the QPS scan: a compiled C backend and its pure-numpy twin.

The sequential projection sweeps are Gauss-Seidel style (each row projection
sees the updates of the previous rows), so they cannot be vectorized; the
row loop is the hot spot on packed affine systems.  Two calls run it over
the rows of a :class:`Rows` binding, and update ``x`` in place:

* ``cspm_sweep``: one full cyclic pass of relaxed projections onto the slabs
  ``lo_i <= A_i . x <= hi_i``; returns the largest violation among the rows
  it evaluated and the number of rows that moved ``x``.
* ``art3_pass``: one pass of the automatic-relaxation rule over a work queue
  of row indices (reflect when the overshoot is at most the interval width,
  project onto the midline hyperplane when it is larger); returns the
  indices that were violated at their visit.

Both write the three sums over the moved rows that the emptiness test of
:mod:`cfpopt.feasibility` aggregates, then the number of rows they
evaluated, to ``out[:4]``: ``cspm_sweep`` to the binding's own ``out``,
``art3_pass`` to the array it is given.  Both screen their rows: a row that
the state kept in the binding proves satisfied (see :func:`screen_rtol`) is
skipped, with the same iterate, moves, kept rows and sums as a pass that
evaluates every row.  A row with one nonzero entry is screened by how far
its own coordinate has moved, any other row by the length of the solve's
whole path (see :class:`Rows`).

A third call, ``qps_scan``, reads QPS text for :mod:`cfpopt.qps`: the lines
of a block up to the next section header, with the values of the COLUMNS,
RHS, RANGES and quadratic entries converted (exactly, to the value Python's
``float`` reads) and the distinct name tokens of the call numbered through
a small hash table (see :class:`QpsScan`).  It refuses what is not plain,
and the reader's Python path reads that.  Only ``c`` has a scan: under
``numpy`` it refuses every line, so the Python path, the reference, reads
the whole text.

Each call validates its arguments once for both backends, then calls the
active backend's raw function: ``cfp_cspm_sweep``, ``cfp_art3_pass`` or
``cfp_qps_scan`` of ``_kernels.c``, or its twin ``_cspm_sweep_numpy``,
``_art3_pass_numpy`` or ``_qps_scan_numpy``.  A sweep's twin takes its C
function's arguments, with arrays where C takes pointers, returns what C
returns, and computes the same bits: the same operations in the same order,
every dot product summed left to right from 0.0 as ``row_dot`` sums it.

Backends:

* ``c`` runs the functions of ``_kernels.c``.  On first use the package
  compiles that file with the C compiler ``cc`` found on ``PATH`` (flags in
  ``_CFLAGS``: ``-O2 -ffp-contract=off``, no fast-math) into
  ``${XDG_CACHE_HOME:-~/.cache}/cfpopt/``, under a file name keyed by a
  crc32 of the source and the flags, and loads it with the standard
  library's ``ctypes``, so the backend needs numpy and ``cc`` only.  Later
  processes load the cached library.  Each source version keeps its own
  library (about 15 KB), so a few versions run in turns do not rebuild
  each other's; the cache never deletes one.
* ``numpy`` is the reference the tests hold ``c`` to, and the fallback.

The calls accept only C-contiguous float64 arrays (int64 for the queue),
and ``x`` must be writable.  A ``Rows`` binding validates its arrays once
and keeps the active backend's arguments for them, and for the last ``x``
it swept, so that a pass over the same iterate array converts none of them.

Backend selection: ``set_backend`` takes ``c``, ``numpy`` or ``auto``.
``auto`` is ``c`` when the library builds and loads, and ``numpy`` when
``cc`` is missing; when ``cc`` is there but the build fails, ``auto`` warns
with the compiler's messages before it falls back.  Asking for ``c`` where
it cannot run raises :class:`BackendUnavailableError`.  Unless
``set_backend`` was called first, the first kernel call or
``active_backend()`` passes it the ``CFPOPT_BACKEND`` environment variable
(unset or empty means ``auto``), and an unknown value raises ``ValueError``
naming the variable; importing the package reads no environment variable.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import shutil
import subprocess
import tempfile
import warnings
import zlib
from pathlib import Path

import numpy as np

__all__ = [
    "BackendUnavailableError",
    "active_backend",
    "set_backend",
    "available_backends",
    "Rows",
    "screen_rtol",
    "cspm_sweep",
    "art3_pass",
    "QpsScan",
    "qps_scan",
    "warmup",
]

_BACKENDS = ("c", "numpy")
_SOURCE = Path(__file__).with_name("_kernels.c")
# no -ffast-math or -march=native: they would let the compiler fuse or
# reorder the floating-point operations the numpy twin performs one by one.
# -fno-math-errno lets sqrt compile to the instruction, with no libm call;
# -falign-loops=64 keeps the short row loops' speed independent of where they
# land in the library: each starts a cache line (unaligned, a 60-column sweep
# ran 20% slower on a Xeon; aligned to 32 bytes, a 35-byte loop that crossed a
# line made a 120-column sweep 10% slower)
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-math-errno", "-falign-loops=64",
           "-std=c99", "-fPIC", "-shared")


class BackendUnavailableError(RuntimeError):
    """The requested kernel backend cannot run on this machine."""


class CBuildError(BackendUnavailableError):
    """A C compiler is present, but building or loading the kernel library failed.

    The message is one line; ``stderr`` holds the compiler's whole output
    when it ran and failed, else ``""``.
    """

    def __init__(self, message: str, stderr: str = ""):
        super().__init__(message)
        self.stderr = stderr


# unit roundoff of float64
_UNIT = 2.0**-53
# the screen margin's relative slack while a solve is short: some 10^5 times
# the rounding it covers at the sizes and step counts of the benchmark
_SCREEN_RTOL = 2.0**-30
# a floor under the margin's magnitudes: it covers the absolute error of
# gradual underflow, at most 2^-1074 per rounded operation
_SCREEN_FLOOR = 2.0**-900


def screen_rtol(n: int, events: int) -> float:
    """The relative slack ``rel`` of the screen for ``n`` columns and ``events`` x updates.

    ``events`` must bound the number of times the solve's x has changed up
    to the check: its row and oracle steps, and its jumps between sweeps.
    The screen skips row ``i`` when, in floating point,

        v_i + s_i (P - P_i) + rel ((l_i + s_i) X + s_i P + |v_i| + m_i) <= tol,

    with ``v_i`` and ``P_i`` the row's violation and the path sum at its
    last evaluation, ``s_i`` and ``l_i`` the computed ``|a_i|_2`` and
    ``|a_i|_1``, ``m_i`` the larger finite one of ``|lo_i|``, ``|hi_i|``
    plus ``(1 + l_i + s_i) 2^-900``, ``P`` the path sum now and
    ``X = |x0|_2 + P``.  Why that proves the row would measure
    ``v <= tol`` now, with u = 2^-53, gamma_k = k u / (1 - k u), K =
    ``events`` and n + K <= 2^40, so that every gamma below is under 2^-12:

    * Evaluation.  A dot product, summed left to right by both backends,
      errs by at most gamma_n |a|_1 |y|_inf, and subtracting a finite side
      by u |r - side|.  So the computed v and the
      exact violation ``max(a . y - hi, lo - a . y)`` differ by at most
      gamma_{n+1} l_i Y + u m_i, Y the largest |y|_2 of the solve so far;
      once at the last evaluation and once now.
    * Movement.  The exact violation is |a|_2-Lipschitz in y.  A step
      ``x <- fl(x - fl(coef h))`` moves x by at most (1 + u) coef |h|_2 +
      2 u Y (one rounding per product and per difference), and adds
      fl(coef ŝ) >= coef |h|_2 (1 - gamma_{n+2}) to P, ŝ the computed
      |h|_2; a jump adds its computed length, within gamma_{n+2} of the true
      one.  P sums nonnegative terms, so the terms added since the last
      evaluation sum to at most P - P_i + K u P / (1 - u) (the cancellation
      in P - P_i).  So x has moved by at most (1 + 3 gamma_{n+3})
      (P - P_i + K u P / (1 - u)) + 2 K u Y since, and likewise
      Y <= 1.1 X.
    * The test.  Its three sums and two products round by at most
      3 u |v_i| + 4 u s_i P + u M, M the margin, and s_i is within
      gamma_{n+1} of |a_i|_2.
    * ART3+.  ``art3_pass`` records v_i as above, but finds a row
      satisfied when ``lo_i - tol <= r <= hi_i + tol``.  Let R be the exact
      ``a_i . y`` now (|R| <= l_i Y) and d = hi_i + tol - R, so d >= tol -
      v* with v* the exact violation now.  Then fl(hi_i + tol) >= R + d -
      u (|R| + d) and r <= R + gamma_n l_i Y, so r <= fl(hi_i + tol) once
      d >= 0 and d (1 - u) >= gamma_{n+1} l_i Y: once v* <= tol -
      gamma_{n+2} l_i Y.  The lower side is the same with d = R - lo_i +
      tol.  The rounding of ``hi_i + tol`` is relative to |R| + d, not to
      tol, so tol needs no term of its own, and where CSPM's test needs
      v* <= tol - gamma_{n+1} l_i Y - u m_i (Evaluation), ART3+'s needs
      v* <= tol - gamma_{n+2} l_i Y: one bound serves both.  Its moves are
      steps as in Movement, with coef >= 0: a row that fails the test has
      r > hi_i or r < lo_i (tol >= 0), so a reflection's coef, 2 fl(r -
      hi_i) or 2 fl(lo_i - r) over |a_i|_2^2, is nonnegative, and rounding
      is monotone, so lo_i <= fl(0.5 (lo_i + hi_i)) <= hi_i (``Rows``
      requires lo_i <= hi_i) and the midline's coef is nonnegative too.
      Each adds fl(coef s_i) to P, and the unrelaxed level visit adds its
      step as any oracle step does.

    So v now (for ART3+, v* plus gamma_{n+2} l_i Y) exceeds the computed
    left side by at most 3 u |v_i| + 8 (n + K + 4) u s_i P + 3.3 K u s_i X
    + 2.3 (n + 2) u l_i X + 2 u m_i - M (1 - u), which is not positive once
    rel >= 16 (n + K + 4) u: each term is at most half its share of M.  The
    floor in m_i covers gradual underflow.  An infinite or NaN term makes
    the test false, so such a row is evaluated; past 2^40 updates the slack
    is infinite and every row is.

    A row whose one nonzero entry ``a_ij`` is in column j (``Rows.coord[i]
    = j``: a box row, or any singleton row) is screened by its own
    coordinate instead.  It is skipped when

        v_i + s_i (Q_j - Q_ji) + rel (s_i Q_j + |v_i| + m_i) <= tol,

    with ``Q`` the binding's per-coordinate path (``Rows.q``): each kernel
    call first adds fl(|fl(x_k - e_k)|) to every Q_k, e being x at the end
    of the binding's last call (``Rows.xend``), and each move adds
    |fl(coef a_ik)| to Q_k; Q_ji is Q_j at row i's last evaluation.  With
    alpha = |a_ij| (s_i is within 2u of it), while x is finite:

    * Evaluation.  The row's other entries are zeros, whose products with
      finite coordinates add nothing, so the computed r is fl(a_ij y_j) and
      v is within 2.01 u alpha |y_j| + u m_i of the exact violation.  The
      row's own numbers bound alpha |y_j| at its last evaluation: v_i is
      ``r - side`` for a finite side (or -inf, whose margin is infinite),
      so |r| <= m_i + |v_i| / (1 - u), and alpha |y_j| <= 1.001 (m_i +
      |v_i|).  Now it is at most that plus alpha times the movement below.
    * Movement.  The exact violation is alpha-Lipschitz in y_j alone.  The
      change of x_j between two calls is within u of the term
      fl(|fl(x_j - e_j)|) added for it, and a move in a call changes x_j by
      fl(coef a_ij) up to one rounding of the update, u |y_j|.  Q_j sums
      these nonnegative terms; a zero term adds nothing and rounds nothing,
      so at most K additions round, and as for P the terms added since
      row i's last evaluation sum to at most Q_j - Q_ji + K u Q_j / (1 - u).
      So x_j has moved by at most (1 + 3u) (Q_j - Q_ji + K u Q_j / (1 - u))
      + 1.01 K u max |y_j| since.
    * The test rounds by at most 3 u |v_i| + 4 u s_i Q_j + u M, as above.

    Summed, v now exceeds the computed left side by at most (3 K + 16) u
    (s_i Q_j + |v_i| + m_i) - M (1 - u), M the margin, which is not positive
    for the ``rel`` above.  An ART3+ row needs v* <= tol - 2.01 u alpha
    |y_j|, which the Evaluation term covers.  The bound holds for any
    change of x between calls (oracle steps, other bindings' moves,
    superiorization jumps), since the catch-up measures the change itself.
    A coordinate that is not finite makes a row's computed product NaN, so
    no screen is claimed once x leaves the finite numbers.
    """
    if n + events > 2**40:
        return math.inf
    return max(_SCREEN_RTOL, 16.0 * (n + events + 4) * _UNIT)


def _finite_abs(v: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(v), np.abs(v), 0.0)


class Rows:
    """Packed rows bound for the ``cspm_sweep`` or ``art3_pass`` calls of one solve, with their screen state.

    ``A`` (m x n), ``lo``, ``hi`` and ``norm2`` are validated once, and
    every row must have ``lo_i <= hi_i`` (the sign of an ART3+ midline step
    depends on it, see :func:`screen_rtol`).  Row i
    owns ``screen[i]``: its violation at its last evaluation (+inf before
    the first), the path sum its screen read then, its computed ``|a_i|_2``,
    ``|a_i|_1 + |a_i|_2``, and the larger finite one of ``|lo_i|``,
    ``|hi_i|`` plus a floor.

    A row has one of two screens (:func:`screen_rtol` proves both).  A row
    with more than one nonzero entry reads the solve's path sum P:
    ``path`` is the solve's float64[3], shared by all its bindings, holding
    P, ``|x0|_2`` and the relative slack of the margin.  The kernels add
    ``coef * |a_i|_2`` to P for every row they move; the caller adds every
    other change of x, and sets the rest of ``path`` before the first
    sweep.  A row whose only nonzero entry is in column j (``coord[i] =
    j``; ``-1`` for the others), such as a box row, reads ``q[j]``, the
    binding's own path of coordinate j: every kernel call first adds
    ``|x - xend|`` to ``q``, ``xend`` being x at the end of the binding's
    last call, then adds ``|coef * a_ik|`` to ``q[k]`` for each move, and
    ends by copying x to ``xend``.  So ``q`` takes every change of x with no
    help from the caller, and a box row whose coordinate has not moved stays
    screened however far the other coordinates go: the path screen's bound
    ``|a_i|_2 P`` is loose for it by about the square root of n.

    ``out`` is the float64[5] that ``cspm_sweep`` writes: the step sums,
    the number of rows evaluated and the largest violation among them.

    On its first call under a backend, the binding converts its arrays to
    that backend's arguments (``_arg``: pointers for c, the arrays for
    numpy) and keeps them in ``_head``, with those of the last ``x``,
    validated when it first came, and of the queue buffer that
    ``art3_pass`` copies each queue into and reads the kept rows from.  A
    raw address does not keep its array alive, so the binding holds every
    array whose address it passes.
    """

    __slots__ = ("A", "lo", "hi", "norm2", "screen", "path", "coord", "q", "xend", "out",
                 "_arg", "_head", "_x", "_outp", "_queue", "_queuep")

    def __init__(self, A, lo, hi, norm2, path):
        _check(A, "A", _F64, 2)
        m = A.shape[0]
        for name, v in (("lo", lo), ("hi", hi), ("norm2", norm2)):
            _check(v, name, _F64, 1)
            if v.shape[0] != m:
                raise ValueError(f"{name} has {v.shape[0]} entries for {m} rows")
        if not (lo <= hi).all():
            raise ValueError("every row needs lo <= hi, neither of them NaN")
        _check(path, "path", _F64, 1)
        if path.shape[0] != 3 or not path.flags.writeable:
            raise ValueError("path must be a writable array of 3 entries")
        s = np.sqrt((A * A).sum(axis=1))
        w = np.abs(A).sum(axis=1) + s
        screen = np.empty((m, 5))
        screen[:, 0] = np.inf
        screen[:, 1] = 0.0
        screen[:, 2] = s
        screen[:, 3] = w
        screen[:, 4] = np.maximum(_finite_abs(lo), _finite_abs(hi)) + (1.0 + w) * _SCREEN_FLOOR
        nonzero = A != 0.0
        self.coord = np.where(nonzero.sum(axis=1) == 1, nonzero.argmax(axis=1), -1).astype(np.int64)
        self.q, self.xend = np.zeros(A.shape[1]), np.zeros(A.shape[1])
        self.A, self.lo, self.hi, self.norm2 = A, lo, hi, norm2
        self.screen, self.path, self.out = screen, path, np.zeros(5)
        self._arg = None

    def _args(self, A, x, arg) -> list:
        """The kernels' leading arguments, ``A`` to ``n``, as ``arg`` converts them.

        ``A`` must be the bound one, and ``x`` the iterate the kernel
        updates in place; it is validated when it first comes.
        """
        if A is not self.A:
            raise ValueError("A must be the array that rows was bound to")
        if arg is not self._arg:
            arrays = (self.A, self.lo, self.hi, self.norm2, self.screen, self.path,
                      self.coord, self.q, self.xend)
            self._arg, self._x = arg, None
            self._head = [*map(arg, arrays), None, *map(arg, self.A.shape)]
            self._outp = arg(self.out)
            self._grow(self.A.shape[0])
        if x is not self._x:
            _check(x, "x", _F64, 1)
            if x.shape[0] != A.shape[1]:
                raise ValueError(f"x has {x.shape[0]} entries for {A.shape[1]} columns")
            if not x.flags.writeable:
                raise ValueError("x must be writable: the kernels update it in place")
            self._x, self._head[9] = x, arg(x)
        return self._head

    def _grow(self, size: int) -> None:
        """Make the queue buffer ``size`` entries long."""
        self._queue = np.empty(size, dtype=np.int64)
        self._queuep = self._arg(self._queue)


def _screen_row(s, j, q, P, x0n, rel, tol) -> tuple[bool, float]:
    """``screen_row`` of ``_kernels.c``: whether screen state ``s`` (a list) proves its row satisfied.

    Returns that and the path sum it read.  A row whose one nonzero entry is in column ``j >= 0`` reads the
    coordinate path sum ``Q = q[j]`` and is skipped when ``v_i + s_i (Q -
    Q_i) + margin <= tol``; any other row reads the path sum ``P`` and is
    skipped when ``v_i + s_i (P - P_i) + margin <= tol``.  Each margin is
    the one :func:`screen_rtol` derives.
    """
    v_i, at_i, s_i, w_i, m_i = s
    if j >= 0:
        Q = q.item(j)
        bound = v_i + s_i * (Q - at_i)
        bound += rel * (s_i * Q + abs(v_i) + m_i)
        return bound <= tol, Q
    bound = v_i + s_i * (P - at_i)
    bound += rel * (w_i * (x0n + P) + s_i * P + abs(v_i) + m_i)
    return bound <= tol, P


def _cspm_sweep_numpy(A, lo, hi, norm2, screen, path, coord, q, xend, x, m, n, lam, tol, out):
    """``cfp_cspm_sweep``: one screened relaxed-projection pass; returns the number of moves.

    A moved row steps ``x`` by ``-coef * h``, where ``h . y <= beta`` is its
    violated side (``h = A_i, beta = hi_i`` above the slab, ``h = -A_i,
    beta = -lo_i`` below it).  ``out`` receives the sums of ``coef * (beta +
    tol)``, ``coef * (|beta| + tol)`` and ``coef * |h|`` over the moved
    rows, the number of rows evaluated, and the largest violation among
    them.  A row the screen proves satisfied is skipped; ``coord``, ``q``
    and ``xend`` are the binding's, kept as :class:`Rows` says.
    """
    P, x0n, rel = path.tolist()
    q += np.abs(x - xend)  # catch_up
    coords = coord.tolist()
    # row_dot: a . x summed left to right from sums[0] = 0.0
    sums = np.zeros(n + 1)
    terms = sums[1:]
    maxv = 0.0
    moves = seen = 0
    b = size = steps = 0.0
    for i in range(m):
        s = screen[i].tolist()
        skip, at = _screen_row(s, coords[i], q, P, x0n, rel, tol)
        if skip:
            continue
        seen += 1
        np.multiply(A[i], x, out=terms)
        r = float(np.add.accumulate(sums, out=sums)[-1])
        over = r - hi[i]
        under = lo[i] - r
        v = over if over >= under else under
        screen[i, 0] = v
        screen[i, 1] = at
        if v > maxv:
            maxv = v
        if v > tol:
            moves += 1
            coef = lam * v / norm2[i]
            d = coef * A[i]  # row_sub and row_add
            if over >= under:
                x -= d
                beta = hi[i]
            else:
                x += d
                beta = -lo[i]
            q += np.abs(d)
            b += coef * (beta + tol)
            size += coef * (abs(beta) + tol)
            steps += coef * math.sqrt(norm2[i])
            P += float(coef) * s[2]
    xend[:] = x
    path[0] = P
    out[0], out[1], out[2], out[3], out[4] = b, size, steps, seen, maxv
    return moves


def _art3_pass_numpy(A, lo, hi, norm2, screen, path, coord, q, xend, x, m, n, queue, nq, tol,
                     kept, out):
    """``cfp_art3_pass``: one screened ART3+ pass over ``queue[:nq]``; returns the number of rows kept.

    The rows violated at their visit go to ``kept``, which may be
    ``queue``.  A moved row steps ``x`` by ``-coef * h`` with ``coef >=
    0``, reflecting or projecting onto the midline, off its violated side
    ``h . y <= beta`` (``h = A_i, beta = hi_i`` above the interval, ``h =
    -A_i, beta = -lo_i`` below it).  ``out[:3]`` receives the sums of
    ``coef * (beta + tol)``, ``coef * (|beta| + tol)`` and ``coef * |h|``
    over the moved rows, and ``out[3]`` the number of rows evaluated.  A
    row the screen proves satisfied is skipped, as if it had been found
    satisfied, with ``coord``, ``q`` and ``xend`` as in
    :func:`_cspm_sweep_numpy`.  Returns -1, before touching anything, when a
    queue entry is outside ``[0, m)``.
    """
    queued = queue[:nq].tolist()
    if not all(0 <= i < m for i in queued):
        return -1
    P, x0n, rel = path.tolist()
    q += np.abs(x - xend)  # catch_up
    coords = coord.tolist()
    sums = np.zeros(n + 1)  # row_dot, as in _cspm_sweep_numpy
    terms = sums[1:]
    nk = seen = 0
    b = size = steps = 0.0
    for i in queued:
        s = screen[i].tolist()
        skip, at = _screen_row(s, coords[i], q, P, x0n, rel, tol)
        if skip:
            continue
        seen += 1
        np.multiply(A[i], x, out=terms)
        r = float(np.add.accumulate(sums, out=sums)[-1])
        over = r - hi[i]
        under = lo[i] - r
        screen[i, 0] = over if over >= under else under
        screen[i, 1] = at
        if lo[i] - tol <= r <= hi[i] + tol:
            continue
        kept[nk] = i
        nk += 1
        width = hi[i] - lo[i]
        if r > hi[i]:
            # reflect across the upper face, or project onto the midline
            if over <= width:
                coef = 2.0 * over / norm2[i]
            else:
                coef = (r - 0.5 * (lo[i] + hi[i])) / norm2[i]
            d = coef * A[i]
            x -= d
            beta = hi[i]
        else:
            if under <= width:
                coef = 2.0 * under / norm2[i]
            else:
                coef = (0.5 * (lo[i] + hi[i]) - r) / norm2[i]
            d = coef * A[i]
            x += d
            beta = -lo[i]
        q += np.abs(d)
        b += coef * (beta + tol)
        size += coef * (abs(beta) + tol)
        steps += coef * math.sqrt(norm2[i])
        P += float(coef) * s[2]
    xend[:] = x
    path[0] = P
    out[0], out[1], out[2], out[3] = b, size, steps, seen
    return nk


# QPS scan modes of _kernels.c: the sections whose data lines qps_scan converts
_QPS_MODES = {"COLUMNS": 1, "RHS": 1, "RANGES": 1, "QUADOBJ": 2, "QMATRIX": 2}


def _qps_scan_numpy(*args):
    """``cfp_qps_scan`` under the numpy backend: refuses every line (returns
    -1), so that :mod:`cfpopt.qps` reads them all in Python."""
    return -1


def _numpy_arg(a):
    """A numpy twin's argument: the array or size itself."""
    return a


# a backend's value: its name, kernels and argument conversion
_NUMPY = ("numpy", _cspm_sweep_numpy, _art3_pass_numpy, _numpy_arg, _qps_scan_numpy)


def _cache_dir() -> Path:
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "cfpopt"


@contextlib.contextmanager
def _staged(target: Path):
    """Yield a temporary path beside ``target``; move it onto ``target`` if the block succeeds.

    ``os.replace`` is atomic, so a concurrent process sees either no file or
    a complete one, never a half-written one.
    """
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=target.suffix, dir=target.parent)
    os.close(fd)
    try:
        yield tmp
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _build(cc: str) -> Path:
    """Return the cached library, building it if absent.

    It is keyed by a crc32 of the C source and the flags, so a cached
    library is never stale, and none is ever deleted.
    """
    try:
        source = _SOURCE.read_bytes()
        # crc32, not hashlib: importing hashlib maps OpenSSL into the solver
        # process, a few MB of resident memory for a cache key
        key = format(zlib.crc32(source + b"\0" + " ".join(_CFLAGS).encode()), "08x")
        lib = _cache_dir() / f"_kernels-{key}.so"
        if lib.exists():
            return lib
        lib.parent.mkdir(parents=True, exist_ok=True)
        with _staged(lib) as tmp:
            proc = subprocess.run([cc, *_CFLAGS, "-o", tmp, "-x", "c", "-"], input=source,
                                  capture_output=True)
            if proc.returncode != 0:
                stderr = proc.stderr.decode(errors="replace")
                raise CBuildError(f"{cc} failed to build {_SOURCE.name} (exit {proc.returncode}): "
                                  + stderr.partition("\n")[0], stderr)
    except OSError as exc:
        raise CBuildError(f"cannot build the C kernels: {exc}") from exc
    return lib


# the dtypes _check takes: a dtype compares with an array's faster than a type
_F64, _I64 = np.dtype(np.float64), np.dtype(np.int64)


def _check(a, name: str, dtype: np.dtype, ndim: int) -> None:
    if (not isinstance(a, np.ndarray) or a.dtype != dtype or a.ndim != ndim
            or not a.flags.c_contiguous):
        raise TypeError(f"{name} must be a C-contiguous {dtype.name} array "
                        f"with {ndim} dimension(s)")


def _c_arg(a):
    """A c kernel's argument: an array's address, or a size as an int64."""
    if isinstance(a, int):
        return ctypes.c_int64(a)
    return ctypes.c_void_p(a.ctypes.data)


def _load_c() -> tuple:
    """Build (or find in the cache) and load the C library; return the c backend's value."""
    cc = shutil.which("cc")
    if cc is None:
        raise BackendUnavailableError("the c backend needs a C compiler: no 'cc' on PATH")
    path = _build(cc)
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise CBuildError(f"cannot load the C kernels from {path}: {exc}") from exc
    # ctypes cannot check a call against C: these must match the signatures
    # of cfp_cspm_sweep, cfp_art3_pass and cfp_qps_scan in _kernels.c
    P, I, D, S = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_char_p
    cspm, art3, scan = lib.cfp_cspm_sweep, lib.cfp_art3_pass, lib.cfp_qps_scan
    cspm.argtypes = (P,) * 10 + (I, I, D, D, P)
    art3.argtypes = (P,) * 10 + (I, I, P, I, D, P, P)
    scan.argtypes = (S, I, I, I, I, I) + (P,) * 8
    cspm.restype = art3.restype = scan.restype = I
    return "c", cspm, art3, _c_arg, scan


_c_outcome: tuple | BackendUnavailableError | None = None  # loaded once per process


def _c_kernels() -> tuple:
    global _c_outcome
    if _c_outcome is None:
        try:
            _c_outcome = _load_c()
        except BackendUnavailableError as exc:
            _c_outcome = exc
    if isinstance(_c_outcome, BackendUnavailableError):
        raise _c_outcome
    return _c_outcome


# the active backend's (name, cspm, art3, arg, qps_scan); set by set_backend alone
_backend: tuple | None = None


def _current() -> tuple:
    """The active backend; the first call resolves ``CFPOPT_BACKEND`` through :func:`set_backend`."""
    if _backend is None:
        want = os.environ.get("CFPOPT_BACKEND", "auto").strip().lower() or "auto"
        try:
            set_backend(want)
        except ValueError:
            raise ValueError(f"CFPOPT_BACKEND={want!r} is not a backend; "
                             f"choices: {_BACKENDS} or 'auto'") from None
    return _backend


def available_backends() -> tuple[str, ...]:
    """Backends that can run here; checking ``c`` builds or loads its library."""
    try:
        _c_kernels()
    except BackendUnavailableError:
        return ("numpy",)
    return _BACKENDS


def active_backend() -> str:
    return _current()[0]


def set_backend(name: str) -> None:
    """Switch the sweep kernel backend ('c', 'numpy' or 'auto').

    Raises ``ValueError`` for an unknown name and
    :class:`BackendUnavailableError` when ``c`` cannot run here.
    """
    global _backend
    name = name.strip().lower()
    if name != "auto" and name not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}; choices: {_BACKENDS} or 'auto'")
    try:
        _backend = _NUMPY if name == "numpy" else _c_kernels()
    except BackendUnavailableError as exc:
        if name == "c":
            raise
        if isinstance(exc, CBuildError):
            lines = [str(exc), *exc.stderr.splitlines(), "using the numpy kernels instead"]
            warnings.warn("\n".join(lines), RuntimeWarning, stacklevel=2)
        _backend = _NUMPY


def cspm_sweep(A, rows, x, lam, tol):
    """One screened relaxed-projection pass over ``rows``, in place.

    ``A`` is ``rows.A``; it leads so that a wrapper of this call can read
    the system's size.  Returns the largest violation among the rows
    evaluated and the number of moves; writes the step sums, the number of
    rows evaluated and that violation to ``rows.out``.
    """
    _, cspm, _, arg, _ = _current()
    moves = cspm(*rows._args(A, x, arg), lam, tol, rows._outp)
    return rows.out.item(4), moves


def art3_pass(A, rows, x, tol, out, queue):
    """One screened ART3+ pass over the rows of ``rows`` that ``queue`` lists, in place.

    ``A`` is ``rows.A``, as in :func:`cspm_sweep`.  Returns the rows
    violated at their visit, each of which moved ``x``; writes the step sums
    to ``out[:3]`` and the number of rows evaluated to ``out[3]``.  A queue
    entry outside ``[0, m)`` raises ``IndexError`` before anything is
    touched.
    """
    _, _, art3, arg, _ = _current()
    head = rows._args(A, x, arg)
    _check(queue, "queue", _I64, 1)
    if out is rows.out:
        outp = rows._outp
    else:
        _check(out, "out", _F64, 1)
        if out.shape[0] < 4 or not out.flags.writeable:
            raise ValueError("out must be a writable array of at least 4 entries")
        outp = arg(out)
    nq = queue.shape[0]
    if nq > rows._queue.shape[0]:
        rows._grow(nq)
    # the pass writes the kept rows over this copy, not over the caller's queue
    rows._queue[:nq] = queue
    nk = art3(*head, rows._queuep, nq, tol, rows._queuep, outp)
    if nk < 0:
        raise IndexError(f"queue holds a row index outside [0, {A.shape[0]})")
    return rows._queue[:nk].copy()


class QpsScan:
    """The outputs of ``qps_scan``, with room for ``lines`` lines and ``names`` distinct names a call.

    ``info`` holds each line's token count (-1 for the header line the scan
    stopped at); ``ia``, ``ib`` and ``val`` the entries, as many as
    ``lines``: the run of the entry's first token, the id of its name token
    and its value; ``runs`` the span (start and end offsets) of each run's
    first token; ``names`` the span of each distinct name token, by id;
    ``table`` the kernel's hash table of the names; ``out`` the stop offset,
    the numbers of lines, entries, runs and names, and the offset where the
    next scan starts.  The binding keeps the active backend's arguments for
    the arrays, as :class:`Rows` does.
    """

    __slots__ = ("info", "ia", "ib", "val", "runs", "names", "table", "out", "_arg", "_outs")

    def __init__(self, lines: int, names: int):
        if lines < 1 or names < 1:
            raise ValueError("a scan needs room for at least one line and one name")
        self.info = np.empty(lines, dtype=np.int64)
        self.ia, self.ib = np.empty(lines, dtype=np.int64), np.empty(lines, dtype=np.int64)
        self.val = np.empty(lines)
        self.runs = np.empty(2 * lines, dtype=np.int64)
        self.names = np.empty(2 * names, dtype=np.int64)
        # the least power of two at least twice the names, as cfp_qps_scan sizes it
        self.table = np.empty(1 << (2 * names - 1).bit_length(), dtype=np.int64)
        self.out = np.zeros(6, dtype=np.int64)
        self._arg = None

    def _args(self, arg) -> list:
        """The kernel's room and output arguments, as ``arg`` converts them."""
        if arg is not self._arg:
            self._arg = arg
            arrays = (self.info, self.ia, self.ib, self.val, self.runs, self.names, self.table, self.out)
            self._outs = [arg(self.info.shape[0]), arg(self.names.shape[0] // 2), *map(arg, arrays)]
        return self._outs


def qps_scan(data: bytes, pos: int, section: str | None, scan: QpsScan) -> int:
    """Scan the QPS lines of ``data[pos:]`` up to the first header line, into ``scan``.

    ``data`` is a run of whole lines, and ``pos`` a line's start.  For
    ``section`` COLUMNS, RHS, RANGES, QUADOBJ or QMATRIX the data lines
    become entries, with their values converted and their distinct names
    numbered, left to the caller to look up; for any other (None included)
    they are only counted.  Returns 1 when the scan stopped at a header
    line, 0 when it stopped at the end of ``data`` or of a room in ``scan``
    (the next scan starts at ``scan.out[5]`` either way), and -1 when it
    refused the lines, which the caller then reads another way: see
    ``cfp_qps_scan`` in ``_kernels.c`` for what each output holds and what
    is refused.  The numpy backend refuses every line.
    """
    *_, arg, scan_fn = _current()
    if not isinstance(data, bytes):
        raise TypeError("data must be bytes")
    if not 0 <= pos <= len(data):
        raise ValueError(f"pos {pos} is outside the {len(data)} bytes of data")
    return scan_fn(data, len(data), pos, _QPS_MODES.get(section, 0), *scan._args(arg))


def warmup() -> None:
    """Resolve the active backend and run both kernels once on a tiny system.

    For ``c`` this compiles the library on its first use on a machine (later
    processes load it from the cache), so calling ``warmup`` first keeps the
    compiler run out of timed code.
    """
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    lo = np.array([-np.inf, 0.0])
    hi = np.array([1.0, 1.0])
    norm2 = np.array([1.0, 1.0])
    cspm_sweep(A, Rows(A, lo, hi, norm2, np.zeros(3)), np.array([2.0, -1.0]), 1.0, 1e-8)
    art3_pass(A, Rows(A, lo, hi, norm2, np.zeros(3)), np.array([2.0, -1.0]), 1e-8, np.zeros(4),
              np.arange(2, dtype=np.int64))
