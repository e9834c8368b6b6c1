"""Hot sweep kernels: a compiled C backend and its pure-numpy twin.

The sequential projection sweeps are Gauss-Seidel style (each row projection
sees the updates of the previous rows), so they cannot be vectorized; the
row loop is the hot spot on packed affine systems.  Both backends implement
the same row-by-row arithmetic:

* ``cspm_sweep``: one full cyclic pass of relaxed projections onto the slabs
  ``lo_i <= A_i . x <= hi_i`` of a :class:`Rows` binding; returns the
  largest violation among the rows it evaluated, the number of rows that
  moved ``x``, the sums over the moved rows that the emptiness test of
  :mod:`cfpopt.feasibility` aggregates (see ``_cspm_sweep_numpy``), and the
  number of rows it evaluated.
* ``art3_pass``: one pass of the automatic-relaxation rule over a work queue
  of row indices of a :class:`Rows` binding (reflect when the overshoot is at
  most the interval width, project onto the midline hyperplane when it is
  larger); returns the indices that were violated at their visit, and writes
  the same three step sums as ``cspm_sweep``, then the number of rows it
  evaluated, into the caller's float64 array ``out`` (see
  ``_art3_pass_numpy``).

Both screen their rows: a row that the state kept in the binding proves
satisfied (see :func:`screen_rtol`) is skipped, with the same iterate, moves,
kept rows and sums as a pass that evaluates every row.  Both update ``x`` in
place.  The backends differ only in how a row's dot product is summed (left
to right in C, in numpy's order otherwise), so their iterates agree to
rounding noise.

Backends:

* ``c`` runs the functions of ``_kernels.c``.  On first use the package
  compiles that file with the C compiler ``cc`` found on ``PATH`` (flags in
  ``_CFLAGS``: ``-O2 -ffp-contract=off``, no fast-math) into
  ``${XDG_CACHE_HOME:-~/.cache}/cfpopt/``, under a file name keyed by a hash
  of the source and the flags, and loads it with cffi in ABI mode
  (``ffi.dlopen``; no setuptools, and the C parser only ever runs in a
  child process that writes cffi's module for the declarations).  Later
  processes load the cached library; a build deletes the libraries of other
  source versions from the cache.  The wrappers accept only C-contiguous
  float64 arrays (int64 for the queue), and ``x`` must be writable.  A
  ``Rows`` binding validates its arrays once and keeps their cffi pointers,
  and those of the last ``x`` it swept, so that a pass over the same
  iterate array converts none of them.
* ``numpy`` is the reference the tests hold ``c`` to, and the fallback.

Backend selection: the ``CFPOPT_BACKEND`` environment variable may be set to
``c``, ``numpy`` or ``auto`` (default).  ``auto`` is ``c`` when the library
builds and loads, and ``numpy`` when cffi or ``cc`` is missing; when ``cc``
is there but the build fails, ``auto`` warns with the compiler's messages
before it falls back.  Asking for ``c`` where it cannot run raises
:class:`BackendUnavailableError`.  The choice is resolved on first use, not
at import.  Use ``set_backend`` to switch at runtime, e.g. for benchmarking.
"""

from __future__ import annotations

import contextlib
import importlib.util
import math
import os
import shutil
import subprocess
import sys
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
    "warmup",
]

_BACKENDS = ("c", "numpy")
_SOURCE = Path(__file__).with_name("_kernels.c")
# no -ffast-math or -march=native: they would let the compiler fuse or
# reorder the floating-point operations the numpy twin performs one by one.
# -fno-math-errno lets sqrt compile to the instruction, with no libm call;
# -falign-loops=32 keeps the short row loops' speed independent of where they
# land in the library (unaligned, a 60-column sweep ran 20% slower on a Xeon)
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-math-errno", "-falign-loops=32",
           "-std=c99", "-fPIC", "-shared")
_CDEF = """
int64_t cfp_cspm_sweep(const double *A, const double *lo, const double *hi,
                       const double *norm2, double *screen, double *path, double *x,
                       int64_t m, int64_t n, double lam, double tol, double *out,
                       int64_t *evaluated);
int64_t cfp_art3_pass(const double *A, const double *lo, const double *hi,
                      const double *norm2, double *screen, double *path, double *x,
                      int64_t m, int64_t n, const int64_t *queue, int64_t nq, double tol,
                      int64_t *kept, double *out);
"""


class BackendUnavailableError(RuntimeError):
    """The requested kernel backend cannot run on this machine."""


class CBuildError(BackendUnavailableError):
    """A C compiler is present, but building or loading the kernel library failed."""


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

    * Evaluation.  Any order of summing a dot product (left to right in C,
      numpy's own in the twin) errs by at most gamma_n |a|_1 |y|_inf, and
      subtracting a finite side by u |r - side|.  So the computed v and the
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
    the first), the path sum then, its computed ``|a_i|_2``, ``|a_i|_1 +
    |a_i|_2``, and the larger finite one of ``|lo_i|``, ``|hi_i|`` plus a
    floor.  ``path`` is the solve's float64[3], shared by all its bindings:
    the path sum P, ``|x0|_2`` and the relative slack of the margin
    (:func:`screen_rtol`).  The kernels add ``coef * |a_i|_2`` to P
    for every row they move; the caller adds every other change of x, and
    sets the rest of ``path`` before the first sweep.  The c backend keeps
    its cffi pointers here, made on its first call, and the pointer of the
    last ``x``, validated when it first came.
    """

    __slots__ = ("A", "lo", "hi", "norm2", "screen", "path", "_c")

    def __init__(self, A, lo, hi, norm2, path):
        _check(A, "A", np.float64, 2)
        m = A.shape[0]
        for name, v in (("lo", lo), ("hi", hi), ("norm2", norm2)):
            _check(v, name, np.float64, 1)
            if v.shape[0] != m:
                raise ValueError(f"{name} has {v.shape[0]} entries for {m} rows")
        if not (lo <= hi).all():
            raise ValueError("every row needs lo <= hi, neither of them NaN")
        _check(path, "path", np.float64, 1)
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
        self.A, self.lo, self.hi, self.norm2 = A, lo, hi, norm2
        self.screen, self.path = screen, path
        self._c = None


def _screened(s, P, x0n, rel, tol) -> bool:
    """True when a row's screen state ``s`` (a list) proves it satisfied at path sum ``P``.

    ``screened`` of ``_kernels.c``: ``v_i + s_i (P - P_i) + margin <= tol``,
    with the margin that :func:`screen_rtol` derives.
    """
    v_i, P_i, s_i, w_i, m_i = s
    bound = v_i + s_i * (P - P_i)
    bound += rel * (w_i * (x0n + P) + s_i * P + abs(v_i) + m_i)
    return bound <= tol


def _cspm_sweep_numpy(A, rows, x, lam, tol):
    """One screened relaxed-projection pass; returns (max violation, moves, sums, evaluated).

    A moved row steps ``x`` by ``-coef * h``, where ``h . y <= beta`` is its
    violated side (``h = A_i, beta = hi_i`` above the slab, ``h = -A_i,
    beta = -lo_i`` below it).  ``sums`` holds the sums of
    ``coef * (beta + tol)``, ``coef * (|beta| + tol)`` and ``coef * |h|``
    over the moved rows.  A row the screen proves satisfied is skipped, as
    in ``cfp_cspm_sweep``.
    """
    lo, hi, norm2, screen, path = rows.lo, rows.hi, rows.norm2, rows.screen, rows.path
    P, x0n, rel = path.tolist()
    maxv = 0.0
    moves = seen = 0
    b = size = steps = 0.0
    for i in range(A.shape[0]):
        s = screen[i].tolist()
        if _screened(s, P, x0n, rel, tol):
            continue
        seen += 1
        r = float(A[i] @ x)
        over = r - hi[i]
        under = lo[i] - r
        v = over if over >= under else under
        screen[i, 0] = v
        screen[i, 1] = P
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
            P += float(coef) * s[2]
    path[0] = P
    return maxv, moves, (float(b), float(size), float(steps)), seen


def _art3_pass_numpy(A, rows, x, tol, out, queue):
    """One screened ART3+ pass over the rows in ``queue``; returns the rows violated at their visit.

    A moved row steps ``x`` by ``-coef * h`` with ``coef >= 0``, reflecting
    or projecting onto the midline, off its violated side ``h . y <= beta``
    (``h = A_i, beta = hi_i`` above the interval, ``h = -A_i, beta = -lo_i``
    below it).  ``out[:3]`` receives the sums of ``coef * (beta + tol)``,
    ``coef * (|beta| + tol)`` and ``coef * |h|`` over the moved rows, and
    ``out[3]`` the number of rows evaluated.  A row the screen proves
    satisfied is skipped, as in ``cfp_art3_pass``, as if it had been found
    satisfied.
    """
    lo, hi, norm2, screen, path = rows.lo, rows.hi, rows.norm2, rows.screen, rows.path
    P, x0n, rel = path.tolist()
    kept = np.empty(queue.shape[0], dtype=np.int64)
    nk = seen = 0
    b = size = steps = 0.0
    for i in queue.tolist():
        s = screen[i].tolist()
        if _screened(s, P, x0n, rel, tol):
            continue
        seen += 1
        r = float(A[i] @ x)
        over = r - hi[i]
        under = lo[i] - r
        screen[i, 0] = over if over >= under else under
        screen[i, 1] = P
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
            x -= coef * A[i]
            beta = hi[i]
        else:
            if under <= width:
                coef = 2.0 * under / norm2[i]
            else:
                coef = (0.5 * (lo[i] + hi[i]) - r) / norm2[i]
            x += coef * A[i]
            beta = -lo[i]
        b += coef * (beta + tol)
        size += coef * (abs(beta) + tol)
        steps += coef * math.sqrt(norm2[i])
        P += float(coef) * s[2]
    path[0] = P
    out[0], out[1], out[2], out[3] = b, size, steps, seen
    return kept[:nk].copy()


_NUMPY = (_cspm_sweep_numpy, _art3_pass_numpy)


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


# cffi's out-of-line ABI module is emitted in a child process, so that cffi's
# C parser (pycparser, about 1.2 MB resident) never loads into the solver
_EMIT_FFI = """
import sys, cffi
ffi = cffi.FFI()
ffi.cdef(sys.stdin.read())
ffi.set_source(sys.argv[1], None)
ffi.emit_python_code(sys.argv[2])
"""


def _run_step(args: list, stdin: bytes, what: str) -> None:
    proc = subprocess.run(args, input=stdin, capture_output=True)
    if proc.returncode != 0:
        raise CBuildError(f"{what} (exit {proc.returncode}):\n" + proc.stderr.decode(errors="replace"))


def _prune(cache: Path, keep: tuple[Path, Path]) -> None:
    """Delete the libraries and ffi modules that other source versions left in the cache."""
    for path in (*cache.glob("_kernels-*.so"), *cache.glob("_kernels_ffi_*.py")):
        if path not in keep:
            with contextlib.suppress(OSError):
                path.unlink()


def _build(cc: str, cffi) -> tuple[Path, Path]:
    """Return the cached library and its ffi module, building them if absent.

    Both are keyed by a hash of the C source, the declarations, the flags and
    the cffi version.  The ffi module is cffi's out-of-line ABI form of
    ``_CDEF``: loading it needs no C parser, which keeps the solver process
    about 1.3 MB smaller than parsing the declarations on every start.  A
    build removes the pairs of every other key from the cache.
    """
    try:
        source = _SOURCE.read_bytes()
        # crc32, not hashlib: importing hashlib maps OpenSSL into the solver
        # process, a few MB of resident memory for a cache key
        parts = [source, _CDEF.encode(), " ".join(_CFLAGS).encode(), cffi.__version__.encode()]
        key = format(zlib.crc32(b"\0".join(parts)), "08x")
        cache = _cache_dir()
        lib, mod = cache / f"_kernels-{key}.so", cache / f"_kernels_ffi_{key}.py"
        if lib.exists() and mod.exists():
            return lib, mod
        cache.mkdir(parents=True, exist_ok=True)
        with _staged(lib) as tmp:
            _run_step([cc, *_CFLAGS, "-o", tmp, "-x", "c", "-"], source,
                      f"{cc} failed to build {_SOURCE.name}")
        with _staged(mod) as tmp:
            _run_step([sys.executable, "-c", _EMIT_FFI, mod.stem, tmp], _CDEF.encode(),
                      "emitting the cffi module failed")
        _prune(cache, (lib, mod))
    except OSError as exc:
        raise CBuildError(f"cannot build the C kernels: {exc}") from exc
    return lib, mod


def _check(a, name: str, dtype, ndim: int) -> None:
    if (not isinstance(a, np.ndarray) or a.dtype != dtype or a.ndim != ndim
            or not a.flags.c_contiguous):
        raise TypeError(f"{name} must be a C-contiguous {np.dtype(dtype).name} array "
                        f"with {ndim} dimension(s)")


def _check_x(x, n: int) -> None:
    """Validate the iterate a kernel updates in place."""
    _check(x, "x", np.float64, 1)
    if x.shape[0] != n:
        raise ValueError(f"x has {x.shape[0]} entries for {n} columns")
    if not x.flags.writeable:
        raise ValueError("x must be writable: the kernels update it in place")


def _load_c() -> tuple:
    """Build (or find in the cache) and load the C library; return its wrapper pair."""
    try:
        import cffi
    except ImportError as exc:
        raise BackendUnavailableError(f"the c backend needs cffi: {exc}") from exc
    cc = shutil.which("cc")
    if cc is None:
        raise BackendUnavailableError("the c backend needs a C compiler: no 'cc' on PATH")
    for attempt in range(2):
        path, mod = _build(cc, cffi)
        try:
            spec = importlib.util.spec_from_file_location(mod.stem, mod)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            ffi = module.ffi
            lib = ffi.dlopen(str(path))
            break
        except OSError as exc:
            # a build of another source version may have pruned the pair
            # between the check and the load; build it once more then
            if attempt or (path.exists() and mod.exists()):
                raise CBuildError(f"cannot load the C kernels from {path}: {exc}") from exc
    buf = ffi.from_buffer

    def pointers(rows, x):
        """The cffi pointers of ``rows`` and of ``x``, each validated when it first came."""
        c = rows._c
        if c is None:
            c = rows._c = [None, None, buf("double[]", rows.A), buf("double[]", rows.lo),
                           buf("double[]", rows.hi), buf("double[]", rows.norm2),
                           buf("double[]", rows.screen, require_writable=True),
                           buf("double[]", rows.path, require_writable=True),
                           ffi.new("double[4]"), ffi.new("int64_t[1]")]
        if x is not c[0]:
            # the pointer holds x's buffer, so x cannot be resized while it is bound
            _check_x(x, rows.A.shape[1])
            c[0], c[1] = x, buf("double[]", x, require_writable=True)
        return c

    def cspm_sweep(A, rows, x, lam, tol):
        _, xp, a, lo, hi, norm2, screen, path, out, seen = pointers(rows, x)
        m, n = A.shape
        moves = lib.cfp_cspm_sweep(a, lo, hi, norm2, screen, path, xp, m, n, lam, tol, out, seen)
        return out[0], moves, (out[1], out[2], out[3]), seen[0]

    def art3_pass(A, rows, x, tol, out, queue):
        _, xp, a, lo, hi, norm2, screen, path, _, _ = pointers(rows, x)
        _check(queue, "queue", np.int64, 1)
        _check(out, "out", np.float64, 1)
        if out.shape[0] < 4 or not out.flags.writeable:
            raise ValueError("out must be a writable array of at least 4 entries")
        m, n = A.shape
        kept = np.empty(queue.shape[0], dtype=np.int64)
        nk = lib.cfp_art3_pass(a, lo, hi, norm2, screen, path, xp, m, n,
                               buf("int64_t[]", queue), queue.shape[0], tol,
                               buf("int64_t[]", kept, require_writable=True),
                               buf("double[]", out, require_writable=True))
        if nk < 0:
            raise IndexError(f"queue holds a row index outside [0, {m})")
        return kept[:nk].copy()

    return cspm_sweep, art3_pass


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


def _resolve(name: str) -> tuple[str, tuple]:
    if name == "numpy":
        return name, _NUMPY
    if name == "c":
        return name, _c_kernels()
    try:
        return "c", _c_kernels()
    except CBuildError as exc:
        warnings.warn(f"{exc}\nusing the numpy kernels instead", RuntimeWarning, stacklevel=3)
    except BackendUnavailableError:
        pass
    return "numpy", _NUMPY


def _requested_backend() -> str:
    want = os.environ.get("CFPOPT_BACKEND", "auto").strip().lower() or "auto"
    if want != "auto" and want not in _BACKENDS:
        raise RuntimeError(f"CFPOPT_BACKEND={want!r} is not a backend; choices: {_BACKENDS} or 'auto'")
    return want


_requested = _requested_backend()
_active: str | None = None
_impls: tuple | None = None


def _current() -> tuple:
    global _active, _impls
    if _impls is None:
        _active, _impls = _resolve(_requested)
    return _impls


def available_backends() -> tuple[str, ...]:
    """Backends that can run here; checking ``c`` builds or loads its library."""
    try:
        _c_kernels()
    except BackendUnavailableError:
        return ("numpy",)
    return _BACKENDS


def active_backend() -> str:
    _current()
    return _active


def set_backend(name: str) -> None:
    """Switch the sweep kernel backend ('c', 'numpy' or 'auto').

    Raises ``ValueError`` for an unknown name and
    :class:`BackendUnavailableError` when ``c`` cannot run here.
    """
    global _active, _impls
    name = name.strip().lower()
    if name != "auto" and name not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}; choices: {_BACKENDS} or 'auto'")
    _active, _impls = _resolve(name)


def _check_bound(A, rows) -> None:
    if A is not rows.A:
        raise ValueError("A must be the array that rows was bound to")


def cspm_sweep(A, rows, x, lam, tol):
    """One screened relaxed-projection pass over ``rows``, in place.

    ``A`` is ``rows.A``; it leads so that a wrapper of this call can read
    the system's size.  Returns (largest violation among the rows
    evaluated, moves, step sums, rows evaluated).
    """
    _check_bound(A, rows)
    return _current()[0](A, rows, x, lam, tol)


def art3_pass(A, rows, x, tol, out, queue):
    """One screened ART3+ pass over the rows of ``rows`` that ``queue`` lists, in place.

    ``A`` is ``rows.A``, as in :func:`cspm_sweep`.  Returns the rows
    violated at their visit, each of which moved ``x``; writes the step sums
    to ``out[:3]`` and the number of rows evaluated to ``out[3]``.
    """
    _check_bound(A, rows)
    return _current()[1](A, rows, x, tol, out, queue)


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
