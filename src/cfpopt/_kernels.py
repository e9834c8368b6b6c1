"""Hot sweep kernels: a compiled C backend and its pure-numpy twin.

The sequential projection sweeps are Gauss-Seidel style (each row projection
sees the updates of the previous rows), so they cannot be vectorized; the
row loop is the hot spot on packed affine systems.  Both backends implement
the same row-by-row arithmetic:

* ``cspm_sweep``: one full cyclic pass of relaxed projections onto the slabs
  ``lo_i <= A_i . x <= hi_i``; returns the largest violation seen, the
  number of rows that moved ``x``, and the sums over the moved rows that the
  emptiness test of :mod:`cfpopt.feasibility` aggregates (see
  ``_cspm_sweep_numpy``).
* ``art3_pass``: one pass of the automatic-relaxation rule over a work queue
  of row indices (reflect when the overshoot is at most the interval width,
  project onto the midline hyperplane when it is larger); returns the indices
  that were violated at their visit, and writes the same three step sums as
  ``cspm_sweep`` into the caller's float64 array ``out`` (see
  ``_art3_pass_numpy``).

Both update ``x`` in place.  The backends differ only in how a row's dot
product is summed (left to right in C, in numpy's order otherwise), so their
iterates agree to rounding noise.

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
  float64 arrays (int64 for the queue), and ``x`` must be writable.
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
                       const double *norm2, double *x, int64_t m, int64_t n,
                       double lam, double tol, double *out);
int64_t cfp_art3_pass(const double *A, const double *lo, const double *hi,
                      const double *norm2, double *x, int64_t m, int64_t n,
                      const int64_t *queue, int64_t nq, double tol, int64_t *kept,
                      double *out);
"""


class BackendUnavailableError(RuntimeError):
    """The requested kernel backend cannot run on this machine."""


class CBuildError(BackendUnavailableError):
    """A C compiler is present, but building or loading the kernel library failed."""


def _cspm_sweep_numpy(A, lo, hi, norm2, x, lam, tol):
    """One relaxed-projection pass over the rows; returns (max violation, moves, sums).

    A moved row steps ``x`` by ``-coef * h``, where ``h . y <= beta`` is its
    violated side (``h = A_i, beta = hi_i`` above the slab, ``h = -A_i,
    beta = -lo_i`` below it).  ``sums`` holds the sums of
    ``coef * (beta + tol)``, ``coef * (|beta| + tol)`` and ``coef * |h|``
    over the moved rows.
    """
    maxv = 0.0
    moves = 0
    b = size = steps = 0.0
    for i in range(A.shape[0]):
        r = float(A[i] @ x)
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
    return maxv, moves, (float(b), float(size), float(steps))


def _art3_pass_numpy(A, lo, hi, norm2, x, queue, tol, out):
    """One ART3+ pass over the rows in ``queue``; returns the rows violated at their visit.

    A moved row steps ``x`` by ``-coef * h`` with ``coef >= 0``, reflecting
    or projecting onto the midline, off its violated side ``h . y <= beta``
    (``h = A_i, beta = hi_i`` above the interval, ``h = -A_i, beta = -lo_i``
    below it).  ``out[:3]`` receives the sums of ``coef * (beta + tol)``,
    ``coef * (|beta| + tol)`` and ``coef * |h|`` over the moved rows.
    """
    kept = np.empty(queue.shape[0], dtype=np.int64)
    nk = 0
    b = size = steps = 0.0
    for qi in range(queue.shape[0]):
        i = queue[qi]
        r = float(A[i] @ x)
        if lo[i] - tol <= r <= hi[i] + tol:
            continue
        kept[nk] = i
        nk += 1
        width = hi[i] - lo[i]
        if r > hi[i]:
            viol = r - hi[i]
            # reflect across the upper face, or project onto the midline
            if viol <= width:
                coef = 2.0 * viol / norm2[i]
            else:
                coef = (r - 0.5 * (lo[i] + hi[i])) / norm2[i]
            x -= coef * A[i]
            beta = hi[i]
        else:
            viol = lo[i] - r
            if viol <= width:
                coef = 2.0 * viol / norm2[i]
            else:
                coef = (0.5 * (lo[i] + hi[i]) - r) / norm2[i]
            x += coef * A[i]
            beta = -lo[i]
        b += coef * (beta + tol)
        size += coef * (abs(beta) + tol)
        steps += coef * math.sqrt(norm2[i])
    out[0], out[1], out[2] = b, size, steps
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


def _check_system(A, lo, hi, norm2, x) -> tuple[int, int]:
    """Validate the packed rows and the iterate before their pointers go to C."""
    _check(A, "A", np.float64, 2)
    m, n = A.shape
    for name, v in (("lo", lo), ("hi", hi), ("norm2", norm2)):
        _check(v, name, np.float64, 1)
        if v.shape[0] != m:
            raise ValueError(f"{name} has {v.shape[0]} entries for {m} rows")
    _check(x, "x", np.float64, 1)
    if x.shape[0] != n:
        raise ValueError(f"x has {x.shape[0]} entries for {n} columns")
    if not x.flags.writeable:
        raise ValueError("x must be writable: the kernels update it in place")
    return m, n


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

    def cspm_sweep(A, lo, hi, norm2, x, lam, tol):
        m, n = _check_system(A, lo, hi, norm2, x)
        out = ffi.new("double[4]")
        moves = lib.cfp_cspm_sweep(buf("double[]", A), buf("double[]", lo), buf("double[]", hi),
                                   buf("double[]", norm2), buf("double[]", x, require_writable=True),
                                   m, n, lam, tol, out)
        return out[0], moves, (out[1], out[2], out[3])

    def art3_pass(A, lo, hi, norm2, x, queue, tol, out):
        m, n = _check_system(A, lo, hi, norm2, x)
        _check(queue, "queue", np.int64, 1)
        _check(out, "out", np.float64, 1)
        if out.shape[0] < 3 or not out.flags.writeable:
            raise ValueError("out must be a writable array of at least 3 entries")
        kept = np.empty(queue.shape[0], dtype=np.int64)
        nk = lib.cfp_art3_pass(buf("double[]", A), buf("double[]", lo), buf("double[]", hi),
                               buf("double[]", norm2), buf("double[]", x, require_writable=True),
                               m, n, buf("int64_t[]", queue), queue.shape[0], tol,
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


def cspm_sweep(A, lo, hi, norm2, x, lam, tol):
    """One relaxed-projection pass, in place; returns (max violation, moves, step sums)."""
    return _current()[0](A, lo, hi, norm2, x, lam, tol)


def art3_pass(A, lo, hi, norm2, x, queue, tol, out):
    """One ART3+ pass over ``queue``, in place; returns the rows kept, step sums in ``out[:3]``."""
    return _current()[1](A, lo, hi, norm2, x, queue, tol, out)


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
    cspm_sweep(A, lo, hi, norm2, np.array([2.0, -1.0]), 1.0, 1e-8)
    art3_pass(A, lo, hi, norm2, np.array([2.0, -1.0]), np.arange(2, dtype=np.int64), 1e-8,
              np.zeros(3))
