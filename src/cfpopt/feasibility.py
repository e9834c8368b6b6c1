"""Feasibility solvers: cyclic subgradient projections, POCS and ART3+.

All solvers share the same outer contract: cycle over the constraint list in
order, apply one projection step per violated constraint, and declare the
point found only when a full pass measures violation <= tol for every
constraint (sweep soundness).  A system that cannot be certified within
``max_sweeps`` full sweeps times out, which the level-set schemes, and
bisection on a quadratic objective, treat as "no feasible point exists" (the
time-out rule); bisection on any other objective ends there instead (see
:mod:`cfpopt.schemes`).

Given the problem's bound box, every solver kind can also prove a system
empty before the time-out.  Every step a solver takes moves x by ``-mu h``,
``mu >= 0``, off a halfspace ``h . y <= beta + tol`` that holds every
tol-feasible point: a violated row's violated side, or the linearisation of
a violated convex constraint at the visit point.  Any nonnegative
combination of those halfspaces, ``c . y <= b``, is a Farkas certificate
once no point of the tol-widened box satisfies it.  A solve keeps such sums
over windows of sweeps (:class:`_StepAggregate`): the whole solve, and the
recent windows that start at the last two multiples of ``2**j`` for every j.
After each sweep it tests every window, and the first that separates the
box from its sum ends the solve with ``infeasibility_certified``.  The early
steps, taken far from the sets, can keep the whole solve's sum from
separating long after the recent steps would; a window's sum is a valid
combination too, so its certificate is as sound.

A step with relaxation lambda off a side violated by ``v`` adds about
``(lambda - lambda**2 / 2) v**2 / |h|**2`` to the certificate's gap: 0.375
of ``v**2 / |h|**2`` for CSPM's default lambda = 1.5.  ART3+ mixes three
steps.  A reflection (lambda = 2) adds only ``-2 tol v / |h|**2``, about
zero.  A midline projection, taken when the overshoot ``v`` exceeds the
interval width ``w``, is lambda = 1 + w / (2 v) in (1, 1.5) and adds a
positive share, and the unrelaxed level visit (lambda = 1) adds
``v**2 / (2 |xi|**2)``.  So ART3+'s own steps prove its empty level sets.

On a quadratic objective, ``f(x - s xi) = f(x) - s |xi|**2 + q s**2 / 2``
with ``q = xi' Q xi``.  When ``|xi|**4 < 2 q v`` no point of that ray
reaches the level, and the level visit steps to the ray's lowest point, ``s
= |xi|**2 / q``, whatever the solver's lambda.  That is the step off the
same linearisation with lambda = ``|xi|**4 / (q v)`` in (0, 2), so its
share of the gap is positive too.  At a level below the objective's
minimum, ``lambda v / |xi|**2`` grows as ``|xi|`` shrinks, and x overshoots
the minimiser sweep after sweep; the ray-minimum step does not.

Single steps zig-zag between two oracle sets whose surfaces meet at a small
angle, closing on their intersection only as fast as that angle allows.  So
an oracle visit (an oracle constraint, or the level) that is violated after
a violated visit of another oracle function in the same solve may step off
both cuts at once, the surrogate step of Kiwiel (Linear Algebra Appl. 215,
1995) on the last two cuts.  The older cut ``xi_1 . y <= xi_1 . x^_1 -
v_1`` is kept as ``xi_1``, ``xi_1 . x^_1`` and ``v_1``.  When the single
step would leave x outside that cut's halfspace, x takes the lambda-relaxed
projection onto the intersection of both cuts' halfspaces, ``x - lambda
(mu_1 xi_1 + mu_2 xi_2)`` with ``mu = G^-1 r``, G the cuts' 2x2 Gram matrix
and r their violations at x, provided both multipliers are nonnegative and
``det G`` is not negligible; otherwise the step is the single one, and a
ray-minimum step keeps its precedence.  The intersection holds every point
of both sets, so the step is Fejer monotone as a single projection is, and
each cut enters the Farkas sum with its own multiplier, so every
certificate stands as before.  Its share of the gap is about ``(lambda -
lambda**2 / 2) d**2``, d the distance from x to that intersection; d is at
least ``v / |xi|``, so the share is at least the single step's.

Runs of affine constraints are packed into dense arrays and swept by the
kernels in :mod:`cfpopt._kernels`; any other convex constraint is handled
through its value/subgradient oracle.  The box, a solve's ``bounds``, is
swept as its coordinate rows after the constraint list.  Every solver kind
screens its rows: a row whose last evaluation and the path x has travelled
since (its own coordinate's path, for a row with one nonzero entry) prove it
satisfied is skipped, with no change to any iterate (ART3+
drops it from its work queue, as it would a row it found satisfied).  So a
solve's ``projections`` counts rows evaluated; a row the screen proves
satisfied is skipped.  The solves of one scheme run share a
:class:`RowPlan`: the rows are packed once per run, and a solve starts from
the screens the last one left, rebased at its start, so a row need not be
evaluated again in each solve to be skipped.

The objective level ``f(x) <= t`` of the paper's scheme is a slot of the
sweeper, not a constraint object: given the objective and a finite level,
every pass visits it after the box, evaluating ``f`` through the run's
:meth:`Counters.objective`.  A violated level at a point where the
objective's subgradient vanishes proves the level set empty (that point
minimises f), and the pass ends the solve with ``infeasibility_certified``.
A level below the objective's :meth:`~cfpopt.model.ConvexFunction.lower_bound`
is empty before any sweep: when ``lower_bound() - t`` exceeds tol, so does
every level visit's ``f(x) - t`` (each computed ``f(x)`` is at least the
bound, and rounding is monotone), and the solve returns
``infeasibility_certified`` at zero sweeps, with no projection, objective
call or superiorization step.

:func:`cfp_solve` is the one entry to every feasibility solve: a
:class:`SolverSpec` holds all its settings (solver kind, superiorization,
relaxation, tolerance and time-out), and :func:`cfp_with_level` is its call
for a problem's level test.  Each solve is one sweeper (:func:`make_sweeper`):
its constructor plans the solve once for every kind (the level slot, and the
row segments and step aggregate, which it takes from the run's plan when the
run has packed them), its pass is the kind's projection rule, and its
``run`` is the one sweep/time-out loop, with one hook before each sweep.  A
superiorized solve (:class:`SuperiorizationConfig`, see
:mod:`cfpopt.superiorize`) perturbs there, toward smaller values of the
objective the level reads, within the box the emptiness test reads.  A solve
returns only its outcome; its iterates and perturbations are watched from
outside, by rebinding :func:`make_sweeper` and wrapping its sweeper's
``run`` and ``sweep``.  This module owns the step rule: one CSPM sweep over
a single set is the relaxed (subgradient) projection onto it, lambda in (0,
2); :class:`ZeroSubgradientError` flags a violated constraint that admits no
step, and an oracle visit that reads a NaN value or would take a non-finite
step raises ``ValueError`` before x moves.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .model import AffineConstraint, Bounds, ConvexFunction, Counters, Problem, QuadraticFunction, as_vector

__all__ = [
    "FeasibilityOutcome",
    "RowPlan",
    "ZeroSubgradientError",
    "SolverSpec",
    "SuperiorizationConfig",
    "cfp_solve",
    "cfp_with_level",
    "DEFAULT_MAX_SWEEPS",
    "DEFAULT_FEAS_TOL",
    "DEFAULT_RELAXATION",
]

DEFAULT_MAX_SWEEPS = 1000
DEFAULT_FEAS_TOL = 1e-8
# over-relaxed step, midpoint of the open interval (1, 2)
DEFAULT_RELAXATION = 1.5
# below this squared norm a subgradient is treated as zero (guards Inf steps)
_NORM2_FLOOR = 1e-300


class ZeroSubgradientError(ValueError):
    """A violated constraint returned a (numerically) zero subgradient.

    For a consistent set this cannot happen: a zero subgradient at x would
    force c(x) to be a global minimum, contradicting c(x) > 0.
    """


@dataclass
class FeasibilityOutcome:
    """Result of one feasibility attempt.

    ``found`` is True when a full sweep certified every constraint within
    tolerance; otherwise ``x`` is the last iterate, and either the solver
    timed out or it proved that no point satisfies every constraint within
    tolerance.  The counters cover this solve only; ``moves`` counts the
    projection calls that actually displaced the iterate.
    ``infeasibility_certified`` marks such a proof: the sum of the steps
    taken, over the whole solve or over a window of recent sweeps, separates
    the tol-relaxed constraint set from the bound box (any solver kind given
    the bound box), a level visit found ``f > t`` at a minimizer of the
    objective, or the level lies more than tol below the objective's
    :meth:`~cfpopt.model.ConvexFunction.lower_bound` (at zero sweeps, before
    any work).  ``projections`` counts the rows evaluated and the oracle
    visits; a row the screen proves satisfied is skipped and not counted.
    In a scheme run that screen carries over from the run's earlier solves
    (see :class:`RowPlan`), so a solve's count depends on them, though its
    ``x`` and verdict do not.
    """

    found: bool
    x: np.ndarray
    sweeps: int
    projections: int
    obj_evals: int
    moves: int
    infeasibility_certified: bool = False

    @property
    def timed_out(self) -> bool:
        return not (self.found or self.infeasibility_certified)


def _check_count(name: str, value, least: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (numpy's too) of at least ``least``."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value}") from None
    if value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")


@dataclass(frozen=True)
class SuperiorizationConfig:
    """Knobs of the perturbation engine (see :mod:`cfpopt.superiorize`).

    ``N`` accepted perturbations are taken per outer iteration; step sizes
    are ``a**l`` with ``0 < a < 1``.
    """

    N: int = 1
    a: float = 0.5

    def __post_init__(self):
        _check_count("N", self.N, 0)
        if not 0.0 < self.a < 1.0:
            raise ValueError("step-size kernel a must lie in (0, 1)")


@dataclass(frozen=True)
class SolverSpec:
    """How a feasibility solve runs; a scheme passes it to each of its tests unchanged.

    The solver ``kind``, superiorized by ``sup`` when that is set; the cyclic
    solvers' relaxation ``lam`` in (0, 2) (ART3+ ignores it); the tolerance
    ``tol``; and the time-out after ``max_sweeps`` sweeps.  Construction is
    the one check of these settings: it raises ``ValueError`` on any that no
    solve can run, a ``sup`` that is not a :class:`SuperiorizationConfig`
    among them.
    """

    kind: str = "cspm"  # cspm | pocs | art3+
    sup: SuperiorizationConfig | None = None
    lam: float = DEFAULT_RELAXATION
    tol: float = DEFAULT_FEAS_TOL
    max_sweeps: int = DEFAULT_MAX_SWEEPS

    def __post_init__(self):
        if self.kind not in ("cspm", "pocs", "art3+"):
            raise ValueError(f"unknown feasibility solver {self.kind!r}")
        if self.sup is not None and not isinstance(self.sup, SuperiorizationConfig):
            raise ValueError(f"sup must be a SuperiorizationConfig or None, got {self.sup!r}")
        lam, tol = float(self.lam), float(self.tol)
        if not 0.0 < lam < 2.0:
            raise ValueError(f"relaxation parameter must lie in (0, 2), got {lam}")
        if not np.isfinite(tol) or tol < 0.0:
            raise ValueError(f"feasibility tolerance must be finite and nonnegative, got {tol}")
        _check_count("max_sweeps", self.max_sweeps, 1)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "tol", tol)


def _pack(rows: list[AffineConstraint], bounds: Bounds | None, path: np.ndarray) -> _kernels.Rows | None:
    """Pack ``rows``, then a unit row per column of ``bounds`` with a finite bound; None if no row.

    The rows come bound to the solve's screen state ``path`` (see
    :class:`cfpopt._kernels.Rows`).
    """
    lo = [r.lo for r in rows]
    hi = [r.hi for r in rows]
    norm2 = [r.norm2 for r in rows]
    cols = np.empty(0, dtype=np.intp)
    if bounds is not None:
        cols = np.flatnonzero(np.isfinite(bounds.lo) | np.isfinite(bounds.hi))
        lo.extend(bounds.lo[cols].tolist())
        hi.extend(bounds.hi[cols].tolist())
        norm2.extend([1.0] * cols.shape[0])
    if not lo:
        return None
    m = len(rows)
    A = np.zeros((len(lo), rows[0].a.shape[0] if rows else bounds.lo.shape[0]))
    for i, r in enumerate(rows):
        A[i] = r.a
    A[m + np.arange(cols.shape[0]), cols] = 1.0
    return _kernels.Rows(A, np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64),
                         np.array(norm2, dtype=np.float64), path)


def _segment(constraints, bounds: Bounds | None, path: np.ndarray) -> list[tuple[str, object]]:
    """Split the cyclic list, then the box's rows, into bound affine runs and generic singletons."""
    segments: list[tuple[str, object]] = []
    run: list[AffineConstraint] = []
    for c in constraints:
        if isinstance(c, AffineConstraint):
            run.append(c)
        else:
            if run:
                segments.append(("rows", _pack(run, None, path)))
                run = []
            segments.append(("fn", c))
    tail = _pack(run, bounds, path)
    if tail is not None:
        segments.append(("rows", tail))
    return segments


# unit roundoff of float64
_UNIT = 2.0**-53
# relative slack on the magnitudes behind the emptiness test: some 10^7 times
# the rounding of the sums it covers, and still far below the gap, which grows
# with every violated visit
_CERT_RTOL = 2.0**-30


class _StepAggregate:
    """Running Farkas combinations of a solve's steps: over the whole solve and over recent windows.

    Each step moves x by ``-mu * h`` with ``mu >= 0`` off a halfspace
    ``h . y <= beta + tol`` that holds every point whose violations are all
    at most tol: a moved row's violated side (``h = +-a_i``), or a moved
    oracle constraint's linearisation at the visit point x^, ``xi . y <=
    xi . x^ - v + tol`` (subgradient inequality).  A sum of any of these,
    ``c . y <= b`` with ``c = sum mu h`` and ``b = sum mu (beta + tol)``,
    then holds on that set too, and the bound rows confine the set to the
    tol-widened box.  When the minimum of ``c . y`` over the box exceeds
    ``b`` by more than the rounding margin, the set is empty.

    A window sums the steps of the sweeps from its start through the last
    one.  The window that starts at sweep 0 is every step of the solve; the
    others start at the last two multiples of ``2**j`` up to the current
    sweep, for every j.  Sweep k opens the window that starts at it, in the
    column of the one window that leaves that set then, the one from ``s =
    k - 2 * lowbit(k)`` when ``s > 0``; so at sweep k at most
    ``k.bit_length() + 1`` windows are live, 11 in 1000 sweeps, and every
    column of ``windows`` is one of them.  A column is ``[|c|, c, b, size,
    steps]``, and each sweep adds its own ``[0, x_in - x_out, b, size,
    steps]`` to every column (:meth:`begin`, :meth:`end`): ``c`` is summed
    from the iterates, so the perturbations a superiorized solve makes
    between sweeps stay out of it, and ``b`` and the magnitudes the margin
    needs come from the row kernels' step sums (:meth:`add`) and from
    :meth:`add_linearization` for the oracle steps.

    A window keeps its own running sums, never a difference of two running
    totals, so its sums round relative to its own steps.  Its margin is the
    whole solve's rule applied to the window: its own sums and box minimum,
    the moves and sweeps it spans (the x updates that round its ``c``), and
    the norm of x at the solve's start and now.  So each window's margin
    covers the rounding of its own certificate, and a window that certifies
    is as sound as the whole solve's sum.  A column with an infinite bound
    defeats a window's test while its ``c_j`` is nonzero.
    """

    def __init__(self, bounds: Bounds, tol: float):
        lo, hi = bounds.lo - tol, bounds.hi + tol
        unbounded = ~(np.isfinite(lo) & np.isfinite(hi))
        self.unbounded = np.flatnonzero(unbounded) if unbounded.any() else None
        lo, hi = np.where(unbounded, 0.0, lo), np.where(unbounded, 0.0, hi)
        n = self.n = lo.shape[0]
        self.reach = np.maximum(np.abs(lo), np.abs(hi))
        self.reach1 = float(self.reach.sum())
        self.reach2 = math.sqrt(float(self.reach @ self.reach))
        # the product of these with a window's first 2n + 1 entries is its
        # gap: the minimum of c . y over the box, c . mid - |c| . half, less b
        self.gap_weights = np.concatenate([-0.5 * (hi - lo), 0.5 * (lo + hi), [-1.0]])
        self.tol = tol
        # this sweep's [0, x_in - x_out, b, size, steps]: the last three are
        # the sums over its steps of mu (beta + tol), mu (|beta| + tol) and
        # mu |h|, gathered in b_k, size_k and steps_k; the middle one takes a
        # bound on |beta| for oracle steps
        self.sweep = np.zeros((2 * n + 3, 1))
        self.x_in, self.sums = self.sweep[n:2 * n, 0], self.sweep[2 * n:, 0]

    def _views(self) -> None:
        """Bind the views of ``windows`` that every sweep reads."""
        n = self.n
        w = self.windows
        self.abs_c, self.c_all, self.gap_rows = w[:n], w[n:2 * n], w[:2 * n + 1]

    @property
    def c(self) -> np.ndarray:
        """The whole solve's ``c``."""
        return self.windows[self.n:2 * self.n, 0]

    @property
    def b(self) -> float:
        """The whole solve's ``b``."""
        return float(self.windows[2 * self.n, 0])

    def begin(self, x: np.ndarray, k: int) -> None:
        """Open sweep ``k`` (0-based) from ``x``, and the window that starts at it.

        Sweep 0 starts a solve: the windows of any solve before it are dropped.
        """
        if k == 0:
            # one column per window, [|c|, c, b, size, steps], every column live:
            # the |c| and c blocks are contiguous, so their abs and the gaps'
            # product are one call each
            self.windows = np.zeros((2 * self.n + 3, 1))
            self._views()
            # per column the start sweep of its window and the moves made before it
            self.starts: list[tuple[int, int] | None] = [None]
            self.moves = 0
            self.x0x0 = float(x @ x)
        self._open(k)
        self.x_in[:] = x
        self.b_k = self.size_k = self.steps_k = 0.0

    def _open(self, k: int) -> None:
        """Open the window that starts at sweep ``k``, in the column of the window that ends at it.

        That window starts at ``s = k - 2 * lowbit(k)``, whose lowest set bit
        is k's, so every window of a column starts at a sweep with the same
        lowest set bit, and column ``lowbit(k).bit_length()`` holds them.
        """
        col = (k & -k).bit_length()  # 0 for the window that starts at sweep 0
        if col == len(self.starts):  # the column's first window (k a power of two): one column more
            self.windows = np.hstack([self.windows, np.zeros((self.windows.shape[0], 1))])
            self._views()
            self.starts.append(None)
        else:
            self.windows[:, col] = 0.0
        self.starts[col] = (k, self.moves)

    def end(self, x: np.ndarray, moves: int, sweeps: int, found: bool) -> bool:
        """Close the sweep that led to ``x``; True when the system is proven empty."""
        self.x_in -= x
        self.sums[:] = self.b_k, self.size_k, self.steps_k
        self.windows += self.sweep
        self.moves = moves
        return not found and self.empty(x, moves, sweeps)

    def add(self, b: float, size: float, steps: float) -> None:
        """Count row steps by their sums, as ``cspm_sweep`` and ``art3_pass`` write them."""
        self.b_k += b
        self.size_k += size
        self.steps_k += steps

    def add_linearization(self, cut: _Cut, mu: float) -> None:
        """Count an oracle step ``-mu * cut.xi`` off ``xi . y <= xi . x^ - v + tol``.

        That is the subgradient inequality of the visited function at the
        visit point x^, where it is violated by ``v > tol`` and has
        subgradient ``xi`` (see :class:`_Cut`).
        """
        at, v = cut.at, cut.v
        size = abs(at) + abs(v) + cut.level
        tol = self.tol
        self.add(mu * (at - v + tol), mu * (size + tol), mu * cut.norm)

    def empty(self, x: np.ndarray, moves: int, sweeps: int) -> bool:
        """True when, for some window, no point of the tol-widened box satisfies ``c . y <= b``."""
        np.abs(self.c_all, out=self.abs_c)
        gaps = (self.gap_weights @ self.gap_rows).tolist()
        if max(gaps) <= 0.0:
            return False
        n = self.n
        xnorm = math.sqrt(max(self.x0x0, float(x.dot(x))))
        for i, gap in enumerate(gaps):
            if not gap > 0.0:
                continue
            window = self.windows[:, i]
            if self.unbounded is not None and window[n + self.unbounded].any():
                continue
            abs_c = window[:n]
            c_reach, c1 = float(abs_c @ self.reach), float(abs_c.sum())
            size, steps = window[2 * n + 1:].tolist()
            start, moves0 = self.starts[i]
            # the sums, the box minimum and the found test's dot products
            # round relative to these magnitudes; each x update rounds c by
            # at most a few units of the coordinates it touches
            margin = (_CERT_RTOL * (size + c_reach + steps * max(self.reach2, xnorm))
                      + 64.0 * _UNIT * (moves - moves0 + 2 * (sweeps - start)) * (xnorm + c1)
                      * self.reach1)
            if gap > margin:
                return True
        return False


class _Cut:
    """A violated oracle visit's linearisation: ``xi . y <= at - v`` holds every point of its set.

    ``fn`` is the visited function, ``xi`` a copy of its subgradient at the
    visit point x^ (a function may hand out a buffer of its own, or x),
    ``at`` is ``xi . x^``, ``v > tol`` the violation there, ``norm2`` and
    ``norm`` are ``|xi|**2`` and ``|xi|``, and ``level`` is ``|t|`` for the
    objective at level t, whose violation ``f(x^) - t`` rounds relative to
    |t| too, and 0 for a constraint.
    """

    __slots__ = ("fn", "xi", "at", "v", "norm2", "norm", "level")

    def __init__(self, fn, xi: np.ndarray, at: float, v: float, norm2: float, level: float):
        self.fn, self.xi, self.at, self.v, self.level = fn, xi.copy(), at, v, level
        self.norm2, self.norm = norm2, math.sqrt(norm2)


# a Gram determinant at most this share of |xi_1|^2 |xi_2|^2 is negligible.  The
# share is the squared sine of the cuts' angle; the multipliers round by about
# 2^-53 over it, and the step's two terms cancel by the sine again, so above
# the floor (an angle of about 1e-3) the step rounds by at most about 2^-23
_GRAM_FLOOR = 2.0**-20


def _pair_multipliers(older: _Cut, cut: _Cut, x: np.ndarray, coef: float) -> tuple[float, float] | None:
    """The multipliers of the projection of ``x`` onto both cuts' zero-level halfspaces, or None.

    ``cut`` was taken at ``x`` and ``coef`` is its single step.  With Gram
    matrix ``G`` of the two subgradients and ``r`` their halfspaces'
    violations at x, ``mu = G^-1 r`` gives the projection ``x - mu_1 xi_1 -
    mu_2 xi_2`` onto the two boundaries' intersection, which is the
    projection onto the halfspaces' intersection when both multipliers are
    nonnegative.  None when the single step already satisfies the older
    cut, a multiplier is negative or not finite, or the determinant is
    negligible (see ``_GRAM_FLOOR``).
    """
    g = float(older.xi.dot(cut.xi))
    r1 = float(older.xi.dot(x)) - (older.at - older.v)
    if not r1 - coef * g > 0.0:
        return None
    n1, n2 = older.norm2, cut.norm2
    det = n1 * n2 - g * g
    if not det > _GRAM_FLOOR * (n1 * n2):
        return None
    mu1, mu2 = (n2 * r1 - g * cut.v) / det, (n1 * cut.v - g * r1) / det
    if not (0.0 <= mu1 < math.inf and 0.0 <= mu2 < math.inf):
        return None
    return mu1, mu2


class RowPlan:
    """What the feasibility solves of one scheme run share: their rows, packed once, and where x was left.

    The run's first solve builds it (see :class:`_Sweeper`): ``segments``,
    the cyclic list and the box split into bound row runs
    (:class:`cfpopt._kernels.Rows`, with their screen state) and oracle
    constraints; ``aggregate``, the :class:`_StepAggregate` with the box's
    constants (None without a box); and ``path``, the path sum state every
    binding reads.  ``x`` is the point that state is current for: the
    iterate of the last sweep, kept as a copy once a solve returns (None
    before the first sweep).  Each later solve reads the rows' screens as
    the last one left them: its first sweep adds the jump from ``x`` to its
    own start to the path sum and rebases every screen there
    (:meth:`rebase`), so a row that the last solve left proven satisfied,
    and that nothing since has moved far enough to violate, is not
    evaluated again.  A plan serves the solves of one problem with one
    :class:`SolverSpec`, in turn; every solve without a plan gets a fresh
    one.
    """

    __slots__ = ("segments", "aggregate", "path", "x")

    def __init__(self):
        self.segments = self.aggregate = self.x = None
        self.path = np.zeros(3)

    def rebase(self, x: np.ndarray) -> None:
        """Start the screens' paths again at ``x``, a new solve's start, keeping what they prove.

        The jump from ``self.x`` to ``x`` goes into the path sum, as a jump
        between sweeps does; then each binding folds every row's screen bound
        into its stored violation and zeroes its paths
        (:meth:`cfpopt._kernels.Rows.rebase`), and the path sum restarts at
        0.  The caller sets ``|x|_2`` and the slack for the new solve's
        updates, as for a first solve.
        """
        path = self.path
        jump = x - self.x
        path[0] += math.sqrt(float(jump.dot(jump)))
        P, x0n, rel = path.tolist()
        for tag, seg in self.segments:
            if tag == "rows":
                seg.rebase(P, x0n, rel)
        path[0] = 0.0


class _Sweeper:
    """One feasibility solve: its plan, built once, and its sweep/time-out loop.

    The constructor plans the solve as ``solver`` says: the cyclic list, then
    the box, split into bound row runs and oracle constraints
    (``segments``, see :func:`_segment`), the level slot ``level`` (the
    objective when ``t`` is finite, else None), and the box's
    :class:`_StepAggregate` (``aggregate``, None without a box).  A system
    with nothing to sweep is ``certified`` from the start, a level more than
    tol below the objective's ``lower_bound()`` is ``empty`` from the start,
    and :meth:`run` returns either before any sweep.  It is the one
    sweep/time-out loop; each :meth:`sweep` opens the aggregate,
    runs the kind's ``_pass(x, k)``, which adds its steps to it, and closes
    it, setting ``empty`` once the aggregate proves the system has no
    tol-feasible point.  ``updates`` is the most x updates one pass makes: a
    jump before it, a move per row, and one per oracle visit and the level.

    The segments and the aggregate come from ``plan`` (a :class:`RowPlan`;
    a fresh one when None), built by its first solve: the packed rows are
    bound once per scheme run (:func:`_pack`, to a
    :class:`cfpopt._kernels.Rows`) and screened: a kernel skips a row that
    its last evaluation and the path x has travelled since prove satisfied,
    and evaluates and counts only the others.  There are two screens.  A
    row with one nonzero entry (a box row, or a singleton constraint row)
    reads how far its own coordinate has moved, which its binding measures
    itself at each kernel call.  Every other row reads the path sum
    ``path[0]``, which the sweeper keeps: it grows by ``coef * |h|`` for
    every row, oracle and level step (by the step's length for a step off
    two cuts, see :meth:`_visit`), and by ``|x_in - x_out|_2`` when a
    sweep starts from a point other than the one the last sweep returned (a
    superiorization perturbation).  That point is copied into the returned
    array, so every sweep updates the one array the kernels have bound; an
    iterate the sweeper returned must not be changed in place between
    sweeps.  When the plan's last solve swept, the first sweep adds the
    jump from where it left x and rebases the screens there
    (:meth:`RowPlan.rebase`), and the solve leaves a copy of its last
    iterate in the plan.
    """

    def __init__(self, solver: SolverSpec, constraints, counters: Counters, bounds: Bounds | None,
                 objective: ConvexFunction | None, t: float, plan: RowPlan | None = None):
        self.solver = solver
        self.tol = solver.tol
        self.counters = counters
        self.level = objective if t < np.inf else None
        self.t = t
        # a quadratic level's Q, for the ray-minimum step (see _visit)
        self.curvature = objective.Q if isinstance(self.level, QuadraticFunction) else None
        self.moves = 0
        # _visit's test fails at every point: each computed f(x) is at least
        # lower_bound(), and rounding is monotone, so f(x) - t rounds to at least this
        self.empty = self.level is not None and objective.lower_bound() - t > self.tol
        plan = self.plan = plan if plan is not None else RowPlan()
        if plan.segments is None:
            plan.segments = _segment(constraints, bounds, plan.path)
            plan.aggregate = _StepAggregate(bounds, self.tol) if bounds is not None else None
        self.segments, self.aggregate = plan.segments, plan.aggregate
        # the path sum P, |x0|_2 and the margin's relative slack
        self.path = plan.path
        self.rtol_events = -1  # the update count path[2] holds for
        self.x_out = None
        self.cut = None  # the solve's last violated oracle visit (see _visit)
        # a jump at the start of a sweep and a move per visit
        self.updates = (1 + sum(seg.A.shape[0] if tag == "rows" else 1 for tag, seg in self.segments)
                        + (self.level is not None))
        self.certified = self.updates == 1

    def run(self, x0: np.ndarray, before_sweep=None) -> FeasibilityOutcome:
        """The sweep/time-out loop of every feasibility solve, from ``x0``.

        Sweeps until one certifies every constraint within tolerance (found),
        the sweeps prove the system empty, or the solve times out after
        ``max_sweeps`` sweeps.  ``before_sweep(x, k)``, when given, maps the
        iterate just before sweep ``k``; superiorization perturbs it there.
        It is the loop's one hook; the iterate of each sweep is what
        :meth:`sweep` returns.
        """
        counters = self.counters
        x = x0.copy()
        proj0 = counters.projections
        obj0 = counters.obj_evals
        sweeps = 0
        if self.certified or self.empty:  # vacuous system, or a level below the objective's bound
            return FeasibilityOutcome(self.certified, x, 0, 0, 0, 0, infeasibility_certified=self.empty)
        for k in range(self.solver.max_sweeps):
            if before_sweep is not None:
                x = before_sweep(x, k)
            x = self.sweep(x, k)
            sweeps = k + 1
            if self.certified or self.empty:
                break
        self.plan.x = x.copy()
        return FeasibilityOutcome(
            bool(self.certified), x, sweeps, counters.projections - proj0,
            counters.obj_evals - obj0, self.moves, infeasibility_certified=self.empty,
        )

    def sweep(self, x: np.ndarray, k: int) -> np.ndarray:
        path = self.path
        if k == 0:
            if self.plan.x is not None:  # the run's last solve swept: carry its screens to x
                self.plan.rebase(x)
            # every sweep of the solve updates this array, so the screens stay current for it
            self.plan.x = x
            path[1] = math.sqrt(float(x @ x))
        elif x is not self.x_out:
            jump = x - self.x_out
            path[0] += math.sqrt(float(jump.dot(jump)))
            self.x_out[:] = x
            x = self.x_out
        # the slack for twice the updates so far holds until they double
        events = self.moves + k + self.updates
        if events > self.rtol_events:
            self.rtol_events = 2 * events
            path[2] = _kernels.screen_rtol(x.shape[0], self.rtol_events)
        agg = self.aggregate
        if agg is not None:
            agg.begin(x, k)
        x = self._pass(x, k)
        if agg is not None:
            self.empty = agg.end(x, self.moves, k + 1, self.certified) or self.empty
        self.x_out = x
        return x

    def _count_pass(self, rows: _kernels.Rows, moves: int) -> None:
        """Count a row kernel call's moves, and the step sums and rows evaluated in ``rows.out``."""
        b, size, steps, evaluated = rows.out.tolist()[:4]
        if self.aggregate is not None:
            self.aggregate.add(b, size, steps)
        self.counters.projections += int(evaluated)
        self.moves += moves

    def _visit(self, fn: ConvexFunction, x: np.ndarray, lam: float,
               level: bool = False) -> tuple[np.ndarray, float]:
        """Visit ``fn(x) <= 0``, or ``f(x) <= t`` for the objective ``fn`` when ``level``.

        Returns x and the violation v.  When ``v > tol``, x takes the
        subgradient step ``lam * v / |xi|**2`` along ``-xi``, in place; at a
        quadratic level that this ray does not reach (``|xi|**4 < 2 q v``,
        ``q = xi' Q xi`` finite and positive) it steps ``|xi|**2 / q``, to the
        ray's lowest point, the step of relaxation ``|xi|**4 / (q v)`` in
        (0, 2).  Otherwise, when the solve's last violated oracle visit
        (``cut``) was of another function and the step would violate that
        visit's cut, x takes the ``lam``-relaxed projection onto both cuts'
        halfspaces (:func:`_pair_multipliers`; see the module docstring):
        each cut enters the aggregate with ``lam`` times its multiplier, and
        the path sum grows by the length of the step, as for a jump.  The
        visit's cut becomes ``cut`` either way.  A vanishing subgradient
        allows no step: at the level it makes x a minimiser of f, so the
        level set is empty and ``empty`` is set; any other constraint raises
        :class:`ZeroSubgradientError`.  A NaN value, or a violated visit
        whose step is not finite, raises ``ValueError`` before x changes: no
        pass can certify or prove anything past it.
        """
        self.counters.projections += 1
        v = self.counters.objective(fn, x) - self.t if level else fn.value(x)
        if v != v:
            raise ValueError(f"{'objective' if level else 'constraint'} {fn!r} is NaN at the visit point")
        if v > self.tol:
            xi = fn.subgrad(x)
            # ndarray.dot, here and in the other per-sweep products: the same BLAS
            # ddot as @, at about 1 us less call overhead on these short vectors
            norm2 = float(xi.dot(xi))
            if norm2 < _NORM2_FLOOR:
                if not level:
                    raise ZeroSubgradientError(f"violated constraint (value {v}) has zero subgradient")
                self.empty = True
                return x, v
            coef = lam * v / norm2
            ray = False
            if level and self.curvature is not None:
                # f along -xi is f(x) - s |xi|^2 + q s^2 / 2: when that stays above
                # the level, step to its lowest point
                q = float(xi.dot(self.curvature.dot(xi)))
                ray = 0.0 < q < math.inf and norm2 * norm2 < 2.0 * q * v
                if ray:
                    coef = norm2 / q
            if not (norm2 < math.inf and coef < math.inf):
                raise ValueError(f"{'objective' if level else 'constraint'} {fn!r} gives a non-finite "
                                 f"step (violation {v}, |xi|^2 {norm2})")
            cut = _Cut(fn, xi, float(xi.dot(x)), v, norm2, abs(self.t) if level else 0.0)
            older, self.cut = self.cut, cut
            pair = None
            if not ray and older is not None and older.fn is not fn:
                pair = _pair_multipliers(older, cut, x, coef)
            agg = self.aggregate
            if pair is None:
                if agg is not None:
                    agg.add_linearization(cut, coef)
                x -= coef * xi
                self.path[0] += coef * cut.norm
            else:
                mu1, mu2 = lam * pair[0], lam * pair[1]
                if agg is not None:
                    agg.add_linearization(older, mu1)
                    agg.add_linearization(cut, mu2)
                step = mu1 * older.xi + mu2 * cut.xi
                x -= step
                self.path[0] += math.sqrt(float(step.dot(step)))
            self.moves += 1
        return x, v


class CyclicSweeper(_Sweeper):
    """One full cyclic pass of relaxed (subgradient) projections per sweep.

    On affine constraints the subgradient projection is the orthogonal
    projection, so this single sweeper implements both CSPM and POCS.  The
    level, when there is one, is the last element of the cycle, relaxed like
    the rest.  Each packed run of rows is one screened ``cspm_sweep`` call.
    """

    def _pass(self, x: np.ndarray, k: int) -> np.ndarray:
        lam = self.solver.lam
        tol = self.tol
        maxv = 0.0
        for tag, seg in self.segments:
            if tag == "rows":
                v, moved = _kernels.cspm_sweep(seg.A, seg, x, lam, tol)
                self._count_pass(seg, moved)
            else:
                x, v = self._visit(seg, x, lam)
            if v > maxv:
                maxv = v
        if self.level is not None:
            x, v = self._visit(self.level, x, lam, level=True)
            if v > maxv:
                maxv = v
        self.certified = maxv <= tol
        return x


class Art3Sweeper(_Sweeper):
    """ART3+ work-queue passes over interval rows and the box's (plus an optional level).

    Each visited row applies the automatic-relaxation rule: overshoot at most
    the interval width reflects across the violated face, larger overshoot
    projects onto the midline hyperplane.  Rows found satisfied are dropped
    from the queue; when the queue empties after any move, all rows are
    reloaded.  The point is certified feasible when a pass over the full list
    makes no move.  The level, when there is one, rides at the end of the
    queue (``level_queued``) and is visited by an unrelaxed subgradient
    projection, or, at a quadratic level out of the ray's reach, by the step
    to the ray's lowest point (see :meth:`_Sweeper._visit`).

    The rows, all affine, are the plan's one segment, bound as ``packed``
    for one screened ``art3_pass`` call per pass: a queued row the screen
    proves satisfied is dropped unevaluated, exactly as if it had been found
    satisfied, so the queue, the iterates and the certification are those of
    an unscreened pass, and ``projections`` counts the rows evaluated.

    Every step, reflection and midline projection alike, moves x by a
    nonnegative multiple of the normal of the violated side, so the steps
    feed the same :class:`_StepAggregate` as CSPM's.
    """

    # the queue before the first pass: empty, without the level, so that pass fills it
    queue = np.empty(0, dtype=np.int64)
    level_queued = False

    def __init__(self, *args):
        super().__init__(*args)
        self.packed = self.segments[0][1] if self.segments else None
        self.full = np.arange(0 if self.packed is None else self.packed.A.shape[0], dtype=np.int64)

    def _pass(self, x: np.ndarray, k: int) -> np.ndarray:
        # a pass that emptied the queue without a move certified the point,
        # so an empty queue here is the first pass or follows a move: a refill
        if self.queue.shape[0] == 0 and not self.level_queued:
            self.queue = self.full.copy()
            self.level_queued = self.level is not None
            self.moved_since_refill = False

        queue = self.queue
        if queue.shape[0] > 0:
            packed = self.packed
            kept = _kernels.art3_pass(packed.A, packed, x, self.tol, packed.out, queue)
            self._count_pass(packed, kept.shape[0])
        else:
            kept = queue

        if self.level_queued:
            x, v = self._visit(self.level, x, 1.0, level=True)
            self.level_queued = v > self.tol

        if kept.shape[0] > 0 or self.level_queued:
            self.moved_since_refill = True
        self.queue = kept
        self.certified = not self.moved_since_refill
        return x


def make_sweeper(solver: SolverSpec, constraints, counters: Counters,
                 bounds: Bounds | None = None, objective: ConvexFunction | None = None,
                 t: float = np.inf, plan: RowPlan | None = None):
    """Build the sweeping engine for one CFP solve, as ``solver`` says.

    ``bounds``, when given, is the box: the sweeps visit its coordinate rows
    (one per column with a finite bound) after ``constraints``, and every
    solver kind tests for emptiness after every sweep.  ``objective`` with a
    finite level ``t`` gives the sweeper its level slot, ``f(x) <= t``,
    visited after the box on every pass.  This is the only check of a solver
    kind against its constraints: POCS and ART3+ take affine rows alone (any
    objective as the level), and anything else raises ``ValueError`` before
    any sweep, as does a level that is NaN or -inf.  A level ``t`` with
    ``objective.lower_bound() - t > tol`` is proven empty here, before any
    sweep: the sweeper's ``run`` returns ``infeasibility_certified`` at zero
    sweeps.  ``plan``, when given, is the run's :class:`RowPlan`: the rows
    it packed for an earlier solve of the same problem, with their screens.
    """
    t = float(t)
    if np.isnan(t) or t == -np.inf:
        raise ValueError("level must be finite or +inf")
    rows = list(constraints)
    if solver.kind in ("pocs", "art3+"):
        for c in rows:
            if not isinstance(c, AffineConstraint):
                raise ValueError(f"{solver.kind} requires affine (interval) constraints, got {c!r}")
    sweeper = Art3Sweeper if solver.kind == "art3+" else CyclicSweeper
    return sweeper(solver, rows, counters, bounds, objective, t, plan)


def cfp_solve(constraints, x0, solver: SolverSpec | str = "cspm",
              counters: Counters | None = None, *, bounds: Bounds | None = None,
              objective: ConvexFunction | None = None, t: float = np.inf,
              plan: RowPlan | None = None) -> FeasibilityOutcome:
    """Seek a point of ``constraints`` (and of ``objective(x) <= t``) from ``x0``.

    The one feasibility solve, run as ``solver`` says (a bare kind takes the
    default settings): cyclic subgradient projections over any convex
    constraints (``cspm``), their orthogonal twin on affine rows (``pocs``,
    same iterates), or ART3+ over interval rows (``art3+``; a sweep is one
    pass over its work queue).  With ``solver.sup`` set it is
    :func:`cfpopt.superiorize.superiorized_solve`, which perturbs toward
    smaller ``objective`` values within ``bounds``.  ``bounds``,
    ``objective`` and ``t`` are as in :func:`make_sweeper`; ``bounds`` must
    have ``x0``'s length, and a solve needs constraints, a box or an
    objective.  ``plan`` carries the packed rows and their screens from one
    solve of a run to the next (see :class:`RowPlan`); without it the solve
    packs its own.
    """
    if isinstance(solver, str):
        solver = SolverSpec(kind=solver)
    constraints = list(constraints)
    if not constraints and objective is None and bounds is None:
        raise ValueError("constraint list must be nonempty")
    counters = counters if counters is not None else Counters()
    x0 = as_vector(x0)
    if bounds is not None and bounds.lo.shape[0] != x0.shape[0]:
        raise ValueError(f"bounds have {bounds.lo.shape[0]} entries for a point of {x0.shape[0]}")
    if solver.sup is not None:
        from . import superiorize

        return superiorize.superiorized_solve(constraints, x0, solver, counters, bounds, objective, t, plan)
    return make_sweeper(solver, constraints, counters, bounds, objective, t, plan).run(x0)


def cfp_with_level(problem: Problem, t: float, solver: SolverSpec | str = "cspm",
                   x0=None, counters: Counters | None = None, *,
                   plan: RowPlan | None = None) -> FeasibilityOutcome:
    """Feasibility of the problem's constraints intersected with {f <= t}.

    The sweeper visits the level ``f(x) <= t`` after the problem's
    constraints and box on every pass; ``t = +inf`` leaves the level out,
    giving plain feasibility, solved by :func:`cfp_solve` as ``solver`` says.
    Objective values taken at the level are charged to
    ``counters.obj_evals`` (see :meth:`Counters.objective`).  A scheme run
    passes every test its one ``plan`` (see :class:`RowPlan`).
    """
    x0 = problem.start_point() if x0 is None else as_vector(x0, problem.n)
    return cfp_solve(problem.constraints, x0, solver, counters, bounds=problem.bounds,
                     objective=problem.objective, t=t, plan=plan)
