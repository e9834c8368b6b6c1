"""Problem data model: convex functions with subgradient oracles.

Every constraint and objective is a :class:`ConvexFunction` exposing two
oracles, ``value(x)`` and ``subgrad(x)``.  A constraint is always understood
in level-set form ``g(x) <= 0``.  Subgradients are deterministic: at kinks we
return the minimal-norm element when it is cheap to identify (e.g. 0 for
``max(0, .)`` at the kink), otherwise the gradient of the active branch.

Dense float64 storage throughout; this targets desk-scale problems
(n up to a few thousand).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConvexFunction",
    "QuadraticFunction",
    "AffineConstraint",
    "CustomFunction",
    "UnderdoseFunction",
    "PNormFunction",
    "DoseModel",
    "make_underdose",
    "make_pnorm",
    "Bounds",
    "Problem",
    "Counters",
    "as_vector",
]


def as_vector(x, n: int | None = None) -> np.ndarray:
    """Coerce to a finite float64 vector, optionally checking its length."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"dimension mismatch: expected {n}, got {v.shape[0]}")
    return v


@dataclass
class Counters:
    """Per-run work counters, shared across the solver layers of one run.

    ``projections`` counts the constraint evaluations of the feasibility
    sweeps, including those that find a constraint satisfied and make no
    move: rows evaluated; a row the screen of any solver kind proves
    satisfied is skipped (see :mod:`cfpopt.feasibility`) and not counted.
    ``obj_evals`` counts the objective-oracle calls the run makes, whether
    direct, at a sweeper's level visit or in a superiorization step.  They
    all go through :meth:`objective`, which serves a repeat of the last call
    (the same function at a bitwise-identical point) from a one-entry memo
    without calling or counting.  The memo is not part of equality or repr.
    """

    projections: int = 0
    obj_evals: int = 0
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def objective(self, fn: ConvexFunction, x: np.ndarray) -> float:
        """``fn.value(x)``, counted in ``obj_evals`` unless it repeats the last call.

        A repeat needs the same function object and an ``x`` of the same
        dtype, shape and bytes, so an in-place update of ``x`` is recomputed.
        """
        key = (x.dtype, x.shape, x.tobytes())
        memo = self._memo
        if memo is not None and memo[0] is fn and memo[1] == key:
            return memo[2]
        value = fn.value(x)
        self.obj_evals += 1
        self._memo = (fn, key, value)
        return value


class ConvexFunction:
    """A convex function with value and subgradient oracles.

    Subclasses implement :meth:`value` and :meth:`subgrad`; both must be
    deterministic, and the subgradient must satisfy
    ``value(y) >= value(x) + <subgrad(x), y - x>`` for all x, y.

    :meth:`lower_bound` is a number that no value :meth:`value` *computes*
    goes below, at any point; a feasibility solve proves a level below it
    empty before its first sweep (see :mod:`cfpopt.feasibility`).  It bounds
    the floating-point values, not only the exact function, so a bound
    derived from data (a quadratic's minimum, say) must be rounded outward.
    """

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def lower_bound(self) -> float:
        """A number no computed :meth:`value` goes below; ``-inf`` when none is known."""
        return -np.inf

    def __call__(self, x: np.ndarray) -> float:
        return self.value(x)


class QuadraticFunction(ConvexFunction):
    """f(x) = 1/2 x'Qx + c'x + constant with Q symmetric PSD."""

    def __init__(self, Q, c, constant: float = 0.0):
        Q = np.asarray(Q, dtype=np.float64)
        c = as_vector(c)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be a square matrix")
        if Q.shape[0] != c.shape[0]:
            raise ValueError("Q and c dimensions disagree")
        if not np.isfinite(Q).all():
            raise ValueError("Q entries must be finite")
        constant = float(constant)
        if not math.isfinite(constant):
            raise ValueError("constant must be finite")
        if not np.allclose(Q, Q.T, rtol=0.0, atol=1e-12):
            raise ValueError("Q must be symmetric")
        self.Q = Q
        self.c = c
        self.constant = constant
        self.n = c.shape[0]

    def value(self, x: np.ndarray) -> float:
        return float(0.5 * x @ (self.Q @ x) + self.c @ x + self.constant)

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        return self.Q @ x + self.c

    def __repr__(self):
        return f"QuadraticFunction(n={self.n}, constant={self.constant})"


class AffineConstraint(ConvexFunction):
    """The constraint lo <= a'x <= hi in level-set form.

    As a convex function this is ``g(x) = max(a'x - hi, lo - a'x)``; the set
    ``g <= 0`` is a halfspace (one bound infinite), a hyperplane (lo == hi)
    or a slab.  The raw (a, lo, hi) data is kept so that structured solvers
    can project exactly instead of going through the oracle.
    """

    def __init__(self, a, lo: float = -np.inf, hi: float = np.inf):
        a = as_vector(a)
        norm2 = float(a @ a)
        if norm2 <= 0.0:
            raise ValueError("constraint normal a must be nonzero")
        lo, hi = float(lo), float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("bounds must not be NaN")
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        if math.isinf(lo) and math.isinf(hi):
            raise ValueError("at least one of lo, hi must be finite")
        self.a = a
        self.lo = lo
        self.hi = hi
        self.norm2 = norm2
        self.n = a.shape[0]

    # constructors for the usual senses
    @classmethod
    def leq(cls, a, b: float) -> "AffineConstraint":
        """a'x <= b."""
        return cls(a, -np.inf, b)

    @classmethod
    def geq(cls, a, b: float) -> "AffineConstraint":
        """a'x >= b."""
        return cls(a, b, np.inf)

    @classmethod
    def eq(cls, a, b: float) -> "AffineConstraint":
        """a'x = b."""
        return cls(a, b, b)

    @classmethod
    def interval(cls, a, lo: float, hi: float) -> "AffineConstraint":
        """lo <= a'x <= hi."""
        return cls(a, lo, hi)

    @classmethod
    def bound(cls, j: int, n: int, lo: float, hi: float) -> "AffineConstraint":
        """lo <= x_j <= hi as a coordinate constraint."""
        a = np.zeros(n)
        a[j] = 1.0
        return cls(a, lo, hi)

    @property
    def sense(self) -> str:
        if self.lo == self.hi:
            return "=="
        if math.isinf(self.lo):
            return "<="
        if math.isinf(self.hi):
            return ">="
        return "range"

    def residual(self, x: np.ndarray) -> float:
        return float(self.a @ x)

    def value(self, x: np.ndarray) -> float:
        r = self.residual(x)
        return max(r - self.hi, self.lo - r)

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        r = self.residual(x)
        # active branch; ties break toward the upper branch for determinism
        if r - self.hi >= self.lo - r:
            return self.a.copy()
        return -self.a

    def __repr__(self):
        return f"AffineConstraint(n={self.n}, lo={self.lo}, hi={self.hi})"


class CustomFunction(ConvexFunction):
    """Wrap caller-supplied value/subgradient callables.

    Convexity of the callables is the caller's responsibility and is not
    verified.
    """

    def __init__(self, value_fn, subgrad_fn, name: str = "custom"):
        self._value = value_fn
        self._subgrad = subgrad_fn
        self.name = name

    def value(self, x: np.ndarray) -> float:
        return float(self._value(x))

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self._subgrad(x), dtype=np.float64)

    def __repr__(self):
        return f"CustomFunction({self.name})"


@dataclass(frozen=True)
class DoseModel:
    """Dose-deposition data for fluence-map objectives.

    ``D`` maps a fluence vector x >= 0 to per-voxel dose ``d = D x``;
    ``target`` and ``risk`` are voxel index sets, ``prescription`` the dose
    level the target voxels should reach, and ``p`` the norm exponent used
    for risk-organ penalties.
    """

    D: np.ndarray
    target: tuple[int, ...] = ()
    risk: tuple[int, ...] = ()
    prescription: float = 1.0
    p: int = 2

    def __post_init__(self):
        D = np.asarray(self.D, dtype=np.float64)
        if D.ndim != 2:
            raise ValueError("dose matrix must be 2-D")
        if np.any(D < 0.0):
            raise ValueError("dose matrix entries must be nonnegative")
        object.__setattr__(self, "D", D)
        m = D.shape[0]
        for idx in (*self.target, *self.risk):
            if not 0 <= idx < m:
                raise ValueError(f"voxel index {idx} out of range for {m} voxels")


def _mean(v: np.ndarray) -> np.float64:
    """``np.mean(v)`` of a nonempty float64 vector, bit for bit, at about half its call overhead."""
    return np.add.reduce(v) / v.shape[0]


class UnderdoseFunction(ConvexFunction):
    """RMS shortfall below a prescribed dose over the target voxels.

    f(x) = sqrt( mean_{i in target} max(0, R - d_i(x))^2 ) with d = D x.
    """

    def __init__(self, model: DoseModel):
        if not model.target:
            raise ValueError("target voxel set must be nonempty")
        if model.prescription <= 0.0:
            raise ValueError("prescription must be positive")
        self.D = model.D[list(model.target), :]
        self.R = float(model.prescription)
        self.n = model.D.shape[1]

    def _shortfall(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, self.R - self.D @ x)

    def value(self, x: np.ndarray) -> float:
        u = self._shortfall(x)
        return float(np.sqrt(_mean(u * u)))

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        u = self._shortfall(x)
        f = float(np.sqrt(_mean(u * u)))
        if f == 0.0:
            # minimum attained: 0 is a valid subgradient
            return np.zeros(self.n)
        return -(self.D.T @ u) / (u.shape[0] * f)

    def lower_bound(self) -> float:
        """0: the square root of a mean of squares computes no negative value."""
        return 0.0


class PNormFunction(ConvexFunction):
    """Mean-p-norm of the dose over the risk voxels.

    f(x) = ( mean_{i in risk} d_i(x)^p )^(1/p), p in {2, 8}; with p even this
    is a scaled p-norm of D x, hence convex everywhere, though it is only
    meaningful on the nonnegative dose region.
    """

    def __init__(self, model: DoseModel):
        if model.p not in (2, 8):
            raise ValueError(f"unsupported norm exponent p={model.p}; use 2 or 8")
        if not model.risk:
            raise ValueError("risk voxel set must be nonempty")
        self.D = model.D[list(model.risk), :]
        self.p = int(model.p)
        self.n = model.D.shape[1]

    def value(self, x: np.ndarray) -> float:
        d = self.D @ x
        return float(_mean(d**self.p) ** (1.0 / self.p))

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        d = self.D @ x
        f = float(_mean(d**self.p) ** (1.0 / self.p))
        if f == 0.0:
            return np.zeros(self.n)
        return (self.D.T @ (d ** (self.p - 1))) * (f ** (1 - self.p) / d.shape[0])

    def lower_bound(self) -> float:
        """0: p is even, so every ``d_i**p``, their mean and its root compute nonnegative."""
        return 0.0


def make_underdose(model: DoseModel) -> UnderdoseFunction:
    """Underdose penalty for the model's target set."""
    return UnderdoseFunction(model)


def make_pnorm(model: DoseModel) -> PNormFunction:
    """Mean-p-norm dose penalty for the model's risk set."""
    return PNormFunction(model)


@dataclass(frozen=True)
class Bounds:
    """Per-variable box lo <= x <= hi, entries may be infinite but not NaN.

    A box that holds no point (``lo > hi``, ``lo = +inf`` or ``hi = -inf``)
    raises ``ValueError`` when it is built.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be two vectors of equal length")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("bounds must not be NaN")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        if np.any(lo == np.inf) or np.any(hi == -np.inf):
            raise ValueError("a lower bound of +inf or an upper bound of -inf empties the box")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains(self, x: np.ndarray) -> bool:
        return bool((x >= self.lo).all() and (x <= self.hi).all())

    def to_rows(self) -> list[AffineConstraint]:
        """One coordinate constraint per variable with any finite bound."""
        n = self.lo.shape[0]
        lo, hi = self.lo.tolist(), self.hi.tolist()
        return [AffineConstraint.bound(j, n, lo[j], hi[j])
                for j in np.flatnonzero(np.isfinite(self.lo) | np.isfinite(self.hi)).tolist()]


class Problem:
    """Convex program: minimize ``objective`` over g_i(x) <= 0 and bounds.

    The constraint list order is the cyclic control order of the sequential
    solvers; a solve sweeps the box's coordinate rows after the g_i (see
    :func:`cfpopt.feasibility.make_sweeper`).  Instances are immutable after
    construction and safe to share across concurrent runs; per-run counters
    never live here.
    """

    def __init__(
        self,
        objective: ConvexFunction,
        constraints=(),
        bounds: Bounds | None = None,
        n: int | None = None,
        fstar: float | None = None,
        name: str = "",
        var_names: list[str] | None = None,
        row_names: list[str] | None = None,
    ):
        constraints = tuple(constraints)
        if n is None:
            n = getattr(objective, "n", None)
            if n is None:
                for c in constraints:
                    n = getattr(c, "n", None)
                    if n is not None:
                        break
            if n is None and bounds is not None:
                n = bounds.lo.shape[0]
            if n is None:
                raise ValueError("cannot infer problem dimension; pass n")
        for c in constraints:
            cn = getattr(c, "n", None)
            if cn is not None and cn != n:
                raise ValueError(f"constraint dimension {cn} != problem dimension {n}")
        if bounds is not None and bounds.lo.shape[0] != n:
            raise ValueError("bounds dimension mismatch")
        self.objective = objective
        self.constraints = constraints
        self.bounds = bounds
        self.n = int(n)
        self.fstar = None if fstar is None else float(fstar)
        self.name = name
        self.var_names = var_names
        self.row_names = row_names
        self._all = constraints + tuple(bounds.to_rows() if bounds is not None else ())

    def max_violation(self, x: np.ndarray) -> float:
        """max_i max(0, g_i(x)) over constraints and bound rows; 0 iff feasible."""
        worst = 0.0
        for c in self._all:
            worst = max(worst, c.value(x))
        return max(0.0, worst)

    def start_point(self, seed: int | None = None) -> np.ndarray:
        """Deterministic default start: zeros, or seeded standard normal."""
        if seed is None:
            return np.zeros(self.n)
        return np.random.default_rng(seed).standard_normal(self.n)

    def __repr__(self):
        return (
            f"Problem(name={self.name!r}, n={self.n}, m={len(self.constraints)}, "
            f"bounds={'yes' if self.bounds is not None else 'no'})"
        )

