"""Convex constrained minimization via sequences of feasibility problems.

The toolkit turns ``min f(x) s.t. g_i(x) <= 0`` into repeated convex
feasibility solves over the constraint set intersected with shrinking
objective level sets, driven either by a level-set scheme or by bisection on
the optimal value, with cyclic subgradient projections, POCS or ART3+ as the
feasibility engine and optional superiorization perturbations.
"""

from ._kernels import active_backend, available_backends, set_backend
from .feasibility import (
    FeasibilityOutcome,
    SolverSpec,
    ZeroSubgradientError,
    cfp_solve,
    cfp_with_level,
)
from .harness import (
    VARIANTS,
    HarnessConfig,
    RunReport,
    StatsSummary,
    VariantSpec,
    aggregate,
    aggregate_by_variant,
    builtin_problems,
    emit_report,
    quality_score,
    run_variant,
)
from .model import (
    AffineConstraint,
    Bounds,
    ConvexFunction,
    Counters,
    CustomFunction,
    DoseModel,
    PNormFunction,
    Problem,
    QuadraticFunction,
    UnderdoseFunction,
    make_pnorm,
    make_underdose,
)
from .qps import ParseDiagnostic, QpsDocument, QpsParseError, load_qps, parse_qps, write_qps
from .schemes import (
    CASE1,
    CASE2_OR_3,
    CASE3,
    ITERATION_CAP,
    AccelerationConfig,
    BisectionConfig,
    EpsilonRule,
    SchemeResult,
    accelerated_level_set_solve,
    bisection_solve,
    counterexample_run,
    epsilon_update,
    level_set_solve,
)
from .superiorize import (
    PerturbationTrace,
    SuperiorizationConfig,
    nonascending_direction,
)

__version__ = "0.1.0"
