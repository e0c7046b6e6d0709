"""Exact frame reduction of the quaternionic Monge-Ampere operator and a
continuity-method solver for the reduced scalar equation."""

from .algebras import get_algebra, su3
from .continuity_driver import (
    ContinuityConfig,
    PathTrace,
    basicness_check,
    convergence_study,
    manufactured_problem,
    run_continuity,
    sine_product_field,
)
from .elliptic_solver import (
    Problem,
    SolverState,
    TorusGrid,
    check_b_bound,
    density,
    residual,
    solve_at_t,
)
from .hkt_symbolic import ReducedOperator, reduce_ratio
from .lie_frame import build_complex_frame, check_hypercomplex, check_jacobi

__version__ = "0.1.0"

__all__ = [
    "ContinuityConfig",
    "PathTrace",
    "Problem",
    "ReducedOperator",
    "SolverState",
    "TorusGrid",
    "basicness_check",
    "build_complex_frame",
    "check_b_bound",
    "check_hypercomplex",
    "check_jacobi",
    "convergence_study",
    "density",
    "get_algebra",
    "manufactured_problem",
    "reduce_ratio",
    "residual",
    "run_continuity",
    "sine_product_field",
    "solve_at_t",
    "su3",
]
