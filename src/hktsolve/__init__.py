"""Exact frame reduction of the quaternionic Monge-Ampere operator and a
continuity-method solver for the reduced scalar equation.

The numeric half is imported on first use of one of its names: it loads
scipy.sparse.linalg, which the exact half never needs.
"""

import importlib

from .algebras import get_algebra, su3
from .hkt_symbolic import ReducedOperator, reduce_ratio
from .lie_frame import build_complex_frame, check_hypercomplex, check_jacobi

_NUMERIC = {
    "continuity_driver": ("ContinuityConfig", "PathTrace", "basicness_check",
                          "convergence_study", "manufactured_problem",
                          "run_continuity", "sine_product_field"),
    "elliptic_solver": ("Problem", "SolverState", "TorusGrid", "check_b_bound",
                        "density", "residual", "solve_at_t"),
}
_LAZY = {name: module for module, names in _NUMERIC.items() for name in names}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _LAZY[name], __name__), name)
    globals()[name] = value
    return value

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
