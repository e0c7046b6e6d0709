"""Continuity path in t from the trivial pair to the target equation.

The solved family is  laplacian(phi_t) + <Q grad phi_t, grad phi_t> + 1
= b_t exp(t F), starting from the exact solution (phi, b) = (0, 1) at
t = 0 and marching monotonically to t = 1 with adaptive steps: halve on
a failed Newton solve, double after two consecutive easy solves.  Also
home to manufactured problems (choose the solution, derive the
forcing), the grid convergence study, and the basicness report.
"""

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .elliptic_solver import (
    Problem,
    TorusGrid,
    density,
    quad_value,
    solve_at_t,
)
from .errors import (
    BPositivityLost,
    ConfigError,
    DampingExhausted,
    LinearSolveFailure,
    MaxItersExceeded,
    NonBasicResidue,
    NonpositiveDensity,
    ShapeMismatch,
    StepUnderflow,
)


@dataclass
class ContinuityConfig:
    t_step_init: float = 1.0
    t_step_min: float = 1e-6
    t_step_max: float = 1.0
    newton_tol: float = 1e-10
    max_newton: int = 30

    def validate(self):
        if not (0.0 < self.t_step_min <= self.t_step_init <= self.t_step_max <= 1.0):
            raise ConfigError(
                "need 0 < t_step_min <= t_step_init <= t_step_max <= 1, got "
                "min=%g init=%g max=%g"
                % (self.t_step_min, self.t_step_init, self.t_step_max))
        if not 0.0 < self.newton_tol < math.inf:
            raise ConfigError("newton_tol must be positive and finite")
        if self.max_newton < 1:
            raise ConfigError("max_newton must be at least 1")
        return self


@dataclass
class TraceRow:
    t: float
    b: float
    newton_iters: int
    residual_norm: float
    seconds: float


@dataclass
class PathTrace:
    rows: list = field(default_factory=list)

    def append(self, row):
        if self.rows and row.t <= self.rows[-1].t:
            raise ConfigError("trace times must be strictly increasing")
        self.rows.append(row)

    def to_csv(self):
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["t", "b", "newton_iters", "residual_norm", "seconds"])
        for r in self.rows:
            w.writerow(["%.17g" % r.t, "%.17g" % r.b, r.newton_iters,
                        "%.17g" % r.residual_norm, "%.6f" % r.seconds])
        return out.getvalue()

    def to_json(self):
        return json.dumps({
            "rows": [{"t": r.t, "b": r.b, "newton_iters": r.newton_iters,
                      "residual_norm": r.residual_norm, "seconds": r.seconds}
                     for r in self.rows],
        }, indent=2)


_SOLVER_FAILURES = (DampingExhausted, MaxItersExceeded, LinearSolveFailure,
                    BPositivityLost)


def run_continuity(problem, cfg=None):
    """March t from 0 to 1; returns (final SolverState, PathTrace)."""
    cfg = (cfg or ContinuityConfig()).validate()
    trace = PathTrace()

    started = time.perf_counter()
    state = solve_at_t(problem, 0.0, tol=cfg.newton_tol,
                       max_iters=cfg.max_newton)
    trace.append(TraceRow(t=0.0, b=state.b, newton_iters=state.newton_iters,
                          residual_norm=state.residual_norm,
                          seconds=time.perf_counter() - started))

    t = 0.0
    dt = cfg.t_step_init
    easy = 0
    while t < 1.0:
        t_try = min(t + dt, 1.0)
        started = time.perf_counter()
        try:
            nxt = solve_at_t(problem, t_try, phi0=state.phi, b0=state.b,
                             tol=cfg.newton_tol, max_iters=cfg.max_newton)
        except _SOLVER_FAILURES:
            dt *= 0.5
            if dt < cfg.t_step_min:
                raise StepUnderflow(
                    "step fell below %g while targeting t=%g"
                    % (cfg.t_step_min, t_try))
            continue
        state = nxt
        t = t_try
        trace.append(TraceRow(t=t, b=state.b, newton_iters=state.newton_iters,
                              residual_norm=state.residual_norm,
                              seconds=time.perf_counter() - started))
        if state.newton_iters <= 3:
            easy += 1
        else:
            easy = 0
        if easy >= 2:
            dt = min(dt * 2.0, cfg.t_step_max)
            easy = 0
    return state, trace


def manufactured_problem(grid, phi_star, q, b_star=1.0):
    """Forcing F making (phi_star, b_star) an exact discrete solution at t=1."""
    phi_star = np.asarray(phi_star, dtype=float)
    if phi_star.shape != grid.dims:
        raise ShapeMismatch("phi_star shape %r does not match the grid"
                            % (phi_star.shape,))
    if b_star <= 0:
        raise ConfigError("b_star must be positive")
    scale = 1.0 + float(np.max(np.abs(phi_star)))
    if abs(float(np.mean(phi_star))) > 1e-10 * scale:
        raise ConfigError("phi_star must have zero mean")
    dens = density(grid, phi_star, np.asarray(q, dtype=float))
    low = float(np.min(dens))
    if low <= 0.0:
        raise NonpositiveDensity(
            "manufactured density reaches %.3e; shrink the amplitude" % low)
    return np.log(dens / b_star)


def sine_product_field(grid, amplitude):
    """amplitude * product over axes of sin(2 pi x_i / L_i), zero mean."""
    out = np.full(grid.dims, float(amplitude))
    for x, length in zip(grid.axis_coords(), grid.lengths):
        out = out * np.sin(2.0 * np.pi * x / length)
    return out


def analytic_manufactured(grid, amplitude, q, b_star=1.0):
    """(phi_star sampled, F from exact derivatives) for the sine product.

    Unlike manufactured_problem this uses the analytic Laplacian and
    gradient of the continuum field, so the discrete solution differs
    from phi_star by the truncation error; that difference is what a
    convergence study measures.
    """
    q = np.asarray(q, dtype=float)
    waves = [2.0 * np.pi / L for L in grid.lengths]
    xs = grid.axis_coords()
    sins = [np.sin(w * x) for w, x in zip(waves, xs)]
    coss = [np.cos(w * x) for w, x in zip(waves, xs)]
    phi = np.full(grid.dims, float(amplitude))
    for s in sins:
        phi = phi * s
    lap = -phi * sum(w * w for w in waves)
    grads = []
    for ax in range(grid.ndim):
        g = np.full(grid.dims, float(amplitude)) * waves[ax]
        for other in range(grid.ndim):
            g = g * (coss[other] if other == ax else sins[other])
        grads.append(g)
    g = np.stack(grads)
    dens = 1.0 + lap + quad_value(q, g)
    low = float(np.min(dens))
    if low <= 0.0:
        raise NonpositiveDensity(
            "analytic density reaches %.3e; shrink the amplitude" % low)
    return phi, np.log(dens / b_star)


def convergence_study(sizes, amplitude=0.1, qdiag=0.0, lengths=None,
                      newton_tol=1e-10):
    """Sup-norm errors and observed orders against the analytic field.

    One row per grid size (square 2-axis grids); qdiag fills a constant
    diagonal quadratic form, 0 for the Poisson-limit study.
    """
    rows = []
    for size in sizes:
        grid = TorusGrid((size, size), lengths)
        q = np.eye(2) * float(qdiag)
        phi_star, F = analytic_manufactured(grid, amplitude, q)
        cfg = ContinuityConfig(newton_tol=newton_tol)
        state, _ = run_continuity(Problem(grid, F, q), cfg)
        err = float(np.max(np.abs(state.phi - (phi_star - np.mean(phi_star)))))
        rows.append({"size": size, "error": err, "b": state.b})
    for i in range(1, len(rows)):
        rows[i]["order"] = float(np.log2(rows[i - 1]["error"] / rows[i]["error"]))
    return rows


def _invariant_axes(arr, dims):
    """Axes of the grid along which the array does not vary.

    An array without the grid's axes in front, such as a constant Q,
    is invariant along every axis.
    """
    if arr.shape[:len(dims)] != tuple(dims):
        return list(range(len(dims)))
    scale = 1.0 + float(np.max(np.abs(arr)))
    out = []
    for ax in range(len(dims)):
        if float(np.max(np.ptp(arr, axis=ax))) <= 1e-14 * scale:
            out.append(ax)
    return out


def basicness_check(problem, state, tol, strict=False):
    """Report whether the solution is constant along the axes F ignores.

    Models the descent of the solution to the leaf space: forcing and
    quadratic form constant along some axes should produce a solution
    constant along them, and equal to the lift of the reduced-grid
    solution.  Returns a report dict; with ``strict`` a failed check
    raises NonBasicResidue.
    """
    grid, F, q = problem.grid, problem.F, problem.q
    axes = sorted(set(_invariant_axes(F, grid.dims))
                  & set(_invariant_axes(q, grid.dims)))
    if not axes:
        return {"applicable": False, "invariant_axes": [],
                "message": "forcing varies along every axis; nothing to check"}
    varying = [ax for ax in range(grid.ndim) if ax not in axes]

    variation = 0.0
    for ax in axes:
        variation = max(variation, float(np.max(np.ptp(state.phi, axis=ax))))

    reduced_match = None
    coupled = any(np.any(q[..., i, j] != 0.0)
                  for i in axes for j in range(grid.ndim) if j != i)
    if len(varying) == 2 and not coupled:
        rgrid = TorusGrid(tuple(grid.dims[ax] for ax in varying),
                          tuple(grid.lengths[ax] for ax in varying))
        idx = tuple(slice(None) if ax in varying else 0
                    for ax in range(grid.ndim))
        rq = np.broadcast_to(q, grid.dims + q.shape[-2:])[idx]
        reduced = Problem(rgrid, F[idx], rq[..., varying, :][..., varying])
        red = solve_at_t(reduced, state.t, b0=state.b, tol=tol)
        lifted = np.expand_dims(red.phi, tuple(axes))
        reduced_match = float(np.max(np.abs(lifted - state.phi)))

    passed = variation <= 100.0 * tol and \
        (reduced_match is None or reduced_match <= 100.0 * tol)
    report = {
        "applicable": True,
        "invariant_axes": axes,
        "variation": variation,
        "reduced_match": reduced_match,
        "passed": bool(passed),
        "message": "solution variation %.3e along axes %s" % (variation, axes),
    }
    if strict and not passed:
        raise NonBasicResidue(report["message"])
    return report
