"""Continuity path in t from the trivial pair to the target equation.

The solved family is  laplacian(phi_t) + <Q grad phi_t, grad phi_t> + 1
= b_t exp(t F), starting from the exact solution (phi, b) = (0, 1) at
t = 0 and marching monotonically to t = 1 with adaptive steps: halve on
a failed Newton solve, double after two consecutive easy solves.  The
t = 0 state is built, not solved for: its residual, density(0) -
exp(0 F) = 1 - 1, is exactly 0.0 in floating point for every finite F,
so it is recorded with 0 Newton iterations and residual 0.0.  Also
home to manufactured problems (choose the solution, derive the
forcing), the grid convergence study, and the basicness report.

Grid sequencing.  A step that leaves the trivial pair at t = 0, on a
grid of at least SEQUENCE_MIN_NODES = 2^16 nodes, starts Newton from
the solution of the coarsened problem at the same t, not from phi = 0.
The chain's first level coarsens the leaf axes: those along which F
and Q are both constant (Problem.leaf_axes, the axes basicness_check
checks).  Basic data have a solution constant along the leaves, so the
leaf-coarsened problem has the fine solution restricted, and its
interpolation starts the finer grid within the Newton tolerance.  In
that one level, whatever the grid's size, each leaf axis of m nodes
goes to its smallest divisor k with 4 <= k < m (20 -> 4, 18 -> 6,
10 -> 5; 4 to 7, 9 and the primes have none and are kept): on 20^4
with F varying along two axes, the chain is 20^4 -> 20x20x4x4 and the
fine grid takes 0 Newton steps.  Below it, every even varying axis of
at least 8 nodes is halved, down to a grid below SEQUENCE_MIN_NODES,
which starts from the trivial pair.  F, and a per-node Q, are taken by
injection (every (m/k)-th node of an axis that goes from m to k nodes;
a constant Q as it is).  The coarse phi reaches the finer grid by
trigonometric interpolation along the axes that grow: its real half
spectrum, zero-padded through numpy's FFT with the Nyquist mode of each
even axis split in halves.  Newton's step count does not depend on the mesh, so
the interpolated start lies in the fine grid's quadratic basin: a 512^2
bump takes 1 fine Newton step instead of 4.  Where the halvings to the
level below a grid and to the one below that both halved varying axes,
the start is first extrapolated on the coarse grid towards the finer
discrete solution (Richardson, as in nested iteration): the gap between
two levels' solutions falls 4x per halving of h along the axes the
solution varies on, so phi_c + (phi_c - phi_cc) / 4 and
b_c (b_c / b_cc)^(1/4), the log form that keeps b positive, leave the
512^2 bump a start residual of 9e-8 instead of 9e-5 and one fine
Newton step.  The pairs are the coarse solutions, not their starts.
Across the leaf level, where the solutions agree, and above a single
varying level, the start is the plain interpolation.  Both coarse
states are dropped before the fine Newton runs.  The floor exists
because on smaller grids a hard coarse solve still takes about nine
Newton steps and costs more than it saves; the leaf level is exempt
from it, but a fine grid under it is not sequenced at all.  If a
coarse solve or the fine Newton from the coarse start fails, the step
is rerun from the trivial pair, as without sequencing.  The step
control counts the Newton steps of the coarsest grid's plain start,
which stand for the fine plain start's, so the schedule of t is the one
the plain start gives.  Trace rows describe the fine grid only, and the
seconds of the row a sequenced step ends in include its coarse solves.
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
    SolverState,
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

# Grids with fewer nodes start Newton from the trivial pair.  On smaller
# grids a coarse solve, which for a hard case still takes about nine
# Newton steps, costs more than the fine steps it saves.  Sine amplitude
# 6 with Q = -60 I, one thread, median of 5: with no floor 44^2 took
# 0.24 s against 0.14 s plain, and 256^2, coarsened down to 4^2, 1.65 s
# against 1.63 s; with this floor 256^2 took 0.93 s.
SEQUENCE_MIN_NODES = 2 ** 16


def _leaf_floor(m):
    """The smallest divisor k of m with 4 <= k < m, or m if it has none."""
    return next((k for k in range(4, m) if m % k == 0), m)


def coarse_dims(grid, leaf):
    """The dims of the next coarser grid, or None when no axis coarsens.

    ``leaf`` lists the axes along which F and Q are constant (see
    Problem.leaf_axes).  First, on a grid of any size, each leaf axis of
    m nodes goes in one level to its smallest divisor k with 4 <= k < m:
    the solution is constant along the leaves, so the coarsened problem
    has the fine solution, and k dividing m keeps it an injection.  No
    leaf axis coarsens again after that, since an even k of 8 or more
    would have k / 2 as a smaller divisor.  Below that level, every even
    axis of at least 8 nodes is halved, on a grid of at least
    SEQUENCE_MIN_NODES nodes.
    """
    dims = tuple(_leaf_floor(d) if ax in leaf else d
                 for ax, d in enumerate(grid.dims))
    if dims != grid.dims:
        return dims
    halve = [ax for ax, d in enumerate(dims) if d % 2 == 0 and d >= 8]
    if not halve or grid.size < SEQUENCE_MIN_NODES:
        return None
    return tuple(d // 2 if ax in halve else d for ax, d in enumerate(dims))


def coarsen(problem, dims):
    """The problem injected onto the grid of ``dims`` from coarse_dims.

    F, and a per-node Q, are sampled at every (m/k)-th node of each axis
    that goes from m to k nodes; a constant Q is used as it is.
    Injection keeps a per-node Q negative semi-definite at every node,
    whatever built it.
    """
    grid = problem.grid
    idx = tuple(slice(None, None, m // d) for m, d in zip(grid.dims, dims))
    q = problem.q if problem.q.ndim == 2 else problem.q[idx]
    return Problem(TorusGrid(dims, grid.lengths), problem.F[idx], q)


def interpolate(values, dims):
    """Trigonometric interpolation of periodic grid values onto a finer grid.

    Each axis of ``dims`` is as long as the values' or longer, over the
    same length.  The values are transformed along the axes that grow
    only, and their real half spectrum, taken along the last of those,
    is zero-padded: every frequency keeps its place counted from its end
    of the axis, and the Nyquist mode of an even axis that grows is
    split in halves between +m/2 and -m/2 (on the half-spectrum axis,
    the -m/2 half is the Hermitian mirror irfft supplies).  The padded
    spectrum is the one fine array held besides the result; the inverse
    transform runs in place in it, in irfftn's order.
    """
    values = np.asarray(values, dtype=float)
    grown = [ax for ax, (m, n) in enumerate(zip(values.shape, dims))
             if n != m] or [values.ndim - 1]
    last = grown[-1]
    src, dst, weights = [], [], []
    for ax, (m, n) in enumerate(zip(values.shape, dims)):
        k = np.arange(m // 2 + 1 if ax == last else m)
        to = k if ax == last else np.where(k < (m + 1) // 2, k, k - m) % n
        if n != m and m % 2 == 0:
            w = np.ones(len(k))
            w[m // 2] = 0.5   # the Nyquist mode, at -m/2 on a full axis
            if ax != last:    # and its other half at +m/2
                k = np.append(k, m // 2)
                to = np.append(to, m // 2)
                w = np.append(w, 0.5)
            weights.append((ax, w))
        src.append(k)
        dst.append(to)
    block = np.fft.rfftn(values, axes=grown)[np.ix_(*src)]
    for ax, w in weights:
        shape = [1] * values.ndim
        shape[ax] = len(w)
        block *= w.reshape(shape)
    block *= math.prod(dims) / values.size
    half = tuple(n // 2 + 1 if ax == last else n for ax, n in enumerate(dims))
    spectrum = np.zeros(half, dtype=complex)
    spectrum[np.ix_(*dst)] = block
    del block
    for ax in grown[:-1]:
        np.fft.ifft(spectrum, axis=ax, out=spectrum)
    return np.fft.irfft(spectrum, n=dims[last], axis=last)


def extrapolated_b(b_c, b_cc):
    """b_c (b_c / b_cc)^(1/4): the log form of b_c + (b_c - b_cc) / 4.

    Positive whenever both constants are, so the start it gives never
    trips the positivity check.
    """
    return b_c * (b_c / b_cc) ** 0.25


def _sequenced_solve(problem, t, cfg):
    """Solve at t from the coarsened problems' solutions, interpolated.

    The chain of coarse problems runs down to a grid that coarse_dims
    leaves alone, which starts from the trivial pair; each finer grid
    starts from the solution one level down, interpolated.  Where the
    halvings to that level and to the one below it both halved varying
    axes, the solution is first extrapolated with the one below (see
    the module docstring); across the leaf level it is taken as it is.
    Returns the state and the Newton iterations of the plain start,
    which stand for the fine plain start's in the step control:
    Newton's step count does not depend on the mesh.
    """
    leaf = problem.leaf_axes
    chain = [problem]
    while (dims := coarse_dims(chain[-1].grid, leaf)) is not None:
        chain.append(coarsen(chain[-1], dims))
    state = solve_at_t(chain.pop(), t, tol=cfg.newton_tol,
                       max_iters=cfg.max_newton)
    plain_iters = state.newton_iters
    below = None   # the solution one varying halving under state's
    while chain:
        fine = chain.pop()
        varying = any(m != n for ax, (m, n)
                      in enumerate(zip(fine.grid.dims, state.phi.shape))
                      if ax not in leaf)
        phi, b0 = state.phi, state.b
        if below is not None and varying:
            phi = phi + (phi - interpolate(below.phi, phi.shape)) / 4
            b0 = extrapolated_b(b0, below.b)
        start = [interpolate(phi, fine.grid.dims)]
        # the top grid's Newton runs without either coarse state
        below = state if chain and varying else None
        del phi, state
        # popped into the call, the start has no reference here:
        # solve_at_t frees it once it has its own zero-mean copy
        state = solve_at_t(fine, t, phi0=start.pop(), b0=b0,
                           tol=cfg.newton_tol, max_iters=cfg.max_newton)
    return state, plain_iters


def _attempt(problem, state, t, cfg):
    """One continuity step from state to t: (new state, step-control iterations).

    A step that leaves the trivial pair at t = 0 starts from the coarse
    grids' solution when coarse_dims, counting no axis as a leaf, halves
    the fine grid: only a grid of at least SEQUENCE_MIN_NODES nodes is
    sequenced, whatever its leaves; its chain then starts with the leaf
    level.  If that fails, the step reruns from the trivial pair, as
    every later step starts from its state.
    """
    if state.t == 0.0 and coarse_dims(problem.grid, ()) is not None:
        try:
            return _sequenced_solve(problem, t, cfg)
        except _SOLVER_FAILURES:
            pass
    nxt = solve_at_t(problem, t, phi0=state.phi, b0=state.b,
                     tol=cfg.newton_tol, max_iters=cfg.max_newton)
    return nxt, nxt.newton_iters


def run_continuity(problem, cfg=None):
    """March t from 0 to 1; returns (final SolverState, PathTrace)."""
    cfg = (cfg or ContinuityConfig()).validate()
    trace = PathTrace()

    # the trivial pair solves t = 0 exactly (see the module docstring)
    state = SolverState(phi=problem.grid.zeros(), b=1.0, t=0.0,
                        residual_norm=0.0, newton_iters=0, converged=True,
                        message="converged without iterating",
                        res_history=[0.0])
    trace.append(TraceRow(t=0.0, b=1.0, newton_iters=0, residual_norm=0.0,
                          seconds=0.0))

    t = 0.0
    dt = cfg.t_step_init
    easy = 0
    while t < 1.0:
        t_try = min(t + dt, 1.0)
        started = time.perf_counter()
        try:
            nxt, iters = _attempt(problem, state, t_try, cfg)
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
        if iters <= 3:
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


def analytic_manufactured(grid, amplitude, q):
    """(phi_star sampled, F from exact derivatives) for the sine product.

    F is the forcing for the constant b = 1.  Unlike manufactured_problem
    this uses the analytic Laplacian and gradient of the continuum field,
    so the discrete solution differs from phi_star by the truncation
    error; that difference is what a convergence study measures.
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
    return phi, np.log(dens)


def convergence_study(sizes, amplitude=0.1, qdiag=0.0, newton_tol=1e-10):
    """Sup-norm errors and observed orders against the analytic field.

    One row per grid size (square 2-axis grids of side 2 pi); qdiag fills
    a constant diagonal quadratic form, 0 for the Poisson-limit study.
    """
    rows = []
    for size in sizes:
        grid = TorusGrid((size, size))
        q = np.eye(2) * float(qdiag)
        phi_star, F = analytic_manufactured(grid, amplitude, q)
        cfg = ContinuityConfig(newton_tol=newton_tol)
        state, _ = run_continuity(Problem(grid, F, q), cfg)
        err = float(np.max(np.abs(state.phi - (phi_star - np.mean(phi_star)))))
        rows.append({"size": size, "error": err, "b": state.b})
    for i in range(1, len(rows)):
        rows[i]["order"] = float(np.log2(rows[i - 1]["error"] / rows[i]["error"]))
    return rows


def basicness_check(problem, state, tol):
    """Report whether the solution is constant along the axes F ignores.

    Models the descent of the solution to the leaf space: forcing and
    quadratic form constant along some axes should produce a solution
    constant along them, and equal to the lift of the reduced-grid
    solution.  Returns a report dict and raises nothing on a failed
    check: the caller reads ``passed`` (the CLI prints the report).
    """
    grid, F, q = problem.grid, problem.F, problem.q
    axes = list(problem.leaf_axes)
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
    return {
        "applicable": True,
        "invariant_axes": axes,
        "variation": variation,
        "reduced_match": reduced_match,
        "passed": bool(passed),
        "message": "solution variation %.3e along axes %s" % (variation, axes),
    }
