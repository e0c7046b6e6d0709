"""Continuity path in t from the trivial pair to the target equation.

The solved family is  laplacian(phi_t) + <Q grad phi_t, grad phi_t> + 1
= b_t exp(t F), starting from the exact solution (phi, b) = (0, 1) at
t = 0 and marching monotonically to t = 1 with adaptive steps: halve on
a failed Newton solve, double after two consecutive easy solves.  The
t = 0 state is built, not solved for: its residual, density(0) -
exp(0 F) = 1 - 1, is exactly 0.0 in floating point for every finite F,
so it is recorded with 0 Newton iterations and residual 0.0.  Its phi
is a read-only broadcast zero, which holds no grid array: a sequenced
step never reads it, and a plain start from it takes its own
zero-mean copy.  Also
home to manufactured problems (choose the solution, derive the
forcing), the grid convergence study, the basicness report, and
second_solve, the one independent re-solve that both the basicness
report and the CLI's --verify-unique compare a solution with.

Grid sequencing.  A step that leaves the trivial pair at t = 0, on a
grid that coarse_dims halves, starts Newton from the solution of the
coarsened problem at the same t, not from phi = 0.  Where the grid has
leaf axes, those along which F and Q are both constant
(Problem.leaf_axes, the axes basicness_check checks), the chain's first
level is the leaf space: Problem.leaf_space, the problem on the 1, 2
or 3 axes that vary, built once per problem and solved again, from its
own start, by second_solve.  Basic data have a
solution constant along the leaves, so the leaf space's solution,
broadcast along the leaves, is the fine start, within the Newton
tolerance: on 20^4 with F varying along two axes, the chain is 20^4 ->
20x20, every Newton step runs on 20x20, and the fine grid takes 0
Newton steps.  The leaf space has no leaves, and it, or a grid with no
leaves, is sequenced by halving: every even axis of at least 8 nodes
is halved while the halved grid keeps at least SEQUENCE_MIN_NODES =
2^10 nodes, and the last grid, the chain's bottom, starts from the
Hopf-Cole eigenpair when Q is scalar and from the trivial pair
otherwise (see below): 512^2 ->
256^2 -> 128^2 -> 64^2 -> 32^2, 64^2 -> 32^2, 64x64x16x16 with two leaf
axes -> 64x64 -> 32x32, 32x32x32x16 with one leaf axis -> 32x32x32 ->
16x16x16, and 20^4 -> 10^4 for a forcing that varies along all four
axes.  F, and a per-node Q, are taken by injection (every second node
of a halved axis; a constant Q as it is).  Between halvings, the coarse
solutions reach the finer grid by trigonometric interpolation.  Each
solved level keeps its rfftn half spectrum, not its phi, and a finer
grid's start is one inverse transform on that grid (prolong): each
level's spectrum is embedded in the finer half spectrum, every
frequency in its place and the Nyquist bin of an even axis that grows
split in halves, scaled by the ratio of node counts and weighted, so
no level is interpolated onto an intermediate grid and each level is
transformed once (nested iteration, Brandt, Math. Comp. 31, 1977).
Newton's step count does not depend on the mesh, so the interpolated
start lies in the fine grid's quadratic basin.  Where more than one
halved level lies under a grid, the start extrapolates towards the
finer discrete solution (Richardson's deferred approach to the limit,
as in nested iteration and full multigrid): a level's solution differs
from their limit by c h^2 + d h^4 + ..., h the spacing, and the
Lagrange extrapolation in h^2 of every level below a grid
(richardson's weights, applied to the spectra) is exact for the first
k - 1 terms from k levels.  b takes the same weights in log form,
which keeps it positive.  On a 512^2 bump the 512^2 start lands
6.1e-10 from its discrete solution from three levels (256^2, 128^2,
64^2) and 3.0e-11 from four (down to 32^2), under the Newton tolerance
1e-10, so the 512^2 grid takes no Newton step; the gain is the 32^2
level's, not the coarse solves' accuracy.  The levels are the coarse
solutions, not their starts.  The lift from the leaf space, where the
solutions agree, is the broadcast, not extrapolated; the start above a
single halved level is the plain interpolation (prolong of one
level).  Every coarse state and spectrum is dropped before the top
grid's Newton runs.  The floor exists because on smaller grids
a coarse solve costs about what the fine steps it saves.  The leaf
space is exempt from it, but a fine grid whose halving falls under it
is not sequenced, nor is one whose every axis is a leaf: its chain is
empty.  If a coarse solve or the fine Newton from the coarse start
fails, the step is rerun from the trivial pair, as without sequencing.
Trace rows describe the fine grid only, and the seconds of the row a
sequenced step ends in include its coarse solves.

The chain's bottom.  For Q = -aI (Problem.gauge; every registry
reduction gives such a Q), u = exp(-a phi) (Hopf 1950, Cole 1951) turns
the equation into the eigenproblem (-lap + a) u = b a exp(tF) u, whose
positive eigenpair hopf_cole_start finds by inverse iteration on the
bottom level, at the step's t, with no path in t.  The iteration starts
from exp(-a phi_P), phi_P of poisson_pair: the exact discrete solution
of the equation without its gradient term (Q = 0), one FFT pair on the
Laplacian's symbol.  It is an O(h^2)
start, not a solution: su3-4d-20's 20x20 leaf space takes 3 Newton
steps from it, 5 from the trivial pair, and bump2d-512's 32^2 level 2,
not 4; a 64x64x4x4 bump of amplitude 30 with Q = -I reaches t = 1 in
one step, where the trivial pair needed two.  Any other Q, and an
inverse iteration that does not converge, starts the bottom from the
trivial pair.  Only the bottom: the finer levels start from the ones
below them, and an unsequenced grid from the trivial pair.
second_solve starts from the Q-blind pair (phi_P, b_P) itself, where
its residual is below that of phi = 0 with the solution's b, and from
the latter otherwise; either is a start the main path does not use,
and on su3-4d-20's leaf space the pair saves one of the re-solve's
five Newton steps.  The step control counts the bottom level's own Newton
steps.  From the trivial pair they stand for the fine plain start's,
since Newton's step count does not depend on the mesh, so the schedule
of t is the one the plain start gives; from the eigenpair they are as
few as its O(h^2) error leaves, and the path lengthens its step
sooner.
"""

import csv
import io
import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .elliptic_solver import (
    Problem,
    SolverState,
    TorusGrid,
    _mean,
    _sup_in_place,
    density,
    irfftn_into,
    quad_value,
    residual,
    rfftn_into,
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
from .kernels import axis_spread


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


# the ways a Newton solve (solve_at_t) fails on valid input
SOLVER_FAILURES = (DampingExhausted, MaxItersExceeded, LinearSolveFailure,
                   BPositivityLost)

# A grid is halved only while the halved grid keeps at least this many
# nodes; the last grid is the chain's bottom.  On smaller grids a coarse
# solve costs about what the fine steps it saves.  Sine amplitude 6 with
# Q = -60 I, tol 1e-10, one thread of a 2-vCPU x86 VM, median of 3, in
# seconds, with the bottom started from the Hopf-Cole eigenpair (the
# "none" row is the plain start, and a floor that leaves a grid
# unsequenced is left blank):
#
#   floor    64^2   128^2   256^2   512^2
#   none     0.15   0.31    1.55    7.64
#   2^8      0.13   0.24    0.39    1.59
#   2^10     0.08   0.17    0.41    1.50
#   2^12            0.13    0.39    1.69
#   2^14                    0.47    1.94
#
# 2^8 to 2^12 tie within the noise at 128^2 and 256^2, and 2^10 is the
# fastest at 64^2 and 512^2.  On the 512^2 bump with Q = -I, 2^12 ends
# the chain at 64^2 and the 512^2 start lands 6.1e-10 from its
# solution, over the tolerance; 2^10 ends it at 32^2 and the start
# lands 3.0e-11 from it.
SEQUENCE_MIN_NODES = 2 ** 10

# hopf_cole_start stops once b changes by at most this, relatively...
HOPF_COLE_RTOL = 1e-7
# ...and gives up after this many iterations.  Each costs one FFT pair,
# and a Newton step some tens of them, so a start that needs more saves
# nothing.  On 32^2 with F a sine of amplitude 0.01, 0.1, 0.3, 1, 2, 4
# and 6, Q = -aI, t = 1, the iterations it took from the Poisson pair
# (from u = 1 in brackets) were 2-3 for a = 0.1 (2-4), 2-6 for 1 (4-8),
# 2-11 for 4 (7-16), 2-25 for 16 (9-42) and 5-60 for 60 (14-94): the
# most at a = 60 for amplitude 0.1 (80 from u = 1), whose trivial-pair
# start Newton finds easy, and 2 or 5 for amplitude 0.01, where the
# pair is nearly the eigenvector.
HOPF_COLE_MAX_ITERS = 50


def coarse_dims(grid):
    """The dims of the halved grid, or None when sequencing stops here.

    Every even axis of at least 8 nodes is halved, as long as the halved
    grid keeps at least SEQUENCE_MIN_NODES nodes: 512^2 goes down to
    32^2, and 20^4 to 10^4.
    """
    coarse = tuple(d // 2 if d % 2 == 0 and d >= 8 else d for d in grid.dims)
    if coarse == grid.dims or math.prod(coarse) < SEQUENCE_MIN_NODES:
        return None
    return coarse


def coarsen(problem, dims):
    """The problem on the halved grid of ``dims`` from coarse_dims.

    F, and a per-node Q, are sampled at every (m/k)-th node of each axis
    that goes from m to k nodes, every second node of a halved axis; a
    constant Q is used as it is.  Injection keeps a per-node Q negative
    semi-definite at every node, whatever built it.
    """
    grid = problem.grid
    idx = tuple(slice(None, None, m // d) for m, d in zip(grid.dims, dims))
    return problem.sample(idx, TorusGrid(dims, grid.lengths))


def _lift(problem, phi):
    """A solution of problem.leaf_space broadcast along the leaves."""
    return np.broadcast_to(np.expand_dims(phi, problem.leaf_axes), problem.grid.dims)


def half_spectrum(values):
    """The rfftn half spectrum of grid values: what prolong takes of a level."""
    values = np.asarray(values, dtype=float)
    half = values.shape[:-1] + (values.shape[-1] // 2 + 1,)
    return rfftn_into(values, np.empty(half, dtype=complex))


def _embedding(m, n, half):
    """Where the bins of one axis of a half spectrum go when it grows from m
    to n nodes: a list of (source slice, destination slice), and whether
    the Nyquist bin is halved.

    Every frequency keeps its place: the non-negative ones at the front,
    the negative ones of a full axis at the back.  On an even axis that
    grows, the Nyquist bin m/2 is split in halves: a full axis sends it
    to both +m/2 and -m/2, in both slices, and along the last, half axis
    irfftn supplies the -m/2 half as the Hermitian mirror.  An axis that
    keeps its m nodes keeps its bins and its Nyquist bin whole.
    """
    if m == n:
        return [(slice(None), slice(None))], False
    front = slice(0, m // 2 + 1)
    if half:
        return [(front, front)], m % 2 == 0
    back = (slice((m + 1) // 2, m), slice(n - m // 2, n))
    return [(front, front), back], m % 2 == 0


def prolong(spectra, dims):
    """The trigonometric interpolant on ``dims`` of sum_j w_j x_j, from the
    half spectra of the levels x_j.

    ``spectra`` are (shape, half_spectrum(x_j)) of each level, nearest
    first, and w_j richardson's weights for that many levels.  Each axis
    of ``dims`` is as long as the levels' or longer, over the same
    length, and the interpolant is separable, so the result is one
    inverse transform of sum_j w_j (N / N_j) embed(H_j), with N and N_j
    the node counts: embed places each bin as _embedding says, one block
    per choice of slice along each axis, and N / N_j undoes rfftn's
    scaling by N_j in favour of irfftn's by 1/N.  The levels' sum, and
    the extrapolation in it, is taken over the spectra, so no level is
    interpolated onto an intermediate grid.  The sum's last axis stops
    at the levels' highest bin: irfft pads the rest with zeros itself,
    so neither the bins above it nor their ifft along the other axes
    are ever formed.
    """
    weights = _richardson_weights(len(spectra))
    n = math.prod(dims)
    top = max(spectrum.shape[-1] for _, spectrum in spectra)
    total = np.zeros(dims[:-1] + (top,), dtype=complex)
    last = len(dims) - 1
    for w, (shape, spectrum) in zip(weights, spectra):
        term = np.multiply(spectrum, w * (n / math.prod(shape)))
        pieces = []
        for ax, (m, k) in enumerate(zip(shape, dims)):
            axis_pieces, nyquist = _embedding(m, k, ax == last)
            if nyquist:
                term[(slice(None),) * ax + (m // 2,)] *= 0.5
            pieces.append(axis_pieces)
        for block in itertools.product(*pieces):
            src, dst = zip(*block)
            total[dst] += term[src]
    return irfftn_into(total, np.empty(dims))


def _richardson_weights(k):
    """The Lagrange weights in s^2 of k levels (see richardson)."""
    nodes = [4.0 ** i for i in range(k)]
    return [math.prod(0.25 - v for v in nodes if v != u)
            / math.prod(u - v for v in nodes if v != u) for u in nodes]


def richardson(*levels):
    """The next finer level's solution predicted from the levels below it.

    ``levels`` are one level's solution and those 1, 2, ... varying
    halvings under it, nearest first, all on the first one's grid.  With
    s that grid's spacing, level i has spacing 2^i s, and the result is
    sum_i w_i x_i with the Lagrange weights in s^2 that evaluate at
    (s/2)^2: w_i = prod_{j != i} (1/4 - 4^j) / (4^i - 4^j).  It is exact,
    giving x_{s/2}, for x_s = x + sum_{m < k} a_m s^(2m) from k levels.
    The weights are (5/4, -1/4) for two levels, (21/16, -21/64, 1/64)
    for three and (85/64, -357/1024, 85/4096, -1/4096) for four; the sum
    of their magnitudes stays under 1.72, so the levels' own errors are
    barely amplified.  Numerators and denominators are products of
    small dyadic numbers, exact in floating point up to six levels (at
    seven, w_0's numerator holds the odd 15*63*255*1023*4095*16383,
    about 2^53.9), so up to six each weight is the one rounding of an
    exact quotient.
    """
    return sum(w * x for w, x in zip(_richardson_weights(len(levels)), levels))


def extrapolated_b(*levels):
    """richardson on log b, the levels nearest first.

    b_c (b_c / b_cc)^(1/4) for two levels.  Positive whenever the
    constants are, so the start it gives never trips the positivity
    check.
    """
    return math.exp(richardson(*(math.log(b) for b in levels)))


def poisson_pair(problem, t):
    """The Q-blind pair (phi_P, b_P) at t: the exact discrete solution
    when Q = 0, whatever Q the problem has.

    With Q = 0 the equation is lap phi = b exp(tF) - 1, and the mean of
    a periodic Laplacian is zero, so b_P = 1 / mean(exp(tF)) and phi_P
    is lap^-1 (b_P exp(tF) - 1), with zero mean: one FFT pair on
    Problem.laplacian_symbol, the discrete Laplacian's own symbol, with
    the zero mode set to 0.  It starts hopf_cole_start's inverse
    iteration and is one of second_solve's two starts.
    """
    rhs = problem.scaled_exp_tF(t, 1.0)
    b = 1.0 / float(_mean(rhs))
    rhs *= b
    rhs -= 1.0
    symbol = problem.laplacian_symbol
    spectrum = rfftn_into(rhs, np.empty(symbol.shape, dtype=complex))
    np.divide(spectrum, symbol, out=spectrum, where=symbol < 0.0)
    spectrum.flat[0] = 0.0
    return irfftn_into(spectrum, rhs), b


def hopf_cole_start(problem, t):
    """The start (phi0, b0) at t of the positive Hopf-Cole eigenpair, for
    a problem with a gauge a (Q = -aI); (None, 1.0), the trivial pair,
    when the eigenpair is not found.

    u = exp(-a phi) turns the equation into (-lap + a) u = b a exp(tF) u,
    whose smallest eigenvalue b has a positive eigenvector u.  Inverse
    iteration v = (a - laplacian_symbol)^-1 (a exp(tF) u), one FFT pair
    each, keeps u positive, since -lap + a is an M-matrix; b is the
    quotient <v, a exp(tF) u> / <v, a exp(tF) v>, which needs no
    Laplacian.  u starts as exp(-a phi_P) of poisson_pair, the solution
    without the gradient term, scaled to max 1: on su3's 20x20 leaf
    space the iteration takes 14 steps from it and 19 from u = 1, and
    for a = 60 with a sine of amplitude 0.01 on 32^2, 5 where u = 1
    needs 94.  It stops once b changes by at most HOPF_COLE_RTOL
    relatively; after HOPF_COLE_MAX_ITERS iterations, or a u that
    rounding took to 0 or below, it gives up.  The central gradients of
    the phi equation are not carried exactly by the transform, so the
    pair is an O(h^2) start, not a solution.
    """
    a = problem.gauge
    weight = problem.scaled_exp_tF(t, a)
    inv_symbol = 1.0 / (a - problem.laplacian_symbol)
    spectrum = np.empty(inv_symbol.shape, dtype=complex)
    # u starts at exp(-a (phi_P - min phi_P)); wu is a exp(tF) u throughout
    u, _ = poisson_pair(problem, t)
    u -= float(u.min())
    u *= -a
    wu = np.multiply(weight, np.exp(u, out=u))
    b = math.inf
    for _ in range(HOPF_COLE_MAX_ITERS):
        np.multiply(rfftn_into(wu, spectrum), inv_symbol, out=spectrum)
        irfftn_into(spectrum, u)
        if not float(u.min()) > 0.0:
            return None, 1.0
        num = float(np.multiply(u, wu, out=wu).sum())
        np.multiply(u, weight, out=wu)
        b, last = num / float(np.multiply(u, wu).sum()), b
        # rescaled to max 1, u neither overflows nor underflows
        scale = 1.0 / float(u.max())
        u *= scale
        wu *= scale
        if abs(b - last) <= HOPF_COLE_RTOL * b:
            break
    else:
        return None, 1.0
    phi0 = np.log(u, out=u)
    phi0 *= -1.0 / a
    return phi0, b


def _sequenced_solve(problem, t, cfg):
    """Solve at t from the coarsened problems' solutions.

    The leafless problem, the leaf space or the problem itself when it
    has no leaves, is halved down to a grid that coarse_dims leaves
    alone: the chain's bottom level, which starts from hopf_cole_start
    when Q is scalar (problem.gauge) and from the trivial pair
    otherwise.  Each finer grid starts from the half spectra of the
    levels below it, prolonged onto it and extrapolated when there are
    two or more (prolong; see the module docstring).  The leaf space's
    solution, broadcast along the leaves, then starts the fine grid as
    it is.  Returns the state and the bottom level's own Newton
    iterations, which the step control reads: from the trivial pair
    they stand for the fine plain start's, since Newton's step count
    does not depend on the mesh, and from the eigenpair they are as few
    as the start's O(h^2) error leaves.
    """
    reduced = problem.leaf_space
    chain = [problem if reduced is None else reduced]
    while (dims := coarse_dims(chain[-1].grid)) is not None:
        chain.append(coarsen(chain[-1], dims))
    bottom = chain.pop()
    phi0, b0 = (None, 1.0) if bottom.gauge is None else hopf_cole_start(bottom, t)
    state = solve_at_t(bottom, t, phi0=phi0, b0=b0, tol=cfg.newton_tol,
                       max_iters=cfg.max_newton)
    bottom_iters = state.newton_iters
    # the solved levels' (half spectrum, b), nearest first: only what
    # prolong reads, so no coarse phi or density outlives its level
    below = []
    while chain:
        fine = chain.pop()
        below.insert(0, ((state.phi.shape, half_spectrum(state.phi)), state.b))
        b0 = state.b if len(below) == 1 else extrapolated_b(*(b for _, b in below))
        del state
        start = [prolong([spectrum for spectrum, _ in below], fine.grid.dims)]
        if not chain:
            below = []   # the top grid's Newton runs without any coarse state
        # popped into the call, the start has no reference here:
        # solve_at_t frees it once it has its own zero-mean copy
        state = solve_at_t(fine, t, phi0=start.pop(), b0=b0,
                           tol=cfg.newton_tol, max_iters=cfg.max_newton)
    if reduced is not None:
        state = solve_at_t(problem, t, phi0=_lift(problem, state.phi),
                           b0=state.b, tol=cfg.newton_tol, max_iters=cfg.max_newton)
    return state, bottom_iters


def _attempt(problem, state, t, cfg):
    """One continuity step from state to t: (new state, step-control iterations).

    A step that leaves the trivial pair at t = 0 starts from the coarse
    grids' solutions when coarse_dims halves the fine grid: only a grid
    whose halving keeps at least SEQUENCE_MIN_NODES nodes (64^2 or more
    on two axes) is sequenced, whatever its leaves, and its chain then
    starts with the leaf space.  A grid whose every axis is a leaf has
    no chain and is not sequenced.
    If the sequenced solve fails, the step reruns from the trivial pair,
    as every later step starts from its state.
    """
    if (state.t == 0.0 and coarse_dims(problem.grid) is not None
            and len(problem.leaf_axes) < problem.grid.ndim):
        try:
            return _sequenced_solve(problem, t, cfg)
        except SOLVER_FAILURES:
            pass
    nxt = solve_at_t(problem, t, phi0=state.phi, b0=state.b,
                     tol=cfg.newton_tol, max_iters=cfg.max_newton)
    return nxt, nxt.newton_iters


def run_continuity(problem, cfg=None):
    """March t from 0 to 1; returns (final SolverState, PathTrace)."""
    cfg = (cfg or ContinuityConfig()).validate()
    trace = PathTrace()

    # the trivial pair solves t = 0 exactly (see the module docstring)
    state = SolverState(phi=np.broadcast_to(0.0, problem.grid.dims), b=1.0,
                        t=0.0, residual_norm=0.0, newton_iters=0)
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
        except SOLVER_FAILURES:
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
    phi = sine_product_field(grid, amplitude)
    lap = -phi * sum(w * w for w in waves)
    g = np.stack([math.prod(((np.cos if i == ax else np.sin)(w * x)
                             for i, (w, x) in enumerate(zip(waves, xs))),
                            start=float(amplitude) * waves[ax])
                  for ax in range(grid.ndim)])
    dens = 1.0 + lap + quad_value(q, lambda i, out: np.copyto(out, g[i]),
                                  grid.dims)
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


def _lift_gap(phi, r, leaf):
    """max |lift(r) - phi|, r broadcast along the ``leaf`` axes of phi;
    with no leaf axes, r has phi's shape and this is max |r - phi|.

    Taken as max(max(hi - r), max(r - lo)), with hi and lo phi's max and
    min over the leaves: fl(x - r) and fl(r - x) are monotone in x, so
    over each leaf the largest of either is the one at phi's max or min,
    and the result is the same float.  Beside phi it holds two arrays
    of r's size.
    """
    hi, lo = np.max(phi, axis=leaf), np.min(phi, axis=leaf)
    np.subtract(hi, r, out=hi)
    np.subtract(r, lo, out=lo)
    return float(np.maximum(np.max(hi), np.max(lo)))


def agrees(tol, *gaps):
    """Whether every gap between two solutions lies within 100 Newton
    tolerances: the one agreement bound of the basicness report and the
    CLI's uniqueness re-run."""
    return all(gap <= 100.0 * tol for gap in gaps)


def second_solve(problem, state, tol):
    """Solve again, independently of the solve that gave ``state``, and
    measure how far the two solutions lie apart: (the phi gap, |db|).

    The one re-solve behind the basicness report and the CLI's
    ``--verify-unique``.  It runs at state.t, directly, on
    problem.leaf_space when there is one and on the problem itself
    otherwise, with the default iteration cap: no path in t and no
    grid sequencing.  It starts from poisson_pair's (phi_P, b_P), the
    exact solution when Q = 0, when that pair's max residual is below
    the residual max |1 - state.b exp(tF)| of phi = 0 and b = state.b,
    which needs no density, and from phi = 0 and state.b otherwise: a
    pair with a non-finite residual is never taken.  A Q = 0 re-solve
    takes no Newton step, and su3-4d-20's leaf space 4, not 5; on hard
    data, such as sine 6 with Q = -60 I or a bump of amplitude 30, the
    pair lies further out and phi = 0 is kept.  For a scalar Q neither
    is the main path's start, the Hopf-Cole eigenpair.  The leaf space
    is the Problem grid sequencing uses, with its caches, but never the
    sequenced state: the sequenced leaf-space solution is what the fine
    grid started from, so comparing with it would check nothing.  The
    phi gap is _lift_gap, the sup distance of state.phi from the lifted
    solution, which is max |dphi| when nothing is lifted.  Raises what
    solve_at_t raises (SOLVER_FAILURES) when the re-solve fails;
    checked_second_solve returns that failure instead.
    """
    reduced = problem.leaf_space
    target, leaf = (problem, ()) if reduced is None else (reduced, problem.leaf_axes)
    t = state.t
    # phi = 0 has density 1, so its residual needs no density
    plain = _sup_in_place(np.subtract(1.0, target.scaled_exp_tF(t, state.b)))
    phi0, b0 = poisson_pair(target, t)
    if not _sup_in_place(residual(target, phi0, b0, t)) < plain:
        phi0, b0 = None, state.b
    other = solve_at_t(target, t, phi0=phi0, b0=b0, tol=tol)
    return _lift_gap(state.phi, other.phi, leaf), abs(other.b - state.b)


def checked_second_solve(problem, state, tol):
    """(second_solve's result, None), or (None, the error) when the
    re-solve raises one of SOLVER_FAILURES: a re-solve that finds no
    solution confirms nothing, and the error, "Type: message", is what
    the basicness report and the CLI's --verify-unique print."""
    try:
        return second_solve(problem, state, tol), None
    except SOLVER_FAILURES as exc:
        return None, "%s: %s" % (type(exc).__name__, exc)


def basicness_check(problem, state, tol):
    """Report whether the solution is constant along the axes F ignores.

    Models the descent of the solution to the leaf space: forcing and
    quadratic form constant along some axes should produce a solution
    constant along them, and equal to the lift of the leaf space's
    solution.  ``variation`` is the largest max - min of the solution
    over the lines along a leaf axis (``kernels.axis_spread``).  Returns
    a report dict and raises nothing on a failed check: the caller
    reads ``passed`` (the CLI prints the report).  ``reduced_match`` is
    the lift gap of second_solve, the sup distance from the lifted
    solution of problem.leaf_space, re-solved from its own start, on
    however many axes vary; it is None when every axis is a leaf and
    there is no leaf space, or when the re-solve failed.  Both must
    agree (``agrees``), and a failed re-solve fails the report, with
    its ``error`` (checked_second_solve; None otherwise).
    ``second_solve`` is that re-solve's whole result, (the lift gap,
    |db|), or None where none ran or it failed, for the CLI's
    ``--verify-unique`` to read, with ``error``, instead of solving
    again.
    """
    axes = list(problem.leaf_axes)
    if not axes:
        return {"applicable": False, "invariant_axes": []}

    variation = max(axis_spread(state.phi, ax) for ax in axes)

    gaps = [variation]
    resolved = error = None
    if problem.leaf_space is not None:
        resolved, error = checked_second_solve(problem, state, tol)
        if resolved is not None:
            gaps.append(resolved[0])

    return {
        "applicable": True,
        "invariant_axes": axes,
        "variation": variation,
        "reduced_match": None if resolved is None else resolved[0],
        "second_solve": resolved,
        "error": error,
        "passed": error is None and agrees(tol, *gaps),
    }
