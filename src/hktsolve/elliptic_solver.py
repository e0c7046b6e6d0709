"""Newton solver for the reduced scalar equation on periodic grids.

Unknowns are a zero-mean field phi and a constant b > 0 with

    laplacian(phi) + <Q grad phi, grad phi> + 1 = b * exp(t*F).

Each Newton correction (eta, c) solves the linearization augmented with
the constraint mean(eta) = 0, a square bordered system: the kernel of
the plain linearization is spanned by constants and the border removes
it.  The system is nonsymmetric, so it goes to restarted GMRES, capped
at 4 restarts of 50, preconditioned by the exact inverse of a bordered
model of the Newton matrix,

    [[u^-1 (laplacian - sigma)(u .), -exp(tF)], [mean(.), 0]],

rebuilt at every Newton step.  For a constant Q = -aI with a > 0 the
Hopf-Cole substitution u = exp(-a phi) turns the linearized field block
into u^-1 laplacian(u .) minus the potential laplacian(u)/u; the model
keeps u and replaces the potential by its mean sigma, positive for
every nonconstant phi.  That gauge branch is taken while a * ptp(phi)
stays within GAUGE_MAX_SPAN; otherwise, and for every other Q, the
model is the shifted Laplacian: u = 1 and sigma = PRECOND_SHIFT.  One
apply is one real-input FFT pair over the half spectrum plus a Schur
complement on the border.  The pair runs in place: from the apply's
own output, through one half-spectrum array the preconditioner holds,
back into that output.  scipy's gmres applies the preconditioner twice
to the same vector before its first cycle; the second apply is answered
from a copy of the first.  A converged gmres result is returned
unchecked, since gmres reports convergence only after computing the
true residual itself; one that did not converge raises
LinearSolveFailure, which the continuity driver answers with a halved
step.  The FFTs are numpy's (2.0 or newer, for out=): importing
scipy.fft would add about 0.07 s, a quarter of the set-up time, to
every run.

The linear solve's relative tolerance is the forcing term
max(min(1e-2, |res|), tol / (2 |res|)), at most 1/2, of Eisenstat and
Walker: the residual norm, capped at 1e-2 far from the solution, but
never tighter than the last step needs to bring the residual to the
Newton tolerance tol.  The 1e-2 cap does not tighten that floor: a step
that starts within 50 tol has a residual near the round-off floor, and
GMRES could not always cut such a residual a hundredfold (a 256^2 sine
case with Q = -60 I stalled at 1.4e-10 with tol 1e-10).
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .errors import (
    BPositivityLost,
    ConfigError,
    DampingExhausted,
    LinearSolveFailure,
    MaxItersExceeded,
    ShapeMismatch,
)
from .kernels import gradient_nd, laplacian_nd, neighbours

MAX_HALVINGS = 20
PRECOND_SHIFT = 1.0
# The gauge scales a field by u and back by 1/u, which differ by up to
# exp(span): an apply loses about exp(span) * eps relatively, and 8
# keeps that under 1e-12, below any tolerance GMRES is asked for.
GAUGE_MAX_SPAN = 8.0
Q_EIGENVALUE_TOL = 1e-12


class TorusGrid:
    """Uniform periodic grid with 2 or 4 axes."""

    def __init__(self, dims, lengths=None):
        dims = tuple(int(d) for d in dims)
        if len(dims) not in (2, 4):
            raise ConfigError("grid needs 2 or 4 axes, got %d" % len(dims))
        if any(d < 4 for d in dims):
            raise ConfigError("every axis needs at least 4 nodes: %r" % (dims,))
        if lengths is None:
            lengths = (2.0 * math.pi,) * len(dims)
        lengths = tuple(float(x) for x in lengths)
        if len(lengths) != len(dims):
            raise ConfigError("lengths %r do not match dims %r" % (lengths, dims))
        if not all(0.0 < x < math.inf for x in lengths):
            raise ConfigError("axis lengths must be positive and finite, got %r"
                              % (lengths,))
        self.dims = dims
        self.lengths = lengths
        self.spacings = tuple(x / d for x, d in zip(lengths, dims))
        self.size = int(np.prod(dims))

    @property
    def ndim(self):
        return len(self.dims)

    def coords(self, axis):
        return np.arange(self.dims[axis]) * self.spacings[axis]

    def axis_coords(self):
        """Each axis's coordinates as an open mesh that broadcasts over the grid."""
        return np.ix_(*[self.coords(ax) for ax in range(self.ndim)])

    def zeros(self):
        return np.zeros(self.dims)


@dataclass
class SolverState:
    phi: np.ndarray
    b: float
    t: float
    residual_norm: float
    newton_iters: int
    converged: bool = False
    message: str = ""
    res_history: list = field(default_factory=list)


def validate_q(q, grid):
    """Quadratic form data: finite, symmetric part negative semi-definite.

    Q has one layout, read by broadcasting: a square (d, d) block last,
    with no axes in front for a constant form or the grid's dims in
    front for a per-node form.
    """
    q = np.asarray(q, dtype=float)
    block = q.shape[-2:]
    if len(block) < 2 or block[0] != block[1]:
        raise ConfigError("quadratic form must end in a square (d, d) block, "
                          "got shape %r" % (q.shape,))
    if not np.all(np.isfinite(q)):
        raise ConfigError("quadratic form has non-finite entries")
    if q.shape[:-2] not in ((), grid.dims) or q.shape[-1] != grid.ndim:
        raise ShapeMismatch("quadratic form shape %r does not match the %r grid"
                            % (q.shape, grid.dims))
    top = float(np.max(np.linalg.eigvalsh(0.5 * (q + np.swapaxes(q, -1, -2)))))
    if top > Q_EIGENVALUE_TOL:
        raise ConfigError(
            "quadratic form is not negative semi-definite "
            "(largest eigenvalue %.3e)" % top)
    return q


def _check_field(grid, f, name):
    f = np.asarray(f, dtype=float)
    if f.shape != grid.dims:
        raise ShapeMismatch("%s has shape %r, grid is %r" % (name, f.shape, grid.dims))
    return f


def _invariant_axes(arr, dims):
    """Axes of the grid along which the array does not vary.

    An array without the grid's axes in front, such as a constant Q,
    is invariant along every axis.
    """
    if arr.shape[:len(dims)] != tuple(dims):
        return set(range(len(dims)))
    scale = 1.0 + float(np.max(np.abs(arr)))
    return {ax for ax in range(len(dims))
            if float(np.max(np.ptp(arr, axis=ax))) <= 1e-14 * scale}


class Problem:
    """The fixed data of one reduced equation: the grid, F and Q.

    F and Q are checked here, once; every numeric call takes the problem
    instead of the (grid, F, q) triple.  F and Q are held as read-only
    copies, so exp(t F), kept for the last t asked for, and the leaf
    axes, found on first use, cannot go stale, and a caller's later
    write to its own array cannot slip an unvalidated Q in.  Two things
    the preconditioner needs are recorded once: the symbol of the
    discrete Laplacian over the real-input FFT's half spectrum, and
    ``gauge = a`` when Q is the constant -aI with a > 0 (else None).
    """

    def __init__(self, grid, F, q):
        F = _check_field(grid, F, "F")
        if not np.all(np.isfinite(F)):
            raise ConfigError("forcing F has non-finite values")
        self.grid = grid
        self.F = F.copy()
        self.F.flags.writeable = False
        self.q = validate_q(q, grid).copy()
        self.q.flags.writeable = False
        a = -float(self.q[0, 0]) if self.q.ndim == 2 else 0.0
        scalar = np.array_equal(self.q, -a * np.eye(grid.ndim))
        self.gauge = a if a > 0 and scalar else None
        # the last axis keeps its m // 2 + 1 non-negative frequencies
        dims = grid.dims
        half = dims[:-1] + (dims[-1] // 2 + 1,)
        mus = [-4.0 * np.sin(np.pi * np.arange(k) / m) ** 2 / (h * h)
               for k, m, h in zip(half, dims, grid.spacings)]
        self.laplacian_symbol = sum(np.ix_(*mus))
        self._exp_key = None
        self._exp_tF = None

    @functools.cached_property
    def leaf_axes(self):
        """Axes along which both F and Q are invariant, as an ascending tuple.

        The leaves of basic data: grid sequencing coarsens along them
        first, and basicness_check checks the solution along them.
        """
        dims = self.grid.dims
        return tuple(sorted(_invariant_axes(self.F, dims)
                            & _invariant_axes(self.q, dims)))

    def exp_tF(self, t):
        """exp(t F) as a read-only array, recomputed only when t changes."""
        if t != self._exp_key:
            self._exp_tF = np.exp(t * self.F)
            self._exp_tF.flags.writeable = False
            self._exp_key = t
        return self._exp_tF


def quad_value(q, g):
    """<Q v, v> per node for a stacked gradient v.

    The sum of s_ij v_i v_j over i <= j, with s_ii = q_ii and s_ij = q_ij
    + q_ji, leaving out pairs whose coefficient is zero at every node.
    s_ij is a scalar for a constant Q and a grid array for a per-node Q;
    both broadcast alike.  The first term is written, the rest are added
    through one buffer.
    """
    d = q.shape[-1]
    out = buf = None
    for i in range(d):
        for j in range(i, d):
            s = q[..., i, i] if i == j else q[..., i, j] + q[..., j, i]
            if not np.any(s):
                continue
            if out is None:
                out = np.multiply(g[i], g[j])
                out *= s
                continue
            if buf is None:
                buf = np.empty_like(out)
            np.multiply(g[i], g[j], out=buf)
            buf *= s
            out += buf
    return np.zeros(g.shape[1:]) if out is None else out


def quad_dir_weights(q, g):
    """Weights w with d/ds <Q grad(phi+s eta)...> = sum_j w_j (grad eta)_j.

    w_j = sum_i (q_ij + q_ji) v_i, over the i whose coefficient is not
    zero at every node; the first term is written into w_j, the rest are
    added through one buffer.
    """
    d = q.shape[-1]
    w = np.zeros(g.shape)
    buf = None
    for j in range(d):
        written = False
        for i in range(d):
            s = q[..., i, j] + q[..., j, i]
            if not np.any(s):
                continue
            if not written:
                np.multiply(g[i], s, out=w[j])
                written = True
                continue
            if buf is None:
                buf = np.empty(g.shape[1:])
            np.multiply(g[i], s, out=buf)
            w[j] += buf
    return w


def residual(problem, phi, b, t):
    """Pointwise defect of the equation at (phi, b) and path time t."""
    return density(problem.grid, phi, problem.q) - b * problem.exp_tF(t)


def density(grid, phi, q):
    """The positivity monitor 1 + laplacian(phi) + <Q grad phi, grad phi>."""
    phi = _check_field(grid, phi, "phi")
    out = laplacian_nd(phi, grid.spacings)
    out += quad_value(q, gradient_nd(phi, grid.spacings))
    out += 1.0
    return out


def bordered_operator(problem, phi, t):
    """The Newton matrix as a LinearOperator on (eta nodes, c).

    The field block is the directional derivative of the residual at
    phi along (eta, c); the last row is the border mean(eta).  With the
    weights w = (Q + Q^T) grad phi, fixed for the whole Newton step, and
    S+- the periodic shifts along axis ax, it is applied in one pass as

        centre eta - c exp(tF)
          + sum_ax [ h_ax^-2 (S+eta + S-eta) + w_ax / (2 h_ax) (S+eta - S-eta) ]

    with centre = -2 sum_ax h_ax^-2.  w is divided by 2 h_ax in place,
    once per Newton step, so the operator holds the d arrays it already
    had and no more (separate up and down coefficients h^-2 +- w/(2h)
    would hold 2d).  An apply writes its output and reuses one scratch
    buffer for every axis: it builds neither a Laplacian nor a gradient
    stack of eta.
    """
    grid = problem.grid
    n, dims = grid.size, grid.dims
    eF = problem.exp_tF(t)
    w = quad_dir_weights(problem.q, gradient_nd(phi, grid.spacings))
    for ax, h in enumerate(grid.spacings):
        w[ax] /= 2.0 * h
    inv_h2 = [1.0 / (h * h) for h in grid.spacings]
    centre = -2.0 * sum(inv_h2)

    def matvec(x):
        eta = x[:n].reshape(dims)
        out = np.empty(n + 1)
        top = out[:n].reshape(dims)
        np.multiply(eF, -x[n], out=top)
        buf = np.multiply(eta, centre, out=np.empty(dims))
        top += buf
        for ax, k in enumerate(inv_h2):
            neighbours(eta, ax, 1, buf)
            buf *= k
            top += buf
            neighbours(eta, ax, -1, buf)
            buf *= w[ax]
            top += buf
        out[n] = eta.mean()
        return out

    return spla.LinearOperator((n + 1, n + 1), matvec=matvec, dtype=float)


def shifted_inverse_preconditioner(problem, phi, t):
    """The exact inverse of the bordered model of the Newton matrix at phi.

    The model is [[A, -exp(tF)], [mean(.), 0]] with A = u^-1
    (laplacian - sigma)(u .), whose inverse is one FFT pair on the half
    spectrum between the scalings by u.  For a residual (r, s) the
    answer is (w + c g, c), with w = A^-1 r, g = A^-1 exp(tF) built once
    here, and c = (s - mean w) / mean g from the border.  sigma > 0, so
    A is invertible and g < 0: mean g is never zero.

    The FFT pair runs in place.  The preconditioner holds one complex
    half-spectrum array; an apply writes u r into the field block of its
    fresh output, transforms it into that spectrum, divides by the
    symbol there, and transforms back into the same field block, in the
    order irfftn uses, so the result is bit-identical to rfftn/irfftn.

    scipy's gmres, started from x0 = 0, applies the preconditioner to b
    for a norm and then to r = b.copy() to start the first cycle.  The
    first apply's input and answer are kept until the second apply,
    which gets the stored answer when its input is the same bit for bit;
    the memo is dropped either way.  The stored answer is a copy that
    nothing else holds, because gmres subtracts from what it is given.
    """
    grid = problem.grid
    dims, n = grid.dims, grid.size
    axes = tuple(range(grid.ndim))
    a = problem.gauge
    span = 0.0 if a is None else a * float(np.ptp(phi))
    if 0.0 < span <= GAUGE_MAX_SPAN:
        u = np.exp(-a * (phi - 0.5 * (np.max(phi) + np.min(phi))))
        u_inv = 1.0 / u
        # mean(laplacian(u) / u) > 0 by convexity of exp, as mean(laplacian
        # phi) = 0.  The zero mode of the inverse is 1 / sigma, and the
        # border cancels it: floored at 1e-6 of the lowest other mode, that
        # cancellation costs at most 1e6 eps.
        lowest = min(4.0 * math.sin(math.pi / m) ** 2 / (h * h)
                     for m, h in zip(dims, grid.spacings))
        sigma = max(float(np.mean(laplacian_nd(u, grid.spacings) * u_inv)),
                    1e-6 * lowest)
    else:
        u = u_inv = 1.0
        sigma = PRECOND_SHIFT
    inv_symbol = 1.0 / (problem.laplacian_symbol - sigma)
    spectrum = np.empty(inv_symbol.shape, dtype=complex)

    def field_solve(r, out):
        # out is the FFT's input and its output: A^-1 r, written in place
        np.multiply(u, r, out=out)
        np.fft.rfftn(out, axes=axes, out=spectrum)
        np.multiply(spectrum, inv_symbol, out=spectrum)
        for ax in axes[:-1]:
            np.fft.ifft(spectrum, axis=ax, out=spectrum)
        np.fft.irfft(spectrum, n=dims[-1], axis=-1, out=out)
        np.multiply(u_inv, out, out=out)
        return out

    g = field_solve(problem.exp_tF(t), np.empty(dims))
    g_mean = float(np.mean(g))
    first = None   # the first apply's input bytes and answer, until the second
    applies = 0

    def apply(x):
        nonlocal first, applies
        applies += 1
        if applies == 2:
            (x_first, answer), first = first, None
            if x.tobytes() == x_first:
                return answer
        out = np.empty(n + 1)
        w = field_solve(x[:n].reshape(dims), out[:n].reshape(dims))
        c = (x[n] - np.mean(w)) / g_mean
        w += c * g
        out[n] = c
        if applies == 1:
            first = (x.tobytes(), out.copy())
        return out

    return spla.LinearOperator((n + 1, n + 1), matvec=apply, dtype=float)


def _gmres(op, rhs, precond, rtol):
    # at most 4 restarts of 50: a stagnating solve costs about 200 matvecs
    return spla.gmres(op, rhs, M=precond, rtol=rtol, atol=0.0,
                      maxiter=4, restart=50)


def _solve_bordered(op, precond, rhs, rtol):
    x, info = _gmres(op, rhs, precond, rtol)
    # scipy's gmres returns info == 0 only once its own true residual
    # |rhs - op x| is within rtol |rhs|, so a converged x needs no recheck;
    # the bordered system is nonsingular, so any other info is a failure
    if info != 0:
        raise LinearSolveFailure(
            "GMRES did not converge (info=%s, rtol=%.3e)" % (info, rtol))
    return x


def newton_step(problem, state, tol=1e-10):
    """One damped Newton update of (phi, b); returns the new state.

    tol is the residual the solve aims at: the linear solve is not asked
    for more than the step needs to reach it.
    """
    grid = problem.grid
    n = grid.size
    res = residual(problem, state.phi, state.b, state.t)
    res_norm = float(np.max(np.abs(res)))
    op = bordered_operator(problem, state.phi, state.t)
    precond = shifted_inverse_preconditioner(problem, state.phi, state.t)
    rhs = np.concatenate([(-res).ravel(), [0.0]])
    del res   # a grid array less while GMRES holds its Krylov basis
    rtol = min(0.5, max(min(1e-2, res_norm), 0.5 * tol / res_norm)) \
        if res_norm > 0 else 0.0
    x = _solve_bordered(op, precond, rhs, rtol)
    eta = x[:n].reshape(grid.dims)
    c = float(x[n])

    scale = 1.0
    for _ in range(MAX_HALVINGS + 1):
        phi_new = state.phi + scale * eta
        phi_new = phi_new - np.mean(phi_new)
        b_new = state.b + scale * c
        new_res = residual(problem, phi_new, b_new, state.t)
        new_norm = float(np.max(np.abs(new_res)))
        if new_norm <= (1.0 - 1e-4) * res_norm:
            if b_new <= 0.0:
                raise BPositivityLost("b dropped to %.3e" % b_new)
            hist = list(state.res_history) + [new_norm]
            return SolverState(phi=phi_new, b=b_new, t=state.t,
                               residual_norm=new_norm,
                               newton_iters=state.newton_iters + 1,
                               res_history=hist)
        scale *= 0.5
    raise DampingExhausted(
        "no residual decrease after %d halvings (residual %.3e)"
        % (MAX_HALVINGS, res_norm))


def solve_at_t(problem, t, phi0=None, b0=1.0, tol=1e-10, max_iters=30):
    """Newton-iterate to a converged SolverState at path time t."""
    if not 0.0 < tol < math.inf:
        raise ConfigError("tolerance must be positive and finite")
    if b0 <= 0:
        raise BPositivityLost("initial b must be positive, got %g" % b0)
    grid = problem.grid
    # the subtraction makes phi a new array, so phi0 is never written;
    # dropping phi0 frees a start the caller does not keep
    phi = grid.zeros() if phi0 is None else _check_field(grid, phi0, "phi0")
    phi = phi - np.mean(phi)
    del phi0
    res = residual(problem, phi, b0, t)
    res_norm = float(np.max(np.abs(res)))
    state = SolverState(phi=phi, b=float(b0), t=float(t),
                        residual_norm=res_norm, newton_iters=0,
                        res_history=[res_norm])
    if res_norm <= tol:
        state.converged = True
        state.message = "converged without iterating"
        return state
    for _ in range(max_iters):
        state = newton_step(problem, state, tol)
        if state.residual_norm <= tol:
            state.converged = True
            state.message = "converged in %d iterations" % state.newton_iters
            return state
    raise MaxItersExceeded(
        "residual %.3e after %d Newton iterations (tol %.1e)"
        % (state.residual_norm, state.newton_iters, tol))


def check_b_bound(state, F, slack):
    """Discrete analog of the constant-bound b <= max exp(-t F) + slack."""
    bound = float(np.max(np.exp(-state.t * np.asarray(F)))) + slack
    return state.b <= bound
