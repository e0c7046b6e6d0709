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

Each iterate's density 1 + laplacian(phi) + <Q grad phi, grad phi> is
evaluated once.  A SolverState carries the density of its phi:
solve_at_t evaluates it for the start and newton_step for each
line-search trial, keeping the accepted trial's.  The next Newton step
forms its starting residual from it, and the CLI reads the solution's
density range from it, so neither evaluates it again.

A full-grid pass allocates what its result keeps and at most two
scratch buffers.  grad phi is never stacked: the density and the
Newton weights (Q + Q^T) grad phi take it one axis at a time from
kernels.derivative, through quad_value and quad_dir_weights, whose
terms keep the stacked loops' order, so the results are the same to
the bit.  residual allocates only its result, and the callers that
need max |res| take |res| in place over it.
"""

import functools
import math
from dataclasses import dataclass

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
from .gridio import integer, listed, real
from .kernels import axis_spread, derivative, laplacian_nd, neighbours

MAX_HALVINGS = 20
PRECOND_SHIFT = 1.0
# The gauge scales a field by u and back by 1/u, which differ by up to
# exp(span): an apply loses about exp(span) * eps relatively, and 8
# keeps that under 1e-12, below any tolerance GMRES is asked for.
GAUGE_MAX_SPAN = 8.0
Q_EIGENVALUE_TOL = 1e-12


class TorusGrid:
    """Uniform periodic grid with one or more axes.

    A solve config has 2 or 4 (the CLI checks); the leaf spaces of basic
    data on them have 1, 2 or 3.
    """

    def __init__(self, dims, lengths=None):
        dims = tuple(listed("grid.dims", dims, integer))
        if not dims:
            raise ConfigError("grid needs at least one axis")
        if any(d < 4 for d in dims):
            raise ConfigError("every axis needs at least 4 nodes: %r" % (dims,))
        if lengths is None:
            lengths = (2.0 * math.pi,) * len(dims)
        lengths = tuple(listed("grid.lengths", lengths, real))
        if len(lengths) != len(dims):
            raise ConfigError("lengths %r do not match dims %r" % (lengths, dims))
        if min(lengths) <= 0.0:
            raise ConfigError("grid.lengths must be positive, got %r" % (lengths,))
        self.dims = dims
        self.lengths = lengths
        self.spacings = tuple(x / d for x, d in zip(lengths, dims))
        self.size = math.prod(dims)
        # numpy's own limit on an array's bytes, for float64 values
        if 8 * self.size > np.iinfo(np.intp).max:
            raise ConfigError("grid.dims %r have %d nodes, more than an array "
                              "can address" % (dims, self.size))

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
    """A Newton iterate (phi, b) at path time t, with its residual norm.

    ``density`` is density(grid, phi, q) of this phi, computed once:
    solve_at_t fills it for its start and newton_step for the trial it
    accepts, and newton_step's starting residual and the CLI's density
    range read it instead of evaluating it again.  A state built by hand
    may leave it None, and newton_step then evaluates it.
    """
    phi: np.ndarray
    b: float
    t: float
    residual_norm: float
    newton_iters: int
    density: np.ndarray = None


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

    An axis is invariant when ``kernels.axis_spread``, the largest
    max - min over the lines along it, is within 1e-14 of the array's
    scale.  An array without the grid's axes in front, such as a
    constant Q, is invariant along every axis.
    """
    if arr.shape[:len(dims)] != tuple(dims):
        return set(range(len(dims)))
    scale = 1.0 + max(float(np.max(arr)), -float(np.min(arr)))
    return {ax for ax in range(len(dims))
            if axis_spread(arr, ax) <= 1e-14 * scale}


class Problem:
    """The fixed data of one reduced equation: the grid, F and Q.

    F and Q are checked here, once; every numeric call takes the problem
    instead of the (grid, F, q) triple.  F and Q are held as read-only
    copies, so exp(t F), kept for the last t asked for, and the leaf
    axes and the leaf space, found on first use, cannot go stale, and a
    caller's later write to its own array cannot slip an unvalidated Q
    in.  What the preconditioner needs is recorded once: ``gauge = a``
    when Q is the constant -aI with a > 0 (else None), and, on its first
    build, the symbol of the discrete Laplacian and its lowest nonzero
    mode.
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
        self._exp_key = None
        self._exp_tF = None

    @functools.cached_property
    def laplacian_symbol(self):
        """The discrete Laplacian's symbol over the real-input FFT's half
        spectrum: the last axis keeps its m // 2 + 1 non-negative
        frequencies.  Built by the first preconditioner, so a grid that
        takes no Newton step never holds it."""
        dims = self.grid.dims
        half = dims[:-1] + (dims[-1] // 2 + 1,)
        mus = [-4.0 * np.sin(np.pi * np.arange(k) / m) ** 2 / (h * h)
               for k, m, h in zip(half, dims, self.grid.spacings)]
        return sum(np.ix_(*mus))

    @functools.cached_property
    def lowest_mode(self):
        """-(the symbol's largest negative value): the lowest nonzero mode."""
        symbol = self.laplacian_symbol
        return -float(np.max(symbol, where=symbol < 0.0, initial=-np.inf))

    @functools.cached_property
    def leaf_axes(self):
        """Axes along which both F and Q are invariant, as an ascending tuple.

        The leaves of basic data: grid sequencing starts from leaf_space,
        the problem on the other axes, and basicness_check checks the
        solution along them.
        """
        dims = self.grid.dims
        return tuple(sorted(_invariant_axes(self.F, dims)
                            & _invariant_axes(self.q, dims)))

    @functools.cached_property
    def leaf_space(self):
        """The problem on the varying axes, or None unless some but not
        all axes are leaves.

        Built once, for the grid sequencing and the basicness report
        alike.  F, and a per-node Q, are taken at index 0 along the
        leaves, Q keeps its block on the varying axes, and the grid has
        the varying axes' dims and lengths: 1, 2 or 3 axes of a 2- or
        4-axis grid.  The block is enough even when Q couples varying and
        leaf axes: a field constant along the leaves has zero leaf
        gradient components, so the cross terms of <Q grad phi, grad phi>
        vanish, as do the leaf terms of the Laplacian.  So the leaf
        space's solution, broadcast along the leaves, is this problem's.
        """
        grid, leaf = self.grid, self.leaf_axes
        varying = [ax for ax in range(grid.ndim) if ax not in leaf]
        if not (leaf and varying):
            return None
        idx = tuple(slice(None) if ax in varying else 0 for ax in range(grid.ndim))
        sub = TorusGrid([grid.dims[ax] for ax in varying],
                        [grid.lengths[ax] for ax in varying])
        return self.sample(idx, sub, varying)

    def sample(self, idx, grid, axes=None):
        """The problem on ``grid`` with F, and a per-node Q, taken at ``idx``.

        ``idx`` indexes this problem's grid; a constant Q is used as it is.
        With ``axes`` given, Q keeps only its block on them.  The one
        sampler of the coarse grids and the leaf space.
        """
        q = self.q if self.q.ndim == 2 else self.q[idx]
        q = q if axes is None else q[..., axes, :][..., axes]
        return Problem(grid, self.F[idx], q)

    def exp_tF(self, t):
        """exp(t F) as a read-only array, recomputed only when t changes."""
        if t != self._exp_key:
            e = np.multiply(self.F, t)
            self._exp_tF = np.exp(e, out=e)
            self._exp_tF.flags.writeable = False
            self._exp_key = t
        return self._exp_tF


def _pair_coefficient(q, i, j):
    """s_ij of <Q v, v>: q_ii on the diagonal, q_ij + q_ji off it."""
    return q[..., i, i] if i == j else q[..., i, j] + q[..., j, i]


def quad_value(q, component, shape):
    """<Q v, v> per node, for a vector field v given one component at a time.

    ``component(i, out)`` writes v_i, a grid array of ``shape``, into
    ``out``.  The value is the sum of s_ij v_i v_j over i <= j in row
    order, with s_ii = q_ii and s_ij = q_ij + q_ji, leaving out pairs
    whose coefficient is zero at every node; s_ij is a scalar for a
    constant Q and a grid array for a per-node Q, and both broadcast
    alike.  The first term is written and the rest are added.

    Row i keeps v_i in one buffer, and a term with j > i writes v_j
    into another, so v_j is written again for each pair that needs it.
    A term is formed in v_j's buffer, or in v_i's for the row's last
    term, and the first term's buffer becomes the result: beside it, a
    diagonal Q holds one buffer and any other Q at most two.
    """
    d = q.shape[-1]
    pairs = [(i, j) for i in range(d) for j in range(i, d)
             if np.any(_pair_coefficient(q, i, j))]
    free = []   # buffers whose contents are no longer needed

    def take():
        return free.pop() if free else np.empty(shape)

    out = None
    for k, (i, j) in enumerate(pairs):
        if k == 0 or pairs[k - 1][0] != i:
            vi = take()
            component(i, vi)
        other = vi
        if j != i:
            other = take()
            component(j, other)
        # the row's last term is formed over v_i, which it no longer
        # needs; any other over v_j, or for v_i^2 in a third buffer
        if k + 1 == len(pairs) or pairs[k + 1][0] != i:
            term = vi
        elif j != i:
            term = other
        else:
            term = take()
        np.multiply(vi, other, out=term)
        if other is not vi and other is not term:
            free.append(other)
        term *= _pair_coefficient(q, i, j)
        if out is None:
            out = term
        else:
            out += term
            free.append(term)
    return np.zeros(shape) if out is None else out


def quad_dir_weights(q, component, shape):
    """Weights w with d/ds <Q grad(phi+s eta)...> = sum_j w_j (grad eta)_j.

    w_j = sum_i (q_ij + q_ji) v_i, in ascending i over the i whose
    coefficient is not zero at every node, for v = grad phi given one
    component at a time by ``component(i, out)`` as for quad_value.
    v_i is written once, into one buffer, and goes into every w_j it
    feeds: the first term is written into w_j, the rest are added
    through a second buffer, which a diagonal Q never needs.
    """
    d = q.shape[-1]
    w = np.zeros((d,) + tuple(shape))
    written = [False] * d
    vi = buf = None
    for i in range(d):
        loaded = False
        for j in range(d):
            s = q[..., i, j] + q[..., j, i]
            if not np.any(s):
                continue
            if not loaded:
                vi = np.empty(shape) if vi is None else vi
                component(i, vi)
                loaded = True
            if not written[j]:
                np.multiply(vi, s, out=w[j])
                written[j] = True
                continue
            buf = np.empty(shape) if buf is None else buf
            np.multiply(vi, s, out=buf)
            w[j] += buf
    return w


def _partials(grid, phi):
    """phi's central differences as a component(i, out) for quad_value."""
    return lambda i, out: derivative(phi, i, grid.spacings[i], out)


def residual(problem, phi, b, t, dens=None):
    """Pointwise defect of the equation at (phi, b) and path time t.

    It is dens - b exp(tF), with dens the density of phi: passed in when
    the caller already has it (a state's ``density``), else evaluated
    here.  Either way the result is the same to the bit, and it is the
    one array allocated here: b exp(tF) is written into it and dens
    subtracted from it in place.  Callers that only need max |res| take
    |res| in place too (_sup_in_place).
    """
    if dens is None:
        dens = density(problem.grid, phi, problem.q)
    out = np.multiply(problem.exp_tF(t), b)
    return np.subtract(dens, out, out=out)


def _sup_in_place(res):
    """max |res|, with |res| written over res, which the caller gives up."""
    return float(np.max(np.abs(res, out=res)))


def density(grid, phi, q):
    """The positivity monitor 1 + laplacian(phi) + <Q grad phi, grad phi>.

    grad phi is never stacked: quad_value takes it one axis at a time
    from kernels.derivative.  Beside the result the evaluation holds at
    most one Laplacian scratch buffer, or quad_value's result and its
    buffers: two arrays for a diagonal Q, three for one with
    off-diagonal terms.
    """
    phi = _check_field(grid, phi, "phi")
    out = laplacian_nd(phi, grid.spacings)
    out += quad_value(q, _partials(grid, phi), grid.dims)
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
    would hold 2d).  w is built from grad phi one axis at a time
    (quad_dir_weights), so building holds one buffer beside it, two for
    a Q with off-diagonal terms.  An apply writes its output and reuses
    one scratch buffer for every axis: it builds neither a Laplacian nor
    a gradient stack of eta.
    """
    grid = problem.grid
    n, dims = grid.size, grid.dims
    eF = problem.exp_tF(t)
    w = quad_dir_weights(problem.q, _partials(grid, phi), dims)
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
        sigma = max(float(np.mean(laplacian_nd(u, grid.spacings) * u_inv)),
                    1e-6 * problem.lowest_mode)
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
    for more than the step needs to reach it.  The starting residual is
    formed from state.density, so the step evaluates the density only
    of its trials, once each; the accepted trial's density goes into
    the new state, and the next step starts from it in turn.
    """
    grid = problem.grid
    n = grid.size
    res = residual(problem, state.phi, state.b, state.t, state.density)
    rhs = np.empty(n + 1)
    np.negative(res.reshape(-1), out=rhs[:n])
    rhs[n] = 0.0
    res_norm = _sup_in_place(res)
    del res   # a grid array less while GMRES holds its Krylov basis
    op = bordered_operator(problem, state.phi, state.t)
    precond = shifted_inverse_preconditioner(problem, state.phi, state.t)
    rtol = min(0.5, max(min(1e-2, res_norm), 0.5 * tol / res_norm)) \
        if res_norm > 0 else 0.0
    x = _solve_bordered(op, precond, rhs, rtol)
    eta = x[:n].reshape(grid.dims)
    c = float(x[n])

    scale = 1.0
    for _ in range(MAX_HALVINGS + 1):
        phi_new = np.multiply(eta, scale)
        phi_new += state.phi
        phi_new -= np.mean(phi_new)
        b_new = state.b + scale * c
        dens = density(grid, phi_new, problem.q)
        new_norm = _sup_in_place(residual(problem, phi_new, b_new, state.t, dens))
        if new_norm <= (1.0 - 1e-4) * res_norm:
            if b_new <= 0.0:
                raise BPositivityLost("b dropped to %.3e" % b_new)
            return SolverState(phi=phi_new, b=b_new, t=state.t,
                               residual_norm=new_norm,
                               newton_iters=state.newton_iters + 1,
                               density=dens)
        scale *= 0.5
    raise DampingExhausted(
        "no residual decrease after %d halvings (residual %.3e)"
        % (MAX_HALVINGS, res_norm))


def solve_at_t(problem, t, phi0=None, b0=1.0, tol=1e-10, max_iters=30):
    """Newton-iterate at path time t to a state with residual_norm <= tol.

    The start's density is evaluated once, for its residual, and kept in
    the start state; every state returned carries the density of its phi
    (see SolverState).  Raises MaxItersExceeded when max_iters Newton
    steps do not get there.
    """
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
    dens = density(grid, phi, problem.q)
    res_norm = _sup_in_place(residual(problem, phi, b0, t, dens))
    state = SolverState(phi=phi, b=float(b0), t=float(t),
                        residual_norm=res_norm, newton_iters=0,
                        density=dens)
    if res_norm <= tol:
        return state
    for _ in range(max_iters):
        state = newton_step(problem, state, tol)
        if state.residual_norm <= tol:
            return state
    raise MaxItersExceeded(
        "residual %.3e after %d Newton iterations (tol %.1e)"
        % (state.residual_norm, state.newton_iters, tol))


def check_b_bound(state, F, slack):
    """Discrete analog of the constant-bound b <= max exp(-t F) + slack.

    For t >= 0 the maximum is exp(-t min F), compared in log form: no overflow.
    """
    return state.b <= slack or math.log(state.b - slack) <= -state.t * float(np.min(F))
