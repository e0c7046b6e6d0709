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
back into that output, by the 1-D FFT calls that rfftn and irfftn
make, in their order (rfftn_into, irfftn_into, which the grid
sequencing's prolongation uses too), so its spectrum is theirs to the
bit; the border's c g then goes into that array's memory, free once
the inverse transform is done, so an apply allocates its output and
no other grid array.  scipy's gmres applies the preconditioner twice
to the same vector before its first cycle; the second apply is
answered from a copy of the first.  A converged gmres result is
returned unchecked, since gmres reports convergence only after
computing the true residual itself; one that did not converge raises
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
scratch buffers, or three slab buffers.  grad phi is never stacked:
the density and the Newton weights (Q + Q^T) grad phi take it one axis
at a time from kernels.derivative, through quad_value and
quad_dir_weights, whose terms keep the stacked loops' order, so the
results are the same to the bit.  The density and the bordered matvec,
the passes a solve repeats on its finest grids, run slab by slab over
kernels.slabs: rows of about kernels.SLAB_NODES nodes along axis 0,
whose arrays stay in L2 cache through the pass's dozen or so ufunc
calls.  Each node gets the whole-grid operations in the same order,
so the results are the same to the bit, and the slab buffers are
allocated once per call; a grid no bigger than one slab is one slab.
No residual of the solve is a fresh grid array.  residual writes into
the memory its caller gives: newton_step's starting residual goes into
the field block of the GMRES right side, negated there in place, and
each line-search trial's into the same block once GMRES has returned;
max |res| is max(max res, -min res), with nothing written.  A start
check, which needs only max |res|, is residual_sup: slab by slab in one
slab buffer, so a grid whose start already solves it, such as a
sequenced fine grid, holds phi, its density and one slab, no residual.

A Newton step on a small grid costs mostly numpy's per-call set-up, so
its calls are few: every mean is x.sum() / x.size (_mean), np.mean's
own add-reduce and division without its wrapper, and Q is read once:
the Problem records its terms s_ij (quad_terms, with q_ij + q_ji formed
once), which density(problem, phi) and the Newton weights take, not a
scan of Q on every call.  The outputs are the same to the bit as with
np.mean, rfftn and a per-call scan.
"""

import functools
import math
import sys
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
from .gridio import frozen, integer, listed, negative_semidefinite, real
from .kernels import (
    axis_spread,
    derivative,
    laplacian_nd,
    laplacian_rows,
    neighbours,
    slabs,
)

MAX_HALVINGS = 20
PRECOND_SHIFT = 1.0
# The gauge scales a field by u and back by 1/u, which differ by up to
# exp(span): an apply loses about exp(span) * eps relatively, and 8
# keeps that under 1e-12, below any tolerance GMRES is asked for.
GAUGE_MAX_SPAN = 8.0


def _mean(x):
    """np.mean(x) of a float array, to the bit: the same add-reduce and
    one division by the count, without np.mean's wrapper."""
    return x.sum() / x.size


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

    ``density`` is density(problem, phi) of this phi, computed once:
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
    negative_semidefinite("quadratic form",
                          np.linalg.eigvalsh(0.5 * (q + np.swapaxes(q, -1, -2))))
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
    scale.  An axis whose first step, max |a[k=1] - a[k=0]| over its
    lines, already exceeds that bound is rejected without the spread:
    max - min bounds every difference on a line, and rounding is
    monotone, so its spread exceeds the bound too and the set found is
    the spread's alone.  An array without the grid's axes in front, such
    as a constant Q, is invariant along every axis.
    """
    if arr.shape[:len(dims)] != tuple(dims):
        return set(range(len(dims)))
    bound = 1e-14 * (1.0 + max(float(np.max(arr)), -float(np.min(arr))))

    def invariant(ax):
        lead = (slice(None),) * ax
        step = np.subtract(arr[lead + (slice(1, 2),)], arr[lead + (slice(0, 1),)])
        return (float(np.max(np.abs(step, out=step))) <= bound
                and axis_spread(arr, ax) <= bound)

    return {ax for ax in range(len(dims)) if invariant(ax)}


def _sealed(arr):
    """Whether nothing can write arr: a read-only view of a read-only
    array that nothing but arr refers to, as ``gridio.frozen`` leaves it.

    numpy refuses to make such a view writable, and with no other
    reference to its base no caller holds anything that can write the
    memory or flip the flag.
    """
    base = arr.base
    if (arr.flags.writeable or type(base) is not np.ndarray
            or base.base is not None or base.flags.writeable):
        return False
    del base
    # arr's reference and the count's own argument, nothing else
    return sys.getrefcount(arr.base) == 2


class Problem:
    """The fixed data of one reduced equation: the grid, F and Q.

    F and Q are checked here, once; every numeric call takes the problem
    instead of the (grid, F, q) triple.  F and Q are held read-only, so
    exp(t F), kept for the last t asked for, and the leaf axes and the
    leaf space, found on first use, cannot go stale, and a caller's
    later write to its own array cannot slip an unvalidated Q in.  Q is
    a copy.  F is a copy too, unless nothing can write the caller's F:
    a read-only F from ``gridio.frozen``, as ``gridio.read_field``
    returns it, is held as it is (see _sealed).  A per-node Q equal at
    every node, exactly, is held as its constant (d, d) block, found
    before validate_q, which then checks that one block.  What the
    numeric calls need is recorded once: ``terms``, quad_terms of Q, the
    terms of <Q v, v> that the density and the Newton weights form;
    ``gauge = a`` when Q is the constant -aI with a > 0 (else None;
    array_equal refuses a per-node Q by its shape); and, on the first
    preconditioner build (or the Hopf-Cole start of a grid chain's
    bottom, or a re-solve's Poisson pair), the symbol of the discrete
    Laplacian and its lowest nonzero mode.  exp(t F) is kept only from
    the first exp_tF call, which solve_at_t makes once a Newton step
    follows: before that, residual and residual_sup take b exp(t F)
    from scaled_exp_tF, which forms it in their own memory.
    """

    def __init__(self, grid, F, q):
        F = _check_field(grid, F, "F")
        # max propagates NaN, so F is finite exactly when its extrema are
        if not (math.isfinite(F.max()) and math.isfinite(F.min())):
            raise ConfigError("forcing F has non-finite values")
        self.grid = grid
        self.F = F if _sealed(F) else frozen(F.copy())
        q = np.asarray(q, dtype=float)
        # a per-node Q that repeats one block exactly is that constant
        # block, and is validated as one
        first = (0,) * grid.ndim
        if q.shape == grid.dims + (grid.ndim,) * 2 and np.all(q == q[first]):
            q = q[first]
        q = validate_q(q, grid)
        self.q = frozen(q.copy())
        self.terms = quad_terms(self.q)
        a = -float(self.q.flat[0])
        scalar = np.array_equal(self.q, -a * np.eye(grid.ndim))
        self.gauge = a if a > 0 and scalar else None
        self._exp_key = None
        self._exp_tF = None

    @functools.cached_property
    def laplacian_symbol(self):
        """The discrete Laplacian's symbol over the real-input FFT's half
        spectrum: the last axis keeps its m // 2 + 1 non-negative
        frequencies.  Built by the first preconditioner, by the
        Hopf-Cole start of a grid chain's bottom, or by the Poisson pair
        of a re-solve's start (continuity_driver.poisson_pair), so no
        other grid that takes no Newton step holds it."""
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
            self._exp_tF = _exp_t(self.F, t, np.empty(self.F.shape))
            self._exp_tF.flags.writeable = False
            self._exp_key = t
        return self._exp_tF

    def scaled_exp_tF(self, t, b, out=None, rows=None):
        """b exp(t F), written into ``out``, a fresh array by default.

        With ``rows = (r0, r1)`` only rows r0 to r1 - 1 along axis 0, into
        an ``out`` of r1 - r0 rows.  From exp_tF's array when it holds t;
        otherwise exp(t F) is formed in ``out`` itself, by exp_tF's
        operations, and nothing is kept, so the bits are the same either
        way and a grid that takes no Newton step, such as a sequenced fine
        grid whose start already solves it, never holds exp(t F).
        """
        part = slice(None) if rows is None else slice(*rows)
        F = self.F[part]
        if out is None:
            out = np.empty(F.shape)
        if t == self._exp_key:
            return np.multiply(self._exp_tF[part], b, out=out)
        _exp_t(F, t, out)
        out *= b
        return out


def _exp_t(F, t, out):
    """exp(t F) written into out: F t, then exp in place."""
    np.multiply(F, t, out=out)
    return np.exp(out, out=out)


def quad_terms(q):
    """The terms (i, j, s_ij) of <Q v, v> = sum s_ij v_i v_j over i <= j,
    in row order, with s_ii = q_ii and s_ij = q_ij + q_ji, leaving out
    every s_ij that is zero at every node.  s_ij is a float for a
    constant Q and an array of the grid's dims for a per-node Q, held
    read-only (gridio.frozen) as the Problem holds Q."""
    d = q.shape[-1]
    sums = ((i, j, q[..., i, i] if i == j else q[..., i, j] + q[..., j, i])
            for i in range(d) for j in range(i, d))
    return tuple((i, j, float(s) if s.ndim == 0 else frozen(s))
                 for i, j, s in sums if s.any())


def quad_value(terms, component, shape, buffers=()):
    """<Q v, v> per node, for a vector field v given one component at a time.

    ``component(i, out)`` writes v_i, an array of ``shape``, into
    ``out``.  The value is the sum of s_ij v_i v_j over ``terms``, the
    (i, j, s_ij) of quad_terms in row order; a float s_ij and an array
    of ``shape`` broadcast alike.  The first term is written and the
    rest are added.

    Each term writes v_i into a buffer, squares it in place or
    multiplies it by v_j written into a second buffer, and multiplies
    it by s_ij, so v_i and v_j are written again for each term that
    needs them.  The first term's buffer becomes the result: beside it,
    a diagonal Q holds one buffer and any other Q two.  The ``buffers``
    given, arrays of ``shape`` whose contents the caller gives up, are
    used before any is allocated (_quad_buffers says how many can be).
    """
    free = list(buffers)   # buffers whose contents are no longer needed

    def take():
        return free.pop() if free else np.empty(shape)

    out = None
    for i, j, s in terms:
        term = take()
        component(i, term)
        if i == j:
            np.multiply(term, term, out=term)
        else:
            vj = take()
            component(j, vj)
            term *= vj
            free.append(vj)
        term *= s
        if out is None:
            out = term
        else:
            out += term
            free.append(term)
    return np.zeros(shape) if out is None else out


def _quad_buffers(terms):
    """How many buffers quad_value can take for ``terms``: one for a
    single diagonal term, two for a diagonal Q, three with off-diagonal
    terms, none without terms."""
    if not terms:
        return 0
    if any(i != j for i, j, _ in terms):
        return 3
    return 1 if len(terms) == 1 else 2


def quad_dir_weights(terms, component, shape):
    """Weights w with d/ds <Q grad(phi+s eta)...> = sum_j w_j (grad eta)_j.

    w_j = sum_i (q_ij + q_ji) v_i, from ``terms``, the (i, j, s_ij) of
    quad_terms.  v = grad phi is given one component at a time by
    ``component(m, out)`` as for quad_value, and each v_m that some term
    needs is written once, into one buffer, in ascending m, and goes
    into every w_k it feeds: s v_m into the other index k of each term
    on m, and (s + s) v_m into w_m for the diagonal term.  So each w_k
    receives its terms in ascending m.  The first term a w_k receives is
    written into it and the rest are added through a second buffer,
    which a diagonal Q never needs.
    """
    w = np.zeros((len(shape),) + tuple(shape))
    written = set()
    v, buf = np.empty(shape), None
    for m in range(len(shape)):
        # the (k, c) with w_k receiving c v_m
        feeds = [(j if i == m else i, s + s if i == j else s)
                 for i, j, s in terms if m in (i, j)]
        if feeds:
            component(m, v)
        for k, c in feeds:
            if k in written:
                buf = np.empty(shape) if buf is None else buf
                w[k] += np.multiply(v, c, out=buf)
            else:
                np.multiply(v, c, out=w[k])
                written.add(k)
    return w


def _partials(grid, phi, rows=None):
    """phi's central differences, over ``rows`` as in kernels.neighbours,
    as a component(i, out) for quad_value."""
    return lambda i, out: derivative(phi, i, grid.spacings[i], out, rows)


def residual(problem, phi, b, t, dens=None, out=None):
    """Pointwise defect of the equation at (phi, b) and path time t.

    It is dens - b exp(tF), with dens the density of phi: passed in when
    the caller already has it (a state's ``density``), else evaluated
    here.  Either way the result is the same to the bit.  It is written
    into ``out``, an array of the grid's dims, or a fresh one by
    default, and nothing else of the grid's size is allocated: b exp(tF)
    goes into ``out`` (Problem.scaled_exp_tF, which keeps no exp(tF) of
    its own) and dens is subtracted from it in place.  newton_step
    passes the field block of its GMRES right side.
    """
    if dens is None:
        dens = density(problem, phi)
    out = problem.scaled_exp_tF(t, b, out)
    return np.subtract(dens, out, out=out)


def _sup(x):
    """max |x| as max(max x, -min x): the same float, NaN if x holds one,
    without writing |x| anywhere."""
    return abs(max(float(x.max()), -float(x.min())))


def residual_sup(problem, dens, b, t):
    """max |dens - b exp(tF)|: the sup of residual(problem, phi, b, t,
    dens), to the bit, with no grid-sized array.

    It runs slab by slab over kernels.slabs, in one slab buffer: b
    exp(tF) by scaled_exp_tF's operations on the slab's rows, dens's
    rows subtracted, then the slab's _sup; a NaN ends it.  ``dens`` is
    the density of phi, or a float when it is constant (1.0 for phi =
    0).  The starts of solve_at_t and of continuity_driver.second_solve
    are checked with it, so a grid whose start already solves it holds
    no residual.
    """
    dims = problem.grid.dims
    rows = slabs(dims)
    buf = np.empty((rows[0][1],) + dims[1:])
    sup = 0.0
    for r0, r1 in rows:
        part = problem.scaled_exp_tF(t, b, buf[:r1 - r0], (r0, r1))
        np.subtract(dens if np.ndim(dens) == 0 else dens[r0:r1], part, out=part)
        s = _sup(part)
        if math.isnan(s):
            return s
        sup = max(sup, s)
    return sup


def density(problem, phi):
    """The positivity monitor 1 + laplacian(phi) + <Q grad phi, grad phi>.

    Evaluated slab by slab (kernels.slabs), each slab's Laplacian, then
    its <Q grad phi, grad phi>, added into the result's rows, then 1,
    so the slab's arrays stay in cache; every node gets the operations
    of the whole-grid evaluation in the same order.  grad phi is never
    stacked: quad_value takes it one axis at a time from
    kernels.derivative.  Q is not looked at: the terms are the
    problem's (Problem.terms), a per-node s_ij taken at the slab's rows.
    Beside the result, the evaluation holds slab buffers allocated once
    per call: the Laplacian's scratch, which is also quad_value's first
    buffer, and quad_value's others, two buffers for a diagonal Q and
    three for one with off-diagonal terms.
    """
    grid, terms = problem.grid, problem.terms
    phi = np.ascontiguousarray(_check_field(grid, phi, "phi"))
    out = np.empty(grid.dims)
    rows = slabs(grid.dims)
    slab = (rows[0][1],) + grid.dims[1:]
    buffers = [np.empty(slab) for _ in range(max(1, _quad_buffers(terms)))]
    for r0, r1 in rows:
        top = out[r0:r1]
        bufs = [buf[:r1 - r0] for buf in buffers]
        laplacian_rows(phi, grid.spacings, top, bufs[0], (r0, r1))
        if terms:
            top += quad_value([(i, j, s if np.ndim(s) == 0 else s[r0:r1])
                               for i, j, s in terms],
                              _partials(grid, phi, (r0, r1)), top.shape, bufs)
        top += 1.0
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
    a Q with off-diagonal terms.  An apply runs slab by slab
    (kernels.slabs), writing each slab of its output with one
    slab-sized scratch buffer, allocated once per apply and reused for
    every axis and slab: it builds neither a Laplacian nor a gradient
    stack of eta.
    """
    grid = problem.grid
    n, dims = grid.size, grid.dims
    eF = problem.exp_tF(t)
    w = quad_dir_weights(problem.terms, _partials(grid, phi), dims)
    for ax, h in enumerate(grid.spacings):
        w[ax] /= 2.0 * h
    inv_h2 = [1.0 / (h * h) for h in grid.spacings]
    centre = -2.0 * sum(inv_h2)
    rows = slabs(dims)
    slab = (rows[0][1],) + dims[1:]

    def matvec(x):
        eta = x[:n].reshape(dims)
        out = np.empty(n + 1)
        top = out[:n].reshape(dims)
        c = -x[n]
        scratch = np.empty(slab)
        for r0, r1 in rows:
            o, buf = top[r0:r1], scratch[:r1 - r0]
            np.multiply(eF[r0:r1], c, out=o)
            np.multiply(eta[r0:r1], centre, out=buf)
            o += buf
            for ax, k in enumerate(inv_h2):
                neighbours(eta, ax, 1, buf, (r0, r1))
                buf *= k
                o += buf
                neighbours(eta, ax, -1, buf, (r0, r1))
                buf *= w[ax][r0:r1]
                o += buf
        out[n] = _mean(eta)
        return out

    return spla.LinearOperator((n + 1, n + 1), matvec=matvec, dtype=float)


def rfftn_into(x, spectrum):
    """np.fft.rfftn(x), written into ``spectrum`` by the 1-D calls rfftn
    makes, in its order: rfft along the last axis, then fft in place
    along the others from the second-last down.  Bit-identical to
    rfftn, without its per-call set-up and its temporaries."""
    np.fft.rfft(x, axis=-1, out=spectrum)
    for ax in reversed(range(x.ndim - 1)):
        np.fft.fft(spectrum, axis=ax, out=spectrum)
    return spectrum


def irfftn_into(spectrum, out):
    """np.fft.irfftn(spectrum, out.shape), written into ``out`` by irfftn's
    1-D calls: ifft in place along every axis but the last, from the
    first up, which overwrites ``spectrum``, then irfft along the last,
    which pads a last axis shorter than out's half spectrum with zeros."""
    for ax in range(out.ndim - 1):
        np.fft.ifft(spectrum, axis=ax, out=spectrum)
    return np.fft.irfft(spectrum, n=out.shape[-1], axis=-1, out=out)


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
    symbol there, and transforms back into the same field block.  The
    spectrum is then free until the next apply, and c g is written into
    its memory, read as n reals, before it is added to w: an apply
    allocates its output and no other grid array.  The
    transforms are rfftn_into and irfftn_into, the 1-D calls rfftn and
    irfftn make, in their order, so the result is bit-identical to
    rfftn/irfftn, without their per-call set-up.  phi's max and min are
    read once, for the span and the midpoint of the gauge.

    scipy's gmres, started from x0 = 0, applies the preconditioner to b
    for a norm and then to r = b.copy() to start the first cycle.  The
    first apply's input and answer are kept until the second apply,
    which gets the stored answer when its input is the same bit for bit;
    the memo is dropped either way.  The stored answer is a copy that
    nothing else holds, because gmres subtracts from what it is given.
    """
    grid = problem.grid
    dims, n = grid.dims, grid.size
    a = problem.gauge
    span = 0.0
    if a is not None:
        hi, lo = phi.max(), phi.min()
        span = a * float(hi - lo)
    if 0.0 < span <= GAUGE_MAX_SPAN:
        # exp(-a (phi - mid)), with mid the midpoint of phi's range
        u = np.subtract(phi, 0.5 * (hi + lo))
        u *= -a
        np.exp(u, out=u)
        u_inv = 1.0 / u
        # mean(laplacian(u) / u) > 0 by convexity of exp, as mean(laplacian
        # phi) = 0.  The zero mode of the inverse is 1 / sigma, and the
        # border cancels it: floored at 1e-6 of the lowest other mode, that
        # cancellation costs at most 1e6 eps.
        ratio = laplacian_nd(u, grid.spacings)
        ratio *= u_inv
        sigma = max(float(_mean(ratio)), 1e-6 * problem.lowest_mode)
        del ratio
    else:
        u = u_inv = 1.0
        sigma = PRECOND_SHIFT
    inv_symbol = 1.0 / (problem.laplacian_symbol - sigma)
    spectrum = np.empty(inv_symbol.shape, dtype=complex)
    # the spectrum's memory read as n reals (its last axis holds at least
    # m + 1 of them per line): free once an apply's inverse transform is done
    spare = spectrum.view(float).reshape(-1)[:n].reshape(dims)

    def field_solve(r, out):
        # out is the FFT's input and its output: A^-1 r, written in place
        np.multiply(u, r, out=out)
        rfftn_into(out, spectrum)
        np.multiply(spectrum, inv_symbol, out=spectrum)
        irfftn_into(spectrum, out)
        np.multiply(u_inv, out, out=out)
        return out

    g = field_solve(problem.exp_tF(t), np.empty(dims))
    g_mean = float(_mean(g))
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
        c = (x[n] - _mean(w)) / g_mean
        w += np.multiply(g, c, out=spare)
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

    No residual here is an array of its own.  The starting one is
    written into the field block of GMRES's right side and negated
    there; once GMRES has returned, that block is free, and each trial's
    residual is written into it.  Their sups are _sup's max(max, -min).
    residual is called once at the start and once per trial, the calls
    the benchmark's tracer counts line-search halvings by.
    """
    grid = problem.grid
    n = grid.size
    rhs = np.empty(n + 1)
    field = rhs[:n].reshape(grid.dims)
    residual(problem, state.phi, state.b, state.t, state.density, out=field)
    np.negative(field, out=field)
    rhs[n] = 0.0
    res_norm = _sup(field)
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
        phi_new -= _mean(phi_new)
        b_new = state.b + scale * c
        dens = density(problem, phi_new)
        new_norm = _sup(residual(problem, phi_new, b_new, state.t, dens, out=field))
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
    phi = phi - _mean(phi)
    del phi0
    dens = density(problem, phi)
    res_norm = residual_sup(problem, dens, b0, t)
    state = SolverState(phi=phi, b=float(b0), t=float(t),
                        residual_norm=res_norm, newton_iters=0,
                        density=dens)
    if res_norm <= tol:
        return state
    # every Newton step reads exp(tF) again: from here on it is kept
    problem.exp_tF(t)
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
