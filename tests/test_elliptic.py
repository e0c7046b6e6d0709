"""Grid, kernel, and Newton solver tests against small dense oracles."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import hktsolve.elliptic_solver as es
from hktsolve import kernels
from hktsolve.continuity_driver import manufactured_problem, sine_product_field
from hktsolve.elliptic_solver import (
    Problem,
    SolverState,
    TorusGrid,
    bordered_operator,
    check_b_bound,
    density,
    newton_step,
    residual,
    shifted_inverse_preconditioner,
    solve_at_t,
    validate_q,
)
from hktsolve.errors import (
    BPositivityLost,
    ConfigError,
    DampingExhausted,
    LinearSolveFailure,
    MaxItersExceeded,
    ShapeMismatch,
)
import oracles
from conftest import bordered_field_block, meshes


def bump(grid, amplitude=1.0, width=1.0):
    total = np.zeros(grid.dims)
    for ax, mesh in enumerate(meshes(grid)):
        total += np.cos(2.0 * np.pi * mesh / grid.lengths[ax]) - 1.0
    return amplitude * np.exp(total / width)


# ---------------------------------------------------------------- grid


def test_grid_defaults_and_spacings():
    g = TorusGrid((8, 16))
    assert g.lengths == (2.0 * math.pi, 2.0 * math.pi)
    assert g.spacings[0] == pytest.approx(2.0 * math.pi / 8)
    assert g.ndim == 2 and g.size == 128
    assert g.coords(1)[1] == pytest.approx(g.spacings[1])


def test_axis_coords_broadcast_to_the_meshes():
    g = TorusGrid((4, 6, 5, 7), lengths=(1.0, 2.0, 3.0, 4.0))
    full = np.broadcast_arrays(*g.axis_coords())
    for got, mesh in zip(full, meshes(g)):
        assert np.array_equal(got, mesh)


def test_grid_validation():
    with pytest.raises(ConfigError):
        TorusGrid((8, 8, 8))
    with pytest.raises(ConfigError):
        TorusGrid((8, 3))
    with pytest.raises(ConfigError):
        TorusGrid((8, 8), lengths=(1.0,))
    with pytest.raises(ConfigError):
        TorusGrid((8, 8), lengths=(1.0, -2.0))
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="lengths"):
            TorusGrid((8, 8), lengths=(bad, 1.0))


# ------------------------------------------------------------- kernels


def test_laplacian_kills_constants():
    g = TorusGrid((16, 16))
    lap = kernels.laplacian_nd(np.full(g.dims, 3.7), g.spacings)
    assert np.max(np.abs(lap)) == 0.0


def test_laplacian_eigenfield():
    # a single-axis sine is an exact eigenvector of the 3-point stencil
    g = TorusGrid((32, 32), lengths=(2.0, 2.0))
    n, h = g.dims[0], g.spacings[0]
    x = meshes(g)[0]
    f = np.sin(2.0 * np.pi * x / g.lengths[0])
    lam = -(2.0 - 2.0 * math.cos(2.0 * np.pi / n)) / (h * h)
    assert np.allclose(kernels.laplacian_nd(f, g.spacings), lam * f,
                       rtol=0, atol=1e-11 * abs(lam))


def test_kernels_match_dense_oracle_2d():
    g = TorusGrid((8, 8), lengths=(2.0, 3.0))
    rng = np.random.default_rng(7)
    f = rng.standard_normal(g.dims)
    lap_mat = oracles.dense_laplacian(g)
    assert np.allclose(kernels.laplacian_nd(f, g.spacings).ravel(),
                       lap_mat @ f.ravel(), atol=1e-12)
    grads = kernels.gradient_nd(f, g.spacings)
    for ax in range(2):
        gmat = oracles.dense_gradient(g, ax)
        assert np.allclose(grads[ax].ravel(), gmat @ f.ravel(), atol=1e-12)


def test_kernels_match_dense_oracle_4d():
    g = TorusGrid((4, 4, 4, 4), lengths=(1.0, 2.0, 3.0, 4.0))
    rng = np.random.default_rng(8)
    f = rng.standard_normal(g.dims)
    lap_mat = oracles.dense_laplacian(g)
    assert np.allclose(kernels.laplacian_nd(f, g.spacings).ravel(),
                       lap_mat @ f.ravel(), atol=1e-12)
    for ax in range(4):
        gmat = oracles.dense_gradient(g, ax)
        assert np.allclose(kernels.gradient_nd(f, g.spacings)[ax].ravel(),
                           gmat @ f.ravel(), atol=1e-12)


@pytest.mark.parametrize("dims", [(6, 7), (4, 5, 6, 7)])
@pytest.mark.parametrize("layout", ["C", "transposed"])
def test_kernels_match_roll_reference(dims, layout):
    # the np.roll stencils the in-place kernels replaced; the gradient does
    # the same arithmetic, the Laplacian sums its terms in another order
    rng = np.random.default_rng(9)
    spacings = tuple(0.3 + 0.1 * ax for ax in range(len(dims)))
    f = rng.standard_normal(dims)
    if layout == "transposed":
        f = np.ascontiguousarray(f.T).T
    lap = sum((np.roll(f, -1, ax) - 2.0 * f + np.roll(f, 1, ax)) / (h * h)
              for ax, h in enumerate(spacings))
    got = kernels.laplacian_nd(f, spacings)
    assert np.max(np.abs(got - lap)) <= 1e-13 * np.max(np.abs(f)) / min(spacings) ** 2
    grads = kernels.gradient_nd(f, spacings)
    for ax, h in enumerate(spacings):
        assert np.array_equal(grads[ax], (np.roll(f, -1, ax) - np.roll(f, 1, ax)) / (2.0 * h))
    with pytest.raises(ValueError):
        kernels.neighbours(f, 0, 1, np.empty(dims[::-1]).T)


# ------------------------------------------------- residual and linearization


def test_residual_trivial_zero():
    g = TorusGrid((8, 8))
    r = residual(Problem(g, g.zeros(), -np.eye(2)), g.zeros(), 1.0, 0.7)
    assert np.max(np.abs(r)) == 0.0


def test_residual_shape_mismatch():
    g = TorusGrid((8, 8))
    with pytest.raises(ShapeMismatch):
        residual(Problem(g, g.zeros(), -np.eye(2)), np.zeros((8, 4)), 1.0, 0.0)
    with pytest.raises(ShapeMismatch):
        Problem(g, np.zeros((4, 8)), -np.eye(2))


def test_pernode_q_matches_constant_q():
    g = TorusGrid((8, 8))
    rng = np.random.default_rng(11)
    phi = rng.standard_normal(g.dims)
    qc = np.array([[-2.0, 0.5], [0.5, -1.0]])
    qn = np.broadcast_to(qc, g.dims + (2, 2)).copy()
    F = rng.standard_normal(g.dims)
    rc = residual(Problem(g, F, qc), phi, 1.3, 0.4)
    rn = residual(Problem(g, F, qn), phi, 1.3, 0.4)
    assert np.allclose(rc, rn, atol=1e-13)


@pytest.mark.parametrize("dims", [(6, 5), (4, 3, 5, 4)])
def test_quadratic_form_matches_double_loop(dims):
    # an asymmetric per-node Q with no sign: the quadratic form reads
    # every entry q_ij, not only the symmetric part's upper triangle
    rng = np.random.default_rng(29)
    d = len(dims)
    q = rng.standard_normal(dims + (d, d))
    g = rng.standard_normal((d,) + dims)
    value, weights = np.zeros(dims), np.zeros((d,) + dims)
    for i in range(d):
        for j in range(d):
            value += q[..., i, j] * g[i] * g[j]
            weights[j] += (q[..., i, j] + q[..., j, i]) * g[i]
    assert np.allclose(es.quad_value(q, g), value, rtol=0, atol=1e-12)
    assert np.allclose(es.quad_dir_weights(q, g), weights, rtol=0, atol=1e-12)
    # a constant Q reads the same as its per-node broadcast; a zero Q is zero
    qc = q[(0,) * d]
    qn = np.broadcast_to(qc, q.shape)
    assert np.allclose(es.quad_value(qc, g), es.quad_value(qn, g), rtol=0, atol=1e-12)
    assert np.allclose(es.quad_dir_weights(qc, g), es.quad_dir_weights(qn, g),
                       rtol=0, atol=1e-12)
    assert not np.any(es.quad_value(np.zeros((d, d)), g))
    assert not np.any(es.quad_dir_weights(np.zeros((d, d)), g))


def test_density_monitor():
    g = TorusGrid((16, 16))
    assert np.allclose(density(g, g.zeros(), -np.eye(2)), 1.0)
    phi = sine_product_field(g, 0.05)
    d = density(g, phi, -np.eye(2))
    r = residual(Problem(g, g.zeros(), -np.eye(2)), phi, 0.0, 0.0)
    assert np.allclose(d, r, atol=1e-13)


def test_linearized_apply_examples():
    g = TorusGrid((8, 8))
    rng = np.random.default_rng(12)
    F = rng.standard_normal(g.dims)
    problem = Problem(g, F, -np.eye(2))
    # eta = 0: only the -c e^{tF} column survives
    out = bordered_field_block(problem, rng.standard_normal(g.dims), 0.5,
                               g.zeros(), 1.0)
    assert np.allclose(out, -np.exp(0.5 * F), atol=1e-13)
    # phi = 0: gradient weights vanish, leaving laplacian(eta) - c e^{tF}
    eta = rng.standard_normal(g.dims)
    out = bordered_field_block(problem, g.zeros(), 0.5, eta, 2.0)
    want = kernels.laplacian_nd(eta, g.spacings) - 2.0 * np.exp(0.5 * F)
    assert np.allclose(out, want, atol=1e-12)


def test_linearized_apply_matches_finite_differences():
    g = TorusGrid((16, 16))
    rng = np.random.default_rng(13)
    F = rng.standard_normal(g.dims)
    q = np.broadcast_to(-np.eye(2), g.dims + (2, 2)).copy()
    q[..., 0, 1] = q[..., 1, 0] = 0.2 * np.sin(meshes(g)[0])
    problem = Problem(g, F, q)
    phi = 0.3 * rng.standard_normal(g.dims)
    t = 0.8

    def res_fn(p, b):
        return residual(problem, p, b, t)

    for trial in range(3):
        eta = rng.standard_normal(g.dims)
        c = float(rng.standard_normal())
        fd = oracles.fd_directional_residual(res_fn, phi, 1.0, eta, c, 1e-6)
        lin = bordered_field_block(problem, phi, t, eta, c)
        denom = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(fd - lin)) / denom < 1e-6


def test_validate_q_rejects_positive_directions():
    g = TorusGrid((8, 8))
    validate_q(-np.eye(2), g)
    validate_q(np.zeros((2, 2)), g)
    # asymmetric input is fine when the symmetric part is still NSD
    validate_q(np.array([[-1.0, 1.0], [-1.0, -1.0]]), g)
    with pytest.raises(ConfigError):
        validate_q(np.eye(2), g)
    with pytest.raises(ConfigError):
        validate_q(np.array([[-1.0, 2.0], [2.0, -1.0]]), g)
    with pytest.raises(ConfigError):
        validate_q(np.zeros((8, 8, 2, 3)), g)
    with pytest.raises(ShapeMismatch):
        validate_q(-np.eye(4), g)
    with pytest.raises(ShapeMismatch):
        validate_q(np.broadcast_to(-np.eye(2), (4, 8, 2, 2)), g)
    bad = np.broadcast_to(-np.eye(2), g.dims + (2, 2)).copy()
    bad[3, 4] = np.eye(2)
    with pytest.raises(ConfigError):
        validate_q(bad, g)


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_validate_q_rejects_nonfinite_entries(value):
    # eigvalsh of [[nan, 0], [0, -1]] is finite, so the eigenvalue test
    # alone lets NaN through
    g = TorusGrid((8, 8))
    with pytest.raises(ConfigError):
        validate_q(np.array([[value, 0.0], [0.0, -1.0]]), g)
    per_node = np.broadcast_to(-np.eye(2), g.dims + (2, 2)).copy()
    per_node[2, 5, 1, 1] = value
    with pytest.raises(ConfigError):
        validate_q(per_node, g)


# ------------------------------------------------------------ problem


def test_problem_checks_f_and_q_once():
    g = TorusGrid((8, 8))
    F = np.zeros(g.dims)
    F[1, 2] = np.nan
    with pytest.raises(ConfigError):
        Problem(g, F, -np.eye(2))
    F[1, 2] = np.inf
    with pytest.raises(ConfigError):
        Problem(g, F, -np.eye(2))
    with pytest.raises(ConfigError):
        Problem(g, g.zeros(), np.eye(2))
    with pytest.raises(ShapeMismatch):
        Problem(g, g.zeros(), -np.eye(4))


@pytest.mark.parametrize("q", [-1.0, [-1.0, -1.0]], ids=["0-d", "1-d"])
def test_problem_rejects_q_without_a_square_block(q):
    g = TorusGrid((8, 8))
    with pytest.raises(ConfigError):
        Problem(g, g.zeros(), q)


def test_problem_holds_f_and_memoizes_exp_tf():
    g = TorusGrid((8, 8))
    F = np.random.default_rng(16).standard_normal(g.dims)
    problem = Problem(g, F, -np.eye(2))
    F[0, 0] = 99.0  # the problem holds its own copy
    assert problem.F[0, 0] != 99.0
    first = problem.exp_tF(0.5)
    assert problem.exp_tF(0.5) is first
    assert np.array_equal(first, np.exp(0.5 * problem.F))
    assert not first.flags.writeable and not problem.F.flags.writeable
    later = problem.exp_tF(0.75)
    assert later is not first
    assert np.array_equal(later, np.exp(0.75 * problem.F))


def test_problem_holds_q_and_its_leaf_axes():
    # the caller's Q is copied: a later write cannot slip an unvalidated,
    # positive-definite Q past validate_q, nor stale the cached leaf axes
    g = TorusGrid((8, 8))
    F = np.sin(g.axis_coords()[0]) + g.zeros()
    q = -np.eye(2)
    problem = Problem(g, F, q)
    assert problem.leaf_axes == (1,)
    q[0, 0] = 5.0
    assert np.array_equal(problem.q, -np.eye(2))
    assert problem.gauge == 1.0 and problem.leaf_axes == (1,)
    assert not problem.q.flags.writeable
    pernode = np.broadcast_to(-np.eye(2), g.dims + (2, 2)).copy()
    held = Problem(g, F, pernode)
    pernode[3, 0, 1, 1] = 5.0
    assert np.array_equal(held.q, np.broadcast_to(-np.eye(2), g.dims + (2, 2)))
    assert held.leaf_axes == (1,)
    assert not held.q.flags.writeable


def _nsd(rng, shape, d):
    """Random negative semi-definite (d, d) blocks over ``shape``."""
    a = rng.standard_normal(shape + (d, d)) * rng.uniform(0.0, 3.0)
    return -(a @ np.swapaxes(a, -1, -2))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dims=hst.one_of(hst.tuples(hst.integers(4, 9), hst.integers(4, 9)),
                       hst.tuples(*[hst.integers(4, 5)] * 4)),
       pernode=hst.booleans(), seed=hst.integers(0, 2 ** 32 - 1),
       scale=hst.one_of(hst.floats(0.0, 1e300), hst.floats(690.0, 720.0)),
       peak=hst.floats(690.0, 720.0))
def test_trivial_pair_solves_t0_exactly(dims, pernode, seed, scale, peak):
    # density(0) = 1 and exp(0 F) = 1 for every finite F, with no rounding
    g = TorusGrid(dims)
    rng = np.random.default_rng(seed)
    F = scale * rng.uniform(-1.0, 1.0, dims)
    F.flat[rng.integers(0, g.size, 3)] = [peak, -peak, 0.0]
    q = _nsd(rng, dims if pernode else (), g.ndim)
    res = residual(Problem(g, F, q), g.zeros(), 1.0, 0.0)
    assert res.shape == dims
    assert np.all(res == 0.0)


# ------------------------------------------------------------ newton


def test_newton_step_linear_problem_one_step():
    # Q = 0 and F = 0 make the problem affine, so one undamped step
    # from (0, 2) lands exactly on the solution (0, 1)
    g = TorusGrid((16, 16))
    q = np.zeros((2, 2))
    state = SolverState(phi=g.zeros(), b=2.0, t=1.0, residual_norm=1.0,
                        newton_iters=0, res_history=[1.0])
    new = newton_step(Problem(g, g.zeros(), q), state)
    assert new.newton_iters == 1
    assert abs(new.b - 1.0) < 1e-10
    assert np.max(np.abs(new.phi)) < 1e-10
    assert new.residual_norm < 1e-10


def test_newton_step_at_exact_solution_is_stationary():
    g = TorusGrid((8, 8))
    state = SolverState(phi=g.zeros(), b=1.0, t=0.0, residual_norm=0.0,
                        newton_iters=0, res_history=[0.0])
    new = newton_step(Problem(g, g.zeros(), np.zeros((2, 2))), state)
    assert new.residual_norm == 0.0
    assert np.max(np.abs(new.phi - state.phi)) == 0.0
    assert new.b == state.b


@pytest.mark.parametrize("res_norm, want", [
    (1.0, 1e-2),              # far from the solution: capped at 1e-2
    (1e-4, 1e-4),             # the residual norm
    (1e-7, 5e-4),             # no tighter than reaching tol needs
    (1.5e-10, 1.0 / 3.0),     # within 50 tol: the cap does not tighten it
])
def test_forcing_term_asks_only_for_what_the_step_needs(monkeypatch, res_norm, want):
    # near the round-off floor a 1e-2 reduction may be out of GMRES's
    # reach, so a step that starts just above tol asks for tol / (2 res)
    g = TorusGrid((8, 8))
    problem = Problem(g, g.zeros(), np.zeros((2, 2)))
    state = SolverState(phi=g.zeros(), b=1.0 + res_norm, t=0.0,
                        residual_norm=res_norm, newton_iters=0)
    asked = []
    gmres = es._gmres

    def recorded(op, rhs, precond, rtol):
        asked.append(rtol)
        return gmres(op, rhs, precond, rtol)

    monkeypatch.setattr(es, "_gmres", recorded)
    newton_step(problem, state, tol=1e-10)
    assert asked == [pytest.approx(want, rel=1e-5)]


def test_solve_at_t_zero_time_needs_no_iteration():
    g = TorusGrid((16, 16))
    st = solve_at_t(Problem(g, bump(g), -np.eye(2)), 0.0)
    assert st.converged and st.newton_iters == 0
    assert st.message == "converged without iterating"


@pytest.mark.parametrize("field", ["bump", "sines"])
def test_poisson_limit_matches_fft_oracle(field):
    g = TorusGrid((16, 16))
    if field == "bump":
        F = bump(g)
    else:
        xs, ys = meshes(g)
        F = 0.4 * np.sin(xs) + 0.3 * np.cos(2.0 * ys)
    st = solve_at_t(Problem(g, F, np.zeros((2, 2))), 1.0, tol=1e-12)
    phi_o, b_o = oracles.fft_poisson_oracle(g, F)
    assert abs(st.b - b_o) < 1e-12
    assert np.max(np.abs(st.phi - phi_o)) < 1e-9
    assert st.residual_norm <= 1e-12


def test_newton_history_is_quadratic():
    g = TorusGrid((32, 32))
    q = -np.eye(2)
    F = manufactured_problem(g, sine_product_field(g, 0.3), q)
    st = solve_at_t(Problem(g, F, q), 1.0, tol=1e-12)
    rs = st.res_history
    assert all(rs[k + 1] < rs[k] for k in range(len(rs) - 1))
    for k in range(1, len(rs) - 1):
        if rs[k + 1] < 1e-13:
            break
        assert rs[k + 1] <= 10.0 * rs[k] ** 2


def test_same_solution_from_two_starts():
    g = TorusGrid((32, 32))
    problem = Problem(g, bump(g), -np.eye(2))
    a = solve_at_t(problem, 1.0, tol=1e-10)
    b = solve_at_t(problem, 1.0, phi0=sine_product_field(g, 0.05),
                   b0=1.5, tol=1e-10)
    assert np.max(np.abs(a.phi - b.phi)) <= 100 * 1e-10
    assert abs(a.b - b.b) <= 100 * 1e-10


def test_converged_state_satisfies_integral_identity():
    # averaging the equation kills the laplacian term on a periodic grid
    g = TorusGrid((32, 32))
    q = -np.eye(2)
    F = bump(g)
    st = solve_at_t(Problem(g, F, q), 1.0, tol=1e-10)
    grads = kernels.gradient_nd(st.phi, g.spacings)
    quad = es.quad_value(np.asarray(q, dtype=float), grads)
    gap = abs(np.mean(quad + 1.0 - st.b * np.exp(st.t * F)))
    assert gap <= 10 * 1e-10


def test_b_bound_holds_and_detects_violations():
    g = TorusGrid((16, 16))
    F = bump(g)
    st = solve_at_t(Problem(g, F, -np.eye(2)), 1.0, tol=1e-10)
    assert check_b_bound(st, F, 1e-7)
    fake = SolverState(phi=st.phi, b=2.0 * float(np.max(np.exp(-F))),
                       t=1.0, residual_norm=0.0, newton_iters=0)
    assert not check_b_bound(fake, F, 1e-7)


def test_bordered_system_has_full_rank():
    g = TorusGrid((8, 8))
    rng = np.random.default_rng(14)
    phi = 0.1 * rng.standard_normal(g.dims)
    F = rng.standard_normal(g.dims)
    op = bordered_operator(Problem(g, F, -np.eye(2)), phi, 0.7)
    m = g.size + 1
    dense = np.empty((m, m))
    e = np.zeros(m)
    for col in range(m):
        e[col] = 1.0
        dense[:, col] = op.matvec(e)
        e[col] = 0.0
    assert np.linalg.matrix_rank(dense) == m
    # unbordered block alone is singular: constants are in its kernel
    const = np.concatenate([np.ones(g.size), [0.0]])
    assert np.max(np.abs((dense @ const)[:-1])) < 1e-10


def _quadratic_form(g, form):
    """Q of each kind the solver takes, in the layout the Problem reads."""
    d = g.ndim
    if form == "scalar":
        return -2.0 * np.eye(d)
    if form == "anisotropic":
        return -np.diag(np.arange(1.0, d + 1.0))
    # per node, with off-diagonal entries: -(I + 0.4 sin(x0) (E01 + E10))
    q = np.broadcast_to(-np.eye(d), g.dims + (d, d)).copy()
    q[..., 0, 1] = q[..., 1, 0] = -0.4 * np.sin(2.0 * np.pi * meshes(g)[0] / g.lengths[0])
    return q


@pytest.mark.parametrize("dims, lengths", [
    ((6, 7), (2.0, 7.0)),
    ((8, 8), None),
    ((4, 5, 4, 5), (1.0, 2.0, 3.0, 5.0)),
])
@pytest.mark.parametrize("form", ["scalar", "anisotropic", "pernode"])
def test_bordered_operator_matches_dense_jacobian(dims, lengths, form):
    # [[L + sum_j diag(w_j) G_j, -exp(tF)], [mean, 0]] from the dense
    # stencil matrices, with w = (Q + Q^T) grad phi from the dense gradient
    g = TorusGrid(dims, lengths=lengths)
    rng = np.random.default_rng(18)
    n, d, t = g.size, g.ndim, 0.6
    q = _quadratic_form(g, form)
    F = rng.standard_normal(g.dims)
    phi = rng.standard_normal(g.dims)
    grads = [oracles.dense_gradient(g, ax) for ax in range(d)]
    grad_phi = np.stack([gm @ phi.ravel() for gm in grads], axis=-1)
    sym = np.broadcast_to(q + np.swapaxes(q, -1, -2), g.dims + (d, d)).reshape(n, d, d)
    w = np.einsum("nij,ni->nj", sym, grad_phi)
    block = oracles.dense_laplacian(g) + sum(w[:, j, None] * grads[j] for j in range(d))
    dense = np.block([[block, -np.exp(t * F).reshape(n, 1)],
                      [np.full((1, n), 1.0 / n), np.zeros((1, 1))]])
    op = bordered_operator(Problem(g, F, q), phi, t)
    e = np.zeros(n + 1)
    worst = 0.0
    for col in range(n + 1):
        e[col] = 1.0
        worst = max(worst, float(np.max(np.abs(op.matvec(e) - dense[:, col]))))
        e[col] = 0.0
    assert worst <= 1e-12 * float(np.max(np.abs(dense)))


@pytest.mark.parametrize("dims", [(128, 128), (8, 8, 8, 8)])
def test_bordered_operator_memory(dims):
    # The operator keeps only the d weight arrays w / (2h) beyond phi, and
    # an apply allocates its n + 1 output and one scratch buffer.  Holding
    # separate up and down coefficients 1/h^2 +- w/(2h) would keep 2d.
    g = TorusGrid(dims)
    rng = np.random.default_rng(19)
    problem = Problem(g, rng.standard_normal(g.dims), -np.eye(g.ndim))
    phi = rng.standard_normal(g.dims)
    x = rng.standard_normal(g.size + 1)
    bordered_operator(problem, phi, 0.5).matvec(x)   # first-call caches
    grid_bytes = g.size * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        op = bordered_operator(problem, phi, 0.5)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        y = op.matvec(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the operator objects and closure are a few hundred bytes
    assert held <= g.ndim * grid_bytes + grid_bytes // 4
    # one scratch buffer, plus numpy's strided-copy buffers (14 kB on 8^4)
    assert peak <= y.nbytes + 2 * grid_bytes
    print("held %.2f, apply peak %.2f grid arrays beyond the output"
          % (held / grid_bytes, (peak - y.nbytes) / grid_bytes))


def _bordered_model(g, F, t, u, sigma):
    """Dense [[u^-1 (lap - sigma)(u .), -exp(tF)], [mean, 0]]."""
    n = g.size
    lap = oracles.dense_laplacian(g)
    block = (lap - sigma * np.eye(n)) * u[None, :] / u[:, None]
    border = np.full((1, n), 1.0 / n)
    return np.block([[block, -np.exp(t * F).reshape(n, 1)],
                     [border, np.zeros((1, 1))]])


@pytest.mark.parametrize("dims, lengths", [
    ((6, 7), (2.0, 7.0)),          # odd last axis: no Nyquist column
    ((8, 8), None),
    ((4, 5, 4, 5), (1.0, 2.0, 3.0, 5.0)),
])
@pytest.mark.parametrize("form, span", [
    ("scalar", 3.0),        # gauge branch
    ("scalar", 12.0),       # span beyond GAUGE_MAX_SPAN: shifted branch
    ("pernode", 3.0),       # a per-node Q has no gauge
    ("anisotropic", 3.0),   # nor has a Q that is not a multiple of I
])
def test_preconditioner_inverts_bordered_model(dims, lengths, form, span):
    # the dense oracle shares no FFT code with the half-spectrum path
    g = TorusGrid(dims, lengths=lengths)
    rng = np.random.default_rng(16)
    d = g.ndim
    a = 2.0
    if form == "scalar":
        q = -a * np.eye(d)
    elif form == "pernode":
        q = np.broadcast_to(-a * np.eye(d), g.dims + (d, d))
    else:
        q = -np.diag(np.arange(1.0, d + 1.0))
    F = rng.standard_normal(g.dims)
    phi = rng.standard_normal(g.dims)
    phi *= span / (a * np.ptp(phi))
    problem = Problem(g, F, q)
    gauged = form == "scalar" and span <= es.GAUGE_MAX_SPAN
    assert problem.gauge == (a if form == "scalar" else None)
    if gauged:
        u = np.exp(-a * (phi - 0.5 * (phi.max() + phi.min()))).ravel()
        sigma = float(np.mean(oracles.dense_laplacian(g) @ u / u))
    else:
        u, sigma = np.ones(g.size), es.PRECOND_SHIFT
    x = rng.standard_normal(g.size + 1)
    expected = np.linalg.solve(_bordered_model(g, F, 0.7, u, sigma), x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = shifted_inverse_preconditioner(problem, phi, 0.7).matvec(x)
    assert back.shape == x.shape
    assert np.max(np.abs(back - expected)) < 1e-10


def test_preconditioner_is_stable_for_nearly_constant_phi():
    # sigma -> 0 with the span; the floor on sigma keeps the border's
    # cancellation of the 1/sigma zero mode within round-off, so the apply
    # stays near the limit model, the plain bordered Laplacian
    g = TorusGrid((8, 8))
    rng = np.random.default_rng(17)
    F = rng.standard_normal(g.dims)
    phi = 1e-10 * rng.standard_normal(g.dims)
    x = rng.standard_normal(g.size + 1)
    limit = np.linalg.solve(_bordered_model(g, F, 0.7, np.ones(g.size), 0.0), x)
    back = shifted_inverse_preconditioner(Problem(g, F, -np.eye(2)), phi, 0.7).matvec(x)
    assert np.max(np.abs(back - limit)) < 1e-5 * np.max(np.abs(limit))


def _gauge_case(dims, span, lengths=None, seed=21):
    """Q = -2I, a random F and a smooth phi at gauge span a ptp(phi)."""
    g = TorusGrid(dims, lengths=lengths)
    rng = np.random.default_rng(seed)
    problem = Problem(g, rng.standard_normal(g.dims), -2.0 * np.eye(g.ndim))
    phi = sum(np.sin(2.0 * np.pi * x / length + rng.uniform(0.0, 2.0 * np.pi))
              for x, length in zip(g.axis_coords(), g.lengths))
    phi *= span / (2.0 * np.ptp(phi))
    return problem, phi, rng


@pytest.mark.parametrize("dims", [(8, 8), (4, 5, 4, 5)])
@pytest.mark.parametrize("span", [3.0, 12.0])     # gauge and shifted branch
def test_preconditioner_answers_are_fresh_and_unaliased(dims, span):
    # gmres subtracts from what psolve returns (w -= h v), so every answer
    # must be an array nothing else holds, and a repeated input must get
    # the answer a freshly built preconditioner gives, bit for bit
    problem, phi, rng = _gauge_case(dims, span)
    n = problem.grid.size
    b, v = rng.standard_normal(n + 1), rng.standard_normal(n + 1)
    precond = shifted_inverse_preconditioner(problem, phi, 0.7)
    kept = []
    for x in (b, b.copy(), v, b, v):
        fresh = shifted_inverse_preconditioner(problem, phi, 0.7).matvec(x)
        answer = precond.matvec(x)
        assert answer.tobytes() == fresh.tobytes()
        step = rng.standard_normal(n + 1)
        answer -= step
        fresh -= step
        kept.append((answer, fresh))
    for answer, fresh in kept:
        assert answer.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("dims", [(128, 128), (8, 8, 8, 8)])
def test_preconditioner_memory(dims):
    # Gauge branch: building holds g, u, u^-1, the real symbol and the
    # complex half spectrum the FFT pair runs in.  A steady apply writes
    # into its n + 1 output and allocates only c g for the border.
    problem, phi, rng = _gauge_case(dims, 3.0, seed=22)
    g = problem.grid
    x = rng.standard_normal(g.size + 1)
    shifted_inverse_preconditioner(problem, phi, 0.5).matvec(x)  # first-call caches
    grid_bytes = g.size * 8
    half = problem.laplacian_symbol.size / g.size
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        precond = shifted_inverse_preconditioner(problem, phi, 0.5)
        held = tracemalloc.get_traced_memory()[0] - before
        precond.matvec(x)
        precond.matvec(x)       # answered from the first apply, memo dropped
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        y = precond.matvec(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 3 grid arrays and 3 half-spectrum ones (the complex spectrum counts
    # twice), plus the closure and numpy's small objects (2 kB)
    assert held <= (3.0 + 3.0 * half + 0.1) * grid_bytes
    # c g, plus pocketfft's line buffers for the strided axes (10 kB on 8^4)
    assert peak <= y.nbytes + 1.5 * grid_bytes
    print("held %.2f, apply peak %.2f grid arrays beyond the output"
          % (held / grid_bytes, (peak - y.nbytes) / grid_bytes))


@pytest.mark.parametrize("dims, span, lengths", [
    ((8, 8), 3.0, None),                             # gauge branch
    ((16, 16), 12.0, None),                          # shifted branch
    ((4, 5, 4, 5), 3.0, (1.0, 2.0, 3.0, 5.0)),
])
@pytest.mark.parametrize("rtol", [1e-2, 1e-6, 1e-10])
def test_converged_gmres_meets_true_residual(dims, span, lengths, rtol):
    # _solve_bordered returns a converged x unchecked: scipy's info == 0
    # must mean the true residual, with this operator, is within rtol
    problem, phi, rng = _gauge_case(dims, span, lengths)
    n = problem.grid.size
    op = bordered_operator(problem, phi, 0.7)
    precond = shifted_inverse_preconditioner(problem, phi, 0.7)
    rhs = np.concatenate([rng.standard_normal(n), [0.0]])
    x, info = es._gmres(op, rhs, precond, rtol)
    assert info == 0
    assert np.linalg.norm(op.matvec(x) - rhs) <= rtol * np.linalg.norm(rhs)


def test_solve_bordered_adds_no_apply_after_converged_gmres(monkeypatch):
    problem, phi, rng = _gauge_case((16, 16), 3.0)
    n = problem.grid.size
    op = bordered_operator(problem, phi, 0.7)
    inside, outside, infos = [False], [0], []

    def counted(x):
        outside[0] += not inside[0]
        return op.matvec(x)

    gmres = es._gmres

    def flagged(*args):
        inside[0] = True
        try:
            x, info = gmres(*args)
        finally:
            inside[0] = False
        infos.append(info)
        return x, info

    monkeypatch.setattr(es, "_gmres", flagged)
    counted_op = es.spla.LinearOperator(op.shape, matvec=counted, dtype=float)
    precond = shifted_inverse_preconditioner(problem, phi, 0.7)
    rhs = np.concatenate([rng.standard_normal(n), [0.0]])
    x = es._solve_bordered(counted_op, precond, rhs, 1e-6)
    assert infos == [0]
    assert outside[0] == 0
    assert np.linalg.norm(op.matvec(x) - rhs) <= 1e-6 * np.linalg.norm(rhs)


# --------------------------------------------------------- failure paths


def test_max_iters_exceeded():
    g = TorusGrid((16, 16))
    q = -np.eye(2)
    F = manufactured_problem(g, sine_product_field(g, 0.3), q)
    with pytest.raises(MaxItersExceeded):
        solve_at_t(Problem(g, F, q), 1.0, tol=1e-30, max_iters=2)


def test_initial_b_must_be_positive():
    g = TorusGrid((8, 8))
    problem = Problem(g, g.zeros(), -np.eye(2))
    with pytest.raises(BPositivityLost):
        solve_at_t(problem, 1.0, b0=0.0)
    with pytest.raises(BPositivityLost):
        solve_at_t(problem, 1.0, b0=-1.0)


def test_nonpositive_tolerance_rejected():
    g = TorusGrid((8, 8))
    problem = Problem(g, g.zeros(), -np.eye(2))
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            solve_at_t(problem, 1.0, tol=tol)


def test_accepted_step_crossing_zero_b(monkeypatch):
    # force a descent direction whose full step lands at b < 0
    g = TorusGrid((8, 8))

    def fake_solve(op, precond, rhs, rtol):
        x = np.zeros_like(rhs)
        x[-1] = -3.5
        return x

    monkeypatch.setattr(es, "_solve_bordered", fake_solve)
    state = SolverState(phi=g.zeros(), b=3.0, t=1.0, residual_norm=2.0,
                        newton_iters=0, res_history=[2.0])
    with pytest.raises(BPositivityLost):
        newton_step(Problem(g, g.zeros(), np.zeros((2, 2))), state)


def test_damping_exhausted_on_ascent_direction(monkeypatch):
    g = TorusGrid((8, 8))

    def fake_solve(op, precond, rhs, rtol):
        x = np.zeros_like(rhs)
        x[-1] = 1.0  # pushes b away from the solution
        return x

    monkeypatch.setattr(es, "_solve_bordered", fake_solve)
    state = SolverState(phi=g.zeros(), b=2.0, t=1.0, residual_norm=1.0,
                        newton_iters=0, res_history=[1.0])
    halvings = "after %d halvings" % es.MAX_HALVINGS
    with pytest.raises(DampingExhausted, match=halvings):
        newton_step(Problem(g, g.zeros(), np.zeros((2, 2))), state)


@pytest.mark.parametrize("dims", [(8, 8), (128, 128)])
def test_failed_gmres_raises_with_no_apply_after_it(dims, monkeypatch):
    # a GMRES that does not converge fails the solve at every grid size;
    # the fake applies the operator once itself, so the count is live
    g = TorusGrid(dims)
    inside, applies, calls = [False], {True: 0, False: 0}, [0]
    build = es.bordered_operator

    def counted_operator(problem, phi, t):
        op = build(problem, phi, t)

        def counted(x):
            applies[inside[0]] += 1
            return op.matvec(x)

        return es.spla.LinearOperator(op.shape, matvec=counted, dtype=float)

    def failed_gmres(op, rhs, precond, rtol):
        calls[0] += 1
        inside[0] = True
        op.matvec(rhs)
        inside[0] = False
        return np.zeros_like(rhs), 1

    monkeypatch.setattr(es, "bordered_operator", counted_operator)
    monkeypatch.setattr(es, "_gmres", failed_gmres)
    with pytest.raises(LinearSolveFailure, match=r"info=1, rtol="):
        solve_at_t(Problem(g, bump(g), -np.eye(2)), 1.0)
    assert calls[0] == 1
    assert applies == {True: 1, False: 0}


def test_gmres_propagates_operator_errors():
    # an error inside the operator must surface as itself, not as a retry
    g = TorusGrid((8, 8))

    def broken(x):
        raise TypeError("bug inside matvec")

    op = es.spla.LinearOperator((g.size + 1, g.size + 1), matvec=broken,
                                dtype=float)
    precond = shifted_inverse_preconditioner(
        Problem(g, g.zeros(), -np.eye(2)), g.zeros(), 0.0)
    with pytest.raises(TypeError, match="bug inside matvec") as info:
        es._gmres(op, np.ones(g.size + 1), precond, 1e-8)
    assert info.value.__context__ is None


def test_gmres_work_is_capped_on_complete_stagnation():
    # a cyclic shift with rhs e_1: every Krylov space of dimension below n
    # misses the solution, so restarted GMRES makes no progress at all
    n = 4098
    calls = [0]

    def shift(x):
        calls[0] += 1
        return np.roll(x, 1)

    op = es.spla.LinearOperator((n, n), matvec=shift, dtype=float)
    rhs = np.zeros(n)
    rhs[0] = 1.0
    _, info = es._gmres(op, rhs, None, 1e-8)
    assert info != 0
    assert calls[0] <= 4 * 51 + 1
    calls[0] = 0
    with pytest.raises(LinearSolveFailure):
        es._solve_bordered(op, None, rhs, 1e-8)
    assert calls[0] <= 4 * 51 + 1
