"""Grid, kernel, and Newton solver tests against small dense oracles."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import hktsolve.elliptic_solver as es
from hktsolve import gridio, kernels
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
    # any number of axes but none: leaf spaces have 1, 2 or 3 (the CLI
    # refuses a solve config of other than 2 or 4)
    with pytest.raises(ConfigError, match="at least one axis"):
        TorusGrid(())
    assert TorusGrid((8,)).ndim == 1 and TorusGrid((8, 8, 8)).ndim == 3
    with pytest.raises(ConfigError):
        TorusGrid((8, 3))
    with pytest.raises(ConfigError):
        TorusGrid((8, 8), lengths=(1.0,))
    with pytest.raises(ConfigError):
        TorusGrid((8, 8), lengths=(1.0, -2.0))
    for bad in (float("inf"), float("nan"), 10 ** 400):
        with pytest.raises(ConfigError, match="lengths"):
            TorusGrid((8, 8), lengths=(bad, 1.0))
    # dims must be integers: 8.7 is not truncated, "8" is not parsed
    for dims in ((8.7, 8), ("8", "8")):
        with pytest.raises(ConfigError, match="dims"):
            TorusGrid(dims)
    # a string is not read digit by digit, and no length is a string or a bool
    for lengths in ("12", ("6.5", "6.5"), (True, True)):
        with pytest.raises(ConfigError, match="lengths"):
            TorusGrid((4, 4), lengths)
    assert TorusGrid((np.int64(8), 8), (np.float64(2.0), 3)).lengths == (2.0, 3.0)


@pytest.mark.parametrize("dims", [(2 ** 32, 2 ** 32), (2 ** 16,) * 4, (10 ** 40, 8)])
def test_grid_refuses_more_nodes_than_an_array_can_address(dims):
    # 2^64 nodes wrap to 0 in an int64 product; nothing is allocated
    with pytest.raises(ConfigError, match=r"^grid\.dims .* nodes"):
        TorusGrid(dims)
    assert TorusGrid((2 ** 20, 2 ** 20)).size == 2 ** 40


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


@pytest.mark.parametrize("dims", [(4,), (7,), (4, 7), (5, 4, 7), (5, 4, 6, 7)])
@pytest.mark.parametrize("layout", ["C", "transposed"])
@pytest.mark.parametrize("sign", [1, -1])
def test_neighbours_match_roll_bit_for_bit(dims, layout, sign):
    # one add or subtract per node, of the same operands in the same order
    # as the roll pair; the NaN fill shows every node of out is written
    rng = np.random.default_rng(10)
    f = rng.standard_normal(dims)
    if layout == "transposed":
        f = np.ascontiguousarray(f.T).T
    for ax in range(len(dims)):
        out = kernels.neighbours(f, ax, sign, np.full(dims, np.nan))
        up, down = np.roll(f, -1, ax), np.roll(f, 1, ax)
        assert np.array_equal(out, up + down if sign > 0 else up - down)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dims=hst.lists(hst.integers(2, 7), min_size=1, max_size=4).map(tuple),
       data=hst.data(), seed=hst.integers(0, 2 ** 32 - 1))
def test_neighbours_over_a_row_range_match_roll_bit_for_bit(dims, data, seed):
    # every axis and both signs, over row ranges that start at row 0 or end
    # at the last row (so take the wrapped rows) or lie inside; the NaN
    # fill shows every node of the range's out is written
    f = np.random.default_rng(seed).standard_normal(dims)
    m = dims[0]
    r0 = data.draw(hst.sampled_from(sorted({0, 1, m // 2, m - 1})))
    r1 = data.draw(hst.integers(r0 + 1, m))
    for ax in range(len(dims)):
        up, down = np.roll(f, -1, ax)[r0:r1], np.roll(f, 1, ax)[r0:r1]
        for sign in (1, -1):
            out = np.full((r1 - r0,) + dims[1:], np.nan)
            kernels.neighbours(f, ax, sign, out, (r0, r1))
            assert np.array_equal(out, up + down if sign > 0 else up - down)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dims=hst.lists(hst.integers(4, 9), min_size=1, max_size=4).map(tuple),
       kind=hst.sampled_from(["field", "ties", "pernode", "constant"]),
       seed=hst.integers(0, 2 ** 32 - 1))
def test_axis_spread_is_the_ptp_maximum(dims, kind, seed):
    # max and min are exact, so every traversal gives numpy's value
    rng = np.random.default_rng(seed)
    shape = dims + (len(dims),) * 2 if kind == "pernode" else dims
    arr = rng.standard_normal(shape)
    if kind == "ties":
        arr = rng.integers(-2, 3, shape).astype(float)
    flat_ax = int(rng.integers(len(dims)))
    if kind == "constant":
        arr = np.ascontiguousarray(np.broadcast_to(
            np.take(arr, [0], axis=flat_ax), shape))
    for ax in range(len(dims)):
        assert kernels.axis_spread(arr, ax) == float(np.max(np.ptp(arr, axis=ax)))
    if kind == "constant":
        assert kernels.axis_spread(arr, flat_ax) == 0.0


def test_axis_spread_allocates_less_than_a_grid_array():
    # one value per line, for the largest and the smallest: on 20^4 the
    # outer axes take numpy's reduction, axis 2 the slices, axis 3 reduceat
    arr = np.random.default_rng(11).standard_normal((20,) * 4)
    for ax in range(4):
        kernels.axis_spread(arr, ax)   # first-call caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kernels.axis_spread(arr, ax)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < arr.nbytes
        print("axis %d spread peak %.2f grid arrays" % (ax, peak / arr.nbytes))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dims=hst.one_of(hst.tuples(*[hst.integers(4, 7)] * 2),
                       hst.tuples(*[hst.integers(4, 5)] * 4)),
       pernode=hst.booleans(), seed=hst.integers(0, 2 ** 32 - 1),
       factor=hst.sampled_from([0.25, 0.5, 0.99, 0.999, 1.0, 1.001, 1.01, 2.0, 4.0]))
def test_invariant_axes_are_the_spread_rule(dims, pernode, seed, factor):
    # the first-step rejection only skips spreads that exceed the bound:
    # steps planted near 1e-14 * scale, on the first two planes of an
    # axis or anywhere else, leave the set the spread alone gives
    rng = np.random.default_rng(seed)
    shape = dims + (len(dims),) * 2 if pernode else dims
    arr = rng.standard_normal(shape)
    for ax in range(len(dims)):
        if rng.random() < 0.6:
            arr = np.repeat(np.take(arr, [0], axis=ax), dims[ax], axis=ax)
    arr = np.ascontiguousarray(arr)
    scale = 1.0 + max(float(np.max(arr)), -float(np.min(arr)))
    for _ in range(int(rng.integers(1, 4))):
        at = tuple(int(rng.integers(m)) for m in shape)
        arr[at] += rng.choice([-1.0, 1.0]) * factor * 1e-14 * scale
    bound = 1e-14 * (1.0 + max(float(np.max(arr)), -float(np.min(arr))))
    spread_rule = {ax for ax in range(len(dims))
                   if kernels.axis_spread(arr, ax) <= bound}
    assert es._invariant_axes(arr, dims) == spread_rule


def test_leaf_detection_spreads_only_the_leaf_axes(monkeypatch):
    # su3-4d-20's forcing varies along axes 0 and 1: their first steps
    # reject them, so only the two leaves take a spread, and a constant Q
    # takes none
    g = TorusGrid((20,) * 4)
    xs = g.axis_coords()
    F = np.exp(np.cos(xs[0]) - 1.0 + np.cos(xs[1]) - 1.0) + g.zeros()
    spread, calls = es.axis_spread, []

    def counted(arr, ax):
        calls.append(ax)
        return spread(arr, ax)

    monkeypatch.setattr(es, "axis_spread", counted)
    assert Problem(g, F, -4.0 * np.eye(4)).leaf_axes == (2, 3)
    assert calls == [2, 3]


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


def _stacked(g):
    """The component(i, out) of quad_value for a stacked field g."""
    return lambda i, out: np.copyto(out, g[i])


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
    v = _stacked(g)
    assert np.allclose(es.quad_value(q, v, dims), value, rtol=0, atol=1e-12)
    assert np.allclose(es.quad_dir_weights(q, v, dims), weights, rtol=0, atol=1e-12)
    # a constant Q reads the same as its per-node broadcast; a zero Q is zero
    qc = q[(0,) * d]
    qn = np.broadcast_to(qc, q.shape)
    assert np.allclose(es.quad_value(qc, v, dims), es.quad_value(qn, v, dims),
                       rtol=0, atol=1e-12)
    assert np.allclose(es.quad_dir_weights(qc, v, dims),
                       es.quad_dir_weights(qn, v, dims), rtol=0, atol=1e-12)
    assert not np.any(es.quad_value(np.zeros((d, d)), v, dims))
    assert not np.any(es.quad_dir_weights(np.zeros((d, d)), v, dims))


def test_problem_finds_the_pairs_of_q_once(monkeypatch):
    # s_01 = q_01 + q_10 cancels here, so its term is left out; a Newton
    # step's weights take the problem's pairs and look at Q no more
    g = TorusGrid((8, 8))
    rng = np.random.default_rng(32)
    q = np.array([[-2.0, 0.5], [-0.5, -1.0]])
    pernode = np.broadcast_to(q, g.dims + (2, 2)).copy()
    pernode[2, 3] = [[-1.0, 0.25], [0.25, -1.0]]
    phi = rng.standard_normal(g.dims)
    v = es._partials(g, phi)
    for form, pairs in ((q, ((0, 0), (1, 1))),
                        (pernode, ((0, 0), (0, 1), (1, 1)))):
        problem = Problem(g, rng.standard_normal(g.dims), form)
        assert problem.pairs == es.nonzero_pairs(form) == pairs
        assert (es.quad_dir_weights(form, v, g.dims, pairs).tobytes()
                == es.quad_dir_weights(form, v, g.dims).tobytes())
        x = rng.standard_normal(g.size + 1)
        want = bordered_operator(problem, phi, 0.5).matvec(x)
        with monkeypatch.context() as m:
            m.setattr(es, "nonzero_pairs", None)
            got = bordered_operator(problem, phi, 0.5).matvec(x)
        assert got.tobytes() == want.tobytes()


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
    F[1, 2] = -np.inf
    with pytest.raises(ConfigError):
        Problem(g, F, -np.eye(2))
    with pytest.raises(ConfigError):
        Problem(g, g.zeros(), np.eye(2))
    with pytest.raises(ShapeMismatch):
        Problem(g, g.zeros(), -np.eye(4))


def test_problem_checks_a_frozen_f_without_a_temporary():
    # F's finiteness from its max and min: no mask an eighth of a grid array
    g = TorusGrid((20, 20, 20, 20))
    rng = np.random.default_rng(46)
    q = -4.0 * np.eye(4)
    Problem(g, gridio.frozen(rng.standard_normal(g.dims)), q)   # first-call caches
    F = gridio.frozen(rng.standard_normal(g.dims))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        problem = Problem(g, F, q)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert problem.F is F
    assert peak <= g.size * 8 // 50


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


def test_residual_keeps_no_exp_tf_of_its_own():
    # b exp(tF) is formed in the residual's own result, by exp_tF's
    # operations, until a Newton step asks for exp(tF): a start that
    # already solves its grid leaves the problem holding none
    g = TorusGrid((16, 12))
    rng = np.random.default_rng(48)
    F = 0.3 * rng.standard_normal(g.dims)
    phi = 0.1 * rng.standard_normal(g.dims)
    problem = Problem(g, F, -np.eye(2))
    direct = es.residual(problem, phi, 0.8, 0.6)
    assert problem._exp_tF is None
    problem.exp_tF(0.6)
    assert es.residual(problem, phi, 0.8, 0.6).tobytes() == direct.tobytes()
    assert problem.scaled_exp_tF(0.6, 0.8).tobytes() == \
        (np.exp(0.6 * F) * 0.8).tobytes()
    solved = es.solve_at_t(Problem(g, F, -np.eye(2)), 1.0)
    assert solved.newton_iters > 0
    again = Problem(g, F, -np.eye(2))
    state = es.solve_at_t(again, 1.0, phi0=solved.phi, b0=solved.b)
    assert state.newton_iters == 0 and again._exp_tF is None


def test_problem_holds_a_frozen_f_without_a_copy():
    # read_field's arrays are frozen: nothing but the view reaches their
    # memory, so the problem holds the view itself, and nobody can write it
    g = TorusGrid((8, 8))
    rng = np.random.default_rng(30)
    F = gridio.frozen(rng.standard_normal(g.dims))
    problem = Problem(g, F, -np.eye(2))
    assert problem.F is F
    with pytest.raises(ValueError):
        F.flags.writeable = True
    # a read-only view whose base the caller still holds is copied: the
    # caller could make the base writable and write through it
    owner = rng.standard_normal(g.dims)
    view = gridio.frozen(owner)
    held = Problem(g, view, -np.eye(2))
    assert not np.shares_memory(held.F, owner)
    owner.flags.writeable = True
    owner[0, 0] = 99.0
    assert held.F[0, 0] != 99.0 and not held.F.flags.writeable
    # as is a second view of a frozen array, and a read-only array that
    # owns its memory, whose holder can flip its flag back
    other = F[:, :]
    assert not np.shares_memory(Problem(g, F, -np.eye(2)).F, other)
    owned = rng.standard_normal(g.dims)
    owned.flags.writeable = False
    assert not np.shares_memory(Problem(g, owned, -np.eye(2)).F, owned)


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
                        newton_iters=0)
    new = newton_step(Problem(g, g.zeros(), q), state)
    assert new.newton_iters == 1
    assert abs(new.b - 1.0) < 1e-10
    assert np.max(np.abs(new.phi)) < 1e-10
    assert new.residual_norm < 1e-10


def test_newton_step_at_exact_solution_is_stationary():
    g = TorusGrid((8, 8))
    state = SolverState(phi=g.zeros(), b=1.0, t=0.0, residual_norm=0.0,
                        newton_iters=0)
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
    st = solve_at_t(Problem(g, bump(g), -np.eye(2)), 0.0, tol=1e-10)
    assert st.residual_norm <= 1e-10 and st.newton_iters == 0


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


@pytest.mark.parametrize("dims, lengths", [((32,), (3.0,)),
                                           ((8, 10, 6), (1.0, 2.0, 3.0))])
def test_poisson_limit_on_one_and_three_axes_matches_fft_oracle(dims, lengths):
    # the grids of 1- and 3-axis leaf spaces, against a spectral solve
    # that shares no code with the solver
    g = TorusGrid(dims, lengths)
    F = sum(0.3 / (ax + 1) * np.sin(2.0 * np.pi * x / length + ax)
            for ax, (x, length) in enumerate(zip(meshes(g), lengths)))
    st = solve_at_t(Problem(g, F, np.zeros((g.ndim, g.ndim))), 1.0, tol=1e-12)
    phi_o, b_o = oracles.fft_poisson_oracle(g, F)
    assert abs(st.b - b_o) < 1e-12
    assert np.max(np.abs(st.phi - phi_o)) < 1e-11
    assert st.residual_norm <= 1e-12


def test_newton_history_is_quadratic():
    g = TorusGrid((32, 32))
    q = -np.eye(2)
    problem = Problem(g, manufactured_problem(g, sine_product_field(g, 0.3), q), q)
    res = es.residual(problem, g.zeros(), 1.0, 1.0)
    state = SolverState(phi=g.zeros(), b=1.0, t=1.0, newton_iters=0,
                        residual_norm=float(np.max(np.abs(res))))
    rs = [state.residual_norm]
    while state.residual_norm > 1e-12:
        assert state.newton_iters < 30
        state = newton_step(problem, state, 1e-12)
        rs.append(state.residual_norm)
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
    quad = es.quad_value(np.asarray(q, dtype=float), _stacked(grads), g.dims)
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


def test_b_bound_takes_a_forcing_far_below_zero():
    # max exp(-tF) = exp(800) overflows a float: the bound must not build it
    g = TorusGrid((8, 8))
    F = bump(g, -800.0)
    assert float(np.min(F)) == -800.0

    def state(b, t):
        return SolverState(phi=g.zeros(), b=b, t=t, residual_norm=0.0, newton_iters=0)

    assert check_b_bound(state(1e300, 1.0), F, 1e-7)
    assert not check_b_bound(state(1e300, 0.5), F, 1e-7)  # exp(400) is about 5e173
    assert check_b_bound(state(1.0, 0.0), F, 0.0)
    assert not check_b_bound(state(1.5, 0.0), F, 0.1)


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


def _q_of_kind(kind, dims, rng):
    """A constant diagonal, a per-node full or a constant full NSD Q."""
    d = len(dims)
    if kind == "diagonal":
        return -np.diag(np.arange(1.0, d + 1.0))
    a = rng.standard_normal((d, d) if kind == "full" else dims + (d, d))
    return -(a @ np.swapaxes(a, -1, -2))


def _stacked_density(g, phi, q):
    # the gradient stacked first, then the i <= j terms in row order,
    # the first written and the rest added, then + 1
    grads = kernels.gradient_nd(phi, g.spacings)
    quad = np.zeros(g.dims)
    first = True
    for i in range(g.ndim):
        for j in range(i, g.ndim):
            s = q[..., i, i] if i == j else q[..., i, j] + q[..., j, i]
            if np.any(s):
                term = grads[i] * grads[j] * s
                quad = term if first else quad + term
                first = False
    return kernels.laplacian_nd(phi, g.spacings) + quad + 1.0


def _stacked_matvec(problem, phi, t, x):
    # the weights w_j = sum_i (q_ij + q_ji) grad_i phi in ascending i over a
    # stacked gradient, and the operator's terms in its own order
    g, q = problem.grid, problem.q
    grads = kernels.gradient_nd(phi, g.spacings)
    eta = x[:-1].reshape(g.dims)
    top = problem.exp_tF(t) * -x[-1]
    top = top + eta * (-2.0 * sum(1.0 / (h * h) for h in g.spacings))
    for ax, h in enumerate(g.spacings):
        w = None
        for i in range(g.ndim):
            s = q[..., i, ax] + q[..., ax, i]
            if np.any(s):
                w = grads[i] * s if w is None else w + grads[i] * s
        w = np.zeros(g.dims) if w is None else w / (2.0 * h)
        up, down = np.roll(eta, -1, ax), np.roll(eta, 1, ax)
        top = top + (up + down) * (1.0 / (h * h))
        top = top + (up - down) * w
    return np.concatenate([top.ravel(), [eta.mean()]])


@pytest.mark.parametrize("kind", ["diagonal", "pernode", "full"])
@pytest.mark.parametrize("dims", [(12, 10), (6, 5, 4, 6)])
def test_streamed_gradient_matches_the_stacked_one_bit_for_bit(dims, kind):
    # density and the Newton matrix take grad phi one axis at a time; the
    # arithmetic is the stacked gradient's, in the same order
    rng = np.random.default_rng(41)
    g = TorusGrid(dims, lengths=tuple(1.0 + 0.5 * ax for ax in range(len(dims))))
    q = _q_of_kind(kind, dims, rng)
    phi = rng.standard_normal(dims)
    problem = Problem(g, 0.3 * rng.standard_normal(dims), q)
    assert np.array_equal(density(g, phi, q), _stacked_density(g, phi, q))
    op = bordered_operator(problem, phi, 0.7)
    for _ in range(3):
        x = rng.standard_normal(g.size + 1)
        assert np.array_equal(op.matvec(x), _stacked_matvec(problem, phi, 0.7, x))


@pytest.mark.parametrize("kind", ["diagonal", "pernode", "full"])
@pytest.mark.parametrize("dims, slab_nodes", [
    ((23, 10), 30),        # 3 rows a slab: 8 slabs, the last of 2 rows
    ((9, 5, 4, 6), 250),   # 2 rows a slab: 5 slabs, the last of 1 row
    ((7, 5, 4, 6), 1),     # one row a slab
])
def test_slabbed_stencils_match_the_stacked_ones_bit_for_bit(dims, slab_nodes,
                                                             kind, monkeypatch):
    # many odd-sized slabs: each node gets the whole-grid operations in
    # the same order, so the results are the stacked ones to the bit
    monkeypatch.setattr(kernels, "SLAB_NODES", slab_nodes)
    assert len(kernels.slabs(dims)) > 4
    rng = np.random.default_rng(42)
    g = TorusGrid(dims, lengths=tuple(1.0 + 0.5 * ax for ax in range(len(dims))))
    q = _q_of_kind(kind, dims, rng)
    phi = rng.standard_normal(dims)
    problem = Problem(g, 0.3 * rng.standard_normal(dims), q)
    assert np.array_equal(density(g, phi, q), _stacked_density(g, phi, q))
    assert np.array_equal(kernels.laplacian_nd(phi, g.spacings),
                          _roll_laplacian(phi, g.spacings))
    op = bordered_operator(problem, phi, 0.7)
    for _ in range(3):
        x = rng.standard_normal(g.size + 1)
        assert np.array_equal(op.matvec(x), _stacked_matvec(problem, phi, 0.7, x))


def _roll_laplacian(f, spacings):
    # centre f, then h^-2 (S+f + S-f) added axis by axis
    out = f * (-2.0 * sum(1.0 / (h * h) for h in spacings))
    for ax, h in enumerate(spacings):
        out = out + (np.roll(f, -1, ax) + np.roll(f, 1, ax)) * (1.0 / (h * h))
    return out


def test_density_finds_the_pairs_of_q_once_per_call(monkeypatch):
    # one nonzero_pairs per call, however many slabs: quad_value is handed
    # the pairs for each
    g = TorusGrid((16, 8, 4, 4))
    monkeypatch.setattr(kernels, "SLAB_NODES", 3 * 128)
    assert len(kernels.slabs(g.dims)) == 6
    rng = np.random.default_rng(44)
    q = _q_of_kind("full", g.dims, rng)
    phi = rng.standard_normal(g.dims)
    want = density(g, phi, q)
    calls = []
    real = es.nonzero_pairs

    def counted(form):
        calls.append(form.shape)
        return real(form)

    monkeypatch.setattr(es, "nonzero_pairs", counted)
    assert density(g, phi, q).tobytes() == want.tobytes()
    assert calls == [q.shape]


# numpy's ufunc buffers for the strided wrapped planes: 15 kB on 8^4
UFUNC_BUFFERS = 16 * 1024


@pytest.mark.parametrize("kind, arrays", [("diagonal", 3), ("full", 4)])
@pytest.mark.parametrize("dims", [(128, 128), (8, 8, 8, 8)])
def test_density_memory(dims, kind, arrays):
    # the result, and beside it the Laplacian's scratch or quad_value's
    # result and one buffer, two with off-diagonal terms; no gradient stack
    rng = np.random.default_rng(43)
    g = TorusGrid(dims)
    q = _q_of_kind(kind, dims, rng)
    phi = rng.standard_normal(dims)
    density(g, phi, q)   # first-call caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = density(g, phi, q)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    grid_bytes = out.nbytes
    assert peak <= arrays * grid_bytes + UFUNC_BUFFERS
    print("density peak %.2f grid arrays" % (peak / grid_bytes))


def test_stencils_on_a_grid_of_several_slabs_hold_a_fraction_of_an_array():
    # 20^4 has 10 slabs of 2 rows: beside its result, the density holds two
    # slab buffers (a fifth of a grid array) and numpy's ufunc buffers for
    # the slab's wrapped planes (21 kB along axis 2, not 190 kB as for a
    # whole grid); the matvec one slab buffer
    g = TorusGrid((20, 20, 20, 20))
    assert len(kernels.slabs(g.dims)) == 10
    rng = np.random.default_rng(45)
    phi = rng.standard_normal(g.dims)
    q = -4.0 * np.eye(4)
    op = bordered_operator(Problem(g, rng.standard_normal(g.dims), q), phi, 0.5)
    x = rng.standard_normal(g.size + 1)
    density(g, phi, q), op.matvec(x)   # first-call caches
    grid_bytes = g.size * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = density(g, phi, q)
        dens_peak = tracemalloc.get_traced_memory()[1] - base
        del out
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        y = op.matvec(x)
        matvec_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert dens_peak <= grid_bytes + grid_bytes // 4
    assert matvec_peak <= y.nbytes + grid_bytes // 8 + UFUNC_BUFFERS
    print("density %.3f, matvec %.3f grid arrays beyond the result"
          % (dens_peak / grid_bytes - 1.0, (matvec_peak - y.nbytes) / grid_bytes))


@pytest.mark.parametrize("kind, extra", [("diagonal", 1), ("full", 2)])
@pytest.mark.parametrize("dims", [(128, 128), (8, 8, 8, 8)])
def test_bordered_operator_build_memory(dims, kind, extra):
    # the d weight arrays it keeps, plus one buffer for grad_i phi and, with
    # off-diagonal terms, one for the terms added to a weight
    rng = np.random.default_rng(47)
    g = TorusGrid(dims)
    problem = Problem(g, rng.standard_normal(dims), _q_of_kind(kind, dims, rng))
    phi = rng.standard_normal(dims)
    bordered_operator(problem, phi, 0.5)   # first-call caches, exp(tF) too
    grid_bytes = g.size * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        op = bordered_operator(problem, phi, 0.5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert op.shape == (g.size + 1, g.size + 1)
    assert peak <= (g.ndim + extra) * grid_bytes + UFUNC_BUFFERS
    print("build peak %.2f grid arrays" % (peak / grid_bytes))


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


def _rfftn_preconditioner(problem, phi, t):
    """The preconditioner's apply on numpy's n-dimensional calls: ptp,
    np.mean, rfftn and irfftn, each allocating its result."""
    g = problem.grid
    n, dims = g.size, g.dims
    a = problem.gauge
    span = 0.0 if a is None else a * float(np.ptp(phi))
    if 0.0 < span <= es.GAUGE_MAX_SPAN:
        u = np.exp(-a * (phi - 0.5 * (np.max(phi) + np.min(phi))))
        u_inv = 1.0 / u
        sigma = max(float(np.mean(kernels.laplacian_nd(u, g.spacings) * u_inv)),
                    1e-6 * problem.lowest_mode)
    else:
        u = u_inv = 1.0
        sigma = es.PRECOND_SHIFT
    inv_symbol = 1.0 / (problem.laplacian_symbol - sigma)
    axes = tuple(range(g.ndim))

    def field_solve(r):
        spectrum = np.fft.rfftn(u * r, axes=axes) * inv_symbol
        return u_inv * np.fft.irfftn(spectrum, s=dims, axes=axes)

    g_field = field_solve(problem.exp_tF(t))
    g_mean = float(np.mean(g_field))

    def apply(x):
        w = field_solve(x[:n].reshape(dims))
        c = (x[n] - np.mean(w)) / g_mean
        return np.append(w + c * g_field, c)

    return apply


@pytest.mark.parametrize("dims, lengths", [
    ((7,), None), ((8,), (3.0,)), ((6, 7), (2.0, 7.0)), ((8, 8), None),
    ((5, 4, 7), None), ((4, 6, 5, 6), (1.0, 2.0, 3.0, 5.0)), ((4, 5, 4, 5), None),
])
@pytest.mark.parametrize("form", ["gauge", "shifted", "pernode"])
def test_preconditioner_matches_rfftn_bit_for_bit(dims, lengths, form):
    # one rfft and in-place ffts in rfftn's order, and sum / size for the
    # means: the same floating-point operations as the n-dimensional calls
    problem, phi, rng = _gauge_case(dims, 12.0 if form == "shifted" else 3.0, lengths)
    if form == "pernode":
        d = problem.grid.ndim
        problem = Problem(problem.grid, problem.F,
                          np.broadcast_to(-2.0 * np.eye(d), dims + (d, d)))
    precond = shifted_inverse_preconditioner(problem, phi, 0.7)
    reference = _rfftn_preconditioner(problem, phi, 0.7)
    for _ in range(3):   # the memo's first and second applies, and a later one
        x = rng.standard_normal(problem.grid.size + 1)
        assert precond.matvec(x).tobytes() == reference(x).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(shape=hst.lists(hst.integers(1, 12), min_size=1, max_size=4).map(tuple),
       layout=hst.sampled_from(["contiguous", "broadcast", "lifted", "zero"]),
       seed=hst.integers(0, 2 ** 32 - 1))
def test_mean_is_np_mean_bit_for_bit(shape, layout, seed):
    # the solver's means, on its C-ordered fields and on the broadcast
    # starts it is given (the trivial pair's zero, a lifted leaf solution)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    if layout == "broadcast":
        x = np.broadcast_to(x[..., :1], shape)
    elif layout == "lifted":
        x = np.broadcast_to(np.expand_dims(x[0], 0), (3,) + shape[1:])
    elif layout == "zero":
        x = np.broadcast_to(0.0, shape)
    assert es._mean(x).tobytes() == np.mean(x).tobytes()


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
                        newton_iters=0)
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
                        newton_iters=0)
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
