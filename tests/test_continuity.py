"""Path-following, manufactured problems, traces, and basicness reports."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hktsolve.continuity_driver as cd
import hktsolve.elliptic_solver as es
from hktsolve.continuity_driver import (
    ContinuityConfig,
    PathTrace,
    TraceRow,
    analytic_manufactured,
    basicness_check,
    convergence_study,
    manufactured_problem,
    run_continuity,
    sine_product_field,
)
from hktsolve.elliptic_solver import (
    Problem,
    SolverState,
    TorusGrid,
    check_b_bound,
    density,
)
from hktsolve.errors import (
    ConfigError,
    NonpositiveDensity,
    ShapeMismatch,
    StepUnderflow,
)

import oracles
from conftest import meshes


def bump(grid, amplitude=1.0, width=1.0):
    total = np.zeros(grid.dims)
    for ax, mesh in enumerate(meshes(grid)):
        total += np.cos(2.0 * np.pi * mesh / grid.lengths[ax]) - 1.0
    return amplitude * np.exp(total / width)


# -------------------------------------------------------------- config


def test_config_defaults_validate():
    cfg = ContinuityConfig().validate()
    assert cfg.t_step_init == 1.0 and cfg.t_step_max == 1.0


@pytest.mark.parametrize("kw", [
    {"t_step_min": 0.5, "t_step_init": 0.25},
    {"t_step_init": 0.5, "t_step_max": 0.25},
    {"t_step_max": 2.0, "t_step_init": 1.5},
    {"t_step_min": 0.0},
    {"newton_tol": 0.0},
    {"newton_tol": -1e-10},
    {"max_newton": 0},
    {"newton_tol": float("nan")},  # NaN <= 0 is false: a sign test passes it
    {"newton_tol": float("inf")},
])
def test_config_rejects_bad_values(kw):
    with pytest.raises(ConfigError):
        ContinuityConfig(**kw).validate()


# --------------------------------------------------------------- trace


def test_trace_requires_increasing_times():
    tr = PathTrace()
    tr.append(TraceRow(t=0.0, b=1.0, newton_iters=0, residual_norm=0.0,
                       seconds=0.1))
    tr.append(TraceRow(t=0.5, b=1.0, newton_iters=1, residual_norm=0.0,
                       seconds=0.1))
    with pytest.raises(ConfigError):
        tr.append(TraceRow(t=0.5, b=1.0, newton_iters=1, residual_norm=0.0,
                           seconds=0.1))


def test_trace_csv_and_json_round_trip():
    tr = PathTrace()
    tr.append(TraceRow(t=0.0, b=1.0, newton_iters=0, residual_norm=0.0,
                       seconds=0.25))
    tr.append(TraceRow(t=1.0, b=0.75, newton_iters=3, residual_norm=2.5e-12,
                       seconds=1.5))
    lines = tr.to_csv().splitlines()
    assert lines[0] == "t,b,newton_iters,residual_norm,seconds"
    assert len(lines) == 3
    cells = lines[2].split(",")
    assert float(cells[0]) == 1.0
    assert float(cells[1]) == 0.75
    assert cells[2] == "3"
    assert float(cells[3]) == 2.5e-12
    assert cells[4] == "1.500000"
    data = json.loads(tr.to_json())
    assert [r["t"] for r in data["rows"]] == [0.0, 1.0]
    assert data["rows"][1]["b"] == 0.75


# -------------------------------------------------------------- driver


def test_trivial_problem_takes_one_macro_step():
    g = TorusGrid((16, 16))
    state, trace = run_continuity(Problem(g, g.zeros(), np.zeros((2, 2))))
    assert [r.t for r in trace.rows] == [0.0, 1.0]
    assert all(r.b == 1.0 for r in trace.rows)
    assert all(r.newton_iters == 0 for r in trace.rows)
    assert np.max(np.abs(state.phi)) == 0.0


def test_first_row_is_the_exact_trivial_pair():
    # built, not solved for: the row a t = 0 solve would give
    g = TorusGrid((16, 16))
    problem = Problem(g, bump(g, 3.0), -4.0 * np.eye(2))
    _, trace = run_continuity(problem)
    solved = es.solve_at_t(problem, 0.0)
    first = trace.rows[0]
    assert (first.t, first.b, first.newton_iters, first.residual_norm) == \
        (0.0, 1.0, 0, 0.0) == (solved.t, solved.b, solved.newton_iters,
                               solved.residual_norm)


def test_poisson_path_tracks_mean_compatibility():
    # with Q = 0 the constant is forced by averaging the equation
    g = TorusGrid((16, 16))
    F = bump(g)
    cfg = ContinuityConfig(t_step_init=0.25, newton_tol=1e-12)
    state, trace = run_continuity(Problem(g, F, np.zeros((2, 2))), cfg)
    assert trace.rows[-1].t == 1.0
    assert len(trace.rows) >= 4
    for row in trace.rows:
        want = g.size / float(np.sum(np.exp(row.t * F)))
        assert abs(row.b - want) <= 1e-10
        assert row.residual_norm <= 1e-12
    assert state.residual_norm <= 1e-12


def test_step_doubles_after_two_easy_solves():
    g = TorusGrid((8, 8))
    cfg = ContinuityConfig(t_step_init=0.125)
    _, trace = run_continuity(Problem(g, g.zeros(), np.zeros((2, 2))), cfg)
    assert [r.t for r in trace.rows] == [0.0, 0.125, 0.25, 0.5, 0.75, 1.0]


def test_step_cap_blocks_doubling():
    g = TorusGrid((8, 8))
    cfg = ContinuityConfig(t_step_init=0.125, t_step_max=0.125)
    _, trace = run_continuity(Problem(g, g.zeros(), np.zeros((2, 2))), cfg)
    assert [r.t for r in trace.rows] == [0.125 * k for k in range(9)]


def test_step_halves_on_failure_then_recovers(monkeypatch):
    # fail any jump larger than 0.26 measured from the last committed time
    attempts = []
    committed = [0.0]

    def gated_solve(problem, t, phi0=None, b0=1.0, tol=1e-10, max_iters=30):
        attempts.append(t)
        if t - committed[-1] > 0.26:
            raise cd.MaxItersExceeded("too big a jump")
        committed.append(t)
        return SolverState(phi=problem.grid.zeros(), b=1.0, t=t, residual_norm=0.0,
                           newton_iters=1)

    monkeypatch.setattr(cd, "solve_at_t", gated_solve)
    g = TorusGrid((8, 8))
    _, trace = run_continuity(Problem(g, g.zeros(), np.zeros((2, 2))))
    # t = 0 is the trivial pair, recorded without a solve
    assert attempts == [1.0, 0.5, 0.25, 0.5, 1.0, 0.75, 1.0]
    assert [r.t for r in trace.rows] == [0.0, 0.25, 0.5, 0.75, 1.0]


@pytest.mark.parametrize("shift", [(36, 11), (35, 3)])
def test_hard_sine_reaches_t1_without_rejection(shift):
    # 44^2, sine amplitude 6, Q = -60 I: a last Newton step whose linear
    # solve is asked for more than the Newton tolerance needs stagnates,
    # and the continuity driver throws the whole attempt away
    g = TorusGrid((44, 44))
    F = np.roll(sine_product_field(g, 6.0), shift, axis=(0, 1))
    state, trace = run_continuity(Problem(g, F, -60.0 * np.eye(2)),
                                  ContinuityConfig(newton_tol=1e-10))
    assert [row.t for row in trace.rows] == [0.0, 1.0]
    assert abs(state.b - 0.00370654070996) <= 1e-8


def test_step_underflow_on_hopeless_problem():
    g = TorusGrid((16, 16))
    F = bump(g, amplitude=2.0)
    cfg = ContinuityConfig(newton_tol=1e-14, max_newton=1, t_step_min=1e-3)
    with pytest.raises(StepUnderflow):
        run_continuity(Problem(g, F, -np.eye(2)), cfg)


def test_failed_gmres_rejects_attempts_down_to_underflow(monkeypatch):
    # every solve's first Newton step meets a GMRES that does not
    # converge, which costs that one call; the driver halves the step.
    # 64^2 is sequenced: each attempt leaves the trivial pair, so its
    # 32^2 solve fails first, then the plain start it falls back to
    g = TorusGrid((64, 64))
    attempts, calls = [], [0]
    solve = cd.solve_at_t

    def counted_solve(problem, t, **kw):
        attempts.append((problem.grid.dims, t))
        return solve(problem, t, **kw)

    def failed_gmres(op, rhs, precond, rtol):
        calls[0] += 1
        return np.zeros_like(rhs), 1

    monkeypatch.setattr(cd, "solve_at_t", counted_solve)
    monkeypatch.setattr(es, "_gmres", failed_gmres)
    with pytest.raises(StepUnderflow):
        run_continuity(Problem(g, bump(g), -np.eye(2)),
                       ContinuityConfig(t_step_min=1e-2))
    # t = 0 is the trivial pair, recorded without a solve; 1, 1/2, ...,
    # 1/64 are rejected
    assert attempts == [(dims, 0.5 ** k) for k in range(7)
                        for dims in ((32, 32), g.dims)]
    assert calls[0] == len(attempts)


def test_driver_validates_q():
    # the driver takes a Problem, and a Problem only exists with a valid Q
    g = TorusGrid((8, 8))
    with pytest.raises(ConfigError):
        Problem(g, g.zeros(), np.eye(2))


# -------------------------------------------------- manufactured problems


def test_manufactured_zero_solution_gives_zero_forcing():
    g = TorusGrid((16, 16))
    F = manufactured_problem(g, g.zeros(), -np.eye(2))
    assert np.max(np.abs(F)) == 0.0


def test_manufactured_input_validation():
    g = TorusGrid((16, 16))
    with pytest.raises(ConfigError):
        manufactured_problem(g, np.full(g.dims, 0.1), -np.eye(2))
    with pytest.raises(ConfigError):
        manufactured_problem(g, g.zeros(), -np.eye(2), b_star=0.0)
    with pytest.raises(ShapeMismatch):
        manufactured_problem(g, np.zeros((4, 4)), -np.eye(2))


def test_manufactured_rejects_large_amplitudes():
    g = TorusGrid((32, 32))
    with pytest.raises(NonpositiveDensity):
        manufactured_problem(g, sine_product_field(g, 10.0), -np.eye(2))
    with pytest.raises(NonpositiveDensity):
        analytic_manufactured(g, 10.0, -np.eye(2))


def test_manufactured_recovery_on_discrete_jets():
    g = TorusGrid((32, 32))
    q = -np.eye(2)
    phi_star = sine_product_field(g, 0.1)
    F = manufactured_problem(g, phi_star, q)
    cfg = ContinuityConfig(newton_tol=1e-10)
    state, _ = run_continuity(Problem(g, F, q), cfg)
    assert np.max(np.abs(state.phi - phi_star)) <= 50 * cfg.newton_tol
    assert abs(state.b - 1.0) <= 50 * cfg.newton_tol


def test_analytic_field_samples_the_sine_product():
    g = TorusGrid((16, 16), lengths=(2.0, 3.0))
    phi, F = analytic_manufactured(g, 0.05, np.zeros((2, 2)))
    assert np.allclose(phi, sine_product_field(g, 0.05), atol=1e-14)
    # discrete and analytic forcings differ only by truncation error
    F_d = manufactured_problem(g, sine_product_field(g, 0.05), np.zeros((2, 2)))
    assert np.max(np.abs(F - F_d)) < 0.05


def test_convergence_orders_near_two():
    for qdiag in (0.0, -1.0):
        rows = convergence_study((16, 32, 64), amplitude=0.1, qdiag=qdiag)
        assert [r["size"] for r in rows] == [16, 32, 64]
        for row in rows[1:]:
            assert 1.7 <= row["order"] <= 2.3


def test_study_is_deterministic():
    a = convergence_study((16, 32), amplitude=0.1, qdiag=-1.0)
    b = convergence_study((16, 32), amplitude=0.1, qdiag=-1.0)
    assert [r["error"] for r in a] == [r["error"] for r in b]
    assert [r["b"] for r in a] == [r["b"] for r in b]


def test_trace_is_deterministic_up_to_timing():
    g = TorusGrid((16, 16))
    F = bump(g)
    cfg = ContinuityConfig(t_step_init=0.5)
    _, tr1 = run_continuity(Problem(g, F, -np.eye(2)), cfg)
    _, tr2 = run_continuity(Problem(g, F, -np.eye(2)), cfg)
    key = lambda tr: [(r.t, r.b, r.newton_iters, r.residual_norm)
                      for r in tr.rows]
    assert key(tr1) == key(tr2)
    strip = lambda tr: [line.rsplit(",", 1)[0]
                        for line in tr.to_csv().splitlines()]
    assert strip(tr1) == strip(tr2)


# ----------------------------------------------------------- basicness


def test_basicness_on_foliated_forcing():
    g = TorusGrid((8, 8, 8, 8))
    xs = meshes(g)
    F = 0.5 * np.sin(xs[0]) + 0.25 * np.cos(xs[1])  # constant in axes 2, 3
    cfg = ContinuityConfig(newton_tol=1e-10)
    problem = Problem(g, F, -np.eye(4))
    state, _ = run_continuity(problem, cfg)
    report = basicness_check(problem, state, cfg.newton_tol)
    assert report["applicable"]
    assert report["invariant_axes"] == [2, 3]
    assert report["variation"] <= 100 * cfg.newton_tol
    assert report["reduced_match"] is not None
    assert report["reduced_match"] <= 100 * cfg.newton_tol
    assert report["passed"]


def test_basicness_constant_forcing_has_no_reduced_solve():
    g = TorusGrid((4, 4, 4, 4))
    problem = Problem(g, g.zeros(), -np.eye(4))
    state, _ = run_continuity(problem)
    report = basicness_check(problem, state, 1e-10)
    assert report["invariant_axes"] == [0, 1, 2, 3]
    assert report["reduced_match"] is None
    assert report["passed"]


def test_basicness_not_applicable_when_forcing_varies_everywhere():
    g = TorusGrid((4, 4, 4, 4))
    F = sum(0.1 * np.sin(m) for m in meshes(g))
    report = basicness_check(Problem(g, F, -np.eye(4)), SolverState(
        phi=g.zeros(), b=1.0, t=1.0, residual_norm=0.0, newton_iters=0), 1e-10)
    assert not report["applicable"]
    assert report["invariant_axes"] == []


def test_basicness_reports_a_failed_check():
    g = TorusGrid((4, 4, 4, 4))
    xs = meshes(g)
    F = 0.1 * np.sin(xs[0]) + 0.1 * np.sin(xs[1])
    bad = SolverState(phi=np.sin(xs[3]), b=1.0, t=1.0, residual_norm=0.0,
                      newton_iters=0)
    problem = Problem(g, F, -np.eye(4))
    report = basicness_check(problem, bad, 1e-10)
    assert not report["passed"]


def test_basicness_reduces_a_per_node_q():
    # F and Q both vary along axes 0 and 1 only, so the solution must be
    # the lift of the solve on the reduced 8x8 grid with Q's 2x2 block
    g = TorusGrid((8, 8, 4, 4))
    xs = meshes(g)
    F = 0.3 * np.sin(xs[0]) + 0.2 * np.cos(xs[1])
    q = np.broadcast_to(-np.eye(4), g.dims + (4, 4)).copy()
    q[..., 0, 0] = -1.0 - 0.2 * np.sin(xs[0]) ** 2
    q[..., 1, 1] = -1.0 - 0.1 * np.cos(xs[1]) ** 2
    q[..., 0, 1] = q[..., 1, 0] = 0.05 * np.sin(xs[0] + xs[1])
    cfg = ContinuityConfig(newton_tol=1e-10)
    problem = Problem(g, F, q)
    state, _ = run_continuity(problem, cfg)
    report = basicness_check(problem, state, cfg.newton_tol)
    assert report["invariant_axes"] == [2, 3]
    assert report["reduced_match"] is not None
    assert report["reduced_match"] <= 100 * cfg.newton_tol
    assert report["passed"]


@pytest.mark.parametrize("name, ndim", [("leaf-2d-one", 1), ("leaf-4d-one", 3)])
def test_basicness_lifts_from_a_leaf_space_of_one_or_three_axes(name, ndim):
    # one leaf: the leaf space has the other 1 or 3 axes, and the
    # solution is its solution's lift
    problem = SEQUENCED[name]
    assert problem.leaf_space.grid.ndim == ndim
    cfg = ContinuityConfig(newton_tol=1e-10)
    state, _ = run_continuity(problem, cfg)
    report = basicness_check(problem, state, cfg.newton_tol)
    assert report["invariant_axes"] == list(problem.leaf_axes)
    assert report["variation"] <= 100 * cfg.newton_tol
    assert report["reduced_match"] is not None
    assert report["reduced_match"] <= 100 * cfg.newton_tol
    assert report["passed"]


def test_basicness_reduces_a_q_that_couples_leaf_and_varying_axes():
    # a solution constant along the leaves has zero leaf gradient, so the
    # cross terms q_02 and q_13 drop out and the reduced solve uses Q's
    # varying block alone
    g = TorusGrid((8, 8, 4, 4))
    xs = meshes(g)
    F = 0.3 * np.sin(xs[0]) + 0.2 * np.cos(xs[1])
    q = -np.eye(4)
    q[0, 2] = q[2, 0] = 0.3
    q[1, 3] = q[3, 1] = 0.2
    cfg = ContinuityConfig(newton_tol=1e-10)
    problem = Problem(g, F, q)
    state, _ = run_continuity(problem, cfg)
    report = basicness_check(problem, state, cfg.newton_tol)
    assert report["invariant_axes"] == [2, 3]
    assert report["reduced_match"] is not None
    assert report["reduced_match"] <= 100 * cfg.newton_tol
    assert report["passed"]


def test_basicness_keeps_a_constant_q_constant(monkeypatch):
    # a constant -4 I reduces to the constant 2x2 block, so the reduced
    # solve keeps the Hopf-Cole gauge branch of the preconditioner
    g = TorusGrid((8, 8, 4, 4))
    xs = meshes(g)
    problem = Problem(g, 0.8 * np.cos(xs[0]) * np.sin(xs[1]), -4.0 * np.eye(4))
    cfg = ContinuityConfig(newton_tol=1e-10)
    state, _ = run_continuity(problem, cfg)
    reduced = []
    solve = cd.solve_at_t

    def recorded(p, t, **kw):
        reduced.append(p)
        return solve(p, t, **kw)

    monkeypatch.setattr(cd, "solve_at_t", recorded)
    report = basicness_check(problem, state, cfg.newton_tol)
    [p] = reduced
    assert p.grid.dims == (8, 8)
    assert p.q.shape == (2, 2) and np.array_equal(p.q, -4.0 * np.eye(2))
    assert p.gauge == 4.0
    assert report["passed"]


def test_basicness_intersects_per_node_q_axes():
    g = TorusGrid((4, 4, 4, 4))
    xs = meshes(g)
    F = 0.1 * np.sin(xs[0]) + 0.1 * np.sin(xs[1])
    q = np.broadcast_to(-np.eye(4), g.dims + (4, 4)).copy()
    q[..., 2, 2] = -1.0 - 0.1 * np.sin(xs[2]) ** 2  # q varies along axis 2
    state = SolverState(phi=g.zeros(), b=1.0, t=1.0, residual_norm=0.0,
                        newton_iters=0)
    report = basicness_check(Problem(g, F, q), state, 1e-10)
    assert report["invariant_axes"] == [3]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dims=st.lists(st.integers(4, 6), min_size=2, max_size=4).map(tuple),
       data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       noise=st.sampled_from([0.0, 1e-14, 1e-8, 1.0]))
def test_lift_gap_is_the_sup_of_the_lifted_difference_bit_for_bit(dims, data, seed,
                                                                  noise):
    # 1 to 3 leaf axes; ties, exact zeros and differences at every scale
    leaf = tuple(sorted(data.draw(st.sets(st.integers(0, len(dims) - 1), min_size=1,
                                          max_size=len(dims) - 1))))
    rng = np.random.default_rng(seed)
    varying = tuple(m for ax, m in enumerate(dims) if ax not in leaf)
    r = rng.standard_normal(varying) * 10.0 ** rng.integers(-3, 4, varying)
    lifted = np.broadcast_to(np.expand_dims(r, leaf), dims)
    phi = lifted + noise * rng.integers(-2, 3, dims) * rng.standard_normal(dims)
    want = float(np.max(np.abs(lifted - phi)))
    got = cd._lift_gap(phi, r, leaf)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _su3_shaped_problem(dims=(20, 20, 20, 20)):
    """Q = -4I and a bump along the first two axes, as su3-4d-20 solves."""
    g = TorusGrid(dims)
    xs = g.axis_coords()
    return Problem(g, np.exp(np.cos(xs[0]) - 1.0 + np.cos(xs[1]) - 1.0) + g.zeros(),
                   -4.0 * np.eye(4))


def test_basicness_check_holds_no_grid_array():
    # the lift gap reduces phi over the leaves first: beside the 20x20
    # leaf solve and the spreads it allocates nothing of the grid's size
    problem = _su3_shaped_problem()
    state, _ = run_continuity(problem)
    basicness_check(problem, state, 1e-10)   # first-call caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = basicness_check(problem, state, 1e-10)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report["passed"] and report["invariant_axes"] == [2, 3]
    assert peak < 0.5 * state.phi.nbytes
    print("basicness peak %.2f grid arrays" % (peak / state.phi.nbytes))


def test_the_trivial_pair_holds_no_grid_array(monkeypatch):
    # its phi is a read-only broadcast zero: a sequenced step never reads
    # it, and a plain start takes its own zero-mean copy
    problem = _su3_shaped_problem((16, 16, 8, 8))
    seen, attempt = [], cd._attempt

    def first(problem, state, t, cfg):
        if not seen:
            seen.append((tracemalloc.get_traced_memory()[0] - base, state.phi))
        return attempt(problem, state, t, cfg)

    monkeypatch.setattr(cd, "_attempt", first)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_continuity(problem)
    finally:
        tracemalloc.stop()
    held, phi = seen[0]
    assert held < 0.1 * problem.grid.size * 8
    assert phi.shape == problem.grid.dims and not np.any(phi)
    assert not phi.flags.writeable
    # a plain start from it is the zero start
    plain = cd.solve_at_t(problem, 0.5, phi0=phi, b0=1.0)
    assert plain.phi.flags.c_contiguous
    assert np.array_equal(plain.phi, cd.solve_at_t(problem, 0.5).phi)


# ------------------------------------------------------ grid sequencing


def _waves(rng, shape, count=5):
    """Random cosines with every |k_ax| below half the axis: band-limited."""
    return [(tuple(int(rng.integers(-((m - 1) // 2), (m - 1) // 2 + 1))
                   for m in shape),
             float(rng.standard_normal()), float(rng.uniform(0.0, 2.0 * np.pi)))
            for _ in range(count)]


def _trig_poly(shape, lengths, waves, nyquist):
    """Evaluate the polynomial at the nodes of a grid of ``shape``.

    A wave is a * cos(sum_ax k_ax x_ax 2 pi / L_ax + phase).  A Nyquist
    term (axes, a) is a * prod over axes of cos(pi m_ax x_ax / L_ax), m_ax
    the coarse length: a product of cosines, the one form a Nyquist mode
    of the coarse grid stands for.
    """
    xs = [np.arange(n).reshape([-1 if ax == k else 1 for k in range(len(shape))])
          * (L / n) for ax, (n, L) in enumerate(zip(shape, lengths))]
    out = np.zeros(shape)
    for ks, a, phase in waves:
        out = out + a * np.cos(sum(2.0 * np.pi * k * x / L
                                   for k, x, L in zip(ks, xs, lengths)) + phase)
    for (axes, m), a in nyquist:
        term = np.full(shape, a)
        for ax, mm in zip(axes, m):
            term = term * np.cos(np.pi * mm * xs[ax] / lengths[ax])
        out = out + term
    return out


@pytest.mark.parametrize("coarse, fine", [
    ((6, 8), (12, 16)),                # two even axes, Nyquist corner
    ((5, 8), (5, 16)),                 # odd axis kept, last axis grows
    ((8, 7), (16, 7)),                 # odd last axis kept
    ((6, 4, 6, 5), (12, 8, 12, 5)),    # four axes
    ((4, 6, 5, 8), (8, 6, 10, 16)),    # an even axis kept, an odd one grown
    # the leaf level's growth by any factor, along one leaf axis of a
    # 4-axis grid and along one varying axis of a 2-axis grid
    ((5, 4, 4, 6), (5, 4, 20, 6)),
    ((5, 4, 5, 6), (5, 4, 20, 6)),
    ((5, 4, 6, 6), (5, 4, 18, 6)),
    ((5, 4, 5, 6), (5, 4, 15, 6)),
    ((7, 4), (7, 20)),
    ((7, 5), (7, 20)),
    ((7, 6), (7, 18)),
    ((7, 5), (7, 15)),
])
def test_interpolation_reproduces_band_limited_polynomials(coarse, fine):
    # evaluated analytically on both grids: no FFT and no solver code
    rng = np.random.default_rng(31)
    lengths = tuple(float(x) for x in rng.uniform(1.0, 7.0, len(coarse)))
    grown = [ax for ax, (m, n) in enumerate(zip(coarse, fine))
             if n != m and m % 2 == 0]
    nyquist = [(((ax,), (coarse[ax],)), 0.7) for ax in grown]
    if len(grown) >= 2:
        nyquist.append(((tuple(grown[:2]), tuple(coarse[ax] for ax in grown[:2])),
                        -0.4))
    waves = _waves(rng, coarse)
    got = cd.interpolate(_trig_poly(coarse, lengths, waves, nyquist), fine)
    want = _trig_poly(fine, lengths, waves, nyquist)
    assert got.shape == fine
    assert np.max(np.abs(got - want)) <= 1e-13


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(shape=st.one_of(st.lists(st.integers(2, 9), min_size=2, max_size=2),
                       st.lists(st.integers(2, 6), min_size=4, max_size=4)),
       grow=st.sampled_from(["first", "last", "both"]),
       factors=st.tuples(st.integers(2, 5), st.integers(2, 5)),
       scale=st.sampled_from([1e-6, 1.0, 1e8]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_interpolation_passes_through_arbitrary_values(shape, grow, factors,
                                                       scale, seed):
    # white noise: content in every mode, the Nyquist modes included.
    # The interpolant passes through the coarse nodes and keeps the mean;
    # both are checked by slicing and summing, with no FFT.
    values = scale * np.random.default_rng(seed).standard_normal(shape)
    axes = {"first": [0], "last": [len(shape) - 1],
            "both": [0, len(shape) - 1]}[grow]
    dims = list(shape)
    nodes = [slice(None)] * len(shape)
    for ax, k in zip(axes, factors):
        dims[ax] *= k
        nodes[ax] = slice(None, None, k)
    got = cd.interpolate(values, tuple(dims))
    top = np.max(np.abs(values))
    assert got.shape == tuple(dims)
    assert np.max(np.abs(got[tuple(nodes)] - values)) <= 1e-13 * top
    assert abs(np.mean(got) - np.mean(values)) <= 1e-14 * top



@pytest.mark.parametrize("dims, levels", [
    ((24, 9), [(12, 9), (6, 9), (3, 9)]),            # odd axis kept, odd last level
    ((16, 10), [(8, 10), (4, 5)]),                   # last axis kept, then odd grown
    ((16, 16, 4, 4), [(8, 8, 4, 4), (4, 4, 4, 4)]),  # even axes kept, Nyquist whole
    ((8, 6, 10, 4), [(4, 6, 5, 4), (2, 3, 5, 4)]),
    ((14, 7, 8), [(7, 7, 4)]),                       # one level: interpolate
    ((32,), [(16,), (8,), (4,)]),
])
def test_prolongation_matches_the_per_axis_oracle(dims, levels):
    # the levels raised one axis at a time to the nearest level's grid,
    # extrapolated there by richardson, and raised again to dims
    rng = np.random.default_rng(33)
    xs = [rng.standard_normal(shape) for shape in levels]
    want = oracles.per_axis_interpolate(
        cd.richardson(xs[0], *(oracles.per_axis_interpolate(x, levels[0])
                               for x in xs[1:])), dims)
    got = cd.prolong([(x.shape, cd.half_spectrum(x)) for x in xs], dims)
    assert got.shape == dims
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    if len(levels) == 1:
        assert np.array_equal(got, cd.interpolate(xs[0], dims))


def _sequenced_cases():
    g2 = TorusGrid((64, 64))
    godd = TorusGrid((64, 45))
    g4 = TorusGrid((16, 16, 8, 8))
    xs = meshes(g4)
    q4 = np.broadcast_to(-np.eye(4), g4.dims + (4, 4)).copy()
    q4[..., 0, 0] = -1.0 - 0.5 * np.sin(xs[0]) ** 2
    q4[..., 0, 1] = q4[..., 1, 0] = 0.2 * np.sin(xs[0] + xs[2])
    gl = TorusGrid((16, 16, 8, 8))
    xl = meshes(gl)
    # one leaf each: axis 0 of a 2-axis grid, and axis 2 of a 4-axis grid
    # with a per-node Q that couples it to the varying axes
    g1 = TorusGrid((8, 64), lengths=(1.0, 3.0))
    x1 = meshes(g1)[1]
    g3 = TorusGrid((16, 16, 8, 16))
    x3 = meshes(g3)
    q3 = np.broadcast_to(-np.eye(4), g3.dims + (4, 4)).copy()
    q3[..., 0, 0] = -1.0 - 0.5 * np.sin(x3[0]) ** 2
    q3[..., 0, 2] = q3[..., 2, 0] = 0.2 * np.sin(x3[1])
    return {
        "constant-q": Problem(g2, bump(g2, 2.0), -4.0 * np.eye(2)),
        # basic data: F and Q constant along the leaf axes 2 and 3
        "leaf-4d": Problem(gl, np.exp(np.cos(xl[0] - 1.0) + np.cos(xl[1]) - 2.0),
                           -4.0 * np.eye(4)),
        "leaf-2d-one": Problem(g1, np.exp(np.sin(2.0 * np.pi * x1 / 3.0)) - 1.0,
                               np.array([[-3.0, 1.0], [1.0, -2.0]])),
        "leaf-4d-one": Problem(g3, 0.5 * np.cos(x3[0]) + 0.3 * np.sin(x3[1] - x3[3]),
                               q3),
        "odd-axis": Problem(godd, np.roll(sine_product_field(godd, 2.0), 3, axis=1),
                            np.array([[-3.0, 1.0], [1.0, -2.0]])),
        "pernode-q": Problem(g4, 0.5 * np.sin(xs[0]) + 0.3 * np.cos(xs[1] - xs[3]), q4),
    }


SEQUENCED = _sequenced_cases()

# a floor for each case, and the chain it gives: two or more halved
# levels under the fine grid (under a leaf space, whose solution,
# broadcast along the leaves, is the fine start), so that grid's start
# is extrapolated
SEQUENCED_CHAINS = {
    "constant-q": (2 ** 8, [(32, 32), (16, 16)]),
    "leaf-2d-one": (16, [(64,), (32,), (16,)]),
    "leaf-4d": (16, [(16, 16), (8, 8), (4, 4)]),
    "leaf-4d-one": (2 ** 6, [(16, 16, 16), (8, 8, 8), (4, 4, 4)]),
    "odd-axis": (2 ** 9, [(32, 45), (16, 45)]),
    "pernode-q": (2 ** 8, [(8, 8, 4, 4), (4, 4, 4, 4)]),
}


def _run(problem, cfg, floor, monkeypatch):
    monkeypatch.setattr(cd, "SEQUENCE_MIN_NODES", floor)
    return run_continuity(problem, cfg)


def _run_sequenced(name, cfg, monkeypatch):
    """run_continuity on SEQUENCED[name] at its floor, its chain checked."""
    floor, chain = SEQUENCED_CHAINS[name]
    monkeypatch.setattr(cd, "SEQUENCE_MIN_NODES", floor)
    assert _coarse_chain(SEQUENCED[name]) == chain
    return run_continuity(SEQUENCED[name], cfg)


def _coarse_solves(monkeypatch):
    """Record the dims of every solve_at_t that run_continuity makes."""
    seen = []
    solve = cd.solve_at_t

    def recorded(problem, t, **kw):
        seen.append(problem.grid.dims)
        return solve(problem, t, **kw)

    monkeypatch.setattr(cd, "solve_at_t", recorded)
    return seen


@pytest.mark.parametrize("name", sorted(SEQUENCED))
def test_sequenced_and_plain_starts_reach_the_same_solution(name, monkeypatch):
    problem = SEQUENCED[name]
    cfg = ContinuityConfig(newton_tol=1e-10)
    plain, plain_trace = _run(problem, cfg, 10 ** 9, monkeypatch)
    seen = _coarse_solves(monkeypatch)
    seq, seq_trace = _run_sequenced(name, cfg, monkeypatch)
    # every coarse solve ran, and no fallback to the plain start
    assert seen == SEQUENCED_CHAINS[name][1][::-1] + [problem.grid.dims]
    assert [r.t for r in seq_trace.rows] == [r.t for r in plain_trace.rows]
    assert seq.residual_norm <= cfg.newton_tol
    assert abs(seq.b - plain.b) <= 100 * cfg.newton_tol
    assert np.max(np.abs(seq.phi - plain.phi)) <= 100 * cfg.newton_tol
    assert seq_trace.rows[-1].newton_iters < plain_trace.rows[-1].newton_iters
    # basic data: the leaf space's solution, lifted, starts the fine grid
    # within the Newton tolerance
    if problem.leaf_axes:
        assert seq_trace.rows[-1].newton_iters == 0


def _coarse_chain(problem):
    """The dims of the levels under the fine grid: the leaf space first
    when the fine problem has leaves, then the halvings coarse_dims
    gives, which have none; no level when every axis is a leaf."""
    if len(problem.leaf_axes) == problem.grid.ndim:
        return []
    chain = []
    if problem.leaf_space is not None:
        problem = problem.leaf_space
        chain.append(problem.grid.dims)
        assert problem.leaf_axes == ()
    while (dims := cd.coarse_dims(problem.grid)) is not None:
        chain.append(dims)
        problem = cd.coarsen(problem, dims)
        assert problem.grid.dims == dims and problem.leaf_axes == ()
    return chain


def _varying_everywhere(dims):
    rng = np.random.default_rng(41)
    return Problem(TorusGrid(dims), rng.standard_normal(dims), -np.eye(len(dims)))


def test_odd_and_short_axes_are_not_halved(monkeypatch):
    first = lambda dims: cd.coarse_dims(TorusGrid(dims))
    monkeypatch.setattr(cd, "SEQUENCE_MIN_NODES", 16)
    assert first((64, 45)) == (32, 45)
    assert first((8, 6, 7, 9)) == (4, 6, 7, 9)
    assert first((6, 6, 5, 5)) is None
    # F constant along axis 2, which a constant Q makes a leaf, whose
    # leaf space 16x16x8 is then halved; a per-node Q varying along it
    # leaves no leaf: every axis halves at once
    pernode = SEQUENCED["pernode-q"]
    constant = Problem(pernode.grid, pernode.F, -np.eye(4))
    assert constant.leaf_axes == (2,)
    assert _coarse_chain(constant) == [(16, 16, 8), (8, 8, 4), (4, 4, 4)]
    assert pernode.leaf_axes == ()
    assert _coarse_chain(pernode) == [(8, 8, 4, 4), (4, 4, 4, 4)]
    # a halving is taken only if the halved grid keeps the floor's nodes
    monkeypatch.setattr(cd, "SEQUENCE_MIN_NODES", 2 ** 14)
    assert first((128, 128)) is None
    assert first((256, 256)) == (128, 128)
    # the benchmark's shape: F varying along axes 0 and 1, Q = -4 I; the
    # leaf space is 20x20, and its halving 10x10 is under 2^14
    g = TorusGrid((20, 20, 20, 20))
    xs = meshes(g)
    basic = Problem(g, np.cos(xs[0]) * np.sin(xs[1]), -4.0 * np.eye(4))
    assert basic.leaf_axes == (2, 3)
    assert _coarse_chain(basic) == [(20, 20)]


def test_default_floor_chains():
    # no solve: the chains the default floor gives the benchmark's shapes
    # (the 4-axis shapes are in the table below)
    assert _coarse_chain(_varying_everywhere((512, 512))) == \
        [(256, 256), (128, 128), (64, 64), (32, 32)]


def _basic(dims, leaves):
    """A forcing varying along the axes not in ``leaves``, Q = -I."""
    g = TorusGrid(dims)
    F = np.zeros(dims)
    for ax in range(g.ndim):
        if ax not in leaves:
            F += np.cos(g.coords(ax)).reshape(
                [-1 if k == ax else 1 for k in range(g.ndim)])
    return Problem(g, F, -np.eye(g.ndim))


class _FirstStep(Exception):
    """Raised in place of the solve _attempt picks, naming it."""


def _first_step(problem, monkeypatch):
    """The solve _attempt starts a step from t = 0 with; no solve runs."""
    def sequenced(*args):
        raise _FirstStep("sequenced")

    def plain(*args, **kw):
        raise _FirstStep("plain")

    monkeypatch.setattr(cd, "_sequenced_solve", sequenced)
    monkeypatch.setattr(cd, "solve_at_t", plain)
    trivial = SolverState(phi=problem.grid.zeros(), b=1.0, t=0.0,
                          residual_norm=0.0, newton_iters=0)
    with pytest.raises(_FirstStep) as taken:
        cd._attempt(problem, trivial, 1.0, ContinuityConfig())
    return str(taken.value)


@pytest.mark.parametrize("dims, leaves, chain, first", [
    # all-axis 4-axis chains
    ((8,) * 4, (), [], "plain"),
    ((10,) * 4, (), [], "plain"),
    ((12,) * 4, (), [(6,) * 4], "sequenced"),
    ((16,) * 4, (), [(8,) * 4], "sequenced"),
    ((20,) * 4, (), [(10,) * 4], "sequenced"),
    ((24,) * 4, (), [(12,) * 4, (6,) * 4], "sequenced"),
    ((32,) * 4, (), [(16,) * 4, (8,) * 4], "sequenced"),
    # su3's datum: the leaf space only, whose halving 10x10 keeps 100
    # nodes
    ((20,) * 4, (2, 3), [(20, 20)], "sequenced"),
    ((44, 44), (), [], "plain"),
    # sequenced since the floor counts the coarse grid's nodes
    ((64, 64), (), [(32, 32)], "sequenced"),
    # the leaf space 64x64, then 32x32, which keeps 2^10 nodes
    ((64, 64, 16, 16), (2, 3), [(64, 64), (32, 32)], "sequenced"),
    # the gate counts every node of the halved grid, 8x8x8x5; the 3-axis
    # leaf space is taken whatever its size, and its halving 8x8x8 keeps
    # 512 nodes, under the floor
    ((16, 16, 16, 5), (3,), [(16, 16, 16)], "sequenced"),
    # a leaf space, but the fine grid halved, 6x6x4x4, is under the floor
    ((6, 6, 8, 8), (2, 3), [(6, 6)], "plain"),
    # short leaves go to the leaf space like any other
    ((32, 32, 5, 5), (2, 3), [(32, 32)], "sequenced"),
    ((44, 44, 4, 4), (2, 3), [(44, 44)], "sequenced"),
    # one leaf on two axes: a 1-axis leaf space, its halving 32 under the
    # floor
    ((64, 64), (1,), [(64,)], "sequenced"),
    # three leaves on four axes: a 1-axis leaf space
    ((16, 16, 16, 16), (1, 2, 3), [(16,)], "sequenced"),
    # every axis a leaf: no leaf space, so no chain
    ((16, 16, 16, 16), (0, 1, 2, 3), [], "plain"),
])
def test_floor_counts_the_coarse_grids_varying_nodes(dims, leaves, chain,
                                                     first, monkeypatch):
    problem = _basic(dims, leaves)
    assert problem.leaf_axes == leaves
    assert _coarse_chain(problem) == chain
    assert _first_step(problem, monkeypatch) == first


@pytest.mark.parametrize("m, k", [(20, 4), (16, 4), (18, 6), (12, 4), (10, 5),
                                  (9, None), (7, None), (6, None), (4, None)])
def test_leaf_axes_go_to_their_smallest_divisor_of_four_or_more(m, k):
    # k is m's smallest divisor with 4 <= k < m, or None.  No leaf axis
    # stops at it: on every layout the leaves go at once, to the leaf
    # space of the varying axes, whatever the leaves' lengths, m or k,
    # and even for a grid under the floor
    leaf_dims = lambda dims, leaves: _basic(dims, leaves).leaf_space.grid.dims
    for n in (m, k or m):
        assert leaf_dims((8, 8, 8, n), (3,)) == (8, 8, 8)
        assert leaf_dims((8, n, n, n), (1, 2, 3)) == (8,)
        assert leaf_dims((8, n), (1,)) == (8,)
        assert leaf_dims((8, 8, n, n), (2, 3)) == (8, 8)
        # no leaf space when every axis is a leaf
        assert _basic((n, n), (0, 1)).leaf_space is None


def _su3_shape():
    """su3-4d-20's shape: 20^4, F varying along axes 0 and 1, Q = -4 I."""
    g = TorusGrid((20, 20, 20, 20))
    xs = meshes(g)
    return Problem(g, 0.8 * np.cos(xs[0]) * np.sin(xs[1]), -4.0 * np.eye(4))


def test_basic_four_axis_data_take_one_leaf_level(monkeypatch):
    # su3-4d-20's shape: 20^4 -> its leaf space 20x20, which takes 5
    # Newton steps, and the fine grid starts within the Newton tolerance
    problem = _su3_shape()
    tol = 1e-10
    seen = []
    solve = cd.solve_at_t

    def recorded(p, t, **kw):
        state = solve(p, t, **kw)
        seen.append((p.grid.dims, state.newton_iters))
        return state

    monkeypatch.setattr(cd, "solve_at_t", recorded)
    state, trace = run_continuity(problem, ContinuityConfig(newton_tol=tol))
    assert seen == [((20, 20), 5), (problem.grid.dims, 0)]
    assert [(r.t, r.newton_iters) for r in trace.rows] == [(0.0, 0), (1.0, 0)]
    assert state.residual_norm <= tol
    report = basicness_check(problem, state, tol)
    assert report["passed"] and report["variation"] == 0.0


def test_basic_four_axis_data_build_no_four_axis_newton_matrix(monkeypatch):
    # no timing: every Newton step of su3-4d-20's solve and basicness
    # report runs on the 2-axis leaf space
    problem = _su3_shape()
    built = []
    operator = es.bordered_operator

    def counted(p, phi, t):
        built.append(p.grid.ndim)
        return operator(p, phi, t)

    monkeypatch.setattr(es, "bordered_operator", counted)
    state, _ = run_continuity(problem, ContinuityConfig(newton_tol=1e-10))
    assert basicness_check(problem, state, 1e-10)["passed"]
    assert built and 4 not in built


def test_basic_data_build_their_leaf_space_once(monkeypatch):
    # su3-4d-20's shape: the solve's leaf level and the basicness report's
    # re-solve share one 20x20 Problem
    problem = _su3_shape()
    built = []
    init = Problem.__init__

    def counted(self, grid, F, q):
        built.append(grid.dims)
        init(self, grid, F, q)

    monkeypatch.setattr(Problem, "__init__", counted)
    state, _ = run_continuity(problem, ContinuityConfig(newton_tol=1e-10))
    assert basicness_check(problem, state, 1e-10)["passed"]
    assert built == [(20, 20)]


def test_basicness_resolves_the_leaf_space_from_its_own_start(monkeypatch):
    # the report solves the shared leaf Problem from phi = 0 and b =
    # state.b, never from the sequenced solve's leaf-space state
    problem = _su3_shape()
    calls = []
    solve = cd.solve_at_t

    def recorded(p, t, **kw):
        out = solve(p, t, **kw)
        calls.append((p, kw, out))
        return out

    monkeypatch.setattr(cd, "solve_at_t", recorded)
    state, _ = run_continuity(problem, ContinuityConfig(newton_tol=1e-10))
    [(leaf, _, sequenced), (fine, _, _)] = calls
    assert leaf is problem.leaf_space and fine is problem
    calls.clear()
    assert basicness_check(problem, state, 1e-10)["passed"]
    [(p, kw, red)] = calls
    assert p is problem.leaf_space
    assert kw.get("phi0") is None and kw["b0"] == state.b
    assert red is not sequenced and red.newton_iters > 0
    assert not np.shares_memory(red.phi, sequenced.phi)


def test_a_grid_without_newton_steps_builds_no_laplacian_symbol(monkeypatch):
    # a basic 20x20x4x4 datum: its leaf space takes the Newton steps and
    # builds the preconditioner's symbol; the fine grid takes none
    g = TorusGrid((20, 20, 4, 4))
    xs = meshes(g)
    problem = Problem(g, 0.8 * np.cos(xs[0]) * np.sin(xs[1]), -4.0 * np.eye(4))
    levels = []
    solve = cd.solve_at_t

    def recorded(p, t, **kw):
        levels.append(p)
        return solve(p, t, **kw)

    monkeypatch.setattr(cd, "solve_at_t", recorded)
    state, _ = run_continuity(problem, ContinuityConfig(newton_tol=1e-10))
    assert levels[-1] is problem and state.newton_iters == 0
    assert "laplacian_symbol" not in vars(problem)
    leaf = levels[0]
    assert leaf.grid.dims == (20, 20) and "laplacian_symbol" in vars(leaf)


def test_leaf_space_solution_is_broadcast_along_leaves_anywhere(monkeypatch):
    # leaves (0, 2), not the trailing axes, unequal lengths, and a constant
    # Q that couples leaf and varying axes: the leaf space is axes 1 and
    # 3, 8x8 over lengths (2, 4), and its solution, broadcast along axes
    # 0 and 2, starts the fine grid within the Newton tolerance
    g = TorusGrid((16, 8, 16, 8), lengths=(1.0, 2.0, 3.0, 4.0))
    xs = meshes(g)
    F = 0.5 * np.sin(2.0 * np.pi * xs[1] / 2.0) \
        + 0.3 * np.cos(2.0 * np.pi * xs[3] / 4.0)
    q = -np.eye(4)
    q[0, 1] = q[1, 0] = 0.3
    q[2, 3] = q[3, 2] = 0.2
    q[1, 3] = q[3, 1] = 0.1
    problem = Problem(g, F, q)
    assert problem.leaf_axes == (0, 2)
    tol = 1e-10
    solves = []
    solve = cd.solve_at_t

    def recorded(p, t, phi0=None, **kw):
        start = None if phi0 is None else np.array(phi0)
        state = solve(p, t, phi0=phi0, **kw)
        solves.append((p.grid.dims, start, state))
        return state

    monkeypatch.setattr(cd, "solve_at_t", recorded)
    state, trace = run_continuity(problem, ContinuityConfig(newton_tol=tol))
    assert [dims for dims, _, _ in solves] == [(8, 8), g.dims]
    (_, _, leaf_level), (_, start, fine) = solves
    lifted = np.broadcast_to(leaf_level.phi[None, :, None, :], g.dims)
    assert np.array_equal(start, lifted)
    assert fine.newton_iters == 0
    assert [(r.t, r.newton_iters) for r in trace.rows] == [(0.0, 0), (1.0, 0)]
    assert state.residual_norm <= tol


def test_leaf_halvings_run_below_the_floor_only_under_a_fine_grid_above_it(
        monkeypatch):
    problem = SEQUENCED["leaf-4d"]
    leaf = problem.leaf_axes
    assert leaf == (2, 3)
    # the floor at the fine grid halved along every axis, 8x8x4x4
    halved = problem.grid.size // 16
    monkeypatch.setattr(cd, "SEQUENCE_MIN_NODES", halved)
    # the leaf space is taken by a grid under the floor, and not halved...
    assert problem.leaf_space.grid.dims == (16, 16)
    assert cd.coarsen(problem, (8, 8, 8, 8)).leaf_space.grid.dims == (8, 8)
    assert cd.coarse_dims(TorusGrid((16, 16))) is None
    cfg = ContinuityConfig(newton_tol=1e-10)
    seen = _coarse_solves(monkeypatch)
    run_continuity(problem, cfg)
    assert seen == [(16, 16), (16, 16, 8, 8)]
    # ...but a fine grid whose halving is under it starts from the
    # trivial pair
    monkeypatch.setattr(cd, "SEQUENCE_MIN_NODES", halved + 1)
    seen.clear()
    run_continuity(problem, cfg)
    assert seen == [(16, 16, 8, 8)]


def test_coarse_problem_is_injected():
    g = TorusGrid((16, 12, 8, 5), lengths=(1.0, 2.0, 3.0, 4.0))
    rng = np.random.default_rng(37)
    F = rng.standard_normal(g.dims)
    q = np.broadcast_to(-np.eye(4), g.dims + (4, 4)).copy()
    q[..., 1, 1] -= rng.uniform(0.0, 1.0, g.dims)
    coarse = cd.coarsen(Problem(g, F, q), (8, 6, 4, 5))
    assert coarse.grid.dims == (8, 6, 4, 5)
    assert coarse.grid.lengths == g.lengths
    assert np.array_equal(coarse.F, F[::2, ::2, ::2, :])
    assert np.array_equal(coarse.q, q[::2, ::2, ::2, :])
    constant = cd.coarsen(Problem(g, F, -2.0 * np.eye(4)), (8, 6, 4, 5))
    assert np.array_equal(constant.q, -2.0 * np.eye(4))


@pytest.mark.parametrize("where", ["fine", "coarse"])
def test_failed_sequenced_start_falls_back_to_the_plain_start(where, monkeypatch):
    problem = SEQUENCED["constant-q"]
    cfg = ContinuityConfig(newton_tol=1e-10)
    plain, plain_trace = _run(problem, cfg, 10 ** 9, monkeypatch)
    solve = cd.solve_at_t
    failed = []

    def failing(p, t, phi0=None, b0=1.0, **kw):
        fine = p.grid.dims == problem.grid.dims
        interpolated = phi0 is not None and np.any(phi0)
        if t > 0 and ((where == "fine" and fine and interpolated)
                      or (where == "coarse" and not fine)):
            failed.append(p.grid.dims)
            raise cd.MaxItersExceeded("injected")
        return solve(p, t, phi0=phi0, b0=b0, **kw)

    monkeypatch.setattr(cd, "solve_at_t", failing)
    state, trace = _run_sequenced("constant-q", cfg, monkeypatch)
    assert len(failed) == 1
    assert [r.t for r in trace.rows] == [r.t for r in plain_trace.rows] == [0.0, 1.0]
    # the fallback is the plain path's own call, so b is the same to the bit
    assert state.b == plain.b
    assert np.array_equal(state.phi, plain.phi)


def test_hard_sine_sequenced_at_the_default_floor(monkeypatch):
    # sine 6 with Q = -60 I: 64^2 is the smallest grid the floor
    # sequences, and 128^2 runs 128 -> 64 -> 32; its start, extrapolated
    # from 64^2 and 32^2, must reach the plain solution's b.
    # Its phi need not be the plain one to 100 tol: the discrete equation
    # has more than one root here, so the gap is bounded by a fifth of
    # the 64^2 -> 128^2 gap, the truncation error's size.  With two BLAS
    # threads the two starts end 1.2e-8 apart.  With one, the plain start
    # reaches another root, 4.7e-3 from the sequenced one, and this test
    # fails: GMRES's inner products, and so the root reached, depend on
    # the thread count.
    g = TorusGrid((128, 128))
    problem = Problem(g, sine_product_field(g, 6.0), -60.0 * np.eye(2))
    cfg = ContinuityConfig(newton_tol=1e-10)
    seen = _coarse_solves(monkeypatch)
    seq, seq_trace = run_continuity(problem, cfg)
    assert seen[:3] == [(32, 32), (64, 64), g.dims]
    assert seen.count(g.dims) == len(seq_trace.rows) - 1
    plain, plain_trace = _run(problem, cfg, g.size + 1, monkeypatch)
    assert [r.t for r in seq_trace.rows] == [r.t for r in plain_trace.rows]
    assert abs(seq.b - plain.b) <= 100 * cfg.newton_tol
    for state in (seq, plain):
        res = es.residual(problem, state.phi, state.b, 1.0)
        assert float(np.max(np.abs(res))) <= cfg.newton_tol
    coarse = es.solve_at_t(cd.coarsen(problem, (64, 64)), 1.0, tol=cfg.newton_tol)
    truncation = np.max(np.abs(cd.interpolate(coarse.phi, g.dims) - plain.phi))
    assert np.max(np.abs(seq.phi - plain.phi)) <= 0.2 * truncation


def test_sequenced_step_control_keeps_the_plain_schedule(monkeypatch):
    # the fine solve from the extrapolated start takes 1 Newton step
    # where the plain start takes 5; counted as easy, they would double
    # the step a row early.  The coarsest grid's plain start counts instead.
    g = TorusGrid((64, 64))
    problem = Problem(g, sine_product_field(g, 2.0), -16.0 * np.eye(2))
    cfg = ContinuityConfig(newton_tol=1e-6, t_step_init=0.25)
    _, plain = _run(problem, cfg, 10 ** 9, monkeypatch)
    monkeypatch.setattr(cd, "SEQUENCE_MIN_NODES", 2 ** 8)
    assert _coarse_chain(problem) == [(32, 32), (16, 16)]
    _, seq = run_continuity(problem, cfg)
    assert [r.t for r in seq.rows] == [r.t for r in plain.rows]
    assert seq.rows[1].newton_iters < plain.rows[1].newton_iters


def test_sequenced_reruns_are_bit_identical(monkeypatch):
    cfg = ContinuityConfig(newton_tol=1e-10)
    s1, tr1 = _run_sequenced("pernode-q", cfg, monkeypatch)
    s2, tr2 = _run_sequenced("pernode-q", cfg, monkeypatch)
    assert s1.phi.tobytes() == s2.phi.tobytes() and s1.b == s2.b
    strip = lambda tr: [line.rsplit(",", 1)[0] for line in tr.to_csv().splitlines()]
    assert strip(tr1) == strip(tr2)


def _fine_starts(monkeypatch, dims):
    """Record (phi0, b0, state) of every solve_at_t on dims given a phi0."""
    seen = []
    solve = cd.solve_at_t

    def recorded(problem, t, phi0=None, b0=1.0, **kw):
        start = None if phi0 is None else np.array(phi0)
        state = solve(problem, t, phi0=phi0, b0=b0, **kw)
        if start is not None and problem.grid.dims == dims:
            seen.append((start, b0, state))
        return state

    monkeypatch.setattr(cd, "solve_at_t", recorded)
    return seen


def test_extrapolated_start_saves_a_fine_newton_step(monkeypatch):
    # levels 256 -> 128 -> 64 -> 32 at the default floor: the 256^2
    # start extrapolates the 128^2, 64^2 and 32^2 solutions
    g = TorusGrid((256, 256))
    problem = Problem(g, bump(g), -np.eye(2))
    tol = 1e-10
    assert _coarse_chain(problem) == [(128, 128), (64, 64), (32, 32)]
    fine = _fine_starts(monkeypatch, g.dims)
    state, trace = run_continuity(problem, ContinuityConfig(newton_tol=tol))
    assert [r.t for r in trace.rows] == [0.0, 1.0]
    [(phi0, b0, extrapolated)] = fine
    # the plain start: the 128^2 solution, interpolated
    coarse = es.solve_at_t(cd.coarsen(problem, (128, 128)), 1.0, tol=tol)
    plain_phi0 = cd.interpolate(coarse.phi, g.dims)
    plain = es.solve_at_t(problem, 1.0, phi0=plain_phi0, b0=coarse.b, tol=tol)
    # each start's residual, of its zero-mean phi as solve_at_t forms it
    start = lambda phi, b: float(np.max(np.abs(
        es.residual(problem, phi - np.mean(phi), b, 1.0))))
    assert 100 * start(phi0, b0) <= start(plain_phi0, coarse.b)
    assert (extrapolated.newton_iters, plain.newton_iters) == (1, 2)
    assert abs(state.b - plain.b) <= 100 * tol
    assert np.max(np.abs(state.phi - plain.phi)) <= 100 * tol


def _roll_residual(problem, phi, b):
    """The t = 1 residual for Q = -I from np.roll stencils, no kernels."""
    h = problem.grid.spacings
    out = 1.0 - b * np.exp(problem.F)
    for ax, hx in enumerate(h):
        up, down = np.roll(phi, -1, ax), np.roll(phi, 1, ax)
        out += (up - 2.0 * phi + down) / (hx * hx)
        out -= ((up - down) / (2.0 * hx)) ** 2
    return out


def test_top_grid_of_the_512_bump_takes_no_newton_step(monkeypatch):
    # bump2d-512's problem: 512 -> 256 -> 128 -> 64 -> 32, and the 512^2
    # start, extrapolated from four levels, is within the Newton tolerance
    g = TorusGrid((512, 512))
    problem = Problem(g, bump(g), -np.eye(2))
    tol = 1e-10
    fine = _fine_starts(monkeypatch, g.dims)
    state, trace = run_continuity(problem, ContinuityConfig(newton_tol=tol))
    [(phi0, b0, first)] = fine
    assert float(np.max(np.abs(_roll_residual(problem, phi0, b0)))) <= tol
    assert first.newton_iters == 0
    assert [(r.t, r.newton_iters) for r in trace.rows] == [(0.0, 0), (1.0, 0)]
    assert state.residual_norm <= tol
    plain, _ = _run(problem, ContinuityConfig(newton_tol=tol), 10 ** 9,
                    monkeypatch)
    assert abs(state.b - plain.b) <= 100 * tol


def _lagrange_weights(k):
    """Weights of the values at s^2 = 4^i, i < k, for the value at 1/4.

    Each is the Lagrange basis polynomial in s^2, built by np.polynomial
    from its roots, evaluated at 1/4.
    """
    nodes = 4.0 ** np.arange(k)
    basis = [np.polynomial.Polynomial.fromroots(np.delete(nodes, i))
             for i in range(k)]
    return [p(0.25) / p(u) for p, u in zip(basis, nodes)]


@pytest.mark.parametrize("name, floor, levels", [
    # four varying levels under the top grid, so its start extrapolates
    # four (128^2 down to 16^2), the 128^2 start three and the 64^2 two
    ("bump-256", 2 ** 8, [(128, 128), (64, 64), (32, 32), (16, 16)]),
    ("pernode-q", 2 ** 8, [(8, 8, 4, 4), (4, 4, 4, 4)]),
    ("leaf-4d", 16, [(16, 16), (8, 8), (4, 4)]),
    ("leaf-2d-one", 16, [(64,), (32,), (16,)]),
    ("leaf-4d-one", 2 ** 6, [(16, 16, 16), (8, 8, 8), (4, 4, 4)]),
])
def test_extrapolated_start_matches_an_independent_oracle(name, floor, levels,
                                                          monkeypatch):
    # the chain rebuilt here from solve_at_t, Problem.leaf_space, coarsen
    # and interpolate only
    if name == "bump-256":
        g = TorusGrid((256, 256))
        problem = Problem(g, bump(g), -np.eye(2))
    else:
        problem = SEQUENCED[name]
    tol, t = 1e-10, 1.0
    chain = [problem]
    for dims in levels:
        chain.append(chain[-1].leaf_space if len(dims) < chain[-1].grid.ndim
                     else cd.coarsen(chain[-1], dims))
    # every varying level's solution, raised one interpolation at a time
    # to the grid of the level most recently solved, nearest first
    raised = []
    state = es.solve_at_t(chain[-1], t, tol=tol)
    for i in reversed(range(len(chain) - 1)):
        level = chain[i]
        raised = [(cd.interpolate(phi, state.phi.shape), b)
                  for phi, b in raised]
        raised.insert(0, (state.phi, state.b))
        if level.grid.ndim > state.phi.ndim:
            # the lift from the leaf space, broadcast along the leaves:
            # nothing is extrapolated across it
            leaves = tuple(None if ax in problem.leaf_axes else slice(None)
                           for ax in range(level.grid.ndim))
            phi0 = np.broadcast_to(state.phi[leaves], level.grid.dims)
            b0 = state.b
        else:
            if len(raised) == 1:
                phi_e, b0 = state.phi, state.b
            else:
                weights = _lagrange_weights(len(raised))
                phi_e = sum(w * phi for w, (phi, _) in zip(weights, raised))
                b0 = float(np.exp(sum(w * np.log(b)
                                      for w, (_, b) in zip(weights, raised))))
            phi0 = cd.interpolate(phi_e, level.grid.dims)
        if level is problem:
            break
        state = es.solve_at_t(level, t, phi0=phi0, b0=b0, tol=tol)

    monkeypatch.setattr(cd, "SEQUENCE_MIN_NODES", floor)
    assert _coarse_chain(problem) == levels
    fine = _fine_starts(monkeypatch, problem.grid.dims)
    run_continuity(problem, ContinuityConfig(newton_tol=tol))
    [(got_phi0, got_b0, _)] = fine
    np.testing.assert_allclose(got_phi0, phi0, rtol=1e-13,
                               atol=1e-13 * float(np.max(np.abs(phi0))))
    np.testing.assert_allclose(got_b0, b0, rtol=1e-13)


def test_leaf_halving_reproduces_the_fine_solution(monkeypatch):
    # 16x16x8x8 -> its leaf space 16x16 only: the leaf space's solution,
    # broadcast along the leaves, is the fine solution
    problem = SEQUENCED["leaf-4d"]
    tol = 1e-10
    reduced = problem.leaf_space
    assert reduced.grid.dims == (16, 16)
    leaf_level = es.solve_at_t(reduced, 1.0, tol=tol)
    lifted = np.broadcast_to(leaf_level.phi[:, :, None, None], problem.grid.dims)
    res = es.residual(problem, lifted, leaf_level.b, 1.0)
    assert float(np.max(np.abs(res))) <= 100 * tol
    # a floor the fine grid's halving 8x8x4x4 meets, but not the leaf
    # space's halving 8x8
    monkeypatch.setattr(cd, "SEQUENCE_MIN_NODES", problem.grid.size // 16)
    fine = _fine_starts(monkeypatch, problem.grid.dims)
    state, trace = run_continuity(problem, ContinuityConfig(newton_tol=tol))
    [(phi0, b0, first)] = fine
    assert np.array_equal(phi0, lifted) and b0 == leaf_level.b
    assert first.newton_iters == 0 and first.residual_norm <= tol
    assert [r.newton_iters for r in trace.rows] == [0, 0]
    assert state.residual_norm <= tol


def test_all_axis_bump_keeps_its_four_axis_chain(monkeypatch):
    # the CLI bump on 20^4 varies along every axis: no leaf, so the chain
    # is 20^4 -> 10^4 and the fine grid still takes 4-axis Newton steps
    g = TorusGrid((20, 20, 20, 20))
    problem = Problem(g, bump(g), -4.0 * np.eye(4))
    assert problem.leaf_axes == ()
    seen = _coarse_solves(monkeypatch)
    state, trace = run_continuity(problem, ContinuityConfig(newton_tol=1e-10))
    assert seen == [(10, 10, 10, 10), g.dims]
    assert [r.newton_iters for r in trace.rows] == [0, 3]
    assert state.residual_norm <= 1e-10


def test_single_coarse_level_keeps_the_interpolated_start(monkeypatch):
    # 64^2 -> 32^2 only at the default floor, as 20^4 -> 10^4 for a
    # forcing varying along all four axes: nothing to extrapolate with
    problem = SEQUENCED["constant-q"]
    cfg = ContinuityConfig(newton_tol=1e-10)
    assert _coarse_chain(problem) == [(32, 32)]
    coarse = es.solve_at_t(cd.coarsen(problem, (32, 32)), 1.0,
                           tol=cfg.newton_tol, max_iters=cfg.max_newton)
    fine = _fine_starts(monkeypatch, problem.grid.dims)
    run_continuity(problem, cfg)
    [(phi0, b0, _)] = fine
    assert np.array_equal(phi0, cd.interpolate(coarse.phi, problem.grid.dims))
    assert b0 == coarse.b


@pytest.mark.parametrize("b_c, b_cc", [(1.0, 6.0), (0.3, 1.8), (2.0, 0.5)])
def test_extrapolated_b_stays_positive(b_c, b_cc):
    # the linear form b_c + (b_c - b_cc) / 4 is negative once b_cc > 5 b_c,
    # and in the first two cases so are the three- and four-level forms
    # for b_ccc <= b_cc
    b0 = cd.extrapolated_b(b_c, b_cc)
    assert b0 > 0.0
    assert b0 == pytest.approx(b_c * np.exp((np.log(b_c) - np.log(b_cc)) / 4.0),
                               rel=1e-14)
    for b_ccc in (0.1 * b_cc, b_cc, 40.0 * b_cc):
        b0 = cd.extrapolated_b(b_c, b_cc, b_ccc)
        assert b0 > 0.0
        assert b0 == pytest.approx(
            b_c * (b_c / b_cc) ** (5.0 / 16.0) * (b_ccc / b_cc) ** (1.0 / 64.0),
            rel=1e-14)
        for b_4 in (0.1 * b_ccc, b_ccc, 40.0 * b_ccc):
            b0 = cd.extrapolated_b(b_c, b_cc, b_ccc, b_4)
            assert b0 > 0.0
            assert b0 == pytest.approx(
                b_c ** (85 / 64) * b_cc ** (-357 / 1024)
                * b_ccc ** (85 / 4096) * b_4 ** (-1 / 4096), rel=1e-14)


def _exact_weights(k):
    """The weights w with sum_i w_i (4^i)^m = (1/4)^m for m < k, in Fractions.

    Solved by Gaussian elimination on the Vandermonde system: level i has
    spacing 2^i s, and the value at spacing s/2 is wanted.
    """
    rows = [[Fraction(4) ** (i * m) for i in range(k)] + [Fraction(1, 4) ** m]
            for m in range(k)]
    for col in range(k):
        pivot = rows[col][col]
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(k):
            if r != col:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[k] for row in rows]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_richardson_is_exact_on_the_error_expansion(seed):
    # x_s = x + sum_{m < k} a_m s^(2m) sampled at s = h, 2h, ..., 2^(k-1) h
    # gives x_{h/2}, for k = 1 to 5 levels, with the exact weights
    rng = np.random.default_rng(seed)
    x, *terms = rng.standard_normal((6, 16, 16))
    h = float(rng.uniform(0.05, 0.5))
    level = lambda s, n: x + sum(a * s ** (2 * m)
                                 for m, a in enumerate(terms[:n], 1))
    for k in range(1, 6):
        unit = np.eye(k)
        weights = [cd.richardson(*unit[i]) for i in range(k)]
        assert weights == [float(w) for w in _exact_weights(k)]
        spacings = [2 ** i * h for i in range(k)]
        scale = max(float(np.max(np.abs(level(s, k)))) for s in spacings)
        got = cd.richardson(*(level(s, k - 1) for s in spacings))
        assert np.max(np.abs(got - level(h / 2, k - 1))) <= 1e-14 * scale
        # one term more than k levels cancel is left over
        got = cd.richardson(*(level(s, k) for s in spacings))
        assert np.max(np.abs(got - level(h / 2, k))) > 1e-3 * h ** (2 * k)


# -------------------------------------------------------- theorem ladder


@pytest.mark.parametrize("amplitude", [1.0, 2.0, 4.0, 6.0])
@pytest.mark.parametrize("forcing", ["sine", "bump"])
@pytest.mark.parametrize("a", [1.0, 4.0, 16.0, 60.0])
def test_theorem_ladder_reaches_t1(a, forcing, amplitude):
    # the reduced equation has a unique solution for every datum, so a
    # continuity failure on any rung is a solver defect
    g = TorusGrid((44, 44))
    F = sine_product_field(g, amplitude) if forcing == "sine" else bump(g, amplitude)
    tol = 1e-10
    problem = Problem(g, F, -a * np.eye(2))
    state, trace = run_continuity(problem, ContinuityConfig(newton_tol=tol))
    assert trace.rows[-1].t == 1.0 and state.residual_norm <= tol
    assert float(np.min(density(g, state.phi, problem.q))) > 0.0
    for row in trace.rows:
        e = np.exp(row.t * F)
        # max principle: min e^{-tF} <= b <= max e^{-tF}; the mean of the
        # equation with <Q grad, grad> <= 0: b mean(e^{tF}) <= 1
        assert float(np.min(1.0 / e)) <= row.b
        assert check_b_bound(row, F, 100 * tol)
        assert row.b * float(np.mean(e)) <= 1.0 + 100 * tol


@pytest.mark.parametrize("a", [4.0, 16.0], ids=["su3", "semidirect8"])
def test_b_converges_to_the_hopf_cole_oracle_at_second_order(a):
    # both discretizations converge to the continuum b at O(h^2), so
    # their gap falls 4x per halving of h unless the solver's b is off
    gaps = []
    for n in (32, 64):
        x = np.arange(n) * (2.0 * np.pi / n)
        F = np.sin(x)[:, None] * np.sin(x)[None, :]
        state, _ = run_continuity(Problem(TorusGrid((n, n)), F, -a * np.eye(2)),
                                  ContinuityConfig(newton_tol=1e-12))
        gaps.append(abs(state.b - oracles.hopf_cole_b(F, (2.0 * np.pi,) * 2, a)))
    assert 1.8 <= np.log2(gaps[0] / gaps[1]) <= 2.2


# ------------------------------------------------- one density per iterate


def _per_node_q(g):
    """-I with a diagonal that varies along every axis, off-diagonal 0.1."""
    q = np.broadcast_to(-np.eye(g.ndim), g.dims + (g.ndim, g.ndim)).copy()
    for ax, mesh in enumerate(meshes(g)):
        q[..., ax, ax] -= 0.5 * np.sin(mesh) ** 2
    q[..., 0, 1] = q[..., 1, 0] = 0.1
    return q


def _density_case(name):
    if name == "bump-2d-sequenced":    # 128 -> 64 -> 32, extrapolated
        g = TorusGrid((128, 128))
        return Problem(g, bump(g), -np.eye(2))
    if name == "bump-2d-per-node-q":
        g = TorusGrid((16, 16))
        return Problem(g, bump(g), _per_node_q(g))
    if name == "basic-4d-leaf-space":  # 16x16x4x4 -> its 16x16 leaf space
        g = TorusGrid((16, 16, 4, 4))
        xs = meshes(g)
        return Problem(g, 0.8 * np.cos(xs[0]) * np.sin(xs[1]), -np.eye(4))
    if name == "bump-4d-per-node-q":
        g = TorusGrid((8, 8, 8, 8))
        return Problem(g, bump(g, 0.5), _per_node_q(g))
    # sine 6 with Q = -60 I on 16^2: its Newton solve takes a halving
    g = TorusGrid((16, 16))
    return Problem(g, sine_product_field(g, 6.0), -60.0 * np.eye(2))


DENSITY_CASES = ["bump-2d-sequenced", "bump-2d-per-node-q", "basic-4d-leaf-space",
                 "bump-4d-per-node-q", "sine-16-halving"]


def _recorded_solves(monkeypatch):
    """Per solve_at_t call of the driver: its problem, the phi bytes of
    every density it evaluated, and the state it returned (None if it
    raised)."""
    solves = []
    real_density, real_solve = es.density, cd.solve_at_t

    def counted_density(grid, phi, q):
        solves[-1]["phis"].append(np.asarray(phi).tobytes())
        return real_density(grid, phi, q)

    def recorded_solve(problem, *args, **kwargs):
        solves.append({"problem": problem, "phis": [], "state": None})
        solves[-1]["state"] = real_solve(problem, *args, **kwargs)
        return solves[-1]["state"]

    monkeypatch.setattr(es, "density", counted_density)
    monkeypatch.setattr(cd, "solve_at_t", recorded_solve)
    return solves


@pytest.mark.parametrize("name", ["bump-2d-per-node-q", "sine-16-halving"])
def test_each_newton_iterate_has_its_density_evaluated_once(name, monkeypatch):
    # the start and every line-search trial once each: a Newton step
    # forms its starting residual from the state's density
    solves = _recorded_solves(monkeypatch)
    run_continuity(_density_case(name))
    assert solves
    halvings = 0
    for solve in solves:
        assert len(set(solve["phis"])) == len(solve["phis"])
        if solve["state"] is not None:
            # the start, then one trial per Newton step and per halving
            halvings += len(solve["phis"]) - 1 - solve["state"].newton_iters
    if name == "sine-16-halving":
        assert halvings > 0   # the line search ran, and its trials were counted


@pytest.mark.parametrize("name", DENSITY_CASES)
def test_every_returned_state_carries_the_density_of_its_phi(name, monkeypatch):
    solves = _recorded_solves(monkeypatch)
    problem = _density_case(name)
    state, _ = run_continuity(problem)
    monkeypatch.undo()
    returned = [(s["problem"], s["state"]) for s in solves if s["state"] is not None]
    assert returned[-1][0] is problem and returned[-1][1] is state
    if name in ("bump-2d-sequenced", "basic-4d-leaf-space"):
        assert len(returned) > 1   # the coarse levels' states are checked too
    for prob, st in returned:
        assert np.array_equal(st.density, density(prob.grid, st.phi, prob.q))
    # solve_at_t called directly: a plain start, and a converged one that
    # takes no Newton step
    for phi0, b0 in ((None, 1.0), (state.phi, state.b)):
        st = es.solve_at_t(problem, 1.0, phi0=phi0, b0=b0)
        assert np.array_equal(st.density, density(problem.grid, st.phi, problem.q))
    assert st.newton_iters == 0
