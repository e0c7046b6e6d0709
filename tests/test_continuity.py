"""Path-following, manufactured problems, traces, and basicness reports."""

import json

import numpy as np
import pytest

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
    assert state.converged


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
                           newton_iters=1, converged=True)

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
    # every attempt's first Newton step meets a GMRES that does not
    # converge, which costs that one call; the driver halves the step
    g = TorusGrid((64, 64))
    attempts, calls = [], [0]
    solve = cd.solve_at_t

    def counted_solve(problem, t, **kw):
        attempts.append(t)
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
    assert attempts == [0.5 ** k for k in range(7)]
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
    return {
        "constant-q": Problem(g2, bump(g2, 2.0), -4.0 * np.eye(2)),
        # basic data: F and Q constant along the leaf axes 2 and 3
        "leaf-4d": Problem(gl, np.exp(np.cos(xl[0] - 1.0) + np.cos(xl[1]) - 2.0),
                           -4.0 * np.eye(4)),
        "odd-axis": Problem(godd, np.roll(sine_product_field(godd, 2.0), 3, axis=1),
                            np.array([[-3.0, 1.0], [1.0, -2.0]])),
        "pernode-q": Problem(g4, 0.5 * np.sin(xs[0]) + 0.3 * np.cos(xs[1] - xs[3]), q4),
    }


SEQUENCED = _sequenced_cases()


def _run(problem, cfg, floor, monkeypatch):
    monkeypatch.setattr(cd, "SEQUENCE_MIN_NODES", floor)
    return run_continuity(problem, cfg)


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
    seq, seq_trace = _run(problem, cfg, 1024, monkeypatch)
    # at least one coarse solve ran, and no fallback to the plain start
    assert len(seen) >= 2 and seen.count(problem.grid.dims) == 1
    assert [r.t for r in seq_trace.rows] == [r.t for r in plain_trace.rows]
    assert seq.residual_norm <= cfg.newton_tol
    assert abs(seq.b - plain.b) <= 100 * cfg.newton_tol
    assert np.max(np.abs(seq.phi - plain.phi)) <= 100 * cfg.newton_tol
    assert seq_trace.rows[-1].newton_iters < plain_trace.rows[-1].newton_iters


def _coarse_chain(problem):
    """The dims coarse_dims gives level by level, from the fine problem's leaves."""
    leaf = problem.leaf_axes
    chain = []
    while (dims := cd.coarse_dims(problem.grid, leaf)) is not None:
        chain.append(dims)
        problem = cd.coarsen(problem, dims)
        assert problem.leaf_axes == leaf
    return chain


def _varying_everywhere(dims):
    rng = np.random.default_rng(41)
    return Problem(TorusGrid(dims), rng.standard_normal(dims), -np.eye(len(dims)))


def test_odd_and_short_axes_are_not_halved(monkeypatch):
    first = lambda dims: cd.coarse_dims(TorusGrid(dims),
                                        _varying_everywhere(dims).leaf_axes)
    monkeypatch.setattr(cd, "SEQUENCE_MIN_NODES", 16)
    assert first((64, 45)) == (32, 45)
    assert first((8, 6, 7, 9)) == (4, 6, 7, 9)
    assert first((6, 6, 5, 5)) is None
    # F constant along axis 2, which a constant Q makes a leaf, but a
    # per-node Q varying along it leaves no leaf: every axis halves at once
    pernode = SEQUENCED["pernode-q"]
    constant = Problem(pernode.grid, pernode.F, -np.eye(4))
    assert constant.leaf_axes == (2,)
    assert _coarse_chain(constant)[0] == (16, 16, 4, 8)
    assert pernode.leaf_axes == ()
    assert _coarse_chain(pernode) == [(8, 8, 4, 4), (4, 4, 4, 4)]
    monkeypatch.setattr(cd, "SEQUENCE_MIN_NODES", 2 ** 16)
    assert first((128, 128)) is None
    assert first((256, 256)) == (128, 128)
    # the benchmark's shape: F varying along axes 0 and 1, Q = -4 I; the
    # leaf axes go to 4 nodes in one level, the varying ones not below 2^16
    g = TorusGrid((20, 20, 20, 20))
    xs = meshes(g)
    basic = Problem(g, np.cos(xs[0]) * np.sin(xs[1]), -4.0 * np.eye(4))
    assert basic.leaf_axes == (2, 3)
    assert _coarse_chain(basic) == [(20, 20, 4, 4)]


@pytest.mark.parametrize("m, k", [(20, 4), (16, 4), (18, 6), (12, 4), (10, 5),
                                  (9, None), (7, None), (6, None), (4, None)])
def test_leaf_axes_go_to_their_smallest_divisor_of_four_or_more(m, k):
    # one level, whatever the grid's size; the varying axes of a grid
    # under the floor are kept
    got = cd.coarse_dims(TorusGrid((8, 8, m, m)), (2, 3))
    assert got == (None if k is None else (8, 8, k, k))
    assert cd.coarse_dims(TorusGrid((8, m)), (1,)) == \
        (None if k is None else (8, k))


def test_basic_four_axis_data_take_one_leaf_level(monkeypatch):
    # su3-4d-20's shape: 20^4 -> 20x20x4x4, and the fine grid starts
    # within the Newton tolerance
    g = TorusGrid((20, 20, 20, 20))
    xs = meshes(g)
    problem = Problem(g, 0.8 * np.cos(xs[0]) * np.sin(xs[1]), -4.0 * np.eye(4))
    tol = 1e-10
    seen = _coarse_solves(monkeypatch)
    state, trace = run_continuity(problem, ContinuityConfig(newton_tol=tol))
    assert seen == [(20, 20, 4, 4), g.dims]
    assert [(r.t, r.newton_iters) for r in trace.rows] == [(0.0, 0), (1.0, 0)]
    assert state.residual_norm <= tol
    report = basicness_check(problem, state, tol)
    assert report["passed"] and report["variation"] == 0.0


def test_leaf_halvings_run_below_the_floor_only_under_a_fine_grid_above_it(
        monkeypatch):
    problem = SEQUENCED["leaf-4d"]
    leaf = problem.leaf_axes
    assert leaf == (2, 3)
    monkeypatch.setattr(cd, "SEQUENCE_MIN_NODES", problem.grid.size)
    # the leaf halving is taken by a grid under the floor...
    assert cd.coarse_dims(TorusGrid((16, 16, 4, 4)), leaf) is None
    assert cd.coarse_dims(TorusGrid((16, 16, 8, 8)), leaf) == (16, 16, 4, 4)
    assert cd.coarse_dims(TorusGrid((8, 8, 8, 8)), leaf) == (8, 8, 4, 4)
    cfg = ContinuityConfig(newton_tol=1e-10)
    seen = _coarse_solves(monkeypatch)
    run_continuity(problem, cfg)
    assert seen == [(16, 16, 4, 4), (16, 16, 8, 8)]
    # ...but a fine grid under the floor starts from the trivial pair
    monkeypatch.setattr(cd, "SEQUENCE_MIN_NODES", problem.grid.size + 1)
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
    state, trace = _run(problem, cfg, 1024, monkeypatch)
    assert len(failed) == 1
    assert [r.t for r in trace.rows] == [r.t for r in plain_trace.rows] == [0.0, 1.0]
    # the fallback is the plain path's own call, so b is the same to the bit
    assert state.b == plain.b
    assert np.array_equal(state.phi, plain.phi)


def test_sequenced_step_control_keeps_the_plain_schedule(monkeypatch):
    # the fine solve from the extrapolated start takes 1 Newton step
    # where the plain start takes 5; counted as easy, they would double
    # the step a row early.  The coarsest grid's plain start counts instead.
    g = TorusGrid((64, 64))
    problem = Problem(g, sine_product_field(g, 2.0), -16.0 * np.eye(2))
    cfg = ContinuityConfig(newton_tol=1e-6, t_step_init=0.25)
    _, plain = _run(problem, cfg, 10 ** 9, monkeypatch)
    _, seq = _run(problem, cfg, 1024, monkeypatch)
    assert [r.t for r in seq.rows] == [r.t for r in plain.rows]
    assert seq.rows[1].newton_iters < plain.rows[1].newton_iters


def test_sequenced_reruns_are_bit_identical(monkeypatch):
    problem = SEQUENCED["pernode-q"]
    cfg = ContinuityConfig(newton_tol=1e-10)
    s1, tr1 = _run(problem, cfg, 1024, monkeypatch)
    s2, tr2 = _run(problem, cfg, 1024, monkeypatch)
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
    # levels 256 -> 128 -> 64 -> 32: the 256^2 start extrapolates the
    # 128^2 and 64^2 solutions
    g = TorusGrid((256, 256))
    problem = Problem(g, bump(g), -np.eye(2))
    tol = 1e-10
    monkeypatch.setattr(cd, "SEQUENCE_MIN_NODES", 2 ** 12)
    fine = _fine_starts(monkeypatch, g.dims)
    state, trace = run_continuity(problem, ContinuityConfig(newton_tol=tol))
    assert [r.t for r in trace.rows] == [0.0, 1.0]
    [(_, _, extrapolated)] = fine
    # the plain start: the 128^2 solution, interpolated
    coarse = es.solve_at_t(cd.coarsen(problem, (128, 128)), 1.0, tol=tol)
    plain = es.solve_at_t(problem, 1.0, phi0=cd.interpolate(coarse.phi, g.dims),
                          b0=coarse.b, tol=tol)
    assert 100 * extrapolated.res_history[0] <= plain.res_history[0]
    assert (extrapolated.newton_iters, plain.newton_iters) == (1, 2)
    assert abs(state.b - plain.b) <= 100 * tol
    assert np.max(np.abs(state.phi - plain.phi)) <= 100 * tol


@pytest.mark.parametrize("name, floor, levels", [
    ("bump-256", 2 ** 12, [(128, 128), (64, 64), (32, 32)]),
    ("pernode-q", 1024, [(8, 8, 4, 4), (4, 4, 4, 4)]),
    ("leaf-4d", 1024, [(16, 16, 4, 4), (8, 8, 4, 4), (4, 4, 4, 4)]),
])
def test_extrapolated_start_matches_an_independent_oracle(name, floor, levels,
                                                          monkeypatch):
    # the chain rebuilt here from solve_at_t, coarsen and interpolate only
    if name == "bump-256":
        g = TorusGrid((256, 256))
        problem = Problem(g, bump(g), -np.eye(2))
    else:
        problem = SEQUENCED[name]
    # leaf-4d's first halving is of its leaf axes 2 and 3: nothing is
    # extrapolated across it
    leaf_halvings = 1 if name == "leaf-4d" else 0
    tol, t = 1e-10, 1.0
    chain = [problem]
    for dims in levels:
        chain.append(cd.coarsen(chain[-1], dims))
    coarsest = es.solve_at_t(chain[-1], t, tol=tol)
    first = es.solve_at_t(chain[-2], t, b0=coarsest.b, tol=tol,
                          phi0=cd.interpolate(coarsest.phi, chain[-2].grid.dims))
    solutions = [coarsest, first]
    for i in reversed(range(len(chain) - 2)):
        level = chain[i]
        phi_cc, phi_c = solutions[-2].phi, solutions[-1].phi
        b_cc, b_c = solutions[-2].b, solutions[-1].b
        if i < leaf_halvings:
            phi_e, b0 = phi_c, b_c
        else:
            phi_e = phi_c + (phi_c - cd.interpolate(phi_cc, phi_c.shape)) / 4.0
            b0 = float(np.exp(np.log(b_c) + (np.log(b_c) - np.log(b_cc)) / 4.0))
        phi0 = cd.interpolate(phi_e, level.grid.dims)
        if level is problem:
            break
        solutions.append(es.solve_at_t(level, t, phi0=phi0, b0=b0, tol=tol))

    monkeypatch.setattr(cd, "SEQUENCE_MIN_NODES", floor)
    fine = _fine_starts(monkeypatch, problem.grid.dims)
    run_continuity(problem, ContinuityConfig(newton_tol=tol))
    [(got_phi0, got_b0, _)] = fine
    np.testing.assert_allclose(got_phi0, phi0, rtol=1e-13,
                               atol=1e-13 * float(np.max(np.abs(phi0))))
    np.testing.assert_allclose(got_b0, b0, rtol=1e-13)


def test_leaf_halving_reproduces_the_fine_solution(monkeypatch):
    # 16x16x8x8 -> 16x16x4x4 only: the halved problem has the fine solution
    problem = SEQUENCED["leaf-4d"]
    tol = 1e-10
    leaf_level = es.solve_at_t(cd.coarsen(problem, (16, 16, 4, 4)), 1.0, tol=tol)
    lifted = cd.interpolate(leaf_level.phi, problem.grid.dims)
    res = es.residual(problem, lifted, leaf_level.b, 1.0)
    assert float(np.max(np.abs(res))) <= 100 * tol
    monkeypatch.setattr(cd, "SEQUENCE_MIN_NODES", problem.grid.size)
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
    # 64^2 -> 32^2 only, as 20^4 -> 10^4 for a forcing varying along all
    # four axes: nothing to extrapolate with
    problem = SEQUENCED["constant-q"]
    cfg = ContinuityConfig(newton_tol=1e-10)
    coarse = es.solve_at_t(cd.coarsen(problem, (32, 32)), 1.0,
                           tol=cfg.newton_tol, max_iters=cfg.max_newton)
    monkeypatch.setattr(cd, "SEQUENCE_MIN_NODES", 2 ** 11)
    fine = _fine_starts(monkeypatch, problem.grid.dims)
    run_continuity(problem, cfg)
    [(phi0, b0, _)] = fine
    assert np.array_equal(phi0, cd.interpolate(coarse.phi, problem.grid.dims))
    assert b0 == coarse.b


@pytest.mark.parametrize("b_c, b_cc", [(1.0, 6.0), (0.3, 1.8), (2.0, 0.5)])
def test_extrapolated_b_stays_positive(b_c, b_cc):
    # the linear form b_c + (b_c - b_cc) / 4 is negative once b_cc > 5 b_c
    b0 = cd.extrapolated_b(b_c, b_cc)
    assert b0 > 0.0
    assert b0 == pytest.approx(b_c * np.exp((np.log(b_c) - np.log(b_cc)) / 4.0),
                               rel=1e-14)


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
    assert trace.rows[-1].t == 1.0 and state.converged
    assert state.residual_norm <= tol
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
