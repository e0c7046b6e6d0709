"""Path-following, manufactured problems, traces, and basicness reports."""

import json

import numpy as np
import pytest

import hktsolve.continuity_driver as cd
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
from hktsolve.elliptic_solver import Problem, SolverState, TorusGrid
from hktsolve.errors import (
    ConfigError,
    NonBasicResidue,
    NonpositiveDensity,
    ShapeMismatch,
    StepUnderflow,
)


def bump(grid, amplitude=1.0, width=1.0):
    total = np.zeros(grid.dims)
    for ax, mesh in enumerate(grid.meshes()):
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
    assert attempts == [0.0, 1.0, 0.5, 0.25, 0.5, 1.0, 0.75, 1.0]
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
    xs = g.meshes()
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
    F = sum(0.1 * np.sin(m) for m in g.meshes())
    report = basicness_check(Problem(g, F, -np.eye(4)), SolverState(
        phi=g.zeros(), b=1.0, t=1.0, residual_norm=0.0, newton_iters=0), 1e-10)
    assert not report["applicable"]
    assert report["invariant_axes"] == []


def test_basicness_strict_mode_raises():
    g = TorusGrid((4, 4, 4, 4))
    xs = g.meshes()
    F = 0.1 * np.sin(xs[0]) + 0.1 * np.sin(xs[1])
    bad = SolverState(phi=np.sin(xs[3]), b=1.0, t=1.0, residual_norm=0.0,
                      newton_iters=0)
    problem = Problem(g, F, -np.eye(4))
    report = basicness_check(problem, bad, 1e-10)
    assert not report["passed"]
    with pytest.raises(NonBasicResidue):
        basicness_check(problem, bad, 1e-10, strict=True)


def test_basicness_reduces_a_per_node_q():
    # F and Q both vary along axes 0 and 1 only, so the solution must be
    # the lift of the solve on the reduced 8x8 grid with Q's 2x2 block
    g = TorusGrid((8, 8, 4, 4))
    xs = g.meshes()
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
    xs = g.meshes()
    F = 0.1 * np.sin(xs[0]) + 0.1 * np.sin(xs[1])
    q = np.broadcast_to(-np.eye(4), g.dims + (4, 4)).copy()
    q[..., 2, 2] = -1.0 - 0.1 * np.sin(xs[2]) ** 2  # q varies along axis 2
    state = SolverState(phi=g.zeros(), b=1.0, t=1.0, residual_norm=0.0,
                        newton_iters=0)
    report = basicness_check(Problem(g, F, q), state, 1e-10)
    assert report["invariant_axes"] == [3]
