"""Acceptance suite: one test per shipped criterion, one printed line each."""

import time

import numpy as np

import oracles
from hktsolve import algebras, cli
from hktsolve.continuity_driver import (
    ContinuityConfig,
    basicness_check,
    convergence_study,
    manufactured_problem,
    run_continuity,
    sine_product_field,
)
from hktsolve.elliptic_solver import (
    Problem,
    TorusGrid,
    check_b_bound,
    residual,
    solve_at_t,
)
from hktsolve.errors import HktError
from hktsolve.lie_frame import (
    build_complex_frame,
    nijenhuis_pair_identities,
    relabel_spec,
)
from conftest import ALGEBRA_BUILDS, bordered_field_block, meshes


def bump(grid, amplitude=1.0, width=1.0):
    total = np.zeros(grid.dims)
    for ax, mesh in enumerate(meshes(grid)):
        total += np.cos(2.0 * np.pi * mesh / grid.lengths[ax]) - 1.0
    return amplitude * np.exp(total / width)


def test_golden_algebra_pipeline(criterion):
    started = time.perf_counter()
    try:
        cli.verify_su3()
        ok = True
        detail = ""
    except HktError as exc:
        ok = False
        detail = str(exc)
    elapsed = time.perf_counter() - started
    criterion(1, "exact pipeline reproduces every golden value for the "
              "built-in algebra", ok and elapsed < 1.0,
              detail or "%.2fs" % elapsed)


def test_reduction_matches_independent_oracle(criterion, operators, frames, rng):
    started = time.perf_counter()
    worst = 0.0
    count = 0
    for name in sorted(ALGEBRA_BUILDS):
        op, frame = operators[name], frames[name]
        for _ in range(25):
            jets = oracles.random_jets(op, rng, realistic=True)
            got = oracles.p_eval(op.ratio_poly, jets)
            want = oracles.theorem_value_oracle(frame, jets)
            rel = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, rel)
            count += 1
    elapsed = time.perf_counter() - started
    criterion(2, "reduced polynomial equals the float bracket oracle on "
              "random jets", worst <= 1e-10 and count == 100 and elapsed < 10.0,
              "worst rel %.2e over %d jets, %.2fs" % (worst, count, elapsed))


def test_bracket_pair_identities(criterion):
    spec = relabel_spec(algebras.su3(), (3, 4, 1, 2))
    frame = build_complex_frame(spec)
    vals = nijenhuis_pair_identities(frame, (1, 2))
    criterion(3, "the four bracket coefficient identities vanish exactly",
              all(v == 0 for v in vals), "values %s" % (vals,))


def test_poisson_limit_constants(criterion):
    started = time.perf_counter()
    g = TorusGrid((64, 64))
    xs, ys = meshes(g)
    fields = [
        bump(g),
        0.4 * np.sin(xs) + 0.3 * np.cos(2.0 * ys),
        bump(g, amplitude=-0.7, width=2.0) + 0.2 * np.sin(ys),
    ]
    worst_b = worst_res = 0.0
    for F in fields:
        st = solve_at_t(Problem(g, F, np.zeros((2, 2))), 1.0, tol=1e-10)
        want = g.size / float(np.sum(np.exp(F)))
        worst_b = max(worst_b, abs(st.b - want))
        worst_res = max(worst_res, st.residual_norm)
    elapsed = time.perf_counter() - started
    criterion(4, "vanishing quadratic term reproduces the mean-compatibility "
              "constant", worst_b <= 1e-8 and worst_res <= 1e-9
              and elapsed < 30.0,
              "|b gap| %.2e, residual %.2e, %.2fs" % (worst_b, worst_res, elapsed))


def test_manufactured_recovery(criterion):
    started = time.perf_counter()
    g = TorusGrid((64, 64))
    q = -np.eye(2)
    phi_star = sine_product_field(g, 0.1)
    F = manufactured_problem(g, phi_star, q)
    cfg = ContinuityConfig(newton_tol=1e-8)
    state, _ = run_continuity(Problem(g, F, q), cfg)
    err_phi = float(np.max(np.abs(state.phi - phi_star)))
    err_b = abs(state.b - 1.0)
    elapsed = time.perf_counter() - started
    criterion(5, "manufactured solution recovered on the 64x64 grid",
              err_phi <= 5e-7 and err_b <= 5e-7 and elapsed < 120.0,
              "|phi err| %.2e, |b err| %.2e, %.2fs" % (err_phi, err_b, elapsed))


def test_second_order_convergence(criterion):
    oks, details = [], []
    for qdiag in (0.0, -1.0):
        rows = convergence_study((32, 64, 128), amplitude=0.1, qdiag=qdiag)
        orders = [row["order"] for row in rows if "order" in row]
        oks.append(all(1.7 <= o <= 2.3 for o in orders))
        details.append("qdiag %g orders %s" % (
            qdiag, ["%.3f" % o for o in orders]))
    criterion(6, "grid refinement shows second-order accuracy",
              all(oks), "; ".join(details))


def test_solution_uniqueness(criterion):
    g = TorusGrid((64, 64))
    problem = Problem(g, bump(g), -np.eye(2))
    a = solve_at_t(problem, 1.0, tol=1e-10)
    b = solve_at_t(problem, 1.0, phi0=sine_product_field(g, 0.05), b0=1.5,
                   tol=1e-10)
    dphi = float(np.max(np.abs(a.phi - b.phi)))
    db = abs(a.b - b.b)
    criterion(7, "two initializations converge to the same pair",
              dphi <= 1e-6 and db <= 1e-6,
              "|dphi| %.2e, |db| %.2e" % (dphi, db))


def test_constant_bound_along_path(criterion):
    g = TorusGrid((64, 64))
    F = bump(g)
    cfg = ContinuityConfig(t_step_init=0.25)
    _, trace = run_continuity(Problem(g, F, -np.eye(2)), cfg)
    ok = all(check_b_bound(row, F, 1e-7) for row in trace.rows)
    criterion(8, "the constant stays below max exp(-tF) at every trace row",
              ok and len(trace.rows) >= 4, "%d rows checked" % len(trace.rows))


def test_basic_solution_descends(criterion, operators):
    started = time.perf_counter()
    g = TorusGrid((16, 16, 16, 16))
    xs = meshes(g)
    F = 0.5 * np.sin(xs[0]) + 0.25 * np.cos(xs[1])
    q = operators["su3"].real_quadratic_matrix()
    cfg = ContinuityConfig(newton_tol=1e-8)
    problem = Problem(g, F, q)
    state, _ = run_continuity(problem, cfg)
    report = basicness_check(problem, state, cfg.newton_tol)
    elapsed = time.perf_counter() - started
    ok = (report["applicable"] and report["invariant_axes"] == [2, 3]
          and report["variation"] <= 1e-6
          and report["reduced_match"] is not None
          and report["reduced_match"] <= 1e-6 and report["passed"])
    criterion(9, "solution is constant along invariant axes and lifts from "
              "the reduced grid", ok,
              "variation %.2e, lift gap %.2e, %.2fs"
              % (report.get("variation", -1.0),
                 report.get("reduced_match", -1.0), elapsed))


def test_jacobian_consistency(criterion, rng):
    g = TorusGrid((16, 16))
    worst = 0.0
    for _ in range(50):
        phi = 0.3 * rng.standard_normal(g.dims)
        F = rng.standard_normal(g.dims)
        a = rng.standard_normal((2, 2))
        q = -(a @ a.T)
        b = 0.5 + rng.random()
        t = rng.random()
        eta = rng.standard_normal(g.dims)
        c = float(rng.standard_normal())

        problem = Problem(g, F, q)

        def res_fn(p, bb):
            return residual(problem, p, bb, t)

        fd = oracles.fd_directional_residual(res_fn, phi, b, eta, c, 1e-6)
        lin = bordered_field_block(problem, phi, t, eta, c)
        worst = max(worst, float(np.max(np.abs(fd - lin)))
                    / max(1.0, float(np.max(np.abs(fd)))))
    criterion(10, "Newton operator agrees with central finite differences "
              "on random states", worst <= 1e-6, "worst rel %.2e" % worst)
