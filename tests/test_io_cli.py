"""Field file format round trips and end-to-end command line runs."""

import json
import math
import os
import re
import shlex
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hktsolve import cli, gridio
from hktsolve.elliptic_solver import Problem, TorusGrid
from hktsolve.errors import ConfigError, HktError, ShapeMismatch

import oracles
from conftest import meshes

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -------------------------------------------------------------- gridio


def test_scalar_field_round_trip(tmp_path):
    g = TorusGrid((8, 16), lengths=(2.0, 3.0))
    rng = np.random.default_rng(21)
    arr = rng.standard_normal(g.dims)
    path = tmp_path / "f.field"
    gridio.write_field(path, arr, g.lengths)
    back, lengths = gridio.read_field(path)
    assert lengths == (2.0, 3.0)
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)


def test_four_axis_and_channel_round_trip(tmp_path):
    g = TorusGrid((4, 4, 4, 4))
    rng = np.random.default_rng(22)
    arr = rng.standard_normal(g.dims + (10,))
    path = tmp_path / "q.field"
    gridio.write_field(path, arr, g.lengths)
    back, lengths = gridio.read_field(path)
    assert back.shape == g.dims + (10,)
    assert np.array_equal(back, arr)
    assert lengths == g.lengths


def test_write_field_rejects_bad_rank(tmp_path):
    # rank nd+1 is a channel field; rank nd+2 fits nothing
    with pytest.raises(ShapeMismatch):
        gridio.write_field(tmp_path / "x.field", np.zeros((4, 4, 4, 4)),
                           (1.0, 1.0))


def test_read_field_error_paths(tmp_path):
    no_newline = tmp_path / "a.field"
    no_newline.write_bytes(b"{}")
    with pytest.raises(ConfigError):
        gridio.read_field(no_newline)

    bad_json = tmp_path / "b.field"
    bad_json.write_bytes(b"not json\n")
    with pytest.raises(ConfigError):
        gridio.read_field(bad_json)

    missing_key = tmp_path / "c.field"
    missing_key.write_bytes(b'{"dims": [4, 4]}\n')
    with pytest.raises(ConfigError):
        gridio.read_field(missing_key)

    truncated = tmp_path / "d.field"
    header = b'{"dims": [4, 4], "lengths": [1.0, 1.0], "channels": 0}\n'
    truncated.write_bytes(header + b"\x00" * 17)
    with pytest.raises(ShapeMismatch):
        gridio.read_field(truncated)


def _traced_peak(call):
    """call's result and the peak bytes it allocated, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape, axes", [((256, 256), 2), ((16, 16, 16, 16, 3), 4)])
def test_field_files_make_no_payload_copy(tmp_path, shape, axes):
    # the written array goes to the file as it is, and the file's payload
    # straight into the returned array: a copy would cost a whole payload
    arr = np.random.default_rng(24).standard_normal(shape)
    path = tmp_path / "f.field"
    lengths = (1.0,) * axes
    _, peak = _traced_peak(lambda: gridio.write_field(path, arr, lengths))
    assert peak <= arr.nbytes // 16
    (back, _), peak = _traced_peak(lambda: gridio.read_field(path))
    assert np.array_equal(back, arr)
    assert peak <= back.nbytes + arr.nbytes // 16


@pytest.mark.parametrize("forcing", ["file", "bump"])
def test_load_run_config_holds_one_forcing_array(tmp_path, forcing):
    # su3-4d-20's config: the Problem holds the F that was read (or built)
    # as it is, frozen, with no second copy while it loads
    g = TorusGrid((20,) * 4)
    xs = g.axis_coords()
    F = np.exp(np.cos(xs[0]) - 1.0 + np.cos(xs[1]) - 1.0) + g.zeros()
    gridio.write_field(tmp_path / "forcing.field", F, g.lengths)
    spec = ({"file": str(tmp_path / "forcing.field")} if forcing == "file"
            else {"type": "bump", "amplitude": 1.0, "width": 1.0})
    cfg = {"grid": {"dims": list(g.dims)}, "forcing": spec,
           "q": {"matrix": (-4.0 * np.eye(4)).tolist()},
           "continuity": {"newton_tol": 1e-10}}
    path = tmp_path / "solve.json"
    path.write_text(json.dumps(cfg))
    cli._load_run_config(str(path))   # first-call imports and caches
    (_, problem, _), peak = _traced_peak(lambda: cli._load_run_config(str(path)))
    # the bump is built through two grid-sized temporaries beside F; the
    # finiteness check's boolean mask is an eighth of an array
    arrays = 1.0 if forcing == "file" else 3.0
    print("load peak %.2f grid arrays" % (peak / F.nbytes))
    assert peak <= (arrays + 0.2) * F.nbytes
    if forcing == "file":
        assert np.array_equal(problem.F, F)
    assert not problem.F.flags.writeable
    with pytest.raises(ValueError):
        problem.F.flags.writeable = True


def test_pack_unpack_symmetric_round_trip():
    rng = np.random.default_rng(23)
    raw = rng.standard_normal((4, 4, 4, 4, 4, 4))
    sym = raw + np.swapaxes(raw, -1, -2)
    packed = oracles.pack_symmetric(sym)
    assert packed.shape[-1] == 10
    assert np.allclose(gridio.unpack_symmetric(packed, 4), sym, atol=1e-14)
    with pytest.raises(ShapeMismatch):
        gridio.unpack_symmetric(packed, 3)


def test_load_qspec_variants(tmp_path):
    g = TorusGrid((8, 8))
    q = gridio.load_qspec({"matrix": [[-1.0, 0.0], [0.0, -2.0]]}, g)
    assert q.shape == (2, 2) and q[1, 1] == -2.0

    field = np.broadcast_to(np.array([-1.0, 0.2, -1.0]), g.dims + (3,))
    path = tmp_path / "q.field"
    gridio.write_field(path, field, g.lengths)
    q = gridio.load_qspec({"file": str(path)}, g)
    assert q.shape == g.dims + (2, 2)
    assert q[3, 3, 0, 1] == 0.2

    # load_qspec only parses; the Problem checks shape and definiteness
    q = gridio.load_qspec({"matrix": [[1.0, 0.0], [0.0, 1.0]]}, g)
    with pytest.raises(ConfigError):
        Problem(g, g.zeros(), q)
    q = gridio.load_qspec({"matrix": [[-1.0]]}, g)
    with pytest.raises(ShapeMismatch):
        Problem(g, g.zeros(), q)
    with pytest.raises(ConfigError):
        gridio.load_qspec({"neither": 1}, g)
    # only the two documented forms: a bare path or nested list is refused
    for bare in (5, str(path), [[-1.0, 0.0], [0.0, -1.0]]):
        with pytest.raises(ConfigError):
            gridio.load_qspec(bare, g)

    small = TorusGrid((4, 4))
    q = gridio.load_qspec({"file": str(path)}, small)
    with pytest.raises(ShapeMismatch):
        Problem(small, small.zeros(), q)


# ----------------------------------------------------------------- cli


def test_cli_verify_su3(capsys):
    assert cli.main(["verify-su3"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok: ") == 10
    assert "all golden identities verified" in out


def test_cli_verify_su3_perturbed(capsys):
    assert cli.main(["verify-su3", "--perturb"]) == 1
    err = capsys.readouterr().err
    assert "JacobiViolation" in err


def test_cli_emit_forms(tmp_path, capsys):
    path = tmp_path / "form.txt"
    assert cli.main(["verify-su3", "--emit-forms", str(path)]) == 0
    assert path.read_text() == "\n".join([
        "[Z1^Z2] (1)",
        "[Z1^Z3] (-2)*g4'",
        "[Z1^Z4] (2)*g3'",
        "[Z2^Z3] (-2)*g3",
        "[Z2^Z4] (-2)*g4",
        "[Z3^Z4] (1) + h(3,3') + h(4,4')",
    ]) + "\n"


def test_cli_verify_algebra_with_params(capsys):
    rc = cli.main(["verify-algebra", "--name", "semidirect8",
                   "--param", "c=2", "--param", "w=1/2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "negative semi-definite" in out


def test_cli_verify_algebra_prints_non_integral_coefficients(capsys):
    # c = 1/3 puts thirds and ninths through QQi's printed form
    rc = cli.main(["verify-algebra", "--name", "semidirect8",
                   "--param", "c=1/3", "--param", "w=3/2"])
    assert rc == 0
    assert capsys.readouterr().out == "\n".join([
        "ok: Jacobi identity (exact)",
        "ok: hypercomplex pair integrable",
        "ok: annihilated set (1, 2) is foliating",
        "ok: reduction has the advertised normal form",
        "transverse pair: (3, 4); annihilated: [1, 2]",
        "ratio = (1) + h(3,3') + h(4,4') + (-4/9)*g3*g3' + (-4/9)*g4*g4'",
        "P_1 = (2/3)*g4'",
        "P_2 = (2/3)*g3",
        "Q_1 = (-2/3)*g3'",
        "Q_2 = (2/3)*g4",
        "real quadratic form eigenvalues: [-0.444444 -0.444444 -0.444444 -0.444444]",
        "ok: quadratic form negative semi-definite",
    ]) + "\n"


def test_cli_verify_algebra_file_mode(capsys):
    path = os.path.join(REPO, "src", "hktsolve", "data", "su3_brackets.txt")
    assert cli.main(["verify-algebra", "--file", path]) == 0
    assert "Jacobi identity" in capsys.readouterr().out


@pytest.mark.parametrize("flags, named", [
    (["--name", "nilpotent8"], "--name"),
    (["--name", "su3"], "--name"),
    (["--param", "c=2"], "--param"),
    (["--name", "nilpotent8", "--param", "c=2"], "--name"),
])
def test_cli_verify_algebra_file_mode_refuses_registry_flags(capsys, flags, named):
    # the file is checked alone, so a registry flag beside it is refused,
    # not ignored
    path = os.path.join(REPO, "src", "hktsolve", "data", "su3_brackets.txt")
    assert cli.main(["verify-algebra", "--file", path] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ConfigError: verify-algebra --file takes no %s\n" % named


@pytest.mark.parametrize("top, accepted", [(1e-12, True), (2e-12, False)])
def test_verify_algebra_and_the_solver_share_one_semidefinite_rule(monkeypatch, capsys,
                                                                   top, accepted):
    # a reduced Q with largest eigenvalue ``top``: verify-algebra and the
    # solver's Q check accept or refuse it together
    from hktsolve.elliptic_solver import validate_q

    q = np.diag([-1.0, top])

    class Reduced:
        def describe(self):
            return "reduced"

        def real_quadratic_matrix(self):
            return q

    monkeypatch.setattr(cli, "reduce_ratio", lambda frame: Reduced())
    rc = cli.main(["verify-algebra", "--name", "su3"])
    captured = capsys.readouterr()
    assert rc == (0 if accepted else 1)
    assert captured.out.endswith("ok: quadratic form negative semi-definite\n") == accepted
    if accepted:
        validate_q(q, TorusGrid((4, 4)))
    else:
        assert "not negative semi-definite (largest eigenvalue 2.000e-12)" in captured.err
        with pytest.raises(ConfigError, match="largest eigenvalue 2.000e-12"):
            validate_q(q, TorusGrid((4, 4)))


def test_cli_verify_algebra_errors(capsys):
    assert cli.main(["verify-algebra", "--name", "nosuch"]) == 1
    assert "ConfigError" in capsys.readouterr().err
    assert cli.main(["verify-algebra", "--param", "c"]) == 1
    assert "key=value" in capsys.readouterr().err
    # a repeated key is refused by name, not settled by its last value
    assert cli.main(["verify-algebra", "--name", "semidirect8",
                     "--param", "c=1", "--param", "c = 2"]) == 1
    assert "ConfigError: parameter 'c' is given twice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify-algebra", "--file", "{tmp}/zero.txt"],
    ["verify-algebra", "--file", "{tmp}/missing.txt"],
    ["verify-algebra", "--file", "{tmp}/latin1.txt"],
    ["verify-algebra", "--name", "semidirect8", "--param", "c=abc"],
    ["verify-algebra", "--name", "semidirect8", "--param", "c=1/0"],
    ["verify-algebra", "--name", "su3", "--param", "x=1"],
    ["verify-algebra", "--name", "nilpotent8", "--param", "v1=1"],
    ["verify-su3", "--emit-forms", "{tmp}/nosuch/x.txt"],
    ["study", "--sizes", "32,abc"],
], ids=["file-div-zero", "file-missing", "file-not-utf8", "param-junk",
        "param-div-zero", "param-unknown", "param-not-vector", "emit-unwritable",
        "study-sizes-junk"])
def test_cli_symbolic_bad_inputs(tmp_path, capsys, argv):
    (tmp_path / "zero.txt").write_text("dim 4\n1 2 : 3 1/0\n")
    (tmp_path / "latin1.txt").write_bytes(b"dim 4\n# caf\xe9\n1 2 : 3 1\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert cli.main(argv) == 1
    assert "error: ConfigError:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify-algebra", "--name", "semidirect8", "--param", "c=1e999999999"],
    ["verify-algebra", "--file", "{tmp}/huge.txt"],
], ids=["param", "file"])
def test_cli_refuses_huge_decimal_exponents(tmp_path, capsys, argv):
    # Fraction would expand the exponent exactly and run for hours
    (tmp_path / "huge.txt").write_text("dim 4\n1 2 : 1 1e999999999\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    started = time.perf_counter()
    assert cli.main(argv) == 1
    assert time.perf_counter() - started < 1.0
    assert "error: ConfigError:" in capsys.readouterr().err


def _write_config(path, dims=(32, 32), **extra):
    cfg = {
        "grid": {"dims": list(dims)},
        "forcing": {"type": "bump", "amplitude": 1.0, "width": 1.0},
        "q": {"matrix": (-np.eye(len(dims))).tolist()},
        "continuity": {"newton_tol": 1e-10},
    }
    cfg.update(extra)
    path.write_text(json.dumps(cfg))
    return path


def test_cli_solve_writes_artifacts(tmp_path, capsys):
    cfgpath = _write_config(tmp_path / "run.json")
    outdir = tmp_path / "out"
    rc = cli.main(["solve", "--config", str(cfgpath), "--out-dir", str(outdir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged: b=" in out
    assert "b bound" in out and "ok" in out
    for name in ("phi.field", "trace.csv", "trace.json", "summary.json"):
        assert (outdir / name).exists()
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["b_bound_ok"] is True
    assert summary["density_min"] > 0
    assert summary["t"] == 1.0
    phi, lengths = gridio.read_field(outdir / "phi.field")
    assert phi.shape == (32, 32)
    assert abs(float(np.mean(phi))) < 1e-12
    trace = json.loads((outdir / "trace.json").read_text())
    assert trace["rows"][0]["t"] == 0.0
    assert trace["rows"][-1]["t"] == 1.0


@pytest.mark.parametrize("outputs", [
    {"phi": "x", "summary": "x"},
    {"trace_csv": "trace.json"},
    {"summary": "./sub/../phi.field"},
    {"phi": "{out}/summary.json"},
], ids=["both-named", "a-default", "same-path", "absolute"])
def test_cli_solve_refuses_two_outputs_in_one_file(tmp_path, capsys, monkeypatch,
                                                  outputs):
    # the later artifact would overwrite the earlier one; refused before solving
    import hktsolve.continuity_driver as cd

    def no_solve(*args):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(cd, "run_continuity", no_solve)
    outdir = tmp_path / "out"
    outputs = {k: v.replace("{out}", str(outdir)) for k, v in outputs.items()}
    cfgpath = _write_config(tmp_path / "run.json", outputs=outputs)
    assert cli.main(["solve", "--config", str(cfgpath), "--out-dir", str(outdir)]) == 1
    assert "error: ConfigError: config 'outputs'" in capsys.readouterr().err
    assert not outdir.exists()


def test_cli_solve_evaluates_no_density_of_its_own(tmp_path, capsys, monkeypatch):
    # the density range comes from the solver's final state, which
    # carries the density of its phi
    import hktsolve.continuity_driver as cd
    import hktsolve.elliptic_solver as es

    events = []
    real_density, real_run, real_check = es.density, cd.run_continuity, cd.basicness_check

    def density(*args):
        events.append("density")
        return real_density(*args)

    def run(*args, **kwargs):
        out = real_run(*args, **kwargs)
        events.append("solved")
        return out

    def check(*args, **kwargs):
        events.append("basicness")
        return real_check(*args, **kwargs)

    monkeypatch.setattr(es, "density", density)
    monkeypatch.setattr(cd, "run_continuity", run)
    monkeypatch.setattr(cd, "basicness_check", check)
    cfgpath = _write_config(tmp_path / "run.json", dims=(16, 16))
    assert cli.main(["solve", "--config", str(cfgpath),
                     "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert "density" in events[:events.index("solved")]
    assert events[events.index("solved"):events.index("basicness") + 1] == \
        ["solved", "basicness"]


@pytest.mark.parametrize("dims, per_node", [((32, 32), False), ((8, 8, 4, 4), True)],
                         ids=["2d-constant-q", "4d-per-node-q"])
def test_cli_solve_density_range_matches_a_roll_oracle(tmp_path, capsys, dims,
                                                        per_node):
    g = TorusGrid(dims)
    q = -np.eye(g.ndim)
    q[0, 1] = q[1, 0] = 0.2
    if per_node:
        q = np.broadcast_to(q, g.dims + q.shape).copy()
        q[..., 2, 2] -= 0.5 * np.sin(meshes(g)[2]) ** 2
        qpath = tmp_path / "q.field"
        gridio.write_field(qpath, oracles.pack_symmetric(q), g.lengths)
        qspec = {"file": str(qpath)}
    else:
        qspec = {"matrix": q.tolist()}
    cfgpath = _write_config(tmp_path / "run.json", dims=dims, q=qspec)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfgpath), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    phi, _ = gridio.read_field(out / "phi.field")
    dens = oracles.roll_density(g, phi, q)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["density_min"] == pytest.approx(float(dens.min()), rel=0, abs=1e-12)
    assert summary["density_max"] == pytest.approx(float(dens.max()), rel=0, abs=1e-12)


def test_cli_solve_is_deterministic(tmp_path, capsys):
    cfgpath = _write_config(tmp_path / "run.json", dims=(16, 16))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", "--config", str(cfgpath), "--out-dir", str(out1)]) == 0
    assert cli.main(["solve", "--config", str(cfgpath), "--out-dir", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "phi.field").read_bytes() == (out2 / "phi.field").read_bytes()
    assert (out1 / "summary.json").read_text() == (out2 / "summary.json").read_text()
    strip = lambda p: [line.rsplit(",", 1)[0]
                       for line in p.read_text().splitlines()]
    assert strip(out1 / "trace.csv") == strip(out2 / "trace.csv")


def test_cli_solve_verify_unique(tmp_path, capsys):
    cfgpath = _write_config(tmp_path / "run.json", dims=(16, 16))
    rc = cli.main(["solve", "--config", str(cfgpath),
                   "--out-dir", str(tmp_path / "out"), "--verify-unique"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "uniqueness re-run" in out and "agree" in out
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["uniqueness"]["agree"] is True


def test_cli_solve_disagreeing_rerun_still_writes_summary(tmp_path, capsys, monkeypatch):
    # only the re-run's b is shifted, through the one second-solve helper
    from hktsolve import continuity_driver as cd

    real = cd.second_solve

    def shifted(problem, state, tol):
        dphi, db = real(problem, state, tol)
        return dphi, db + 1e-3

    monkeypatch.setattr(cd, "second_solve", shifted)
    cfgpath = _write_config(tmp_path / "run.json", dims=(16, 16))
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.json").write_text('{"stale": true}')
    rc = cli.main(["solve", "--config", str(cfgpath), "--out-dir", str(out),
                   "--verify-unique"])
    assert rc == 1
    assert "DISAGREE" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert "stale" not in summary and summary["uniqueness"]["agree"] is False


def test_cli_solve_failed_rerun_still_writes_summary(tmp_path, capsys, monkeypatch):
    # the main solve converges; the re-run fails as a Newton solve can
    from hktsolve import continuity_driver as cd
    from hktsolve.errors import BPositivityLost

    def failing(problem, state, tol):
        raise BPositivityLost("b dropped to -2.986e-05")

    monkeypatch.setattr(cd, "second_solve", failing)
    cfgpath = _write_config(tmp_path / "run.json", dims=(16, 16))
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", str(cfgpath), "--out-dir", str(out),
                   "--verify-unique"])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("uniqueness re-run: failed (BPositivityLost: ")
               and line.endswith("-> DISAGREE") for line in lines)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["density_min"] > 0.0 and summary["b_bound_ok"] is True
    assert summary["uniqueness"]["agree"] is False
    assert summary["uniqueness"]["error"].startswith("BPositivityLost: b dropped to ")


def test_cli_solve_verify_unique_agrees_where_the_path_needs_steps(tmp_path, capsys):
    # the amplitude-30 bump on 48^2, a grid the floor does not sequence
    # (its halving 24^2 keeps 576 nodes), so its first step starts from
    # the trivial pair and the main solve needs three continuity steps
    # after t = 0 (density minimum about 6e-12); the re-run at t = 1
    # from phi = 0 and the solution's b reaches the same solution.  On
    # 64^2 the chain's Hopf-Cole bottom reaches t = 1 in one step
    cfgpath = _write_config(tmp_path / "run.json", dims=(48, 48),
                            forcing={"type": "bump", "amplitude": 30.0,
                                     "width": 0.2})
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", str(cfgpath), "--out-dir", str(out),
                   "--verify-unique"])
    assert rc == 0, capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["macro_steps"] > 2 and summary["density_min"] > 0.0
    assert summary["uniqueness"]["agree"] is True
    assert summary["uniqueness"]["dphi"] <= 1e-8 and summary["uniqueness"]["db"] <= 1e-8


def test_cli_solve_verify_unique_on_basic_data_solves_the_leaf_space(tmp_path, capsys,
                                                                    monkeypatch):
    # a forcing constant along axes 2 and 3: the main solve and the
    # re-run both take their Newton steps on the 2-axis leaf space, and
    # the basicness report's re-solve is the re-run: one second_solve
    # per command, whose gap both lines print
    from hktsolve import continuity_driver as cd
    from hktsolve import elliptic_solver as es

    g = TorusGrid((16, 16, 4, 4))
    xs = g.axis_coords()
    forcing = tmp_path / "f.field"
    gridio.write_field(forcing, np.exp(np.cos(xs[0]) - 1.0 + np.cos(xs[1]) - 1.0)
                       + g.zeros(), g.lengths)
    cfgpath = _write_config(tmp_path / "run.json", dims=g.dims,
                            forcing={"file": str(forcing)})
    built = []
    operator = es.bordered_operator

    def counted(p, phi, t):
        built.append(p.grid.ndim)
        return operator(p, phi, t)

    monkeypatch.setattr(es, "bordered_operator", counted)
    resolves = []
    second_solve = cd.second_solve

    def recorded(problem, state, tol):
        resolves.append(problem)
        return second_solve(problem, state, tol)

    monkeypatch.setattr(cd, "second_solve", recorded)
    rc = cli.main(["solve", "--config", str(cfgpath), "--out-dir", str(tmp_path / "out"),
                   "--verify-unique"])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["basicness"]["passed"] is True
    assert summary["uniqueness"]["agree"] is True
    assert built and 4 not in built
    assert len(resolves) == 1
    gap = summary["basicness"]["reduced_match"]
    assert summary["uniqueness"]["dphi"] == gap
    out = capsys.readouterr().out
    assert "lift gap %.3e -> passed" % gap in out
    assert "uniqueness re-run: |dphi|=%.3e |db|=" % gap in out


@pytest.mark.parametrize("dims", [[2 ** 32, 2 ** 32], [2 ** 16] * 4])
def test_cli_solve_refuses_a_grid_too_large_to_address(tmp_path, capsys,
                                                     monkeypatch, dims):
    def no_zeros(self):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(TorusGrid, "zeros", no_zeros)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"grid": {"dims": dims}}))
    assert cli.main(["solve", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert "error: ConfigError: grid.dims " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dims", [[8, 8, 8], [8], []])
def test_cli_solve_refuses_a_grid_of_other_than_two_or_four_axes(tmp_path, capsys,
                                                                dims):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"grid": {"dims": dims}}))
    assert cli.main(["solve", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == \
        "error: ConfigError: grid needs 2 or 4 axes, got %d\n" % len(dims)
    assert not (tmp_path / "out").exists()


def test_cli_solve_names_a_grid_memory_cannot_hold(tmp_path, capsys, monkeypatch):
    # numpy can address 2^40 float64 nodes, but a real 8 TiB request fails
    # at once only where the kernel refuses to overcommit: simulated here
    message = ("Unable to allocate 8.00 TiB for an array with shape "
               "(1048576, 1048576) and data type float64")

    def no_memory(self):
        raise MemoryError(message)

    monkeypatch.setattr(TorusGrid, "zeros", no_memory)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"grid": {"dims": [2 ** 20, 2 ** 20]},
                                "forcing": {"type": "zero"}}))
    assert cli.main(["solve", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: MemoryError: %s\n" % message


def test_cli_solve_refuses_a_density_that_is_not_positive(tmp_path, capsys):
    # b e^F runs from 0 (e^-800 underflows) to about 13.5, and the absolute
    # tolerance cannot resolve the low end: the density dips below zero
    cfgpath = _write_config(tmp_path / "run.json", dims=(16, 16),
                            forcing={"type": "bump", "amplitude": -800.0,
                                     "width": 1.0})
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfgpath), "--out-dir", str(out)]) == 1
    assert "density is not positive" in capsys.readouterr().out
    for name in ("phi.field", "trace.csv", "trace.json", "summary.json"):
        assert (out / name).exists()
    assert json.loads((out / "summary.json").read_text())["density_min"] <= 0.0


def test_cli_solve_reports_basicness_verdict(tmp_path, capsys):
    g = TorusGrid((8, 8, 4, 4))
    xs = meshes(g)
    fpath = tmp_path / "F.field"
    gridio.write_field(fpath, 0.3 * np.sin(xs[0]) + 0.1 * np.cos(xs[1]), g.lengths)
    cfgpath = _write_config(tmp_path / "run.json", dims=g.dims,
                            forcing={"file": str(fpath)})
    rc = cli.main(["solve", "--config", str(cfgpath),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    line = [x for x in capsys.readouterr().out.splitlines()
            if x.startswith("basicness:")]
    assert len(line) == 1 and "lift gap" in line[0] and line[0].endswith("passed")
    report = json.loads((tmp_path / "out" / "summary.json").read_text())["basicness"]
    assert report["invariant_axes"] == [2, 3] and report["passed"] is True
    assert report["reduced_match"] <= 100 * 1e-10


def test_cli_solve_forcing_from_file(tmp_path, capsys):
    g = TorusGrid((16, 16))
    xs, ys = meshes(g)
    F = 0.3 * np.sin(xs) + 0.1 * np.cos(ys)
    fpath = tmp_path / "F.field"
    gridio.write_field(fpath, F, g.lengths)
    cfgpath = _write_config(tmp_path / "run.json", dims=(16, 16),
                            forcing={"file": str(fpath)})
    rc = cli.main(["solve", "--config", str(cfgpath),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    capsys.readouterr()


def test_cli_solve_config_errors(tmp_path, capsys):
    bad = _write_config(tmp_path / "bad.json",
                        continuity={"t_step_min": 0.5, "t_step_init": 0.25})
    assert cli.main(["solve", "--config", str(bad)]) == 1
    assert "ConfigError" in capsys.readouterr().err

    pd = _write_config(tmp_path / "pd.json",
                       q={"matrix": [[1.0, 0.0], [0.0, 1.0]]})
    assert cli.main(["solve", "--config", str(pd)]) == 1
    assert "ConfigError" in capsys.readouterr().err

    mism = _write_config(tmp_path / "mismatch.json", dims=(16, 16))
    g = TorusGrid((8, 8))
    fpath = tmp_path / "small.field"
    gridio.write_field(fpath, g.zeros(), g.lengths)
    mism.write_text(json.dumps({
        "grid": {"dims": [16, 16]},
        "forcing": {"file": str(fpath)},
        "q": {"matrix": [[-1.0, 0.0], [0.0, -1.0]]},
    }))
    assert cli.main(["solve", "--config", str(mism)]) == 1
    assert "ConfigError" in capsys.readouterr().err

    # right shape, wrong lengths
    stretched = TorusGrid((16, 16), (1.0, 1.0))
    gridio.write_field(fpath, stretched.zeros(), stretched.lengths)
    mism.write_text(json.dumps({
        "grid": {"dims": [16, 16]},
        "forcing": {"file": str(fpath)},
    }))
    assert cli.main(["solve", "--config", str(mism)]) == 1
    assert "lengths do not match" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    {"grid": {"dims": "abc"}},
    {"continuity": {"newton_tol": "small"}},
    {"q": {"matrix": [[-1, 0], [0]]}},
    {"q": {"matrix": [[-1.0, 0.0, 0.0], [0.0, -1.0]]}},
    {"q": {"matrix": [-1.0, -1.0]}},
    {"q": {"matrix": [["-1", "0"], ["0", "-1"]]}},
    {"q": {"matrix": [[False, False], [False, False]]}},
    {"q": {"matrix": [[float("nan"), 0.0], [0.0, -1.0]]}},
    {"continuity": {"newton_tol": float("nan")}},
    {"outputs": [1]},
    {"outputs": {"phi": 5}},
    # zero forcing, so only the grid can refuse the infinite spacing
    {"grid": {"dims": [16, 16], "lengths": [float("inf"), 1.0]},
     "forcing": {"type": "zero"}},
    {"grid": {"dims": [16, 16], "lengths": [float("nan"), 1.0]}},
    {"forcing": {"type": "bump", "amplitude": 1.0, "width": float("inf")}},
    {"forcing": {"type": "bump", "amplitude": 1.0, "width": float("nan")}},
    {"forcing": {"type": "bump", "amplitude": 1.0, "width": 0.0}},
    {"forcing": {"type": "zero", "amplitude": float("nan")}},
    {"forcing": {"type": "sine", "amplitude": float("nan")}},
])
def test_cli_solve_malformed_values(tmp_path, capsys, extra):
    bad = _write_config(tmp_path / "bad.json", **extra)
    assert cli.main(["solve", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "error: ConfigError:" in err
    assert "q" not in extra or "q.matrix" in err


@pytest.mark.parametrize("section,body,named", [
    (None, {"continuation": {"newton_tol": 1e-3}}, "'continuation'"),
    ("grid", {"dim": [8, 8]}, "'dim'"),
    ("continuity", {"newton_tl": 1e-3}, "'newton_tl'"),
    ("forcing", {"type": "bump", "widht": 3}, "'widht'"),
    ("outputs", {"phy": "phi.field"}, "'phy'"),
    ("forcing", {"file": "f.field", "type": "bump"}, "'file' alone"),
    ("q", {"file": "q.field", "matrix": [[-1.0, 0.0], [0.0, -1.0]]}, "'file' alone"),
    ("forcing", {"type": "sine", "width": 2}, "'width'"),
    ("forcing", {"type": "zero", "width": 2}, "'width'"),
    ("forcing", {"type": "zero", "amplitude": 1.0}, "'amplitude'"),
    ("forcing", {"width": 2}, "'width'"),
], ids=["top", "grid", "continuity", "forcing", "outputs", "forcing-file",
        "q-file", "sine-width", "zero-width", "zero-amplitude", "default-width"])
def test_config_refuses_keys_it_does_not_read(tmp_path, section, body, named):
    # readable files, so only the key check can refuse the file cases
    grid = TorusGrid((8, 8))
    gridio.write_field(tmp_path / "f.field", grid.zeros(), grid.lengths)
    gridio.write_field(tmp_path / "q.field", np.zeros(grid.dims + (3,)), grid.lengths)
    body = {k: str(tmp_path / v) if k == "file" else v for k, v in body.items()}
    cfg = {"grid": {"dims": [8, 8]}}
    cfg.update(body if section is None else {section: body})
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    label = "config" if section is None else "config section %r" % section
    with pytest.raises(ConfigError, match=re.escape(label) + ".*" + re.escape(named)):
        cli._load_run_config(str(path))


def _readme_block(after, fence):
    """The first fenced block of README.md that follows the line ``after``."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    tail = text[text.index(after):]
    start = tail.index(fence) + len(fence)
    return tail[start:tail.index("```", start)].strip()


def test_readme_examples_parse(tmp_path):
    # every command line of the command block parses, so a renamed flag
    # cannot leave the README stale
    commands = _readme_block("has five\nsubcommands", "```sh").splitlines()
    assert len(commands) >= 8
    for line in commands:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "hktsolve", line
        args = cli.build_parser().parse_args(argv[1:])
        assert args.func.__name__ == "cmd_" + argv[1].replace("-", "_")

    cfg = json.loads(_readme_block("`solve` reads a JSON config", "```json"))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    _cfg, problem, ccfg = cli._load_run_config(str(path))
    assert problem.grid.dims == tuple(cfg["grid"]["dims"])
    assert ccfg.newton_tol == cfg["continuity"]["newton_tol"]

    line = _readme_block("A field file is one UTF-8 JSON header line", "```")
    header = json.loads(line)
    field = tmp_path / "f.field"
    field.write_bytes(line.encode() + b"\n"
                      + bytes(8 * math.prod(header["dims"])))
    arr, lengths = gridio.read_field(str(field))
    assert arr.shape == tuple(header["dims"])
    assert lengths == tuple(header["lengths"])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_number_refuses_non_finite_floats_by_name(value):
    with pytest.raises(ConfigError, match="^forcing width must be a finite number"):
        gridio.real("forcing width", value)


_BAD_GRID_VALUES = {
    "dims": [8.7, "8", True, float("nan"), float("inf")],
    "lengths": ["8", True, float("nan"), float("inf"), 10 ** 400],
}


@pytest.mark.parametrize("door", ["config", "header", "grid"])
@pytest.mark.parametrize("key,value", [
    (key, value) for key, values in _BAD_GRID_VALUES.items() for value in values
] + [("dims", "string"), ("lengths", "string")],
    ids=lambda v: "1e400" if v == 10 ** 400 else None)
def test_every_door_refuses_the_same_values_by_name(tmp_path, door, key, value):
    # one bad entry, or a string in place of the list
    given = {"dims": [8, 8], "lengths": [1.0, 1.0]}
    given[key] = "88" if value == "string" else [value, given[key][1]]
    if door == "config":
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"grid": given}))
        load, named = lambda: cli._load_run_config(str(path)), "grid." + key
    elif door == "header":
        path = tmp_path / "f.field"
        path.write_bytes(json.dumps(given).encode() + b"\n" + bytes(8 * 64))
        load, named = lambda: gridio.read_field(str(path)), "field header " + key
    else:
        load, named = lambda: TorusGrid(given["dims"], given["lengths"]), "grid." + key
    with pytest.raises(ConfigError, match="^" + re.escape(named) + " must be"):
        load()


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8", "not-json",
                                  "too-deep"])
def test_cli_solve_unreadable_config(tmp_path, capsys, kind):
    path = tmp_path / "run.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b'{"grid": {"dims": [16, 16]}, "name": "\xff\xfe"}')
    elif kind == "not-json":
        path.write_text("{bad")
    elif kind == "too-deep":
        path.write_text("[" * 100000 + "]" * 100000)
    assert cli.main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error: ConfigError:" in err and str(path) in err


def test_cli_solve_bad_out_dir_fails_before_solving(tmp_path, capsys, monkeypatch):
    from hktsolve import continuity_driver

    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran before the out-dir was made")

    monkeypatch.setattr(continuity_driver, "run_continuity", no_solve)
    cfgpath = _write_config(tmp_path / "run.json", dims=(16, 16))
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    assert cli.main(["solve", "--config", str(cfgpath), "--out-dir", str(taken)]) == 1
    err = capsys.readouterr().err
    assert "error: ConfigError:" in err and str(taken) in err


def test_cli_solve_unwritable_artifact(tmp_path, capsys):
    cfgpath = _write_config(tmp_path / "run.json", dims=(16, 16),
                            outputs={"phi": "nosuch/phi.field"})
    assert cli.main(["solve", "--config", str(cfgpath),
                     "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error: ConfigError:" in err and "nosuch/phi.field" in err


@pytest.mark.parametrize("section", ["forcing", "q"])
@pytest.mark.parametrize("value", ["missing", [1], 3.5])
def test_cli_solve_bad_file_values(tmp_path, capsys, section, value):
    # never an integer here: open(0) would read and close this process's stdin
    if value == "missing":
        value = str(tmp_path / "nosuch.field")
    bad = _write_config(tmp_path / "bad.json", **{section: {"file": value}})
    assert cli.main(["solve", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "error: ConfigError:" in err
    if isinstance(value, str):
        assert value in err


def test_cli_solve_rejects_nonfinite_forcing_file(tmp_path, capsys):
    g = TorusGrid((16, 16))
    F = g.zeros()
    F[3, 7] = np.nan
    fpath = tmp_path / "F.field"
    gridio.write_field(fpath, F, g.lengths)
    bad = _write_config(tmp_path / "bad.json", dims=(16, 16),
                        forcing={"file": str(fpath)})
    assert cli.main(["solve", "--config", str(bad)]) == 1
    assert "error: ConfigError:" in capsys.readouterr().err


def test_cli_solve_rejects_q_file_for_another_torus(tmp_path, capsys):
    # a valid per-node Q, but written for a unit torus, not the default 2 pi
    g = TorusGrid((16, 16), lengths=(1.0, 1.0))
    packed = np.broadcast_to(np.array([-1.0, 0.0, -1.0]), g.dims + (3,))
    qpath = tmp_path / "q.field"
    gridio.write_field(qpath, packed, g.lengths)
    bad = _write_config(tmp_path / "bad.json", dims=(16, 16),
                        q={"file": str(qpath)})
    assert cli.main(["solve", "--config", str(bad),
                     "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error: ConfigError:" in err and "lengths" in err


# JSON values of every kind; grid sizes stay small so a valid parse is cheap
_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 9),
                     st.floats(), st.text(max_size=4))
_dims = st.one_of(
    _scalars,
    st.lists(st.one_of(st.integers(-2, 9),
                       st.sampled_from([4.5, "8", "x", None, [], True,
                                        float("nan"), float("inf")])),
             max_size=5))
_numbers = st.lists(st.one_of(st.floats(), st.integers(-5, 5),
                              st.text(max_size=2), st.none()), max_size=5)
_matrix = st.one_of(_scalars, _numbers, st.lists(_numbers, max_size=5))


def _mostly(valid, other):
    """valid five times in six, other once: most examples get past a check."""
    return st.sampled_from((valid,) * 5 + (other,)).flatmap(lambda strategy: strategy)


def _optional(**fields):
    return st.fixed_dictionaries({}, optional=fields)


_valid_dims = st.one_of(st.lists(st.integers(4, 9), min_size=2, max_size=2),
                        st.lists(st.integers(4, 6), min_size=4, max_size=4))
_diagonal = _mostly(st.floats(-4, 0), st.sampled_from([float("nan"), float("inf"), 1.0]))
_diagonal_matrix = st.tuples(_diagonal, _diagonal).map(
    lambda d: [[d[0], 0.0], [0.0, d[1]]])
_tolerance = _mostly(st.floats(1e-12, 1e-2), _scalars)

_configs = _optional(
    grid=_mostly(_optional(dims=_mostly(_valid_dims, _dims),
                           lengths=st.one_of(_scalars, _numbers)), _scalars),
    forcing=_mostly(_optional(
        type=_mostly(st.sampled_from(["zero", "sine", "bump"]), _scalars),
        amplitude=_mostly(st.floats(-3, 3), _scalars),
        width=_mostly(st.floats(0.1, 3), _scalars)), _scalars),
    q=_mostly(st.fixed_dictionaries({"matrix": _mostly(_diagonal_matrix, _matrix)}),
              st.one_of(_optional(matrix=_matrix), st.lists(_numbers, max_size=5))),
    continuity=_mostly(_optional(
        t_step_init=_scalars, t_step_min=_scalars, t_step_max=_scalars,
        newton_tol=_tolerance, max_newton=_scalars), _scalars),
)


# the keys `solve` reads from each config section, written out by hand
_READ_KEYS = {
    "grid": {"dims", "lengths"},
    "forcing": {"file", "type", "amplitude", "width"},
    "q": {"file", "matrix"},
    "continuity": {"t_step_init", "t_step_min", "t_step_max", "newton_tol",
                   "max_newton"},
    "outputs": {"phi", "trace_csv", "trace_json", "summary"},
}


def _typed(values):
    return [(type(x), x) for x in values]


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_configs)
@example(cfg={"grid": {"dims": [8.7, 8]}})
@example(cfg={"grid": {"dims": "88"}})
@example(cfg={"continuity": {"max_newton": True}})
@example(cfg={"continuity": {"newton_tol": True}})
@example(cfg={"continuity": {"newton_tol": "1e-3"}})
@example(cfg={"forcing": {"type": "bump", "width": float("inf")}})
@example(cfg={"forcing": {"type": "bump", "width": float("nan")}})
@example(cfg={"forcing": {"type": "zero", "amplitude": float("nan")}})
@example(cfg={"grid": {"dims": [8, 8]}, "forcing": {"type": "sine", "amplitude": 0.5}})
@example(cfg={"forcing": {"type": "bump", "width": -1.0}})
@example(cfg={"q": {"matrix": [["-1", "0"], ["0", "-1"]]}})
@example(cfg={"q": {"matrix": [[True, False], [False, True]]}})
@example(cfg=[1, 2])
@example(cfg={"grid": {"dim": [8, 8]}})
@example(cfg={"grid": {"dims": [8, 8]}, "continuity": {"newton_tl": 1e-3}})
@example(cfg={"grid": {"dims": [8, 8]}, "forcing": {"type": "bump", "widht": 3}})
@example(cfg={"grid": {"dims": [8, 8]}, "continuation": {"newton_tol": 1e-3}})
@example(cfg={"grid": {"dims": [8, 8]}, "outputs": {"phy": "phi.field"}})
@example(cfg={"grid": {"dims": [8, 8]}, "forcing": {"file": "f.field", "type": "bump"}})
@example(cfg={"grid": {"dims": [8, 8]},
              "q": {"file": "q.field", "matrix": [[-1.0, 0.0], [0.0, -1.0]]}})
@example(cfg={"grid": {"dims": [8, 8]}, "forcing": {"type": "sine", "width": 2}})
@example(cfg={"grid": {"dims": [8, 8]}, "forcing": {"type": "zero", "width": 2}})
@example(cfg={"grid": {"dims": [8, 8]}, "forcing": {"type": "zero", "amplitude": 1.0}})
def test_run_config_parses_or_raises_config_errors(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("cfg") / "run.json"
    path.write_text(json.dumps(cfg))
    try:
        _cfg, problem, ccfg = cli._load_run_config(str(path))
    except (ConfigError, ShapeMismatch):
        return
    # an accepted config holds only keys the loader reads, and "file" alone
    assert set(cfg) <= set(_READ_KEYS)
    for section, body in cfg.items():
        assert set(body) <= _READ_KEYS[section]
        assert "file" not in body or len(body) == 1
    assert problem.F.shape == problem.grid.dims
    assert problem.q.shape[-1] == problem.grid.ndim
    assert np.all(np.isfinite(problem.q))
    assert math.isfinite(ccfg.newton_tol) and ccfg.newton_tol > 0
    # numbers keep the value and the JSON type they were given
    given = cfg.get("continuity", {})
    assert _typed(problem.grid.dims) == _typed(cfg.get("grid", {}).get("dims", [64, 64]))
    assert _typed([ccfg.max_newton]) == _typed([given.get("max_newton", 30)])
    tol = given.get("newton_tol", 1e-10)
    assert type(tol) in (int, float) and ccfg.newton_tol == tol
    # the forcing holds only keys its type reads, and each is finite
    forcing = cfg.get("forcing", {})
    read = {"sine": ("amplitude",), "bump": ("amplitude", "width")}.get(
        forcing.get("type"), ())
    assert set(forcing) - {"file", "type"} <= set(read)
    assert all(math.isfinite(forcing.get(key, 1.0)) for key in read)
    assert forcing.get("type") != "bump" or forcing.get("width", 1.0) > 0
    # a matrix that was read holds JSON numbers only
    qspec = cfg.get("q", {})
    if isinstance(qspec, dict) and "matrix" in qspec:
        assert all(type(x) in (int, float) for row in qspec["matrix"] for x in row)


_header_value = st.one_of(_scalars, st.sampled_from([4.7, 4.0, -4, 0, 2 ** 32]),
                          st.lists(st.integers(-2, 5), max_size=3))
_header_dims = st.one_of(
    _header_value,
    st.lists(st.one_of(st.integers(-4, 5),
                       st.sampled_from([0, 4.7, 4.0, True, "4", None, 2 ** 32])),
             max_size=4))


@st.composite
def _headers(draw):
    """A well-formed header with up to two of its fields junked or dropped."""
    dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    header = {"dims": dims, "lengths": [2.0] * len(dims),
              "channels": draw(st.sampled_from([0, 1, 3]))}
    junk = {"dims": _header_dims, "lengths": _header_value,
            "channels": _header_value}
    for key in draw(st.lists(st.sampled_from(sorted(junk)), max_size=2,
                             unique=True)):
        if draw(st.booleans()):
            del header[key]
        else:
            header[key] = draw(junk[key])
    return header


def _promised_bytes(header):
    """The payload a small well-formed header asks for, else 0."""
    dims, channels = header.get("dims"), header.get("channels", 0)
    if not isinstance(dims, list) or not all(type(d) is int for d in dims) \
            or type(channels) is not int:
        return 0
    count = math.prod(dims) * max(channels, 1)
    return 8 * count if 0 <= count <= 10 ** 4 else 0


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(header=_headers(), payload=_mostly(st.none(), st.integers(0, 300)))
@example(header={"dims": [-4, -4], "lengths": [1.0, 1.0], "channels": 0},
         payload=128)
@example(header={"dims": [4294967296, 4294967296], "lengths": [1.0, 1.0],
                 "channels": 0}, payload=0)
@example(header={"dims": [], "lengths": [], "channels": 0}, payload=8)
@example(header={"dims": [4.7, 4], "lengths": [1.0, 1.0], "channels": 0},
         payload=128)
@example(header={"dims": [4, 4], "lengths": [1.0, 1.0], "channels": True},
         payload=128)
@example(header={"dims": [4, 4], "lengths": [math.inf, 1.0], "channels": 0},
         payload=128)
@example(header={"dims": [4, 4], "lengths": [math.nan, 1.0], "channels": 0},
         payload=128)
@example(header={"dims": [4, 4], "lengths": "12", "channels": 0}, payload=128)
@example(header={"dims": [4, 4], "lengths": ["6.5", "6.5"], "channels": 0},
         payload=128)
@example(header={"dims": [4, 4], "lengths": [True, True], "channels": 0},
         payload=128)
@example(header={"dims": [4, 4], "lengths": [10 ** 400, 1.0], "channels": 0},
         payload=128)
def test_read_field_keeps_its_header_promise(tmp_path_factory, header, payload):
    # payload None writes exactly what a well-formed header promises
    path = tmp_path_factory.mktemp("field") / "f.field"
    size = _promised_bytes(header) if payload is None else payload
    path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(size))
    try:
        arr, lengths = gridio.read_field(str(path))
    except (ConfigError, ShapeMismatch):
        pass
    else:
        dims, channels = header["dims"], header.get("channels", 0)
        assert dims and all(type(d) is int and d > 0 for d in dims)
        assert type(channels) is int and channels >= 0
        assert arr.shape == tuple(dims) + ((channels,) if channels else ())
        assert len(lengths) == len(dims)
        assert all(0.0 < x < math.inf for x in lengths)
        assert isinstance(header["lengths"], list)
        assert all(type(x) in (int, float) for x in header["lengths"])
    try:
        gridio.load_qspec({"file": str(path)}, TorusGrid((4, 4)))
    except HktError:
        pass


def test_cli_solve_newton_tol_override(tmp_path, capsys):
    cfgpath = _write_config(tmp_path / "run.json", dims=(16, 16))
    rc = cli.main(["solve", "--config", str(cfgpath),
                   "--out-dir", str(tmp_path / "out"),
                   "--newton-tol", "1e-6"])
    assert rc == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["residual_norm"] <= 1e-6


def test_cli_shipped_sample_config(tmp_path, capsys):
    cfgpath = os.path.join(REPO, "configs", "sample_solve.json")
    rc = cli.main(["solve", "--config", cfgpath,
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert abs(summary["b"] - 0.7326275065261898) < 1e-9


def test_cli_parses_each_command_line_afresh():
    # the parser is built once per process; no flag, default or
    # subcommand attribute of one parse carries over into the next
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    first = parser.parse_args(["solve", "--config", "a.json", "--verify-unique",
                               "--newton-tol", "1e-9"])
    assert first.verify_unique and first.newton_tol == 1e-9
    plain = parser.parse_args(["solve", "--config", "b.json"])
    assert (plain.config, plain.verify_unique, plain.newton_tol, plain.out_dir) \
        == ("b.json", False, None, None)
    su3 = parser.parse_args(["verify-su3", "--perturb"])
    assert su3.perturb and su3.func is cli.cmd_verify_su3
    after = parser.parse_args(["solve", "--config", "c.json"])
    assert vars(after) == dict(vars(plain), config="c.json")
    assert not hasattr(after, "perturb") and after.func is cli.cmd_solve


def test_cli_manufactured(capsys):
    rc = cli.main(["manufactured", "--grid", "16", "--qdiag", "-1",
                   "--newton-tol", "1e-8"])
    assert rc == 0
    assert "manufactured solution recovered" in capsys.readouterr().out


def test_cli_study(capsys):
    rc = cli.main(["study", "--sizes", "16,32"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "second-order window" in out
    assert cli.main(["study", "--sizes", "16"]) == 1
    assert "ConfigError" in capsys.readouterr().err
