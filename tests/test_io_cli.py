"""Field file format round trips and end-to-end command line runs."""

import json
import math
import os
import time

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


def test_cli_verify_algebra_file_mode(capsys):
    path = os.path.join(REPO, "src", "hktsolve", "data", "su3_brackets.txt")
    assert cli.main(["verify-algebra", "--file", path]) == 0
    assert "Jacobi identity" in capsys.readouterr().out


def test_cli_verify_algebra_errors(capsys):
    assert cli.main(["verify-algebra", "--name", "nosuch"]) == 1
    assert "ConfigError" in capsys.readouterr().err
    assert cli.main(["verify-algebra", "--param", "c"]) == 1
    assert "key=value" in capsys.readouterr().err


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


@pytest.mark.parametrize("extra", [
    {"grid": {"dims": "abc"}},
    {"continuity": {"newton_tol": "small"}},
    {"q": {"matrix": [[-1, 0], [0]]}},
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
    {"forcing": {"type": "zero", "amplitude": float("nan")}},
])
def test_cli_solve_malformed_values(tmp_path, capsys, extra):
    bad = _write_config(tmp_path / "bad.json", **extra)
    assert cli.main(["solve", "--config", str(bad)]) == 1
    assert "error: ConfigError:" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_number_refuses_non_finite_floats_by_name(value):
    with pytest.raises(ConfigError, match="^forcing width must be a finite number"):
        cli._number("forcing width", value, float)


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
def test_run_config_parses_or_raises_config_errors(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("cfg") / "run.json"
    path.write_text(json.dumps(cfg))
    try:
        _cfg, problem, ccfg = cli._load_run_config(str(path))
    except (ConfigError, ShapeMismatch):
        return
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
    # every forcing number that was read is finite
    forcing = cfg.get("forcing", {})
    read = ("amplitude", "width") if forcing.get("type") == "bump" else ("amplitude",)
    assert all(math.isfinite(forcing.get(key, 1.0)) for key in read)


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
