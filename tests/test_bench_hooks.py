"""The benchmark's tracer patches hktsolve by name; every name must resolve."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import scipy.sparse.linalg

import hktsolve.elliptic_solver as es
from hktsolve.lie_frame import build_complex_frame, check_hypercomplex, check_jacobi

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_module(name):
    path = os.path.join(REPO, "hktbench", name + ".py")
    spec = importlib.util.spec_from_file_location("hktbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _bench_module("tracing")
    for short, attr, _span in tracing.FUNCTIONS + tracing.OPERATORS:
        module = importlib.import_module("hktsolve." + short)
        assert callable(getattr(module, attr, None)), "hktsolve.%s.%s" % (short, attr)


def test_gmres_is_reached_through_spla():
    assert es.spla is scipy.sparse.linalg


def test_tracer_sees_the_solver_layers(tmp_path, capsys):
    # the benchmark's per-layer metrics rest on these span shapes
    from hktsolve import cli

    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "grid": {"dims": [16, 16]},
        "forcing": {"type": "bump", "amplitude": 1.0, "width": 1.0},
        "q": {"matrix": [[-1.0, 0.0], [0.0, -1.0]]},
        "continuity": {"newton_tol": 1e-10},
    }))
    tracer = _bench_module("tracing").Tracer().install()
    try:
        tracer.task = 0
        code = cli.main(["solve", "--config", str(config),
                         "--out-dir", str(tmp_path / "out")])
    finally:
        tracer.task = None
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0

    spans = tracer.spans
    steps = [i for i, rec in enumerate(spans)
             if rec[0] == "elliptic_solver.newton_step"]
    assert steps
    for i in steps:
        # the line-search count takes the first residual as the starting point
        first = next(rec for rec in spans if rec[3] == i)
        assert first[0] == "elliptic_solver.residual"
    metrics = tracer.task_metrics()[0]
    assert metrics["elliptic_solver.precond.calls"] > 0
    assert metrics["elliptic_solver.matvec.calls"] > 0
    # the t = 0 row is the trivial pair, recorded without a solve
    assert metrics["continuity_driver.attempts"] == 1


def test_real_checks_do_no_qqi_arithmetic(frames):
    # exact.qqi_ops counts the complexified frame's work only: the Jacobi
    # and Nijenhuis checks run on Fractions
    tracer = _bench_module("tracing").Tracer().install()
    try:
        for frame in frames.values():
            tracer.task = 0
            check_jacobi(frame.spec.sc, strict=True)
            check_hypercomplex(frame, strict=True)
            tracer.task = 1
            build_complex_frame(frame.spec)
    finally:
        tracer.task = None
        tracer.uninstall()
    assert tracer.qqi_ops[0] == 0
    assert tracer.qqi_ops[1] > 0


def test_benchmark_certifies_su3_q(monkeypatch):
    # the su3 workload's one library call: check_*, build_complex_frame and
    # reduce_ratio must keep handing the solver exactly -4 I
    monkeypatch.syspath_prepend(os.path.join(REPO, "hktbench"))
    q = _bench_module("workloads").su3_quadratic_form()
    assert np.array_equal(q, -4.0 * np.eye(4))


def test_benchmark_smoke():
    # the benchmark's own self-check at reduced sizes, a few seconds
    done = subprocess.run([sys.executable, os.path.join("hktbench", "smoke.py")],
                          cwd=REPO, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_solve_leaves_scipy_fft_unloaded(tmp_path):
    # importing scipy.fft costs about 0.07 s, a quarter of the benchmark's setup_s
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "grid": {"dims": [8, 8]},
        "forcing": {"type": "bump", "amplitude": 1.0, "width": 1.0},
        "q": {"matrix": [[-1.0, 0.0], [0.0, -1.0]]},
    }))
    script = (
        "import sys, hktsolve.cli\n"
        "code = hktsolve.cli.main(['solve', '--config', sys.argv[1],"
        " '--out-dir', sys.argv[2]])\n"
        "assert code == 0, code\n"
        "assert 'scipy.fft' not in sys.modules, 'scipy.fft was imported'\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    done = subprocess.run([sys.executable, "-c", script, str(config),
                           str(tmp_path / "out")],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_verify_leaves_the_numeric_half_unloaded():
    # scipy.sparse.linalg is most of the import time of hktsolve.cli, and
    # verify-* never solves
    script = (
        "import sys, hktsolve.cli\n"
        "code = hktsolve.cli.main(['verify-su3'])\n"
        "assert code == 0, code\n"
        "assert 'scipy.sparse.linalg' not in sys.modules, "
        "'scipy.sparse.linalg was imported'\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    done = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
