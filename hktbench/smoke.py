"""Smoke test of the benchmark itself, at reduced sizes (a few seconds).

    python3 hktbench/smoke.py

Runs every workload's gates once untraced and once traced on small
grids, times each one's calibration loop after a task, shows that a wrong b_ref and a corrupted su3 bracket table are
counted as failed tasks without stopping the run, checks the trace's
derived counts on hand-made spans, and checks that the benchmark exits
non-zero without printing a result when the hktsolve sources are absent.
Exits 0 when every check passes.
"""

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import worker  # noqa: E402

worker.import_hktsolve()

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# b at these sizes, measured on the unshifted forcing
SMALL = {
    "bump2d-64": workloads.SolveSpec((64, 64), "bump", 1.0, -1.0, 0.7326275065261898),
    "su3-4d-8": workloads.SolveSpec((8, 8, 8, 8), "bump", 1.0, None, 0.6199974526452176),
    "registry-su3": workloads.RegistrySpec(((("verify-su3",), None),)),
    "sine-16": workloads.SolveSpec((16, 16), "sine", 6.0, -60.0, 0.003784487713625546),
}
WRONG_B = workloads.SolveSpec((64, 64), "bump", 1.0, -1.0, 0.7326275065261898 + 1e-6)
PERTURBED = workloads.RegistrySpec(((("verify-su3", "--perturb"), None),))
# layer counts each small workload must show in its trace
MUST_COUNT = {
    "bump2d-64": ("elliptic_solver.matvec.calls", "elliptic_solver.precond.calls",
                  "elliptic_solver.newton_step.calls", "kernels.laplacian_nd.calls",
                  "continuity_driver.attempts", "gridio.write_field.bytes"),
    "su3-4d-8": ("exact.qqi_ops", "hkt_symbolic.reduce_ratio.calls",
                 "elliptic_solver.gmres.calls", "kernels.bytes_computed"),
    "registry-su3": ("exact.qqi_ops", "hkt_symbolic.reduce_ratio.calls"),
    "sine-16": ("elliptic_solver.line_search.halvings", "elliptic_solver.residual.calls"),
}

failures = []


def check(cond, label):
    print("%s: %s" % ("ok" if cond else "FAIL", label))
    if not cond:
        failures.append(label)


def run_once(name, spec, seed, tracer=None, between=None):
    work_dir = os.path.join(worker.OUT_DIR, "smoke-" + name)
    try:
        return worker.run_tasks(workloads.make(spec, seed, work_dir), 0, tracer,
                                between)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def gates():
    for seed, (name, spec) in enumerate(SMALL.items()):
        tracer = Tracer()
        times, traced, fails = run_once(name, spec, seed, tracer)
        check(len(times) == len(traced) == 1 and not fails,
              "%s gates pass untraced and traced (seed %d) %s" % (name, seed, fails))
        metrics = tracer.task_metrics()[0]
        check(set(metrics) == {m for m, _ in tracing.LAYER_METRICS},
              "%s trace reports every per-layer metric" % name)
        zero = [m for m in MUST_COUNT[name] if not metrics[m] > 0]
        check(not zero, "%s trace counts its layers %s" % (name, zero))
        cal = workloads.calibration(spec)
        loops = []
        times, _, fails = run_once(name, spec, seed,
                                   between=lambda: loops.append(cal.measure()))
        check(len(loops) == len(times) == 1 and loops[0] > 0 and not fails,
              "%s calibration loop timed after each task" % name)


def negatives():
    times, _, fails = run_once("wrong-b", WRONG_B, 0)
    check(len(fails) == len(times) == 1 and "b_ref" in fails[0],
          "a wrong b_ref fails the task without stopping the run")
    times, _, fails = run_once("perturbed", PERTURBED, 0)
    check(len(fails) == len(times) == 1 and "exit status" in fails[0],
          "verify-su3 --perturb fails the task without stopping the run")


def span(name, start, end, parent=-1, extra=None, error=None):
    return [name, float(start), float(end), parent, 0, extra, error]


def derived_counts():
    """Stagnation, dense fallback, halvings and attempts on known spans."""
    t = Tracer()
    t.spans = [
        span("continuity_driver.run_continuity", 0, 100),        # 0
        span("elliptic_solver.solve_at_t", 0, 10, 0),            # 1 accepted
        span("elliptic_solver.solve_at_t", 10, 90, 0, None, "DampingExhausted"),
        span("elliptic_solver.newton_step", 11, 89, 2, None, "DampingExhausted"),
        span("elliptic_solver.residual", 11, 12, 3),
        span("elliptic_solver.linear_solve", 12, 80, 3),         # 5
        span("elliptic_solver.gmres", 12, 40, 5, 0),
        span("elliptic_solver.matvec", 41, 42, 5),               # residual check
        span("elliptic_solver.matvec", 43, 44, 5),               # dense columns
        span("elliptic_solver.matvec", 45, 46, 5),
        span("elliptic_solver.residual", 81, 82, 3),
        span("elliptic_solver.residual", 83, 84, 3),
        span("elliptic_solver.solve_at_t", 90, 100, 0),          # accepted
        span("elliptic_solver.newton_step", 90, 99, 12),
        span("elliptic_solver.residual", 90, 91, 13),
        span("elliptic_solver.linear_solve", 91, 95, 13),
        span("elliptic_solver.gmres", 91, 94, 15, 0),
        span("elliptic_solver.matvec", 94, 95, 15),
        span("elliptic_solver.residual", 95, 96, 13),
        span("elliptic_solver.residual", 96, 97, 13),
        span("elliptic_solver.residual", 97, 98, 13),
    ]
    m = t.task_metrics()[0]
    want = {
        "elliptic_solver.gmres.calls": 2,
        "elliptic_solver.gmres.stagnations": 1,
        "elliptic_solver.dense_fallback.calls": 1,
        "elliptic_solver.dense_fallback.s": 80 - 43 - 2,
        "elliptic_solver.line_search.halvings": 2 + 2,
        "elliptic_solver.matvec.calls": 4,
        "continuity_driver.attempts": 3,
        "continuity_driver.rejected": 1,
        "continuity_driver.rejected.s": 80,
        "continuity_driver.useful_ratio": 20 / 100,
    }
    got = {k: m[k] for k in want}
    check(got == want, "derived counts on hand-made spans %s" % got)


def bare_directory():
    """Without src/, run.py exits non-zero and prints no result."""
    bare = os.path.join(worker.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                    os.path.join(bare, "hktbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run([sys.executable, "hktbench/run.py", "--workload",
                               "registry-certify", "--seed", "0", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the sources the benchmark exits %d and prints no result"
          % proc.returncode)


if __name__ == "__main__":
    gates()
    negatives()
    derived_counts()
    bare_directory()
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)
