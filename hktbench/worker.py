"""One workload process of the hktsolve benchmark.

    python3 hktbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|plain|traced

Imports hktsolve from the ``src/`` directory beside this one and builds
the workload's inputs.  ``--mode setup`` stops there; ``plain`` runs one
untimed warm-up task, then one timed task at a time until S seconds have
passed, with the calibration loop timed before the first and after each;
``traced`` alternates untraced and traced tasks.  Every task is checked.
Prints one JSON object.  ``hktbench/run.py`` starts this with one
BLAS/OpenMP thread.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".hktbench")


def import_hktsolve():
    """Import the package from this checkout's sources, never elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hktsolve", "__init__.py")):
        raise SystemExit("hktsolve sources not found under %s" % SRC)
    sys.path.insert(0, SRC)
    import hktsolve
    if not os.path.abspath(hktsolve.__file__).startswith(SRC + os.sep):
        raise SystemExit("imported hktsolve from %s, not %s" % (hktsolve.__file__, SRC))
    return hktsolve


def run_tasks(wl, seconds, tracer=None, between=None):
    """Closed loop: start the next task only after the last one is checked,
    until ``seconds`` have passed.  ``between`` is called after each check.

    With a tracer, tasks alternate between untraced and traced, so both
    kinds sample the same stretch of the run, and there is at least one
    of each.  Returns the untraced task wall times, the traced ones, and
    the failures, one entry per failed task.
    """
    times, traced, failures = [], [], []
    least = 1 if tracer is None else 2
    begin = time.perf_counter()
    while len(times) + len(traced) < least or time.perf_counter() - begin < seconds:
        wl.clear_outputs()
        on = tracer is not None and len(times) > len(traced)
        if on:
            tracer.install()
            tracer.task = len(traced)
        started = time.perf_counter()
        try:
            result = wl.run()
        except Exception:
            result = None
            failures.append(traceback.format_exc())
        finally:
            (traced if on else times).append(time.perf_counter() - started)
            if on:
                tracer.task = None
                tracer.uninstall()
        if result is not None:
            try:
                fails = wl.check(result)
            except Exception:
                fails = [traceback.format_exc()]
            if fails:
                failures.append("; ".join(fails))
        if between is not None:
            between()
    return times, traced, failures


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import numba  # noqa: F401
        numba_state = "present"
    except ImportError:
        numba_state = "absent (numpy kernels run)"
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "numba": numba_state,
        "commit": commit,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"),
                        required=True)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import_hktsolve()
    import workloads
    if args.workload not in workloads.SPECS:
        raise SystemExit("unknown workload %r" % args.workload)
    work_dir = os.path.join(OUT_DIR, "work-%s-%d" % (args.workload, os.getpid()))
    try:
        wl = workloads.make(workloads.SPECS[args.workload], args.seed, work_dir)
        out = {"setup_s": time.perf_counter() - started,
               "inputs": wl.describe()}
        if args.mode == "traced":
            import tracing
            tracer = tracing.Tracer()
            times, traced, failures = run_tasks(wl, args.seconds, tracer)
            out.update(task_s=times, traced_task_s=traced, failures=failures,
                       layers=tracer.task_metrics())
            tracer.write(os.path.join(OUT_DIR, "spans-%s.jsonl" % args.workload))
        else:
            cal = workloads.calibration(workloads.SPECS[args.workload])
            out["setup_cal_s"] = cal.measure()
        if args.mode == "setup":
            out["env"] = environment()
        elif args.mode == "plain":
            _, _, failures = run_tasks(wl, 0)  # warm-up: checked, not timed
            cals = [cal.measure()]
            begin = time.perf_counter()
            times, _, more = run_tasks(wl, args.seconds,
                                       between=lambda: cals.append(cal.measure()))
            # each task is paired with the loops timed just before and after it
            out.update(loop_s=time.perf_counter() - begin, attempted=1 + len(times),
                       task_s=times, failures=failures + more,
                       task_cal_s=[(a + b) / 2.0 for a, b in zip(cals, cals[1:])])
        if args.mode != "setup":
            out["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
