"""The hktsolve benchmark.

    python3 hktbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.SPECS`` or ``all``.  With
``--trace 0`` it prints, per workload, the end-to-end metrics ``task_s``,
``setup_s``, ``fail_ratio`` and ``peak_rss_mb`` (the two times put on the
scale of a host of fixed speed by ``calibration.py``, next to the raw
wall times); with ``--trace 1`` the
per-layer metrics of a traced run and the tracing overhead.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; its metrics leave out those in
``PRINTED_ONLY``.  See ``hktbench/README.md``.

Each workload runs in processes of its own, pinned to one BLAS/OpenMP
thread.  This process imports neither hktsolve nor numpy.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (stdlib only)

WORKLOADS = ("bump2d-512", "su3-4d-20", "registry-certify", "hard-sine44")
# A run splits its seconds over MEASURING processes, one after another,
# and pools their task times: a process's memory layout and CPU
# placement slow or speed all of its tasks alike, so one process per run
# would make the run's median move with that draw.  Before each measuring
# process one more process only sets up; setup_s is the median over all,
# so its samples are spread over the whole run.
MEASURING = 4
# Wall seconds of each workload's calibration loop (calibration.py) on
# the 2-vCPU Xeon (Sapphire Rapids) VM the benchmark was defined on, in a
# fast stretch of its shared host.  task_s and setup_s are wall times
# divided by the loop time measured beside them, times this: seconds on
# a host of that speed.
NOMINAL_CAL_S = {"bump2d-512": 0.049, "su3-4d-20": 0.072,
                 "registry-certify": 0.045, "hard-sine44": 0.090}
# printed, but not in the JSON line: fail_ratio is carried by "failed"
# and "attempted"; the trace's stagnation, fallback, halving and rejection
# figures are 0 on every workload but hard-sine44; the tracing overhead
# is a difference of two medians and changes sign
PRINTED_ONLY = frozenset((
    "fail_ratio",
    "elliptic_solver.gmres.stagnations",
    "elliptic_solver.dense_fallback.calls",
    "elliptic_solver.dense_fallback.s",
    "elliptic_solver.line_search.halvings",
    "continuity_driver.rejected",
    "continuity_driver.rejected.s",
    "trace.overhead_s",
))
# a workload's processes must all end within this many seconds
DEADLINE_S = 170.0
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class WorkerFailed(Exception):
    pass


class DeadlineOverrun(WorkerFailed):
    pass


def _worker(workload, seed, seconds, mode, deadline):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **ONE_THREAD),
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise DeadlineOverrun("%s worker for %s ran past the deadline"
                              % (mode, workload))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise WorkerFailed("%s worker for %s exited with %d"
                           % (mode, workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values):
    if len(values) < 2:
        return "one sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return "quartiles %.4f-%.4f, range %.4f-%.4f" % (q1, q3, min(values), max(values))


def measure(workload, seed, seconds):
    """End-to-end metrics of one workload, with tracing off."""
    deadline = time.monotonic() + DEADLINE_S
    setups, times, ratios, cals, failures, rss = [], [], [], [], [], []
    attempted = elapsed = 0
    for left in range(MEASURING, 0, -1):
        probe = _worker(workload, seed, 0, "setup", deadline)
        setups.append((probe["setup_s"], probe["setup_cal_s"]))
        # a process overruns its share by part of a task; the next ones
        # get less, so the run's timed loops take about `seconds` in all
        res = _worker(workload, seed, max(seconds - elapsed, 0.0) / left, "plain",
                      deadline)
        elapsed += res["loop_s"]
        setups.append((res["setup_s"], res["setup_cal_s"]))
        times += res["task_s"]
        cals += res["task_cal_s"]
        ratios += [t / c for t, c in zip(res["task_s"], res["task_cal_s"])]
        attempted += res["attempted"]
        failures += res["failures"]
        rss.append(res["peak_rss_mb"])
    failed = len(failures)
    nominal = NOMINAL_CAL_S[workload]
    print("== %s (seed %d): %s" % (workload, seed, res["inputs"]))
    print("   env: %s" % ", ".join("%s=%s" % kv for kv in probe["env"].items()))
    for msg in failures:
        print("   FAILED: %s" % msg.strip().splitlines()[-1])
    print("   calibration loop: median %.4f s beside the tasks, nominal %.4f s"
          % (statistics.median(cals), nominal))
    print("   wall, not rescaled: task median %.4f s (%s), set-up median %.4f s"
          % (statistics.median(times), _spread(times),
             statistics.median(s for s, _ in setups)))
    metrics = {
        "task_s": (nominal * statistics.median(ratios), "s",
                   "median of %d timed tasks in %d processes, each over its "
                   "calibration loop, times the nominal loop; one warm-up task "
                   "per process untimed" % (len(times), MEASURING)),
        "setup_s": (nominal * statistics.median(s / c for s, c in setups), "s",
                    "median of %d set-ups, rescaled alike" % len(setups)),
        "fail_ratio": (failed / attempted, "ratio",
                       "%d of %d tasks" % (failed, attempted)),
        "peak_rss_mb": (max(rss), "MB", "largest ru_maxrss of the measuring processes"),
    }
    for name, (value, unit, note) in metrics.items():
        print("   %-12s %12.6g %-5s (%s)" % (name, value, unit, note))
    return attempted, failed, True, {k: {"value": v, "unit": u}
                                     for k, (v, u, _) in metrics.items()}


def trace(workload, seed, seconds):
    """Per-layer metrics of one workload from a traced run, and the
    tracing overhead against the untraced tasks of the same run."""
    res = _worker(workload, seed, seconds, "traced", time.monotonic() + DEADLINE_S)
    untraced, traced = res["task_s"], res["traced_task_s"]
    print("== %s (seed %d, traced): %s" % (workload, seed, res["inputs"]))
    print("   %d untraced and %d traced tasks, alternating; %d failed"
          % (len(untraced), len(traced), len(res["failures"])))
    for msg in res["failures"]:
        print("   FAILED: %s" % msg.strip().splitlines()[-1])
    per_task = list(res["layers"].values())
    counts_repeat = all(all(m[k] == per_task[0][k] for k in tracing.EXACT_COUNTS)
                        for m in per_task)
    print("   counts identical across the %d traced tasks: %s"
          % (len(per_task), "yes" if counts_repeat else "NO"))
    metrics = {}
    for name, unit in tracing.LAYER_METRICS:
        value = statistics.fmean(m[name] for m in per_task)
        metrics[name] = {"value": value, "unit": unit}
    untraced_s = statistics.median(untraced)
    overhead = statistics.median(traced) - untraced_s
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for name, m in metrics.items():
        print("   %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print("   tracing overhead: %.4f s per task on %.4f s untraced (%.1f%%)"
          % (overhead, untraced_s, 100.0 * overhead / untraced_s))
    print("   rejected continuity attempts: %.1f%% of the traced task time"
          % (100.0 * metrics["continuity_driver.rejected.s"]["value"]
             / statistics.fmean(traced)))
    return len(untraced) + len(traced), len(res["failures"]), counts_repeat, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = trace if args.trace else measure
    attempted = failed = 0
    repeatable = True
    metrics = {}
    for name in names:
        try:
            a, f, r, m = run(name, args.seed, args.seconds)
        except WorkerFailed as exc:
            print("error: %s" % exc, file=sys.stderr)
            if len(names) == 1 or not isinstance(exc, DeadlineOverrun):
                return 1
            # with several workloads, an overrun fails this one workload
            # and keeps the others' results
            attempted += 1
            failed += 1
            continue
        attempted += a
        failed += f
        repeatable = repeatable and r
        m = {k: v for k, v in m.items() if k not in PRINTED_ONLY}
        if len(names) == 1:
            metrics = m
        else:
            metrics.update(("%s.%s" % (name, k), v) for k, v in m.items())
    print(json.dumps({"correct": failed == 0 and repeatable, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
