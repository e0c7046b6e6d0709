"""Outside-in tracing of hktsolve for the benchmark's traced run.

Each traced function is wrapped here, in the benchmark, and the wrapper
is put into every hktsolve namespace that holds the original, so a
caller that looks the name up in its own module (``elliptic_solver.
gradient_nd``, ``continuity_driver.solve_at_t``) reaches the wrapper.
Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, task, extra, error]``: parent is
the index of the enclosing span (-1 at the top), task the id of the
benchmark task that ran it, extra a per-boundary value (bytes computed
by a kernel, GMRES ``info``), error the exception type name if the call
raised.  Spans stay in memory until the run ends.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, TASK, EXTRA, ERROR = range(7)

# (module, attribute, span name) of the traced module-level functions
FUNCTIONS = (
    ("lie_frame", "check_jacobi", "lie_frame.check_jacobi"),
    ("lie_frame", "build_complex_frame", "lie_frame.build_complex_frame"),
    ("lie_frame", "check_hypercomplex", "lie_frame.check_hypercomplex"),
    ("lie_frame", "check_foliation", "lie_frame.check_foliation"),
    ("hkt_symbolic", "reduce_ratio", "hkt_symbolic.reduce_ratio"),
    ("kernels", "laplacian_nd", "kernels.laplacian_nd"),
    ("kernels", "gradient_nd", "kernels.gradient_nd"),
    ("elliptic_solver", "residual", "elliptic_solver.residual"),
    ("elliptic_solver", "newton_step", "elliptic_solver.newton_step"),
    ("elliptic_solver", "_solve_bordered", "elliptic_solver.linear_solve"),
    ("elliptic_solver", "solve_at_t", "elliptic_solver.solve_at_t"),
    ("continuity_driver", "run_continuity", "continuity_driver.run_continuity"),
    ("continuity_driver", "basicness_check", "continuity_driver.basicness_check"),
    ("gridio", "write_field", "gridio.write_field"),
    ("gridio", "read_field", "gridio.read_field"),
    ("cli", "main", "cli.main"),
)
# (module, factory, span name): the factory returns a LinearOperator whose
# applications are the spans
OPERATORS = (
    ("elliptic_solver", "bordered_operator", "elliptic_solver.matvec"),
    ("elliptic_solver", "shifted_inverse_preconditioner", "elliptic_solver.precond"),
)
QQI_OPS = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__")

# the per-layer metrics of one task, in report order, with units
LAYER_METRICS = (
    ("lie_frame.check_jacobi.s", "s"),
    ("lie_frame.build_complex_frame.s", "s"),
    ("lie_frame.check_hypercomplex.s", "s"),
    ("lie_frame.check_foliation.s", "s"),
    ("hkt_symbolic.reduce_ratio.s", "s"),
    ("hkt_symbolic.reduce_ratio.calls", "count"),
    ("exact.qqi_ops", "count"),
    ("kernels.laplacian_nd.calls", "count"),
    ("kernels.laplacian_nd.s", "s"),
    ("kernels.gradient_nd.calls", "count"),
    ("kernels.gradient_nd.s", "s"),
    ("kernels.bytes_computed", "bytes"),
    ("elliptic_solver.residual.calls", "count"),
    ("elliptic_solver.residual.s", "s"),
    ("elliptic_solver.matvec.calls", "count"),
    ("elliptic_solver.matvec.s", "s"),
    ("elliptic_solver.precond.calls", "count"),
    ("elliptic_solver.precond.s", "s"),
    ("elliptic_solver.gmres.calls", "count"),
    ("elliptic_solver.gmres.s", "s"),
    ("elliptic_solver.gmres.stagnations", "count"),
    ("elliptic_solver.dense_fallback.calls", "count"),
    ("elliptic_solver.dense_fallback.s", "s"),
    ("elliptic_solver.newton_step.calls", "count"),
    ("elliptic_solver.newton_step.s", "s"),
    ("elliptic_solver.line_search.halvings", "count"),
    ("continuity_driver.attempts", "count"),
    ("continuity_driver.rejected", "count"),
    ("continuity_driver.rejected.s", "s"),
    ("continuity_driver.useful_ratio", "ratio"),
    ("continuity_driver.basicness_check.s", "s"),
    ("gridio.write_field.s", "s"),
    ("gridio.write_field.bytes", "bytes"),
    ("gridio.read_field.s", "s"),
    ("cli.main.s", "s"),
)
# metrics that must repeat exactly from task to task and run to run
EXACT_COUNTS = tuple(name for name, unit in LAYER_METRICS
                     if unit in ("count", "bytes"))


def _kernel_bytes(args, out):
    # computed, not measured: the field read once plus the result written
    return args[0].nbytes + out.nbytes


def _file_bytes(args, out):
    return os.path.getsize(args[0])


def _gmres_info(args, out):
    return int(out[1])


EXTRAS = {
    "kernels.laplacian_nd": _kernel_bytes,
    "kernels.gradient_nd": _kernel_bytes,
    "gridio.write_field": _file_bytes,
    "elliptic_solver.gmres": _gmres_info,
}


class _ModuleView:
    """A module seen through one replaced attribute."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans while ``task`` is set; installs and removes wrappers."""

    def __init__(self):
        self.spans = []
        self.task = None
        self.qqi_ops = defaultdict(int)
        self._stack = []
        self._restore = []

    def wrap(self, name, fn):
        spans, stack, extra = self.spans, self._stack, EXTRAS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if extra is not None:
                rec[EXTRA] = extra(args, out)
            return out

        return traced

    def _count(self, fn):
        counts = self.qqi_ops

        @functools.wraps(fn)
        def counted(*args):
            if self.task is not None:
                counts[self.task] += 1
            return fn(*args)

        return counted

    def _set(self, obj, attr, value):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _patch_everywhere(self, orig, attr, new):
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if (name == "hktsolve" or name.startswith("hktsolve.")) and \
                    getattr(mod, attr, None) is orig:
                self._set(mod, attr, new)

    def install(self):
        """Put the wrappers into every hktsolve namespace."""
        # imported here: run.py reads this module's metric names without
        # loading numpy or scipy
        import importlib

        import scipy.sparse.linalg as spla

        def module(short):
            return importlib.import_module("hktsolve." + short)

        for short, attr, name in FUNCTIONS:
            orig = getattr(module(short), attr)
            self._patch_everywhere(orig, attr, self.wrap(name, orig))

        def traced_factory(factory, name):
            @functools.wraps(factory)
            def build(*args, **kwargs):
                op = factory(*args, **kwargs)
                return spla.LinearOperator(op.shape, dtype=op.dtype,
                                           matvec=self.wrap(name, op.matvec))
            return build

        for short, attr, name in OPERATORS:
            orig = getattr(module(short), attr)
            self._patch_everywhere(orig, attr, traced_factory(orig, name))

        solver = module("elliptic_solver")
        self._set(solver, "spla", _ModuleView(
            solver.spla, gmres=self.wrap("elliptic_solver.gmres", spla.gmres)))

        qqi = module("exact").QQi
        for attr in QQI_OPS:
            self._set(qqi, attr, self._count(qqi.__dict__[attr]))
        return self

    def uninstall(self):
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    def write(self, path):
        """Write every span, one JSON array per line after a header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent",
                                            "task", "extra", "error"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def task_metrics(self):
        """Per-layer metrics of each traced task: {task: {metric: value}}."""
        spans = self.spans
        covered = [0.0] * len(spans)
        children = defaultdict(list)
        for i, rec in enumerate(spans):
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[END] - rec[START]
                children[rec[PARENT]].append(i)

        def self_s(i):
            return spans[i][END] - spans[i][START] - covered[i]

        tasks = sorted({rec[TASK] for rec in spans} | set(self.qqi_ops))
        out = {t: {name: 0 for name, _ in LAYER_METRICS} for t in tasks}
        attempt_s = {t: [0.0, 0.0] for t in tasks}  # accepted, all
        for i, rec in enumerate(spans):
            name, m = rec[NAME], out[rec[TASK]]
            if name + ".calls" in m:
                m[name + ".calls"] += 1
            if name + ".s" in m:
                m[name + ".s"] += self_s(i)
            if name.startswith("kernels."):
                m["kernels.bytes_computed"] += rec[EXTRA] or 0
            elif name == "gridio.write_field":
                m["gridio.write_field.bytes"] += rec[EXTRA] or 0
            elif name == "elliptic_solver.linear_solve":
                _linear_solve(m, rec, [spans[c] for c in children[i]])
            elif name == "elliptic_solver.newton_step":
                _line_search(m, rec, [spans[c] for c in children[i]])
            elif name == "elliptic_solver.solve_at_t" and rec[PARENT] >= 0 and \
                    spans[rec[PARENT]][NAME] == "continuity_driver.run_continuity":
                seconds = rec[END] - rec[START]
                m["continuity_driver.attempts"] += 1
                attempt_s[rec[TASK]][1] += seconds
                if rec[ERROR]:
                    m["continuity_driver.rejected"] += 1
                    m["continuity_driver.rejected.s"] += seconds
                else:
                    attempt_s[rec[TASK]][0] += seconds
        for t in tasks:
            out[t]["exact.qqi_ops"] = self.qqi_ops[t]
            useful, total = attempt_s[t]
            # with no attempt nothing was thrown away
            out[t]["continuity_driver.useful_ratio"] = useful / total if total else 1.0
        return out


def _linear_solve(m, rec, kids):
    """GMRES stagnations and the dense fallback of one bordered solve.

    After GMRES, a solve with info 0 applies the operator once to check
    the residual; any further application builds the dense matrix.
    """
    gmres = next((k for k in kids if k[NAME] == "elliptic_solver.gmres"), None)
    if gmres is None:
        return
    after = [k for k in kids
             if k[NAME] == "elliptic_solver.matvec" and k[START] >= gmres[END]]
    check = 1 if gmres[EXTRA] == 0 else 0
    fallback = after[check:]
    if gmres[EXTRA] != 0 or fallback or rec[ERROR]:
        m["elliptic_solver.gmres.stagnations"] += 1
    if fallback:
        m["elliptic_solver.dense_fallback.calls"] += 1
        m["elliptic_solver.dense_fallback.s"] += rec[END] - fallback[0][START] - \
            sum(k[END] - k[START] for k in fallback)


def _line_search(m, rec, kids):
    """Residual trials beyond the accepted one; the first residual is the
    step's starting point, not a trial."""
    trials = sum(1 for k in kids if k[NAME] == "elliptic_solver.residual") - 1
    accepted = rec[ERROR] in (None, "BPositivityLost")
    m["elliptic_solver.line_search.halvings"] += max(trials - 1 if accepted else trials, 0)
