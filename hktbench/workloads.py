"""The benchmark's workloads: how each builds its inputs, runs one task
through the real entry points, and checks what the task produced.

A task is what a user of hktsolve runs: ``hktsolve.cli.main([...])`` with
stdout captured.  The one library call is the su3 reduction whose Q is
handed to the solver, since no entry point passes Q between the halves.
The program under test receives only the inputs built here.
"""

import contextlib
import io
import json
import os
import re
from dataclasses import dataclass

import numpy as np

from hktsolve import algebras, cli, gridio, hkt_symbolic, lie_frame
from hktsolve.continuity_driver import sine_product_field
from hktsolve.elliptic_solver import TorusGrid

from calibration import Calibration

NEWTON_TOL = 1e-10
# the slack `hktsolve solve --verify-unique` allows between two solutions
B_SLACK = 100.0 * NEWTON_TOL
MEAN_TOL = 1e-12
# semidirect8's w is drawn from here; its Q is -16 I for every w
W_CHOICES = ("1/2", "2/3", "1", "3/2", "2", "5/2", "3")


@dataclass(frozen=True)
class SolveSpec:
    """A `hktsolve solve` run on a periodic grid.

    ``qdiag`` None means Q comes from the su3 reduction inside the task.
    """
    dims: tuple
    forcing: str
    amplitude: float
    qdiag: object
    b_ref: float


@dataclass(frozen=True)
class RegistrySpec:
    """`verify-*` commands, with the eigenvalue each printed Q must have
    (None for `verify-su3`, which prints no eigenvalues)."""
    commands: tuple


SPECS = {
    "bump2d-512": SolveSpec((512, 512), "bump", 1.0, -1.0, 0.73252862263945),
    "su3-4d-20": SolveSpec((20, 20, 20, 20), "bump", 1.0, None,
                           0.6106650036029391),
    "registry-certify": RegistrySpec((
        (("verify-su3",), None),
        (("verify-algebra", "--name", "semidirect8", "--param", "c=2",
          "--param", "w={w}"), -16.0),
        (("verify-algebra", "--name", "semidirect12"), -4.0),
        (("verify-algebra", "--name", "nilpotent8"), 0.0),
    )),
    "hard-sine44": SolveSpec((44, 44), "sine", 6.0, -60.0, 0.00370654070996),
}


def _bump(grid, amplitude, axes):
    """The CLI's bump forcing with width 1, varying along ``axes`` only."""
    acc = np.zeros(grid.dims)
    for ax in axes:
        x = grid.coords(ax)
        shape = [1] * grid.ndim
        shape[ax] = grid.dims[ax]
        acc = acc + (np.cos(2.0 * np.pi * x / grid.lengths[ax]) - 1.0).reshape(shape)
    return amplitude * np.exp(acc)


def _captured(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _read_field(path):
    """Parse a field file without the program's own reader."""
    with open(path, "rb") as fh:
        raw = fh.read()
    cut = raw.index(b"\n")
    dims = json.loads(raw[:cut])["dims"]
    return np.frombuffer(raw[cut + 1:], dtype="<f8").reshape(dims)


def su3_quadratic_form():
    """Certify su3 and return the real Q of its reduced operator."""
    spec = algebras.su3()
    lie_frame.check_jacobi(spec.sc, strict=True)
    frame = lie_frame.build_complex_frame(spec)
    lie_frame.check_hypercomplex(frame, strict=True)
    lie_frame.check_foliation(frame, strict=True)
    return hkt_symbolic.reduce_ratio(frame).real_quadratic_matrix()


class SolveWorkload:
    """One task is one `hktsolve solve`, preceded for su3 by certifying Q.

    The seed translates the forcing by a whole number of cells per
    varying axis; the periodic discrete problem is translation
    equivariant, so b_ref and every gate hold for every seed.
    """

    def __init__(self, spec, seed, work_dir):
        self.spec = spec
        self.out_dir = os.path.join(work_dir, "out")
        grid = TorusGrid(spec.dims)
        axes = (0, 1)  # the forcing varies along the first two axes only
        if spec.forcing == "bump":
            forcing = _bump(grid, spec.amplitude, axes)
        else:
            forcing = sine_product_field(grid, spec.amplitude)
        rng = np.random.default_rng(seed)
        self.shift = tuple(int(rng.integers(spec.dims[ax])) for ax in axes)
        forcing = np.roll(forcing, self.shift, axis=axes)
        self.forcing_path = os.path.join(work_dir, "forcing.field")
        gridio.write_field(self.forcing_path, forcing, grid.lengths)
        self.config_path = os.path.join(work_dir, "solve.json")
        if spec.qdiag is not None:
            self._write_config(spec.qdiag * np.eye(grid.ndim))

    def describe(self):
        return "grid %s, %s forcing shifted by %s cells" % (
            "x".join(map(str, self.spec.dims)), self.spec.forcing, self.shift)

    def _write_config(self, q):
        cfg = {
            "grid": {"dims": list(self.spec.dims)},
            "forcing": {"file": self.forcing_path},
            "q": {"matrix": np.asarray(q).tolist()},
            "continuity": {"newton_tol": NEWTON_TOL},
        }
        with open(self.config_path, "w") as fh:
            json.dump(cfg, fh)

    def clear_outputs(self):
        if os.path.isdir(self.out_dir):
            for name in os.listdir(self.out_dir):
                os.remove(os.path.join(self.out_dir, name))

    def run(self):
        q = None
        if self.spec.qdiag is None:
            q = su3_quadratic_form()
            self._write_config(q)
        code, text = _captured(["solve", "--config", self.config_path,
                                "--out-dir", self.out_dir])
        return {"codes": [code], "stdout": text, "q": q}

    def check(self, result):
        """Return the list of failed gates; empty when the task is correct."""
        fails = []
        if result["codes"] != [0]:
            return ["exit status %s" % result["codes"]]
        q = result["q"]
        if self.spec.qdiag is None and not np.array_equal(q, -4.0 * np.eye(4)):
            fails.append("su3 Q is not exactly -4 I: %r" % (q,))
        with open(os.path.join(self.out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        if summary["b_bound_ok"] is not True:
            fails.append("b_bound_ok is not true")
        if not summary["residual_norm"] <= NEWTON_TOL:
            fails.append("residual %.3e above newton_tol" % summary["residual_norm"])
        if not abs(summary["b"] - self.spec.b_ref) <= B_SLACK:
            fails.append("b=%.17g, b_ref=%.17g" % (summary["b"], self.spec.b_ref))
        phi = _read_field(os.path.join(self.out_dir, "phi.field"))
        if not abs(float(np.mean(phi))) <= MEAN_TOL:
            fails.append("mean(phi)=%.3e" % float(np.mean(phi)))
        if self.spec.qdiag is None and \
                summary.get("basicness", {}).get("passed") is not True:
            fails.append("basicness report did not pass: %r"
                         % summary.get("basicness"))
        return fails


class RegistryWorkload:
    """One task certifies every listed algebra through `verify-*`."""

    def __init__(self, spec, seed, work_dir):
        rng = np.random.default_rng(seed)
        self.w = W_CHOICES[int(rng.integers(len(W_CHOICES)))]
        self.commands = [(tuple(a.format(w=self.w) for a in argv), eig)
                         for argv, eig in spec.commands]

    def describe(self):
        return "semidirect8 w=%s" % self.w

    def clear_outputs(self):
        pass

    def run(self):
        codes, texts = [], []
        for argv, _ in self.commands:
            code, text = _captured(argv)
            codes.append(code)
            texts.append(text)
        return {"codes": codes, "stdout": texts}

    def check(self, result):
        fails = []
        for (argv, eig), code, text in zip(self.commands, result["codes"],
                                           result["stdout"]):
            name = " ".join(argv)
            if code != 0:
                fails.append("%s: exit status %s" % (name, code))
            elif eig is None:
                if "all golden identities verified" not in text:
                    fails.append("%s: no verification line" % name)
            else:
                m = re.search(r"eigenvalues: \[([^\]]*)\]", text)
                vals = [float(v) for v in m.group(1).split()] if m else []
                if len(vals) != 4 or any(abs(v - eig) > 1e-9 for v in vals):
                    fails.append("%s: eigenvalues %r, want 4 x %g"
                                 % (name, vals, eig))
        return fails


def calibration(spec):
    """The calibration loop matched to a spec's work."""
    if isinstance(spec, RegistrySpec):
        return Calibration(None, "registry")
    return Calibration(spec.dims, "su3" if spec.qdiag is None else "none")


def make(spec, seed, work_dir):
    """The workload object for a spec; builds its inputs under work_dir."""
    os.makedirs(work_dir, exist_ok=True)
    if isinstance(spec, RegistrySpec):
        return RegistryWorkload(spec, seed, work_dir)
    return SolveWorkload(spec, seed, work_dir)
