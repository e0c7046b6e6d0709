"""Command line front end.

Subcommands:

* ``verify-su3``      run the exact symbolic pipeline on the built-in
                      golden algebra and check every identity
* ``verify-algebra``  same pipeline on a registry algebra, or a Jacobi
                      check on a structure-constant file
* ``solve``           continuity run from a JSON config
* ``manufactured``    recovery test against a chosen exact solution
* ``study``           grid convergence study

Every command is deterministic given its inputs and exits 0 only when
all of its declared checks pass.  The numeric half, and with it
scipy.sparse.linalg, is imported only by the commands that solve.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import algebras, gridio
from .errors import ConfigError, HktError
from .exact import QQi
from .hkt_symbolic import (
    Form,
    canonical_str,
    del_generator,
    del_holo,
    del_j_basic,
    form_add,
    p_const,
    quadratic_forms_closed,
    reality_check,
    reduce_ratio,
    standard_hkt_form,
)
from .lie_frame import (
    build_complex_frame,
    check_hypercomplex,
    check_jacobi,
    load_structure_constants,
    nijenhuis_pair_identities,
    parse_rational,
    relabel_spec,
)


def _say(line):
    print(line)


def _ok(label):
    _say("ok: %s" % label)


def _write_text(path, text):
    """Write text to path, with an OSError raised as ConfigError."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc)) from exc


# ---------------------------------------------------------------------------
# verify-su3


def _su3_golden_ratio():
    """The stored golden reduction polynomial for the built-in algebra."""
    poly = p_const(1)
    poly[(("h", 3, 7),)] = QQi(1)
    poly[(("h", 4, 8),)] = QQi(1)
    poly[(("g", 3), ("g", 7))] = QQi(-4)
    poly[(("g", 4), ("g", 8))] = QQi(-4)
    return poly


def _su3_golden_gens():
    two = p_const(2)
    return {
        1: Form(4),
        2: Form(4, {(1, 2): two, (3, 4): two}),
        3: Form(4, {(1, 3): p_const(QQi(1, 3))}),
        4: Form(4, {(1, 4): p_const(QQi(1, -3))}),
    }


def verify_su3(perturb=False, emit_forms=None):
    """Run every golden identity; raises on the first failure."""
    spec = algebras.su3()
    if perturb:
        # deliberate corruption hook for testing the failure path
        spec.sc.table[(5, 6)] = {1: Fraction(1), 2: Fraction(2)}
    check_jacobi(spec.sc, strict=True)
    _ok("real structure constants satisfy the Jacobi identity (exact)")

    frame = build_complex_frame(spec)
    check_hypercomplex(frame, strict=True)
    _ok("both almost complex structures are integrable (Nijenhuis = 0)")

    parsed = load_structure_constants(algebras.su3_bracket_text())
    if parsed != spec.sc:
        raise ConfigError("shipped bracket file disagrees with the builtin table")
    _ok("shipped structure-constant file matches the builtin table")

    golden = _su3_golden_gens()
    for k in range(1, 5):
        if del_generator(k, frame) != golden[k]:
            raise ConfigError("coframe derivative %d differs from golden" % k)
    _ok("holomorphic coframe derivatives match the golden table")

    relabeled = build_complex_frame(relabel_spec(spec, (3, 4, 1, 2)))
    vals = nijenhuis_pair_identities(relabeled, (1, 2))
    if any(v != 0 for v in vals):
        raise ConfigError("pair identities violated: %r" % (vals,))
    _ok("leading-pair bracket identities hold after relabeling (exact)")

    op = reduce_ratio(frame)  # checks the foliation first
    _ok("annihilated pair spans a bracket-closed J-stable distribution")
    if op.ratio_poly != _su3_golden_ratio():
        raise ConfigError("reduced ratio differs from the golden polynomial")
    _ok("top-power ratio equals the golden reduced polynomial")

    pc, qc = quadratic_forms_closed(frame)
    if pc != op.p_forms or qc != op.q_forms:
        raise ConfigError("closed-form gradient components disagree")
    _ok("extracted gradient components match the closed-form table")

    qmat = op.real_quadratic_matrix()
    if not np.array_equal(qmat, -4.0 * np.eye(4)):
        raise ConfigError("real quadratic matrix is not -4 I")
    _ok("real quadratic form is -4 times the identity")

    perturbed = form_add(standard_hkt_form(4), del_holo(del_j_basic(frame), frame))
    if not reality_check(perturbed, frame):
        raise ConfigError("perturbed form fails the J-reality check")
    _ok("perturbed top form is J-real")

    if emit_forms:
        _write_text(emit_forms, canonical_str(perturbed) + "\n")
        _say("wrote canonical form to %s" % emit_forms)
    return op


def cmd_verify_su3(args):
    verify_su3(perturb=args.perturb, emit_forms=args.emit_forms)
    _say("all golden identities verified")
    return 0


# ---------------------------------------------------------------------------
# verify-algebra


def _parse_params(pairs):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError("parameter %r is not key=value" % item)
        key, val = (part.strip() for part in item.split("=", 1))
        if key in out:
            raise ConfigError("parameter %r is given twice" % key)
        out[key] = parse_rational(val)
    return out


def cmd_verify_algebra(args):
    if args.file:
        # a file is checked alone: a registry flag beside it would be ignored
        for flag, value in (("--name", args.name), ("--param", args.param)):
            if value is not None:
                raise ConfigError("verify-algebra --file takes no %s" % flag)
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("cannot read %s: %s" % (args.file, exc)) from exc
        sc = load_structure_constants(text)
        check_jacobi(sc, strict=True)
        _ok("file %s: dim %d table satisfies the Jacobi identity"
            % (args.file, sc.dim))
        return 0
    name = "su3" if args.name is None else args.name
    spec = algebras.get_algebra(name, **_parse_params(args.param))
    check_jacobi(spec.sc, strict=True)
    _ok("Jacobi identity (exact)")
    frame = build_complex_frame(spec)
    check_hypercomplex(frame, strict=True)
    _ok("hypercomplex pair integrable")
    op = reduce_ratio(frame)  # checks the foliation first
    _ok("annihilated set %s is foliating" % (frame.split,))
    _ok("reduction has the advertised normal form")
    _say(op.describe())
    eig = np.linalg.eigvalsh(op.real_quadratic_matrix())
    _say("real quadratic form eigenvalues: %s" % np.array2string(eig, precision=6))
    gridio.negative_semidefinite("quadratic form", eig)
    _ok("quadratic form negative semi-definite")
    return 0


# ---------------------------------------------------------------------------
# solve


# the artifacts `solve` writes, by their `outputs` key, with default names
OUTPUTS = {"phi": "phi.field", "trace_csv": "trace.csv",
           "trace_json": "trace.json", "summary": "summary.json"}

# the keys each forcing type reads besides "type"
FORCING_KEYS = {"zero": (), "sine": ("amplitude",), "bump": ("amplitude", "width")}


def _build_forcing(spec, grid):
    """F from the config's forcing section, read-only (gridio.frozen), so
    the Problem built on it holds it without a copy."""
    from .continuity_driver import sine_product_field

    if "file" in spec:
        arr, lengths = gridio.read_field(spec["file"])
        if tuple(arr.shape) != grid.dims:
            raise ConfigError("forcing field does not match the grid")
        if tuple(lengths) != grid.lengths:
            raise ConfigError("forcing field lengths do not match the grid")
        return arr
    kind = spec.get("type", "zero")
    if not (isinstance(kind, str) and kind in FORCING_KEYS):
        raise ConfigError("unknown forcing type %r" % (kind,))
    gridio.known_keys("config section 'forcing' of type %r" % kind, spec,
                      ("type",) + FORCING_KEYS[kind])
    if kind == "zero":
        return gridio.frozen(grid.zeros())
    amp = gridio.real("forcing amplitude", spec.get("amplitude", 1.0))
    if kind == "sine":
        return gridio.frozen(sine_product_field(grid, amp))
    width = gridio.real("forcing width", spec.get("width", 1.0))
    if width <= 0:
        raise ConfigError("bump width must be positive")
    acc = np.zeros(grid.dims)
    for x, length in zip(grid.axis_coords(), grid.lengths):
        acc = acc + (np.cos(2.0 * np.pi * x / length) - 1.0)
    return gridio.frozen(amp * np.exp(acc / width))


def _load_run_config(path, newton_tol=None):
    from .continuity_driver import ContinuityConfig
    from .elliptic_solver import Problem, TorusGrid

    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    # the keys each section reads; any other key is a typo or an unread
    # setting, and is refused rather than silently ignored
    sections = {
        "grid": {"dims", "lengths"},
        "forcing": {"file", "type", "amplitude", "width"},
        "q": {"file", "matrix"},
        "continuity": {f.name for f in dataclasses.fields(ContinuityConfig)},
        "outputs": set(OUTPUTS),
    }
    gridio.known_keys("config", cfg, sections)
    for section, known in sections.items():
        body = cfg.get(section, {})
        if not isinstance(body, dict):
            raise ConfigError("config section %r must be a JSON object" % section)
        gridio.known_keys("config section %r" % section, body, known)
        if "file" in body and len(body) > 1:
            raise ConfigError("config section %r takes 'file' alone, got keys %s"
                              % (section, ", ".join(sorted(body))))
    outputs = cfg.get("outputs", {})
    if not all(isinstance(v, str) and v for v in outputs.values()):
        raise ConfigError("config 'outputs' must map names to non-empty "
                          "file names, got %r" % (outputs,))
    if newton_tol is not None:
        cfg.setdefault("continuity", {})["newton_tol"] = newton_tol
    gspec = cfg.get("grid", {})
    dims = gridio.listed("grid.dims", gspec.get("dims", [64, 64]), gridio.integer)
    if len(dims) not in (2, 4):
        raise ConfigError("grid needs 2 or 4 axes, got %d" % len(dims))
    grid = TorusGrid(dims, gspec.get("lengths"))
    F = _build_forcing(cfg.get("forcing", {"type": "zero"}), grid)
    qspec = cfg.get("q", {"matrix": np.zeros((grid.ndim, grid.ndim)).tolist()})
    q = gridio.load_qspec(qspec, grid)
    problem = Problem(grid, F, q)
    cspec = cfg.get("continuity", {})
    ccfg = ContinuityConfig(**{
        name: (gridio.integer if type(default) is int else gridio.real)(
            "continuity.%s" % name, cspec.get(name, default))
        for name, default in dataclasses.asdict(ContinuityConfig()).items()
    }).validate()
    return cfg, problem, ccfg


def cmd_solve(args):
    from .continuity_driver import (agrees, basicness_check, checked_second_solve,
                                    run_continuity)
    from .elliptic_solver import check_b_bound

    cfg, problem, ccfg = _load_run_config(args.config, args.newton_tol)
    grid = problem.grid
    outputs = cfg.get("outputs", {})
    outdir = args.out_dir or "."
    paths = {key: os.path.join(outdir, outputs.get(key, name)) for key, name in OUTPUTS.items()}
    first = {}  # each file, defaults included, to the first artifact written there
    for key, path in paths.items():
        other = first.setdefault(os.path.normpath(path), key)
        if other != key:
            raise ConfigError("config 'outputs' %r and %r both name the file %s"
                              % (other, key, path))
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError("cannot create output directory %s: %s" % (outdir, exc)) from exc
    state, trace = run_continuity(problem, ccfg)
    # the solution's density, evaluated once by the solver
    dens = state.density
    slack = 10.0 * ccfg.newton_tol
    bound_ok = check_b_bound(state, problem.F, slack)
    _say("converged: b=%.12g residual=%.3e macro_steps=%d"
         % (state.b, state.residual_norm, len(trace.rows)))
    dmin, dmax = float(dens.min()), float(dens.max())
    _say("density range: [%.6g, %.6g]" % (dmin, dmax))
    if dmin <= 0.0:
        _say("density is not positive: the solution is not admissible")
    _say("b bound (max e^{-tF} + %.1e): %s" % (slack, "ok" if bound_ok else "VIOLATED"))

    gridio.write_field(paths["phi"], state.phi, grid.lengths)
    _write_text(paths["trace_csv"], trace.to_csv())
    _write_text(paths["trace_json"], trace.to_json())
    summary = {
        "b": state.b,
        "t": state.t,
        "residual_norm": state.residual_norm,
        "macro_steps": len(trace.rows),
        "b_bound_ok": bool(bound_ok),
        "density_min": dmin,
        "density_max": dmax,
        "grid": {"dims": list(grid.dims), "lengths": list(grid.lengths)},
    }

    report = basicness_check(problem, state, ccfg.newton_tol)
    if report.get("applicable"):
        gap, error = report["reduced_match"], report["error"]
        _say("basicness: variation %.3e along axes %s, lift gap %s -> %s"
             % (report["variation"], report["invariant_axes"],
                "failed (%s)" % error if error else
                "not computed" if gap is None else "%.3e" % gap,
                "passed" if report["passed"] else "FAILED"))
        summary["basicness"] = {k: report[k] for k in ("invariant_axes", "variation",
                                                       "reduced_match", "passed")}
        if error:
            summary["basicness"]["error"] = error
    else:
        _say("basicness: not applicable (forcing varies along every axis)")

    agree = True
    if args.verify_unique:
        # the basicness report's re-solve, where it ran one, is this one,
        # whether it succeeded or failed
        resolved, error = report.get("second_solve"), report.get("error")
        if resolved is None and error is None:
            resolved, error = checked_second_solve(problem, state, ccfg.newton_tol)
        if error:
            agree = False
            _say("uniqueness re-run: failed (%s) -> DISAGREE" % error)
            summary["uniqueness"] = {"agree": False, "error": error}
        else:
            dphi, db = resolved
            agree = agrees(ccfg.newton_tol, dphi, db)
            _say("uniqueness re-run: |dphi|=%.3e |db|=%.3e -> %s"
                 % (dphi, db, "agree" if agree else "DISAGREE"))
            summary["uniqueness"] = {"dphi": dphi, "db": db, "agree": agree}
    _write_text(paths["summary"],
                json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if dmin > 0.0 and bound_ok and agree else 1


# ---------------------------------------------------------------------------
# manufactured and study


def cmd_manufactured(args):
    from .continuity_driver import (
        ContinuityConfig,
        manufactured_problem,
        run_continuity,
        sine_product_field,
    )
    from .elliptic_solver import Problem, TorusGrid

    dims = [args.grid] * (4 if args.four_axes else 2)
    grid = TorusGrid(dims)
    q = np.eye(grid.ndim) * args.qdiag
    phi_star = sine_product_field(grid, args.amplitude)
    F = manufactured_problem(grid, phi_star, q, b_star=args.b_star)
    ccfg = ContinuityConfig(newton_tol=args.newton_tol)
    state, trace = run_continuity(Problem(grid, F, q), ccfg)
    err_phi = float(np.max(np.abs(state.phi - phi_star)))
    err_b = abs(state.b - args.b_star)
    budget = 50.0 * args.newton_tol
    _say("recovery: |phi-phi*|=%.3e |b-b*|=%.3e budget=%.1e macro_steps=%d"
         % (err_phi, err_b, budget, len(trace.rows)))
    if err_phi <= budget and err_b <= budget:
        _say("manufactured solution recovered")
        return 0
    _say("recovery outside budget")
    return 1


def cmd_study(args):
    from .continuity_driver import convergence_study

    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError as exc:
        raise ConfigError("sizes: %s" % exc) from exc
    if len(sizes) < 2:
        raise ConfigError("need at least two grid sizes")
    rows = convergence_study(sizes, amplitude=args.amplitude, qdiag=args.qdiag,
                             newton_tol=args.newton_tol)
    _say("size   sup_error      observed_order")
    for row in rows:
        order = "%.3f" % row["order"] if "order" in row else "-"
        _say("%4d   %.6e   %s" % (row["size"], row["error"], order))
    orders = [row["order"] for row in rows if "order" in row]
    if all(1.7 <= o <= 2.3 for o in orders):
        _say("observed orders within the second-order window [1.7, 2.3]")
        return 0
    _say("observed orders outside [1.7, 2.3]")
    return 1


# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    """The command line parser, built once per process: parse_args starts
    every parse from a fresh namespace, so no parse sees another's
    values."""
    parser = argparse.ArgumentParser(
        prog="hktsolve",
        description="Frame reduction of the quaternionic Monge-Ampere "
                    "operator and a continuity-method solver for the "
                    "reduced scalar equation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-su3", help="check every golden identity")
    p.add_argument("--perturb", action="store_true",
                   help="corrupt one bracket first (failure-path hook)")
    p.add_argument("--emit-forms", metavar="PATH",
                   help="write the canonical perturbed form to PATH")
    p.set_defaults(func=cmd_verify_su3)

    p = sub.add_parser("verify-algebra", help="verify a registry algebra or file")
    p.add_argument("--name",
                   help="registry name, su3 by default (%s)"
                        % ", ".join(sorted(algebras.REGISTRY)))
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="algebra parameter, rationals accepted (repeatable)")
    p.add_argument("--file", help="structure-constant file; Jacobi check only")
    p.set_defaults(func=cmd_verify_algebra)

    p = sub.add_parser("solve", help="continuity run from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", help="directory for output artifacts")
    p.add_argument("--newton-tol", type=float, dest="newton_tol",
                   help="override continuity.newton_tol")
    p.add_argument("--verify-unique", action="store_true",
                   help="solve again at t = 1 from the Q-blind pair or phi = 0, whichever "
                        "has the smaller residual, on the leaf space if any (on basic data "
                        "the basicness report's re-solve), and compare")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("manufactured", help="recover a chosen exact solution")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--four-axes", action="store_true")
    p.add_argument("--amplitude", type=float, default=0.1)
    p.add_argument("--qdiag", type=float, default=-1.0)
    p.add_argument("--b-star", type=float, dest="b_star", default=1.0)
    p.add_argument("--newton-tol", type=float, dest="newton_tol", default=1e-8)
    p.set_defaults(func=cmd_manufactured)

    p = sub.add_parser("study", help="grid convergence study")
    p.add_argument("--sizes", default="32,64,128")
    p.add_argument("--amplitude", type=float, default=0.1)
    p.add_argument("--qdiag", type=float, default=0.0)
    p.add_argument("--newton-tol", type=float, dest="newton_tol", default=1e-10)
    p.set_defaults(func=cmd_study)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HktError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy raises a private subclass; the message names the request
        print("error: MemoryError: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
