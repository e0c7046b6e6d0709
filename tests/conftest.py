import numpy as np
import pytest

from hktsolve import algebras
from hktsolve.elliptic_solver import bordered_operator
from hktsolve.hkt_symbolic import reduce_ratio
from hktsolve.lie_frame import build_complex_frame

ACCEPTANCE_LINES = []

ALGEBRA_BUILDS = {
    "su3": {},
    "semidirect8": {"c": 2, "w": 5},
    "semidirect12": {"c": 1, "w1": 3, "w2": -2},
    "nilpotent8": {},
}


def meshes(grid):
    """The grid's node coordinates as full arrays, one per axis."""
    return np.meshgrid(*[grid.coords(ax) for ax in range(grid.ndim)],
                       indexing="ij")


def bordered_field_block(problem, phi, t, eta, c):
    """Field block of the Newton operator applied to (eta, c)."""
    x = np.concatenate([np.ravel(eta), [c]])
    return bordered_operator(problem, phi, t).matvec(x)[:-1].reshape(problem.grid.dims)


@pytest.fixture(scope="session")
def frames():
    return {name: build_complex_frame(algebras.get_algebra(name, **params))
            for name, params in ALGEBRA_BUILDS.items()}


@pytest.fixture(scope="session")
def operators(frames):
    return {name: reduce_ratio(frame) for name, frame in frames.items()}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def criterion():
    def record(number, description, ok, detail=""):
        tag = "PASS" if ok else "FAIL"
        line = "%s criterion %d: %s" % (tag, number, description)
        if detail:
            line += " [%s]" % detail
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line
    return record


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
