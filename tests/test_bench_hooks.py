"""The benchmark's tracer patches hktsolve by name; every name must resolve."""

import importlib
import importlib.util
import os

import scipy.sparse.linalg

import hktsolve.elliptic_solver as es

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    path = os.path.join(REPO, "hktbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("hktbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _tracing()
    for short, attr, _span in tracing.FUNCTIONS + tracing.OPERATORS:
        module = importlib.import_module("hktsolve." + short)
        assert callable(getattr(module, attr, None)), "hktsolve.%s.%s" % (short, attr)


def test_gmres_is_reached_through_spla():
    assert es.spla is scipy.sparse.linalg
