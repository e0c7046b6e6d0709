"""Exact frame reduction of the quaternionic Monge-Ampere operator and a
continuity-method solver for the reduced scalar equation.

The package root exports nothing: import each name from its module, e.g.
``from hktsolve.elliptic_solver import Problem``.
"""

__version__ = "0.1.0"
