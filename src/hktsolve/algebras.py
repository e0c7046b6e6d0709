"""Built-in algebras with quaternionic frames and foliation data.

Four families are provided.  ``su3`` is the golden example: the compact
rank-two special unitary algebra, whose reduction is known in closed
form.  The three synthetic families stress different parts of the
reduction machinery:

* ``semidirect8(c, w)``: an 8-dimensional semidirect product whose
  quadratic term scales like c^2 and is independent of the weight w,
* ``semidirect12(c, w1, w2)``: a 12-dimensional version with a second
  annihilated block, exercising the n = 3 wedge combinatorics,
* ``nilpotent8(v1, v2, v3)``: a two-step nilpotent algebra with central
  foliation, whose quadratic term vanishes identically.
"""

import inspect
from fractions import Fraction
from importlib import resources

from .errors import ConfigError
from .exact import QQi
from .lie_frame import FrameSpec, StructureConstants, linear_map_from_images

F = Fraction


def _vec(dim, entries):
    """Coefficient vector from {real_index: (re, im)}."""
    v = [QQi(0)] * dim
    for i, (re, im) in entries.items():
        v[i - 1] = QQi(F(re), F(im))
    return v


# standard block actions on a quadruple (e1, e2, e3, e4) of basis vectors;
# pattern A is left multiplication by the first imaginary unit and its
# J partner, pattern B carries the opposite signs that the fibers of the
# su3 fibration use.
def _imap_block(o):
    return {o + 1: (o + 2, 1), o + 2: (o + 1, -1), o + 3: (o + 4, 1), o + 4: (o + 3, -1)}


def _jmap_block_a(o):
    return {o + 1: (o + 3, 1), o + 2: (o + 4, -1), o + 3: (o + 1, -1), o + 4: (o + 2, 1)}


def _jmap_block_b(o):
    return {o + 1: (o + 3, -1), o + 2: (o + 4, 1), o + 3: (o + 1, 1), o + 4: (o + 2, -1)}


def _maps(dim, jblocks):
    imap = {}
    jmap = {}
    for o in range(0, dim, 4):
        imap.update(_imap_block(o))
    for o, kind in jblocks:
        jmap.update(_jmap_block_a(o) if kind == "a" else _jmap_block_b(o))
    return (linear_map_from_images(dim, imap), linear_map_from_images(dim, jmap))


SU3_BRACKETS = {
    (1, 5): {6: 3}, (1, 6): {5: -3}, (1, 7): {8: -3}, (1, 8): {7: 3},
    (2, 3): {4: 2}, (2, 4): {3: -2},
    (2, 5): {6: 1}, (2, 6): {5: -1}, (2, 7): {8: 1}, (2, 8): {7: -1},
    (3, 4): {2: 2},
    (3, 5): {7: -1}, (3, 6): {8: 1}, (3, 7): {5: 1}, (3, 8): {6: -1},
    (4, 5): {8: -1}, (4, 6): {7: -1}, (4, 7): {6: 1}, (4, 8): {5: 1},
    (5, 6): {1: 1, 2: 1}, (5, 7): {3: -1}, (5, 8): {4: -1},
    (6, 7): {4: -1}, (6, 8): {3: 1},
    (7, 8): {1: -1, 2: 1},
}


def su3_bracket_text():
    """The shipped plain text form of the su3 table."""
    return resources.files("hktsolve").joinpath("data/su3_brackets.txt").read_text()


def su3():
    imap, jmap = _maps(8, [(0, "a"), (4, "b")])
    return FrameSpec(
        name="su3",
        sc=StructureConstants(8, SU3_BRACKETS),
        imap=imap,
        jmap=jmap,
        vectors=[
            _vec(8, {1: (-1, 0), 2: (0, 1)}),
            _vec(8, {3: (1, 0), 4: (0, -1)}),
            _vec(8, {5: (1, 0), 6: (0, -1)}),
            _vec(8, {7: (1, 0), 8: (0, -1)}),
        ],
        metric_diag=[F(1, 2)] * 8,
        split=(1, 2),
    )


def semidirect8(c=1, w=1):
    c, w = F(c), F(w)
    table = {
        (1, 5): {6: w}, (1, 6): {5: -w}, (1, 7): {8: -w}, (1, 8): {7: w},
        (2, 3): {4: 2 * c}, (2, 4): {3: -2 * c}, (3, 4): {2: 2 * c},
        (2, 5): {6: c}, (2, 6): {5: -c}, (2, 7): {8: c}, (2, 8): {7: -c},
        (3, 5): {7: -c}, (3, 6): {8: c}, (3, 7): {5: c}, (3, 8): {6: -c},
        (4, 5): {8: -c}, (4, 6): {7: -c}, (4, 7): {6: c}, (4, 8): {5: c},
    }
    imap, jmap = _maps(8, [(0, "a"), (4, "b")])
    return FrameSpec(
        name="semidirect8",
        sc=StructureConstants(8, table),
        imap=imap,
        jmap=jmap,
        vectors=[
            _vec(8, {1: (-1, 0), 2: (0, 1)}),
            _vec(8, {3: (1, 0), 4: (0, -1)}),
            _vec(8, {5: (1, 0), 6: (0, -1)}),
            _vec(8, {7: (1, 0), 8: (0, -1)}),
        ],
        metric_diag=[F(1, 2)] * 8,
        split=(1, 2),
        params={"c": c, "w": w},
    )


def semidirect12(c=1, w1=1, w2=2):
    c, w1, w2 = F(c), F(w1), F(w2)
    table = {
        (2, 3): {4: 2 * c}, (2, 4): {3: -2 * c}, (3, 4): {2: 2 * c},
        (1, 5): {6: w1}, (1, 6): {5: -w1}, (1, 7): {8: -w1}, (1, 8): {7: w1},
        (1, 9): {10: w2}, (1, 10): {9: -w2}, (1, 11): {12: -w2}, (1, 12): {11: w2},
        (2, 5): {6: c}, (2, 6): {5: -c}, (2, 7): {8: c}, (2, 8): {7: -c},
        (3, 5): {7: -c}, (3, 6): {8: c}, (3, 7): {5: c}, (3, 8): {6: -c},
        (4, 5): {8: -c}, (4, 6): {7: -c}, (4, 7): {6: c}, (4, 8): {5: c},
        (2, 9): {10: c}, (2, 10): {9: -c}, (2, 11): {12: c}, (2, 12): {11: -c},
        (3, 9): {11: -c}, (3, 10): {12: c}, (3, 11): {9: c}, (3, 12): {10: -c},
        (4, 9): {12: -c}, (4, 10): {11: -c}, (4, 11): {10: c}, (4, 12): {9: c},
    }
    imap, jmap = _maps(12, [(0, "a"), (4, "b"), (8, "b")])
    return FrameSpec(
        name="semidirect12",
        sc=StructureConstants(12, table),
        imap=imap,
        jmap=jmap,
        vectors=[
            _vec(12, {1: (-1, 0), 2: (0, 1)}),
            _vec(12, {3: (1, 0), 4: (0, -1)}),
            _vec(12, {5: (1, 0), 6: (0, -1)}),
            _vec(12, {7: (1, 0), 8: (0, -1)}),
            _vec(12, {9: (1, 0), 10: (0, -1)}),
            _vec(12, {11: (1, 0), 12: (0, -1)}),
        ],
        metric_diag=[F(1, 2)] * 12,
        split=(1, 2, 5, 6),
        params={"c": c, "w1": w1, "w2": w2},
    )


def nilpotent8(v1=(1, 0, 0, 0), v2=(0, 1, 0, 0), v3=(0, 0, 1, 0)):
    vs = []
    for v in (v1, v2, v3):
        if not isinstance(v, (tuple, list)) or len(v) != 4:
            raise ConfigError("central vectors need four components")
        vs.append(tuple(F(x) for x in v))
    v1, v2, v3 = vs

    def central(v, sign=1):
        return {5 + m: sign * v[m] for m in range(4) if v[m]}

    table = {
        (1, 2): central(v1), (3, 4): central(v1, -1),
        (1, 3): central(v2), (2, 4): central(v2),
        (1, 4): central(v3), (2, 3): central(v3, -1),
    }
    imap, jmap = _maps(8, [(0, "a"), (4, "a")])
    return FrameSpec(
        name="nilpotent8",
        sc=StructureConstants(8, table),
        imap=imap,
        jmap=jmap,
        vectors=[
            _vec(8, {1: (-1, 0), 2: (0, 1)}),
            _vec(8, {3: (1, 0), 4: (0, -1)}),
            _vec(8, {5: (-1, 0), 6: (0, 1)}),
            _vec(8, {7: (1, 0), 8: (0, -1)}),
        ],
        metric_diag=[F(1, 2)] * 8,
        split=(3, 4),
        params={"v1": v1, "v2": v2, "v3": v3},
    )


REGISTRY = {
    "su3": su3,
    "semidirect8": semidirect8,
    "semidirect12": semidirect12,
    "nilpotent8": nilpotent8,
}


def get_algebra(name, **params):
    try:
        builder = REGISTRY[name]
    except KeyError:
        raise ConfigError(
            "unknown algebra %r (have: %s)" % (name, ", ".join(sorted(REGISTRY))))
    known = inspect.signature(builder).parameters
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ConfigError("algebra %r has no parameter %s (has: %s)"
                          % (name, ", ".join(unknown), ", ".join(known) or "none"))
    return builder(**params)
