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
from .lie_frame import FrameSpec, StructureConstants

F = Fraction


# images (target, sign) of the quadruple (e1, e2, e3, e4) of basis vectors
# in each 4-block under I ("i") and J; J pattern "a" is the partner of
# left multiplication by the first imaginary unit, pattern "b" carries the
# opposite signs that the fibers of the su3 fibration use.
_BLOCKS = {
    "i": ((2, 1), (1, -1), (4, 1), (3, -1)),
    "a": ((3, 1), (4, -1), (1, -1), (2, 1)),
    "b": ((3, -1), (4, 1), (1, 1), (2, -1)),
}


def _spec(table, jkinds, leading, split):
    """The FrameSpec of a registry algebra in its standard frame.

    The real dimension is 4 * len(jkinds); the k-th block of four basis
    vectors carries I and the J pattern ``jkinds[k]``.  Frame vector r is
    X_{2r-1} - i X_{2r}, negated when r is in ``leading``, and the metric
    is 1/2 on every basis vector.
    """
    dim = 4 * len(jkinds)
    imap, jmap = {}, {}
    for o, kind in zip(range(0, dim, 4), jkinds):
        for m, key in ((imap, "i"), (jmap, kind)):
            for e, (t, s) in enumerate(_BLOCKS[key], 1):
                m[o + e] = {o + t: s}
    vectors = []
    for r in range(1, dim // 2 + 1):
        s = -1 if r in leading else 1
        v = [QQi(0)] * dim
        v[2 * r - 2], v[2 * r - 1] = QQi(s), QQi(0, -s)
        vectors.append(v)
    return FrameSpec(sc=StructureConstants(dim, table), imap=imap, jmap=jmap,
                     vectors=vectors, metric_diag=[F(1, 2)] * dim, split=split)


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
    return _spec(SU3_BRACKETS, "ab", leading=(1,), split=(1, 2))


def semidirect8(c=1, w=1):
    c, w = F(c), F(w)
    table = {
        (1, 5): {6: w}, (1, 6): {5: -w}, (1, 7): {8: -w}, (1, 8): {7: w},
        (2, 3): {4: 2 * c}, (2, 4): {3: -2 * c}, (3, 4): {2: 2 * c},
        (2, 5): {6: c}, (2, 6): {5: -c}, (2, 7): {8: c}, (2, 8): {7: -c},
        (3, 5): {7: -c}, (3, 6): {8: c}, (3, 7): {5: c}, (3, 8): {6: -c},
        (4, 5): {8: -c}, (4, 6): {7: -c}, (4, 7): {6: c}, (4, 8): {5: c},
    }
    return _spec(table, "ab", leading=(1,), split=(1, 2))


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
    return _spec(table, "abb", leading=(1,), split=(1, 2, 5, 6))


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
    return _spec(table, "aa", leading=(1, 3), split=(3, 4))


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
