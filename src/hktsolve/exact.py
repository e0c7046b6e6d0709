"""Exact Gaussian-rational arithmetic on Python integers.

The complexified side of the symbolic half (the frame vectors, their
metric adjoint, the complex bracket table and the reduction) is computed
over Q(i) so that golden values can be compared for literal equality.
A ``QQi`` is one integer triple ``(a, b, d)`` standing for
``(a + b*i) / d`` in the normal form d > 0, gcd(a, b, d) = 1, so every
value has one triple and equality compares integers; each operation
works on ints and normalizes with a single gcd (Knuth, TAOCP Vol. 2,
4.5.1).  The real algebra in ``lie_frame`` stays exact as Python ints
and ``Fraction``s.  Finite floats embed exactly (as the dyadic rational
of their binary value), which makes round trips through this module
lossless; NaN and the infinities embed nowhere.

Every exact sum, of either half, is a ``{key: exact}`` dict with no zero
entries, added to in place by ``accumulate``.
"""

from fractions import Fraction
from math import gcd, isfinite

_new = object.__new__


def _ratio(x):
    """``(numerator, denominator)`` of an exactly embeddable real, else None."""
    if type(x) is int:
        return x, 1
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    if isinstance(x, float) and isfinite(x):
        return x.as_integer_ratio()
    return None


def _reduced(a, b, d):
    """The QQi (a + b*i) / d for d > 0, brought to normal form by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _normal(a, b, d)


def _normal(a, b, d):
    """The QQi of a triple already in normal form."""
    z = _new(QQi)
    z.a, z.b, z.d = a, b, d
    return z


def _signed_sum(x, other, s):
    """x + s * other for the QQi x and s = 1 or -1: the one kernel of
    ``+`` and ``-``, which call it directly, never each other, so each
    counts as one operation."""
    a, b, d = x.a, x.b, x.d
    if type(other) is QQi:
        e = other.d
        if d == e:
            return _reduced(a + s * other.a, b + s * other.b, d)
        return _reduced(a * e + s * other.a * d, b * e + s * other.b * d, d * e)
    if type(other) is int:
        return _normal(a + s * other * d, b, d)   # gcd(a + snd, b, d) = 1
    p = _ratio(other)
    if p is None:
        return NotImplemented
    n, e = p
    return _reduced(a * e + s * n * d, b * e, d * e)


class QQi:
    """A Gaussian rational ``(a + b*i) / d``: d > 0 and gcd(a, b, d) = 1."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        p, q = _ratio(re), _ratio(im)
        if p is None or q is None:
            raise TypeError("cannot embed %r into the rationals"
                            % (re if p is None else im,))
        (n, d), (m, e) = p, q
        g = gcd(n * e, m * d, d * e)
        self.a, self.b, self.d = n * e // g, m * d // g, d * e // g

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    # -- basic protocol ----------------------------------------------------

    def __repr__(self):
        return "QQi(%s, %s)" % (self.re, self.im)

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return "%s*i" % (im,)
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        istr = "i" if mag == 1 else "%s*i" % (mag,)
        return "%s%s%s" % (re, sign, istr)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if type(other) is QQi:
            return self.a == other.a and self.b == other.b and self.d == other.d
        p = _ratio(other)
        if p is None:
            return NotImplemented
        return self.b == 0 and self.a == p[0] and self.d == p[1]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return _signed_sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _normal(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return _signed_sum(self, other, -1)

    def __mul__(self, other):
        a, b, d = self.a, self.b, self.d
        if type(other) is QQi:
            c, e = other.a, other.b
            return _reduced(a * c - b * e, a * e + b * c, d * other.d)
        if type(other) is int:
            g = gcd(other, d)   # gcd(a, b) is prime to d, so this is all of it
            n = other // g
            return _normal(a * n, b * n, d // g)
        p = _ratio(other)
        if p is None:
            return NotImplemented
        n, e = p
        return _reduced(a * n, b * n, d * e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, d = self.a, self.b, self.d
        if type(other) is QQi:
            c, e, f = other.a, other.b, other.d
            norm = c * c + e * e
            if not norm:
                raise ZeroDivisionError("division by zero in QQi")
            return _reduced(f * (a * c + b * e), f * (b * c - a * e), d * norm)
        p = _ratio(other)
        if p is None:
            return NotImplemented
        n, e = p
        if not n:
            raise ZeroDivisionError("division by zero in QQi")
        if n < 0:
            n, e = -n, -e
        return _reduced(a * e, b * e, d * n)

    # -- helpers -------------------------------------------------------

    def conjugate(self):
        return _normal(self.a, -self.b, self.d)


ZERO = QQi(0)
ONE = QQi(1)


def as_qqi(x):
    """``x`` as a QQi: itself, or an int, Fraction or finite float embedded."""
    return x if type(x) is QQi else QQi(x)


def accumulate(out, vec, scale=1):
    """Add ``scale * vec`` into the sparse dict ``out`` in place; return ``out``.

    An entry that cancels is dropped, so ``out`` keeps no zero values,
    and a unit scale adds ``vec``'s values without multiplying them.
    """
    for k, c in vec.items():
        if scale != 1:
            c = scale * c
        if k in out:
            c = out[k] + c
        if c:
            out[k] = c
        else:
            out.pop(k, None)
    return out
