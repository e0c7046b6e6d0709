"""Exact Gaussian-rational arithmetic.

The complexified side of the symbolic half (the frame vectors, their
metric adjoint, the complex bracket table and the reduction) is computed
over Q(i) so that golden values can be compared for literal equality;
the real algebra stays over the rationals (``Fraction``) in
``lie_frame``.  Floats are embedded exactly (``Fraction`` keeps the
binary value), which makes round trips through this module lossless.

Every exact sum, of either half, is a ``{key: exact}`` dict with no zero
entries, added to in place by ``accumulate``.
"""

from fractions import Fraction


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        return Fraction(x)
    raise TypeError("cannot embed %r into the rationals" % (x,))


class QQi:
    """A Gaussian rational ``re + im*i`` with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    # -- basic protocol ----------------------------------------------------

    def __repr__(self):
        return "QQi(%s, %s)" % (self.re, self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return "%s*i" % (self.im,)
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else "%s*i" % (mag,)
        return "%s%s%s" % (self.re, sign, istr)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        other = as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __sub__(self, other):
        other = as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero in QQi")
        return QQi((self.re * other.re + self.im * other.im) / den,
                   (self.im * other.re - self.re * other.im) / den)

    # -- helpers -------------------------------------------------------

    def conjugate(self):
        return QQi(self.re, -self.im)


ZERO = QQi(0)
ONE = QQi(1)


def as_qqi(x):
    """Coerce int, Fraction or float to QQi; NotImplemented otherwise."""
    if isinstance(x, QQi):
        return x
    if isinstance(x, (int, Fraction, float)):
        return QQi(x)
    return NotImplemented


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
