"""Exact Gaussian-rational arithmetic.

The complexified side of the symbolic half (the frame vectors, the
inverse of the frame matrix, the complex bracket table and the
reduction) is computed over Q(i) so that golden values can be compared
for literal equality; the real algebra stays over the rationals
(``Fraction``) in ``lie_frame``.  Floats are
embedded exactly (``Fraction`` keeps the binary value), which makes round
trips through this module lossless.
"""

from fractions import Fraction

from .errors import LinearSolveFailure


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
        if isinstance(re, QQi):
            if im != 0:
                raise TypeError("imaginary part given twice")
            self.re, self.im = re.re, re.im
            return
        if isinstance(re, complex):
            if im != 0:
                raise TypeError("imaginary part given twice")
            self.re, self.im = _frac(re.real), _frac(re.imag)
            return
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

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __pos__(self):
        return self

    def __sub__(self, other):
        other = as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

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

    def __rtruediv__(self, other):
        other = as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    # -- helpers -------------------------------------------------------

    def conjugate(self):
        return QQi(self.re, -self.im)

    def to_complex(self):
        return complex(self.re, self.im)

    __complex__ = to_complex


ZERO = QQi(0)
ONE = QQi(1)


def as_qqi(x):
    """Coerce int, Fraction, float, or complex to QQi; NotImplemented otherwise."""
    if isinstance(x, QQi):
        return x
    if isinstance(x, (int, Fraction, float)):
        return QQi(x)
    if isinstance(x, complex):
        return QQi(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# small exact linear algebra, enough to invert a frame matrix

def mat_inv(a):
    """Invert ``a`` exactly by Gauss-Jordan elimination.

    ``a`` is an n x n nested list over QQi (or coercible).  Raises
    LinearSolveFailure when singular.
    """
    n = len(a)
    aug = [[as_qqi(x) for x in row] + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if aug[r][col]:
                pivot = r
                break
        if pivot is None:
            raise LinearSolveFailure("matrix is singular at column %d" % (col + 1,))
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r == col:
                continue
            f = aug[r][col]
            if f:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
