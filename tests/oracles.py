"""Independent numeric oracles for the test suite.

Every function here recomputes a package result through a different
route: float linear algebra instead of exact rationals, bitmask
exterior algebra instead of sorted-tuple forms, spectral solves instead
of Newton iteration, finite differences instead of hand linearization.
Expected values in the tests were frozen from these oracles.  The
reduction's oracles are fed random jets (``random_jets``) and compare
against the exact polynomials evaluated in floats (``p_eval``).
"""

import math
from fractions import Fraction

import numpy as np


def to_complex(x):
    """An exact Gaussian rational (``exact.QQi``) as a complex float."""
    return complex(x.re, x.im)


# ---------------------------------------------------------------------------
# reference Gaussian rationals, a pair of Fractions each


class GaussianRational:
    """``re + im*i`` held as two Fractions, the textbook way.

    A reference for ``exact.QQi``: its operators are the schoolbook
    formulas on Fraction pairs, and ``triple`` derives the integer normal
    form through a least common denominator instead of a gcd.
    """

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x):
        return x if isinstance(x, GaussianRational) else GaussianRational(x)

    def __add__(self, other):
        other = self.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = self.of(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = self.of(other)
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        other = self.of(other)
        norm = other.re ** 2 + other.im ** 2
        if norm == 0:
            raise ZeroDivisionError("reference division by zero")
        return GaussianRational((self.re * other.re + self.im * other.im) / norm,
                                (self.im * other.re - self.re * other.im) / norm)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other):
        other = self.of(other)
        return (self.re, self.im) == (other.re, other.im)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def triple(self):
        """``(a, b, d)`` with re = a/d, im = b/d and d the least common denominator."""
        d = math.lcm(self.re.denominator, self.im.denominator)
        return int(self.re * d), int(self.im * d), d

    def text(self):
        """The printed form: ``3/2``, ``i``, ``-2*i``, ``1-i``, ``1/2+3*i``."""
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        mag = "i" if abs(im) == 1 else "%s*i" % abs(im)
        if re == 0:
            return mag if im > 0 else "-" + mag
        return "%s%s%s" % (re, "+" if im > 0 else "-", mag)


# ---------------------------------------------------------------------------
# float bracket oracles, on a dense tensor read straight from sc.table


def structure_tensor(sc):
    """Float array C with [X_i, X_j] = sum_k C[k, i, j] X_k, 0-based."""
    c = np.zeros((sc.dim,) * 3)
    for (i, j), comps in sc.table.items():
        for k, x in comps.items():
            c[k - 1, i - 1, j - 1] += float(x)
            c[k - 1, j - 1, i - 1] -= float(x)
    return c


def jacobi_oracle(sc):
    """Largest |[[X_i, X_j], X_k] + cyclic| component over all triples."""
    c = structure_tensor(sc)
    # nested[p, i, j, k] = [[X_i, X_j], X_k]_p
    nested = np.einsum("mij,pmk->pijk", c, c)
    total = nested + nested.transpose(0, 2, 3, 1) + nested.transpose(0, 3, 1, 2)
    return float(np.max(np.abs(total), initial=0.0))


def frame_columns(frame):
    """Complex matrix whose columns are the frame vectors, then conjugates."""
    half = frame.half
    dim = frame.spec.sc.dim
    cols = np.zeros((dim, dim), dtype=complex)
    for k, vec in enumerate(frame.vectors):
        for i, x in vec.items():
            cols[i - 1, k] = to_complex(x)
    cols[:, half:] = cols[:, :half].conj()
    return cols


def complex_bracket_oracle(frame):
    """coeffs(r, s) -> complex vector of [Z_r, Z_s] frame components.

    Indices are 1-based and extended (bars above half).  Uses numpy
    inversion of the float frame matrix, no exact arithmetic.
    """
    c = structure_tensor(frame.spec.sc)
    cols = frame_columns(frame)
    inv = np.linalg.inv(cols)

    def coeffs(r, s):
        return inv @ np.einsum("kij,i,j->k", c, cols[:, r - 1], cols[:, s - 1])

    return coeffs


def map_matrix_float(m, dim):
    """Dense float matrix of a map given by sparse columns {j: {i: c}}."""
    out = np.zeros((dim, dim))
    for j, col in m.items():
        for i, x in col.items():
            out[i - 1, j - 1] = float(x)
    return out


def nijenhuis_oracle(spec, which="J"):
    """Largest |N(X_i, X_j)| component over all real basis pairs, float."""
    dim = spec.sc.dim
    m = map_matrix_float(spec.jmap if which == "J" else spec.imap, dim)
    c = structure_tensor(spec.sc)
    # column i of m is M X_i; the leading axis of each array is the component
    both = np.einsum("kab,ai,bj->kij", c, m, m)           # [M X_i, M X_j]
    mixed = np.einsum("kaj,ai->kij", c, m) + np.einsum("kib,bj->kij", c, m)
    # N = [M X_i, M X_j] - M([M X_i, X_j] + [X_i, M X_j]) - [X_i, X_j]
    defect = both - np.einsum("pk,kij->pij", m, mixed) - c
    return float(np.max(np.abs(defect)))


# ---------------------------------------------------------------------------
# normal-form value oracle


def theorem_value_oracle(frame, jets):
    """1 + trace - sum |P_k|^2 with P_k rebuilt from float brackets."""
    half = frame.half
    split = tuple(sorted(frame.split))
    active = [k for k in range(1, half + 1) if k not in split]
    a, b = active
    ab, bb = a + half, b + half
    coeffs = complex_bracket_oracle(frame)

    def C(t, r, s):
        return coeffs(r, s)[t - 1]

    def g(i):
        return jets[("g", i)]

    total = 1.0 + jets[("h", a, ab)] + jets[("h", b, bb)]
    for k in split:
        pk = C(a, a, k) * g(bb) - C(b, a, k) * g(ab) \
            + C(a, k, bb) * g(a) + C(ab, k, bb) * g(ab) \
            + C(b, k, bb) * g(b) + C(bb, k, bb) * g(bb)
        total -= pk * np.conjugate(pk)
    return complex(total)


def p_eval(poly, assignment):
    """A jet polynomial's complex value at an assignment {symbol: number}."""
    total = 0j
    for mono, c in poly.items():
        val = to_complex(c)
        for sym in mono:
            val *= assignment[sym]
        total += val
    return total


def random_jets(op, rng, realistic=True):
    """A random jet assignment for a reduced operator.

    With ``realistic`` the assignment satisfies the conjugation
    relations a genuine real potential would (conjugate gradients,
    real mixed traces); otherwise all six symbols are free.
    """
    a, b = op.active_pair
    half = op.half

    def z():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    ga, gb = z(), z()
    out = {("g", a): ga, ("g", b): gb}
    if realistic:
        out[("g", a + half)] = ga.conjugate()
        out[("g", b + half)] = gb.conjugate()
        out[("h", a, a + half)] = rng.uniform(-1, 1)
        out[("h", b, b + half)] = rng.uniform(-1, 1)
    else:
        out[("g", a + half)] = z()
        out[("g", b + half)] = z()
        out[("h", a, a + half)] = z()
        out[("h", b, b + half)] = z()
    return out


def normal_form_value(op, assignment):
    """A ReducedOperator's 1 + trace term - sum |P_k|^2, for
    conjugation-consistent jets: its ratio in normal form."""
    a, b = op.active_pair
    total = 1.0 + 0j
    total += assignment[("h", a, a + op.half)]
    total += assignment[("h", b, b + op.half)]
    for k in op.split:
        pk = p_eval(op.p_forms[k], assignment)
        total -= pk * pk.conjugate()
    return total


# ---------------------------------------------------------------------------
# bitmask exterior algebra


def bit_wedge(f1, f2):
    """Wedge of {bitmask: complex} forms; bit k = generator k."""
    out = {}
    for m1, c1 in f1.items():
        for m2, c2 in f2.items():
            if m1 & m2:
                continue
            sign = 1
            rest = m1
            m = m2
            while m:
                low = m & -m
                # generators of m1 sitting above this bit must hop over it
                above = rest & ~(low | (low - 1))
                if bin(above).count("1") % 2:
                    sign = -sign
                m ^= low
            key = m1 | m2
            out[key] = out.get(key, 0j) + sign * c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def top_ratio_oracle(evaluated_two_form, half):
    """Top coefficient of (sum of standard pairs + D)^n over n!.

    ``evaluated_two_form`` maps index pairs (i, j), 1-based unbarred,
    to complex numbers.
    """
    n = half // 2
    form = {}
    for k in range(1, n + 1):
        mask = (1 << (2 * k - 2)) | (1 << (2 * k - 1))
        form[mask] = form.get(mask, 0j) + 1.0
    for (i, j), val in evaluated_two_form.items():
        mask = (1 << (i - 1)) | (1 << (j - 1))
        form[mask] = form.get(mask, 0j) + complex(val)
    power = dict(form)
    for _ in range(n - 1):
        power = bit_wedge(power, form)
    top = power.get((1 << half) - 1, 0j)
    return top / math.factorial(n)


# ---------------------------------------------------------------------------
# numeric solver oracles


def fft_poisson_oracle(grid, F):
    """Solve laplacian(phi) = b e^F - 1 spectrally; returns (phi, b)."""
    b = grid.size / float(np.sum(np.exp(F)))
    rhs = b * np.exp(F) - 1.0
    lam = np.zeros(grid.dims)
    for ax, (nax, h) in enumerate(zip(grid.dims, grid.spacings)):
        k = np.arange(nax)
        mu = -4.0 * np.sin(np.pi * k / nax) ** 2 / (h * h)
        shape = [1] * grid.ndim
        shape[ax] = nax
        lam = lam + mu.reshape(shape)
    rhs_hat = np.fft.fftn(rhs)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_hat = np.where(lam == 0.0, 0.0, rhs_hat / lam)
    phi = np.fft.ifftn(phi_hat).real
    return phi - np.mean(phi), b


def per_axis_interpolate(values, dims):
    """Trigonometric interpolation onto a finer grid, one axis at a time.

    Along each axis that grows from m to n nodes: rfft, the Nyquist bin
    m/2 of an even axis halved, irfft zero-padded to n, times n/m.
    """
    values = np.asarray(values, dtype=float)
    for ax, (m, n) in enumerate(zip(values.shape, dims)):
        if n != m:
            spectrum = np.fft.rfft(values, axis=ax)
            if m % 2 == 0:
                spectrum[(slice(None),) * ax + (m // 2,)] *= 0.5
            values = np.fft.irfft(spectrum, n=n, axis=ax) * (n / m)
    return values


def dense_laplacian(grid):
    """Assembled dense Laplacian matrix; only for small grids."""
    n = grid.size
    mat = np.zeros((n, n))
    dims = grid.dims
    for flat in range(n):
        idx = np.unravel_index(flat, dims)
        for ax, h in enumerate(grid.spacings):
            mat[flat, flat] -= 2.0 / (h * h)
            for step in (-1, 1):
                nb = list(idx)
                nb[ax] = (nb[ax] + step) % dims[ax]
                mat[flat, np.ravel_multi_index(nb, dims)] += 1.0 / (h * h)
    return mat


def dense_gradient(grid, axis):
    n = grid.size
    mat = np.zeros((n, n))
    dims = grid.dims
    h = grid.spacings[axis]
    for flat in range(n):
        idx = np.unravel_index(flat, dims)
        for step, w in ((1, 0.5 / h), (-1, -0.5 / h)):
            nb = list(idx)
            nb[axis] = (nb[axis] + step) % dims[axis]
            mat[flat, np.ravel_multi_index(nb, dims)] += w
    return mat


def fd_directional_residual(residual_fn, phi, b, eta, c, eps):
    """Central finite difference of a residual map along (eta, c)."""
    plus = residual_fn(phi + eps * eta, b + eps * c)
    minus = residual_fn(phi - eps * eta, b - eps * c)
    return (plus - minus) / (2.0 * eps)


def roll_density(grid, phi, q):
    """1 + laplacian(phi) + <Q grad phi, grad phi> from np.roll stencils.

    The periodic central differences are written out with np.roll, not
    taken from the kernels, and Q, constant (d, d) or per node (dims +
    (d, d)), is summed entry by entry.
    """
    q = np.asarray(q, dtype=float)
    out = np.ones(grid.dims)
    grads = []
    for ax, h in enumerate(grid.spacings):
        up, down = np.roll(phi, -1, ax), np.roll(phi, 1, ax)
        out += (up - 2.0 * phi + down) / (h * h)
        grads.append((up - down) / (2.0 * h))
    for i, gi in enumerate(grads):
        for j, gj in enumerate(grads):
            out += q[..., i, j] * gi * gj
    return out


def pack_symmetric(q):
    """Per-node symmetric (d, d) matrices to upper-triangle channels,
    the layout gridio.unpack_symmetric reads."""
    q = np.asarray(q, dtype=float)
    rows, cols = np.triu_indices(q.shape[-1])
    return q[..., rows, cols]


def hopf_cole_b(F, lengths, a):
    """The constant b for Q = -aI, from the linear equation of u = exp(-a phi).

    u solves -lap u + a (1 - b e^F) u = 0 and is positive, so b is the
    root in b of the lowest eigenvalue of that operator, with the
    periodic second-order Laplacian (5-point on two axes) assembled from
    sparse Kronecker products.  The lowest eigenvalue falls as b grows; it is
    positive at b = 1 / max e^F and negative at b = 1 / min e^F.
    """
    import scipy.sparse as sp
    from scipy.optimize import brentq
    from scipy.sparse.linalg import eigsh

    F = np.asarray(F, dtype=float)
    lap = sp.csr_matrix((F.size, F.size))
    for ax, (n, length) in enumerate(zip(F.shape, lengths)):
        h = length / n
        second = sp.diags([-2.0, 1.0, 1.0, 1.0, 1.0], [0, 1, -1, n - 1, 1 - n],
                          shape=(n, n)) / (h * h)
        before = sp.identity(math.prod(F.shape[:ax]))
        after = sp.identity(math.prod(F.shape[ax + 1:]))
        lap = lap + sp.kron(sp.kron(before, second), after)
    e = np.exp(F).ravel()

    def lowest(b):
        potential = a * (1.0 - b * e)
        op = (sp.diags(potential) - lap).tocsc()
        return float(eigsh(op, k=1, sigma=float(np.min(potential)) - 1.0,
                           return_eigenvectors=False)[0])

    return brentq(lowest, 1.0 / float(np.max(e)), 1.0 / float(np.min(e)),
                  xtol=1e-15, rtol=4 * np.finfo(float).eps)
