"""Independent numeric oracles for the test suite.

Every function here recomputes a package result through a different
route: float linear algebra instead of exact rationals, bitmask
exterior algebra instead of sorted-tuple forms, spectral solves instead
of Newton iteration, finite differences instead of hand linearization.
Expected values in the tests were frozen from these oracles.
"""

import math

import numpy as np


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
    dim = frame.dim
    cols = np.zeros((dim, dim), dtype=complex)
    for k in range(1, half + 1):
        v = np.array([x.to_complex() for x in frame.vec(k)])
        cols[:, k - 1] = v
        cols[:, k - 1 + half] = v.conj()
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
