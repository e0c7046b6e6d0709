"""Grid stencil kernels.

Second-order central differences with periodic wrap, along every axis
of the field.  With S+- f[i] = f[i +- 1] the periodic shifts along one
axis, every stencil here is built from the pair S+f + S-f or S+f - S-f,
which ``neighbours`` writes into a buffer the caller owns.  The kernels
work in place: ``derivative`` writes one axis's central difference
straight into the caller's buffer, the gradient is that derivative per
axis into the rows of its stack, and the Laplacian writes into its
result and one scratch buffer reused for every axis, with no other
temporaries.  The solver takes the gradient one axis at a time through
``derivative``; ``gradient_nd``'s stack is for callers that want every
component at once.
"""

import math

import numpy as np


def neighbours(f, axis, sign, out):
    """Write S+f + sign * S-f along ``axis`` into ``out``; sign is +1 or -1.

    ``out`` must be C-contiguous.  In C order S+ along an axis is a flat
    shift by that axis's stride, so each half is one long contiguous
    copy or add; only the wrapped planes, index m-1 for S+ and index 0
    for S-, are then written again from the right neighbours.
    """
    if not out.flags.c_contiguous:
        raise ValueError("neighbours writes into a C-contiguous buffer only")
    m = f.shape[axis]
    s = math.prod(f.shape[axis + 1:])
    f_flat, o_flat = f.reshape(-1), out.reshape(-1)
    f3, o3 = f.reshape(-1, m, s), out.reshape(-1, m, s)
    combine = np.add if sign > 0 else np.subtract
    o_flat[:-s] = f_flat[s:]
    o3[:, -1] = f3[:, 0]
    combine(o_flat[s:], f_flat[:-s], out=o_flat[s:])
    combine(f3[:, 1], f3[:, -1], out=o3[:, 0])
    return out


def laplacian_nd(f, spacings):
    """Periodic central-difference Laplacian of a field on any number of axes."""
    out = np.multiply(f, -2.0 * sum(1.0 / (h * h) for h in spacings),
                      out=np.empty(f.shape))
    s = np.empty(f.shape)
    for ax, h in enumerate(spacings):
        neighbours(f, ax, 1, s)
        s *= 1.0 / (h * h)
        out += s
    return out


def derivative(f, axis, h, out):
    """Write the periodic central difference of f along ``axis`` into ``out``.

    (S+f - S-f) / (2h), with h the axis's spacing; ``out`` must be
    C-contiguous.
    """
    neighbours(f, axis, -1, out)
    out /= 2.0 * h
    return out


def gradient_nd(f, spacings):
    """Periodic central-difference gradient, stacked along a leading axis."""
    g = np.empty((f.ndim,) + f.shape)
    for ax, h in enumerate(spacings):
        derivative(f, ax, h, g[ax])
    return g
