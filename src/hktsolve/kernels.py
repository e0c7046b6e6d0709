"""Grid stencil kernels and the spread of a field along one axis.

Second-order central differences with periodic wrap, along every axis
of the field.  With S+- f[i] = f[i +- 1] the periodic shifts along one
axis, every stencil here is built from the pair S+f + S-f or S+f - S-f,
which ``neighbours`` writes into a buffer the caller owns in one pass:
one ufunc call over the interior, then the two wrapped planes.  The
kernels work in place: ``derivative`` writes one axis's central
difference straight into the caller's buffer, the gradient is that
derivative per axis into the rows of its stack, and the Laplacian
writes into its result and one scratch buffer reused for every axis,
with no other temporaries.  The solver takes the gradient one axis at a
time through ``derivative``, and nothing in the package calls
``gradient_nd``: its stack is kept for the tests' checks and for the
benchmark's ``kernels.gradient_nd`` metric, which traces it.

``axis_spread`` is the largest max - min over the lines along one axis,
the measure of how much a field varies along it, taken without
reducing along short contiguous rows and without a full-grid temporary.
"""

import math

import numpy as np


def neighbours(f, axis, sign, out):
    """Write S+f + sign * S-f along ``axis`` into ``out``; sign is +1 or -1.

    ``out`` must be C-contiguous.  In C order S+ along an axis is a flat
    shift by that axis's stride s, so the interior is one ufunc call on
    two flat slices of f, f[i + s] +- f[i - s], written straight into
    ``out``.  That call also writes the planes where the flat shift
    crosses into the next or the previous line, and the two wrapped
    planes are then written again from the right neighbours: index 0
    is f[1] +- f[m-1] and index m-1 is f[0] +- f[m-2].  Each node is one
    add or subtract of the same two operands, in the same order, as
    ``np.roll(f, -1, axis) +- np.roll(f, 1, axis)``.
    """
    if not out.flags.c_contiguous:
        raise ValueError("neighbours writes into a C-contiguous buffer only")
    m = f.shape[axis]
    s = math.prod(f.shape[axis + 1:])
    f_flat, o_flat = f.reshape(-1), out.reshape(-1)
    f3, o3 = f_flat.reshape(-1, m, s), o_flat.reshape(-1, m, s)
    combine = np.add if sign > 0 else np.subtract
    combine(f_flat[2 * s:], f_flat[:-2 * s], out=o_flat[s:-s])
    combine(f3[:, 1], f3[:, -1], out=o3[:, 0])
    combine(f3[:, 0], f3[:, -2], out=o3[:, -1])
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


# Lines along a middle axis whose stride is below this many elements are
# walked one slice at a time: numpy's own reduction there steps along
# rows too short to pay for its set-up.
SHORT_ROW = 64


def axis_spread(arr, axis):
    """The largest max - min over the lines of ``arr`` along ``axis``.

    Exactly ``float(np.max(np.ptp(arr, axis=axis)))``, since max and min
    are exact and only the traversal differs.  Along the last axis the
    lines are consecutive runs of the flat array, reduced by
    ``reduceat``; along a middle axis with a short stride, a running
    maximum and minimum over the axis's slices; elsewhere numpy's own
    reduction, which is fastest there.  On a C-ordered ``arr``, as every
    grid array here is, each way holds a few arrays of one value per
    line and never a full-grid temporary.
    """
    m = arr.shape[axis]
    s = math.prod(arr.shape[axis + 1:])
    if s == 1:
        flat = arr.reshape(-1)
        starts = np.arange(0, flat.size, m)
        hi = np.maximum.reduceat(flat, starts)
        lo = np.minimum.reduceat(flat, starts)
    elif axis == 0 or s >= SHORT_ROW:
        hi, lo = np.max(arr, axis=axis), np.min(arr, axis=axis)
    else:
        a3 = arr.reshape(-1, m, s)
        hi, lo = a3[:, 0].copy(), a3[:, 0].copy()
        for k in range(1, m):
            np.maximum(hi, a3[:, k], out=hi)
            np.minimum(lo, a3[:, k], out=lo)
    return float(np.max(np.subtract(hi, lo, out=hi)))
