"""Grid stencil kernels and the spread of a field along one axis.

Second-order central differences with periodic wrap, along every axis
of the field.  With S+- f[i] = f[i +- 1] the periodic shifts along one
axis, every stencil here is built from the pair S+f + S-f or S+f - S-f,
which ``neighbours`` writes into a buffer the caller owns in one pass:
one ufunc call over the interior, then the two wrapped planes.  It
writes every row along axis 0, or only a range of them: a pass over a
large grid then runs slab by slab over the ranges of ``slabs``, of
about SLAB_NODES nodes each, so that the few arrays it touches stay in
L2 cache instead of streaming from L3 or memory once per ufunc call.
Every node gets the same operations in the same order either way, so a
slabbed pass is bit-identical to a whole-grid one.

The kernels work in place: ``derivative`` writes one axis's central
difference straight into the caller's buffer, the gradient is that
derivative per axis into the rows of its stack, and the Laplacian,
``laplacian_rows`` over a row range, writes into the caller's result
and one scratch buffer reused for every axis, with no other
temporaries; ``laplacian_nd`` is its whole-grid form with fresh
buffers.  The solver takes the gradient one axis at a time through
``derivative``, and nothing in the package calls ``gradient_nd``: its
stack is kept for the tests' checks and for the benchmark's
``kernels.gradient_nd`` metric, which traces it.

``axis_spread`` is the largest max - min over the lines along one axis,
the measure of how much a field varies along it: 0.0 after contiguous
comparisons of about SPREAD_CHUNK_NODES nodes each for a field whose
slices along the axis are all equal, and otherwise numpy's max and min
along the axis, which hold one value per line and no full-grid
temporary.
"""

import functools
import math

import numpy as np


# A slab's rows hold about this many nodes: 128 kB per float array, so a
# pass's four or five arrays fit in a 2 MiB L2.  Density / bordered
# matvec in ms, one thread of a 2-vCPU Xeon VM (2 MiB of L2 per core),
# Q = -4I, median of 30 to 400 calls, the range over two sweeps; "one"
# is a single slab, the whole grid:
#
#   SLAB_NODES  20^4             512^2            256^2               32^4
#   2^13        3.2-3.5/2.8-3.3  2.6-2.9/2.4-2.6  0.65-0.69/0.58      17.7-18.9/15.6-17.3
#   2^14        2.7-2.9/2.1-2.3  2.2/1.9          0.54-0.57/0.42-0.46 17.7-18.6/15.4-17.2
#   2^15        2.7-2.9/2.0-2.3  2.3/1.8          0.55/0.39-0.42      18.0-18.7/15.4-17.4
#   2^16        2.8-2.9/2.2      2.4/1.9-2.0      0.53-0.57/0.41-0.54 18.9-20.1/17.9-18.0
#   one         3.4-3.6/3.3-3.5  3.1/3.1-3.2      0.57/0.42-0.45      35.8-37.4/34.4-36.6
#
# 2^14 and 2^15 tie within the noise; 2^14 (2 rows of 20^4) keeps the
# density's two slab buffers at a fifth of a 20^4 array, 2^15 (4 rows)
# would take two fifths.  A constant, not an option.
SLAB_NODES = 2 ** 14


def slabs(shape):
    """Row ranges (r0, r1) along axis 0 that cover ``shape`` in order, as
    a tuple built once per shape (and SLAB_NODES).

    Each holds SLAB_NODES // (nodes per row) rows, at least one, and the
    last what is left; a grid no bigger than one slab is one range.
    """
    return _slab_ranges(tuple(shape), SLAB_NODES)


@functools.lru_cache(maxsize=64)
def _slab_ranges(shape, slab_nodes):
    rows = max(1, slab_nodes // math.prod(shape[1:]))
    return tuple((r, min(r + rows, shape[0])) for r in range(0, shape[0], rows))


def neighbours(f, axis, sign, out, rows=None):
    """Write S+f + sign * S-f along ``axis`` into ``out``; sign is +1 or -1.

    With ``rows = (r0, r1)``, only rows r0 to r1 - 1 along axis 0 are
    written, into an ``out`` of r1 - r0 rows; by default every row is.
    ``out`` must be C-contiguous, and f should be, or each call copies
    it.  In C order S+ along an axis is a flat shift by that axis's
    stride s, so the interior is one ufunc call on two flat slices of f,
    f[i + s] +- f[i - s], written straight into ``out``.  Along axis 0
    the interior is the rows of the range other than 0 and m-1, and
    those two, if in the range, are written from the far side of the
    grid.  Along any other axis the rows' block of f is contiguous: the
    interior call also writes the planes where the flat shift crosses
    into the next or the previous line, and the two wrapped planes are
    then written again from the right neighbours.  Either way index 0
    is f[1] +- f[m-1] and index m-1 is f[0] +- f[m-2], and each node is
    one add or subtract of the same two operands, in the same order, as
    ``np.roll(f, -1, axis) +- np.roll(f, 1, axis)``.
    """
    if not out.flags.c_contiguous:
        raise ValueError("neighbours writes into a C-contiguous buffer only")
    combine = np.add if sign > 0 else np.subtract
    if axis == 0:
        m, s = f.shape[0], math.prod(f.shape[1:])
        r0, r1 = (0, m) if rows is None else rows
        f_flat, o_flat = f.reshape(-1), out.reshape(-1)
        lo, hi = max(r0, 1), min(r1, m - 1)
        if lo < hi:
            combine(f_flat[(lo + 1) * s:(hi + 1) * s],
                    f_flat[(lo - 1) * s:(hi - 1) * s],
                    o_flat[(lo - r0) * s:(hi - r0) * s])
        if r0 == 0:
            combine(f[1:2], f[m - 1:], out[:1])
        if r1 == m:
            combine(f[:1], f[m - 2:m - 1], out[m - 1 - r0:])
        return out
    if rows is not None:
        f = f[rows[0]:rows[1]]
    m = f.shape[axis]
    s = math.prod(f.shape[axis + 1:])
    f_flat = f.reshape(-1)
    f3, o3 = f_flat.reshape(-1, m, s), out.reshape(-1, m, s)
    combine(f_flat[2 * s:], f_flat[:-2 * s], out.reshape(-1)[s:-s])
    combine(f3[:, 1], f3[:, -1], o3[:, 0])
    combine(f3[:, 0], f3[:, -2], o3[:, -1])
    return out


def laplacian_rows(f, spacings, out, scratch, rows=None):
    """Write the periodic Laplacian of f over ``rows`` (see neighbours) into
    ``out``, with ``scratch``, of out's shape, for each axis's neighbours.

    centre * f, then h^-2 (S+f + S-f) added axis by axis.
    """
    f_rows = f if rows is None else f[rows[0]:rows[1]]
    np.multiply(f_rows, -2.0 * sum(1.0 / (h * h) for h in spacings), out=out)
    for ax, h in enumerate(spacings):
        neighbours(f, ax, 1, scratch, rows)
        scratch *= 1.0 / (h * h)
        out += scratch
    return out


def laplacian_nd(f, spacings):
    """Periodic central-difference Laplacian of a field on any number of axes."""
    return laplacian_rows(f, spacings, np.empty(f.shape), np.empty(f.shape))


def derivative(f, axis, h, out, rows=None):
    """Write the periodic central difference of f along ``axis`` into ``out``.

    (S+f - S-f) / (2h), with h the axis's spacing, over ``rows`` as in
    neighbours; ``out`` must be C-contiguous.
    """
    neighbours(f, axis, -1, out, rows)
    out /= 2.0 * h
    return out


def gradient_nd(f, spacings):
    """Periodic central-difference gradient, stacked along a leading axis."""
    g = np.empty((f.ndim,) + f.shape)
    for ax, h in enumerate(spacings):
        derivative(f, ax, h, g[ax])
    return g


# axis_spread compares the slices along an axis in chunks of about this
# many nodes, a 64 kB boolean buffer.  A constant field along one axis,
# microseconds per call on one thread of a 2-vCPU x86 VM, best of 7:
#
#   chunk      20^4 axes 1-3   512^2 axis 1   32^4 axes 1-3
#   2^14       69-73           113            436-719
#   2^16       48-51           77             385-565
#   2^17       46-50           73             369-550
#   whole      44-48           78             386-597
#
# Below 2^16 each chunk's few calls cost more than its comparison.
SPREAD_CHUNK_NODES = 2 ** 16


def axis_spread(arr, axis):
    """The largest max - min over the lines of ``arr`` along ``axis``.

    Exactly ``float(np.max(np.ptp(arr, axis=axis)))``, since max and min
    are exact: numpy's max and min along the axis, kept with it so that
    a 1-axis ``arr`` gives arrays, with the difference written over the
    maxima, hold two arrays of one value per line (np.ptp holds three)
    and no full-grid temporary.

    First, though, every slice along the axis is compared with the next,
    which is the flat array compared with itself shifted by the axis's
    stride s: one contiguous comparison per chunk of whole slices (s
    elements each) of about SPREAD_CHUNK_NODES nodes, one slice where a
    slice is larger, into one boolean chunk, with the last slice of each
    line block (the m s elements of one index before the axis), which
    meets the next block, left out.  It stops at the first chunk with an
    unequal pair, along axis 0 too, whose one block is the whole grid.
    When every pair is equal, every line is constant, and its max - min
    is x - x: 0.0, or NaN where x is infinite (a NaN never compares
    equal).
    """
    m = arr.shape[axis]
    s = math.prod(arr.shape[axis + 1:])
    flat = arr.reshape(-1)
    # slice j is compared with slice j + 1, ``chunk`` slices at a time
    compared = flat.size // s - 1
    chunk = max(1, SPREAD_CHUNK_NODES // s)
    same = np.empty(min(chunk, compared) * s, dtype=bool)
    for j0 in range(0, compared, chunk):
        j1 = min(j0 + chunk, compared)
        pairs = same[:(j1 - j0) * s]
        np.equal(flat[(j0 + 1) * s:(j1 + 1) * s], flat[j0 * s:j1 * s], out=pairs)
        pairs.reshape(-1, s)[(m - 1 - j0) % m::m] = True
        if not pairs.all():
            break
    else:
        return 0.0 if np.isfinite(flat.reshape(-1, m, s)[:, 0]).all() else math.nan
    del same, pairs   # the booleans go before the reduction's arrays come
    hi = np.max(arr, axis=axis, keepdims=True)
    return float(np.max(np.subtract(hi, np.min(arr, axis=axis, keepdims=True),
                                    out=hi)))
