"""Grid stencil kernels.

Second-order central differences with periodic wrap, along every axis
of the field.
"""

import numpy as np


def laplacian_nd(f, spacings):
    """Periodic central-difference Laplacian of a 2- or 4-axis field."""
    out = np.zeros_like(f)
    for ax, h in enumerate(spacings):
        out += (np.roll(f, -1, ax) - 2.0 * f + np.roll(f, 1, ax)) / (h * h)
    return out


def gradient_nd(f, spacings):
    """Periodic central-difference gradient, stacked along a leading axis."""
    g = np.empty((f.ndim,) + f.shape)
    for ax, h in enumerate(spacings):
        g[ax] = (np.roll(f, -1, ax) - np.roll(f, 1, ax)) / (2.0 * h)
    return g
