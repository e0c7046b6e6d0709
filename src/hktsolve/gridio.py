"""Field file formats.

A field file is one JSON header line (dims, lengths, channels) followed
by the raw little-endian float64 payload in C order.  Scalar fields have
no channel axis; packed symmetric matrix fields carry d*(d+1)/2
channels, upper triangle in row-major order.  CSV export writes one row
per node with leading coordinates.
"""

import csv
import io
import json
import os

import numpy as np

from .errors import ConfigError, ShapeMismatch


def write_field(path, arr, lengths):
    arr = np.asarray(arr, dtype=float)
    lengths = [float(x) for x in lengths]
    nd = len(lengths)
    if arr.ndim == nd:
        channels = 0
        dims = arr.shape
    elif arr.ndim == nd + 1:
        channels = arr.shape[-1]
        dims = arr.shape[:-1]
    else:
        raise ShapeMismatch("array rank %d does not fit %d grid axes"
                            % (arr.ndim, nd))
    header = {"dims": list(dims), "lengths": lengths, "channels": channels}
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        fh.write(arr.astype("<f8").tobytes(order="C"))


def read_field(path):
    """Returns (array, lengths); channel axis kept last when present."""
    if not isinstance(path, (str, os.PathLike)):
        # an integer would be opened as a file descriptor
        raise ConfigError("field file path must be a string, got %r" % (path,))
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read field file %s: %s"
                          % (path, exc.strerror or exc)) from exc
    cut = raw.find(b"\n")
    if cut < 0:
        raise ConfigError("field file %s has no header line" % path)
    try:
        header = json.loads(raw[:cut].decode("utf-8"))
        dims = tuple(int(d) for d in header["dims"])
        lengths = tuple(float(x) for x in header["lengths"])
        channels = int(header.get("channels", 0))
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError("bad field header in %s: %s" % (path, exc))
    shape = dims + (channels,) if channels else dims
    want = int(np.prod(shape)) * 8
    payload = raw[cut + 1:]
    if len(payload) != want:
        raise ShapeMismatch("field payload is %d bytes, header promises %d"
                            % (len(payload), want))
    arr = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return arr, lengths


def field_to_csv(arr, grid):
    arr = np.asarray(arr, dtype=float)
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["x%d" % ax for ax in range(grid.ndim)] + ["value"])
    coords = [grid.coords(ax) for ax in range(grid.ndim)]
    for idx in np.ndindex(*grid.dims):
        w.writerow(["%.17g" % coords[ax][idx[ax]] for ax in range(grid.ndim)]
                   + ["%.17g" % arr[idx]])
    return out.getvalue()


def pack_symmetric(q):
    """Per-node symmetric (d, d) matrices to upper-triangle channels."""
    q = np.asarray(q, dtype=float)
    d = q.shape[-1]
    cols = [q[..., i, j] for i in range(d) for j in range(i, d)]
    return np.stack(cols, axis=-1)


def unpack_symmetric(channels, d):
    channels = np.asarray(channels, dtype=float)
    if channels.shape[-1] != d * (d + 1) // 2:
        raise ShapeMismatch("expected %d channels for d=%d, got %d"
                            % (d * (d + 1) // 2, d, channels.shape[-1]))
    out = np.zeros(channels.shape[:-1] + (d, d))
    pos = 0
    for i in range(d):
        for j in range(i, d):
            out[..., i, j] = channels[..., pos]
            out[..., j, i] = channels[..., pos]
            pos += 1
    return out


def load_qspec(spec, grid):
    """Quadratic form from a JSON value or a field file path.

    Accepts {"matrix": [[...]]} (or a bare nested list) for a constant
    form, or {"file": path} pointing at a packed symmetric field.  Only
    the shape is checked here; the Problem built from the form checks
    that it is finite and negative semi-definite.
    """
    if isinstance(spec, str):
        spec = {"file": spec}
    if isinstance(spec, (list, tuple)):
        spec = {"matrix": spec}
    if not isinstance(spec, dict):
        raise ConfigError("quadratic form spec must be a matrix, dict, or path")
    if "matrix" in spec:
        q = np.asarray(spec["matrix"], dtype=float)
        if q.shape != (grid.ndim, grid.ndim):
            raise ShapeMismatch("constant quadratic form must be %dx%d"
                                % (grid.ndim, grid.ndim))
    elif "file" in spec:
        arr, _lengths = read_field(spec["file"])
        q = unpack_symmetric(arr, grid.ndim)
        if q.shape[:-2] != grid.dims:
            raise ShapeMismatch("quadratic form field does not match the grid")
    else:
        raise ConfigError("quadratic form spec needs a 'matrix' or 'file' key")
    return q
