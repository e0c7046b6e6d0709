"""Field file formats.

A field file is one JSON header line (dims, lengths, channels) followed
by the raw little-endian float64 payload in C order.  Scalar fields have
no channel axis; packed symmetric matrix fields carry d*(d+1)/2
channels, upper triangle in row-major order.
"""

import json
import math
import os
import sys

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
    try:
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            fh.write(arr.astype("<f8").tobytes(order="C"))
    except OSError as exc:
        raise ConfigError("cannot write field file %s: %s"
                          % (path, exc.strerror or exc)) from exc


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
        dims = header["dims"]
        lengths = header["lengths"]
        channels = header.get("channels", 0)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError("bad field header in %s: %s" % (path, exc))
    # type() is int refuses true (a bool) and 4.0 alike
    if not (isinstance(dims, list) and dims
            and all(type(d) is int and d > 0 for d in dims)):
        raise ConfigError("field header dims must be a non-empty list of "
                          "positive integers, got %r" % (dims,))
    # a JSON integer beyond the float range is refused, not overflowed
    if not (isinstance(lengths, list) and all(
            type(x) in (int, float) and 0 < x <= sys.float_info.max for x in lengths)):
        raise ConfigError("field header lengths must be a list of positive, "
                          "finite numbers, got %r" % (lengths,))
    lengths = tuple(float(x) for x in lengths)
    if len(lengths) != len(dims):
        raise ConfigError("field header has %d lengths for %d dims"
                          % (len(lengths), len(dims)))
    if not (type(channels) is int and channels >= 0):
        raise ConfigError("field header channels must be a non-negative "
                          "integer, got %r" % (channels,))
    shape = tuple(dims) + ((channels,) if channels else ())
    want = math.prod(shape) * 8
    payload = raw[cut + 1:]
    if len(payload) != want:
        raise ShapeMismatch("field payload is %d bytes, header promises %d"
                            % (len(payload), want))
    arr = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return arr, lengths


def unpack_symmetric(channels, d):
    channels = np.asarray(channels, dtype=float)
    rows, cols = np.triu_indices(d)
    if channels.shape[-1:] != rows.shape:
        raise ShapeMismatch("expected %d channels for d=%d, got shape %r"
                            % (rows.size, d, channels.shape))
    out = np.empty(channels.shape[:-1] + (d, d))
    out[..., rows, cols] = channels
    out[..., cols, rows] = channels
    return out


def load_qspec(spec, grid):
    """Quadratic form from its JSON spec.

    Accepts {"matrix": [[...]]} for a constant form, or {"file": path}
    pointing at a packed symmetric field whose axis lengths must be the
    grid's.  Otherwise only parsing happens here; the Problem built from
    the form checks its shape, that it is finite and that it is negative
    semi-definite.
    """
    if not isinstance(spec, dict):
        raise ConfigError("quadratic form spec must be a JSON object")
    if "matrix" in spec:
        return np.asarray(spec["matrix"], dtype=float)
    if "file" in spec:
        arr, lengths = read_field(spec["file"])
        if tuple(lengths) != grid.lengths:
            raise ConfigError("quadratic form field lengths do not match the grid")
        return unpack_symmetric(arr, grid.ndim)
    raise ConfigError("quadratic form spec needs a 'matrix' or 'file' key")
