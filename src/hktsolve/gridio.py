"""Field file formats, and the checks every input value passes.

A field file is one JSON header line (dims, lengths, channels) followed
by the raw little-endian float64 payload in C order.  Scalar fields have
no channel axis; packed symmetric matrix fields carry d*(d+1)/2
channels, upper triangle in row-major order.

``integer``, ``real``, ``listed``, ``matrix`` and ``known_keys`` check a
value from a JSON document or a Python caller and raise ConfigError
naming its field.  The solve config, the field header and ``TorusGrid``
all go through them: a number is a ``numbers.Integral`` or
``numbers.Real`` that is not a bool, so JSON's 8.7, "8" and true are
refused as integers while numpy scalars are taken.
``negative_semidefinite`` is the one rule for a quadratic form's
eigenvalues, read by the solver's Q check and by ``verify-algebra``.
"""

import json
import math
import numbers
import os

import numpy as np

from .errors import ConfigError, ShapeMismatch


def integer(label, x):
    """x as an int; 8.7, "8" and True are refused."""
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return int(x)
    raise ConfigError("%s must be an integer, got %r" % (label, x))


def real(label, x):
    """x as a finite float; NaN, an infinity, a bool, a string and an
    integer beyond the float range are refused."""
    if isinstance(x, numbers.Real) and not isinstance(x, bool):
        try:
            if math.isfinite(value := float(x)):
                return value
        except OverflowError:
            pass
    raise ConfigError("%s must be a finite number, got %r" % (label, x))


def listed(label, xs, check):
    """A list (or tuple) of values, each passed through check(label, x)."""
    if not isinstance(xs, (list, tuple)):
        raise ConfigError("%s must be a list, got %r" % (label, xs))
    return [check(label, x) for x in xs]


def matrix(label, rows):
    """A non-empty list of equal-length rows of finite numbers, as floats."""
    if not (isinstance(rows, list) and rows
            and all(isinstance(r, list) and len(r) == len(rows[0]) for r in rows)):
        raise ConfigError("%s must be a list of equal-length rows, got %r"
                          % (label, rows))
    return [listed(label, r, real) for r in rows]


# the largest eigenvalue a negative semi-definite quadratic form may
# show: room for the round-off of an exactly semi-definite one
Q_EIGENVALUE_TOL = 1e-12


def negative_semidefinite(label, eigenvalues):
    """Refuse a symmetric form whose largest eigenvalue exceeds
    Q_EIGENVALUE_TOL."""
    top = float(np.max(eigenvalues))
    if top > Q_EIGENVALUE_TOL:
        raise ConfigError("%s is not negative semi-definite (largest eigenvalue %.3e)"
                          % (label, top))


def known_keys(label, mapping, known):
    """Refuse a key of the JSON object ``mapping`` outside ``known``."""
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        raise ConfigError("%s has unknown key %r (known: %s)"
                          % (label, unknown[0], ", ".join(sorted(known))))


def frozen(arr):
    """arr made read-only, returned as a view that cannot be made writable.

    A caller that keeps no other reference to arr leaves the view the
    only way to its memory, so nothing can write it: Problem holds such
    an F as it is, without a copy.
    """
    arr.flags.writeable = False
    return arr.view()


def write_field(path, arr, lengths):
    """Write a field file; a C-contiguous float64 array is written as it is.

    Any other array is first converted to one, its only copy.
    """
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
    payload = np.ascontiguousarray(arr, dtype="<f8")
    try:
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            fh.write(payload)
    except OSError as exc:
        raise ConfigError("cannot write field file %s: %s"
                          % (path, exc.strerror or exc)) from exc


def read_field(path):
    """Returns (array, lengths); channel axis kept last when present.

    The header line is read first; once it is checked and the file
    holds exactly the payload it promises, the payload is read straight
    into the returned array, so no other copy of it is made.  The array
    is read-only (``frozen``): a Problem takes it as its F without a
    copy, and a caller that wants to write it copies it.
    """
    if not isinstance(path, (str, os.PathLike)):
        # an integer would be opened as a file descriptor
        raise ConfigError("field file path must be a string, got %r" % (path,))
    try:
        with open(path, "rb") as fh:
            return _read_field(fh, path)
    except OSError as exc:
        raise ConfigError("cannot read field file %s: %s"
                          % (path, exc.strerror or exc)) from exc


def _read_field(fh, path):
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise ConfigError("field file %s has no header line" % path)
    try:
        header = json.loads(line[:-1].decode("utf-8"))
        dims = header["dims"]
        lengths = header["lengths"]
        channels = header.get("channels", 0)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError("bad field header in %s: %s" % (path, exc))
    dims = listed("field header dims", dims, integer)
    if not (dims and min(dims) > 0):
        raise ConfigError("field header dims must be a non-empty list of "
                          "positive integers, got %r" % (dims,))
    lengths = tuple(listed("field header lengths", lengths, real))
    if len(lengths) != len(dims):
        raise ConfigError("field header has %d lengths for %d dims"
                          % (len(lengths), len(dims)))
    if min(lengths) <= 0.0:
        raise ConfigError("field header lengths must be positive, got %r"
                          % (lengths,))
    channels = integer("field header channels", channels)
    if channels < 0:
        raise ConfigError("field header channels must be non-negative, got %r"
                          % (channels,))
    shape = tuple(dims) + ((channels,) if channels else ())
    want = math.prod(shape) * 8
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != want:
        raise ShapeMismatch("field payload is %d bytes, header promises %d"
                            % (size, want))
    arr = np.empty(shape, dtype="<f8")
    got = fh.readinto(arr)
    if got != want or fh.read(1):
        raise ConfigError("field file %s changed while it was read" % path)
    return frozen(arr), lengths


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
        return np.asarray(matrix("q.matrix", spec["matrix"]))
    if "file" in spec:
        arr, lengths = read_field(spec["file"])
        if tuple(lengths) != grid.lengths:
            raise ConfigError("quadratic form field lengths do not match the grid")
        return unpack_symmetric(arr, grid.ndim)
    raise ConfigError("quadratic form spec needs a 'matrix' or 'file' key")
