"""Real Lie algebras, quaternionic frames, and their complex brackets.

The real algebra is given by structure constants on a basis X_1..X_N.  A
pair of anticommuting complex structures I, J turns R^N into a
quaternionic vector space; a frame is a choice of N/2 complex vectors of
type (1,0) for I that J pairs up two by two.

Vectors are sparse, ``{index: coefficient}`` with no zero entries, summed
in place by ``exact.accumulate``, and a linear map is the dict of its
sparse columns, ``{j: image of X_j}``.  The real side (structure
constants, I, J, the Jacobi and Nijenhuis checks) is exact over the
rationals, a coefficient held as an ``int`` when it is integral and as
a ``Fraction`` otherwise; Gaussian rationals (``QQi``, integer triples)
enter only with the complexified frame, one ``ComplexFrame`` that
carries its vectors, their complex brackets (computed through the
metric adjoint, the inverse of the frame matrix since the frame is
unitary) and the split the reduction is taken along.

Index conventions used throughout the package:

* real basis indices run 1..N,
* complex frame indices run 1..2n with N = 4n,
* a barred (conjugate) frame vector is addressed as ``2n + r``.

J pairs the frame vectors (2k-1, 2k).  Frames are normalized so that
``J Z_{2k-1} = -conj(Z_{2k})``; a frame handed in with the opposite sign
on some pair is repaired by flipping the second vector of that pair.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadAnnihilatedSet,
    ConfigError,
    DimensionMismatch,
    DimensionNotMultipleOf4,
    IndexOutOfRange,
    JacobiViolation,
    NijenhuisViolation,
    NonClosedBracket,
    NotUnitary,
    PairingNotInvolutive,
)
from .exact import ONE, QQi, ZERO, accumulate, as_qqi


# ---------------------------------------------------------------------------
# sparse vectors and maps


def _apply(m, v):
    """Image of the sparse vector v under the map with sparse columns m."""
    out = {}
    for j, c in v.items():
        accumulate(out, m.get(j, {}), c)
    return out


def _sparse(v):
    """Sparse form of a dense coefficient sequence, 1-based."""
    return {i: x for i, x in enumerate(v, 1) if x}


def _conj(v):
    """Complex conjugate of a sparse QQi vector."""
    return {i: x.conjugate() for i, x in v.items()}


def _oriented(table, i, j):
    """Entry (i, j) of a table of brackets listed only for i < j.

    For i < j it is the table's own dict, not a copy: callers only read it.
    No (i, i) is listed, so [X_i, X_i] comes out empty.
    """
    if i < j:
        return table.get((i, j), {})
    return {k: -c for k, c in table.get((j, i), {}).items()}


# ---------------------------------------------------------------------------
# real structure constants


class StructureConstants:
    """Brackets [X_i, X_j] = sum_k c^k_ij X_k on a fixed basis, 1-based."""

    def __init__(self, dim, table):
        if dim < 1:
            raise ConfigError("dimension must be positive")
        self.dim = dim
        self.table = {}
        for (i, j), comps in table.items():
            self._check_index(i)
            self._check_index(j)
            if i == j:
                raise ConfigError("bracket of X_%d with itself listed" % i)
            sign = 1
            if i > j:
                i, j, sign = j, i, -1
            if (i, j) in self.table:
                raise ConfigError("bracket (%d, %d) listed twice" % (i, j))
            clean = {}
            for k, c in comps.items():
                self._check_index(k)
                c = Fraction(c) * sign
                if c.denominator == 1:
                    c = c.numerator   # an integral constant is a plain int
                if c != 0:
                    clean[k] = c
            if clean:
                self.table[(i, j)] = clean

    def _check_index(self, i):
        if not isinstance(i, int) or not (1 <= i <= self.dim):
            raise IndexOutOfRange("index %r outside 1..%d" % (i, self.dim))

    def bracket_basis(self, i, j):
        """[X_i, X_j] as a dict k -> int or Fraction, to be read only."""
        return _oriented(self.table, i, j)

    def bracket(self, u, v):
        """Bracket of two sparse vectors ``{index: coefficient}``."""
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                basis = self.bracket_basis(i, j)
                if basis:   # a product for an empty bracket is thrown away
                    accumulate(out, basis, a * b)
        return out

    def __eq__(self, other):
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return self.dim == other.dim and self.table == other.table


def parse_rational(text):
    """An exact rational from text such as ``-3``, ``1/2``, ``0.5`` or ``1e2``.

    Fraction expands a decimal exponent exactly, so ``1e999999999`` would
    run for hours; an exponent beyond +-100 is refused instead.
    """
    _mantissa, marker, exponent = text.lower().partition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if marker and digits.isdecimal() and (len(digits) > 3 or int(digits) > 100):
        raise ConfigError("exponent of %r is beyond +-100" % text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError("%r is not a rational number" % text) from exc


def load_structure_constants(text):
    """Parse the plain text bracket format.

    The first data line is ``dim N``; every following line reads
    ``i j : k c, k c, ...`` and declares [X_i, X_j] = sum c X_k with
    rational c.  ``#`` starts a comment.
    """
    dim = None
    table = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if dim is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "dim":
                raise ConfigError("line %d: expected 'dim N' first" % lineno)
            try:
                dim = int(parts[1])
            except ValueError:
                raise ConfigError("line %d: bad dimension %r" % (lineno, parts[1]))
            continue
        if ":" not in line:
            raise ConfigError("line %d: missing ':'" % lineno)
        head, tail = line.split(":", 1)
        try:
            i, j = (int(p) for p in head.split())
        except ValueError:
            raise ConfigError("line %d: bad index pair %r" % (lineno, head.strip()))
        comps = {}
        for chunk in tail.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split()
            if len(parts) != 2:
                raise ConfigError("line %d: bad component %r" % (lineno, chunk))
            try:
                k = int(parts[0])
                c = parse_rational(parts[1])
            except (ValueError, ConfigError) as exc:
                raise ConfigError("line %d: bad component %r (%s)"
                                  % (lineno, chunk, exc))
            if k in comps:
                raise ConfigError("line %d: index %d repeated" % (lineno, k))
            comps[k] = c
        key = (i, j)
        if key in table or (j, i) in table:
            raise ConfigError("line %d: bracket (%d, %d) listed twice" % (lineno, i, j))
        table[key] = comps
    if dim is None:
        raise ConfigError("no 'dim N' line found")
    return StructureConstants(dim, table)


def check_jacobi(sc, strict=True):
    """Verify the Jacobi identity exactly over all basis triples.

    A triple can fail only when one of its pairs is a listed bracket and
    its third index occurs in some listed bracket, so only those triples
    are walked; they are walked in sorted order, which makes the first
    failure the one a walk over every triple would meet.
    """
    support = {i for key in sc.table for i in key}
    triples = sorted({tuple(sorted((x, y, z)))
                      for x, y in sc.table for z in support if z not in (x, y)})
    for i, j, k in triples:
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            accumulate(acc, sc.bracket(sc.bracket_basis(a, b), {c: 1}))
        if acc:
            if strict:
                raise JacobiViolation(
                    "jacobi identity fails on (X_%d, X_%d, X_%d)" % (i, j, k))
            return False
    return True


# ---------------------------------------------------------------------------
# frames


@dataclass
class FrameSpec:
    """Everything needed to build a complex frame on a real algebra.

    ``imap`` and ``jmap`` give I and J by their sparse columns
    ``{j: {i: c}}``: the map sends X_j to the sum of c * X_i, with
    exact rational c (an int or a Fraction); a column left out is zero.
    """

    sc: StructureConstants
    imap: dict
    jmap: dict
    vectors: list          # 2n coefficient vectors over QQi, length N each
    metric_diag: list      # N positive Fractions
    split: tuple           # annihilated frame indices, subset of 1..2n


class ComplexFrame:
    """A validated frame with its complex brackets and its split.

    ``vectors`` holds the 2n frame vectors as sparse QQi dicts, after
    the pairing repair.  ``entries`` maps (r, s), r < s, over the full
    index range (bars as 2n + r) to the nonzero frame components of
    [Z_r, Z_s].  The split (the annihilated frame indices of
    ``spec.split``) is the foliation every symbolic derivative is taken
    along; ``active`` holds the transverse unbarred indices.
    """

    def __init__(self, spec, vectors, entries):
        self.spec = spec
        self.vectors = vectors
        self.entries = entries
        self.half = len(vectors)
        self.split = tuple(sorted(spec.split))
        self.active = tuple(k for k in range(1, self.half + 1) if k not in self.split)

    def bracket(self, r, s):
        """[Z_r, Z_s] as dict index -> QQi, any orientation, bars as 2n+k.

        Read only: for r < s it is the stored entry itself.
        """
        return _oriented(self.entries, r, s)

    def coeff(self, k, r, s):
        """Coefficient of frame element k in [Z_r, Z_s]."""
        return self.bracket(r, s).get(k, ZERO)

    def bar(self, k):
        """Index of the conjugate of frame element k."""
        return k - self.half if k > self.half else k + self.half

    def is_active(self, i):
        """Is frame index i (bars as half + r) transverse to the foliation?"""
        return (i - self.half if i > self.half else i) not in self.split

    def pair_of(self, k):
        return k + 1 if k % 2 == 1 else k - 1


def build_complex_frame(spec):
    """Validate a FrameSpec and produce the ComplexFrame.

    Checks run in a fixed order: dimensions and the split's range, the
    (1,0) condition for I, J pairing (with sign normalization), and
    unitarity for the given metric.  With V the matrix of the frame and
    its conjugates and G the diagonal metric, unitarity reads
    ``V^H G V = I``: it makes the frame a basis, and its inverse the
    metric adjoint ``V^H G``.
    """
    sc = spec.sc
    dim = sc.dim
    if dim % 4 != 0:
        raise DimensionNotMultipleOf4("real dimension %d is not 4n" % dim)
    half = dim // 2
    if len(spec.vectors) != half:
        raise DimensionMismatch(
            "expected %d frame vectors, got %d" % (half, len(spec.vectors)))
    sparse = []
    for v in spec.vectors:
        if len(v) != dim:
            raise DimensionMismatch("frame vector length %d, expected %d" % (len(v), dim))
        sparse.append(_sparse([as_qqi(x) for x in v]))
    if len(spec.metric_diag) != dim:
        raise DimensionMismatch("metric diagonal must have %d entries" % dim)
    split = tuple(sorted(spec.split))
    for k in split:
        if not (1 <= k <= half):
            raise BadAnnihilatedSet("split index %d outside 1..%d" % (k, half))
    if len(set(split)) != len(split):
        raise BadAnnihilatedSet("split contains repeated indices")

    # I^2 = J^2 = -1 and IJ + JI = 0, checked on each basis vector
    imap, jmap = spec.imap, spec.jmap
    basis = range(1, dim + 1)
    for name, m in (("I", imap), ("J", jmap)):
        if any(_apply(m, m.get(j, {})) != {j: -1} for j in basis):
            raise ConfigError("%s squared is not minus the identity" % name)
    if any(accumulate(_apply(imap, jmap.get(j, {})), _apply(jmap, imap.get(j, {})))
           for j in basis):
        raise ConfigError("I and J do not anticommute")

    # type (1,0) for I
    for a, v in enumerate(sparse, 1):
        if _apply(imap, v) != {i: QQi(0, 1) * x for i, x in v.items()}:
            raise ConfigError("frame vector %d is not of type (1,0) for I" % a)

    # J pairing, normalized to J Z_{2k-1} = -conj(Z_{2k})
    for k in range(half // 2):
        v1, v2 = sparse[2 * k], sparse[2 * k + 1]
        w, cv2 = _apply(jmap, v1), _conj(v2)
        if w == cv2:
            v2 = sparse[2 * k + 1] = {i: -x for i, x in v2.items()}
        elif w != {i: -x for i, x in cv2.items()}:
            raise PairingNotInvolutive(
                "J does not pair frame vectors %d and %d" % (2 * k + 1, 2 * k + 2))
        if _apply(jmap, v2) != _conj(v1):
            raise PairingNotInvolutive(
                "J pairing on vectors %d, %d is not involutive" % (2 * k + 1, 2 * k + 2))

    # unitarity: hermitian Gram matrix is the identity, and the frame is
    # isotropic for the bilinear extension of the metric; a product
    # walks only the indices where both supports meet
    g = {i: Fraction(x) for i, x in enumerate(spec.metric_diag, 1)}
    for a in range(half):
        for b in range(a, half):
            u, w = sparse[a], sparse[b]
            meet = u.keys() & w.keys()
            herm = sum((u[i] * w[i].conjugate() * g[i] for i in meet), ZERO)
            bil = sum((u[i] * w[i] * g[i] for i in meet), ZERO)
            want = ONE if a == b else ZERO
            if herm != want:
                raise NotUnitary(
                    "hermitian product of Z_%d and Z_%d is %s" % (a + 1, b + 1, herm))
            if bil != ZERO:
                raise NotUnitary(
                    "frame vectors Z_%d and Z_%d are not isotropic" % (a + 1, b + 1))

    # complex bracket table over the full index range; the inverse of the
    # frame matrix is its metric adjoint, so X_j has the coordinate
    # conj(cols[r][j]) * g_j on frame element r
    cols = sparse + [_conj(v) for v in sparse]
    coords = {}
    for r, col in enumerate(cols, 1):
        for j, x in col.items():
            coords.setdefault(j, {})[r] = x.conjugate() * g[j]
    entries = {}
    for r in range(dim):
        for s in range(r + 1, dim):
            comps = _apply(coords, sc.bracket(cols[r], cols[s]))
            if comps:
                entries[(r + 1, s + 1)] = comps
    return ComplexFrame(spec, sparse, entries)


# ---------------------------------------------------------------------------
# integrability checks


def nijenhuis_defect(sc, m, i, j):
    """N_M(X_i, X_j) for the real map m, as an exact sparse vector."""
    mi, mj = m.get(i, {}), m.get(j, {})
    out = sc.bracket(mi, mj)
    accumulate(out, _apply(m, sc.bracket(mi, {j: 1})), -1)
    accumulate(out, _apply(m, sc.bracket({i: 1}, mj)), -1)
    return accumulate(out, sc.bracket_basis(i, j), -1)


def check_hypercomplex(frame_or_spec, strict=False):
    """Full integrability of the pair (I, J) at the real level.

    Verifies that the Nijenhuis tensors of both complex structures vanish
    identically, and (when a built frame is passed) that the holomorphic
    frame closes under the bracket: [Z_r, Z_s] may have no conjugate
    components for unbarred r, s.
    """
    spec = getattr(frame_or_spec, "spec", frame_or_spec)
    sc = spec.sc
    for name, m in (("I", spec.imap), ("J", spec.jmap)):
        for i in range(1, sc.dim + 1):
            for j in range(i + 1, sc.dim + 1):
                if nijenhuis_defect(sc, m, i, j):
                    if strict:
                        raise NijenhuisViolation(
                            "N_%s(X_%d, X_%d) does not vanish" % (name, i, j))
                    return False
    entries = getattr(frame_or_spec, "entries", {})  # a spec has no brackets yet
    half = len(spec.vectors)
    for r, s in sorted(entries):
        if s <= half and any(k > half for k in entries[r, s]):
            if strict:
                raise NonClosedBracket("[Z_%d, Z_%d] has a conjugate component" % (r, s))
            return False
    return True


def nijenhuis_pair_identities(frame, pair):
    """The four bracket identities attached to the J-pair (a, b) = pair.

    Returns the exact values of (B^a_ba, B^b_ba, B^a_aa' + B^a_bb',
    B^b_aa' + B^b_bb') where a prime marks a conjugate index.  All four
    vanish for an integrable structure.
    """
    a, b = pair
    if b != a + 1 or a % 2 != 1:
        raise ConfigError("(%d, %d) is not a J-pair" % (a, b))
    ab, bb = frame.bar(a), frame.bar(b)
    return (
        frame.coeff(a, b, a),
        frame.coeff(b, b, a),
        frame.coeff(a, a, ab) + frame.coeff(a, b, bb),
        frame.coeff(b, a, ab) + frame.coeff(b, b, bb),
    )


def check_foliation(frame, strict=False):
    """Is the frame's split an admissible annihilated set?

    Two conditions: the split must be a union of J-pairs, and brackets of
    split elements (holomorphic and mixed) may have no components in the
    directions outside the split.
    """
    split = frame.split

    def fail(msg):
        if strict:
            raise BadAnnihilatedSet(msg)
        return False

    for k in split:
        if frame.pair_of(k) not in split:
            return fail("split is not a union of J-pairs (index %d unpaired)" % k)

    mixed = split + tuple(frame.bar(k) for k in split)
    for r in split:
        for s in mixed:
            if r == s:
                continue
            for k in frame.bracket(r, s):
                if frame.is_active(k):
                    return fail(
                        "[Z_%d, Z_%d] leaks onto transverse index %d" % (r, s, k))
    return True


def relabel_spec(spec, order):
    """Permute the frame labels of a FrameSpec, J-pairs moving as blocks.

    ``order`` lists, for each new label 1..2n, the old label it takes;
    pairs must map to pairs with orientation kept, so order[2k] is odd
    and order[2k+1] = order[2k] + 1.
    """
    half = len(spec.vectors)
    if sorted(order) != list(range(1, half + 1)):
        raise ConfigError("order must be a permutation of 1..%d" % half)
    for k in range(0, half, 2):
        if order[k] % 2 != 1 or order[k + 1] != order[k] + 1:
            raise ConfigError("order does not respect J-pairs at position %d" % (k + 1))
    pos = {old: new for new, old in enumerate(order, 1)}
    return FrameSpec(
        sc=spec.sc,
        imap=spec.imap,
        jmap=spec.jmap,
        vectors=[spec.vectors[o - 1] for o in order],
        metric_diag=list(spec.metric_diag),
        split=tuple(sorted(pos[o] for o in spec.split)),
    )
