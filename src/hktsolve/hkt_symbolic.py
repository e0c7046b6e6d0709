"""Symbolic reduction of the quaternionic Monge-Ampere ratio.

Scalars here are polynomials over Q(i) in jet symbols of one real basic
potential: first derivatives along the two transverse frame directions
and their conjugates, plus the two mixed second derivatives.  Forms are
exterior polynomials in the coframe with such polynomials as
coefficients.  Everything is exact, and every sum, of polynomials and of
forms alike, adds in place through ``exact.accumulate``.

Jet symbols:

* ``('g', i)``  is the derivative of the potential along frame direction
  i (bars addressed as ``i + 2n``),
* ``('h', i, j)`` with i <= j is a canonical second derivative, first
  along i, then j.

Derivatives along annihilated directions are rewritten through the
bracket before a symbol is ever created, so polynomials only mention
transverse jets.  What the frame decides is read from one object, the
``lie_frame.ComplexFrame``: its brackets (``bracket``, ``coeff``), its
conjugation of indices (``bar``) and its ``split``, the annihilated
directions every derivative is taken along.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadAnnihilatedSet,
    ConfigError,
    NonBasicResidue,
    NotPerfectSquareDecomposition,
    OrderOverflow,
)
from .exact import ONE, QQi, ZERO, accumulate, as_qqi
from .lie_frame import check_foliation


# ---------------------------------------------------------------------------
# jet polynomials: dict {monomial: QQi}, monomial a sorted tuple of symbols


def p_const(c):
    c = as_qqi(c)
    return {(): c} if c else {}


def p_sym(sym, c=ONE):
    c = as_qqi(c)
    return {(sym,): c} if c else {}


def p_scale(a, c):
    c = as_qqi(c)
    if not c:
        return {}
    return {m: x * c for m, x in a.items()}


def p_mul(a, b):
    out = {}
    for ma, ca in a.items():
        # distinct monomials of b stay distinct once multiplied by ma
        accumulate(out, {tuple(sorted(ma + mb)): cb for mb, cb in b.items()}, ca)
    return out


def _bracket_jet(i, j, frame):
    """[Z_i, Z_j] applied to the potential, annihilated components dropped."""
    return {(("g", k),): c for k, c in frame.bracket(i, j).items() if frame.is_active(k)}


def _second(i, j, frame):
    """Z_i Z_j of the potential: h(i, j), or h(j, i) plus the bracket jet."""
    if i <= j:
        return {(("h", i, j),): ONE}
    return {(("h", j, i),): ONE, **_bracket_jet(i, j, frame)}


def _deriv_sym(i, sym, frame):
    """Z_i applied to one jet symbol, returned as a polynomial."""
    if sym[0] != "g":
        raise OrderOverflow(
            "third derivative of the potential requested via %r" % (sym,))
    j = sym[1]
    if not frame.is_active(j):
        return {}
    if not frame.is_active(i):
        # the first derivative of a basic function along the foliation
        # vanishes, only the bracket term survives
        return _bracket_jet(i, j, frame)
    return _second(i, j, frame)


def p_deriv(i, poly, frame):
    out = {}
    for mono, coef in poly.items():
        for pos, sym in enumerate(mono):
            rest = mono[:pos] + mono[pos + 1:]
            accumulate(out, p_mul({rest: coef}, _deriv_sym(i, sym, frame)))
    return out


def _conj_sym(sym, frame):
    tog = frame.bar
    if sym[0] == "g":
        return {(("g", tog(sym[1])),): ONE}
    return _second(tog(sym[1]), tog(sym[2]), frame)


def p_conj(poly, frame):
    out = {}
    for mono, coef in poly.items():
        term = p_const(coef.conjugate())
        for sym in mono:
            term = p_mul(term, _conj_sym(sym, frame))
        accumulate(out, term)
    return out


def sym_str(sym, half):
    def idx(i):
        return "%d'" % (i - half) if i > half else "%d" % i

    if sym[0] == "g":
        return "g%s" % idx(sym[1])
    return "h(%s,%s)" % (idx(sym[1]), idx(sym[2]))


def poly_str(poly, half):
    if not poly:
        return "0"
    parts = []
    for mono in sorted(poly, key=lambda m: (len(m), m)):
        c = poly[mono]
        ms = "*".join(sym_str(s, half) for s in mono)
        if not mono:
            parts.append("(%s)" % c)
        elif c == ONE:
            parts.append(ms)
        else:
            parts.append("(%s)*%s" % (c, ms))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# forms


class Form:
    """Exterior polynomial: dict from sorted index tuples to jet polynomials."""

    __slots__ = ("half", "terms")

    def __init__(self, half, terms=None):
        self.half = half
        self.terms = {}
        if terms:
            for key, poly in terms.items():
                key = tuple(key)
                if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                    raise ConfigError("form key %r is not strictly increasing" % (key,))
                if key and not (1 <= key[0] and key[-1] <= 2 * half):
                    raise ConfigError("form key %r out of range" % (key,))
                if poly:
                    self.terms[key] = dict(poly)

    def __eq__(self, other):
        return isinstance(other, Form) and self.half == other.half \
            and self.terms == other.terms


def _signed_sort(indices):
    """Sort the factors of a wedge monomial.

    Returns the sign of the sorting permutation and the sorted key, or
    None when an index repeats and the monomial vanishes.
    """
    if len(set(indices)) != len(indices):
        return None
    inversions = sum(1 for x in range(len(indices)) for y in range(x + 1, len(indices))
                     if indices[x] > indices[y])
    return (-1 if inversions % 2 else 1), tuple(sorted(indices))


def _accumulate(terms, key, poly, sign=1):
    """Add sign * poly into terms[key] in place, dropping the key when it cancels.

    The polynomial at ``key`` is changed in place, so a form must own
    its coefficient dicts; ``Form`` copies the ones it is built from.
    """
    if not accumulate(terms.setdefault(key, {}), poly, sign):
        del terms[key]


def form_add(a, b):
    out = Form(a.half, a.terms)
    for key, poly in b.terms.items():
        _accumulate(out.terms, key, poly)
    return out


def wedge(a, b):
    if a.half != b.half:
        raise ConfigError("wedge of forms over different frames")
    out = Form(a.half)
    for k1, p1 in a.terms.items():
        for k2, p2 in b.terms.items():
            placed = _signed_sort(k1 + k2)
            if placed is not None:
                _accumulate(out.terms, placed[1], p_mul(p1, p2), placed[0])
    return out


def gen_str(i, half):
    return "Z%d'" % (i - half) if i > half else "Z%d" % i


def canonical_str(form):
    """Deterministic plain text rendering of a form, one term a line."""
    if not form.terms:
        return "0"
    lines = []
    for key in sorted(form.terms):
        gens = "^".join(gen_str(i, form.half) for i in key)
        lines.append("[%s] %s" % (gens, poly_str(form.terms[key], form.half)))
    return "\n".join(lines)


def standard_hkt_form(half):
    """The invariant (2,0)-form: the sum of Z^{2k-1} wedge Z^{2k}."""
    return Form(half, {(2 * k - 1, 2 * k): p_const(1) for k in range(1, half // 2 + 1)})


def del_generator(t, frame):
    """The holomorphic exterior derivative of one coframe generator."""
    half = frame.half
    terms = {}
    for r in range(1, half + 1):
        # a barred generator's derivative is (1,1), an unbarred one's (2,0)
        lo, hi = (half, 2 * half) if t > half else (r, half)
        for s in range(lo + 1, hi + 1):
            c = frame.coeff(t, r, s)
            if c:
                terms[(r, s)] = p_const(-c)
    return Form(half, terms)


def del_holo(form, frame):
    """Holomorphic exterior derivative of a form with jet coefficients."""
    out = Form(frame.half)
    for key, poly in form.terms.items():
        # the coefficient varies: differentiate along every unbarred direction
        for r in range(1, frame.half + 1):
            placed = _signed_sort((r,) + key)
            if placed is not None:
                _accumulate(out.terms, placed[1], p_deriv(r, poly, frame), placed[0])
        # the generators are not closed: Leibniz over the wedge factors
        for pos, t in enumerate(key):
            rest = key[:pos] + key[pos + 1:]
            for gkey, gpoly in del_generator(t, frame).terms.items():
                placed = _signed_sort(gkey + rest)
                if placed is not None:
                    sign = -placed[0] if pos % 2 else placed[0]
                    _accumulate(out.terms, placed[1], p_mul(poly, gpoly), sign)
    return out


def del_j_basic(frame):
    """The J-twisted derivative of the basic potential.

    For a basic function only the transverse pair (a, b) survives and the
    operator takes the pinned first-order form
    ``(Z_a' phi) Z^b - (Z_b' phi) Z^a``.
    """
    if len(frame.active) != 2:
        raise BadAnnihilatedSet(
            "need exactly one transverse J-pair, got %r" % (frame.active,))
    a, b = frame.active
    if b != a + 1 or a % 2 != 1:
        raise BadAnnihilatedSet("transverse indices %r are not a J-pair" % (frame.active,))
    half = frame.half
    return Form(half, {
        (b,): p_sym(("g", a + half)),
        (a,): p_sym(("g", b + half), QQi(-1)),
    })


def form_component(form, i, j):
    """Signed coefficient polynomial of a 2-form evaluated on (Z_i, Z_j)."""
    if i == j:
        return {}
    key = (i, j) if i < j else (j, i)
    poly = form.terms.get(key, {})
    if i > j:
        poly = p_scale(poly, QQi(-1))
    return poly


# ---------------------------------------------------------------------------
# the J-map on the coframe, conjugation, and the reality check


def _jmap_index(i, half):
    """Contragredient action of J on one coframe index: (sign, new index)."""
    barred = i > half
    k = i - half if barred else i
    if k % 2 == 1:
        sign, partner = -1, k + 1
    else:
        sign, partner = 1, k - 1
    # J swaps barred and unbarred sides
    new = partner if barred else partner + half
    return sign, new


def jmap_form(form):
    out = Form(form.half)
    for key, poly in form.terms.items():
        sign = 1
        imgs = []
        for i in key:
            s, j = _jmap_index(i, form.half)
            sign *= s
            imgs.append(j)
        perm_sign, newkey = _signed_sort(imgs)
        _accumulate(out.terms, newkey, poly, sign * perm_sign)
    return out


def conj_form(form, frame):
    out = Form(form.half)
    for key, poly in form.terms.items():
        sign, newkey = _signed_sort([frame.bar(i) for i in key])
        _accumulate(out.terms, newkey, p_conj(poly, frame), sign)
    return out


def reality_check(form, frame):
    """Does J map the form to its conjugate?

    This is the reality condition for (2,0)-forms in the quaternionic
    sense; the comparison is literal.
    """
    return jmap_form(form) == conj_form(form, frame)


# ---------------------------------------------------------------------------
# the reduction itself


@dataclass
class ReducedOperator:
    """Normal form of the Monge-Ampere ratio for one basic potential.

    ratio = 1 + (second derivatives along the transverse pair)
              + (an exact quadratic in the transverse gradient).

    ``p_forms`` and ``q_forms`` hold, for every annihilated index k, the
    two linear gradient forms extracted from the mixed part of the
    operator; the quadratic part equals the pairwise combination
    ``sum over split pairs (k, k') of  Q_k P_k' - P_k Q_k'`` and, once
    the conjugation relations are used, ``- sum |P_k|^2``.
    """

    half: int
    active_pair: tuple
    split: tuple
    ratio_poly: dict
    p_forms: dict
    q_forms: dict
    quadratic_poly: dict

    def real_quadratic_matrix(self):
        """The 4x4 real matrix Q with quadratic part = grad^T Q grad.

        The transverse gradient is modeled on flat coordinates through
        ``g_a = v1 - i v2`` and ``g_b = v3 - i v4``, their conjugates
        with ``+ i``.  Substituting into ``quadratic_poly`` and
        symmetrizing is exact over Q(i); the entries, whose imaginary
        parts must vanish, become floats only at the end.
        """
        rows = {}  # each g symbol's coefficients on (v1, v2, v3, v4)
        for k, col in zip(self.active_pair, (0, 2)):
            rows["g", k] = {col: ONE, col + 1: QQi(0, -1)}
            rows["g", k + self.half] = {col: ONE, col + 1: QQi(0, 1)}
        coeffs = {}  # the coefficient of v_i v_j
        for (s, t), c in self.quadratic_poly.items():
            for i, x in rows[s].items():
                accumulate(coeffs, {(i, j): y for j, y in rows[t].items()}, c * x)
        # the coefficient matrix plus its transpose
        twice = accumulate(dict(coeffs), {(j, i): v for (i, j), v in coeffs.items()})
        q = np.zeros((4, 4))
        for (i, j), v in twice.items():
            if v.im != 0:
                raise NotPerfectSquareDecomposition(
                    "quadratic part is not real at (%d, %d)" % (i, j))
            q[i, j] = float(v.re / 2)
        return q

    def describe(self):
        half = self.half
        a, b = self.active_pair
        lines = [
            "transverse pair: (%d, %d); annihilated: %s" % (a, b, list(self.split)),
            "ratio = %s" % poly_str(self.ratio_poly, half),
        ]
        for k in self.split:
            lines.append("P_%d = %s" % (k, poly_str(self.p_forms[k], half)))
        for k in self.split:
            lines.append("Q_%d = %s" % (k, poly_str(self.q_forms[k], half)))
        return "\n".join(lines)


def quadratic_forms_closed(frame):
    """P_k and Q_k straight from the frame's brackets (six-term formulas).

    This bypasses the exterior calculus entirely and serves as the
    independent cross-check for the extracted forms.
    """
    if len(frame.active) != 2:
        raise BadAnnihilatedSet("need exactly one transverse J-pair")
    a, b = frame.active
    ab, bb = frame.bar(a), frame.bar(b)
    coeff = frame.coeff

    def linear(*terms):
        out = {}
        for i, c in terms:
            accumulate(out, {(("g", i),): c})
        return out

    p_forms, q_forms = {}, {}
    for k in frame.split:
        p_forms[k] = linear(
            (bb, coeff(a, a, k)), (ab, -coeff(b, a, k)), (a, coeff(a, k, bb)),
            (ab, coeff(ab, k, bb)), (b, coeff(b, k, bb)), (bb, coeff(bb, k, bb)))
        q_forms[k] = linear(
            (ab, -coeff(b, b, k)), (bb, coeff(a, b, k)), (a, -coeff(a, k, ab)),
            (ab, -coeff(ab, k, ab)), (b, -coeff(b, k, ab)), (bb, -coeff(bb, k, ab)))
    return p_forms, q_forms


def _require_basic(form, frame):
    for poly in form.terms.values():
        for sym in {sym for mono in poly for sym in mono}:
            for i in sym[1:]:
                if not frame.is_active(i):
                    raise NonBasicResidue(
                        "jet %r along an annihilated direction survived" % (sym,))


def reduce_ratio(frame):
    """Expand the perturbed top power and normalize by the unperturbed one.

    Returns the ReducedOperator carrying the full ratio polynomial, the
    extracted gradient forms, and the verified normal form data.  Raises
    NotPerfectSquareDecomposition when the expansion does not collapse to
    the advertised shape, and BadAnnihilatedSet when the frame's split
    is not a foliation.
    """
    check_foliation(frame, strict=True)
    half = frame.half
    n = half // 2

    alpha = del_j_basic(frame)
    dd = del_holo(alpha, frame)
    _require_basic(dd, frame)

    s = form_add(standard_hkt_form(half), dd)
    power = s
    for _ in range(n - 1):
        power = wedge(power, s)
    top = power.terms.get(tuple(range(1, half + 1)), {})
    ratio = p_scale(top, QQi(1) / math.factorial(n))

    a, b = frame.active
    # classify the monomials of the ratio
    lap = {}
    quad = {}
    for mono, c in ratio.items():
        if mono == ():
            continue
        if len(mono) == 1 and mono[0][0] == "h":
            lap[mono[0]] = c
        elif len(mono) == 2 and mono[0][0] == "g" and mono[1][0] == "g":
            quad[mono] = c
        else:
            raise NotPerfectSquareDecomposition(
                "unexpected monomial %s in the ratio" % (mono,))
    if ratio.get((), ZERO) != ONE:
        raise NotPerfectSquareDecomposition("constant term of the ratio is not 1")
    want_lap = {("h", a, a + half): ONE, ("h", b, b + half): ONE}
    if lap != want_lap:
        raise NotPerfectSquareDecomposition(
            "second order part is not the transverse trace: %r" % (lap,))

    p_forms, q_forms = {}, {}
    for k in frame.split:
        p_forms[k] = form_component(dd, a, k)
        q_forms[k] = form_component(dd, b, k)
        for poly in (p_forms[k], q_forms[k]):
            for mono in poly:
                if len(mono) != 1 or mono[0][0] != "g":
                    raise NotPerfectSquareDecomposition(
                        "gradient form at index %d is not linear" % k)

    candidate = {}
    for k in frame.split:
        if k % 2 == 0:
            continue
        k2 = k + 1
        accumulate(candidate, p_mul(q_forms[k], p_forms[k2]))
        accumulate(candidate, p_mul(p_forms[k], q_forms[k2]), -1)
    if candidate != quad:
        raise NotPerfectSquareDecomposition(
            "quadratic part does not match the paired gradient forms")

    # conjugation relations that turn the pairing into minus a square sum
    for k in frame.split:
        if k % 2 == 0:
            continue
        k2 = k + 1
        if q_forms[k] != p_scale(p_conj(p_forms[k2], frame), QQi(-1)):
            raise NotPerfectSquareDecomposition(
                "conjugation relation fails at index %d" % k)
        if q_forms[k2] != p_conj(p_forms[k], frame):
            raise NotPerfectSquareDecomposition(
                "conjugation relation fails at index %d" % k2)

    return ReducedOperator(
        half=half,
        active_pair=(a, b),
        split=frame.split,
        ratio_poly=ratio,
        p_forms=p_forms,
        q_forms=q_forms,
        quadratic_poly=quad,
    )
