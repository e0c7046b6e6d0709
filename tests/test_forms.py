import dataclasses
import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hktsolve import algebras
from hktsolve.errors import BadAnnihilatedSet, ConfigError, OrderOverflow
from hktsolve.exact import QQi, accumulate
from hktsolve.hkt_symbolic import (
    Form,
    canonical_str,
    conj_form,
    del_generator,
    del_holo,
    del_j_basic,
    form_add,
    jmap_form,
    p_conj,
    p_deriv,
    p_mul,
    p_scale,
    p_sym,
    poly_str,
    reality_check,
    standard_hkt_form,
    wedge,
)
from hktsolve.lie_frame import build_complex_frame


@pytest.fixture(scope="module")
def su3_frame():
    return build_complex_frame(algebras.su3())


def p_add(a, b):
    return accumulate(dict(a), b)


def form_scale(a, c):
    return Form(a.half, {key: p_scale(poly, c) for key, poly in a.terms.items()})


def random_const_form(rng, half, degree, terms=4):
    keys = list(itertools.combinations(range(1, 2 * half + 1), degree))
    picks = rng.choice(len(keys), size=min(terms, len(keys)), replace=False)
    out = {}
    for p in picks:
        out[keys[p]] = {(): QQi(int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))}
    return Form(half, out)


def form_to_bitmask(f):
    return {sum(1 << (i - 1) for i in key): oracles.to_complex(poly[()])
            for key, poly in f.terms.items()}


def test_wedge_matches_bitmask_oracle(rng):
    for _ in range(30):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        a = random_const_form(rng, 4, p)
        b = random_const_form(rng, 4, q)
        got = form_to_bitmask(wedge(a, b))
        want = oracles.bit_wedge(form_to_bitmask(a), form_to_bitmask(b))
        assert set(got) == set(want)
        for mask in got:
            assert abs(got[mask] - want[mask]) < 1e-12


def test_wedge_graded_anticommutative(rng):
    for _ in range(10):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        a = random_const_form(rng, 4, p)
        b = random_const_form(rng, 4, q)
        sign = QQi(-1) if (p * q) % 2 else QQi(1)
        assert wedge(a, b) == form_scale(wedge(b, a), sign)


def test_wedge_associative(rng):
    for _ in range(10):
        a = random_const_form(rng, 4, int(rng.integers(1, 3)))
        b = random_const_form(rng, 4, int(rng.integers(1, 3)))
        c = random_const_form(rng, 4, int(rng.integers(1, 3)))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_del_holo_leibniz(su3_frame, rng):
    # coefficients linear in transverse first derivatives
    def rand_one_form():
        terms = {}
        for i in range(1, 5):
            sym = ("g", int(rng.choice([3, 4, 7, 8])))
            terms[(i,)] = p_sym(sym, QQi(int(rng.integers(-3, 4))))
        return Form(4, terms)

    for _ in range(5):
        a, b = rand_one_form(), rand_one_form()
        lhs = del_holo(wedge(a, b), su3_frame)
        rhs = form_add(wedge(del_holo(a, su3_frame), b),
                       form_scale(wedge(a, del_holo(b, su3_frame)), QQi(-1)))
        assert lhs == rhs


def test_del_squared_vanishes_on_coframe(su3_frame):
    for k in range(1, 5):
        dd = del_holo(del_generator(k, su3_frame), su3_frame)
        assert dd.terms == {}, k


def test_del_squared_vanishes_dim12():
    frame = build_complex_frame(algebras.get_algebra("semidirect12"))
    for k in range(1, 7):
        assert del_holo(del_generator(k, frame), frame).terms == {}, k


def test_jmap_involution(rng):
    for degree in (1, 2, 3):
        f = random_const_form(rng, 4, degree)
        sign = QQi(-1) if degree % 2 else QQi(1)
        assert jmap_form(jmap_form(f)) == form_scale(f, sign)


def test_conj_involution_with_jets(su3_frame, rng):
    # include canonical mixed second derivatives, whose conjugation
    # picks up bracket corrections that must cancel on the round trip
    base = p_sym(("g", 7))
    poly = p_add(p_deriv(3, base, su3_frame), p_deriv(4, base, su3_frame))
    poly = p_add(poly, p_sym(("g", 4), QQi(2, 5)))
    assert p_conj(p_conj(poly, su3_frame), su3_frame) == poly
    f = Form(4, {(1, 3): poly, (2,): p_sym(("g", 3), QQi(0, 1))})
    assert conj_form(conj_form(f, su3_frame), su3_frame) == f


def test_reality_examples(su3_frame):
    omega = standard_hkt_form(4)
    assert reality_check(omega, su3_frame)
    bad = Form(4, {(1, 2): {(): QQi(0, 1)}})
    assert not reality_check(bad, su3_frame)
    mixed = Form(4, {(1, 2): {(): QQi(1)}, (3, 4): {(): QQi(-1)}})
    assert reality_check(mixed, su3_frame)


def test_reality_of_perturbed_form(su3_frame):
    dd = del_holo(del_j_basic(su3_frame), su3_frame)
    assert reality_check(form_add(standard_hkt_form(4), dd), su3_frame)


def test_derivative_rules(su3_frame):
    # product rule with a repeated factor
    g3 = p_sym(("g", 3))
    got = p_deriv(3, p_mul(g3, g3), su3_frame)
    assert got == {(("g", 3), ("h", 3, 3)): QQi(2)}
    # derivative along an annihilated direction becomes a bracket term:
    # [Z_1, Z_3] = -(1+3i) Z_3
    got = p_deriv(1, g3, su3_frame)
    assert got == {(("g", 3),): QQi(-1, -3)}
    # third derivatives are outside the jet model
    with pytest.raises(OrderOverflow):
        p_deriv(3, p_sym(("h", 3, 7)), su3_frame)


def test_del_j_basic_requires_transverse_j_pair():
    spec = algebras.su3()
    for split in ((1, 3), ()):
        frame = build_complex_frame(dataclasses.replace(spec, split=split))
        with pytest.raises(BadAnnihilatedSet):
            del_j_basic(frame)


def test_form_key_validation():
    with pytest.raises(ConfigError):
        Form(4, {(2, 1): {(): QQi(1)}})
    with pytest.raises(ConfigError):
        Form(4, {(0, 1): {(): QQi(1)}})
    with pytest.raises(ConfigError):
        Form(4, {(1, 9): {(): QQi(1)}})


def test_canonical_rendering(su3_frame):
    dd = del_holo(del_j_basic(su3_frame), su3_frame)
    text = canonical_str(form_add(standard_hkt_form(4), dd))
    assert text == "\n".join([
        "[Z1^Z2] (1)",
        "[Z1^Z3] (-2)*g4'",
        "[Z1^Z4] (2)*g3'",
        "[Z2^Z3] (-2)*g3",
        "[Z2^Z4] (-2)*g4",
        "[Z3^Z4] (1) + h(3,3') + h(4,4')",
    ])
    assert poly_str(p_sym(("g", 7), QQi(-1)), 4) == "(-1)*g3'"
    assert canonical_str(Form(4)) == "0"


def test_p_eval_and_symbols(su3_frame):
    poly = p_add(p_sym(("g", 3), QQi(2)), p_mul(p_sym(("g", 4)), p_sym(("g", 8))))
    vals = {("g", 3): 1 + 2j, ("g", 4): 3j, ("g", 8): -3j}
    assert oracles.p_eval(poly, vals) == 2 * (1 + 2j) + (3j) * (-3j)
    with pytest.raises(KeyError):
        oracles.p_eval(poly, {("g", 3): 1.0})


def test_accumulate_sums_in_place(monkeypatch):
    products = []
    for attr in ("__mul__", "__rmul__"):
        def counted(*args, fn=QQi.__dict__[attr]):
            products.append(1)
            return fn(*args)
        monkeypatch.setattr(QQi, attr, counted)
    out = {"a": QQi(1, 2), "b": QQi(3)}
    # a unit scale adds without multiplying, and a cancelled key is dropped
    assert accumulate(out, {"a": QQi(-1, -2), "c": QQi(0, 1)}) is out
    assert out == {"b": QQi(3), "c": QQi(0, 1)} and products == []
    assert accumulate(out, {"b": QQi(1), "d": QQi(2)}, -3) is out
    assert out == {"c": QQi(0, 1), "d": QQi(-6)} and len(products) == 2
    assert accumulate(out, {"e": QQi(5)}, 0) == {"c": QQi(0, 1), "d": QQi(-6)}


# ---------------------------------------------------------- exact.QQi


REALS = st.one_of(
    st.integers(-10 ** 20, 10 ** 20),
    st.fractions(max_denominator=10 ** 9),
    st.floats(allow_nan=False, allow_infinity=False),
)
QQIS = st.tuples(REALS, REALS).map(
    lambda p: (QQi(*p), oracles.GaussianRational(*p)))
OPERANDS = st.one_of(QQIS, REALS.map(lambda x: (x, oracles.GaussianRational(x))))


def assert_matches(got, ref):
    """``got`` is the QQi of the reference value, in normal form, printed alike."""
    assert type(got) is QQi
    assert (got.re, got.im) == (ref.re, ref.im)
    assert (got.a, got.b, got.d) == ref.triple()
    assert got.d > 0 and math.gcd(got.a, got.b, got.d) == 1
    assert str(got) == ref.text()
    assert repr(got) == "QQi(%s, %s)" % (ref.re, ref.im)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(QQIS, OPERANDS)
def test_qqi_matches_a_fraction_pair_reference(x, y):
    (qx, rx), (qy, ry) = x, y
    assert_matches(qx, rx)
    assert_matches(-qx, -rx)
    assert_matches(qx.conjugate(), rx.conjugate())
    assert bool(qx) == bool(rx)
    same = rx == ry
    assert (qx == qy) is same and (qy == qx) is same and (qx != qy) is not same
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        try:
            want = op(rx, ry)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                op(qx, qy)
            continue
        assert_matches(op(qx, qy), want)
    for op in (operator.add, operator.mul):
        assert_matches(op(qy, qx), op(ry, rx))
    if type(qy) is not QQi:
        # a real minus or over a QQi has no reflected operator
        for op in (operator.sub, operator.truediv):
            with pytest.raises(TypeError):
                op(qy, qx)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_qqi_against_non_finite_floats(bad):
    assert (QQi(1) == bad) is False and (bad == QQi(1)) is False
    assert QQi(1) != bad
    for args in ((bad,), (0, bad)):
        with pytest.raises(TypeError, match="cannot embed"):
            QQi(*args)
    # a finite float embeds as its exact binary value
    assert QQi(0.1).re == Fraction(0.1) and QQi(0.1) == 0.1
