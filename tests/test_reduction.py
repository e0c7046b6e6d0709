import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hktsolve import algebras
from hktsolve.errors import BadAnnihilatedSet, NotPerfectSquareDecomposition
from hktsolve.exact import QQi
from hktsolve.hkt_symbolic import (
    del_holo,
    del_j_basic,
    p_scale,
    p_sym,
    quadratic_forms_closed,
    reduce_ratio,
)
from hktsolve.lie_frame import (
    build_complex_frame,
    check_foliation,
    check_hypercomplex,
    check_jacobi,
)

from conftest import sparse_vectors


def test_su3_reduction_golden(operators):
    op = operators["su3"]
    assert op.active_pair == (3, 4)
    assert op.split == (1, 2)
    assert op.ratio_poly == {
        (): QQi(1),
        (("h", 3, 7),): QQi(1),
        (("h", 4, 8),): QQi(1),
        (("g", 3), ("g", 7)): QQi(-4),
        (("g", 4), ("g", 8)): QQi(-4),
    }
    assert op.p_forms == {1: p_sym(("g", 8), QQi(2)), 2: p_sym(("g", 3), QQi(2))}
    assert op.q_forms == {1: p_sym(("g", 7), QQi(-2)), 2: p_sym(("g", 4), QQi(2))}


def test_su3_describe_snapshot(operators):
    assert operators["su3"].describe() == "\n".join([
        "transverse pair: (3, 4); annihilated: [1, 2]",
        "ratio = (1) + h(3,3') + h(4,4') + (-4)*g3*g3' + (-4)*g4*g4'",
        "P_1 = (2)*g4'",
        "P_2 = (2)*g3",
        "Q_1 = (-2)*g3'",
        "Q_2 = (2)*g4",
    ])


REGISTRY_DESCRIPTIONS = {
    # describe() of each registry algebra besides su3, with its build parameters
    "semidirect8": ({"c": 2, "w": Fraction(1, 2)}, [
        "transverse pair: (3, 4); annihilated: [1, 2]",
        "ratio = (1) + h(3,3') + h(4,4') + (-16)*g3*g3' + (-16)*g4*g4'",
        "P_1 = (4)*g4'",
        "P_2 = (4)*g3",
        "Q_1 = (-4)*g3'",
        "Q_2 = (4)*g4",
    ]),
    "semidirect12": ({}, [
        "transverse pair: (3, 4); annihilated: [1, 2, 5, 6]",
        "ratio = (1) + h(3,3') + h(4,4') + (-4)*g3*g3' + (-4)*g4*g4'",
        "P_1 = (2)*g4'",
        "P_2 = (2)*g3",
        "P_5 = 0",
        "P_6 = 0",
        "Q_1 = (-2)*g3'",
        "Q_2 = (2)*g4",
        "Q_5 = 0",
        "Q_6 = 0",
    ]),
    "nilpotent8": ({}, [
        "transverse pair: (1, 2); annihilated: [3, 4]",
        "ratio = (1) + h(1,1') + h(2,2')",
        "P_3 = 0",
        "P_4 = 0",
        "Q_3 = 0",
        "Q_4 = 0",
    ]),
}


@pytest.mark.parametrize("name", sorted(REGISTRY_DESCRIPTIONS))
def test_registry_describe_snapshot(name):
    params, lines = REGISTRY_DESCRIPTIONS[name]
    spec = algebras.get_algebra(name, **params)
    frame = build_complex_frame(spec)
    assert frame.vectors == sparse_vectors(spec)
    assert reduce_ratio(frame).describe() == "\n".join(lines)


def test_semidirect8_scales_with_c(operators):
    op = operators["semidirect8"]  # built with c=2
    assert op.p_forms[1] == p_sym(("g", 8), QQi(4))
    assert op.ratio_poly[(("g", 3), ("g", 7))] == QQi(-16)
    five = reduce_ratio(build_complex_frame(algebras.semidirect8(c=5, w=1)))
    assert five.p_forms[1] == p_sym(("g", 8), QQi(10))


def test_semidirect8_w_independent():
    a = reduce_ratio(build_complex_frame(algebras.semidirect8(c=3, w=1)))
    b = reduce_ratio(build_complex_frame(algebras.semidirect8(c=3, w=40)))
    assert a.ratio_poly == b.ratio_poly
    assert a.p_forms == b.p_forms and a.q_forms == b.q_forms


def test_semidirect12_extra_pair_silent(operators):
    op = operators["semidirect12"]
    assert op.half == 6
    assert op.split == (1, 2, 5, 6)
    assert op.p_forms[5] == {} and op.p_forms[6] == {}
    assert op.q_forms[5] == {} and op.q_forms[6] == {}
    # the surviving pair reproduces the rank-two picture (bars at half=6)
    assert op.ratio_poly[(("g", 3), ("g", 9))] == QQi(-4)


def test_nilpotent8_is_poisson_limit(operators):
    op = operators["nilpotent8"]
    assert op.active_pair == (1, 2)
    assert op.quadratic_poly == {}
    assert all(form == {} for form in op.p_forms.values())
    assert np.allclose(op.real_quadratic_matrix(), np.zeros((4, 4)))


def test_quadratic_matrices(operators):
    assert np.array_equal(operators["su3"].real_quadratic_matrix(), -4 * np.eye(4))
    assert np.array_equal(operators["semidirect8"].real_quadratic_matrix(),
                          -16 * np.eye(4))
    assert np.array_equal(operators["semidirect12"].real_quadratic_matrix(),
                          -4 * np.eye(4))
    for op in operators.values():
        eig = np.linalg.eigvalsh(op.real_quadratic_matrix())
        assert eig.max() <= 1e-12
    # Q = -4 c^2 I is exact until one final rounding; float arithmetic on
    # the gradient rows lands one ulp off for these c
    for build, c in ((algebras.semidirect8, Fraction(10, 3)),
                     (algebras.semidirect12, Fraction(3, 7))):
        op = reduce_ratio(build_complex_frame(build(c=c)))
        assert np.array_equal(op.real_quadratic_matrix(),
                              float(-4 * c * c) * np.eye(4))


def test_quadratic_matrix_refuses_imaginary_part(operators):
    op = operators["su3"]
    a = op.active_pair[0]
    # g_a^2 = (v1 - i v2)^2 carries -2i v1 v2
    square = dataclasses.replace(op, quadratic_poly={(("g", a), ("g", a)): QQi(1)})
    with pytest.raises(NotPerfectSquareDecomposition):
        square.real_quadratic_matrix()


def test_closed_form_components_match_extraction(frames, operators):
    for name, frame in frames.items():
        p, q = quadratic_forms_closed(frame)
        assert p == operators[name].p_forms, name
        assert q == operators[name].q_forms, name


def test_ratio_matches_theorem_oracle(frames, operators, rng):
    for name, frame in frames.items():
        op = operators[name]
        for _ in range(20):
            jets = oracles.random_jets(op, rng)
            got = oracles.p_eval(op.ratio_poly, jets)
            want = oracles.theorem_value_oracle(frame, jets)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), name
            # realistic jets make the value real
            assert abs(got.imag) < 1e-12


def test_ratio_matches_normal_form(operators, rng):
    for name, op in operators.items():
        for _ in range(10):
            jets = oracles.random_jets(op, rng)
            got = oracles.p_eval(op.ratio_poly, jets)
            assert abs(got - oracles.normal_form_value(op, jets)) < 1e-12


def test_top_power_against_bitmask_oracle(frames, operators, rng):
    for name, frame in frames.items():
        op = operators[name]
        dd = del_holo(del_j_basic(frame), frame)
        for _ in range(5):
            jets = oracles.random_jets(op, rng, realistic=False)
            evaluated = {key: oracles.p_eval(poly, jets)
                         for key, poly in dd.terms.items()}
            want = oracles.top_ratio_oracle(evaluated, frame.half)
            got = oracles.p_eval(op.ratio_poly, jets)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), name


def test_pairing_identity_for_free_jets(operators, rng):
    # the quadratic part equals Q_k P_k' - P_k Q_k' summed over split
    # pairs as polynomials, so it must hold without conjugation relations
    for op in operators.values():
        for _ in range(5):
            jets = oracles.random_jets(op, rng, realistic=False)
            total = 1.0 + jets[("h", op.active_pair[0], op.active_pair[0] + op.half)] \
                + jets[("h", op.active_pair[1], op.active_pair[1] + op.half)]
            for k in sorted(op.split):
                if k % 2 == 0:
                    continue
                pk = oracles.p_eval(op.p_forms[k], jets)
                qk = oracles.p_eval(op.q_forms[k], jets)
                pk2 = oracles.p_eval(op.p_forms[k + 1], jets)
                qk2 = oracles.p_eval(op.q_forms[k + 1], jets)
                total += qk * pk2 - pk * qk2
            assert abs(oracles.p_eval(op.ratio_poly, jets) - total) < 1e-12


def test_split_override_and_errors():
    spec = algebras.su3()
    same = reduce_ratio(build_complex_frame(dataclasses.replace(spec, split=(2, 1))))
    assert same.ratio_poly == reduce_ratio(build_complex_frame(spec)).ratio_poly
    for split in ((1, 3), (3, 4)):
        with pytest.raises(BadAnnihilatedSet):
            reduce_ratio(build_complex_frame(dataclasses.replace(spec, split=split)))


def test_tampered_table_breaks_conjugation_relations():
    frame = build_complex_frame(algebras.su3())
    frame.entries[(2, 7)] = {4: QQi(-3)}
    with pytest.raises(NotPerfectSquareDecomposition):
        reduce_ratio(frame)


def test_scaled_gradient_forms_scale_quadratic(operators):
    # doubling P and Q doubles nothing else: sanity on the stored pieces
    op = operators["su3"]
    doubled = {k: p_scale(v, QQi(2)) for k, v in op.p_forms.items()}
    assert doubled[1] == p_sym(("g", 8), QQi(4))


def test_su3_certification_cost(monkeypatch):
    # the benchmark's su3 certification, from the Jacobi check to the real Q.
    # It takes 465 QQi operations, and took 687 while every sparse sum
    # copied its running total and multiplied by unit coefficients.
    bound = 500
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(1)
            return fn(*args)
        return wrapper

    for attr in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                 "__truediv__"):
        monkeypatch.setattr(QQi, attr, counted(QQi.__dict__[attr]))
    spec = algebras.su3()
    check_jacobi(spec.sc, strict=True)
    frame = build_complex_frame(spec)
    check_hypercomplex(frame, strict=True)
    check_foliation(frame, strict=True)
    q = reduce_ratio(frame).real_quadratic_matrix()
    assert np.array_equal(q, -4.0 * np.eye(4))
    assert len(calls) <= bound, "%d QQi operations" % len(calls)
