import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hktsolve import algebras
from hktsolve.errors import (
    BadAnnihilatedSet,
    ConfigError,
    DimensionMismatch,
    DimensionNotMultipleOf4,
    HktError,
    IndexOutOfRange,
    JacobiViolation,
    NijenhuisViolation,
    NonClosedBracket,
    NotUnitary,
    PairingNotInvolutive,
)
from hktsolve.exact import QQi
from hktsolve.hkt_symbolic import (
    del_holo,
    del_j_basic,
    form_add,
    quadratic_forms_closed,
    reality_check,
    reduce_ratio,
    standard_hkt_form,
)
from hktsolve.lie_frame import (
    StructureConstants,
    build_complex_frame,
    check_foliation,
    check_hypercomplex,
    check_jacobi,
    load_structure_constants,
    nijenhuis_pair_identities,
    parse_rational,
    relabel_spec,
)

from conftest import sparse_vectors


def test_parse_roundtrip():
    sc = load_structure_constants(algebras.su3_bracket_text())
    assert sc.dim == 8
    assert sc == algebras.su3().sc
    # orientation is normalized: both query directions work
    assert sc.bracket_basis(5, 6) == {1: Fraction(1), 2: Fraction(1)}
    assert sc.bracket_basis(6, 5) == {1: Fraction(-1), 2: Fraction(-1)}


@pytest.mark.parametrize("text,value", [
    ("1/2", Fraction(1, 2)), ("0.5", Fraction(1, 2)), ("1e2", Fraction(100)),
    ("-3", Fraction(-3)), ("2.5E-100", Fraction(25, 10 ** 101)),
])
def test_parse_rational_forms(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["1e101", "1e-999999999", "1e" + "9" * 5000, "abc", "1/0"])
def test_parse_rational_refusals(text):
    with pytest.raises(ConfigError):
        parse_rational(text)


def test_parse_comments_and_errors():
    sc = load_structure_constants("# leading comment\ndim 4\n1 2 : 3 1/2\n")
    assert sc.bracket_basis(1, 2) == {3: Fraction(1, 2)}
    with pytest.raises(ConfigError):
        load_structure_constants("1 2 : 3 1")  # missing dim line
    with pytest.raises(IndexOutOfRange):
        load_structure_constants("dim 4\n1 9 : 3 1\n")
    with pytest.raises(IndexOutOfRange):
        load_structure_constants("dim 4\n1 2 : 9 1\n")


# valid "dim N" and "i j : k c, ..." lines with a few bad coefficients,
# then up to two mutations: a line listed twice, or a token replaced by a
# zero denominator, NaN, a repeated or out-of-range index, or junk
_BAD_TOKENS = ["1/0", "nan", "inf", "1", "2", "-1", "0", "99", "1.5", "x", "", ":", ","]
_coefficient = st.sampled_from(["1", "-2", "3", "1/2", "-3/4", "0"] * 4
                               + ["1/0", "nan", "inf", "1/", "x"])


@st.composite
def _bracket_text(draw):
    dim = draw(st.integers(2, 8))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(1, dim + 1), 2))),
                          unique=True, max_size=5))
    lines = [["dim", str(dim)]]
    for i, j in pairs:
        if draw(st.booleans()):
            i, j = j, i
        tokens = [str(i), str(j), ":"]
        ks = draw(st.lists(st.integers(1, dim), unique=True, max_size=3))
        for n, k in enumerate(ks):
            tokens += [","] * (n > 0) + [str(k), draw(_coefficient)]
        lines.append(tokens)
    for _ in range(draw(st.integers(0, 2))):
        line = lines[draw(st.integers(0, len(lines) - 1))]
        if len(line) > 2 and draw(st.booleans()):
            lines.append(list(line))  # the same bracket listed twice
        else:
            line[draw(st.integers(0, len(line) - 1))] = draw(st.sampled_from(_BAD_TOKENS))
    return "\n".join(" ".join(line) for line in lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=_bracket_text())
def test_structure_constants_parse_or_raise_hkt_errors(text):
    try:
        sc = load_structure_constants(text)
    except HktError:
        return
    assert sc.dim >= 1
    for (i, j), comps in sc.table.items():
        assert 1 <= i < j <= sc.dim
        assert comps and all(1 <= k <= sc.dim and c != 0 for k, c in comps.items())


def test_jacobi_all_registry():
    for name, params in [("su3", {}), ("semidirect8", {"c": 2, "w": 5}),
                         ("semidirect12", {}), ("nilpotent8", {})]:
        spec = algebras.get_algebra(name, **params)
        assert check_jacobi(spec.sc, strict=True)


def test_integral_constants_are_held_as_ints():
    # su3's Jacobi and Nijenhuis checks run on Python ints; an entry that
    # is not integral stays a Fraction
    su3, thirds = algebras.su3(), algebras.semidirect8(c=Fraction(1, 3), w=3)
    for spec in (su3, thirds):
        for m in (spec.imap, spec.jmap):
            assert all(type(x) is int for col in m.values() for x in col.values())
    assert all(type(x) is int for col in su3.sc.table.values() for x in col.values())
    kinds = {(x, type(x)) for col in thirds.sc.table.values() for x in col.values()}
    assert kinds == {(3, int), (-3, int), (Fraction(2, 3), Fraction), (Fraction(-2, 3), Fraction),
                     (Fraction(1, 3), Fraction), (Fraction(-1, 3), Fraction)}
    parsed = load_structure_constants("dim 4\n1 2 : 3 4/2, 4 0.5")
    assert [type(x) for x in parsed.table[1, 2].values()] == [int, Fraction]


@pytest.mark.parametrize("name", ["su3", "semidirect12"])
def test_certification_leaves_the_bracket_tables_as_they_were(name):
    # bracket_basis and ComplexFrame.bracket hand out the stored dicts,
    # so no reader may write them; their values are immutable, so
    # copying each inner dict copies the table deeply
    spec = algebras.get_algebra(name)
    table = {key: dict(col) for key, col in spec.sc.table.items()}
    check_jacobi(spec.sc, strict=True)
    frame = build_complex_frame(spec)
    entries = {key: dict(col) for key, col in frame.entries.items()}
    check_hypercomplex(frame, strict=True)
    check_foliation(frame, strict=True)
    op = reduce_ratio(frame)
    op.real_quadratic_matrix()
    quadratic_forms_closed(frame)
    reality_check(form_add(standard_hkt_form(frame.half),
                           del_holo(del_j_basic(frame), frame)), frame)
    assert spec.sc.table == table
    assert frame.entries == entries


def test_jacobi_violation():
    sc = load_structure_constants(algebras.su3_bracket_text())
    sc.table[(5, 6)] = {1: Fraction(1), 2: Fraction(2)}
    assert not check_jacobi(sc, strict=False)
    with pytest.raises(JacobiViolation, match=r"\(X_3, X_5, X_6\)"):
        check_jacobi(sc, strict=True)


@pytest.mark.parametrize("text,ok", [
    ("dim 2000\n1 2 : 3 1\n", True),
    # [[X_1000, X_2000], X_1999] = [X_1500, X_1999] = X_7, the only failing triple
    ("dim 2000\n1000 2000 : 1500 1\n1500 1999 : 7 1\n", False),
])
def test_jacobi_cost_follows_the_table_not_dim(monkeypatch, text, ok):
    sc = load_structure_constants(text)
    # at most len(table) * 2 len(table) triples are walked (a listed pair and
    # an index of another), each costing 3 * (1 + 1) calls on one-term brackets
    bound = 12 * len(sc.table) ** 2
    calls = []
    basis = StructureConstants.bracket_basis

    def counted(self, i, j):
        calls.append((i, j))
        if len(calls) > bound:
            raise AssertionError("more than %d bracket_basis calls" % bound)
        return basis(self, i, j)

    monkeypatch.setattr(StructureConstants, "bracket_basis", counted)
    assert check_jacobi(sc, strict=False) == ok
    if not ok:
        with pytest.raises(JacobiViolation, match=r"\(X_1000, X_1999, X_2000\)"):
            check_jacobi(sc, strict=True)


def _single_entry_perturbations(spec):
    """Add 1 to one structure constant c^k_ij, or to one entry of I or J."""
    dim = spec.sc.dim
    for key in sorted(spec.sc.table):
        for k in range(1, dim + 1):
            table = {pair: dict(comps) for pair, comps in spec.sc.table.items()}
            table[key][k] = table[key].get(k, 0) + 1
            yield dataclasses.replace(spec, sc=StructureConstants(dim, table))
    for which in ("imap", "jmap"):
        for j in range(1, dim + 1):
            for i in range(1, dim + 1):
                m = {col: dict(entries) for col, entries in getattr(spec, which).items()}
                column = m.setdefault(j, {})
                column[i] = column.get(i, 0) + 1
                yield dataclasses.replace(spec, **{which: m})


@pytest.mark.parametrize("name", ["su3", "semidirect8"])
def test_real_verdicts_match_float_oracles(name):
    seen = set()
    for spec in _single_entry_perturbations(algebras.get_algebra(name)):
        jacobi = oracles.jacobi_oracle(spec.sc) <= 1e-9
        integrable = max(oracles.nijenhuis_oracle(spec, "I"),
                         oracles.nijenhuis_oracle(spec, "J")) <= 1e-9
        assert check_jacobi(spec.sc, strict=False) == jacobi
        assert check_hypercomplex(spec, strict=False) == integrable
        seen.update({("jacobi", jacobi), ("nijenhuis", integrable)})
    assert seen == {(check, verdict) for check in ("jacobi", "nijenhuis")
                    for verdict in (True, False)}


def test_su3_frame_builds_without_flips():
    spec = algebras.su3()
    frame = build_complex_frame(spec)
    assert frame.vectors == sparse_vectors(spec)
    assert frame.half == 4
    assert frame.split == (1, 2)


SU3_COMPLEX_GOLDEN = [
    # frozen by hand from the real table; oracle-reverified below
    (1, 2, {2: QQi(-2)}),
    (1, 3, {3: QQi(-1, -3)}),
    (1, 4, {4: QQi(-1, 3)}),
    (2, 3, {}),
    (2, 4, {}),
    (3, 4, {2: QQi(-2)}),
    (1, 5, {}),
    (1, 6, {6: QQi(2)}),
    (1, 7, {7: QQi(1, 3)}),
    (1, 8, {8: QQi(1, -3)}),
    (2, 6, {1: QQi(2), 5: QQi(-2)}),
    (2, 7, {4: QQi(-2)}),
    (2, 8, {3: QQi(2)}),
    (3, 7, {1: QQi(1, -1), 5: QQi(-1, -1)}),
    (4, 8, {1: QQi(1, 1), 5: QQi(-1, 1)}),
]


def test_su3_complex_brackets_golden():
    frame = build_complex_frame(algebras.su3())
    for r, s, want in SU3_COMPLEX_GOLDEN:
        assert frame.bracket(r, s) == want, (r, s)


def _su3_rotated():
    """su3 with its pairs (Z1, Z2) and (Z3, Z4) rotated together by (3/5, 4/5).

    Z1' = 3/5 Z1 + 4/5 Z3, Z2' = 3/5 Z2 + 4/5 Z4, Z3' = -4/5 Z1 + 3/5 Z3,
    Z4' = -4/5 Z2 + 3/5 Z4: still a unitary frame paired by J, whose
    vectors now share their supports.
    """
    spec = algebras.su3()
    c, s = Fraction(3, 5), Fraction(4, 5)
    v = spec.vectors

    def mix(x, y, a, b):
        return [a * p + b * q for p, q in zip(x, y)]

    rotated = [mix(v[0], v[2], c, s), mix(v[1], v[3], c, s),
               mix(v[0], v[2], -s, c), mix(v[1], v[3], -s, c)]
    return dataclasses.replace(spec, vectors=rotated)


ORACLE_SPECS = {
    "su3": algebras.su3,
    "semidirect8": lambda: algebras.get_algebra("semidirect8", c=2, w=5),
    "semidirect12": lambda: algebras.get_algebra("semidirect12", c=1, w1=3, w2=-2),
    "nilpotent8": lambda: algebras.get_algebra("nilpotent8"),
    "su3-rotated": _su3_rotated,
}


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_bracket_table_matches_float_oracle(name):
    frame = build_complex_frame(ORACLE_SPECS[name]())
    coeffs = oracles.complex_bracket_oracle(frame)
    ext = 2 * frame.half
    for r in range(1, ext + 1):
        for s in range(r + 1, ext + 1):
            got = coeffs(r, s)
            bracket = frame.bracket(r, s)
            for k in range(1, ext + 1):
                want = oracles.to_complex(bracket.get(k, QQi(0)))
                assert abs(got[k - 1] - want) < 1e-12, (r, s, k)


def test_frame_build_cost_follows_supports(monkeypatch):
    # a flat algebra of dim 64 whose frame vectors have two entries each,
    # in nilpotent8's pattern; a dense inverse or Gram loop costs dim^3,
    # and a product for every empty bracket dim^2.  The build takes 13 dim.
    dim = 64
    spec = algebras._spec({}, "a" * (dim // 4), leading=range(1, dim // 2, 2),
                          split=())
    bound = 16 * dim
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(1)
            if len(calls) > bound:
                raise AssertionError("more than %d QQi operations" % bound)
            return fn(*args)
        return wrapper

    for attr in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                 "__truediv__"):
        monkeypatch.setattr(QQi, attr, counted(QQi.__dict__[attr]))
    frame = build_complex_frame(spec)
    assert frame.vectors == sparse_vectors(spec) and frame.entries == {}


def test_nijenhuis_float_oracle_then_exact(frames):
    for frame in frames.values():
        assert oracles.nijenhuis_oracle(frame.spec, "I") < 1e-12
        assert oracles.nijenhuis_oracle(frame.spec, "J") < 1e-12
        assert check_hypercomplex(frame, strict=True)


def test_conjugate_component_in_a_holomorphic_bracket_is_refused():
    frame = build_complex_frame(algebras.su3())
    # [Z_1, Z_3] gains a component along conj(Z_3) = index 7
    frame.entries[(1, 3)] = {3: QQi(-1, -3), 7: QQi(1)}
    assert check_hypercomplex(frame) is False
    with pytest.raises(NonClosedBracket, match=r"^\[Z_1, Z_3\] has a conjugate"):
        check_hypercomplex(frame, strict=True)
    # the real structures are still integrable: only the frame check sees it
    assert check_hypercomplex(frame.spec, strict=True) is True


def test_broken_j_fails_both_ways():
    # su3 with nilpotent8's J: both blocks carry pattern "a"
    bad = algebras._spec(algebras.SU3_BRACKETS, "aa", leading=(1,), split=(1, 2))
    assert oracles.nijenhuis_oracle(bad, "J") > 0.5
    with pytest.raises(NijenhuisViolation):
        check_hypercomplex(bad, strict=True)


def test_dimension_and_vector_validation():
    spec = algebras.su3()
    small = StructureConstants(6, {})
    with pytest.raises(DimensionNotMultipleOf4):
        build_complex_frame(dataclasses.replace(
            spec, sc=small, imap={}, jmap={}))
    with pytest.raises(DimensionMismatch):
        build_complex_frame(dataclasses.replace(spec, vectors=spec.vectors[:3]))
    v0, v1, v2, v3 = spec.vectors
    # J cannot pair a vector with itself
    with pytest.raises(PairingNotInvolutive):
        build_complex_frame(dataclasses.replace(spec, vectors=[v0, v0, v2, v3]))
    # dependent, yet (1,0) and paired by J: unitarity refuses it
    with pytest.raises(NotUnitary, match="Z_1 and Z_3 is 1$"):
        build_complex_frame(dataclasses.replace(spec, vectors=[v0, v1, v0, v1]))


def test_non_holomorphic_vector_rejected():
    spec = algebras.su3()
    # X_1 + i X_2 lies in the (0,1) eigenspace of I, not (1,0)
    wrong = [QQi(0)] * 8
    wrong[0] = QQi(1)
    wrong[1] = QQi(0, 1)
    with pytest.raises(ConfigError):
        build_complex_frame(dataclasses.replace(
            spec, vectors=[wrong] + list(spec.vectors[1:])))


def test_metric_must_make_frame_unitary():
    spec = algebras.su3()
    with pytest.raises(NotUnitary):
        build_complex_frame(dataclasses.replace(
            spec, metric_diag=[Fraction(1)] * 8))


def test_pairing_flip_restores_canonical_frame():
    spec = algebras.su3()
    flipped = [[-x for x in spec.vectors[1]]]
    vectors = [spec.vectors[0]] + flipped + list(spec.vectors[2:])
    handed = dataclasses.replace(spec, vectors=vectors)
    frame = build_complex_frame(handed)
    assert frame.vectors[1] != sparse_vectors(handed)[1]
    reference = build_complex_frame(spec)
    assert frame.entries == reference.entries
    assert frame.vectors == reference.vectors


def test_pair_identities_are_order_sensitive():
    frame = build_complex_frame(algebras.su3())
    vals = nijenhuis_pair_identities(frame, (1, 2))
    assert any(v != 0 for v in vals)  # the natural order violates them
    relabeled = build_complex_frame(relabel_spec(algebras.su3(), (3, 4, 1, 2)))
    assert nijenhuis_pair_identities(relabeled, (1, 2)) == (
        QQi(0), QQi(0), QQi(0), QQi(0))


def test_foliation_checks():
    spec = algebras.su3()
    assert check_foliation(build_complex_frame(spec))
    # not a union of J-pairs
    unpaired = build_complex_frame(dataclasses.replace(spec, split=(1, 3)))
    assert not check_foliation(unpaired)
    with pytest.raises(BadAnnihilatedSet):
        check_foliation(unpaired, strict=True)
    # J-pair but brackets leak onto the transverse pair
    leaking = build_complex_frame(dataclasses.replace(spec, split=(3, 4)))
    assert not check_foliation(leaking)
    big = build_complex_frame(algebras.get_algebra("semidirect12"))
    assert big.split == (1, 2, 5, 6)
    assert check_foliation(big)


@pytest.mark.parametrize("split", [(1, 99), (1, 1)], ids=["range", "repeat"])
def test_bad_split_fails_before_any_bracket(monkeypatch, split):
    spec = dataclasses.replace(algebras.get_algebra("semidirect12"), split=split)
    calls = []
    bracket = StructureConstants.bracket

    def counted(self, u, v):
        calls.append(1)
        return bracket(self, u, v)

    monkeypatch.setattr(StructureConstants, "bracket", counted)
    with pytest.raises(BadAnnihilatedSet):
        build_complex_frame(spec)
    assert calls == []


def test_relabel_validation():
    spec = algebras.su3()
    with pytest.raises(ConfigError):
        relabel_spec(spec, (1, 2, 3))  # wrong length
    with pytest.raises(ConfigError):
        relabel_spec(spec, (1, 2, 4, 3))  # breaks J-pair orientation
    with pytest.raises(ConfigError):
        relabel_spec(spec, (2, 3, 4, 1))
    out = relabel_spec(spec, (3, 4, 1, 2))
    assert tuple(sorted(out.split)) == (3, 4)


def test_get_algebra_unknown_name():
    with pytest.raises(ConfigError):
        algebras.get_algebra("nope")
