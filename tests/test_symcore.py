import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from specexp import bridge
from specexp import symcore as sc
from specexp.expansion import _UVTerms


def B(h, c=1):
    return sc.SymPoly.b_power(h, c)


class TestExactScalar:
    def test_sqrt2_square(self):
        assert sc.SQRT2 * sc.SQRT2 == 2

    def test_norm_product(self):
        assert sc.ExactScalar(1, 1) * sc.ExactScalar(1, -1) == -1

    def test_inverse(self):
        x = sc.ExactScalar(Fraction(3, 4), Fraction(-2, 5))
        assert x * x.inverse() == 1

    def test_zero_iff_both_components(self):
        assert sc.ExactScalar(0, 0).is_zero()
        assert not sc.ExactScalar(0, 1).is_zero()
        assert not sc.ExactScalar(0, 0) and sc.ExactScalar(0, 1) and sc.ExactScalar(1, 0)

    def test_powers(self):
        assert sc.ExactScalar.sqrt2_power(4) == 4
        assert sc.ExactScalar.sqrt2_power(3) == sc.ExactScalar(0, 2)
        assert sc.ExactScalar.sqrt2_power(-1) == sc.ExactScalar(0, Fraction(1, 2))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            sc.ExactScalar(0, 0).inverse()

    def test_rational_operands_coerce(self):
        x = sc.ExactScalar(Fraction(1, 3), 1)
        assert x + 1 == 1 + x == sc.ExactScalar(Fraction(4, 3), 1)
        assert x - Fraction(1, 3) == sc.SQRT2 and Fraction(1, 3) - x == -sc.SQRT2
        assert 3 * x == x * 3 == sc.ExactScalar(1, 3)
        assert x / 2 == sc.ExactScalar(Fraction(1, 6), Fraction(1, 2))
        assert 1 / sc.SQRT2 == sc.ExactScalar(0, Fraction(1, 2))

    def test_carrier_operand_defers_to_carrier(self):
        p = sc.SymPoly.a_deriv(1)
        assert sc.SQRT2 * p == p * sc.SQRT2 == p.scale(sc.SQRT2)

    def test_unknown_operand_raises_type_error(self):
        for op in (lambda x: x + 1.5, lambda x: 1.5 * x, lambda x: x - "1", lambda x: x / 2.0):
            with pytest.raises(TypeError):
                op(sc.SQRT2)


class TestRing:
    def test_additive_identity(self):
        p = B(-3, Fraction(1, 2)) + sc.SymPoly.a_deriv(1)
        assert sc.SymPoly.zero() + p == p

    def test_sqrt2_coefficient_product(self):
        bp = sc.SymPoly.b_deriv(1)
        p = bp.scale(sc.SQRT2)
        assert p * p == (bp * bp).scale(2)

    def test_exponent_addition(self):
        assert B(-3) * B(1) == B(-2)

    def test_cancellation(self):
        p = sc.SymPoly.a_deriv(2)
        assert (p - p).is_zero()


class TestDifferentiate:
    def test_b_half_power(self):
        got = sc.differentiate(B(1))
        want = sc.SymPoly(
            {sc.DerivMonomial(-1, (), ((1, 1),)): sc.ExactScalar(Fraction(1, 2))}
        )
        assert got == want

    def test_a_prime_squared(self):
        got = sc.differentiate(sc.SymPoly.a_deriv(1) ** 2)
        want = sc.SymPoly(
            {sc.DerivMonomial(0, ((1, 1), (2, 1))): sc.ExactScalar(2)}
        )
        assert got == want

    def test_negative_b_power(self):
        got = sc.differentiate(B(-3))
        want = sc.SymPoly(
            {sc.DerivMonomial(-5, (), ((1, 1),)): sc.ExactScalar(Fraction(-3, 2))}
        )
        assert got == want

    def test_leibniz(self):
        p = B(-1) + sc.SymPoly.a_deriv(1)
        q = sc.SymPoly.b_deriv(2)
        lhs = sc.differentiate(p * q)
        rhs = sc.differentiate(p) * q + p * sc.differentiate(q)
        assert lhs == rhs


class TestAForm:
    def test_b_minus_three_halves(self):
        got = sc.to_a_form(B(-3, Fraction(1, 2)))
        assert got == sc.AFormPoly({(3, ()): Fraction(1, 2)})

    def test_a_prime(self):
        got = sc.to_a_form(sc.SymPoly.a_deriv(1))
        assert got == sc.AFormPoly({(-2, ((1, 1),)): Fraction(-1)})

    def test_a_double_prime(self):
        # derived by differentiating -a'/a^2 by hand
        got = sc.to_a_form(sc.SymPoly.a_deriv(2))
        want = sc.AFormPoly({(-2, ((2, 1),)): Fraction(-1), (-3, ((1, 2),)): Fraction(2)})
        assert got == want

    def test_sqrt2_coefficient_rejected(self):
        with pytest.raises(ValueError):
            sc.to_a_form(B(-1, sc.SQRT2))

    def test_aform_differentiate_product_rule(self):
        p = sc.AFormPoly.a_power(-2) * sc.AFormPoly.deriv(1)
        got = p.differentiate()
        want = sc.AFormPoly(
            {(-3, ((1, 2),)): Fraction(-2), (-2, ((2, 1),)): Fraction(1)}
        )
        assert got == want


class TestEvalNumeric:
    def test_constant_contribution(self):
        p = B(-2, Fraction(1, 3)) + sc.SymPoly.a_deriv(1) ** 2
        # at a = 1 with vanishing higher derivatives only the pure-a term survives
        val = sc.eval_numeric(p, lambda i: 1.0 if i == 0 else 0.0)
        assert abs(val - 1.0 / 3.0) < 1e-14

    def test_division_by_zero_signal(self):
        # B^1 = a^-2 divides by the scale factor
        with pytest.raises(ZeroDivisionError):
            sc.eval_numeric(B(2), lambda i: 0.0)


class TestSerialization:
    def test_json_round_trip_bit_exact(self):
        p = (
            B(-5, sc.ExactScalar(Fraction(3, 8), Fraction(1, 2)))
            + sc.SymPoly.a_deriv(3)
            + sc.SymPoly.b_deriv(2) ** 2
        )
        blob = json.dumps(sc.sympoly_to_json(p))
        assert sc.sympoly_from_json(json.loads(blob)) == p

    def test_aform_round_trip(self):
        p = sc.to_a_form(B(-7, Fraction(5, 32)) + B(-1, Fraction(-1, 4)))
        blob = json.dumps(sc.aform_to_json(p))
        assert sc.aform_from_json(json.loads(blob)) == p

    def test_text_deterministic(self):
        p1 = B(-3, Fraction(1, 2)) + sc.SymPoly.a_deriv(1)
        p2 = sc.SymPoly.a_deriv(1) + B(-3, Fraction(1, 2))
        assert sc.sympoly_to_text(p1) == sc.sympoly_to_text(p2)

    def test_latex_smoke(self):
        tex = sc.sympoly_to_latex(B(-3, Fraction(1, 2)))
        assert "B(t)^{3/2}" in tex and "frac" in tex


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------

small_rat = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)


@st.composite
def monomials(draw):
    b_half = draw(st.integers(min_value=-7, max_value=7))
    a_exp = draw(
        st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2)
    )
    b_exp = draw(
        st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2)
    )
    return sc.DerivMonomial(b_half, tuple(a_exp.items()), tuple(b_exp.items()))


@st.composite
def sympolys(draw, rational_only=False):
    n = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n):
        mono = draw(monomials())
        r0 = draw(small_rat)
        r1 = Fraction(0) if rational_only else draw(small_rat)
        terms[mono] = sc.ExactScalar(r0, r1)
    return sc.SymPoly(terms)


@settings(max_examples=40, deadline=None)
@given(sympolys(), sympolys(), sympolys())
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@settings(max_examples=30, deadline=None)
@given(sympolys())
def test_canonical_idempotence(p):
    rebuilt = sc.SymPoly(dict(p.terms))
    assert rebuilt == p and sc.sympoly_to_text(rebuilt) == sc.sympoly_to_text(p)


@settings(max_examples=25, deadline=None)
@given(sympolys(rational_only=True))
def test_differentiation_commutes_with_substitution(p):
    lhs = sc.to_a_form(sc.differentiate(p))
    rhs = sc.to_a_form(p).differentiate()
    assert lhs == rhs


# every carrier of the package is a SparsePoly; one sample element of each
CARRIERS = {
    "VPoly": lambda: bridge.VPoly.var(1) * Fraction(1, 2) + bridge.VPoly.var(3),
    "_UVTerms": lambda: _UVTerms.u_letter(1) + _UVTerms.v_letter(2) * 3,
    "SymPoly": lambda: B(-3, Fraction(1, 2)) + sc.SymPoly.a_deriv(1).scale(sc.SQRT2),
    "AFormPoly": lambda: sc.AFormPoly.a_power(-1, 2) + sc.AFormPoly.deriv(2),
}


@pytest.mark.parametrize("make", CARRIERS.values(), ids=CARRIERS.keys())
def test_carrier_contract(make):
    p = make()
    cls = type(p)
    assert issubclass(cls, sc.SparsePoly)
    assert not set(vars(cls)) & {"__add__", "__mul__", "__pow__", "__neg__", "__eq__", "__hash__"}
    assert not p.is_zero() and (p - p).is_zero() and (p + (-p)).is_zero()
    assert p * 2 == p + p == 2 * p
    assert p * Fraction(1, 2) + p.scale(Fraction(1, 2)) == p
    assert (p * 0).is_zero() and p * cls.one() == p
    assert p ** 0 == cls.one() == cls.constant(1)
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1
    q = make()
    assert q == p and hash(q) == hash(p) and q is not p
    assert len({p, q, p * p}) == 2
    with pytest.raises(AttributeError):
        p.terms = {}


def test_mixed_carriers_raise_type_error():
    v, a = bridge.VPoly.var(1), sc.AFormPoly.deriv(1)
    with pytest.raises(TypeError):
        v + a
    with pytest.raises(TypeError):
        v * a
    with pytest.raises(TypeError):
        _UVTerms.u_letter(1) + sc.SymPoly.a_deriv(1)
