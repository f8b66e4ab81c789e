import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from specexp import bell, bridge
from specexp import expansion as ex
from specexp import symcore as sc
from specexp.expansion import _UVTerms


def B(h, c=1):
    return sc.SymPoly.b_power(h, c)


class TestRing:
    def test_additive_identity(self):
        p = B(-3, Fraction(1, 2)) + sc.SymPoly.a_deriv(1)
        assert sc.SymPoly.zero() + p == p

    def test_exponent_addition(self):
        assert B(-3) * B(1) == B(-2)

    def test_cancellation(self):
        p = sc.SymPoly.a_deriv(2)
        assert (p - p).is_zero()


class TestDifferentiate:
    def test_b_half_power(self):
        got = sc.differentiate(B(1))
        want = sc.SymPoly(
            {sc.DerivMonomial(-1, (), ((1, 1),)): Fraction(1, 2)}
        )
        assert got == want

    def test_a_prime_squared(self):
        got = sc.differentiate(sc.SymPoly.a_deriv(1) ** 2)
        want = sc.SymPoly(
            {sc.DerivMonomial(0, ((1, 1), (2, 1))): Fraction(2)}
        )
        assert got == want

    def test_negative_b_power(self):
        got = sc.differentiate(B(-3))
        want = sc.SymPoly(
            {sc.DerivMonomial(-5, (), ((1, 1),)): Fraction(-3, 2)}
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
            B(-5, Fraction(3, 8))
            + sc.SymPoly.a_deriv(3)
            + sc.SymPoly.b_deriv(2) ** 2
        )
        blob = json.dumps(sc.sympoly_to_json(p))
        assert sc.sympoly_from_json(json.loads(blob)) == p

    def test_sqrt2_part_rejected(self):
        blob = sc.sympoly_to_json(B(-3, Fraction(1, 2)))
        blob["terms"][0]["coeff"]["p2"] = 1
        with pytest.raises(ValueError):
            sc.sympoly_from_json(blob)

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
def monomials(draw, nonzero_b_half=False):
    b_half = draw(st.integers(min_value=-7, max_value=7).filter(lambda h: h or not nonzero_b_half))
    a_exp = draw(
        st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2)
    )
    b_exp = draw(
        st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2)
    )
    return sc.DerivMonomial(b_half, tuple(a_exp.items()), tuple(b_exp.items()))


@st.composite
def sympolys(draw, nonzero_b_half=False):
    n = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n):
        terms[draw(monomials(nonzero_b_half))] = draw(small_rat)
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
@given(sympolys())
def test_differentiation_commutes_with_substitution(p):
    lhs = sc.to_a_form(sc.differentiate(p))
    rhs = sc.to_a_form(p).differentiate()
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(sympolys(nonzero_b_half=True), sympolys(nonzero_b_half=True))
def test_substitution_is_a_ring_homomorphism(p, q):
    assert sc.to_a_form(p * q) == sc.to_a_form(p) * sc.to_a_form(q)
    assert sc.to_a_form(p + q) == sc.to_a_form(p) + sc.to_a_form(q)


@pytest.mark.parametrize("p", [1, 2])
def test_inverse_power_images_match_faa_di_bruno(p):
    # d^k/dt^k f(a(t)) with f(y) = y^(-p): f^(m)(y) = (-1)^m p(p+1)...(p+m-1) y^(-p-m)
    g_derivs = [sc.AFormPoly.deriv(i) for i in range(1, 9)]
    for k in range(1, 9):
        f_derivs = [
            sc.AFormPoly.a_power(-p - m, (-1) ** m * math.prod(range(p, p + m)))
            for m in range(1, k + 1)
        ]
        want = bell.faa_di_bruno(k, f_derivs, g_derivs, one=sc.AFormPoly.one())
        assert sc._inverse_power_deriv(p, k) == want, (p, k)


def test_aform_eval_independent_of_term_order():
    # the terms of a_8 cancel, so a plain left-to-right sum depends on their order
    aform = sc.to_a_form(ex.a2M(4))
    reordered = sc.AFormPoly(dict(reversed(list(aform.terms.items()))))
    assert list(reordered.terms) != list(aform.terms) and reordered == aform
    sphere = ex.scale_factor("sphere")
    for t in (0.3, 1.7, 2.9):
        derivs = lambda i: sphere.deriv(i, t)
        assert reordered.eval(derivs) == aform.eval(derivs), t


@pytest.mark.parametrize("derivs", [
    lambda i: 1e200 if i == 0 else 1.0,            # a^2 overflows in the power
    lambda i: 1.0 if i == 0 else 1e-60 ** -5.5,    # the callback overflows
    lambda i: math.inf if i == 0 else 1.0,         # a^2 - a^2 a' gives inf - inf
    lambda i: 1.0 if i == 0 else 1e200,            # the product a^2 a' a'' overflows
])
def test_aform_eval_out_of_float_range_is_typed(derivs):
    aform = sc.AFormPoly({(2, ()): Fraction(1), (2, ((1, 1),)): Fraction(-1),
                          (2, ((1, 1), (2, 1))): Fraction(1)})
    with pytest.raises(sc.FloatRangeError):
        aform.eval(derivs)


# every carrier of the package is a SparsePoly; one sample element of each
CARRIERS = {
    "VPoly": lambda: bridge.VPoly.var(1) * Fraction(1, 2) + bridge.VPoly.var(3),
    "_UVTerms": lambda: _UVTerms.u_letter(1) + _UVTerms.v_letter(2) * 3,
    "SymPoly": lambda: B(-3, Fraction(1, 2)) + sc.SymPoly.a_deriv(1).scale(3),
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


def test_int_coefficients_stay_int():
    x = sc.SymPoly({sc.DerivMonomial(-3): 4, sc.DerivMonomial(0, ((1, 1),)): -2})
    for p in (x * x, x + x, -x, x ** 3, x.scale(5), 3 * x):
        assert all(type(c) is int for c in p.terms.values())
    assert {type(c) for c in x.scale(Fraction(1, 2)).terms.values()} == {Fraction}
    assert {type(c) for c in (x + x.scale(Fraction(1, 3))).terms.values()} == {Fraction}
    assert type(sc.SymPoly({sc.DerivMonomial(0): 0.5}).terms[sc.DerivMonomial(0)]) is Fraction
    assert type(sc.SymPoly({sc.DerivMonomial(0): True}).terms[sc.DerivMonomial(0)]) is Fraction
    # an int coefficient is equal to, hashes and renders as the equal Fraction
    y = sc.SymPoly({m: Fraction(c) for m, c in x.terms.items()})
    assert y == x and hash(y) == hash(x)
    assert sc.sympoly_to_json(y) == sc.sympoly_to_json(x)
    assert sc.sympoly_to_text(y) == sc.sympoly_to_text(x)
    assert sc.sympoly_to_latex(y) == sc.sympoly_to_latex(x)


@settings(max_examples=60, deadline=None)
@given(monomials(), monomials())
def test_monomial_product_is_the_normalised_exponent_sum(m1, m2):
    got = m1 * m2
    want = sc.DerivMonomial(m1.b_half + m2.b_half, m1.a_exp + m2.a_exp, m1.b_exp + m2.b_exp)
    assert got == want and hash(got) == hash(want)
    assert (got.b_half, got.a_exp, got.b_exp) == (want.b_half, want.a_exp, want.b_exp)


def test_monomial_product_cancels_exponents():
    m = sc.DerivMonomial(1, ((2, 1), (3, 2)), ((1, 1),))
    inv = sc.DerivMonomial(-1, ((2, -1), (3, -2)), ((1, -1),))
    assert m * inv == sc.DerivMonomial(0) and (m * inv).a_exp == () == (m * inv).b_exp
    one = sc.DerivMonomial(0, ((2, 1),))
    assert (one * sc.DerivMonomial(0, ((2, -1),))).a_exp == ()
    assert (one * sc.DerivMonomial(0, ((1, 1),))).a_exp == ((1, 1), (2, 1))


def test_mixed_carriers_raise_type_error():
    v, a = bridge.VPoly.var(1), sc.AFormPoly.deriv(1)
    with pytest.raises(TypeError):
        v + a
    with pytest.raises(TypeError):
        v * a
    with pytest.raises(TypeError):
        _UVTerms.u_letter(1) + sc.SymPoly.a_deriv(1)
