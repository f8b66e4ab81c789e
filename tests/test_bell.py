import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from specexp import bell
from specexp import symcore as sc


def brute_partition_count(n: int) -> int:
    """Number of set partitions of {1..n} by direct enumeration."""

    def rec(rest):
        if not rest:
            return 1
        first, tail = rest[0], rest[1:]
        total = 0
        for k in range(len(tail) + 1):
            for block in itertools.combinations(tail, k):
                remaining = tuple(x for x in tail if x not in block)
                total += rec(remaining)
        return total

    return rec(tuple(range(n)))


class TestConventions:
    def test_b00(self):
        assert bell.bell_polynomial(0, 0, []) == 1

    def test_bn0(self):
        assert bell.bell_polynomial(3, 0, [1, 2, 3, 4]) == 0

    def test_n_below_k(self):
        assert bell.bell_polynomial(2, 5, [1, 1, 1, 1, 1]) == 0

    def test_short_argument_list_rejected(self):
        with pytest.raises(ValueError):
            bell.bell_polynomial(4, 2, [1, 2])


class TestValues:
    def test_b32_symbolic(self):
        # enumerate lambda with weight 3, size 2 by hand: only (1,1) -> 3 x1 x2
        x1, x2 = sc.SymPoly.a_deriv(1), sc.SymPoly.a_deriv(2)
        got = bell.bell_polynomial(3, 2, [x1, x2], one=sc.SymPoly.constant(1))
        assert got == (x1 * x2).scale(3)

    def test_b63_integer(self):
        # B_{6,3}(1!,2!,3!,4!) with factorial arguments equals Stirling-like sum;
        # cross-check against direct lambda enumeration
        xs = [math.factorial(i) for i in range(1, 5)]
        total = Fraction(0)
        for coeff, lam in bell.bell_template(6, 3):
            term = coeff
            for i, m in enumerate(lam, start=1):
                term *= Fraction(xs[i - 1]) ** m
            total += term
        assert bell.bell_polynomial(6, 3, [Fraction(x) for x in xs]) == total

    def test_templates_are_exact_ints(self):
        for n in range(0, 11):
            for k in range(0, n + 1):
                for coeff, lam in bell.bell_template(n, k):
                    assert type(coeff) is int
                    denom = math.prod(math.factorial(m) * math.factorial(i) ** m
                                      for i, m in enumerate(lam, start=1))
                    assert coeff * denom == math.factorial(n), (n, k, lam)

    def test_templates_match_an_unpruned_enumeration(self):
        # every partition of n, kept when it has k parts, in the template's
        # order (multiplicity tuples descending); coefficients sum to S(n, k)
        def partitions(n, largest):
            if n == 0:
                yield ()
            for part in range(min(n, largest), 0, -1):
                for rest in partitions(n - part, part):
                    yield (part,) + rest

        stirling = {(0, 0): 1}
        for n in range(1, 17):
            for k in range(n + 1):
                stirling[n, k] = k * stirling.get((n - 1, k), 0) + stirling.get((n - 1, k - 1), 0)
            for k in range(n + 1):
                want = []
                for parts in partitions(n, n):
                    if len(parts) != k:
                        continue
                    lam = tuple(parts.count(i) for i in range(1, n - k + 2))
                    denom = math.prod(math.factorial(m) * math.factorial(i) ** m
                                      for i, m in enumerate(lam, start=1))
                    want.append((math.factorial(n) // denom, lam))
                want.sort(key=lambda entry: entry[1], reverse=True)
                assert bell.bell_template(n, k) == tuple(want), (n, k)
                assert sum(c for c, _ in bell.bell_template(n, k)) == stirling[n, k], (n, k)

    def test_row_sums_are_bell_numbers(self):
        for n in range(0, 11):
            assert bell.bell_number(n) == brute_partition_count(n)


class TestFaaDiBruno:
    def test_chain_rule(self):
        assert bell.faa_di_bruno(1, [5.0], [2.0]) == 10.0

    def test_inverse_second_derivative(self):
        # f(y) = 1/y at y = a: expect -a''/a^2 + 2 a'^2/a^3 (hand differentiation)
        f = [
            sc.AFormPoly.a_power(-2, -1),
            sc.AFormPoly.a_power(-3, 2),
        ]
        g = [sc.AFormPoly.deriv(1), sc.AFormPoly.deriv(2)]
        got = bell.faa_di_bruno(2, f, g, one=sc.AFormPoly.constant(1))
        want = sc.AFormPoly(
            {(-2, ((2, 1),)): Fraction(-1), (-3, ((1, 2),)): Fraction(2)}
        )
        assert got == want

    def test_exp_of_identity(self):
        # g = t: only B_{n,m} with all derivatives (1,0,0,...) survive
        val = bell.faa_di_bruno(3, [math.e, math.e, math.e], [1.0, 0.0, 0.0])
        assert abs(val - math.e) < 1e-12

    def test_against_numeric_composition(self):
        # d^3/dt^3 sin(t^2 + t) at t = 0.3 by finite differences
        import numpy as np

        t0 = 0.3
        g = lambda t: t * t + t  # noqa: E731
        comp = lambda t: math.sin(g(t))  # noqa: E731
        h = 1e-3
        stencil = [-2, -1, 0, 1, 2]
        vals = [comp(t0 + s * h) for s in stencil]
        third = (-vals[0] / 2 + vals[1] - vals[3] + vals[4] / 2) / h**3
        y = g(t0)
        f_derivs = [math.cos(y), -math.sin(y), -math.cos(y)]
        g_derivs = [2 * t0 + 1, 2.0, 0.0]
        got = bell.faa_di_bruno(3, f_derivs, g_derivs)
        assert abs(got - third) < 5e-5  # finite-difference truncation is O(h^2)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(0, 8),
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4),
)
def test_homogeneity(n, k, c):
    # B_{n,k}(c x1, c^2 x2, ...) = c^n B_{n,k}(x1, ...)
    if c == 0:
        c = Fraction(1, 2)
    width = max(n - k + 1, 1)
    xs = [Fraction(i + 1, 2) for i in range(width)]
    scaled = [c**i * x for i, x in enumerate(xs, start=1)]
    assert bell.bell_polynomial(n, k, scaled) == c**n * bell.bell_polynomial(n, k, xs)


def test_template_memo_is_stable():
    first = bell.bell_template(7, 3)
    second = bell.bell_template(7, 3)
    assert first is second
