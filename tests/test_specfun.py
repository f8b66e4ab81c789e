import cmath
import json
import math
import sys

import mpmath as mp
import numpy as np
import pytest

from specexp import specfun as sf

SQRT2 = math.sqrt(2.0)


class TestDawson:
    def test_origin_and_oddness(self):
        # exactly odd on every branch, signed zero included
        assert sf.dawson(0.0) == 0.0
        assert math.copysign(1.0, sf.dawson(-0.0)) == -1.0
        rng = np.random.default_rng(4)
        xs = [0.3, 1.0, 1.7, 4.2, 15.0, 25.0, 1e300, *rng.uniform(0.0, 30.0, 200),
              *np.exp(rng.uniform(3.0, 46.0, 20))]
        for x in map(float, xs):
            assert sf.dawson(-x) == -sf.dawson(x), x

    def test_derivative_at_origin(self):
        h = 1e-6
        d = (sf.dawson(h) - sf.dawson(-h)) / (2 * h)
        assert abs(d - 1.0) < 1e-9

    def test_against_independent_oracle(self):
        def ref(x):
            with mp.workdps(30):
                x = mp.mpf(x)
                return float(mp.sqrt(mp.pi) / 2 * mp.exp(-x * x) * mp.erfi(x))

        xs = np.linspace(-20, 20, 2001)
        worst = max(abs(sf.dawson(float(x)) - ref(float(x))) for x in xs)
        assert worst <= 1e-13

    @staticmethod
    def _defining_integral(x):
        # e^(-x^2) int_0^x e^(y^2) dy by tanh-sinh quadrature, shares no code with dawson
        with mp.workdps(30):
            x = mp.mpf(x)
            return float(mp.exp(-x * x) * mp.quad(lambda y: mp.exp(y * y), [0, x]))

    def test_against_defining_integral(self):
        # the documented bound: 4 ulp on the series, 17 ulp on the erfi route
        rng = np.random.default_rng(3)
        xs = list(rng.uniform(-20.0, 20.0, 60)) + [-20.0, -1.5, -0.5, 0.5, 1.5, 20.0]
        for x in xs:
            want = self._defining_integral(float(x))
            assert abs(sf.dawson(float(x)) - want) <= 17 * math.ulp(want), x

    def test_infinities_and_nan(self):
        for x, want in ((math.inf, 0.0), (-math.inf, -0.0)):
            got = sf.dawson(x)
            assert got == 0.0 and math.copysign(1.0, got) == math.copysign(1.0, want)
        assert math.isnan(sf.dawson(math.nan))

    def test_large_argument_asymptote(self):
        # F(x) = 1/(2x) (1 + 1/(2x^2) + 3/(4x^4) + 15/(8x^6) + O(x^-8)), exact to 1e-23 at x >= 1e3
        for x in (1e3, 3.7e4, 1e8, 2.5e20, 1e300):
            with mp.workdps(30):
                r = 1 / mp.mpf(x) ** 2
                want = float((1 + r / 2 + 3 * r**2 / 4 + 15 * r**3 / 8) / (2 * mp.mpf(x)))
            assert abs(sf.dawson(x) - want) <= math.ulp(want), x

    @staticmethod
    def _erfi_40(x):
        with mp.workdps(40):
            return float(mp.sqrt(mp.pi) / 2 * mp.exp(-mp.mpf(x) ** 2) * mp.erfi(x))

    def test_asymptotic_branch_against_40_digits(self, monkeypatch):
        # past 2^28 F is 1/(2x), with no slow 1F1 call: within 1 ulp of a
        # 40-digit erfi evaluation up to the largest double (subnormal F)
        rng = np.random.default_rng(28)
        xs = [float(x) for x in np.exp(rng.uniform(math.log(2.0**28), math.log(1e300), 12))]
        xs += [math.nextafter(2.0**28, math.inf), 1e300, sys.float_info.max]
        wants = [self._erfi_40(x) for x in xs]
        monkeypatch.setattr(sf.mp, "hyp1f1", None)
        for x, want in zip(xs, wants):
            assert abs(sf.dawson(x) - want) <= math.ulp(want), x
            assert sf.dawson(-x) == -sf.dawson(x), x

    @pytest.mark.parametrize("last, first", [(1.0, math.nextafter(1.0, 2.0)),
                                             (math.nextafter(25.0, 0.0), 25.0),
                                             (2.0**28, math.nextafter(2.0**28, math.inf))])
    def test_branch_boundaries(self, last, first):
        # three doubles on each side of a branch switch, against a 40-digit
        # oracle; |F'| <= 1 there, so the two neighbours differ by a few ulp
        up = math.inf
        xs = [last, math.nextafter(last, 0.0), math.nextafter(math.nextafter(last, 0.0), 0.0),
              first, math.nextafter(first, up), math.nextafter(math.nextafter(first, up), up)]
        for x in xs:
            want = self._erfi_40(x)
            assert abs(sf.dawson(x) - want) <= 8 * math.ulp(want), x
        assert abs(sf.dawson(first) - sf.dawson(last)) <= 8 * math.ulp(sf.dawson(first))

    def test_ode_residual_grid(self):
        h = 1e-6
        for x in np.linspace(-10, 10, 101):
            d = (sf.dawson(x + h) - sf.dawson(x - h)) / (2 * h)
            assert abs(d - 1 + 2 * x * sf.dawson(x)) <= 1e-10 + 1e-4 * h


class TestGamma:
    def test_reals(self):
        assert abs(sf.gamma_complex(5.0) - 24.0) < 1e-12
        assert abs(sf.gamma_complex(0.5) - math.sqrt(math.pi)) < 1e-13

    def test_recurrence_and_reflection(self):
        # Gamma(z+1) = z Gamma(z) and Gamma(z) Gamma(1-z) = pi / sin(pi z)
        for z in (2 + 3j, -2.5 + 1j, 0.5 - 7j, -0.5 + 0j, 0.125 + 22j, 0.125 - 22j, 0.125 - 44j):
            g = sf.gamma_complex(z)
            assert abs(sf.gamma_complex(z + 1) - z * g) <= 1e-12 * abs(z * g)
            want = cmath.pi / cmath.sin(cmath.pi * z)
            assert abs(g * sf.gamma_complex(1 - z) - want) <= 1e-12 * abs(want)

    def test_pole(self):
        with pytest.raises(ZeroDivisionError):
            sf.gamma_complex(-3.0)


class TestKummer:
    def test_at_origin(self):
        assert sf.kummer_1f1(2.3, 1.7, 0.0) == 1.0

    def test_exponential_collapse(self):
        for x in (0.5, 3.0, -2.0, 10.0):
            assert abs(sf.kummer_1f1(1, 1, x) - math.exp(x)) < 1e-12 * math.exp(abs(x))

    def test_derivative_relation(self):
        a, b = 1.3, 0.7
        h = 1e-6
        for x in (0.4, 2.5, -1.5):
            d = (sf.kummer_1f1(a, b, x + h) - sf.kummer_1f1(a, b, x - h)) / (2 * h)
            want = a / b * sf.kummer_1f1(a + 1, b + 1, x)
            assert abs(d - want) < 1e-7 * max(1.0, abs(want))

    def test_contiguous_recurrence(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
            b = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
            x = complex(rng.uniform(-10, 10), rng.uniform(-3, 3))
            lhs = (b - a) * sf.kummer_1f1(a - 1, b, x) + (
                2 * a - b + x
            ) * sf.kummer_1f1(a, b, x)
            rhs = a * sf.kummer_1f1(a + 1, b, x)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    def test_kummer_transformation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
            b = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
            x = complex(rng.uniform(0.1, 20), rng.uniform(-4, 4))
            lhs = sf.kummer_1f1(a, b, x)
            rhs = np.exp(x) * sf.kummer_1f1(b - a, b, -x)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_imaginary_axis_closed_form(self):
        # 1F1(1, 2, x) = (e^x - 1)/x, where the plain series cancels at large |Im x|;
        # and the terminating 1F1(-2, b, x) = 1 - 2x/b + x^2/(b(b+1))
        cases = [(1, 2, x, (cmath.exp(x) - 1) / x) for x in (10j, 20j, 40j, 60j, -40.0, 25 + 25j)]
        b, x = 0.75 + 0.5j, 20j
        cases.append((-2, b, x, 1 - 2 * x / b + x * x / (b * (b + 1))))
        for a, b, x, want in cases:
            assert abs(sf.kummer_1f1(a, b, x) - want) <= 1e-13 * abs(want)

    def test_bad_b(self):
        with pytest.raises(ZeroDivisionError):
            sf.kummer_1f1(1.0, -2.0, 0.5)


class TestDawsonSimplex:
    def test_bridge_forms_match_covariance_sum(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            for _ in range(5):
                u = rng.uniform(-2.0, 2.0, n)
                v = np.sort(rng.uniform(0.0, 1.0, n))
                want = 0.5 * sum(
                    (min(v[j], v[m]) - v[j] * v[m]) * u[j] * u[m]
                    for j in range(n)
                    for m in range(n)
                )
                w, uu = sf._bridge_forms(u)
                got = 0.5 * (np.dot(w, v) - np.dot(uu, v) ** 2)
                assert abs(got - want) <= 1e-14 * abs(want), (n, u, v)

    def test_n1_value(self):
        lhs, rhs, ok = sf.verify_dawson_simplex(1, [1.0])
        want = 2 * SQRT2 * sf.dawson(1.0 / (2 * SQRT2))
        assert ok and abs(rhs - want) < 1e-14 and abs(lhs - want) < 1e-9

    def test_n2_uses_all_three_arguments(self):
        # F at u1, u2 and u1+u2 (each over 2 sqrt2)
        u = [0.9, 1.4]
        rhs = sf.dawson_simplex_closed_form(2, u)
        s = 2 * SQRT2
        want = (
            4
            * SQRT2
            * (sf.dawson(u[0] / s) + sf.dawson(u[1] / s) - sf.dawson((u[0] + u[1]) / s))
            / (u[0] * u[1] * (u[0] + u[1]))
        )
        assert abs(rhs - want) < 1e-14

    def test_random_draws_low_dim(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            for _ in range(3):
                u = rng.uniform(0.3, 2.0, n)
                lhs, rhs, ok = sf.verify_dawson_simplex(n, u)
                assert ok, (n, u, lhs, rhs)

    def test_small_u_limit(self):
        for n in (1, 2, 3, 4):
            val = sf.dawson_simplex_closed_form(n, [0.01] * n)
            assert abs(val - 1.0 / math.factorial(n)) < 1e-3

    def test_degenerate_u_rejected(self):
        with pytest.raises(ValueError):
            sf.verify_dawson_simplex(2, [1.0, -1.0])

    def test_zero_interval_sum_is_a_typed_failure(self):
        # u_1 + u_2 = 0 and u_2 + u_3 = 0 are denominators of the closed forms
        with pytest.raises(ValueError, match=r"u_1\.\.u_2"):
            sf.dawson_simplex_closed_form(2, [1.0, -1.0])
        with pytest.raises(ValueError, match=r"u_2\.\.u_3"):
            sf.dawson_simplex_closed_form(3, [1.0, 0.5, -0.5])
        with pytest.raises(ValueError, match=r"u_1\.\.u_1"):
            sf.dawson_simplex_closed_form(1, [0.0])

    def test_n4_gauss(self):
        lhs, rhs, ok = sf.verify_dawson_simplex(4, [1.1, 0.6, 1.4, 0.8], tol=1e-5)
        assert ok, (lhs, rhs)

    @pytest.mark.parametrize("hi, bound", [(2.2, 1e-12), (5.0, 1e-11)])
    def test_gauss_rule_matches_closed_form(self, hi, bound):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4):
            draws = [rng.uniform(0.25, hi, n) for _ in range(20)] + [[hi] * n]
            for u in draws:
                lhs, rhs, _ = sf.verify_dawson_simplex(n, u)
                assert abs(lhs - rhs) <= bound, (n, list(u), lhs - rhs)

    @staticmethod
    def _full_tensor_gauss(u):
        # the same rule with every GAUSS_NODES^n point held at once
        z, wz = sf._unit_gauss_legendre()
        w, u = sf._bridge_forms(u)
        v = weight = np.ones(1)
        lin_w = lin_u = np.zeros(1)
        for k in range(len(u) - 1, -1, -1):
            v = np.multiply.outer(v, z).ravel()
            weight = np.multiply.outer(weight, wz * z**k).ravel()
            lin_w = np.repeat(lin_w, sf.GAUSS_NODES) + w[k] * v
            lin_u = np.repeat(lin_u, sf.GAUSS_NODES) + u[k] * v
        return float(weight @ np.exp(-0.5 * (lin_w - lin_u * lin_u)))

    def test_blocked_rule_matches_full_tensor(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                u = rng.uniform(0.25, 5.0, n)
                want = self._full_tensor_gauss(u)
                assert abs(sf._simplex_gauss(u) - want) <= 1e-15 * want, (n, list(u))

    def test_n4_rule_traced_peak_below_3mb(self):
        import tracemalloc

        u = [1.1, 0.6, 1.4, 0.8]
        sf._simplex_gauss(u)  # nodes cached outside the traced call
        tracemalloc.start()
        try:
            sf._simplex_gauss(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6, peak

    def test_perturbed_n4_term_is_caught(self, monkeypatch):
        # a 1e-6 relative error in one closed-form coefficient at n = 4
        terms = json.loads(json.dumps(sf._dawson_terms()))
        terms["4"][0]["coeff"] *= 1 + 1e-6
        monkeypatch.setattr(sf, "_dawson_terms", lambda: terms)
        u = [1.1, 0.6, 1.4, 0.8]
        lhs, rhs, ok = sf.verify_dawson_simplex(4, u, tol=1e-9)
        assert not ok, (lhs, rhs)
        monkeypatch.undo()
        assert sf.verify_dawson_simplex(4, u, tol=1e-9)[2]


class TestGaussianMultiplicity:
    def test_central_value(self):
        lhs, rhs, ok = sf.verify_gaussian_multiplicity(1.0, 0.0)
        assert ok and abs(rhs - math.sqrt(math.pi) / 4) < 1e-14

    def test_v_symmetry(self):
        a = sf.gaussian_multiplicity_closed_form(1.3, 0.8)
        b = sf.gaussian_multiplicity_closed_form(1.3, -0.8)
        assert a == b

    def test_generic_point(self):
        lhs, rhs, ok = sf.verify_gaussian_multiplicity(2.0, 1.0)
        assert ok and abs(lhs - rhs) < 1e-10

    def test_bad_u(self):
        with pytest.raises(ValueError):
            sf.verify_gaussian_multiplicity(-1.0, 0.0)


def test_tol_is_the_pass_bound(monkeypatch):
    # closed forms off by 1e-6 relative fail at the default tolerance, pass at tol=1e-4
    closed = sf.gaussian_multiplicity_closed_form
    monkeypatch.setattr(sf, "gaussian_multiplicity_closed_form",
                        lambda U, V: closed(U, V) * (1 + 1e-6))
    assert not sf.verify_gaussian_multiplicity(2.0, 1.0)[2]
    assert sf.verify_gaussian_multiplicity(2.0, 1.0, tol=1e-4)[2]
    minus = sf.mellin_fs_minus
    monkeypatch.setattr(sf, "mellin_fs_minus", lambda z, U, V: minus(z, U, V) * (1 + 1e-6))
    assert not sf.verify_mellin_pm(1.5 + 0.5j, 1.3, 0.7)
    assert sf.verify_mellin_pm(1.5 + 0.5j, 1.3, 0.7, tol=1e-4)


def test_quadrature_memory_is_bounded():
    # mpmath caches quadrature nodes per interval; an interval that moved with
    # (U, V) would grow that cache on every call: 560 KB over these 20 calls
    import tracemalloc

    rng = np.random.default_rng(8)

    def draw():
        z = complex(rng.uniform(0.6, 3.0), rng.uniform(-1.5, 1.5))
        return z, float(rng.uniform(0.3, 2.5)), float(rng.uniform(-2.5, 2.5))

    z, U, V = draw()
    assert sf.verify_mellin_pm(z, U, V) and sf.verify_gaussian_multiplicity(U, V)[2]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            z, U, V = draw()
            assert sf.verify_mellin_pm(z, U, V), (z, U, V)
            assert sf.verify_gaussian_multiplicity(U, V)[2], (U, V)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 256 * 1024, grown


class TestMellin:
    def test_z1_collapse_at_origin(self):
        lhs, rhs, ok = sf.verify_mellin_z1(1.0, 0.0)
        assert ok and abs(lhs - math.sqrt(math.pi) / 4) < 1e-12

    def test_z1_generic(self):
        for U, V in ((1.0, 2.0), (0.1, -3.0)):
            lhs, rhs, ok = sf.verify_mellin_z1(U, V)
            assert ok, (U, V, lhs, rhs)

    def test_pm_reduces_to_z1(self):
        assert sf.verify_mellin_pm(1.0, 1.0, 0.7)

    def test_pm_generic(self):
        assert sf.verify_mellin_pm(2.0, 1.0, 1.0)
        assert sf.verify_mellin_pm(1.5 + 0.5j, 0.8, -1.2)

    @pytest.mark.parametrize("re_z", [0.02, 0.1, 0.3, 0.5])
    def test_pm_small_re_z(self, re_z):
        # the endpoint x^(z-1) sharpens as Re z falls to 0
        rng = np.random.default_rng(6)
        for _ in range(5):
            z = complex(re_z, rng.uniform(-1.5, 1.5))
            assert sf.verify_mellin_pm(z, float(rng.uniform(0.3, 2.5)), float(rng.uniform(-2.5, 2.5)))

    def test_pm_needs_positive_re(self):
        with pytest.raises(ValueError):
            sf.verify_mellin_pm(-0.5, 1.0, 0.0)
