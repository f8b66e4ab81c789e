import json
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from specexp import zeta as zt

DATA = Path(zt.__file__).resolve().parent / "data"

# 40-digit reference values, computed with an independent arbitrary-precision
# evaluator before the build and frozen here.
REFERENCE = {
    2: "1.644934066848226436472415166646025189219",
    3: "1.202056903159594285399738161511449990765",
    4: "1.082323233711138191516003696541167902775",
    7: "1.0083492773819228268397975498497967596",
    8: "1.004077356197944339378685238508652465259",
}
# s = 1/2 + 14.134725 i (just off the first zero, so |zeta| ~ 1e-7)
REFERENCE_CRITICAL = complex(
    1.767429841384903914977300014159216191165e-8,
    -1.110202893092311674710850082684420954629e-7,
)


class TestBernoulli:
    def test_small_values(self):
        assert zt.bernoulli_number(0) == 1
        assert zt.bernoulli_number(1) == Fraction(-1, 2)
        assert zt.bernoulli_number(2) == Fraction(1, 6)
        assert zt.bernoulli_number(12) == Fraction(-691, 2730)

    def test_odd_vanish(self):
        assert all(zt.bernoulli_number(n) == 0 for n in (3, 5, 7, 9))


class TestRiemannZeta:
    def test_reference_values(self):
        for s, ref in REFERENCE.items():
            val = zt.riemann_zeta(s)
            assert abs(val - float(mp.mpf(ref))) <= 1e-12 * abs(val)

    def test_critical_point(self):
        val = zt.riemann_zeta(0.5 + 14.134725j)
        assert abs(val - REFERENCE_CRITICAL) <= 1e-12 * abs(REFERENCE_CRITICAL)

    def test_strip_grid_against_oracle(self):
        with mp.workdps(30):
            rng = np.random.default_rng(0)
            for _ in range(25):
                s = complex(rng.uniform(-20, 40), rng.uniform(-50, 50))
                if abs(s - 1) < 0.1:
                    continue
                mine = zt.riemann_zeta(s)
                ref = complex(mp.zeta(s))
                assert abs(mine - ref) <= 1e-12 * abs(ref), s

    def test_pole(self):
        with pytest.raises(zt.PoleError):
            zt.riemann_zeta(1.0)

    def test_functional_equation(self):
        # zeta(s) = chi(s) zeta(1-s) on the strip grid above; chi comes from
        # elementary functions and Gamma, so this does not compare the
        # mpmath zeta with itself
        with mp.workdps(30):
            rng = np.random.default_rng(0)
            for _ in range(25):
                s = complex(rng.uniform(-20, 40), rng.uniform(-50, 50))
                if abs(s - 1) < 0.1:
                    continue
                m = mp.mpc(s)
                chi = mp.power(2, m) * mp.power(mp.pi, m - 1) * mp.sin(mp.pi * m / 2) * mp.gamma(1 - m)
                want = complex(chi) * zt.riemann_zeta(1 - s)
                assert abs(zt.riemann_zeta(s) - want) <= 1e-12 * abs(want), s

    def test_exact_negative_integers(self):
        assert zt.zeta_exact(-1).rat == Fraction(-1, 12)
        assert zt.zeta_exact(0).rat == Fraction(-1, 2)
        assert zt.zeta_exact(-3).rat == Fraction(1, 120)
        assert zt.zeta_exact(-2).rat == 0

    def test_exact_even(self):
        tok = zt.zeta_exact(2)
        assert tok.rat == Fraction(1, 6) and tok.pi_pow == 2
        assert abs(float(tok) - math.pi**2 / 6) < 1e-14


class TestExactToken:
    def test_string_rendering(self):
        tok = zt.ExactToken(Fraction(45, 4), pi_pow=-4, zeta_num=(3,))
        assert str(tok) == "45*zeta(3)/(4*pi^4)"

    def test_cancellation(self):
        a = zt.ExactToken(Fraction(2), zeta_num=(3, 5))
        b = zt.ExactToken(Fraction(4), zeta_num=(5,))
        assert (a / b) == zt.ExactToken(Fraction(1, 2), zeta_num=(3,))

    def test_addition_same_shape(self):
        a = zt.ExactToken(Fraction(1, 3), pi_pow=2)
        b = zt.ExactToken(Fraction(1, 6), pi_pow=2)
        assert (a + b).rat == Fraction(1, 2)
        with pytest.raises(ValueError):
            a + zt.ExactToken(Fraction(1))

    def test_products_with_float_complex_and_fraction(self):
        tok = zt.ExactToken(Fraction(3, 2), pi_pow=-2)
        for x in (0.5, 1j, 0.25 - 3j):
            assert tok * x == x * tok == float(tok) * x
        assert type(tok * 0.5) is float and type(1j * tok) is complex
        half = Fraction(1, 2)
        assert tok * half == half * tok == zt.ExactToken(Fraction(3, 4), pi_pow=-2)

    def test_float_is_correctly_rounded(self):
        # a 50-digit evaluation of the whole product, rounded to a double once
        def rounded_once(tok):
            with mp.workdps(50):
                val = mp.mpf(tok.rat.numerator) / tok.rat.denominator
                val *= mp.pi**tok.pi_pow
                for n in tok.zeta_num:
                    val *= mp.zeta(n)
                for n in tok.zeta_den:
                    val /= mp.zeta(n)
                return float(val)

        tokens = [zt.zeta_exact(n) for n in range(-30, 40) if n != 1]
        tokens += [zt.ford_zeta_exact(n) for n in [0, *range(2, 30)]]
        assert len(tokens) == 98
        for tok in tokens:
            assert float(tok) == rounded_once(tok), tok


class TestFordZeta:
    def test_value_at_zero(self):
        assert zt.ford_zeta_exact(0) == zt.ExactToken(Fraction(1, 6))

    def test_value_at_two(self):
        tok = zt.ford_zeta_exact(2)
        assert tok == zt.ExactToken(Fraction(45, 2), pi_pow=-4, zeta_num=(3,))
        assert abs(zt.ford_zeta(2.0) - float(tok)) < 1e-13

    def test_half_value_at_four(self):
        tok = zt.ford_zeta_exact(4) / Fraction(2)
        assert tok == zt.ExactToken(Fraction(4725, 16), pi_pow=-8, zeta_num=(7,))

    def test_pole_layout(self):
        with pytest.raises(zt.PoleError):
            zt.ford_zeta_exact(1)
        with pytest.raises(zt.PoleError):
            zt.ford_zeta(1.0)
        with pytest.raises(zt.PoleError):
            zt.ford_zeta_exact(-1)

    def test_residue_at_one_four_directions(self):
        target = float(zt.ExactToken(Fraction(3, 2), pi_pow=-2))
        eps = 1e-5
        for d in (eps, -eps, eps * 1j, (1 + 1j) * eps / abs(1 + 1j)):
            s = 1 + d
            assert abs((s - 1) * zt.ford_zeta(s) - target) < 1e-4


class TestStrings:
    def test_truncated_sum(self):
        s = zt.TruncatedString([(1, 1), (Fraction(1, 2), 1)])
        assert s.zeta(2) == Fraction(5, 4)

    def test_empty_string(self):
        assert zt.TruncatedString([]).zeta(2) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            zt.TruncatedString([(0, 1)])
        with pytest.raises(ValueError):
            zt.TruncatedString([(1, 0)])

    @pytest.mark.parametrize(
        "radii, mults",
        [([0.5], [-1.0]), ([math.nan], [1.0]), ([0.5], [math.inf]), ([0.5], [0.5])],
        ids=["negative-mult", "nan-radius", "inf-mult", "fractional-mult"],
    )
    def test_array_validation(self, radii, mults):
        # both constructors reject the same inputs
        with pytest.raises(ValueError):
            zt.TruncatedString.from_arrays(np.array(radii), np.array(mults))
        with pytest.raises(ValueError):
            zt.TruncatedString(list(zip(radii, mults)))

    def test_truncated_is_entire(self):
        s = zt.TruncatedString([(1, 1), (Fraction(1, 2), 1)])
        assert zt.string_poles(s) == []

    def test_totient_sieve(self):
        phi = zt.euler_totient_sieve(12)
        assert list(phi[1:13]) == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
        phi = zt.euler_totient_sieve(2000)
        assert phi[0] == 0
        for n in range(1, 2001):
            assert phi[n] == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1), n
        for n_max in (0, 1, 2, 3, 4):
            assert list(zt.euler_totient_sieve(n_max)) == list(phi[: n_max + 1])
        assert phi.dtype == np.int32

    def test_totient_sieve_gauss_identity(self):
        # sum over d | n of phi(d) = n, accumulated by slices for every n <= N
        n_max = 200_000
        phi = zt.euler_totient_sieve(n_max)
        divisor_sums = np.zeros(n_max + 1, dtype=np.int64)
        for d in range(1, n_max + 1):
            divisor_sums[d::d] += phi[d]
        assert np.array_equal(divisor_sums, np.arange(n_max + 1))

    def test_totient_sieve_against_trial_division(self):
        def phi_by_trial_division(n):
            result, rest, p = n, n, 2
            while p * p <= rest:
                if rest % p == 0:
                    while rest % p == 0:
                        rest //= p
                    result -= result // p
                p += 1
            return result - result // rest if rest > 1 else result

        n_max = 1_000_000
        phi = zt.euler_totient_sieve(n_max)
        rng = np.random.default_rng(13)
        # primes above sqrt(n_max), twice such a prime, and prime powers
        special = [999_983, 1_009, 2 * 499_979, 3 * 333_331, 997**2, 2**19, 3**12, 5**8, n_max]
        for n in special + rng.integers(1, n_max + 1, 300).tolist():
            assert phi[n] == phi_by_trial_division(n), n

    def test_negative_n_max_is_rejected(self):
        for build in (zt.euler_totient_sieve, zt.ford_prefix_string):
            with pytest.raises(ValueError, match="n_max"):
                build(-1)

    @staticmethod
    def ford_terms(n_max, arg):
        """The whole-array float64 terms phi(n) * (1/(2n^2))**arg, n <= n_max."""
        mults = zt.euler_totient_sieve(n_max)[1:].astype(float)
        radii = 1.0 / (2.0 * np.arange(1, n_max + 1, dtype=float) ** 2)
        if isinstance(arg, complex):
            return mults * np.exp(arg * np.log(radii))
        return mults * radii**arg

    def test_array_sum_real_s_correctly_rounded(self):
        # the same float64 terms m * r**s, summed exactly and rounded once
        s = zt.ford_prefix_string(2000)
        for arg in (2.0, 2.5, 4.0):
            terms = self.ford_terms(2000, arg)
            assert s.zeta(arg) == float(sum(Fraction(t) for t in terms)), arg

    def test_ford_prefix_sum_equals_fsum(self):
        rng = np.random.default_rng(5)
        block = zt._TERM_BLOCK
        for n_max in rng.integers(300_000, 500_001, 2).tolist() + [block - 1, block, block + 1, 1]:
            s = zt.ford_prefix_string(n_max)
            for arg in (2.0, 2.5, 4.0):
                assert s.zeta(arg) == math.fsum(self.ford_terms(n_max, arg)), (n_max, arg)
            # at non-real s each component of the terms is summed exactly
            terms = self.ford_terms(n_max, 0.5 + 3j)
            assert s.zeta(0.5 + 3j) == complex(math.fsum(terms.real), math.fsum(terms.imag))

    def test_array_string_blocks_match_whole_arrays(self):
        rng = np.random.default_rng(8)
        n = 2 * zt._TERM_BLOCK + 5
        radii, mults = rng.random(n) + 0.25, rng.integers(1, 9, n).astype(float)
        s = zt.TruncatedString.from_arrays(radii, mults)
        assert repr(s) == f"TruncatedString(<{n} radii>)"
        assert s.zeta(-2.0 + 0j) == math.fsum(mults * radii**-2.0)
        terms = mults * np.exp((1 - 2j) * np.log(radii))
        assert s.zeta(1 - 2j) == complex(math.fsum(terms.real), math.fsum(terms.imag))
        # only the last block's term overflows; the sum restarts as math.fsum
        radii[-1] = 1e-200
        with np.errstate(over="ignore"):
            assert zt.TruncatedString.from_arrays(radii, mults).zeta(-2.0) == math.inf

    def test_ford_prefix_non_finite_sums_as_fsum(self):
        s = zt.ford_prefix_string(1000)
        with np.errstate(over="ignore"):  # the terms overflow on purpose
            assert s.zeta(-200.0) == math.inf
            assert math.isnan(s.zeta(math.nan))
            with pytest.raises(OverflowError):
                s.zeta(-60.0)

    def test_ford_prefix_memory_is_bounded_by_the_block(self):
        import tracemalloc

        zt.ford_prefix_string(1000).zeta(2.0)  # load numpy
        tracemalloc.start()
        try:
            s = zt.ford_prefix_string(500_000)
            s.zeta(2.0)
            s.zeta(4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # float64 radii and multiplicities, and whole-array terms, peak at 14.5 MB
        assert peak < 6e6, peak

    def test_ford_prefix_converges_within_tail_bound(self):
        # At s = 4 the tail bound (~1.6e-34) is far below half an ulp of the
        # value, so the first assertion is a last-bit check: the prefix sum
        # and float(ford_zeta_exact(4)) must both be correctly rounded.
        n_max = 200_000
        s = zt.ford_prefix_string(n_max)
        for arg in (2.0, 4.0):
            exact = float(zt.ford_zeta_exact(int(arg)))
            diff = abs(s.zeta(arg) - exact)
            # phi(n) <= n gives tail <= 2^-s int_N^inf x^(1-2s) dx
            bound = 2.0 ** (-arg) * n_max ** (2 - 2 * arg) / (2 * arg - 2)
            assert diff <= bound
            assert diff / exact < 1e-6

    def test_analytic_table_filter(self):
        poles = [
            zt.PoleTerm(0.5 + 3j, 1.0 + 0j),
            zt.PoleTerm(2.0 + 0j, -1.0 + 0j),
        ]
        s = zt.AnalyticString(lambda z: 0j, poles)
        got = zt.string_poles(s, ((0.0, 1.0), (-5.0, 5.0)))
        assert got == [poles[0]]

    def test_product_factorization_exact(self):
        # truncated-string x truncated-spectrum double sum factors exactly
        radii = [(Fraction(1, 2), 1), (Fraction(1, 3), 2)]
        s_int = -2
        string_zeta = zt.TruncatedString(radii).zeta(s_int)
        ks = range(2, 30)
        spec = sum(
            Fraction(4, 3) * (k**3 - k) * Fraction(k) ** (-s_int) for k in ks
        )
        double = sum(
            Fraction(m) * Fraction(r) ** s_int
            * Fraction(4, 3) * (k**3 - k) * Fraction(k) ** (-s_int)
            for r, m in radii
            for k in ks
        )
        assert string_zeta * spec == double


class TestExactSum:
    @staticmethod
    def exact(terms):
        return float(sum(map(Fraction, terms.tolist()), Fraction(0)))

    @staticmethod
    def summed(terms):
        return zt._exact_sum(lambda: [terms])

    @pytest.mark.parametrize("n", [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 7])
    def test_block_boundaries(self, n):
        rng = np.random.default_rng(n)
        terms = rng.standard_normal(n) * np.exp2(rng.integers(-60, 61, n))
        assert self.summed(terms) == self.exact(terms)

    def test_cancellation(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5000) * np.exp2(rng.integers(-300, 300, 5000))
        to_zero = rng.permutation(np.concatenate([x, -x]))
        assert self.summed(to_zero) == self.exact(to_zero) == 0.0
        tiny = 3 * 2.0**-1074
        to_subnormal = rng.permutation(np.concatenate([x, -x, [tiny, 1e300, -1e300]]))
        assert self.summed(to_subnormal) == self.exact(to_subnormal) == tiny

    def test_full_exponent_range(self):
        rng = np.random.default_rng(4)
        mags = np.ldexp(rng.random(4000) + 0.5, rng.integers(-1074, 1000, 4000))
        terms = np.concatenate([mags, [2.0**-1074, 2.0**1000]]) * rng.choice([-1.0, 1.0], 4002)
        assert self.summed(terms) == self.exact(terms)

    def test_ties_round_to_even(self):
        # 1 + 2^-53 lies halfway between 1 and its successor; so does
        # (1 + 2^-52) + 2^-53 between its neighbours, and the even one is above
        down = np.array([1.0, 2.0**-53])
        up = np.array([1.0 + 2.0**-52, 2.0**-53])
        assert self.summed(down) == self.exact(down) == 1.0
        assert self.summed(up) == self.exact(up) == 1.0 + 2.0**-51
        # 2^-200 in the next block breaks the first tie: rounding per block
        # would lose it and return 1
        spread = np.zeros(3 * 2**16 + 7)
        spread[[0, 2**16, 2**16 + 5]] = 1.0, 2.0**-53, 2.0**-200
        assert self.summed(spread) == self.exact(spread) == 1.0 + 2.0**-52

    def test_non_finite_and_overflow_as_fsum(self):
        inf = np.array([1.0, math.inf])
        assert self.summed(inf) == math.fsum(inf) == math.inf
        assert math.isnan(self.summed(np.array([math.nan, 1.0])))
        for terms, error in (
            (np.array([-math.inf, math.inf]), ValueError),
            (np.array([1e308, 1e308]), OverflowError),
        ):
            with pytest.raises(error):
                math.fsum(terms)
            with pytest.raises(error):
                self.summed(terms)


class TestPoleTables:
    def test_zero_ordinates_verified(self):
        zeros = zt.zero_ordinates()
        assert len(zeros) == 25
        assert abs(zeros[0] - 14.134725141734694) < 1e-12

    def test_ford_pole_at_one(self):
        poles = zt.string_poles(zt.FordString(), ((0.9, 1.1), (-0.1, 0.1)))
        assert len(poles) == 1
        assert abs(poles[0].residue - 3 / (2 * math.pi**2)) < 1e-12

    def test_trivial_zero_residues(self):
        # residue at s=-k is 2^(k-1) zeta(-2k-1)/zeta'(-2k); the closed form of
        # zeta'(-2k) gives an independent cross-check
        for k in (1, 2):
            (p,) = zt.string_poles(
                zt.FordString(), ((-k - 0.1, -k + 0.1), (-0.1, 0.1))
            )
            zprime = (
                (-1) ** k
                * math.factorial(2 * k)
                * float(mp.zeta(2 * k + 1))
                / (2.0 * (2 * math.pi) ** (2 * k))
            )
            want = 2**k * zt.riemann_zeta(-2 * k - 1).real / (2 * zprime)
            assert abs(p.residue - want) < 1e-6 * abs(want)

    def test_nontrivial_zero_pole(self):
        g1 = zt.zero_ordinates()[0]
        poles = zt.string_poles(zt.FordString(), ((0.2, 0.3), (7.0, 7.1)))
        assert len(poles) == 1
        assert abs(poles[0].sigma - complex(0.25, g1 / 2)) < 1e-9

    def test_nontrivial_zero_residues_by_limit(self):
        # (s - sigma) ford_zeta(s) at s = sigma + eps, Richardson-extrapolated
        # over eps = 1e-4 and 5e-5 to cancel the O(eps) term
        poles = zt.string_poles(zt.FordString(), ((0.2, 0.3), (0.0, 13.0)))
        assert len(poles) == 3
        for p in poles:
            g = [eps * zt.ford_zeta(p.sigma + eps) for eps in (1e-4, 5e-5)]
            limit = 2 * g[1] - g[0]
            assert abs(p.residue - limit) < 1e-7 * abs(limit), p.sigma

    def test_conjugate_pole_residues(self):
        # the lower member of each pair reuses the upper one's residue; it
        # must agree with the residue formula evaluated at the lower member
        for g in zt.zero_ordinates():
            upper = complex(0.25, g / 2)
            lower = upper.conjugate()
            res = zt._ford_pole(lower).residue
            assert res == zt._ford_pole(upper).residue.conjugate()
            direct = 2**-lower * zt.riemann_zeta(2 * lower - 1) / (
                2 * zt.zeta_derivative(2 * lower)
            )
            assert abs(res - direct) <= 1e-15 * abs(direct), g

    def test_bundled_ordinates_bracketed_by_siegelz(self):
        with mp.workdps(30):
            for g in zt.zero_ordinates():
                lo, hi = mp.siegelz(g - 0.05), mp.siegelz(g + 0.05)
                assert (lo < 0) != (hi < 0), g

    def test_bundled_residues_equal_double_formula(self):
        # the table holds the repr of the double this formula returns
        table = zt._pole_table()
        for g in zt.zero_ordinates():
            sigma = complex(0.25, g / 2)
            rho = 2 * sigma
            want = 2 ** (-sigma) * zt.riemann_zeta(rho - 1) / (2 * zt.zeta_derivative(rho))
            assert table[g] == want, g
            assert zt._ford_pole(sigma).residue == want, g

    def test_bundled_residues_match_40_digits(self):
        texts = (DATA / "zeta_zeros.txt").read_text().split()
        table = zt._pole_table()
        with mp.workdps(40):
            for text, g in zip(texts, zt.zero_ordinates()):
                rho = mp.mpc(mp.mpf(1) / 2, mp.mpf(text))
                want = mp.power(2, -rho / 2) * mp.zeta(rho - 1) / (2 * mp.zeta(rho, derivative=1))
                assert abs(table[g] - complex(want)) <= 1e-13 * abs(complex(want)), g

    def test_checker_passes_every_row(self):
        assert zt.check_pole_table() == 0.0

    def test_corrupted_ordinate_fails_bracket(self, monkeypatch):
        good = zt._pole_table()
        bad = {(g + 0.2 if i == 0 else g): res for i, (g, res) in enumerate(good.items())}
        monkeypatch.setattr(zt, "_pole_table", lambda: bad)
        with pytest.raises(RuntimeError, match="failed sign bracketing"):
            zt.check_pole_table()

    def test_corrupted_residue_fails_check(self, monkeypatch):
        good = zt._pole_table()
        g5 = zt.zero_ordinates()[5]
        bad = {g: res * (1 + 1e-12) if g == g5 else res for g, res in good.items()}
        monkeypatch.setattr(zt, "_pole_table", lambda: bad)
        assert zt.check_pole_table([4, 6]) == 0.0
        with pytest.raises(zt.PoleTableError, match="Ford residue"):
            zt.check_pole_table([5])

    @pytest.mark.parametrize("corrupt", ["short", "unordered", "residue-rows", "text"])
    def test_malformed_table_is_typed_error(self, monkeypatch, corrupt):
        files = {name: (DATA / name).read_text()
                 for name in ("zeta_zeros.txt", "ford_residues.txt")}
        zeros = files["zeta_zeros.txt"].split()
        if corrupt == "short":
            files["zeta_zeros.txt"] = "\n".join(zeros[:-1])
        elif corrupt == "unordered":
            files["zeta_zeros.txt"] = "\n".join([zeros[1], zeros[0]] + zeros[2:])
        elif corrupt == "residue-rows":
            files["ford_residues.txt"] = files["ford_residues.txt"].rsplit("\n", 2)[0]
        else:
            files["ford_residues.txt"] += "x y z\n"

        class Data:
            def joinpath(self, name):
                return self if name == "data" else SimpleNamespace(read_text=lambda: files[name])

        monkeypatch.setattr(zt, "resources", SimpleNamespace(files=lambda pkg: Data()))
        zt._pole_table.cache_clear()
        try:
            with pytest.raises(zt.PoleTableError):
                zt.zero_ordinates()
        finally:
            monkeypatch.undo()
            zt._pole_table.cache_clear()
        assert len(zt.zero_ordinates()) == 25

    def test_cold_ford_expansions_need_no_zeta_derivative(self, monkeypatch):
        # the run-time path reads the bundled table: no bracketing, no zeta'
        from specexp import pscc

        def boom(*args, **kwargs):
            raise AssertionError("re-derived the pole table at run time")

        zt._pole_table.cache_clear()
        zt._ford_pole.cache_clear()
        monkeypatch.setattr(mp, "siegelz", boom)
        monkeypatch.setattr(zt, "zeta_derivative", boom)
        s4 = pscc.S4Geometry()
        rows = pscc.spectral_action(zt.FordString(), pscc.gaussian_test_function(), 10.0, 2, s4)
        assert sum(r.kind == "pole" for r in rows) == 26
        rows = pscc.round_heat_expansion(zt.FordString(), 2, s4)
        assert sum(r.kind == "pole" for r in rows) == 51

    def test_zero_file_splits_into_25_floats(self):
        # perfbench/workloads.py reads the ordinates as whitespace-split floats
        zeros = [float(x) for x in (DATA / "zeta_zeros.txt").read_text().split()]
        assert tuple(zeros) == zt.zero_ordinates() and len(zeros) == 25


class TestDiracZeta:
    def test_value_at_zero(self):
        assert zt.dirac_zeta_s4_exact(0).rat == Fraction(11, 90)
        assert abs(zt.dirac_zeta_s4(0j) - 11 / 90) < 1e-13

    def test_value_at_one(self):
        assert zt.dirac_zeta_s4_exact(1).rat == Fraction(2, 3)

    def test_radius_scaling(self):
        s = 1.3 + 0.4j
        lhs = zt.dirac_zeta_s4(s, 2.5)
        rhs = 2.5**s * zt.dirac_zeta_s4(s, 1.0)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_poles(self):
        for s in (2, 4):
            with pytest.raises(zt.PoleError):
                zt.dirac_zeta_s4(float(s))
            with pytest.raises(zt.PoleError):
                zt.dirac_zeta_s4_exact(s)


class TestDescriptors:
    def test_truncated_round_trip(self, tmp_path):
        obj = {"variant": "truncated", "radii": [[1, 1], ["1/2", 3]]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(obj))
        s = zt.load_string(str(path))
        assert isinstance(s, zt.TruncatedString)
        assert s.zeta(1) == 1 + Fraction(3, 2)

    def test_ford_descriptor(self):
        s = zt.string_from_json({"variant": "ford"})
        assert isinstance(s, zt.FordString)

    def test_analytic_descriptor(self):
        obj = {
            "variant": "analytic",
            "radii": [[1.0, 1]],
            "poles": [[0.5, 3.0, 1.0, 0.0]],
        }
        s = zt.string_from_json(obj)
        assert isinstance(s, zt.AnalyticString)
        assert len(s.pole_table) == 1

    def test_analytic_radii_read_fractions_like_truncated(self):
        radii = [["1/2", 3], [1, 1]]
        analytic = zt.string_from_json({"variant": "analytic", "radii": radii})
        truncated = zt.string_from_json({"variant": "truncated", "radii": radii})
        for s in (2, 0.5 + 3j):
            assert analytic.zeta(complex(s)) == truncated.zeta(complex(s))

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            zt.string_from_json({"variant": "nope"})

    @pytest.mark.parametrize("obj", [
        {"variant": "truncated", "radii": 5},
        [1, 2],
        {"variant": "analytic", "poles": [[0.5, 0, 1, 0]], "radii": 3},
        {"variant": "truncated", "radii": [[math.nan, 1]]},
        {"variant": "truncated", "radii": [[0.5, 2.5]]},
        {"variant": "truncated", "radii": [[0.5, "5/2"]]},
        {"variant": "analytic", "poles": [[0.5, math.inf, 1, 0]]},
        {"variant": "truncated", "radii": [[True, True]]},
        {"variant": "analytic", "poles": [[0.5, False, 1, 0]], "radii": [[1, 1]]},
    ], ids=["radii-not-a-list", "not-an-object", "analytic-radii-not-a-list",
            "nan-radius", "fractional-mult", "fractional-string-mult", "inf-pole",
            "bool-radius", "bool-pole"])
    def test_malformed_descriptor_is_value_error(self, obj):
        with pytest.raises(ValueError):
            zt.string_from_json(obj)
