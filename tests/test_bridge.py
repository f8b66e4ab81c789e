import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from specexp import bridge
from specexp import expansion as ex


def pairing_integral(n):
    """Bridge moment of alpha(v_1)...alpha(v_2n) on the ordered simplex: the
    sum over the (2n-1)!! pairings of the covariances v_i(1 - v_j), i < j.
    The oracle of ``monomial_bridge_polynomial`` at all-ones exponents."""
    total = bridge.VPoly.zero()
    for pairing in bridge._pairings(tuple(range(1, 2 * n + 1))):
        term = bridge.VPoly.one()
        for i, j in pairing:
            vi = bridge.VPoly.var(i)
            term = term * (vi - vi * bridge.VPoly.var(j))
        total = total + term
    return total


class TestSimplexIntegrals:
    def test_area(self):
        assert bridge.simplex_monomial_integral((0, 0)) == Fraction(1, 2)

    def test_pair(self):
        # direct iterated integration: int_0^1 int_0^{v2} v1 v2 = 1/8
        assert bridge.simplex_monomial_integral((1, 1)) == Fraction(1, 8)

    def test_three_vars(self):
        assert bridge.simplex_monomial_integral((1, 0, 1)) == Fraction(1, 30)

    def test_linear_monomials_special_case(self):
        # 0/1 exponent vectors against the product formula, all subsets of {1..5}
        n = 5
        for k in range(0, n + 1):
            for sub in itertools.combinations(range(1, n + 1), k):
                e = tuple(1 if j in sub else 0 for j in range(1, n + 1))
                num = 1
                for pos, j in enumerate(sorted(sub)):
                    num *= j + pos
                assert bridge.simplex_monomial_integral(e) == Fraction(
                    num, math.factorial(n + k)
                )

    def test_simplex_integrate(self):
        v1, v2 = bridge.VPoly.var(1), bridge.VPoly.var(2)
        assert bridge.simplex_integrate(v1 - v1 * v2, 2) == Fraction(1, 24)
        assert bridge.simplex_integrate(bridge.VPoly.one(), 3) == Fraction(1, 6)
        assert bridge.simplex_integrate(v1, 1) == Fraction(1, 2)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            bridge.simplex_integrate(bridge.VPoly.var(3), 2)


class TestPairings:
    def test_n1(self):
        v1, v2 = bridge.VPoly.var(1), bridge.VPoly.var(2)
        assert pairing_integral(1) == v1 - v1 * v2

    def test_n2_three_pairings(self):
        v = [bridge.VPoly.var(i) for i in range(1, 5)]

        def cov(i, j):
            return v[i - 1] - v[i - 1] * v[j - 1]

        want = (
            cov(1, 2) * cov(3, 4) + cov(1, 3) * cov(2, 4) + cov(1, 4) * cov(2, 3)
        )
        assert pairing_integral(2) == want

    def test_count_is_double_factorial(self):
        assert len(list(bridge._pairings(tuple(range(1, 7))))) == 15


class TestBridgeMoments:
    def test_variance_polynomial(self):
        v1 = bridge.VPoly.var(1)
        assert bridge.monomial_bridge_polynomial((2,)) == v1 - v1 * v1

    def test_cross_matches_pairing(self):
        assert bridge.monomial_bridge_polynomial((1, 1)) == pairing_integral(1)

    def test_odd_vanishes(self):
        assert bridge.monomial_bridge_polynomial((1,)).terms == {}

    def test_all_ones_match_pairings(self):
        for n in (1, 2, 3, 4):
            assert bridge.monomial_bridge_polynomial((1,) * (2 * n)) == (
                pairing_integral(n)
            )

    def test_direct_integrals(self):
        assert bridge.monomial_simplex_integral((2,)) == Fraction(1, 6)
        assert bridge.monomial_simplex_integral((1, 1)) == Fraction(1, 24)
        assert bridge.monomial_simplex_integral((1, 1, 1)) == 0

    def test_route_equivalence_all_words_up_to_weight_8(self):
        # every word with positive letters summing to <= 8 (255 words)
        def words(budget):
            yield ()
            for first in range(1, budget + 1):
                for rest in words(budget - first):
                    yield (first,) + rest

        count = 0
        for word in words(8):
            if not word:
                continue
            lhs = bridge.simplex_integrate(
                bridge.monomial_bridge_polynomial(word), len(word)
            )
            assert lhs == bridge.monomial_simplex_integral(word), word
            count += 1
        assert count == 255

    def test_route_equivalence_with_zero_exponents(self):
        for word in ((0, 2), (2, 0, 2), (0, 0), (1, 0, 1)):
            lhs = bridge.simplex_integrate(
                bridge.monomial_bridge_polynomial(word), len(word)
            )
            assert lhs == bridge.monomial_simplex_integral(word)


class TestShuffle:
    def test_two_letters(self):
        assert bridge.shuffle((1,), (2,)) == {(1, 2): 1, (2, 1): 1}

    def test_coinciding_interleavings(self):
        assert bridge.shuffle((1, 1), (1,)) == {(1, 1, 1): 3}

    def test_mass_is_binomial(self):
        for w1, w2 in (((1, 2), (3, 4)), ((1, 1, 2), (2, 1)), ((5,), (1, 2, 3))):
            total = sum(bridge.shuffle(w1, w2).values())
            assert total == math.comb(len(w1) + len(w2), len(w1))

    def test_multi(self):
        combo = bridge.shuffle_multi([(1, 1), (2,), (3,)])
        assert sum(combo.values()) == math.factorial(4) // math.factorial(2)


def _quadrature_word_integral(word, n_pts=2**21, seed=5):
    """Monte-Carlo-on-simplex oracle for the VPoly route."""
    poly = bridge.monomial_bridge_polynomial(word)
    rng = np.random.default_rng(seed)
    n = len(word)
    pts = np.sort(rng.random((n_pts, n)), axis=1)
    vals = np.zeros(n_pts)
    for mono, c in poly.terms.items():
        term = np.full(n_pts, float(c))
        for i, e in enumerate(mono):
            if e:
                term = term * pts[:, i] ** e
        vals += term
    return float(vals.mean()) / math.factorial(n)


class TestWordIntegrals:
    def test_basic(self):
        assert bridge.word_integral((1, 1)) == Fraction(1, 24)
        assert bridge.word_integral((2,)) == Fraction(1, 6)
        assert bridge.word_integral(()) == 1

    def test_31_against_quadrature(self):
        exact = float(bridge.word_integral((3, 1)))
        approx = _quadrature_word_integral((3, 1))
        assert abs(exact - approx) < 5e-4  # MC oracle; exact route is separately exact

    def test_word_integral_linear_on_sums(self):
        combo = bridge.shuffle((1,), (1,))
        assert bridge.word_integral(combo) == 2 * bridge.word_integral((1, 1))


class TestMomentProduct:
    def test_x1_squared(self):
        assert bridge.moment_product({1: 2}) == Fraction(1, 12)

    def test_x2(self):
        assert bridge.moment_product({2: 1}) == Fraction(1, 6)

    def test_odd_zero(self):
        assert bridge.moment_product({1: 1}) == 0

    def test_gaussian_fourth_moment(self):
        # x_1 is Gaussian with variance 1/12, so E x_1^4 = 3 (1/12)^2 = 1/48
        assert bridge.moment_product({1: 4}) == Fraction(1, 48)

    def test_x2_squared_hand_value(self):
        # E[x_2^2] = int int s(1-s)t(1-t) + 2 (s(1-t))^2 = 1/36 + 4/180 = 1/20
        assert bridge.moment_product({2: 2}) == Fraction(1, 20)

    def test_key_order_irrelevant(self):
        specs = [{1: 2, 3: 1, 2: 1}, {3: 1, 2: 1, 1: 2}, {2: 1, 1: 2, 3: 1}]
        vals = {bridge.moment_product(s) for s in specs}
        assert len(vals) == 1

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            bridge.moment_product({0: 2})
        with pytest.raises(ValueError):
            bridge.moment_product({2: 0})


def _a2m_moment_specs(max_m):
    """Distinct letter multisets that a2M(0..max_m) integrates."""
    cells = [(ex.R_MAIN, 0, 0)]
    for M in range(1, max_m + 1):
        cells += [(ex.R_MAIN, 0, 2 * M), (ex.R_PLUS, 2, 2 * M - 2), (ex.R_MINUS, 0, 2 * M - 2)]
    specs = set()
    for r, m, order in cells:
        for term in ex.crm_direct(r, m, order):
            if term.letters:
                specs.add(tuple(sorted(Counter(term.letters).items())))
    return sorted(specs)


def _shuffle_route(spec, integral):
    """m_1!...m_r! times ``integral`` over the shuffle product of the blocks."""
    combo = bridge.shuffle_multi([(i,) * m for i, m in spec])
    total = sum((c * integral(w) for w, c in combo.items()), Fraction(0))
    for _, m in spec:
        total *= math.factorial(m)
    return total


class TestWickProgram:
    @pytest.mark.parametrize("max_m, count", [
        (4, 40), pytest.param(5, 82, marks=pytest.mark.slow),
    ], ids=["a8", "a10"])
    def test_a8_specs_match_polynomial_route(self, max_m, count):
        # the polynomial route sums the pairings by Isserlis' recursion and is
        # the one oracle that shares no code with the Wick recursion
        specs = [s for s in _a2m_moment_specs(max_m) if sum(i * m for i, m in s) % 2 == 0]
        assert len(specs) == count
        for spec in specs:
            total = _shuffle_route(spec, lambda w: bridge.simplex_integrate(
                bridge.monomial_bridge_polynomial(w), len(w)))
            assert bridge.moment_product(dict(spec)) == total, spec

    def test_multiset_program_matches_word_program_on_a10_specs(self):
        # moment_product lets any letter take the top point; the word route
        # forces the order and sums over the shuffle product of the blocks
        # instead.  Both run the same recursion, so this checks the multiset
        # moves against the forced ones, not the kernel.
        specs = _a2m_moment_specs(5)
        assert len(specs) > 40
        for spec in specs:
            total = _shuffle_route(spec, bridge.monomial_simplex_integral)
            assert bridge.moment_product(dict(spec)) == total, spec


class TestX1EvenMoment:
    def test_values(self):
        assert bridge.x1_even_moment(0) == 1
        assert bridge.x1_even_moment(1) == Fraction(1, 12)

    def test_matches_shuffle_route(self):
        for n in (1, 2, 3):
            assert bridge.x1_even_moment(n) == bridge.moment_product({1: 2 * n})

    def test_gaussian_moments(self):
        # sigma^2 = 1/12: E x^(2n) = (2n-1)!! sigma^(2n)
        for n in (1, 2, 3):
            dfact = math.prod(range(2 * n - 1, 0, -2))
            assert bridge.x1_even_moment(n) == Fraction(dfact, 12**n)


class TestMonteCarlo:
    def test_size_guards(self):
        with pytest.raises(ValueError):
            bridge.mc_estimate({1: 2}, 10, 1024, 0)
        with pytest.raises(ValueError):
            bridge.mc_estimate({1: 2}, 5000, 8, 0)
        for seed in (-1, 2**64):  # a Philox key word is 64 bits, unsigned
            with pytest.raises(ValueError, match="seed"):
                bridge.mc_estimate({1: 2}, 5000, 64, seed)

    def test_seed_keeps_every_key_bit(self):
        top = [bridge.mc_estimate({1: 2}, 1000, 64, 2**63 + j) for j in (0, 1)]
        assert top[0] != top[1]

    def test_variance_estimate(self):
        est, se = bridge.mc_estimate({1: 2}, 50_000, 128, seed=11)
        assert abs(est - 1.0 / 12.0) <= 4 * se

    def test_worker_count_invariance(self):
        a = bridge.mc_estimate({2: 1}, 20_000, 64, seed=3, n_workers=1)
        b = bridge.mc_estimate({2: 1}, 20_000, 64, seed=3, n_workers=3)
        assert a == b

    def test_many_specs_equal_one_spec_calls(self):
        specs = [{1: 2, 3: 1}, {2: 1, 4: 1}]
        many = bridge.mc_estimate_many(specs, 20_000, 64, seed=7, n_workers=2)
        assert many == [bridge.mc_estimate(s, 20_000, 64, seed=7) for s in specs]

    def test_odd_functional_near_zero(self):
        est, se = bridge.mc_estimate({1: 1}, 50_000, 128, seed=4)
        assert abs(est) <= 4 * se


def _whole_chunk_sums(keys, n_grid, seed, chunk_index, todo):
    """The chunk kernel with the whole chunk as one (todo, n_grid) array."""
    dt = 1.0 / n_grid
    rng = np.random.Generator(np.random.Philox(key=[seed, chunk_index]))
    alpha = rng.standard_normal((todo, n_grid))
    alpha *= np.sqrt(dt)
    np.cumsum(alpha, axis=1, out=alpha)
    alpha -= np.linspace(0.0, 1.0, n_grid + 1)[1:] * alpha[:, -1:]
    out = []
    for key in keys:
        vals = np.ones(todo)
        power, alpha_k = 1, alpha
        for letter, mult in key:
            for _ in range(power, letter):
                alpha_k = alpha * alpha if alpha_k is alpha else alpha_k * alpha
            power = letter
            vals *= (alpha_k[:, :-1].sum(axis=1) * dt) ** mult
        out.append((float(vals.sum()), float((vals**2).sum())))
    return out


class TestBlockedChunkKernel:
    SPECS = [{1: 2}, {1: 2, 3: 1}, {2: 1, 4: 1}, {1: 1, 2: 1, 3: 1}, {4: 2}]

    @pytest.mark.parametrize("n_grid", [64, 100, 256])
    @pytest.mark.parametrize(
        "todo", [2 * bridge._MC_BLOCK, 2 * bridge._MC_BLOCK + 77, bridge._MC_BLOCK - 56]
    )
    def test_chunk_bit_identical_to_whole_chunk(self, todo, n_grid):
        keys = [bridge._normalize_spec(s) for s in self.SPECS]
        assert bridge._mc_chunk_sums(keys, n_grid, 5, 3, todo) == _whole_chunk_sums(
            keys, n_grid, 5, 3, todo
        )

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_estimates_bit_identical_to_whole_chunks(self, monkeypatch, n_workers):
        n_paths = bridge._MC_CHUNK + 3 * bridge._MC_BLOCK + 40
        blocked = bridge.mc_estimate_many(self.SPECS, n_paths, 100, 9, n_workers)
        monkeypatch.setattr(bridge, "_mc_chunk_sums", _whole_chunk_sums)
        assert blocked == bridge.mc_estimate_many(self.SPECS, n_paths, 100, 9, n_workers)

    def test_chunk_memory_is_bounded_by_the_block(self):
        import tracemalloc

        keys = [bridge._normalize_spec(s) for s in ({1: 2, 3: 1}, {2: 1, 4: 1})]
        bridge._mc_chunk_sums(keys, 256, 0, 0, 1000)  # load numpy and its generators
        tracemalloc.start()
        try:
            bridge._mc_chunk_sums(keys, 256, 0, 0, bridge._MC_CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a whole 8192 x 256 chunk peaks at about 33 MB
        assert peak < 4e6, peak
