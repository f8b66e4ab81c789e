import math
from collections import defaultdict
from fractions import Fraction

import pytest

from specexp import bell, bridge
from specexp import expansion as ex
from specexp import pscc
from specexp import symcore as sc

R_MAIN, R_PLUS, R_MINUS = ex.R_MAIN, ex.R_PLUS, ex.R_MINUS
PAIRS = ((R_MAIN, 0), (R_PLUS, 2), (R_MINUS, 0))


class TestCrmDirect:
    def test_order_zero_main(self):
        terms = ex.crm_direct(R_MAIN, 0, 0)
        assert len(terms) == 1
        t = terms[0]
        assert t.sym == sc.DerivMonomial(-3) and t.scalar == 1 and t.letters == ()

    def test_odd_order_letters_all_odd(self):
        for r, m in PAIRS:
            for M in (1, 3):
                for t in ex.crm_direct(r, m, M):
                    assert sum(t.letters) % 2 == 1

    def test_enumeration_counts_bounded(self):
        # each term's composition data obeys N + 2n = M with k+p letters
        M = 2
        for t in ex.crm_direct(R_MINUS, 0, M):
            assert sum(t.letters) <= M
            assert len(t.letters) <= M


class TestCrmBell:
    def test_trivial_plus(self):
        terms = ex.crm_bell(R_PLUS, 2, 0)
        assert len(terms) == 1
        assert terms[0].sym == sc.DerivMonomial(-5, ((1, 2),))
        assert terms[0].scalar == 1

    def test_trivial_minus(self):
        terms = ex.crm_bell(R_MINUS, 0, 0)
        assert len(terms) == 1 and terms[0].sym == sc.DerivMonomial(-1)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            ex.crm_bell(R_MAIN, 0, 3)

    def test_route_equality_after_integration(self):
        for r, m in PAIRS:
            for order in (0, 2, 4):
                lhs = ex.integrate_bridge(ex.crm_direct(r, m, order))
                rhs = ex.integrate_bridge(ex.crm_bell(r, m, order))
                assert lhs == rhs, (r, m, order)


    def test_route_equality_at_orders_8_and_10(self):
        for r, m in PAIRS:
            for order in (8, 10):
                lhs = ex.integrate_bridge(ex.crm_direct(r, m, order))
                rhs = ex.integrate_bridge(ex.crm_bell(r, m, order))
                assert lhs == rhs, (r, m, order)

    @pytest.mark.slow
    @pytest.mark.parametrize("order", [12, 14])
    def test_route_equality_at_order(self, order):
        for r, m in PAIRS:
            lhs = ex.integrate_bridge(ex.crm_direct(r, m, order))
            rhs = ex.integrate_bridge(ex.crm_bell(r, m, order))
            assert lhs == rhs, (r, m)

    def test_a2M_is_built_without_the_oracle(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a2M reached crm_direct")

        want = [ex.a2M(M) for M in range(4)]
        ex._clear_caches()
        monkeypatch.setattr(ex, "crm_direct", refuse)
        assert [ex.a2M(M) for M in range(4)] == want

    def test_clear_caches_gives_a_cold_equal_rebuild(self):
        warm = ex.a2M(3)
        ex._clear_caches()
        assert ex.a2M.cache_info().currsize == 0
        assert ex.integrated_cell.cache_info().currsize == 0
        assert ex._bell_pair.cache_info().currsize == 0
        assert ex._bell_piece.cache_info().currsize == 0
        assert ex._binom_general.cache_info().currsize == 0
        assert sc._deriv_power.cache_info().currsize == 0
        assert bridge._wick.cache_info().currsize == 0
        assert bridge._moment.cache_info().currsize == 0
        cold = ex.a2M(3)
        assert cold == warm and cold is not warm


def _lru_caches(module):
    return {name: fn for name, fn in vars(module).items()
            if callable(getattr(fn, "cache_info", None))
            and getattr(fn, "__module__", None) == module.__name__}


def test_clear_caches_empties_every_memo():
    # crm_direct's composition table is the one memo a2M does not use
    allowed = {"specexp.expansion._compositions_list"}
    ex.crm_direct(R_MAIN, 0, 4)
    sc.to_a_form(ex.a2M(3))
    ex._clear_caches()
    memos = {f"{module.__name__}.{name}": fn
             for module in (bell, bridge, ex, sc) for name, fn in _lru_caches(module).items()}
    assert "specexp.bridge._kernels" in memos and len(memos) >= 12
    warm = {name for name, fn in memos.items() if fn.cache_info().currsize}
    assert warm <= allowed, warm - allowed


class TestIntegerRoute:
    @staticmethod
    def _check_cells(M):
        for r, m in PAIRS:
            cell = ex.integrated_cell(r, m, 2 * M)
            assert cell == ex.integrate_bridge(ex.crm_bell(r, m, 2 * M)), (r, m, M)
            assert cell == ex.integrate_bridge(ex.crm_direct(r, m, 2 * M)), (r, m, M)

    @pytest.mark.parametrize("M", range(5))
    def test_integrated_cell_matches_both_routes(self, M):
        self._check_cells(M)

    @pytest.mark.slow
    @pytest.mark.parametrize("M", [5, 6])
    def test_integrated_cell_matches_both_routes_high(self, M):
        self._check_cells(M)

    @staticmethod
    def _implied_letters(mono):
        # a B-derivative B^(i) marks letter i, an A-derivative A^(i+1) letter i
        return tuple(sorted([i for i, e in mono.b_exp for _ in range(e)]
                            + [i - 1 for i, e in mono.a_exp for _ in range(e)]))

    def _check_terms(self, terms, want):
        # same monomial -> coefficient map, and each key's letters are the
        # ones its monomial implies
        assert {mono: c for (mono, _), c in terms.items()} == want.terms
        for mono, letters in terms:
            assert letters == self._implied_letters(mono), (mono, letters)

    @staticmethod
    def _oracle_piece(n, k, v_side):
        # B_{n,k} by the generic evaluator over the SymPoly derivative symbols
        letter = (lambda i: sc.SymPoly.a_deriv(i + 1)) if v_side else sc.SymPoly.b_deriv
        args = [letter(i) for i in range(1, n + 2)]
        return bell.bell_polynomial(n, k, args, one=sc.SymPoly.one())

    @pytest.mark.parametrize("v_side", [False, True], ids=["u", "v"])
    def test_bell_pieces_match_the_generic_evaluator(self, v_side):
        # read off the template, equal to B_{n,k} over the SymPoly letters
        for n in range(13):
            for k in range(n + 1):
                got = ex._bell_piece(n, k, v_side)
                self._check_terms(got, self._oracle_piece(n, k, v_side))

    def test_bell_pairs_match_carrier_products(self):
        # written key by key, equal to the accumulated SymPoly sum
        for width in range(0, 11, 2):
            for k in range(width + 1):
                for p in range(width - k + 1):
                    want = sc.SymPoly.zero()
                    for beta in range(width + 1):
                        want = want + (self._oracle_piece(beta, k, False)
                                       * self._oracle_piece(width - beta, p, True)
                                       ).scale(math.comb(width, beta))
                    self._check_terms(ex._bell_pair(width, k, p), want)

    def test_bell_pairs_are_integer(self):
        for width in range(0, 9, 2):
            for k in range(width + 1):
                for p in range(width - k + 1):
                    pair = ex._bell_pair(width, k, p)
                    assert all(type(c) is int for c in pair.values())

    def test_coefficients_are_exact_rationals(self):
        for M in range(7):
            poly = ex.a2M(M)
            assert poly.terms
            assert all(type(c) in (int, Fraction) for c in poly.terms.values()), M

    def test_nonzero_odd_degree_moment_raises_in_the_cell(self, monkeypatch):
        # every Bell block has even letter degree; plant one of odd degree
        bogus = {(sc.DerivMonomial(0, ((2, 1),), ((1, 1),)), (1, 2)): 1}
        monkeypatch.setattr(ex, "_bell_pair", lambda width, k, p: bogus)
        monkeypatch.setattr(ex.bridge, "moment_product", lambda spec: Fraction(1))
        with pytest.raises(ex.ConsistencyError):
            ex.integrated_cell.__wrapped__(R_MAIN, 0, 4)
        monkeypatch.setattr(ex.bridge, "moment_product", lambda spec: Fraction(0))
        assert ex.integrated_cell.__wrapped__(R_MAIN, 0, 4).is_zero()


class TestOnePassA2M:
    @staticmethod
    def _check(M):
        # the three cells combined one by one as SymPolys
        want = ex.integrated_cell(R_MAIN, 0, 2 * M).scale(Fraction(1, 2))
        if M:
            plus = ex.integrated_cell(R_PLUS, 2, 2 * M - 2)
            minus = ex.integrated_cell(R_MINUS, 0, 2 * M - 2)
            want = want + (plus - minus).scale(Fraction(1, 4))
        got = ex.a2M(M)
        assert got == want and hash(got) == hash(want), M

    @pytest.mark.parametrize("M", range(7))
    def test_a2M_equals_the_cell_combination(self, M):
        self._check(M)

    @pytest.mark.slow
    @pytest.mark.parametrize("M", [7, 8])
    def test_a2M_equals_the_cell_combination_high(self, M):
        self._check(M)

    def test_a2M_builds_no_cell(self):
        ex._clear_caches()
        ex.a2M(6)
        assert ex.integrated_cell.cache_info().currsize == 0


class TestIntegrateBridge:
    def test_empty_multiset_passthrough(self):
        term = ex.MomentTerm(Fraction(3, 7), sc.DerivMonomial(-1), ())
        got = ex.integrate_bridge([term])
        assert got == sc.SymPoly.monomial(sc.DerivMonomial(-1), Fraction(3, 7))

    def test_odd_moment_drops(self):
        term = ex.MomentTerm(Fraction(1), sc.DerivMonomial(0), (1,))
        assert ex.integrate_bridge([term]).is_zero()

    def test_pair_moment_scales(self):
        term = ex.MomentTerm(Fraction(6), sc.DerivMonomial(-3), (1, 1))
        got = ex.integrate_bridge([term])
        assert got == sc.SymPoly.monomial(sc.DerivMonomial(-3))  # 6 * 2^(2/2) * 1/12

    def test_nonzero_odd_degree_moment_raises(self, monkeypatch):
        monkeypatch.setattr(ex.bridge, "moment_product", lambda spec: Fraction(1))
        bogus = ex.MomentTerm(Fraction(1), sc.DerivMonomial(0), (1, 2))
        with pytest.raises(ex.ConsistencyError):
            ex.integrate_bridge([bogus])

    def test_odd_orders_integrate_to_zero(self):
        for r, m in PAIRS:
            for M in (1, 3, 5):
                assert ex.integrate_bridge(ex.crm_direct(r, m, M)).is_zero()


def expected_a2():
    return (
        sc.SymPoly(
            {sc.DerivMonomial(-5, ((1, 2),)): Fraction(3, 8)}
        )
        + sc.SymPoly(
            {sc.DerivMonomial(-5, (), ((2, 1),)): Fraction(-1, 8)}
        )
        + sc.SymPoly(
            {sc.DerivMonomial(-7, (), ((1, 2),)): Fraction(5, 32)}
        )
        + sc.SymPoly.monomial(sc.DerivMonomial(-1), Fraction(-1, 4))
    )


class TestHeatCoefficients:
    def test_a0(self):
        assert ex.a2M(0) == sc.SymPoly.monomial(sc.DerivMonomial(-3), Fraction(1, 2))

    def test_a2_closed_form(self):
        assert ex.a2M(1) == expected_a2()

    def test_ab_weight_grading(self):
        for M in range(1, 7):
            weights = {mono.weight() for mono in ex.a2M(M).terms}
            assert weights <= {2 * M - 2, 2 * M}

    def test_a_form_grading(self):
        for M in (1, 2):
            aform = sc.to_a_form(ex.a2M(M))
            for (a_pow, dexp), _ in aform.terms.items():
                k0 = a_pow + 2 * M - 3
                total = k0 + sum(e for _, e in dexp)
                weighted = sum(i * e for i, e in dexp)
                assert k0 >= 0 and total == weighted and total in (2 * M - 2, 2 * M)

    def test_differentiation_commutes_on_a4(self):
        poly = ex.a2M(2)
        lhs = sc.to_a_form(sc.differentiate(poly))
        rhs = sc.to_a_form(poly).differentiate()
        assert lhs == rhs

    def test_a2_in_a_form(self):
        # a^2 a''/4 + a a'^2/4 - a/4
        want = sc.AFormPoly(
            {
                (2, ((2, 1),)): Fraction(1, 4),
                (1, ((1, 2),)): Fraction(1, 4),
                (1, ()): Fraction(-1, 4),
            }
        )
        assert sc.to_a_form(ex.a2M(1)) == want


class TestHeatTraceSeries:
    def test_empty_universe_a2(self):
        # symbolic substitution gives (H^3 t - H t)/4 for a(t) = H t
        for H, t in ((1.0, 2.0), (2.0, 2.0), (0.7, 1.3)):
            factor = ex.scale_factor("empty", H=H)
            rows = dict(ex.heat_trace_series(1, factor, t))
            assert abs(rows[-2] - (H**3 * t - H * t) / 4) < 1e-12

    def test_empty_universe_higher_vanish(self):
        for H in (1.0, 2.0):
            factor = ex.scale_factor("empty", H=H)
            rows = dict(ex.heat_trace_series(3, factor, 2.0))
            assert rows[0] == 0.0 and rows[2] == 0.0

    def test_inflation_a0_at_origin(self):
        factor = ex.scale_factor("inflation", H=1.0)
        assert abs(ex.heat_trace_series(0, factor, 0.0)[0][1] - 0.5) < 1e-14

    def test_inflation_a0_away_from_origin(self):
        # binding value is substitution into a_0 = a^3/2, i.e. exp(3Ht)/2
        factor = ex.scale_factor("inflation", H=1.0)
        got = ex.heat_trace_series(0, factor, 1.0)[0][1]
        assert abs(got - math.exp(3.0) / 2) < 1e-12

    def test_matter_a2(self):
        factor = ex.scale_factor("matter", H=1.0)
        got = dict(ex.heat_trace_series(1, factor, 1.0))[-2]
        want = 1.0 / 8.0 - (1.5) ** (2.0 / 3.0) / 4.0
        assert abs(got - want) < 1e-12

    def test_radiation_a2(self):
        factor = ex.scale_factor("radiation", H=1.0)
        got = dict(ex.heat_trace_series(1, factor, 1.0))[-2]
        assert abs(got + math.sqrt(2.0) / 4.0) < 1e-12

    def test_sphere_finite_inside_domain(self):
        factor = ex.scale_factor("sphere")
        rows = ex.heat_trace_series(2, factor, 1.0)
        assert all(math.isfinite(v) for _, v in rows)
        # a_4(sin t) = 11 sin^3 t / 120
        assert abs(rows[2][1] - 11 * math.sin(1.0) ** 3 / 120) < 1e-12

    def test_singularity_signal(self):
        # a_6's a-form carries negative powers of a, so a(t) = 0 must signal
        factor = ex.scale_factor("empty", H=1.0)
        with pytest.raises(ZeroDivisionError):
            ex.heat_trace_series(3, factor, 0.0)

    def test_empty_universe_needs_nonzero_h(self):
        # a = H t vanishes identically at H = 0
        for H in (0.0, -0.0, 0):
            with pytest.raises(ValueError, match="H != 0"):
                ex.scale_factor("empty", H=H)
        assert ex.scale_factor("empty", H=-1.5).deriv(0, 2.0) == -3.0

    @pytest.mark.parametrize("family", ["radiation", "matter"])
    def test_power_law_domain(self, family):
        for H in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                ex.scale_factor(family, H=H)
        factor = ex.scale_factor(family, H=1.0)
        with pytest.raises(ValueError):
            factor.deriv(0, -1.0)
        with pytest.raises(ZeroDivisionError):
            factor.deriv(1, 0.0)

    def test_non_finite_h_rejected_by_every_h_family(self):
        with pytest.raises(ValueError):
            ex.heat_trace_series(2, ex.scale_factor("inflation", H=math.nan), 1.0)
        for family in ("inflation", "empty"):
            for H in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError):
                    ex.scale_factor(family, H=H)

    def test_custom_family(self):
        inflation_like = ex.scale_factor(
            "custom", fn=lambda i, t: math.exp(t)
        )
        ref = ex.scale_factor("inflation", H=1.0)
        a = ex.heat_trace_series(2, inflation_like, 0.7)
        b = ex.heat_trace_series(2, ref, 0.7)
        for (pa, va), (pb, vb) in zip(a, b):
            assert pa == pb and abs(va - vb) < 1e-12


class TestRescaling:
    def test_identity(self):
        assert ex.rescale_uv(2.5, -1.0, 1) == (2.5, -1.0)

    def test_definition(self):
        assert ex.rescale_uv(1, 1, 2) == (Fraction(1, 4), Fraction(1, 2))

    def test_positive_factor_required(self):
        with pytest.raises(ValueError):
            ex.rescale_uv(1.0, 1.0, 0)

    def test_scaling_exponent_law(self):
        for r, m in PAIRS:
            for M in range(0, 11):
                for t in ex.crm_direct(r, m, M):
                    assert ex.term_scaling_exponent(t) == -(2 * r + m)

    def test_c0_main_scaling_example(self):
        # C^(-3/2,0)_0 = B^(-3/2) picks up a^3 under the rescaling
        (term,) = ex.crm_direct(R_MAIN, 0, 0)
        assert ex.term_scaling_exponent(term) == 3


# ----------------------------------------------------------------------
# exact closed forms on the a-form: round S^4, hyperbolic H^4, flat R^4
# ----------------------------------------------------------------------

def _at_sin_or_sinh(aform, hyperbolic):
    """a-form at a = sin t (or sinh t) as a map (power of s, power of c) -> Q.

    a^(2j) = (-1)^j s and a^(2j+1) = (-1)^j c, signs dropped for sinh; then
    c^2 = 1 - s^2 (1 + s^2 for sinh) leaves powers of c in {0, 1}.
    """
    c2_sign = 1 if hyperbolic else -1
    out = defaultdict(Fraction)
    for (a_pow, dexp), coeff in aform.terms.items():
        s_pow, c_pow, sign = a_pow, 0, 1
        for i, e in dexp:
            if i % 2:
                c_pow += e
            else:
                s_pow += e
            if not hyperbolic and (i // 2) % 2:
                sign *= (-1) ** e
        half, c_rest = divmod(c_pow, 2)
        for j in range(half + 1):
            out[(s_pow + 2 * j, c_rest)] += sign * coeff * math.comb(half, j) * c2_sign**j
    return {key: value for key, value in out.items() if value}


def _at_t(aform):
    """a-form at a = t (a' = 1, higher derivatives 0) as a map power of t -> Q."""
    out = defaultdict(Fraction)
    for (a_pow, dexp), coeff in aform.terms.items():
        if all(i == 1 for i, _ in dexp):
            out[a_pow] += coeff
    return {key: value for key, value in out.items() if value}


def _check_closed_forms(M):
    aform = sc.to_a_form(ex.a2M(M))
    s4 = Fraction(3, 4) * pscc.s4_heat_coefficient(M)
    assert _at_sin_or_sinh(aform, hyperbolic=False) == {(3, 0): s4}
    assert _at_sin_or_sinh(aform, hyperbolic=True) == {(3, 0): (-1) ** M * s4}
    assert _at_t(aform) == ({3: Fraction(1, 2)} if M == 0 else {})


class TestClosedForms:
    """Exact identities independent of both assembly routes and of the bridge."""

    @pytest.mark.parametrize("M", range(0, 7))
    def test_sphere_hyperbolic_flat(self, M):
        _check_closed_forms(M)

    @pytest.mark.slow
    @pytest.mark.parametrize("M", (7, 8, 9, 10))
    def test_sphere_hyperbolic_flat_high(self, M):
        _check_closed_forms(M)
