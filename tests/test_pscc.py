import cmath
import math
import random
from fractions import Fraction

import pytest
import scipy.integrate as si

from specexp import expansion as ex
from specexp import pscc
from specexp import symcore as sc
from specexp import zeta as zt
from specexp.specfun import gamma_complex


RW_MATTER = pscc.RWGeometry(ex.scale_factor("matter", 0.7), 1.3)


def unit_string():
    return zt.TruncatedString([(1, 1)])


def two_ball_string():
    return zt.TruncatedString([(1, 1), (Fraction(1, 2), 1)])


class TestS4Coefficients:
    def test_leading_values(self):
        assert pscc.s4_heat_coefficient(0) == Fraction(2, 3)
        assert pscc.s4_heat_coefficient(1) == Fraction(-2, 3)
        assert pscc.s4_heat_coefficient(2) == Fraction(11, 90)

    def test_against_time_integrated_sphere(self):
        factor = ex.scale_factor("sphere")
        for M in range(0, 4):
            poly = ex.a2M(M)
            val, _ = si.quad(
                lambda t: ex.eval_numeric(poly, lambda i, t=t: factor.deriv(i, t)),
                1e-3,
                math.pi - 1e-3,
                limit=200,
            )
            assert abs(val - float(pscc.s4_heat_coefficient(M))) < 1e-5, M


    def test_round_sphere_pointwise(self):
        # for a(t) = sin t the RW metric is the round S^4, and each pointwise
        # coefficient is a_2M(t) = 3/4 * s4_heat_coefficient(M) * sin^3 t
        factor = ex.scale_factor("sphere")
        for M in range(0, 6):
            aform = sc.to_a_form(ex.a2M(M))
            for t in (0.7, 1.3, math.pi / 2, 2.4):
                got = aform.eval(lambda i, t=t: factor.deriv(i, t))
                want = 0.75 * float(pscc.s4_heat_coefficient(M)) * math.sin(t) ** 3
                assert abs(got - want) <= 1e-10 * abs(want), (M, t)


class TestRoundHeatExpansion:
    def test_unit_sphere_reduces_to_single_metric(self):
        terms = pscc.round_heat_expansion(unit_string(), 3, pscc.S4Geometry())
        assert all(t.kind == "bulk" for t in terms)
        for t in terms:
            assert t.coeff == pscc.s4_heat_coefficient(t.provenance)

    def test_two_ball_scaling_at_m0(self):
        terms = pscc.round_heat_expansion(two_ball_string(), 0, pscc.S4Geometry())
        assert terms[0].coeff == pscc.s4_heat_coefficient(0) * (1 + Fraction(1, 16))

    def test_finite_string_oracle_exact(self):
        string = two_ball_string()
        terms = pscc.round_heat_expansion(string, 3, pscc.S4Geometry())
        assert all(t.kind == "bulk" for t in terms)
        for t in terms:
            M = t.provenance
            direct = sum(
                Fraction(m) * Fraction(r) ** (4 - 2 * M) * pscc.s4_heat_coefficient(M)
                for r, m in string.pairs
            )
            assert isinstance(t.coeff, Fraction) and t.coeff == direct

    def test_ford_pole_term(self):
        terms = pscc.round_heat_expansion(zt.FordString(), 2, pscc.S4Geometry())
        (pole1,) = [
            t for t in terms if t.kind == "pole" and abs(complex(t.provenance) - 1) < 1e-9
        ]
        want = (
            gamma_complex(0.5)
            / 2.0
            * zt.dirac_zeta_s4(1.0)
            * (3.0 / (2.0 * math.pi**2))
        )
        assert abs(pole1.coeff - want) < 1e-12

    def test_ford_bulk_exact_tokens(self):
        terms = pscc.round_heat_expansion(zt.FordString(), 2, pscc.S4Geometry())
        bulk = {t.provenance: t.coeff for t in terms if t.kind == "bulk"}
        assert bulk[2] == zt.ExactToken(Fraction(11, 540))
        assert bulk[0] == zt.ford_zeta_exact(4) * Fraction(2, 3)

    def test_collision_error(self):
        with pytest.raises(pscc.CollisionError):
            pscc.round_heat_expansion(zt.FordString(), 3, pscc.S4Geometry())

    # the default strip for M = 3 reaches the Ford pole at -2; this one does not
    ABOVE_THE_POLE = ((0.0, 4.5), (-46.0, 46.0))
    M3_COLLISION = "string pole at -2.0 collides with the bulk exponent 4-2M for M=3"

    @pytest.mark.parametrize("strip", [None, ABOVE_THE_POLE], ids=["default", "above"])
    @pytest.mark.parametrize("geometry", [pscc.S4Geometry(), RW_MATTER], ids=["s4", "rw"])
    def test_collision_at_a_bulk_exponent_whatever_the_strip(self, geometry, strip):
        # the M = 3 bulk row needs the Ford zeta at its pole -2, in the strip or not
        g = pscc.gaussian_test_function()
        for expand in (
            lambda: pscc.round_heat_expansion(zt.FordString(), 3, geometry, strip),
            lambda: pscc.spectral_action(zt.FordString(), g, 10.0, 3, geometry, strip),
        ):
            with pytest.raises(pscc.CollisionError) as info:
                expand()
            assert str(info.value) == self.M3_COLLISION

    @pytest.mark.parametrize("geometry", [pscc.S4Geometry(), RW_MATTER], ids=["s4", "rw"])
    def test_conjugate_pole_rows_pair_exactly(self, geometry):
        strip = ((0.0, 0.5), (-46.0, 46.0))
        terms = pscc.round_heat_expansion(zt.FordString(), 2, geometry, strip)
        rows = {t.provenance: t.coeff for t in terms if t.kind == "pole"}
        assert len(rows) == 50
        heat = geometry.heat_mellin(2, strip)
        for sigma, c in rows.items():
            assert rows[sigma.conjugate()] == c.conjugate()
            # the shared weight against a direct evaluation at each member
            direct = heat(sigma) * zt._ford_pole(sigma).residue
            assert abs(c - direct) <= 1e-14 * abs(direct), sigma

    # reaches the Ford pole at -2, the S^4 bulk exponent at M = 3
    DEEP_STRIP = ((-2.5, 4.5), (-46.0, 46.0))

    def test_strip_on_a_bulk_exponent_past_max_m(self):
        # tilde-f on S^4 has a pole at every 4-2M, so a string pole there is a
        # collision even past max_m; the RW model transform has none past max_m
        g = pscc.gaussian_test_function()
        for expand in (
            lambda geo: pscc.round_heat_expansion(zt.FordString(), 2, geo, self.DEEP_STRIP),
            lambda geo: pscc.spectral_action(zt.FordString(), g, 10.0, 2, geo, self.DEEP_STRIP),
        ):
            with pytest.raises(pscc.CollisionError, match=r"-2\.0 .*for M=3"):
                expand(pscc.S4Geometry())
        strip = ((-8.5, 4.5), (-46.0, 46.0))
        terms = pscc.round_heat_expansion(zt.FordString(), 2, RW_MATTER, strip)
        poles = [t.provenance for t in terms if t.kind == "pole"]
        assert [s for s in poles if s.imag == 0] == [complex(-k, 0) for k in range(8, 0, -1)] + [1]

    def test_rw_geometry_runs(self):
        geo = pscc.RWGeometry(ex.scale_factor("inflation", 1.0), 0.4)
        terms = pscc.round_heat_expansion(unit_string(), 2, geo)
        vals = {t.provenance: t.coeff for t in terms}
        hs = dict(ex.heat_trace_series(2, ex.scale_factor("inflation", 1.0), 0.4))
        for M in range(3):
            assert abs(vals[M] - hs[2 * M - 4]) < 1e-12


class TestSpectralAction:
    def test_two_ball_action_is_pure_bulk(self):
        terms = pscc.spectral_action(
            two_ball_string(), pscc.gaussian_test_function(), 10.0, 3, pscc.S4Geometry()
        )
        assert all(t.kind == "bulk" for t in terms)
        total = sum(pscc.term_value(t, 10.0) for t in terms)
        assert math.isfinite(total)

    def test_structural_match_with_gaussian_moments(self):
        # bulk row M: f_(4-2M) zeta_string(4-2M) c_2M
        g = pscc.gaussian_test_function()
        terms = pscc.spectral_action(unit_string(), g, 5.0, 2, pscc.S4Geometry())
        rows = {t.provenance: t.coeff for t in terms}
        assert abs(rows[0] - 0.5 * float(pscc.s4_heat_coefficient(0))) < 1e-14
        assert abs(rows[1] - 0.5 * float(pscc.s4_heat_coefficient(1))) < 1e-14
        assert abs(rows[2] - 1.0 * float(pscc.s4_heat_coefficient(2))) < 1e-14

    def test_exact_gaussian_moments_keep_s4_bulk_rows_exact(self):
        g = pscc.gaussian_test_function()
        assert g(0) == 1
        for alpha, want in ((2, Fraction(1, 2)), (4, Fraction(1, 2)), (6, Fraction(1)), (8, Fraction(3))):
            assert type(g(alpha)) is Fraction and g(alpha) == want
        terms = pscc.spectral_action(zt.FordString(), g, 100.0, 2, pscc.S4Geometry())
        heat = pscc.round_heat_expansion(zt.FordString(), 2, pscc.S4Geometry())
        bulk = [t for t in terms if t.kind == "bulk"]
        heat_bulk = [t for t in heat if t.kind == "bulk"]
        assert len(bulk) == 3 and all(isinstance(t.coeff, zt.ExactToken) for t in bulk)
        for row, heat_row in zip(bulk, heat_bulk):
            assert row.coeff == heat_row.coeff * g(4 - 2 * row.provenance)
        # at M >= 3 the moments sit at negative even alpha
        terms = pscc.spectral_action(two_ball_string(), g, 10.0, 4, pscc.S4Geometry())
        heat = pscc.round_heat_expansion(two_ball_string(), 4, pscc.S4Geometry())
        for row, heat_row in zip(terms, heat):
            assert type(row.coeff) is Fraction
            assert row.coeff == heat_row.coeff * g(4 - 2 * row.provenance)

    def test_rows_do_not_depend_on_lambda(self):
        g = pscc.gaussian_test_function()
        for string, geometry in ((zt.FordString(), pscc.S4Geometry()),
                                 (two_ball_string(), RW_MATTER)):
            at3 = pscc.spectral_action(string, g, 3.0, 2, geometry)
            at300 = pscc.spectral_action(string, g, 300.0, 2, geometry)
            assert at3 == at300
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError):
                pscc.spectral_action(zt.FordString(), g, lam, 2, pscc.S4Geometry())

    def test_ford_log_periodic_merge(self):
        terms = pscc.spectral_action(
            zt.FordString(), pscc.gaussian_test_function(), 100.0, 2, pscc.S4Geometry()
        )
        lp = [t for t in terms if t.log_periodic]
        assert lp, "expected merged log-periodic rows"
        bs = sorted(t.log_periodic["b"] for t in lp)
        assert abs(bs[0] - zt.zero_ordinates()[0] / 2) < 1e-9
        for t in lp:
            assert abs(t.log_periodic["a"] - 0.25) < 1e-12
            # merged form is real by construction; value finite
            assert math.isfinite(pscc.term_value(t, 100.0))

    # pole rows (exponent, coeff, phase) as computed when both members of
    # each conjugate pair were evaluated separately; the rows do not depend
    # on Lambda, the pole-row total at the seeded Lambda does
    PINNED_ROWS = {
        "s4": (
            29,
            8.559717180940973,
            [
                (
                    complex(0.25, 44.40455560381723),
                    complex(-2.1061718419208177e-29, -1.4082940240512167e-28),
                    -1.7192508794397803,
                ),
                (
                    complex(0.25, 43.71263730656261),
                    complex(-3.8300267287356905e-28, -1.0641230940500582e-28),
                    -2.8705908343725643,
                ),
                (
                    complex(0.25, 28.223123848531696),
                    complex(-3.213561652062357e-18, 3.343962064400954e-19),
                    3.0379079967813953,
                ),
                (
                    complex(1, 0),
                    complex(0.0795774715459477, 0),
                    None,
                ),
            ],
        ),
        "rw": (
            29,
            -0.8126775944936271,
            [
                (
                    complex(0.25, 44.40455560381723),
                    complex(2.2540797607361794e-20, -9.894718502564622e-18),
                    -1.5685182671806424,
                ),
                (
                    complex(0.25, 43.71263730656261),
                    complex(-1.7440623261445843e-17, -2.8058390751032917e-18),
                    -2.982079944286482,
                ),
                (
                    complex(0.25, 28.223123848531696),
                    complex(-1.2962336685277842e-12, -3.814549576386307e-12),
                    -1.8983672325535395,
                ),
                (
                    complex(1, 0),
                    complex(-0.007552561619750494, 0),
                    None,
                ),
            ],
        ),
    }

    @pytest.mark.parametrize("name", ["s4", "rw"])
    def test_ford_pole_rows_pinned(self, name):
        lam = random.Random(2018).uniform(2.0, 200.0)
        geometry = pscc.S4Geometry() if name == "s4" else RW_MATTER
        terms = pscc.spectral_action(
            zt.FordString(), pscc.gaussian_test_function(), lam, 2, geometry
        )
        n_rows, total, pinned = self.PINNED_ROWS[name]
        assert len(terms) == n_rows
        poles = [t for t in terms if t.kind == "pole"]
        got = sum(pscc.term_value(t, lam) for t in poles)
        assert abs(got - total) <= 1e-12 * abs(total)
        for i, (sigma, coeff, phase) in zip((0, 1, 13, 25), pinned):
            row = poles[i]
            assert row.exponent == sigma
            assert abs(row.coeff - coeff) <= 1e-12 * abs(coeff), sigma
            if phase is None:
                assert row.log_periodic is None
            else:
                assert abs(row.log_periodic["phase"] - phase) <= 1e-12

    def test_one_moment_per_conjugate_pair(self):
        g = pscc.gaussian_test_function()
        asked = []

        def moment(alpha):
            asked.append(complex(alpha))
            return g(alpha)

        terms = pscc.spectral_action(zt.FordString(), moment, 10.0, 2, pscc.S4Geometry())
        non_real = [s for s in asked if s.imag != 0]
        assert len(non_real) == 25 == len({(s.real, abs(s.imag)) for s in non_real})
        # each merged row against tilde-f f Res evaluated at its Im > 0 member,
        # tilde-f the S^4 heat transform over the default maxM = 2 strip
        heat = pscc.S4Geometry().heat_mellin(2, ((0.0, 4.5), (-46.0, 46.0)))
        merged = [t for t in terms if t.log_periodic]
        assert len(merged) == 25
        for t in merged:
            sigma = t.exponent
            assert sigma.imag > 0
            want = heat(sigma) * g(sigma) * zt._ford_pole(sigma).residue
            assert abs(t.coeff - want) <= 1e-14 * abs(want), sigma

    def test_s4_zero_row_matches_packing_template(self):
        # zeta_D(-1) = 0, so the row at the Ford pole -1 is an exact 0 and the
        # Gaussian moment, undefined there, is not asked for
        strip = ((-1.5, 4.5), (-30, 46))
        g = pscc.gaussian_test_function()
        asked = []

        def moment(alpha):
            asked.append(complex(alpha))
            return g(alpha)

        terms = pscc.spectral_action(zt.FordString(), moment, 10.0, 2, pscc.S4Geometry(), strip)
        row = [t for t in terms if t.exponent == -1]
        template = pscc.s4_packing_action_terms(zt.FordString(), g, strip)
        assert row == [t for t in template if t.exponent == -1]
        assert row[0].coeff == zt.ExactToken(Fraction(0))
        assert -1 not in asked

    def test_s4_heat_row_at_minus_one_is_exact_zero(self):
        # the S^4 heat transform gives its own exact 0 where zeta_D vanishes,
        # so the heat row agrees with the action and template rows there
        strip = ((-1.5, 4.5), (-1, 1))
        g = pscc.gaussian_test_function()
        built = (
            pscc.round_heat_expansion(zt.FordString(), 2, pscc.S4Geometry(), strip),
            pscc.spectral_action(zt.FordString(), g, 10.0, 2, pscc.S4Geometry(), strip),
            pscc.s4_packing_action_terms(zt.FordString(), g, strip),
        )
        heat, action, template = (
            [t.coeff for t in terms if t.kind == "pole" and t.provenance == -1]
            for terms in built)
        assert heat == [zt.ExactToken(Fraction(0))] and type(heat[0]) is zt.ExactToken
        assert action == template == heat

    def test_rw_strip_reaching_minus_one_needs_the_moment(self):
        with pytest.raises(ValueError, match="negative moments"):
            pscc.spectral_action(zt.FordString(), pscc.gaussian_test_function(), 10.0, 2,
                                 RW_MATTER, ((-1.5, 4.5), (-30, 46)))

    def test_gaussian_moments_against_quadrature(self):
        g = pscc.gaussian_test_function()
        for alpha in (4.0, 2.0, 1.0, 0.5, 3.3):
            ref, _ = si.quad(lambda v: math.exp(-v * v) * v ** (alpha - 1), 0, 30)
            assert abs(g(alpha) - ref) < 1e-9
        assert g(-2) == 2.0 and g(-4) == 12.0


class TestPackingTemplate:
    def test_template_structure(self):
        rows = pscc.s4_packing_action_terms(zt.FordString())
        bulk_labels = [t.provenance for t in rows if t.kind == "bulk"]
        assert bulk_labels == ["f(0)", "Lambda^2", "Lambda^4"]
        pole_sigmas = [complex(t.provenance) for t in rows if t.kind == "pole"]
        assert any(abs(s - 1) < 1e-12 for s in pole_sigmas)
        assert any(abs(s.imag) > 5 for s in pole_sigmas)

    def test_exact_rows(self):
        rows = {t.provenance: t.coeff for t in pscc.s4_packing_action_terms(zt.FordString())}
        assert rows["f(0)"] == zt.ExactToken(Fraction(11, 540))
        assert rows["Lambda^2"] == zt.ExactToken(Fraction(45, 4), pi_pow=-4, zeta_num=(3,))
        assert rows["Lambda^4"] == zt.ExactToken(Fraction(4725, 16), pi_pow=-8, zeta_num=(7,))
        assert rows[complex(1, 0)] == zt.ExactToken(Fraction(1, 2), pi_pow=-2)

    @pytest.mark.parametrize("sigma", [0, 2])
    def test_string_pole_on_a_bulk_exponent_is_a_collision(self, sigma):
        string = zt.AnalyticString(
            lambda z: 1.0 + 0j, [zt.PoleTerm(complex(sigma, 0), 1.0 + 0j)])
        with pytest.raises(pscc.CollisionError, match=f"the bulk exponent {sigma}"):
            pscc.s4_packing_action_terms(string)

    def test_real_pole_residues_exact(self):
        # deep strips used to overflow the numeric zeta'(-2k) to NaN
        poles = zt.string_poles(zt.FordString(), ((-200, 6), (-1, 1)))
        assert [p.sigma for p in poles] == [complex(-k, 0) for k in range(200, 0, -1)] + [1]
        for p in poles:
            assert math.isfinite(p.residue) and p.residue == float(p.exact), p.sigma
        # rows at -1..-8, against the numeric route 2^k zeta(-2k-1)/(2 zeta'(-2k))
        # with a central-difference zeta'; odd k sit on trivial zeros of zeta_D
        numeric = {-2: 0.008152467515784325, -4: -0.03952348001229951,
                   -6: 0.32993880841526274, -8: -4.213781488646809}
        rows = {t.provenance: t.coeff for t in pscc.s4_packing_action_terms(zt.FordString())}
        for k in range(1, 9):
            coeff = rows[complex(-k, 0)]
            assert isinstance(coeff, zt.ExactToken)
            want = numeric.get(-k, 0.0)
            assert abs(float(coeff) - want) <= 1e-12 * abs(want), k


    def test_one_dirac_zeta_per_conjugate_pair(self, monkeypatch):
        calls = []
        real = zt.dirac_zeta_s4

        def counted(s, *args):
            calls.append(complex(s))
            return real(s, *args)

        monkeypatch.setattr(zt, "dirac_zeta_s4", counted)
        g = pscc.gaussian_test_function()
        rows = pscc.s4_packing_action_terms(zt.FordString(), g)
        assert len(calls) == 25 == len({(s.real, abs(s.imag)) for s in calls})
        # each row as evaluating zeta_D at its own pole gives it, bit for bit
        poles = {complex(p.sigma): p for p in zt.string_poles(
            zt.FordString(), ((-8.5, 4.5), (-46.0, 46.0)))}
        complex_rows = [t for t in rows if t.kind == "pole" and abs(complex(t.exponent).imag) > 1]
        assert len(complex_rows) == 50
        for t in complex_rows:
            sigma = complex(t.exponent)
            want = real(sigma) / 2.0 * poles[sigma].residue * g(sigma)
            assert repr(t.coeff) == repr(want), sigma

    def test_gaussian_moments_with_default_strip(self):
        # zeta_D vanishes at -1, -3, -5, -7, where the Gaussian has no moment
        g = pscc.gaussian_test_function()
        rows = {t.provenance: t.coeff
                for t in pscc.s4_packing_action_terms(zt.FordString(), g)}
        bare = {t.provenance: t.coeff for t in pscc.s4_packing_action_terms(zt.FordString())}
        for k in (1, 3, 5, 7):
            assert rows[complex(-k, 0)] == zt.ExactToken(Fraction(0))
        for j in (1, 2, 3, 4):
            # f_(-2j) = (2j)!/j! exactly, so these rows stay exact tokens
            sigma = complex(-2 * j, 0)
            assert g(sigma) == Fraction(math.factorial(2 * j), math.factorial(j))
            assert isinstance(rows[sigma], zt.ExactToken)
            assert rows[sigma] == bare[sigma] * g(sigma)


class TestLeadingConstantReconciliation:
    def test_matching_rows(self):
        rep = pscc.ford_constants_reconciliation()
        assert rep["Lambda^2"]["match"] and rep["Lambda^4"]["match"]

    def test_discrepant_rows_reported_with_ratio(self):
        rep = pscc.ford_constants_reconciliation()
        assert not rep["f(0)"]["match"]
        assert rep["f(0)"]["ratio"] == zt.ExactToken(Fraction(7, 27))
        assert not rep["Lambda^1"]["match"]
        assert rep["Lambda^1"]["ratio"] == zt.ExactToken(Fraction(1, 2))

    def test_text_report(self):
        text = pscc.ford_constants_report_text()
        assert "Lambda^4" in text and "4725" in text


class TestNonRound:
    def test_two_ball_weights(self):
        rows = pscc.nonround_zeta_coefficients(two_ball_string(), 2)
        w_main = [t.coeff for t in rows if t.provenance == (0, "C(-3/2,0)")][0]
        assert w_main == Fraction(1, 2) * (1 + Fraction(1, 8))
        w_minus = [t.coeff for t in rows if t.provenance == (2, "C(-1/2,0)")][0]
        assert w_minus == Fraction(-1, 4) * (1 + Fraction(1, 2))

    def test_unit_string_reduces_to_single_metric(self):
        geo = pscc.RWGeometry(ex.scale_factor("inflation", 1.0), 0.5)
        rows = pscc.nonround_zeta_coefficients(unit_string(), 3, geo)
        hs = dict(ex.heat_trace_series(3, ex.scale_factor("inflation", 1.0), 0.5))
        for t in rows:
            assert abs(t.coeff - hs[int(t.exponent)]) < 1e-10

    def test_complex_weights_on_rw(self):
        # a complex-valued string zeta is used as given, as without a geometry
        geo = pscc.RWGeometry(ex.scale_factor("inflation", 1.0), 0.5)
        base = two_ball_string()
        tilted = zt.AnalyticString(lambda s: (1 + 1j) * base.zeta(s), [])
        want = pscc.nonround_zeta_coefficients(base, 3, geo)
        got = pscc.nonround_zeta_coefficients(tilted, 3, geo)
        assert [t.exponent for t in got] == [t.exponent for t in want]
        for t, w in zip(got, want):
            assert abs(t.coeff - (1 + 1j) * w.coeff) <= 1e-15 * abs((1 + 1j) * w.coeff)

    def test_ford_diverges(self):
        with pytest.raises(zt.PoleError):
            pscc.nonround_zeta_coefficients(zt.FordString(), 2)


class TestSingularExpansion:
    def test_two_radius_exponential(self):
        # g(u) = e^-u + e^-(u/2): Taylor coefficients (-1)^N/N! (1 + 2^-N)
        string = zt.TruncatedString([(1, 1), (2, 1)])
        terms = pscc.singular_expansion_combine(string, pscc.gamma_mellin(8))
        for t in terms:
            N = int(complex(t.exponent).real)
            want = (-1) ** N / math.factorial(N) * (1 + 2.0 ** (-N))
            assert abs(float(t.coeff) - want) < 1e-12

    def test_trivial_string_returns_own_expansion(self):
        terms = pscc.singular_expansion_combine(unit_string(), pscc.gamma_mellin(6))
        for t in terms:
            N = int(complex(t.exponent).real)
            assert abs(float(t.coeff) - (-1) ** N / math.factorial(N)) < 1e-14

    def test_gamma_pole_table_is_correct(self):
        # Gamma(z) ~ (-1)^k/k! / (z+k) near z = -k
        for k in (0, 1, 3):
            eps = 1e-7
            approx = gamma_complex(-k + eps) * eps
            assert abs(approx - (-1) ** k / math.factorial(k)) < 1e-5

    def test_pole_collision_detected(self):
        bad = zt.AnalyticString(lambda z: 1.0 + 0j, [zt.PoleTerm(-2.0 + 0j, 1.0 + 0j)])
        with pytest.raises(pscc.CollisionError):
            pscc.singular_expansion_combine(bad, pscc.gamma_mellin(6))

    def test_collision_names_the_transform_pole(self):
        bad = zt.AnalyticString(lambda z: 1.0 + 0j, [zt.PoleTerm(-2.0 + 0j, 1.0 + 0j)])
        named = pscc.MellinFunction(gamma_complex, pscc.gamma_mellin(3).poles,
                                    ("Gamma at 0", "Gamma at -1", "Gamma at -2", "Gamma at -3"))
        with pytest.raises(pscc.CollisionError, match=r"at -2\.0 collides with Gamma at -2$"):
            pscc.singular_expansion_combine(bad, named)
        with pytest.raises(pscc.CollisionError, match=r"with the transform pole at \(-2\+0j\)$"):
            pscc.singular_expansion_combine(bad, pscc.gamma_mellin(3))
        # one name per pole, or the poles past the last name would go unchecked
        with pytest.raises(ValueError, match="1 names for 4 poles"):
            pscc.MellinFunction(gamma_complex, pscc.gamma_mellin(3).poles, ("Gamma at 0",))

    def test_pole_outside_the_transform_pole_table(self):
        # gamma_mellin(0) lists only the pole at 0; Gamma also has one at -12,
        # where the Ford string has a pole
        with pytest.raises(pscc.CollisionError, match="outside its pole table") as info:
            pscc.singular_expansion_combine(zt.FordString(), pscc.gamma_mellin(0))
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_one_transform_value_per_conjugate_pair(self):
        sigma = complex(0.5, 3.0)
        string = zt.AnalyticString(
            lambda z: 1.0 / ((z - sigma) * (z - sigma.conjugate())),
            [zt.PoleTerm(sigma, complex(0, -1 / 6)), zt.PoleTerm(sigma.conjugate(), complex(0, 1 / 6))],
        )
        asked = []

        def evaluator(z):
            asked.append(z)
            return gamma_complex(z)

        mellin = pscc.MellinFunction(evaluator, pscc.gamma_mellin(4).poles)
        terms = pscc.singular_expansion_combine(string, mellin)
        assert len(asked) == 1
        rows = {t.provenance: t.coeff for t in terms if t.kind == "pole"}
        assert set(rows) == {sigma, sigma.conjugate()}
        assert rows[sigma.conjugate()] == rows[sigma].conjugate()
        for s, c in rows.items():
            want = gamma_complex(s) * string.pole_table[0 if s == sigma else 1].residue
            assert abs(c - want) <= 1e-14 * abs(want)
        assert [t.kind for t in terms].count("bulk") == 5


class TestScalingLaw:
    def test_rescale_uv_values(self):
        assert pscc.rescale_uv(1, 1, 2) == (Fraction(1, 4), Fraction(1, 2))
        assert pscc.rescale_uv(2.5, -3.0, 1) == (2.5, -3.0)

    def test_symbolic_law_up_to_order_four(self):
        for r, m in ((ex.R_MAIN, 0), (ex.R_PLUS, 2), (ex.R_MINUS, 0)):
            for M in range(0, 5):
                assert ex.verify_uv_scaling(r, m, M)

    def test_numeric_consistency(self):
        # scaling the scalars by a^exponent equals scaling (U, V) inputs
        a = Fraction(1, 3)
        for r, m in ((ex.R_MAIN, 0), (ex.R_PLUS, 2)):
            expected = a ** (-(2 * r + m))
            for t in ex.crm_direct(r, m, 2):
                assert a ** ex.term_scaling_exponent(t) == expected


class TestSerialization:
    def test_json_rows(self):
        terms = pscc.round_heat_expansion(two_ball_string(), 1, pscc.S4Geometry())
        rows = pscc.expansion_to_json(terms)
        assert all(set(r) >= {"kind", "exponent", "coeff"} for r in rows)
        assert rows[0]["coeff"]["exact"]

    def test_table_renders(self):
        terms = pscc.round_heat_expansion(zt.FordString(), 2, pscc.S4Geometry())
        table = pscc.expansion_table(terms)
        assert "bulk" in table and "pole" in table
