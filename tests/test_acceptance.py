"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here, not configurable.
"""

import json
import math
import random
import time
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from specexp import bridge, expansion as ex, pscc, specfun as sf, symcore as sc
from specexp import zeta as zt


def _reference(order: int) -> dict:
    raw = resources.files("specexp").joinpath("data/reference_coefficients.json").read_text()
    return json.loads(raw)[str(order)]


def _fresh_caches():
    ex._clear_caches()


def _report(num: int, detail: str):
    print(f"ACCEPTANCE {num}: PASS - {detail}")


def test_criterion_1_low_order_reference_equality():
    _fresh_caches()
    times = []
    for M in (0, 1, 2):
        t0 = time.perf_counter()
        got = ex.a2M(M)
        dt = time.perf_counter() - t0
        times.append(dt)
        want = sc.sympoly_from_json(_reference(2 * M)["ab"])
        assert got == want, f"a_{2*M} differs from the published form"
        assert dt < 1.0, f"a_{2*M} took {dt:.2f}s"
    _report(1, f"a0/a2/a4 match the published forms exactly "
               f"(times {', '.join(f'{t*1000:.0f}ms' for t in times)})")


def test_criterion_2_high_order_reference_equality():
    _fresh_caches()
    t0 = time.perf_counter()
    a6 = ex.a2M(3)
    a8 = ex.a2M(4)
    dt = time.perf_counter() - t0
    for M, poly in ((3, a6), (4, a8)):
        want = sc.sympoly_from_json(_reference(2 * M)["ab"])
        assert poly == want, f"a_{2*M} differs from the published form"
    assert dt < 300.0, f"a6+a8 took {dt:.1f}s"
    _report(2, f"a6 ({len(a6.terms)} terms) and a8 ({len(a8.terms)} terms) "
               f"match exactly in {dt:.2f}s")


def test_criterion_3_route_equivalence():
    pairs = ((ex.R_MAIN, 0), (ex.R_PLUS, 2), (ex.R_MINUS, 0))
    count = 0
    for r, m in pairs:
        for order in (0, 1, 2, 3, 4, 5, 6):
            if order % 2 == 1:
                continue  # Bell route is defined for even target orders
            direct = ex.integrate_bridge(ex.crm_direct(r, m, order))
            bell_route = ex.integrate_bridge(ex.crm_bell(r, m, order))
            assert direct == bell_route, (r, m, order)
            count += 1
    _report(3, f"direct and Bell assemblies agree exactly on {count} (r,m,order) cells")


def test_criterion_4_grading_invariant():
    checked = 0
    for M in range(0, 5):
        aform = sc.to_a_form(ex.a2M(M))
        for (a_pow, dexp), _ in aform.terms.items():
            k0 = a_pow + 2 * M - 3
            total = k0 + sum(e for _, e in dexp)
            weighted = sum(i * e for i, e in dexp)
            assert k0 >= 0, (M, a_pow)
            assert total == weighted, (M, a_pow, dexp)
            if M >= 1:
                assert total in (2 * M - 2, 2 * M), (M, a_pow, dexp)
            else:
                assert total == 0
            checked += 1
    _report(4, f"degree grading holds for all {checked} a-form monomials, M <= 4")


def _moment_product_poly_route(spec) -> Fraction:
    """Independent route: shuffle then polynomial bridge moment + simplex."""
    blocks = [(i,) * m for i, m in sorted(spec.items())]
    combo = bridge.shuffle_multi(blocks)
    total = Fraction(0)
    for word, coeff in combo.items():
        poly = bridge.monomial_bridge_polynomial(word)
        total += coeff * bridge.simplex_integrate(poly, len(word))
    for _, m in spec.items():
        total *= math.factorial(m)
    return total


def test_criterion_5_bridge_oracle_agreement():
    rng = random.Random(5)
    specs = []
    while len(specs) < 10:
        r = rng.randint(1, 3)
        letters = rng.sample(range(1, 5), r)
        spec = {}
        weight = 0
        for i in letters:
            m = rng.randint(1, 3)
            if weight + i * m > 8:
                continue
            spec[i] = m
            weight += i * m
        if spec and spec not in specs:
            specs.append(spec)
    assert bridge.moment_product({1: 2}) == Fraction(1, 12)
    # every spec is evaluated on the same 200 000 seed-42 paths, simulated once
    estimates = bridge.mc_estimate_many(specs, 200_000, 1024, seed=42, n_workers=2)
    mc_checked = 0
    for spec, (est, se) in zip(specs, estimates):
        exact = bridge.moment_product(spec)
        assert exact == _moment_product_poly_route(spec), spec
        dev = abs(est - float(exact))
        assert dev <= 4 * se, (spec, exact, est, se, dev / se)
        mc_checked += 1
    _report(5, f"10 seeded moment specs agree across both exact routes and "
               f"{mc_checked} MC runs within 4 standard errors; x1^2 moment = 1/12")


def test_criterion_6_dawson_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    for n in (1, 2, 3):
        for _ in range(20):
            u = rng.uniform(0.25, 2.2, n)
            lhs, rhs, ok = sf.verify_dawson_simplex(n, u, tol=1e-9)
            assert ok, (n, list(u), lhs, rhs)
    for _ in range(5):
        u = rng.uniform(0.25, 2.2, 4)
        lhs, rhs, ok = sf.verify_dawson_simplex(4, u, tol=1e-5)
        assert ok, (list(u), lhs, rhs, abs(lhs - rhs))
    dt = time.perf_counter() - t0
    assert dt < 600.0
    _report(6, f"Dawson simplex identities pass: 20 draws each for n=1..3 at 1e-9, "
               f"5 draws for n=4 at 1e-5, one Gauss-Legendre rule ({dt:.1f}s)")


def test_criterion_7_mellin_kummer_identities():
    rng = np.random.default_rng(7)
    for _ in range(20):
        U = float(rng.uniform(0.2, 3.0))
        V = float(rng.uniform(-3.0, 3.0))
        lhs, rhs, ok = sf.verify_gaussian_multiplicity(U, V, tol=1e-8)
        assert ok and abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))
    for _ in range(20):
        U = float(rng.uniform(0.2, 3.0))
        V = float(rng.uniform(-3.0, 3.0))
        lhs, rhs, ok = sf.verify_mellin_z1(U, V)
        assert ok and abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs)), (U, V)
    for _ in range(20):
        z = complex(rng.uniform(0.6, 3.0), rng.uniform(-1.2, 1.2))
        U = float(rng.uniform(0.3, 2.5))
        V = float(rng.uniform(-2.5, 2.5))
        assert sf.verify_mellin_pm(z, U, V, tol=1e-8), (z, U, V)
    _report(7, "Gaussian-multiplicity, z=1 collapse (1e-9) and one-sided Mellin "
               "identities (1e-8) each pass 20 seeded draws")


def test_criterion_8_ford_zeta():
    prefix = zt.ford_prefix_string(1_000_000)
    for s in (2, 4):
        exact = float(zt.ford_zeta_exact(s))
        rel = abs(prefix.zeta(float(s)) - exact) / exact
        assert rel < 1e-6, (s, rel)
    half4 = zt.ford_zeta_exact(4) / Fraction(2)
    assert half4 == zt.ExactToken(Fraction(4725, 16), pi_pow=-8, zeta_num=(7,))
    target = 3.0 / (2.0 * math.pi**2)
    eps = 1e-5
    for d in (eps, -eps, eps * 1j, -eps * 1j):
        # first-order Richardson extrapolation of (s-1) zeta_L(s) toward s = 1
        f1 = complex(d) * zt.ford_zeta(1 + d)
        f2 = complex(d / 2) * zt.ford_zeta(1 + d / 2)
        limit = 2 * f2 - f1
        assert abs(limit - target) < 1e-6 * target, (d, limit)
    _report(8, "totient Dirichlet sums (n <= 1e6) match the closed form at s=2,4 "
               "to 1e-6; zeta_L(4)/2 = 4725 zeta(7)/(16 pi^8) exactly; residue at 1 ok")


def test_criterion_9_finite_string_oracle():
    string = zt.TruncatedString([(1, 1), (Fraction(1, 2), 1)])
    terms = pscc.round_heat_expansion(string, 3, pscc.S4Geometry())
    pole_rows = [t for t in terms if t.kind == "pole"]
    assert pole_rows == []
    for t in terms:
        M = t.provenance
        direct = sum(
            Fraction(m) * Fraction(r) ** (4 - 2 * M) * pscc.s4_heat_coefficient(M)
            for r, m in string.pairs
        )
        assert isinstance(t.coeff, Fraction) and t.coeff == direct, (M, t.coeff, direct)
    _report(9, "two-radius string bulk coefficients equal the rescaled "
               "single-metric sums exactly in rationals for M <= 3; pole list empty")


def test_criterion_10_ford_constants_reconciliation():
    rep = pscc.ford_constants_reconciliation()
    text = pscc.ford_constants_report_text()
    assert set(rep) == {"f(0)", "Lambda^1", "Lambda^2", "Lambda^4"}
    assert rep["Lambda^2"]["match"], rep["Lambda^2"]
    assert rep["Lambda^4"]["match"], rep["Lambda^4"]
    for row in ("f(0)", "Lambda^1"):
        entry = rep[row]
        assert entry["pipeline"] is not None and entry["printed"] is not None
        assert entry["ratio"] is not None
    assert "ratio" in text and "4725" in text
    print(text)
    _report(10, "reconciliation report produced; Lambda^2 and Lambda^4 rows match "
                "exactly; f(0) and Lambda^1 rows reported with ratios 7/27 and 1/2")


def test_criterion_11_uv_scaling_law():
    pairs = ((ex.R_MAIN, 0), (ex.R_PLUS, 2), (ex.R_MINUS, 0))
    cells = 0
    for r, m in pairs:
        for M in range(0, 5):
            assert ex.verify_uv_scaling(r, m, M), (r, m, M)
            cells += 1
    assert pscc.rescale_uv(1, 1, 2) == (Fraction(1, 4), Fraction(1, 2))
    _report(11, f"C^(r,m)_M -> a^(-2r-m) C^(r,m)_M verified symbolically on "
                f"{cells} cells (M <= 4, three (r,m) pairs)")
