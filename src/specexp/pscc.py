"""Multifractal expansions: packed-sphere heat traces and spectral actions.

Round scaling (whole-spacetime rescale by each packing radius) turns the
single-geometry expansion into bulk terms weighted by string zeta values at
4-2M plus one term per string pole sigma, weighted by the Mellin transform of
the heat trace at sigma.  The S^4 geometry uses the exact closed forms; a
Robertson-Walker geometry uses the pointwise heat coefficients and a
model-series Mellin transform (the transform is only determined by the
asymptotic series up to an entire function, and that singular part is what
the truncated-series transform reproduces pole by pole).

One core, ``_singular_rows``, builds every packed expansion: the transform
of sum_r f(x/r) is zeta_string(s) F(s), each pole alpha of F gives a bulk row
zeta_string(alpha) Res F, each string pole sigma a row F(sigma) Res zeta_string,
and a string pole on a pole of F raises ``CollisionError``.  The summed f is
real, so F is real on the real axis and is evaluated once per conjugate pair.
The S^4-packing template and the Ford reconciliation report come from it too.

Non-round scaling (spatial sections only) produces zeta-regularized bulk
weights at s = 3 and s = 1; its pole terms have no closed form and are out of
scope, so ``nonround_zeta_coefficients`` emits the bulk series only.

All assembly is pure; output ordering is deterministic (bulk by order, poles
by real then imaginary part).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import expansion as exp_mod
from . import zeta as zeta_mod
from .expansion import ScaleFactor, rescale_uv
from .specfun import gamma_complex
from .zeta import (
    ExactToken,
    FordString,
    FractalString,
    PoleError,
    PoleTerm,
    TruncatedString,
    string_poles,
)

__all__ = [
    "CollisionError",
    "ExpansionTerm",
    "TestFunctionMoments",
    "gaussian_test_function",
    "S4Geometry",
    "RWGeometry",
    "s4_heat_coefficient",
    "round_heat_expansion",
    "spectral_action",
    "s4_packing_action_terms",
    "ford_constants_reconciliation",
    "nonround_zeta_coefficients",
    "MellinFunction",
    "gamma_mellin",
    "singular_expansion_combine",
    "rescale_uv",
    "term_value",
    "expansion_to_json",
    "expansion_table",
]


class CollisionError(ValueError):
    """A string pole lies on a pole of the transform, such as a bulk exponent
    (hypothesis violation)."""


_COLLISION_TOL = 1e-9


@dataclass(frozen=True)
class ExpansionTerm:
    """One term of a heat-trace or spectral-action expansion.

    ``exponent`` is the power of tau (heat) or Lambda (action).  ``coeff`` may
    be exact (Fraction or ExactToken) or numeric.  Pole terms carry the pole
    location in ``provenance`` and, for conjugate pairs, the merged real
    log-periodic presentation {amplitude, a, b, phase} meaning
    amplitude * X^a cos(b ln X + phase).
    """

    exponent: complex | Fraction
    coeff: object
    kind: str  # "bulk" | "pole"
    provenance: object  # order M for bulk, sigma (complex) or a row label for poles
    log_periodic: dict | None = None


@dataclass(frozen=True)
class TestFunctionMoments:
    """Moments of the cutoff test function f.

    ``moment(alpha)`` must return f_alpha = int_0^inf f(v) v^(alpha-1) dv for
    Re alpha > 0 (complex alpha allowed), f(0) at alpha = 0, and the
    sign-normalized derivative value for negative even integers.
    """

    f0: float | int
    moment: Callable[[complex], complex | Fraction]


def gaussian_test_function() -> TestFunctionMoments:
    """Moments of f(x) = exp(-x^2): f_alpha = Gamma(alpha/2)/2 for Re alpha > 0.

    At even alpha the moment is an exact Fraction: (alpha/2 - 1)!/2 at positive
    alpha and (2j)!/j! at alpha = -2j, so rows built from exact zeta values
    stay exact.
    """

    def moment(alpha: complex) -> complex | Fraction:
        alpha = complex(alpha)
        if alpha == 0:
            return 1
        if alpha.imag == 0 and alpha.real.is_integer() and alpha.real % 2 == 0:
            n = int(alpha.real) // 2
            if n > 0:
                return Fraction(math.factorial(n - 1), 2)
            return Fraction(math.factorial(-2 * n) // math.factorial(-n))
        if alpha.imag == 0 and alpha.real < 0:
            raise ValueError("negative moments defined at even integers only")
        return gamma_complex(alpha / 2.0) / 2.0

    return TestFunctionMoments(f0=1, moment=moment)


def _moment_at(moments: TestFunctionMoments | None, alpha):
    """f_alpha, f(0) at alpha = 0, and 1 without a test function."""
    if moments is None:
        return 1
    return moments.f0 if alpha == 0 else moments.moment(alpha)


# ----------------------------------------------------------------------
# geometries
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class S4Geometry:
    """Unit round 4-sphere (time-integrated exact rational heat coefficients)."""


@dataclass(frozen=True)
class RWGeometry:
    """Robertson-Walker geometry evaluated pointwise at cosmic time t."""

    factor: ScaleFactor
    t: float


Geometry = S4Geometry | RWGeometry


def s4_heat_coefficient(M: int) -> Fraction:
    """Exact coefficient of tau^(2M-4) in the unit-S^4 heat trace.

    Leading terms 2/3 and -2/3; for M >= 2 the value
    (-1)^M zeta_D(4-2M) / (M-2)! from the Dirac zeta of the unit S^4.
    """
    if M < 0:
        raise ValueError("M must be non-negative")
    if M == 0:
        return Fraction(2, 3)
    if M == 1:
        return Fraction(-2, 3)
    return (-1) ** M * zeta_mod.dirac_zeta_s4_exact(4 - 2 * M).rat / math.factorial(M - 2)


def _bulk_coefficient(geometry: Geometry, M: int):
    if isinstance(geometry, S4Geometry):
        return s4_heat_coefficient(M)
    return exp_mod.eval_numeric(
        exp_mod.a2M(M), lambda i: geometry.factor.deriv(i, geometry.t)
    )


def _string_zeta_value(string: FractalString, s):
    """zeta_string(s), exact (token or Fraction) at an ``int`` s where the
    string allows it.  A complex s is evaluated as given, at its real part
    when it is real."""
    if not isinstance(s, int):
        return string.zeta(s if s.imag else s.real)
    if isinstance(string, FordString):
        return zeta_mod.ford_zeta_exact(s)
    if isinstance(string, TruncatedString) and string.pairs is not None and all(
        isinstance(r, (int, Fraction)) for r, _ in string.pairs
    ):
        return string.zeta(s)
    return string.zeta(complex(s))


def _coeff_mul(a, b):
    """Product of expansion coefficients: exact when both are, else numeric,
    with a complex of zero imaginary part given as its real part."""
    out = a * b
    return out.real if isinstance(out, complex) and out.imag == 0 else out


def _shown(sigma: complex):
    return sigma.real if sigma.imag == 0 else sigma


def _singular_rows(string: FractalString, transform, transform_poles, strip):
    """Singular expansion of the Mellin transform zeta_string(s) F(s).

    ``transform_poles`` lists the poles of F as (alpha, residue c, name); each
    gives a bulk value zeta_string(alpha) c, in order.  A residue of None
    marks a pole of F past the truncation: it gives no value but is checked
    like the others.  Each string pole sigma in the strip gives a pole row
    (sigma, F(sigma) Res_sigma), with F evaluated once per conjugate pair.
    An exact nonzero F(sigma) takes the pole's exact residue where it has
    one; an exact zero token from F is the row as it stands.  A string pole
    on a pole of F raises CollisionError naming that pole; so does a pole of
    F missing from ``transform_poles``, met as F's ZeroDivisionError.
    """
    poles = [(complex(p.sigma), p) for p in string_poles(string, strip)]
    for sigma, _ in poles:
        for alpha, _, name in transform_poles:
            if abs(sigma - alpha) < _COLLISION_TOL:
                raise CollisionError(f"string pole at {_shown(sigma)} collides with {name}")
    bulk = [
        _coeff_mul(_string_zeta_value(string, alpha), c)
        for alpha, c, _ in transform_poles
        if c is not None
    ]
    values = {}  # F(sigma); F is real on the real axis, so F(conj s) = conj F(s)
    rows = []
    for sigma, p in poles:
        if sigma.conjugate() in values:
            c = values[sigma.conjugate()].conjugate()
        else:
            try:
                c = transform(sigma)
            except ZeroDivisionError as exc:
                raise CollisionError(
                    f"string pole at {_shown(sigma)} lies on a pole of the transform "
                    f"outside its pole table") from exc
        values[sigma] = c
        if not isinstance(c, ExactToken):
            c = c * p.residue
        elif c.rat:
            c = _coeff_mul(c, p.residue if p.exact is None else p.exact)
        rows.append((sigma, c))
    return bulk, rows


def heat_mellin_model(coeffs: Sequence[tuple[int, float]], sigma: complex) -> complex:
    """Mellin transform of the truncated model series sum c tau^(2M-4).

    Each power tau^p contributes 1/(sigma + p) (the analytic continuation of
    its unit-interval Mellin integral; the tail carries no extra information
    about the asymptotic series).  Poles and residues reproduce the duality
    between series terms and transform poles.  ``_singular_rows`` checks every
    string pole against those poles before it asks for a value.
    """
    total = 0j
    for p, c in coeffs:
        total += c / (sigma + p)
    return total


def _heat_mellin(geometry: Geometry, sigma: complex, bulk: Sequence) -> complex:
    """tilde f(sigma) = Mellin transform of the single-geometry heat trace.

    ``bulk`` holds the geometry's coefficients c_2M for M = 0..maxM.
    """
    if isinstance(geometry, S4Geometry):
        return gamma_complex(sigma / 2.0) / 2.0 * zeta_mod.dirac_zeta_s4(sigma)
    return heat_mellin_model([(2 * M - 4, c) for M, c in enumerate(bulk)], sigma)


def _dirac_zeta_s4_exact_at(sigma: complex) -> ExactToken | None:
    """Exact zeta_D(sigma) where sigma is an integer <= 1, else None."""
    k = round(sigma.real)
    if abs(sigma.imag) < 1e-12 and abs(sigma.real - k) < 1e-12 and k <= 1:
        return zeta_mod.dirac_zeta_s4_exact(k)
    return None


def _round_scaling(string, max_m, geometry, pole_strip, moments=None):
    """Bulk values zeta_string(4-2M) c_2M for M = 0..max_m and the pole rows
    of the round-scaled expansion, from ``_singular_rows``.

    F is the heat trace's transform tilde-f, times f_sigma when ``moments``
    is given.  The bulk exponents 4-2M are the poles of tilde-f; on S^4 it
    has one at every 4-2M, so those past max_m are checked against the strip
    too.  The RW model transform has none past max_m.  Where zeta_D is
    exactly 0 (sigma = -1, -3, ...), the S^4 transform is its exact 0 token
    and f_sigma is not asked for.
    """
    if max_m < 0:
        raise ValueError("max_m must be non-negative")
    strip = pole_strip if pole_strip is not None else ((4.0 - 2.0 * max_m, 4.5), (-46.0, 46.0))
    bulk = [_bulk_coefficient(geometry, M) for M in range(0, max_m + 1)]
    s4 = isinstance(geometry, S4Geometry)
    reach = max(max_m, math.floor((4.0 - strip[0][0]) / 2.0)) if s4 else max_m
    transform_poles = [
        (4 - 2 * M, bulk[M] if M <= max_m else None, f"the bulk exponent 4-2M for M={M}")
        for M in range(0, reach + 1)
    ]

    def transform(s):
        if moments is None:
            return _heat_mellin(geometry, s, bulk)
        zd = _dirac_zeta_s4_exact_at(s) if s4 else None
        if zd is not None and not zd.rat:
            return zd
        return _heat_mellin(geometry, s, bulk) * moments.moment(s)

    return _singular_rows(string, transform, transform_poles, strip)


def round_heat_expansion(
    string: FractalString,
    max_m: int,
    geometry: Geometry,
    pole_strip=None,
) -> list[ExpansionTerm]:
    """Heat-trace expansion of the packed geometry under round scaling.

    Bulk terms tau^(2M-4) zeta_string(4-2M) c_2M plus, for every string pole
    sigma in the strip, a term tilde-f(sigma) Res_sigma tau^(-sigma).
    """
    bulk, pole_rows = _round_scaling(string, max_m, geometry, pole_strip)
    return [
        ExpansionTerm(exponent=Fraction(2 * M - 4), coeff=c, kind="bulk", provenance=M)
        for M, c in enumerate(bulk)
    ] + [ExpansionTerm(-sigma, c, "pole", sigma) for sigma, c in pole_rows]


# ----------------------------------------------------------------------
# spectral action under round scaling
# ----------------------------------------------------------------------

def _merge_conjugate_poles(pole_rows: list[tuple[complex, complex]]):
    """Collapse each sigma/conjugate pair to one log-periodic row, at the
    first member's position and represented by the member with Im > 0; keep
    real and unpaired poles.  Partners are exact conjugates."""
    coeffs = dict(pole_rows)
    out = {}
    for sigma, c in pole_rows:
        partner = sigma.conjugate()
        if abs(sigma.imag) < 1e-12 or partner not in coeffs:
            out[sigma] = (sigma, c, None)
        elif partner not in out:
            rep = sigma if sigma.imag > 0 else partner
            crep = coeffs[rep]
            out[sigma] = (rep, crep, {
                "amplitude": 2.0 * abs(crep),
                "a": rep.real,
                "b": rep.imag,
                "phase": math.atan2(crep.imag, crep.real),
            })
    return list(out.values())


def spectral_action(
    string: FractalString,
    moments: TestFunctionMoments,
    lam: float,
    max_m: int,
    geometry: Geometry,
    pole_strip=None,
) -> list[ExpansionTerm]:
    """Spectral-action expansion on the packed geometry, as Lambda-free rows.

    Each row is the coefficient of a power Lambda^exponent: bulk rows
    f_(4-2M) zeta_string(4-2M) c_2M at exponent 4-2M, pole rows
    tilde-f(sigma) f_sigma Res_sigma at exponent sigma, with complex-conjugate
    pole pairs merged into the real form 2|c| Lambda^a cos(b ln Lambda + phase).
    ``lam`` is only validated (it must be positive): the rows do not depend on
    it, and a caller evaluates a row at a cutoff with ``term_value(row, lam)``.
    """
    if lam <= 0:
        raise ValueError("Lambda must be positive")
    bulk, pole_rows = _round_scaling(string, max_m, geometry, pole_strip, moments)
    return [
        ExpansionTerm(
            Fraction(4 - 2 * M), _coeff_mul(zc, _moment_at(moments, 4 - 2 * M)), "bulk", M
        )
        for M, zc in enumerate(bulk)
    ] + [
        ExpansionTerm(sigma, c, "pole", sigma, log_periodic)
        for sigma, c, log_periodic in _merge_conjugate_poles(pole_rows)
    ]


# ----------------------------------------------------------------------
# the S^4-packing leading-term template and its reconciliation report
# ----------------------------------------------------------------------

def s4_packing_action_terms(
    string: FractalString,
    moments: TestFunctionMoments | None = None,
    pole_strip=None,
) -> list[ExpansionTerm]:
    """Leading spectral-action rows for a packing of round 4-spheres.

    Emits the packing template
        f(0) zeta_D(0) zeta_string(0),  f_2 Lambda^2 zeta_string(2)/2,
        f_4 Lambda^4 zeta_string(4)/2,  and per pole f_sigma zeta_D(sigma)/2 Res,
    with exact tokens wherever the string provides them.  Moment factors are
    included when ``moments`` is given; otherwise rows carry the bare
    zeta-side constants (the shape used for reconciliation reports).  Rows at
    poles where zeta_D is exactly 0 are an exact 0 either way.

    The rows come from ``_singular_rows`` with F = zeta_D/2 (exact at
    integers <= 1) and bulk weights zeta_D(0), 1/2, 1/2 at the exponents 0,
    2, 4; a string pole on one of those exponents raises CollisionError.
    The moments multiply the rows afterwards.
    """
    strip = pole_strip if pole_strip is not None else ((-8.5, 4.5), (-46.0, 46.0))
    half = Fraction(1, 2)
    transform_poles = [
        (alpha, c, f"the bulk exponent {alpha}")
        for alpha, c in ((0, zeta_mod.dirac_zeta_s4_exact(0)), (2, half), (4, half))
    ]

    def half_dirac_zeta(s):
        zd = _dirac_zeta_s4_exact_at(s)
        return zd * half if zd is not None else zeta_mod.dirac_zeta_s4(s) / 2.0

    bulk, pole_rows = _singular_rows(string, half_dirac_zeta, transform_poles, strip)
    rows = [
        ExpansionTerm(Fraction(alpha), _coeff_mul(c, _moment_at(moments, alpha)), "bulk",
                      f"Lambda^{alpha}" if alpha else "f(0)")
        for (alpha, _, _), c in zip(transform_poles, bulk)
    ]
    for sigma, c in pole_rows:
        # where zeta_D vanishes (sigma = -1, -3, ...) the row is an exact 0
        # whatever f_sigma is, so the moment is not asked for
        if not (isinstance(c, ExactToken) and not c.rat):
            c = _coeff_mul(c, _moment_at(moments, sigma))
        rows.append(ExpansionTerm(sigma, c, "pole", sigma))
    return rows


PUBLISHED_FORD_CONSTANTS = {
    "f(0)": ExactToken(Fraction(11, 140)),
    "Lambda^1": ExactToken(Fraction(1), pi_pow=-2),
    "Lambda^2": ExactToken(Fraction(45, 4), pi_pow=-4, zeta_num=(3,)),
    "Lambda^4": ExactToken(Fraction(4725, 16), pi_pow=-8, zeta_num=(7,)),
}


def ford_constants_reconciliation() -> dict:
    """Ford-packing leading-term report: pipeline values next to the printed
    constants, with their exact ratios.

    The Lambda^2 and Lambda^4 rows must agree; the f(0) and Lambda^1 rows are
    known to disagree with the printed table, so both values and their ratio
    are reported instead of asserting either.
    """
    # the strip holds only the Ford pole at s = 1, the Lambda^1 row
    rows = s4_packing_action_terms(FordString(), pole_strip=((1, 1), (0, 0)))
    pipeline = {"Lambda^1" if t.kind == "pole" else t.provenance: t.coeff for t in rows}
    report = {}
    for row, printed in PUBLISHED_FORD_CONSTANTS.items():
        pipe = pipeline[row]
        ratio = pipe / printed
        report[row] = {
            "pipeline": pipe,
            "printed": printed,
            "ratio": ratio,
            "match": pipe == printed,
        }
    return report


def ford_constants_report_text() -> str:
    rep = ford_constants_reconciliation()
    lines = ["row        pipeline                 printed                  ratio      match"]
    for row, data in rep.items():
        lines.append(
            f"{row:<10} {str(data['pipeline']):<24} {str(data['printed']):<24} "
            f"{str(data['ratio']):<10} {'yes' if data['match'] else 'NO'}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# non-round scaling: zeta-regularized bulk series
# ----------------------------------------------------------------------

def nonround_zeta_coefficients(
    string: FractalString,
    max_m: int,
    geometry: Geometry | None = None,
) -> list[ExpansionTerm]:
    """Bulk terms of the non-round-scaled expansion.

    The series carries weights zeta_string(3) and zeta_string(1):
        1/4 (w3 C^(-5/2,2)_M - w1 C^(-1/2,0)_M) tau^(M-2)
      + 1/2  w3 C^(-3/2,0)_M tau^(M-4).
    Pole contributions have no closed form here and are not emitted.  Without
    a geometry the rows carry the bare weights, labelled by their C-factor;
    with one, the bridge-integrated C-values are folded in and rows sharing a
    tau-power are merged.  A string with a pole at s = 1 (e.g. Ford) fails.
    """
    try:
        w3 = _string_zeta_value(string, 3)
        w1 = _string_zeta_value(string, 1)
    except PoleError as exc:
        raise PoleError(f"divergent zeta_string(1) for this packing: {exc}") from exc
    if geometry is None:
        rows = []
        for M in range(0, max_m + 1):
            if M % 2 == 1:
                continue  # odd orders integrate to zero against the bridge
            quarter_w3 = _coeff_mul(w3, Fraction(1, 4))
            quarter_w1 = _coeff_mul(w1, Fraction(-1, 4))
            half_w3 = _coeff_mul(w3, Fraction(1, 2))
            rows.append(
                ExpansionTerm(Fraction(M - 2), quarter_w3, "bulk", (M, "C(-5/2,2)"))
            )
            rows.append(
                ExpansionTerm(Fraction(M - 2), quarter_w1, "bulk", (M, "C(-1/2,0)"))
            )
            rows.append(
                ExpansionTerm(Fraction(M - 4), half_w3, "bulk", (M, "C(-3/2,0)"))
            )
        return rows
    if isinstance(geometry, S4Geometry):
        raise ValueError("non-round scaling needs a pointwise RW geometry")
    derivs = lambda i: geometry.factor.deriv(i, geometry.t)  # noqa: E731
    cell = exp_mod.integrated_cell
    rows = []
    for K in range(0, max_m + 1):
        # complete coefficient of tau^(2K-4): the 1/2-weighted main branch at
        # order 2K plus the 1/4-weighted pair at order 2K-2 (odd orders vanish)
        coeff = 0.5 * float(w3) * exp_mod.eval_numeric(cell(exp_mod.R_MAIN, 0, 2 * K), derivs)
        if K >= 1:
            c_plus = exp_mod.eval_numeric(cell(exp_mod.R_PLUS, 2, 2 * K - 2), derivs)
            c_minus = exp_mod.eval_numeric(cell(exp_mod.R_MINUS, 0, 2 * K - 2), derivs)
            coeff += 0.25 * (float(w3) * c_plus - float(w1) * c_minus)
        rows.append(ExpansionTerm(Fraction(2 * K - 4), coeff, "bulk", K))
    return rows


# ----------------------------------------------------------------------
# generic singular-expansion combination
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MellinFunction:
    """A Mellin transform: evaluator plus its table of simple poles.

    A pole at alpha with residue c corresponds to the term c u^(-alpha) in the
    small-argument expansion of the inverse transform.  The transformed f is
    real, so the evaluator is real on the real axis: its value at a conjugate
    point is taken as the conjugate of its value.
    """

    evaluator: Callable[[complex], complex]
    poles: tuple[PoleTerm, ...]


def gamma_mellin(max_order: int = 12) -> MellinFunction:
    """Mellin transform of exp(-u): Gamma, with poles at -k, residues (-1)^k/k!."""
    poles = tuple(
        PoleTerm(complex(-k, 0.0), complex((-1) ** k / math.factorial(k)))
        for k in range(0, max_order + 1)
    )
    return MellinFunction(evaluator=gamma_complex, poles=poles)


def singular_expansion_combine(
    string: FractalString, mellin_of_f: MellinFunction
) -> list[ExpansionTerm]:
    """Small-argument expansion of g(u) = sum over radii a of f(u/a).

    The transform of g is zeta_string(z) M(f)(z); its singular expansion
    merges the poles of M(f) (weighted by string zeta values) with the poles
    of the string zeta (weighted by M(f) values), with M(f) evaluated once
    per conjugate pair of string poles (f is real, so M(f) is real on the
    real axis).  The two pole sets must be disjoint.
    """
    transform_poles = [
        (complex(p.sigma), p.residue, f"the transform pole at {p.sigma}")
        for p in mellin_of_f.poles
    ]
    bulk, pole_rows = _singular_rows(string, mellin_of_f.evaluator, transform_poles, None)
    terms = [
        ExpansionTerm(-alpha, c, "bulk", alpha) for (alpha, _, _), c in zip(transform_poles, bulk)
    ] + [ExpansionTerm(-sigma, c, "pole", sigma) for sigma, c in pole_rows]
    terms.sort(key=lambda t: (complex(t.exponent).real, complex(t.exponent).imag))
    return terms


# ----------------------------------------------------------------------
# presentation helpers
# ----------------------------------------------------------------------

def term_value(term: ExpansionTerm, x: float) -> float:
    """Numeric value of a term at tau/Lambda = x (log-periodic rows evaluated
    in their merged real form)."""
    if term.log_periodic:
        lp = term.log_periodic
        return lp["amplitude"] * x ** lp["a"] * math.cos(lp["b"] * math.log(x) + lp["phase"])
    val = complex(term.coeff) * complex(x) ** complex(term.exponent)
    return val.real


def expansion_to_json(terms: Sequence[ExpansionTerm]) -> list[dict]:
    out = []
    for t in terms:
        expo = complex(t.exponent)
        row: dict = {
            "kind": t.kind,
            "exponent": {"re": expo.real, "im": expo.imag},
        }
        if isinstance(t.coeff, (Fraction, ExactToken)):
            row["coeff"] = {"exact": str(t.coeff), "value": float(t.coeff)}
        else:
            c = complex(t.coeff)
            row["coeff"] = {"re": c.real, "im": c.imag}
        if t.log_periodic:
            row["logPeriodic"] = dict(t.log_periodic)
        out.append(row)
    return out


def expansion_table(terms: Sequence[ExpansionTerm]) -> str:
    """Aligned plain-text table of an expansion."""
    lines = [f"{'exponent':>18}  {'coefficient':>24}  kind"]
    for t in terms:
        expo = complex(t.exponent)
        e_txt = f"{expo.real:.6g}" if expo.imag == 0 else f"{expo.real:.4g}{expo.imag:+.4g}i"
        if isinstance(t.coeff, (Fraction, ExactToken)):
            c_txt = str(t.coeff)
        else:
            c = complex(t.coeff)
            c_txt = f"{c.real:.10g}" if c.imag == 0 else f"{c.real:.6g}{c.imag:+.6g}i"
        extra = ""
        if t.log_periodic:
            lp = t.log_periodic
            extra = (
                f"  [{lp['amplitude']:.6g} X^{lp['a']:.4g} "
                f"cos({lp['b']:.6g} ln X {lp['phase']:+.4g})]"
            )
        lines.append(f"{e_txt:>18}  {c_txt:>24}  {t.kind}{extra}")
    return "\n".join(lines)
