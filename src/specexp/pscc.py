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
Each factor has one evaluator, exact wherever it can be: the string gives
``zeta(s)`` and ``poles(strip)``, and every F is a ``MellinFunction`` whose
evaluator returns ``ExactToken(0)`` where F vanishes exactly.  The F's are
each geometry's ``heat_mellin`` and the S^4-packing template's zeta_D/2.
The test function is one callable, ``moment(alpha)`` = f_alpha
(``gaussian_test_function``); the spectral action and the template hand it
to the core, which multiplies each bulk row by f_alpha and forms
F(sigma) f_sigma once per conjugate pair, so an action row is a heat row
weighted by a moment.

Non-round scaling (spatial sections only) weights each cell C^(r,m) of
``expansion.CELLS`` by zeta_string at its scaling exponent -2r-m (s = 3 and
s = 1); its pole terms have no closed form and are out of scope, so
``nonround_zeta_coefficients`` emits the bulk series only.  The RW heat
transform takes its residues a_2M(t) from ``expansion.heat_trace_series``.

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
from .expansion import ScaleFactor
from .specfun import gamma_complex
from .zeta import ExactToken, FordString, FractalString, PoleError, PoleTerm, _plain, string_poles

__all__ = [
    "CollisionError",
    "ExpansionTerm",
    "gaussian_test_function",
    "S4Geometry",
    "RWGeometry",
    "s4_heat_coefficient",
    "round_heat_expansion",
    "spectral_action",
    "s4_packing_action_terms",
    "ford_constants_reconciliation",
    "ford_constants_report_text",
    "nonround_zeta_coefficients",
    "MellinFunction",
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


def gaussian_test_function() -> Callable[[complex], complex | Fraction]:
    """The moments of f(x) = exp(-x^2), as the one callable the action takes.

    A test function is given by its moments: ``moment(alpha)`` returns
    f_alpha = int_0^inf f(v) v^(alpha-1) dv for Re alpha > 0 (complex alpha
    allowed), f(0) at alpha = 0, and the sign-normalized derivative value at
    negative even integers.  For the Gaussian f_alpha = Gamma(alpha/2)/2, and
    f(0) is the int 1.  At even alpha the moment is an exact Fraction:
    (alpha/2 - 1)!/2 at positive alpha and (2j)!/j! at alpha = -2j, so rows
    built from exact zeta values stay exact.
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

    return moment


# ----------------------------------------------------------------------
# the transform F and the one row core
# ----------------------------------------------------------------------

def _integer_at(s) -> int | None:
    """The integer k with |Re s - k| and |Im s| below 1e-12, else None."""
    k = round(s.real)
    return k if abs(s.imag) < 1e-12 and abs(s.real - k) < 1e-12 else None


@dataclass(frozen=True)
class MellinFunction:
    """A Mellin transform F: evaluator plus its table of simple poles.

    A pole ``PoleTerm(alpha, c)`` is the term c u^(-alpha) in the
    small-argument expansion of the inverse transform; a residue of None
    marks a pole past a truncation, checked for collisions but giving no
    term.  ``names`` holds the name a CollisionError gives each pole, one
    per pole ("the transform pole at alpha" when empty).  The transformed f
    is real, so F is real on the real axis: F(conj s) is taken as conj F(s).
    Where F vanishes exactly, the evaluator returns ``ExactToken(0)``.
    """

    evaluator: Callable[[complex], object]
    poles: tuple[PoleTerm, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.names and len(self.names) != len(self.poles):
            raise ValueError(f"{len(self.names)} names for {len(self.poles)} poles")

    def __call__(self, s):
        return self.evaluator(s)


def _exact_zero(c) -> bool:
    """Whether c is an exact 0 token: a row that stays 0 whatever f_s is, so
    the moment is not asked for there."""
    return isinstance(c, ExactToken) and not c.rat


def _coeff_mul(a, b):
    """Product of expansion coefficients: exact when both are, else numeric,
    with a complex of zero imaginary part given as its real part."""
    out = a * b
    return out.real if isinstance(out, complex) and out.imag == 0 else out


def _point_strip(s: complex):
    """The strip of half-width ``_COLLISION_TOL`` around s."""
    return ((s.real - _COLLISION_TOL, s.real + _COLLISION_TOL),
            (s.imag - _COLLISION_TOL, s.imag + _COLLISION_TOL))


def _singular_rows(string: FractalString, F: MellinFunction, strip, moment=None):
    """Singular expansion of the Mellin transform zeta_string(s) F(s) f_s.

    Each pole alpha of F with a residue c gives a bulk row (alpha,
    zeta_string(alpha) c f_alpha), in order.  Each string pole sigma in the
    strip gives a pole row (sigma, F(sigma) f_sigma Res_sigma), with F(sigma)
    f_sigma formed once per conjugate pair.  Without a moment f_s is 1.
    Every row is a ``_coeff_mul`` product, so a numeric row with a zero
    imaginary part is a float.  An exact nonzero product takes the pole's
    exact residue where it has one; an exact zero token from F is the row as
    it stands, and the moment is not asked for there.  A string pole on a
    pole of F raises CollisionError naming that pole: in the strip, and on a
    pole with a residue wherever it lies, since that pole's bulk row needs
    zeta_string there.  So does a pole of F missing from its table, met as
    F's ZeroDivisionError.
    """
    poles = [(complex(p.sigma), p) for p in string_poles(string, strip)]
    names = F.names or [f"the transform pole at {q.sigma}" for q in F.poles]
    at_bulk = [
        complex(p.sigma)
        for q in F.poles if q.residue is not None
        for p in string.poles(_point_strip(complex(q.sigma)))
    ]
    for sigma in [sigma for sigma, _ in poles] + at_bulk:
        for q, name in zip(F.poles, names):
            if abs(sigma - q.sigma) < _COLLISION_TOL:
                raise CollisionError(f"string pole at {_plain(sigma)} collides with {name}")
    bulk = [
        (q.sigma, _coeff_mul(string.zeta(q.sigma), q.residue))
        for q in F.poles
        if q.residue is not None
    ]
    if moment is not None:
        bulk = [(alpha, _coeff_mul(c, moment(alpha))) for alpha, c in bulk]
    values = {}  # F(sigma) f_sigma; f is real, so the product at conj s is its conjugate
    rows = []
    for sigma, p in poles:
        if sigma.conjugate() in values:
            c = values[sigma.conjugate()].conjugate()
        else:
            try:
                c = F(sigma)
            except ZeroDivisionError as exc:
                raise CollisionError(
                    f"string pole at {_plain(sigma)} lies on a pole of the transform "
                    f"outside its pole table") from exc
            if moment is not None and not _exact_zero(c):
                c = c * moment(sigma)
        values[sigma] = c
        if not _exact_zero(c):
            exact = isinstance(c, ExactToken) and p.exact is not None
            c = _coeff_mul(c, p.exact if exact else p.residue)
        rows.append((sigma, c))
    return bulk, rows


# ----------------------------------------------------------------------
# geometries and their heat transforms
# ----------------------------------------------------------------------

def _bulk_names(reach: int) -> tuple[str, ...]:
    return tuple(f"the bulk exponent 4-2M for M={M}" for M in range(reach + 1))


@dataclass(frozen=True)
class S4Geometry:
    """Unit round 4-sphere (time-integrated exact rational heat coefficients)."""

    def heat_mellin(self, max_m: int, strip) -> MellinFunction:
        """The heat trace's transform Gamma(s/2) zeta_D(s)/2.

        It has a pole at every bulk exponent 4-2M, listed down to the strip,
        with residue ``s4_heat_coefficient(M)`` up to max_m and None past
        it.  At the odd negative integers, where zeta(s-3) and zeta(s-1)
        both vanish, it is ``ExactToken(0)``.
        """
        reach = max(max_m, math.floor((4.0 - strip[0][0]) / 2.0))
        return MellinFunction(
            _s4_heat_transform,
            tuple(
                PoleTerm(4 - 2 * M, s4_heat_coefficient(M) if M <= max_m else None)
                for M in range(reach + 1)
            ),
            _bulk_names(reach),
        )


def _s4_heat_transform(s: complex):
    """Gamma(s/2) zeta_D(s)/2, an exact 0 where zeta_D is (the odd negative
    integers)."""
    half_zeta = _half_dirac_zeta(s)
    return half_zeta if _exact_zero(half_zeta) else gamma_complex(s / 2.0) * half_zeta


@dataclass(frozen=True)
class RWGeometry:
    """Robertson-Walker geometry evaluated pointwise at cosmic time t."""

    factor: ScaleFactor
    t: float

    def heat_mellin(self, max_m: int, strip) -> MellinFunction:
        """Transform of the truncated model series sum_M a_2M(t) tau^(2M-4).

        Each power tau^p contributes 1/(s + p), the continuation of its
        unit-interval Mellin integral (the tail carries no information about
        the asymptotic series), so the poles are the bulk exponents 4-2M for
        M <= max_m, with residues a_2M(t), and none lie past them.
        """
        coeffs = exp_mod.heat_trace_series(max_m, self.factor, self.t)
        return MellinFunction(
            lambda s: sum((c / (s + p) for p, c in coeffs), 0j),
            tuple(PoleTerm(-p, c) for p, c in coeffs),
            _bulk_names(max_m),
        )


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


def _heat_transform(geometry: Geometry, max_m: int, pole_strip):
    """The geometry's heat transform for M = 0..max_m and the strip to
    expand over, by default down to the last bulk exponent 4-2max_m."""
    if max_m < 0:
        raise ValueError("max_m must be non-negative")
    strip = pole_strip if pole_strip is not None else ((4.0 - 2.0 * max_m, 4.5), (-46.0, 46.0))
    return geometry.heat_mellin(max_m, strip), strip


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
    F, strip = _heat_transform(geometry, max_m, pole_strip)
    bulk, pole_rows = _singular_rows(string, F, strip)
    return [
        ExpansionTerm(exponent=Fraction(-alpha), coeff=c, kind="bulk", provenance=M)
        for M, (alpha, c) in enumerate(bulk)
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
    moment: Callable[[complex], object],
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
    They are the heat transform's rows, weighted in ``_singular_rows`` by
    ``moment(alpha)`` = f_alpha, as ``gaussian_test_function()`` gives it.
    ``lam`` is only validated (it must be positive and finite): the rows do
    not depend on it, and a caller evaluates a row at a cutoff with
    ``term_value(row, lam)``.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"Lambda must be positive and finite, got {lam!r}")
    F, strip = _heat_transform(geometry, max_m, pole_strip)
    bulk, pole_rows = _singular_rows(string, F, strip, moment)
    return [
        ExpansionTerm(Fraction(alpha), c, "bulk", M) for M, (alpha, c) in enumerate(bulk)
    ] + [
        ExpansionTerm(sigma, c, "pole", sigma, log_periodic)
        for sigma, c, log_periodic in _merge_conjugate_poles(pole_rows)
    ]


# ----------------------------------------------------------------------
# the S^4-packing leading-term template and its reconciliation report
# ----------------------------------------------------------------------

def s4_packing_action_terms(
    string: FractalString,
    moment: Callable[[complex], object] | None = None,
    pole_strip=None,
) -> list[ExpansionTerm]:
    """Leading spectral-action rows for a packing of round 4-spheres.

    Emits the packing template
        f(0) zeta_D(0) zeta_string(0),  f_2 Lambda^2 zeta_string(2)/2,
        f_4 Lambda^4 zeta_string(4)/2,  and per pole f_sigma zeta_D(sigma)/2 Res,
    with exact tokens wherever the string provides them.  Moment factors are
    included when ``moment`` is given; otherwise rows carry the bare
    zeta-side constants (the shape used for reconciliation reports).  Rows at
    poles where zeta_D is exactly 0 are an exact 0 either way.

    The rows come from ``_singular_rows`` with F = zeta_D/2 (exact at
    integers <= 1), bulk weights zeta_D(0), 1/2, 1/2 at the exponents 0, 2,
    4 and the moment, if given, as the weight; a string pole on one of those
    exponents raises CollisionError.
    """
    strip = pole_strip if pole_strip is not None else ((-8.5, 4.5), (-46.0, 46.0))
    half = Fraction(1, 2)
    F = MellinFunction(
        _half_dirac_zeta,
        (PoleTerm(0, zeta_mod.dirac_zeta_s4_exact(0)), PoleTerm(2, half), PoleTerm(4, half)),
        tuple(f"the bulk exponent {alpha}" for alpha in (0, 2, 4)),
    )
    bulk, pole_rows = _singular_rows(string, F, strip, moment)
    return [
        ExpansionTerm(Fraction(alpha), c, "bulk", f"Lambda^{alpha}" if alpha else "f(0)")
        for alpha, c in bulk
    ] + [ExpansionTerm(sigma, c, "pole", sigma) for sigma, c in pole_rows]


def _half_dirac_zeta(s: complex):
    """zeta_D(s)/2, an exact token at an integer s <= 1: the one evaluator of
    the S^4 Dirac zeta, for the heat transform and the packing template."""
    k = _integer_at(s)
    if k is not None and k <= 1:
        return zeta_mod.dirac_zeta_s4_exact(k) * Fraction(1, 2)
    return zeta_mod.dirac_zeta_s4(s) / 2.0


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

    Each cell (weight, r, m, shift) of ``expansion.CELLS`` scales as
    a^(-2r-m), so it carries the weight zeta_string(-2r-m): the series is
        1/4 (w3 C^(-5/2,2)_M - w1 C^(-1/2,0)_M) tau^(M-2)
      + 1/2  w3 C^(-3/2,0)_M tau^(M-4),
    with w3 = zeta_string(3) and w1 = zeta_string(1).  Pole contributions
    have no closed form here and are not emitted.  Without a geometry the
    rows carry the bare weights, labelled (M, "C(r,m)") for the even cell
    orders M <= max_m.  With one, the bridge-integrated cells are folded in
    and the rows are the complete coefficients of tau^(2K-4) for the half
    orders K <= max_m, as in ``expansion.heat_trace_series``.  A string with
    a pole at s = 1 (e.g. Ford) fails.
    """
    zetas = {}
    for s in dict.fromkeys(int(-2 * r - m) for _, r, m, _ in exp_mod.CELLS):
        try:
            zetas[s] = string.zeta(s)
        except PoleError as exc:
            raise PoleError(f"divergent zeta_string({s}) for this packing: {exc}") from exc
    cells = [(_coeff_mul(zetas[int(-2 * r - m)], weight), r, m, shift)
             for weight, r, m, shift in exp_mod.CELLS]
    if geometry is None:
        # odd orders integrate to zero against the bridge; within an order the
        # shifted cells (tau^(M-2)) come before the main one (tau^(M-4))
        return [ExpansionTerm(Fraction(M - 4 + 2 * shift), w, "bulk", (M, f"C({r},{m})"))
                for M in range(0, max_m + 1, 2)
                for w, r, m, shift in sorted(cells, key=lambda cell: -cell[3])]
    if isinstance(geometry, S4Geometry):
        raise ValueError("non-round scaling needs a pointwise RW geometry")
    derivs = lambda i: geometry.factor.deriv(i, geometry.t)  # noqa: E731
    rows = []
    for K in range(0, max_m + 1):
        # complete coefficient of tau^(2K-4): each cell at order 2K - 2 shift
        coeff = 0
        for w, r, m, shift in cells:
            if K >= shift:
                cell = exp_mod.integrated_cell(r, m, 2 * (K - shift))
                coeff += w * exp_mod.eval_numeric(cell, derivs)
        rows.append(ExpansionTerm(Fraction(2 * K - 4), coeff, "bulk", K))
    return rows


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
