"""Assembly of the Laurent coefficients C^(r,m)_M and the heat coefficients.

Two independent routes build the same series.  The Bell route organizes it
through partial Bell polynomials over the u- and v-sequences

    u_n = B^(n)(t) 2^(n/2) x_n(alpha),     v_n = A^(n+1)(t) 2^(n/2) x_n(alpha),

with u_0 = B and v_0 = A'.  Its Bell pieces are read straight off the int
templates of ``bell.bell_template`` into read-only dicts {(monomial,
letters): int}, memoised per index pair and shared by every cell and order.
``crm_direct`` enumerates the flat composition sum instead.  Both leave out
the letter weights 2^(n/2).  ``integrate_bridge`` replaces every formal
letter multiset by its exact bridge moment times the multiset's weight
2^(degree/2), which is rational because only multisets of even letter degree
have a nonzero moment (asserted).  ``integrated_cell`` integrates the Bell
blocks of a cell (``_cell_blocks``) without expanding them into terms: the
sum runs in ints over one denominator, and both integrations share that
core.  ``CELLS`` is the one table of the cells of a_2M, their weights and
order shifts; ``a2M`` puts the blocks of its cells through the same core in
one pass, giving the coefficient of tau^(2M-4) in the heat trace, pointwise
in t, and ``pscc.nonround_zeta_coefficients`` weights the same cells apart.
``heat_trace_series`` evaluates a_2M at a time t.  ``crm_bell`` (the same
blocks expanded into terms) and ``crm_direct`` never feed ``a2M``: through
``integrate_bridge`` they are the oracles the tests hold it to.

Assembly is pure and exact: the sums are over ints or Fractions, and the term
lists come in canonical key order, so output is bit-identical however the
work is scheduled.  The memo tables are only ever filled with identical
values; ``_clear_caches`` empties them for cold timings.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Sequence

from . import bell, bridge, symcore
from .symcore import (
    DerivMonomial,
    SymPoly,
    _MONOMIAL_ONE,
    _acc,
    eval_numeric,
    to_a_form,
)

__all__ = [
    "MomentTerm",
    "crm_direct",
    "crm_bell",
    "integrate_bridge",
    "integrated_cell",
    "a2M",
    "CELLS",
    "heat_trace_series",
    "ScaleFactor",
    "scale_factor",
    "FAMILIES",
    "rescale_uv",
    "term_scaling_exponent",
    "verify_uv_scaling",
    "ConsistencyError",
]


class ConsistencyError(RuntimeError):
    """Internal cross-check failed (e.g. a nonzero moment at odd letter degree)."""


@dataclass(frozen=True)
class MomentTerm:
    """One summand of a C^(r,m)_M series before bridge integration.

    ``scalar`` carries the rational factors except the letter weight
    2^(degree/2), which ``integrate_bridge`` applies; ``sym`` is the
    derivative monomial in A/B symbols, and ``letters`` the multiset of formal
    x_n(alpha) markers as a sorted tuple (letter 0 is absorbed since x_0 = 1).
    """

    scalar: Fraction
    sym: DerivMonomial
    letters: tuple[int, ...]

    def sym_poly(self) -> SymPoly:
        return SymPoly.monomial(self.sym, self.scalar)


@lru_cache(maxsize=None)
def _binom_general(top: Fraction, k: int) -> Fraction:
    """Falling-factorial binomial: top can be any rational."""
    out = Fraction(1)
    for j in range(k):
        out *= top - j
    return out / math.factorial(k)


def _compositions(n: int):
    """Ordered tuples of positive integers summing to n (one empty for n=0)."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _compositions_list(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_compositions(n))


def _half_units(x: Fraction) -> int:
    """Exact 2x as an int; rejects values that are not half-integers."""
    two_x = 2 * Fraction(x)
    if two_x.denominator != 1:
        raise ValueError(f"{x} is not a half-integer")
    return int(two_x)


def crm_direct(r: Fraction | int, m: int, M: int) -> list[MomentTerm]:
    """Terms of C^(r,m)_M by direct enumeration of the composition sum.

    The sum runs over n >= 0 with N = M - 2n >= 0, ordered tuples
    (l_1..l_k) and (q_1..q_p) of positive integers with total N, weighted by
    binom(r-n, k) binom(2n+m, p) / (4^n n!) and the per-letter factors
    1/l!.  The letter weights multiply to 2^(N/2), N the letter degree, which
    ``integrate_bridge`` applies; the terms of odd N integrate to zero there.
    """
    r = Fraction(r)
    if m < 0 or M < 0:
        raise ValueError("m and M must be non-negative")
    two_r = _half_units(r)
    terms: list[MomentTerm] = []
    for n in range(0, M // 2 + 1):
        N = M - 2 * n
        base = Fraction(1, 4**n * math.factorial(n))
        for beta in range(0, N + 1):
            for ls in _compositions_list(beta):
                k = len(ls)
                bin_u = _binom_general(r - n, k)
                if bin_u == 0:
                    continue
                for qs in _compositions_list(N - beta):
                    p = len(qs)
                    bin_v = _binom_general(Fraction(2 * n + m), p)
                    if bin_v == 0:
                        continue
                    rat = base * bin_u * bin_v
                    for l in ls:
                        rat /= math.factorial(l)
                    for q in qs:
                        rat /= math.factorial(q)
                    b_exp = Counter(ls)
                    a_exp = Counter(q + 1 for q in qs)
                    a_exp[1] += 2 * n + m - p
                    mono = DerivMonomial(
                        two_r - 2 * n - 2 * k,
                        tuple(a_exp.items()),
                        tuple(b_exp.items()),
                    )
                    terms.append(MomentTerm(rat, mono, tuple(sorted(ls + qs))))
    return terms


# ----------------------------------------------------------------------
# Bell-polynomial route
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bell_piece(n: int, k: int, v_side: bool) -> MappingProxyType:
    """B_{n,k} over the v-letters when ``v_side``, else over the u-letters,
    as a read-only view of the memoised dict {(monomial, letters): int}.

    Read straight off ``bell.bell_template(n, k)``: an entry (c, lambda) is
    the term c prod_i x_i^lambda_i, with monomial prod B^(i)^lambda_i (u
    side) or prod A^(i+1)^lambda_i (v side) and letters i repeated lambda_i
    times, already in order.  A letter carries no 2^(i/2) weight: the bridge
    integration applies 2^(degree/2) once per letter multiset.  The piece
    depends on (n, k) only, not on the width of the cell it sits in, so one
    evaluation serves every cell of every order.
    """
    terms = {}
    for coeff, lam in bell.bell_template(n, k):
        parts = [(i, m) for i, m in enumerate(lam, start=1) if m]
        if v_side:
            mono = DerivMonomial(0, [(i + 1, m) for i, m in parts], ())
        else:
            mono = DerivMonomial(0, (), parts)
        terms[(mono, tuple(i for i, m in parts for _ in range(m)))] = coeff
    return MappingProxyType(terms)


@lru_cache(maxsize=None)
def _bell_pair(width: int, k: int, p: int) -> MappingProxyType:
    """sum over beta of binom(width, beta) B_{beta,k}(u) B_{width-beta,p}(v),
    as a read-only view of the memoised dict {(monomial, letters): int}.

    A u-term holds only B-derivatives and a v-term only A-derivatives, so a
    product's monomial is DerivMonomial(0, a_v, b_u) with no exponents to
    merge.  Its B-derivatives fix lambda_u, hence beta, and its
    A-derivatives lambda_v, so every (beta, lambda_u, lambda_v) writes a key
    of its own.  The pair depends on no cell parameter (r, m, n), so all
    three cells of an ``a2M`` and all orders draw on one table.
    """
    out: dict = {}
    for beta in range(0, width + 1):
        u_terms = _bell_piece(beta, k, False)
        v_terms = _bell_piece(width - beta, p, True)
        if not (u_terms and v_terms):
            continue
        weight = math.comb(width, beta)
        for (u_mono, u_letters), c_u in u_terms.items():
            b_u, c_u = u_mono[2], weight * c_u
            for (v_mono, v_letters), c_v in v_terms.items():
                # both exponent tuples are normalised: build, do not re-validate
                mono = tuple.__new__(DerivMonomial, (0, v_mono[1], b_u))
                out[(mono, tuple(sorted(u_letters + v_letters)))] = c_u * c_v
    return MappingProxyType(out)


def _cell_blocks(r: Fraction | int, m: int, order: int):
    """The Bell blocks of C^(r,m)_{order}: (num, den, base monomial, Bell pair).

    One block per (n, k, p) with a nonzero prefactor and pair: the prefactor
    num/den = binom(r-n,k) binom(2n+m,p) k! p! / (4^n n! (2M-2n)!) as two
    ints, not reduced, the base u_0^(r-n-k) v_0^(2n+m-p) as a
    ``DerivMonomial`` and the terms {(monomial, letters): int} of the
    memoised ``_bell_pair(2M-2n, k, p)``.  binom(r-n,k) k! is the falling
    factorial prod_j (2r-2n-2j) / 2^k and binom(2n+m,p) p! an integer one.
    """
    if order % 2 != 0 or order < 0:
        raise ValueError("crm_bell expects an even non-negative target order")
    M = order // 2
    two_r = _half_units(r)
    for n in range(0, M + 1):
        width = 2 * M - 2 * n
        top_v = 2 * n + m
        den_n = 4**n * math.factorial(n) * math.factorial(width)
        fall_u = 1
        for k in range(0, width + 1):
            if k:
                fall_u *= two_r - 2 * n - 2 * (k - 1)
                if not fall_u:
                    break  # binom(r-n, k) = 0 from here on
            fall_v = 1
            for p in range(0, min(width - k, top_v) + 1):  # binom(2n+m, p) = 0 beyond
                if p:
                    fall_v *= top_v - p + 1
                pair = _bell_pair(width, k, p)
                if not pair:
                    continue
                # a normalised exponent tuple holds no zero: build, do not re-validate
                v_0 = ((1, top_v - p),) if top_v > p else ()
                base = tuple.__new__(DerivMonomial, (two_r - 2 * n - 2 * k, v_0, ()))
                yield fall_u * fall_v, 2**k * den_n, base, pair


def crm_bell(r: Fraction | int, m: int, order: int) -> list[MomentTerm]:
    """Terms of C^(r,m)_{order} (order = 2M even) via partial Bell polynomials.

    Same series as ``crm_direct`` reorganized as
    sum over n, k, p, beta of  binom(r-n,k) binom(2n+m,p) binom(2M-2n,beta)
    k! p! / (4^n n! (2M-2n)!) u_0^(r-n-k) v_0^(2n+m-p)
    B_{beta,k}(u_1,...) B_{2M-2n-beta,p}(v_1,...).

    The sum over beta is a memoised ``_bell_pair``; the blocks come from
    ``_cell_blocks``, which ``integrated_cell`` integrates without expanding
    them into terms.  Every term has even letter degree 2M-2n, the width of
    its piece; its letter weight 2^((2M-2n)/2) is left to ``integrate_bridge``.
    """
    total: dict = {}
    for num, den, base, pair_terms in _cell_blocks(r, m, order):
        for (mono, letters), c in pair_terms.items():
            _acc(total, (base * mono, letters), Fraction(c * num, den))
    return [
        MomentTerm(c, mono, letters)
        for (mono, letters), c in sorted(
            total.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1])
        )
    ]


# ----------------------------------------------------------------------
# bridge integration and heat coefficients
# ----------------------------------------------------------------------

def _weighted_moment(letters: tuple[int, ...]) -> Fraction:
    """Bridge moment of a letter multiset times its weight 2^(degree/2).

    An odd degree must have moment zero; a nonzero one signals an internal
    inconsistency and raises ConsistencyError.
    """
    if not letters:
        return Fraction(1)
    moment = bridge.moment_product(Counter(letters))
    degree = sum(letters)
    if degree % 2:
        if moment:
            raise ConsistencyError(f"moment {moment} of odd letter degree at {letters}")
        return Fraction(0)
    return moment * 2 ** (degree // 2)


def _integrate_blocks(blocks: list) -> SymPoly:
    """Sum of num/den * base * sum c * mono * weighted_moment(letters) over
    ``blocks`` = [(num, den, base, {(mono, letters): int c})], in int arithmetic.

    Each distinct letter multiset's weighted moment is computed once.  The
    prefactors are scaled to their lcm denominator D1 and the moments to
    theirs, D2, so every monomial accumulates an int and each output
    coefficient is one ``Fraction(num, D1 * D2)``.
    """
    moments: dict = {}
    for _, _, _, terms in blocks:
        for _, letters in terms:
            if letters not in moments:
                moments[letters] = _weighted_moment(letters)
    d1 = math.lcm(*(den for _, den, _, _ in blocks))
    d2 = math.lcm(*(w.denominator for w in moments.values()))
    scaled = {letters: w.numerator * (d2 // w.denominator) for letters, w in moments.items()}
    acc: dict[DerivMonomial, int] = {}
    for num, den, base, terms in blocks:
        num *= d1 // den
        for (mono, letters), c in terms.items():
            w = scaled[letters]
            if w:
                key = base * mono
                acc[key] = acc.get(key, 0) + num * c * w
    den = d1 * d2
    return SymPoly._wrap({mono: Fraction(v, den) for mono, v in acc.items() if v})


def integrate_bridge(terms: Iterable[MomentTerm]) -> SymPoly:
    """Replace each letter multiset by its weighted exact bridge moment and sum.

    The weight of a multiset of letter degree d is 2^(d/2), the product of
    the letters' 2^(n/2); it is applied here, once per term, and is rational
    because d is even.  A term of odd degree must integrate to zero and is
    skipped; a nonzero moment there signals an internal inconsistency and
    raises ConsistencyError.  The sum runs in the integer core of
    ``integrated_cell``, one block per term.
    """
    blocks = []
    for t in terms:
        scalar = Fraction(t.scalar)
        blocks.append((scalar.numerator, scalar.denominator, _MONOMIAL_ONE,
                       {(t.sym, t.letters): 1}))
    return _integrate_blocks(blocks)


R_MAIN = Fraction(-3, 2)
R_PLUS = Fraction(-5, 2)
R_MINUS = Fraction(-1, 2)

# The cells of a_2M as (weight, r, m, shift): C^(r,m) enters a_2M at order
# 2M - 2 shift, and under a spatial rescaling it scales as a^(-2r-m).
CELLS = (
    (Fraction(1, 2), R_MAIN, 0, 0),
    (Fraction(1, 4), R_PLUS, 2, 1),
    (Fraction(-1, 4), R_MINUS, 0, 1),
)


@lru_cache(maxsize=None)
def integrated_cell(r: Fraction | int, m: int, order: int) -> SymPoly:
    """C^(r,m)_{order} integrated against the bridge, for a caller that
    weights the cells apart (``pscc.nonround_zeta_coefficients``).

    The Bell blocks of ``crm_bell`` are integrated directly, in int
    arithmetic over one denominator, without expanding them into terms;
    ``integrate_bridge(crm_bell(...))`` is the same polynomial, and ``a2M``
    runs the same core over three cells at once.
    """
    return _integrate_blocks(list(_cell_blocks(r, m, order)))


@lru_cache(maxsize=None)
def a2M(M: int) -> SymPoly:
    """Coefficient of tau^(2M-4) in the heat trace, pointwise in t.

    The sum over ``CELLS`` of weight * C^(r,m)_{2M-2 shift} integrated
    against the bridge measure: a_0 = B^(-3/2)/2, and for M >= 1
    1/2 C_{2M}^(-3/2,0) + 1/4 C_{2M-2}^(-5/2,2) - 1/4 C_{2M-2}^(-1/2,0).
    The Bell blocks of the cells, their prefactors scaled by the weights,
    are integrated in one pass of ``integrated_cell``'s int core, so each
    output coefficient is one Fraction.  ``crm_direct`` is the independent
    oracle the tests compare it with.
    """
    if M < 0:
        raise ValueError("M must be non-negative")
    return _integrate_blocks([
        (weight.numerator * num, weight.denominator * den, base, terms)
        for weight, r, m, shift in CELLS if M >= shift
        for num, den, base, terms in _cell_blocks(r, m, 2 * (M - shift))
    ])


def _clear_caches() -> None:
    """Forget every memo behind ``a2M`` and ``to_a_form``: the next build is cold."""
    for memo in (a2M, integrated_cell, _bell_pair, _bell_piece, _binom_general,
                 bell.bell_template, bridge._kernels, bridge._wick, bridge._moment,
                 symcore._deriv_power, symcore._inverse_power_deriv):
        memo.cache_clear()


# ----------------------------------------------------------------------
# scale-factor families and numeric evaluation
# ----------------------------------------------------------------------

def _falling(alpha: float, i: int) -> float:
    out = 1.0
    for j in range(i):
        out *= alpha - j
    return out


@dataclass(frozen=True)
class ScaleFactor:
    """Named expansion-factor family; deriv(i, t) returns a^(i)(t)."""

    name: str
    deriv: Callable[[int, float], float]


def _power_law(name: str, base: float, p: float) -> ScaleFactor:
    """a(t) = base * t^p, defined for t >= 0 (t = 0 is singular from i > p on)."""

    def deriv(i: int, t: float) -> float:
        if not t >= 0:
            raise ValueError(f"the {name} scale factor needs t >= 0, got {t!r}")
        return base * _falling(p, i) * t ** (p - i)

    return ScaleFactor(name, deriv)


def scale_factor(
    family: str, H: float = 1.0, fn: Callable[[int, float], float] | None = None
) -> ScaleFactor:
    """Build a scale factor: inflation, radiation, matter, empty, sphere, custom.

    Every family that uses H needs it finite; radiation and matter need H > 0,
    and empty needs H != 0 (at H = 0, a = H t vanishes identically).
    """
    if family in ("inflation", "radiation", "matter", "empty") and not math.isfinite(H):
        raise ValueError(f"the {family} scale factor needs a finite H, got {H!r}")
    if family == "inflation":
        return ScaleFactor("inflation", lambda i, t: H**i * math.exp(H * t))
    if family in ("radiation", "matter"):
        if not H > 0:
            raise ValueError(f"the {family} scale factor needs H > 0, got {H!r}")
        if family == "radiation":
            return _power_law("radiation", math.sqrt(2 * H), 0.5)
        return _power_law("matter", (1.5 * H) ** (2.0 / 3.0), 2.0 / 3.0)
    if family == "empty":
        if H == 0:
            raise ValueError("the empty scale factor needs H != 0, got 0")
        return ScaleFactor(
            "empty", lambda i, t: H * t if i == 0 else (H if i == 1 else 0.0)
        )
    if family == "sphere":
        def sphere_deriv(i: int, t: float) -> float:
            return (math.sin, math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x))[
                i % 4
            ](t)

        return ScaleFactor("sphere", sphere_deriv)
    if family == "custom":
        if fn is None:
            raise ValueError("custom family needs a derivative callback")
        return ScaleFactor("custom", fn)
    raise ValueError(f"unknown scale-factor family {family!r}")


FAMILIES = ("inflation", "radiation", "matter", "empty", "sphere", "custom")


def heat_trace_series(
    max_m: int, factor: ScaleFactor, t: float
) -> list[tuple[int, float]]:
    """Pointwise heat-trace coefficients [(2M-4, a_{2M}(t))] for M <= max_m.

    Time integration (and any cutoff regularization it may need) is left to
    the caller.
    """
    if max_m < 0:
        raise ValueError("max_m must be non-negative")
    out = []
    for M in range(0, max_m + 1):
        value = eval_numeric(a2M(M), lambda i: factor.deriv(i, t))
        out.append((2 * M - 4, value))
    return out


# ----------------------------------------------------------------------
# rescaling (constant conformal factor on the spatial sections)
# ----------------------------------------------------------------------

def rescale_uv(U, V, a):
    """Map (U, V) -> (a^-2 U, a^-1 V) for a constant spatial rescaling a > 0."""
    if a <= 0:
        raise ValueError("rescaling factor must be positive")
    if isinstance(a, (int, Fraction)) and not isinstance(a, bool):
        a = Fraction(a)
    return (U / a**2, V / a)


def term_scaling_exponent(term: MomentTerm) -> Fraction:
    """Exponent e with term -> a^e term under B -> a^-2 B, A' -> a^-1 A'.

    Every B-symbol (including the half-power block) came from a u-factor and
    every A-symbol from a v-factor, so e = -(b_half + 2*sum b_exp + sum a_exp).
    """
    mono = term.sym
    return -Fraction(
        mono.b_half
        + 2 * sum(e for _, e in mono.b_exp)
        + sum(e for _, e in mono.a_exp)
    )


def verify_uv_scaling(r: Fraction | int, m: int, M: int) -> bool:
    """Check C^(r,m)_M -> a^(-2r-m) C^(r,m)_M termwise (exact, symbolic)."""
    expected = -(2 * Fraction(r) + m)
    return all(
        term_scaling_exponent(t) == expected for t in crm_direct(r, m, M)
    )
