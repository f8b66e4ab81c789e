"""Riemann zeta on C, fractal-string zeta functions, and the S^4 Dirac zeta.

The numeric Riemann zeta and its derivative are ``mpmath.zeta`` evaluated at
30 working digits, so values keep ~1e-12 relative accuracy even near zeros.
Exact values at integers are returned as structured ``ExactToken`` objects:
products rational * pi^k * zeta(odd)^(+-1).

Fractal strings describe the multiset of radii of a packing.  Three variants:
the Ford-circle string (closed form 2^-s zeta(2s-1)/zeta(2s)), truncated
explicit radius lists, and user-supplied analytic descriptors with a pole
table.  Each gives one evaluator, ``zeta(s)``, exact where the string allows
(an int s on the Ford string, an integer s on rational radii) and taken at
Re s for a complex s on the real axis, and ``poles(strip)``, the simple poles
in a strip with their residues.  For the Ford string these are s=1, the
negative integers (trivial zeros of zeta(2s)) and half the nontrivial zeros.
Their ordinates and residues ship as data files for the first 25 zeros, read
once with shape checks only, and a strip that reaches past them raises
``PoleError``.  ``check_pole_table`` re-derives them (Hardy-Z sign
bracketing, the residue formula) for the tests and ``verify --suite poles``.
Ford residues are memoised per pole; those at s = 1 and s = -k are exact
tokens.

Evaluators are pure; the pole table is immutable after load.  numpy is
imported only where an array string is built or summed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import mpmath as mp

if TYPE_CHECKING:
    from numpy import ndarray
else:
    ndarray = Any  # numpy is imported lazily; at run time hints resolve to Any

__all__ = [
    "PoleError",
    "ExactToken",
    "bernoulli_number",
    "riemann_zeta",
    "zeta_exact",
    "zeta_derivative",
    "ford_zeta",
    "ford_zeta_exact",
    "FordString",
    "TruncatedString",
    "AnalyticString",
    "PoleTerm",
    "string_poles",
    "dirac_zeta_s4",
    "dirac_zeta_s4_exact",
    "euler_totient_sieve",
    "ford_prefix_string",
    "zero_ordinates",
    "PoleTableError",
    "check_pole_table",
    "string_from_json",
    "load_string",
]


class PoleError(ValueError):
    """Evaluation requested at (or too close to) a pole or a zero denominator."""


# ----------------------------------------------------------------------
# Bernoulli numbers (exact)
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """B_n with B_1 = -1/2 (``mpmath.bernfrac``)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return Fraction(*mp.bernfrac(n))


# ----------------------------------------------------------------------
# exact value tokens
# ----------------------------------------------------------------------

def _cancel(num: tuple[int, ...], den: tuple[int, ...]):
    ln, ld = list(num), []
    for d in den:
        if d in ln:
            ln.remove(d)
        else:
            ld.append(d)
    return tuple(sorted(ln)), tuple(sorted(ld))


@dataclass(frozen=True)
class ExactToken:
    """Structured exact value: rat * pi^pi_pow * prod zeta(n)/prod zeta(m).

    The zeta arguments are odd integers >= 3 (values not expressible through
    powers of pi).  Tokens multiply, divide and compare structurally; a
    product with a float or complex is the float product ``float(token) * x``.
    """

    rat: Fraction
    pi_pow: int = 0
    zeta_num: tuple[int, ...] = ()
    zeta_den: tuple[int, ...] = ()

    def __post_init__(self):
        num, den = _cancel(tuple(sorted(self.zeta_num)), tuple(sorted(self.zeta_den)))
        object.__setattr__(self, "rat", Fraction(self.rat))
        object.__setattr__(self, "zeta_num", num if self.rat else ())
        object.__setattr__(self, "zeta_den", den if self.rat else ())
        if not self.rat:
            object.__setattr__(self, "pi_pow", 0)

    def __mul__(self, other):
        if isinstance(other, (float, complex)):
            return float(self) * other
        if isinstance(other, (int, Fraction)):
            return ExactToken(self.rat * other, self.pi_pow, self.zeta_num, self.zeta_den)
        return ExactToken(
            self.rat * other.rat,
            self.pi_pow + other.pi_pow,
            self.zeta_num + other.zeta_num,
            self.zeta_den + other.zeta_den,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactToken(self.rat / other, self.pi_pow, self.zeta_num, self.zeta_den)
        if other.rat == 0:
            raise ZeroDivisionError("division by zero token")
        return ExactToken(
            self.rat / other.rat,
            self.pi_pow - other.pi_pow,
            self.zeta_num + other.zeta_den,
            self.zeta_den + other.zeta_num,
        )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactToken(Fraction(other))
        if self.rat == 0:
            return other
        if other.rat == 0:
            return self
        if (self.pi_pow, self.zeta_num, self.zeta_den) != (
            other.pi_pow,
            other.zeta_num,
            other.zeta_den,
        ):
            raise ValueError("cannot add tokens with different transcendental parts")
        return ExactToken(self.rat + other.rat, self.pi_pow, self.zeta_num, self.zeta_den)

    def __sub__(self, other):
        return self + (other * Fraction(-1))

    def __neg__(self):
        return self * Fraction(-1)

    def __float__(self):
        """Correctly rounded double of the exact value.

        The whole product is formed in mpmath with guard digits and rounded
        to a float once; rounding each factor first can miss by a few ulp.
        """
        with mp.workdps(40):
            val = mp.mpf(self.rat.numerator) / self.rat.denominator
            val *= mp.pi**self.pi_pow
            for n in self.zeta_num:
                val *= mp.zeta(n)
            for n in self.zeta_den:
                val /= mp.zeta(n)
            return float(val)

    def __str__(self):
        if self.rat == 0:
            return "0"
        num_parts = []
        den_parts = []
        if self.rat.numerator != 1 or (
            self.pi_pow <= 0 and not self.zeta_num
        ):
            num_parts.append(str(self.rat.numerator))
        if self.pi_pow > 0:
            num_parts.append(f"pi^{self.pi_pow}" if self.pi_pow != 1 else "pi")
        for n in self.zeta_num:
            num_parts.append(f"zeta({n})")
        if self.rat.denominator != 1:
            den_parts.append(str(self.rat.denominator))
        if self.pi_pow < 0:
            den_parts.append(f"pi^{-self.pi_pow}" if self.pi_pow != -1 else "pi")
        for n in self.zeta_den:
            den_parts.append(f"zeta({n})")
        num = "*".join(num_parts) if num_parts else "1"
        if not den_parts:
            return num
        den = "*".join(den_parts)
        return f"{num}/({den})" if len(den_parts) > 1 else f"{num}/{den}"

    __repr__ = __str__


# ----------------------------------------------------------------------
# Riemann zeta: mpmath at 30 digits
# ----------------------------------------------------------------------

_DPS = 30


def riemann_zeta(s: complex) -> complex:
    """Riemann zeta by ``mpmath.zeta`` at 30 working digits.

    Relative error <= 1e-12 for |Im s| <= 50, Re s in [-20, 40], including
    next to the nontrivial zeros.  Raises ``PoleError`` at s = 1.
    """
    s = complex(s)
    if s == 1:
        raise PoleError("zeta has a pole at s = 1")
    with mp.workdps(_DPS):
        return complex(mp.zeta(mp.mpc(s)))


def zeta_exact(n: int) -> ExactToken:
    """Exact zeta value at an integer: rational, rational*pi^2n, or zeta(odd)."""
    if n == 1:
        raise PoleError("zeta has a pole at s = 1")
    if n <= 0:
        # zeta(0) = -1/2, zeta(-k) = -B_{k+1}/(k+1)
        if n == 0:
            return ExactToken(Fraction(-1, 2))
        return ExactToken(-bernoulli_number(-n + 1) / (-n + 1))
    if n % 2 == 0:
        from math import factorial

        k = n // 2
        rat = (
            Fraction((-1) ** (k + 1))
            * bernoulli_number(n)
            * Fraction(2) ** (n - 1)
            / factorial(n)
        )
        return ExactToken(rat, pi_pow=n)
    return ExactToken(Fraction(1), zeta_num=(n,))


def zeta_derivative(s: complex) -> complex:
    """zeta'(s) by ``mpmath.zeta(s, derivative=1)`` at 30 working digits."""
    s = complex(s)
    if s == 1:
        raise PoleError("zeta has a pole at s = 1")
    with mp.workdps(_DPS):
        return complex(mp.zeta(mp.mpc(s), derivative=1))


# ----------------------------------------------------------------------
# fractal strings
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PoleTerm:
    sigma: complex
    residue: complex
    exact: ExactToken | None = None


def _plain(s):
    """s as given, or its real part when s is a complex on the real axis (the
    one real-axis rule of the string evaluators and of the pscc messages)."""
    return s if s.imag else s.real


class FordString:
    """Radii of the Ford circle packing: radius 1/(2n^2) with multiplicity phi(n)."""

    def zeta(self, s):
        """An exact token at an int s, else ``ford_zeta``."""
        return ford_zeta_exact(s) if isinstance(s, int) else ford_zeta(_plain(s))

    def poles(self, strip) -> list[PoleTerm]:
        """The poles in the strip, by real then imaginary part (``_ford_pole``).

        Raises ``PoleError`` when the strip holds Re s = 1/4 and reaches
        |Im s| >= gamma_26/2, past the bundled zero table.
        """
        sigmas = [1 + 0j]
        sigmas += [complex(-k, 0.0) for k in range(1, math.floor(-strip[0][0] + 1e-9) + 1)]
        if strip[0][0] <= 0.25 <= strip[0][1]:
            reach = max(abs(strip[1][0]), abs(strip[1][1]))
            if reach >= _TABLE_REACH / 2:
                raise PoleError(
                    f"strip reaches |Im s| = {reach:g}, past the bundled Ford poles "
                    f"(|Im s| < {_TABLE_REACH / 2:.6g}, the first 25 zeta zeros)")
            sigmas += [complex(0.25, sgn * g / 2) for g in zero_ordinates() for sgn in (1, -1)]
        poles = [_ford_pole(s) for s in sigmas if _in_strip(s, strip)]
        poles.sort(key=lambda p: (p.sigma.real, p.sigma.imag))
        return poles

    def __repr__(self):
        return "FordString()"


# np.frexp writes a finite double as m * 2^(e - 53) with an integer |m| < 2^53
# and -1073 <= e <= 1024; bucket k = e + 1073 then holds units of 2^(k - 1126).
_EXP_OFFSET = 1073
_UNIT_SHIFT = _EXP_OFFSET + 53
_N_BUCKETS = 1024 + _EXP_OFFSET + 1
# m splits into a high part |h| <= 2^27 and a low part 0 <= l < 2^26; a block
# of 2^16 such parts sums below 2^43 < 2^53, so the float64 bincount is exact.
# The block bounds the temporaries, not the exactness.
_LO_BITS, _SUM_BLOCK = 26, 1 << 16
# An array string builds and sums its terms this many at a time.  Measured on
# ford_prefix_string(500_000) on a 2-core x86-64 host: one zeta call peaks at
# 0.64 MB traced (1.2 MB at 16384, 4.8 MB at 65536), and zeta(2) plus zeta(4)
# take 18 ms (17 ms at 16384, 31 ms at 4096, where per-block calls dominate).
_TERM_BLOCK = 8192


def _exact_sum(blocks: Callable[[], Iterable[ndarray]]) -> float:
    """Sum of float64 terms, computed exactly and rounded once.

    ``blocks()`` yields the terms as float64 arrays of any length.  Their
    mantissa halves are summed per exponent by ``np.bincount``, at most
    ``_SUM_BLOCK`` terms at a time, and carried across blocks in int64; the
    buckets are combined in Python ints and divided once by 2^1126, which
    int/int true division rounds correctly.  The result equals
    ``math.fsum`` of all the terms.  If a term is not finite, ``blocks()``
    is called again and every term goes to ``math.fsum`` unchanged (inf,
    nan, and its ``ValueError`` for -inf + inf); an exact sum beyond the
    float range raises ``OverflowError``, as ``math.fsum`` does (which also
    raises when only a partial sum overflows).
    """
    import numpy as np

    hi = np.zeros(_N_BUCKETS, dtype=np.int64)
    lo = np.zeros(_N_BUCKETS, dtype=np.int64)
    for terms in blocks():
        if not np.isfinite(terms).all():
            return math.fsum(t for block in blocks() for t in block)
        for start in range(0, terms.size, _SUM_BLOCK):
            mant, exp = np.frexp(terms[start : start + _SUM_BLOCK])
            m = (mant * 2.0**53).astype(np.int64)
            k = exp + _EXP_OFFSET
            hi += np.bincount(k, m >> _LO_BITS, _N_BUCKETS).astype(np.int64)
            lo += np.bincount(k, m & ((1 << _LO_BITS) - 1), _N_BUCKETS).astype(np.int64)
    hi_l, lo_l = hi.tolist(), lo.tolist()
    total = 0
    for k in np.flatnonzero(hi | lo).tolist():
        total += ((hi_l[k] << _LO_BITS) + lo_l[k]) << k
    return total / (1 << _UNIT_SHIFT)


def _finite(x) -> bool:
    """True for an int or a Fraction, else whether the float of x is finite."""
    return isinstance(x, (int, Fraction)) or math.isfinite(x)


class TruncatedString:
    """Finite explicit list of (radius, multiplicity); its zeta is entire.

    A string is held either as its pairs or, for an array string, as a
    block source: ``_blocks()`` yields (radii, mults) float64 arrays of at
    most ``_TERM_BLOCK`` entries each, so no call holds every term at once.
    """

    def __init__(self, pairs: Sequence[tuple]):
        """String from (radius, multiplicity) pairs.

        Radii must be finite and positive, multiplicities finite integers
        >= 1, as for ``from_arrays``; int and Fraction radii stay exact.
        """
        self.pairs = []
        for r, m in pairs:
            if not (_finite(r) and r > 0):
                raise ValueError("radii must be finite and strictly positive")
            if not (_finite(m) and m == int(m) and m >= 1):
                raise ValueError("multiplicities must be positive integers")
            self.pairs.append((r, int(m)))
        self._blocks = None

    @classmethod
    def _from_blocks(
        cls, size: int, blocks: Callable[[], Iterable[tuple[ndarray, ndarray]]]
    ) -> "TruncatedString":
        obj = cls.__new__(cls)
        obj.pairs, obj._size, obj._blocks = None, size, blocks
        return obj

    @classmethod
    def from_arrays(cls, radii: ndarray, mults: ndarray) -> "TruncatedString":
        """String from float arrays of radii and multiplicities.

        Radii must be finite and positive, multiplicities finite integers
        >= 1, as for the pair-list constructor.  The string keeps read-only
        copies of both arrays.
        """
        import numpy as np

        # read-only copies: later writes to the caller's arrays cannot reach
        radii = np.array(radii, dtype=float)
        mults = np.array(mults, dtype=float)
        radii.flags.writeable = mults.flags.writeable = False
        if not (np.isfinite(radii).all() and (radii > 0).all()):
            raise ValueError("radii must be finite and strictly positive")
        integral = np.isfinite(mults) & (mults == np.floor(mults))
        if not (integral.all() and (mults >= 1).all()):
            raise ValueError("multiplicities must be positive integers")

        def blocks():
            for start in range(0, radii.size, _TERM_BLOCK):
                stop = start + _TERM_BLOCK
                yield radii[start:stop], mults[start:stop]

        return cls._from_blocks(radii.size, blocks)

    def zeta(self, s):
        """Finite Dirichlet sum; exact Fraction for rational radii and integer s.

        A complex s on the real axis is taken at its real part.  An array
        string holds float64 radii.  At real s it returns the correctly
        rounded sum of its float64 terms ``m * r**s`` (``_exact_sum``, equal
        to ``math.fsum`` of the terms); at non-real s the real and imaginary
        parts of the float64 terms ``m * exp(s log r)`` are each summed so.
        """
        s = _plain(s)
        if self._blocks is not None:
            import numpy as np

            if isinstance(s, complex):
                def terms(part):
                    return lambda: (part(m * np.exp(s * np.log(r))) for r, m in self._blocks())

                return complex(_exact_sum(terms(np.real)), _exact_sum(terms(np.imag)))
            x = float(np.real(s))
            return _exact_sum(lambda: (m * r**x for r, m in self._blocks()))
        exact = (
            isinstance(s, int)
            or (isinstance(s, Fraction) and s.denominator == 1)
            or (isinstance(s, float) and s.is_integer())
        )
        if exact and all(isinstance(r, (int, Fraction)) for r, _ in self.pairs):
            si = int(s)
            return sum(
                (Fraction(r) ** si * m for r, m in self.pairs), Fraction(0)
            )
        total = 0j
        for r, m in self.pairs:
            total += m * complex(r) ** complex(s)
        return total if total.imag else total.real

    def poles(self, strip) -> list[PoleTerm]:
        """None: the zeta of a finite string is entire."""
        return []

    def __repr__(self):
        if self._blocks is not None:
            return f"TruncatedString(<{self._size} radii>)"
        return f"TruncatedString({self.pairs!r})"


class AnalyticString:
    """User-supplied zeta evaluator with a table of simple poles."""

    def __init__(self, evaluator: Callable[[complex], complex], poles: Sequence[PoleTerm]):
        sigmas = [p.sigma for p in poles]
        if len({(round(s.real, 12), round(s.imag, 12)) for s in map(complex, sigmas)}) != len(sigmas):
            raise ValueError("pole locations must be distinct")
        if any(p.residue == 0 for p in poles):
            raise ValueError("residues must be nonzero")
        self.evaluator = evaluator
        self.pole_table = tuple(poles)

    def zeta(self, s):
        """The evaluator at complex(s) for an int s, else as ``_plain(s)``."""
        return self.evaluator(complex(s) if isinstance(s, int) else _plain(s))

    def poles(self, strip) -> list[PoleTerm]:
        """The stored poles inside the strip, in table order."""
        return [p for p in self.pole_table if _in_strip(complex(p.sigma), strip)]

    def __repr__(self):
        return f"AnalyticString(<{len(self.pole_table)} poles>)"


FractalString = FordString | TruncatedString | AnalyticString


def ford_zeta(s: complex) -> complex:
    """Closed form 2^-s zeta(2s-1)/zeta(2s) for the Ford circle string."""
    s = complex(s)
    if abs(s - 1) < 1e-12:
        raise PoleError("Ford string zeta has a pole at s = 1")
    num = riemann_zeta(2 * s - 1)
    den = riemann_zeta(2 * s)
    if abs(den) < 1e-12:
        raise PoleError(f"zeta(2s) vanishes at s = {s}")
    return 2 ** (-s) * num / den


def ford_zeta_exact(n: int) -> ExactToken:
    """Exact token for the Ford string zeta at an integer (n = 0 or n >= 2)."""
    if n == 1:
        raise PoleError("pole at s = 1")
    if n < 0:
        raise PoleError("pole at negative integers (trivial zeros of zeta(2s))")
    num = zeta_exact(2 * n - 1)
    den = zeta_exact(2 * n)
    if den.rat == 0:
        raise PoleError(f"zeta({2 * n}) = 0")
    return ExactToken(Fraction(1, 2 ** n)) * num / den


# -- bundled pole table: zero ordinates and Ford residues -----------------

_N_ZEROS = 25
# The ordinate of the 26th nontrivial zero (mpmath.zetazero(26)): the table
# holds every Ford pole 1/4 + i gamma/2 with |Im| below half of it.
_TABLE_REACH = 92.49189927055849


class PoleTableError(RuntimeError):
    """The bundled zero ordinates or Ford residues are malformed or wrong."""


@lru_cache(maxsize=1)
def _pole_table() -> dict[float, complex]:
    """Bundled ordinate gamma -> Ford residue at sigma = 1/4 + i gamma/2.

    Reads ``zeta_zeros.txt`` and ``ford_residues.txt`` and checks only their
    shape: 25 positive, strictly increasing ordinates, one residue row per
    ordinate.  ``check_pole_table`` re-derives the values.
    """
    data = resources.files("specexp").joinpath("data")
    try:
        ordinates = [float(x) for x in data.joinpath("zeta_zeros.txt").read_text().split()]
        rows = [
            [float(x) for x in line.split()]
            for line in data.joinpath("ford_residues.txt").read_text().splitlines()
            if line.strip() and not line.startswith("#")
        ]
    except ValueError as exc:
        raise PoleTableError(f"unreadable pole table: {exc}") from None
    if len(ordinates) != _N_ZEROS or not all(
        a < b for a, b in zip([0.0] + ordinates, ordinates)
    ):
        raise PoleTableError(
            f"expected {_N_ZEROS} positive, strictly increasing zero ordinates"
        )
    if len(rows) != _N_ZEROS or any(
        len(row) != 3 or row[0] != g for row, g in zip(rows, ordinates)
    ):
        raise PoleTableError("expected one 'gamma re im' residue row per zero ordinate")
    return {g: complex(re, im) for g, (_, re, im) in zip(ordinates, rows)}


def zero_ordinates() -> tuple[float, ...]:
    """Bundled ordinates of the first 25 nontrivial zeros (Im part, > 0).

    The table is read once and checked for shape only (``PoleTableError``
    on a malformed file); the Hardy Z sign bracketing of each ordinate runs
    in ``check_pole_table``, which the tests and ``verify --suite poles``
    call, not on the run-time path.
    """
    return tuple(_pole_table())


def check_pole_table(entries: Sequence[int] | None = None) -> float:
    """Re-derive bundled pole-table rows (all by default) from mpmath.

    Each ordinate gamma must be bracketed by a sign change of the Hardy Z
    function (``mpmath.siegelz`` at gamma -+ 0.05), and each residue must
    agree to 1e-13 relative with 2^-sigma zeta(rho - 1) / (2 zeta'(rho)) at
    sigma = rho/2, rho = 1/2 + i gamma, the double-precision formula the
    table was written from.  Raises ``PoleTableError`` on the first failure;
    returns the largest relative residue difference.
    """
    table = _pole_table()
    ordinates = list(table)
    worst = 0.0
    for i in range(len(ordinates)) if entries is None else entries:
        g = ordinates[i]
        with mp.workdps(_DPS):
            lo, hi = mp.siegelz(g - 0.05), mp.siegelz(g + 0.05)
        if not (lo == 0 or hi == 0 or (lo < 0) != (hi < 0)):
            raise PoleTableError(f"zero ordinate {g} failed sign bracketing")
        sigma = complex(0.25, g / 2)
        rho = 2 * sigma
        want = 2 ** (-sigma) * riemann_zeta(rho - 1) / (2 * zeta_derivative(rho))
        diff = abs(table[g] - want) / abs(want)
        if not diff <= 1e-13:
            raise PoleTableError(
                f"Ford residue at gamma = {g} is {table[g]!r}, formula gives {want!r}"
            )
        worst = max(worst, diff)
    return worst


def _in_strip(sigma: complex, strip) -> bool:
    (re_min, re_max), (im_min, im_max) = strip
    return re_min <= sigma.real <= re_max and im_min <= sigma.imag <= im_max


@lru_cache(maxsize=None)
def _ford_pole(sigma: complex) -> PoleTerm:
    """The Ford string's pole at sigma with its residue, memoised per location.

    sigma is 1, a negative integer -k or rho/2 for a bundled zero rho.  The
    first two have exact residues: at s = -k, zeta(-2k-1) = -B_(2k+2)/(2k+2)
    and the functional equation's zeta'(-2k) = (-1)^k (2k)! zeta(2k+1) /
    (2 (2 pi)^(2k)) give 2^k zeta(-2k-1) / (2 zeta'(-2k)) in closed form.
    Above the real axis the residue at rho/2 is read from the bundled table.
    The string zeta is real on the real axis, so below it the residue is the
    conjugate of the one above.
    """
    if sigma.imag < 0:
        return PoleTerm(sigma, _ford_pole(sigma.conjugate()).residue.conjugate())
    if sigma == 1:
        # zeta(2s-1) ~ 1/(2(s-1))
        exact = ExactToken(Fraction(3, 2), pi_pow=-2)
    elif sigma.imag == 0:
        k = -int(sigma.real)
        rat = (-1) ** (k + 1) * 2 ** (3 * k) * bernoulli_number(2 * k + 2) / (
            (2 * k + 2) * math.factorial(2 * k)
        )
        exact = ExactToken(rat, pi_pow=2 * k, zeta_den=(2 * k + 1,))
    else:
        return PoleTerm(sigma, _pole_table()[2 * sigma.imag])
    return PoleTerm(sigma, float(exact), exact)


def string_poles(string: FractalString, strip=None) -> list[PoleTerm]:
    """``string.poles(strip)``: the simple poles of the string zeta inside the
    strip ((reMin,reMax),(imMin,imMax)), ((-12, 6), (-46, 46)) by default."""
    return string.poles(((-12.0, 6.0), (-46.0, 46.0)) if strip is None else strip)


# ----------------------------------------------------------------------
# Dirac zeta on the round S^4
# ----------------------------------------------------------------------

def dirac_zeta_s4(s: complex) -> complex:
    """zeta of |D| on the unit round S^4: (4/3) (zeta(s-3) - zeta(s-1))."""
    s = complex(s)
    for pole in (4.0, 2.0):
        if abs(s - pole) < 1e-12:
            raise PoleError(f"Dirac zeta has a pole at s = {int(pole)}")
    return (4.0 / 3.0) * (riemann_zeta(s - 3) - riemann_zeta(s - 1))


def dirac_zeta_s4_exact(s: int) -> ExactToken:
    """Exact rational token of the unit-S^4 Dirac zeta at an integer s <= 1."""
    if s in (2, 4):
        raise PoleError(f"Dirac zeta has a pole at s = {s}")
    if s > 1:
        raise ValueError("exact form kept to s <= 1 (pure rational values)")
    val = (zeta_exact(s - 3) - zeta_exact(s - 1)) * Fraction(4, 3)
    return val


# ----------------------------------------------------------------------
# Ford- prefix helper (totient multiplicities)
# ----------------------------------------------------------------------

def euler_totient_sieve(n_max: int) -> ndarray:
    """phi(0..n_max) as an integer array (phi[0] = 0).

    The dtype is int32 when n_max < 2^31 and int64 above: the narrower of
    the two that holds every index, and so every value and intermediate,
    since no step exceeds n_max.  Only the primes p <= sqrt(n_max) are
    sieved by slices; meanwhile every power of p is divided out of ``rem``,
    a copy of the indices.  What is left, ``rem[n] > 1``, is the one prime
    factor P of n above sqrt(n_max), and one vectorised step applies its
    factor (1 - 1/P) in place, reusing ``rem`` for phi // P.
    """
    import numpy as np

    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    root = math.isqrt(n_max)
    phi = np.arange(n_max + 1, dtype=np.int32 if n_max < 1 << 31 else np.int64)
    rem = phi.copy()
    prime = np.ones(root + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, root + 1):
        if prime[p]:
            prime[p * p :: p] = False
            phi[p::p] -= phi[p::p] // p
            q = p
            while q <= n_max:
                rem[q::q] //= p
                q *= p
    big = rem > 1
    rem[0] = 1
    np.floor_divide(phi, rem, out=rem)
    np.subtract(phi, rem, out=phi, where=big)
    return phi


def ford_prefix_string(n_max: int) -> TruncatedString:
    """Truncated Ford string: radii 1/(2n^2), multiplicities phi(n), n <= n_max.

    Only the totient table is kept; each block of radii and multiplicities
    is computed from it when a zeta call asks for it.
    """
    import numpy as np

    phi = euler_totient_sieve(n_max)

    def blocks():
        for start in range(1, n_max + 1, _TERM_BLOCK):
            stop = min(start + _TERM_BLOCK, n_max + 1)
            radii = 1.0 / (2.0 * np.arange(start, stop, dtype=float) ** 2)
            yield radii, phi[start:stop].astype(float)

    return TruncatedString._from_blocks(n_max, blocks)


# ----------------------------------------------------------------------
# JSON descriptors
# ----------------------------------------------------------------------

def _json_rows(rows, name: str, fields: str, types: tuple) -> list:
    """``rows`` if it is a list of [fields] lists with finite entries of
    ``types``; a JSON boolean is not a number here, although bool is an int."""
    if isinstance(rows, list) and all(
        isinstance(row, list) and len(row) == fields.count(",") + 1
        and all(isinstance(x, types) and not isinstance(x, bool)
                and (isinstance(x, str) or _finite(x)) for x in row)
        for row in rows
    ):
        return rows
    raise ValueError(f"{name!r} must be a list of [{fields}] lists of finite entries")


def _json_radii(rows) -> list[tuple]:
    """[[r, mult], ...] as (r, mult) pairs, a string entry read as a Fraction."""
    return [
        tuple(Fraction(x) if isinstance(x, str) else x for x in row)
        for row in _json_rows(rows, "radii", "r, mult", (int, float, str))
    ]


def string_from_json(obj: dict) -> FractalString:
    """Load a string descriptor {variant, radii: [[r, mult]...], poles: [...]};
    a malformed one raises ``ValueError``."""
    if not isinstance(obj, dict):
        raise ValueError("a string descriptor must be a JSON object")
    variant = str(obj.get("variant", "")).lower()
    if variant == "ford":
        return FordString()
    if variant == "truncated":
        return TruncatedString(_json_radii(obj["radii"]))
    if variant == "analytic":
        poles = [
            PoleTerm(complex(re, im), complex(rre, rim))
            for re, im, rre, rim in _json_rows(
                obj.get("poles", []), "poles", "re, im, res_re, res_im", (int, float))
        ]
        radii = _json_radii(obj.get("radii", []))
        inner = TruncatedString(radii) if radii else None

        def evaluator(s, _inner=inner):
            if _inner is None:
                raise ValueError("analytic descriptor has no evaluator data")
            return _inner.zeta(s)

        return AnalyticString(evaluator, poles)
    raise ValueError(f"unknown string variant {obj.get('variant')!r}")


def load_string(path: str) -> FractalString:
    with open(path) as f:
        return string_from_json(json.load(f))
