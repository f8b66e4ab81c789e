"""The package's sparse polynomial carrier and its two symbolic carriers.

``SparsePoly`` is the one implementation of "canonical map monomial ->
nonzero coefficient" with add, multiply, power and cancel-on-zero; each
carrier subclasses it with only its monomial product, key normalisation,
constant key and sort key.  Two carriers live here.  ``SymPoly``
works in the variables A(t) = 1/a(t) and B(t) = A(t)^2 together with their
derivatives A^(i), B^(i), allowing half-integer powers of B (stored in half
units).  ``AFormPoly`` works directly in the scale factor a(t) and its
derivatives, with a single signed power of a per monomial.  Both have
coefficients in Q, the only coefficient field of the package: the 2^(n/2)
weights of the expansion letters are applied by ``expansion.integrated_cell``
and ``expansion.integrate_bridge`` at even letter degree, where they are
rational.  A coefficient is an ``int`` or a ``Fraction``, so integer-valued
polynomials (the images of 1/a^p) stay in int arithmetic.  The one other
carrier is ``bridge.VPoly`` (the simplex variables of the oracle route); the
expansion assembly keeps its int Bell pieces in read-only dicts.  All are
canonical, so structural equality is mathematical equality.

``to_a_form`` substitutes A = 1/a, B = 1/a^2 by a multivariate Horner
scheme over memoised images of A^(k) and B^(k), each the formal derivative
of the one of order k - 1.  ``AFormPoly.eval`` sums with ``math.fsum``, so a
value does not depend on the order in which the terms were built, and raises
``FloatRangeError`` where a value leaves the double range.

All values are immutable after construction and every operation is a pure
function; instances can be shared freely between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Mapping

__all__ = [
    "DerivMonomial",
    "SparsePoly",
    "SymPoly",
    "AFormPoly",
    "FloatRangeError",
    "differentiate",
    "to_a_form",
    "eval_numeric",
    "sympoly_to_text",
    "sympoly_to_latex",
    "sympoly_to_json",
    "sympoly_from_json",
    "aform_to_text",
    "aform_to_latex",
    "aform_to_json",
    "aform_from_json",
]


class FloatRangeError(OverflowError):
    """A float evaluation left the double range: a derivative value, a power or
    a product overflowed, or the terms summed to inf - inf."""


def _rational(coeff):
    """An ``int`` as it is, anything else as a ``Fraction``."""
    return coeff if type(coeff) is int else Fraction(coeff)


def _acc(out: dict, key, coeff) -> None:
    """out[key] += coeff, dropping the key when the sum is zero."""
    if key in out:
        coeff = out[key] + coeff
    if coeff:
        out[key] = coeff
    else:
        out.pop(key, None)


class SparsePoly:
    """Immutable canonical map monomial -> nonzero rational coefficient.

    A coefficient is kept as an ``int`` when it is given as one and as a
    ``Fraction`` otherwise, so a polynomial built from integers multiplies
    without a gcd.  ``int == Fraction`` and their hashes agree, so equality,
    hashing and rendering do not depend on which one a coefficient is.
    The ring operations live here once.  A subclass supplies its monomial
    product ``_mono_mul``, its key normalisation ``_key`` (applied by the
    constructor), its constant monomial ``_ONE_KEY`` and the ``_sort_key`` of
    its monomials.  Multiplying by an int or a Fraction scales.
    Operands of another carrier type get ``NotImplemented``, so mixing
    carriers raises ``TypeError``.
    """

    __slots__ = ("terms",)
    _ONE_KEY = ()

    def __init__(self, terms: Mapping | None = None):
        clean: dict = {}
        if terms:
            key = self._key
            for mono, coeff in terms.items():
                _acc(clean, key(mono), _rational(coeff))
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _wrap(cls, terms: dict):
        """Instance over an already canonical dict, which it takes over."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @staticmethod
    def _key(mono):
        return mono

    @staticmethod
    def _mono_mul(m1, m2):
        raise NotImplementedError

    @staticmethod
    def _sort_key(mono):
        return mono

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls):
        return cls._wrap({})

    @classmethod
    def constant(cls, c):
        return cls({cls._ONE_KEY: c})

    @classmethod
    def one(cls):
        return cls.constant(1)

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            _acc(out, mono, coeff)
        return self._wrap(out)

    def __neg__(self):
        return self._wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        c = _rational(c)
        if not c:
            return self.zero()
        return self._wrap({m: k * c for m, k in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        out: dict = {}
        mono_mul = self._mono_mul
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _acc(out, mono_mul(m1, m2), c1 * c2)
        return self._wrap(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"{type(self).__name__} powers must be non-negative")
        out = self.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- queries -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list:
        key = self._sort_key
        return sorted(self.terms.items(), key=lambda kv: key(kv[0]))

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


def _normalize_exp(exp) -> tuple[tuple[int, int], ...]:
    """Sparse exponent map as a sorted tuple of (index, exponent), no zeros."""
    items = exp.items() if isinstance(exp, dict) else exp
    merged: dict[int, int] = {}
    for i, e in items:
        if i < 1:
            raise ValueError("derivative index must be >= 1")
        merged[i] = merged.get(i, 0) + e
    return tuple(sorted((i, e) for i, e in merged.items() if e != 0))


def _merge_exp(e1, e2) -> tuple[tuple[int, int], ...]:
    """Sum of two normalised sparse exponent tuples, normalised: a sorted merge."""
    if not e1:
        return e2
    if not e2:
        return e1
    if len(e1) == 1 and len(e2) == 1:
        (i, x), (j, y) = e1[0], e2[0]
        if i != j:
            return e1 + e2 if i < j else e2 + e1
        return ((i, x + y),) if x + y else ()
    out = []
    n1, n2 = len(e1), len(e2)
    a = b = 0
    while a < n1 and b < n2:
        (i, x), (j, y) = e1[a], e2[b]
        if i < j:
            out.append(e1[a])
            a += 1
        elif j < i:
            out.append(e2[b])
            b += 1
        else:
            if x + y:
                out.append((i, x + y))
            a += 1
            b += 1
    out.extend(e1[a:])
    out.extend(e2[b:])
    return tuple(out)


class DerivMonomial(tuple):
    """B^(b_half/2) * prod A^(i)^a_i * prod B^(i)^b_i, exponents sparse.

    A tuple (b_half, a_exp, b_exp), so equality and hashing are the tuple's.
    """

    __slots__ = ()

    def __new__(cls, b_half: int = 0, a_exp=(), b_exp=()):
        return tuple.__new__(cls, (int(b_half), _normalize_exp(a_exp), _normalize_exp(b_exp)))

    b_half = property(itemgetter(0))
    a_exp = property(itemgetter(1))
    b_exp = property(itemgetter(2))

    def weight(self) -> int:
        """Total derivative order sum(i * exponent) over both symbol families."""
        return sum(i * e for i, e in self.a_exp) + sum(i * e for i, e in self.b_exp)

    def sort_key(self):
        return tuple(self)

    def __mul__(self, other: "DerivMonomial") -> "DerivMonomial":
        # both exponent tuples are already normalised: merge, do not re-validate
        return tuple.__new__(DerivMonomial, (
            self[0] + other[0], _merge_exp(self[1], other[1]), _merge_exp(self[2], other[2])
        ))

    def __repr__(self):
        return f"DerivMonomial({self.b_half}, {self.a_exp}, {self.b_exp})"


_MONOMIAL_ONE = DerivMonomial(0)


class SymPoly(SparsePoly):
    """Canonical map DerivMonomial -> Fraction with no zero coefficients."""

    __slots__ = ()
    _ONE_KEY = _MONOMIAL_ONE
    _mono_mul = staticmethod(DerivMonomial.__mul__)
    _sort_key = staticmethod(DerivMonomial.sort_key)

    @staticmethod
    def a_deriv(i: int) -> "SymPoly":
        return SymPoly({DerivMonomial(0, ((i, 1),)): 1})

    @staticmethod
    def b_deriv(i: int) -> "SymPoly":
        return SymPoly({DerivMonomial(0, (), ((i, 1),)): 1})

    @staticmethod
    def monomial(mono: DerivMonomial, coeff=1) -> "SymPoly":
        return SymPoly({mono: coeff})

    def __repr__(self):
        return f"SymPoly({sympoly_to_text(self)!r})"


def differentiate(p: SymPoly) -> SymPoly:
    """d/dt with A^(i) -> A^(i+1), B^(i) -> B^(i+1), B^(k/2) -> (k/2)B^(k/2-1)B'."""
    out: dict[DerivMonomial, Fraction] = {}
    for mono, coeff in p.terms.items():
        if mono.b_half:
            _acc(
                out,
                DerivMonomial(mono.b_half - 2, mono.a_exp, mono.b_exp + ((1, 1),)),
                coeff * Fraction(mono.b_half, 2),
            )
        for i, e in mono.a_exp:
            _acc(
                out,
                DerivMonomial(mono.b_half, mono.a_exp + ((i, -1), (i + 1, 1)), mono.b_exp),
                coeff * e,
            )
        for i, e in mono.b_exp:
            _acc(
                out,
                DerivMonomial(mono.b_half, mono.a_exp, mono.b_exp + ((i, -1), (i + 1, 1))),
                coeff * e,
            )
    return SymPoly._wrap(out)


# ----------------------------------------------------------------------
# a-form polynomials
# ----------------------------------------------------------------------

class AFormPoly(SparsePoly):
    """Polynomial in a(t) and its derivatives with rational coefficients.

    Monomials are pairs (a_pow, deriv_exp) where a_pow is a signed integer
    exponent of a(t) and deriv_exp is a sparse map i -> exponent of a^(i)(t).
    """

    __slots__ = ()
    _ONE_KEY = (0, ())

    @staticmethod
    def _key(mono) -> tuple[int, tuple[tuple[int, int], ...]]:
        a_pow, dexp = mono
        return (int(a_pow), _normalize_exp(dexp))

    @staticmethod
    def _mono_mul(m1, m2):
        return (m1[0] + m2[0], _merge_exp(m1[1], m2[1]))

    @staticmethod
    def a_power(n: int, coeff=1) -> "AFormPoly":
        return AFormPoly({(n, ()): coeff})

    @staticmethod
    def deriv(i: int, coeff=1) -> "AFormPoly":
        return AFormPoly({(0, ((i, 1),)): coeff})

    def differentiate(self) -> "AFormPoly":
        """Formal d/dt: a -> a^(1), a^(i) -> a^(i+1)."""
        out: dict[tuple[int, tuple], Fraction] = {}
        for (a_pow, dexp), coeff in self.terms.items():
            if a_pow:
                _acc(out, (a_pow - 1, _merge_exp(dexp, ((1, 1),))), coeff * a_pow)
            for i, e in dexp:
                _acc(out, (a_pow, _merge_exp(dexp, ((i, -1), (i + 1, 1)))), coeff * e)
        return AFormPoly._wrap(out)

    def eval(self, derivs: Callable[[int], float]) -> float:
        """Numeric evaluation; derivs(i) must return a^(i)(t), derivs(0) = a(t).

        The term values are summed by ``math.fsum``, correctly rounded, so
        the result does not depend on the order of the terms.  A value or a
        sum outside the double range raises ``FloatRangeError``.
        """
        values = []
        try:
            a0 = derivs(0)
            for (a_pow, dexp), coeff in self.terms.items():
                if a_pow < 0 and a0 == 0.0:
                    raise ZeroDivisionError("a(t) = 0 at the evaluation point")
                val = float(coeff) * (a0 ** a_pow if a_pow >= 0 else (1.0 / a0) ** (-a_pow))
                for i, e in dexp:
                    val *= derivs(i) ** e
                values.append(val)
        except OverflowError as exc:
            raise FloatRangeError("a(t), a derivative or a power of them overflows "
                                  "the float range at the evaluation point") from exc
        try:
            total = math.fsum(values)
        except (OverflowError, ValueError) as exc:
            raise FloatRangeError(f"the a-form terms do not sum in floats: {exc}") from exc
        if math.isinf(total):  # a product of finite factors overflowed
            raise FloatRangeError("the a-form value overflows the float range")
        return total

    def __repr__(self):
        return f"AFormPoly({aform_to_text(self)!r})"


# ----------------------------------------------------------------------
# substitution A = 1/a
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _inverse_power_deriv(p: int, k: int) -> AFormPoly:
    """a-form of d^k/dt^k a^(-p) (A^(k) for p = 1, B^(k) for p = 2), each
    order the formal derivative of the one below."""
    if k == 0:
        return AFormPoly.a_power(-p)
    return _inverse_power_deriv(p, k - 1).differentiate()


@lru_cache(maxsize=None)
def _deriv_power(p: int, i: int, e: int) -> AFormPoly:
    """a-form of (d^i/dt^i a^(-p))^e: (A^(i))^e for p = 1, (B^(i))^e for p = 2."""
    return _inverse_power_deriv(p, i) ** e


def _horner_into(out: dict, items: list) -> None:
    """Add to ``out`` the a-form of the sum of coeff * B^(b_half/2) * factors
    over ``items`` = [(factors, b_half, coeff)], where factors lists the
    symbols d^i/dt^i a^(-p) of a monomial as (i, p, e) in descending (i, p)."""
    groups: dict[tuple, list] = {}
    for factors, b_half, coeff in items:
        if factors:
            groups.setdefault(factors[0], []).append((factors[1:], b_half, coeff))
        else:
            # the leaf: B^(b_half/2) -> a^(-b_half)
            _acc(out, (-b_half, ()), coeff)
    mono_mul = AFormPoly._mono_mul
    for (i, p, e), group in groups.items():
        inner: dict = {}
        _horner_into(inner, group)
        image = _deriv_power(p, i, e).terms.items()
        for m1, c1 in inner.items():
            for m2, c2 in image:
                _acc(out, mono_mul(m1, m2), c1 * c2)


def to_a_form(p: SymPoly) -> AFormPoly:
    """Substitute A = 1/a, B = 1/a^2 and expand all derivative symbols.

    A multivariate Horner scheme: the monomials are grouped by their
    highest-derivative factor (symbol and exponent), each group's remainders
    are substituted recursively and summed, and only that sum is multiplied
    by the factor's memoised image ``_deriv_power``.  The images come from
    repeated formal differentiation of 1/a and 1/a^2.  B^(b_half/2) maps to
    a^(-b_half) at the leaves, so half powers of B are always legal.
    """
    items = [
        (
            tuple(sorted([(i, 1, e) for i, e in mono.a_exp]
                         + [(i, 2, e) for i, e in mono.b_exp], reverse=True)),
            mono.b_half,
            coeff,
        )
        for mono, coeff in p.terms.items()
    ]
    out: dict = {}
    _horner_into(out, items)
    return AFormPoly._wrap(out)


def eval_numeric(p: SymPoly, derivs: Callable[[int], float]) -> float:
    """Float value of ``p`` given a^(i)(t) through the callback (0 = a itself)."""
    return to_a_form(p).eval(derivs)


# ----------------------------------------------------------------------
# rendering and serialization
# ----------------------------------------------------------------------

def _sym_name(base: str, i: int) -> str:
    if i == 1:
        return base + "'"
    if i == 2:
        return base + "''"
    return f"{base}({i})"


def sympoly_to_text(p: SymPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for mono, coeff in p.sorted_terms():
        factors = [str(coeff)]
        if mono.b_half:
            if mono.b_half % 2 == 0:
                factors.append(f"B^({mono.b_half // 2})")
            else:
                factors.append(f"B^({mono.b_half}/2)")
        for i, e in mono.a_exp:
            name = _sym_name("A", i)
            factors.append(name if e == 1 else f"{name}^{e}")
        for i, e in mono.b_exp:
            name = _sym_name("B", i)
            factors.append(name if e == 1 else f"{name}^{e}")
        parts.append(" * ".join(factors))
    return "  +  ".join(parts)


def _latex_sym(base: str, i: int, e: int) -> str:
    if i == 1:
        core = f"{base}'(t)"
    elif i == 2:
        core = f"{base}''(t)"
    else:
        core = f"{base}^{{({i})}}(t)"
    return core if e == 1 else f"{core}^{{{e}}}"


def _b_half_latex(half_units: int) -> str:
    exp = str(half_units // 2) if half_units % 2 == 0 else f"{half_units}/2"
    return f"B(t)^{{{exp}}}"


def _latex_sum(chunks: list[tuple[Fraction, str]]) -> str:
    """LaTeX sum of (coeff, body) chunks, each body written for |coeff|: a
    negative first term leads with "-", the others join with " + " or " - "."""
    (first, text), rest = chunks[0], chunks[1:]
    return ("-" if first < 0 else "") + text + "".join(
        f" {'-' if coeff < 0 else '+'} {body}" for coeff, body in rest)


def sympoly_to_latex(p: SymPoly) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for mono, coeff in p.sorted_terms():
        num_factors = []
        for i, e in mono.a_exp:
            num_factors.append(_latex_sym("A", i, e))
        for i, e in mono.b_exp:
            num_factors.append(_latex_sym("B", i, e))
        if mono.b_half > 0:
            num_factors.append(_b_half_latex(mono.b_half))
        den_sym = _b_half_latex(-mono.b_half) if mono.b_half < 0 else ""
        num = " ".join(num_factors) if num_factors else "1"
        q = abs(coeff)
        num_txt = num if q.numerator == 1 and num != "1" else (str(q.numerator) if num == "1" else f"{q.numerator} {num}")
        den_txt = " ".join(x for x in (str(q.denominator) if q.denominator != 1 else "", den_sym) if x)
        body = f"\\frac{{{num_txt}}}{{{den_txt}}}" if den_txt else num_txt
        chunks.append((coeff, body))
    return _latex_sum(chunks)


def sympoly_to_json(p: SymPoly) -> dict:
    """JSON form of ``p``.  ``p2``/``q2`` are the format's sqrt2 part, always 0/1."""
    terms = []
    for mono, coeff in p.sorted_terms():
        terms.append(
            {
                "coeff": {
                    "p": coeff.numerator,
                    "q": coeff.denominator,
                    "p2": 0,
                    "q2": 1,
                },
                "bHalf": mono.b_half,
                "a": [[i, e] for i, e in mono.a_exp],
                "b": [[i, e] for i, e in mono.b_exp],
            }
        )
    return {"terms": terms}


def sympoly_from_json(obj: dict) -> SymPoly:
    """Inverse of ``sympoly_to_json``; a nonzero sqrt2 part raises ValueError."""
    terms: dict[DerivMonomial, Fraction] = {}
    for t in obj["terms"]:
        c = t["coeff"]
        if c.get("p2", 0):
            raise ValueError(f"coefficient {c} has a sqrt2 part; a_2M are rational")
        coeff = Fraction(c["p"], c["q"])
        mono = DerivMonomial(
            t["bHalf"],
            tuple((int(i), int(e)) for i, e in t.get("a", [])),
            tuple((int(i), int(e)) for i, e in t.get("b", [])),
        )
        terms[mono] = terms.get(mono, 0) + coeff
    return SymPoly(terms)


def aform_to_text(p: AFormPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for (a_pow, dexp), coeff in p.sorted_terms():
        factors = [str(coeff)]
        if a_pow:
            factors.append(f"a^{a_pow}" if a_pow != 1 else "a")
        for i, e in dexp:
            name = _sym_name("a", i)
            factors.append(name if e == 1 else f"{name}^{e}")
        parts.append(" * ".join(factors))
    return "  +  ".join(parts)


def aform_to_latex(p: AFormPoly) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for (a_pow, dexp), coeff in p.sorted_terms():
        factors = []
        if a_pow:
            factors.append(f"a(t)^{{{a_pow}}}" if a_pow != 1 else "a(t)")
        for i, e in dexp:
            factors.append(_latex_sym("a", i, e))
        body = " ".join(factors) if factors else "1"
        q = abs(coeff)
        coeff_tex = str(q) if q.denominator == 1 else f"\\frac{{{q.numerator}}}{{{q.denominator}}}"
        chunks.append((coeff, f"{coeff_tex} \\, {body}"))
    return _latex_sum(chunks)


def aform_to_json(p: AFormPoly) -> dict:
    terms = []
    for (a_pow, dexp), coeff in p.sorted_terms():
        terms.append(
            {
                "coeff": {"p": coeff.numerator, "q": coeff.denominator},
                "aPow": a_pow,
                "d": [[i, e] for i, e in dexp],
            }
        )
    return {"terms": terms}


def aform_from_json(obj: dict) -> AFormPoly:
    terms: dict[tuple[int, tuple], Fraction] = {}
    for t in obj["terms"]:
        c = t["coeff"]
        key = (int(t["aPow"]), tuple((int(i), int(e)) for i, e in t.get("d", [])))
        terms[key] = terms.get(key, Fraction(0)) + Fraction(c["p"], c["q"])
    return AFormPoly(terms)
