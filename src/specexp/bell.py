"""Partial Bell polynomials and derivatives of composite functions.

The evaluators are carrier-generic: they work over any commutative ring whose
elements support ``+``, ``*`` with each other and ``*`` with ``int``.
Plain ints/floats/complex work, as do the ``SparsePoly`` carriers: SymPoly,
AFormPoly and the u/v letter sums of the expansion assembly
(``expansion._UVTerms``).

The templates for fixed (n, k) hold exact ``int`` coefficients, so an
evaluation over an integer carrier never leaves int arithmetic; the
expansion assembly reads its Bell pieces straight off them.  They are
memoized because the same indices recur thousands of times across the series
assemblies; the memo table is only ever appended to with identical values, so
concurrent lookups are safe.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Sequence

__all__ = ["bell_template", "bell_polynomial", "faa_di_bruno", "bell_number"]


@lru_cache(maxsize=None)
def bell_template(n: int, k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """All (coefficient, lambda) pairs of B_{n,k}.

    lambda is the tuple (lambda_1, ..., lambda_{n-k+1}) of multiplicities with
    sum(lambda) = k and sum(i*lambda_i) = n; the coefficient is the int
    n! // (prod lambda_i! * prod (i!)^lambda_i), the number of set partitions
    of n elements into blocks of those sizes.
    """
    if n < 0 or k < 0:
        raise ValueError("Bell indices must be non-negative")
    if n == 0 and k == 0:
        return ((1, ()),)
    if k == 0 or n < k:
        return ()
    results: list[tuple[int, tuple[int, ...]]] = []
    width = n - k + 1

    def descend(pos: int, rem_n: int, rem_k: int, acc: tuple[int, ...]):
        if rem_n == 0 and rem_k == 0:
            lam = acc + (0,) * (width - len(acc))
            denom = 1
            for i, m in enumerate(lam, start=1):
                denom *= factorial(m) * factorial(i) ** m
            results.append((factorial(n) // denom, lam))
            return
        # every remaining part has size between pos and width
        if pos > width or rem_k <= 0 or rem_n < rem_k * pos or rem_n > rem_k * width:
            return
        max_mult = min(rem_k, rem_n // pos)
        for m in range(max_mult, -1, -1):
            descend(pos + 1, rem_n - pos * m, rem_k - m, acc + (m,))

    descend(1, n, k, ())
    return tuple(results)


def bell_polynomial(n: int, k: int, xs: Sequence, *, one=1):
    """Partial Bell polynomial B_{n,k}(x_1, ..., x_{n-k+1}) over any carrier.

    Conventions: B_{0,0} = 1, B_{n,0} = 0 for n > 0 and B_{n,k} = 0 for n < k.
    ``one`` is the carrier's multiplicative identity (needed for B_{0,0} and to
    build monomials); scalar zero results are returned as ``0 * one``.
    """
    template = bell_template(n, k)
    if n >= max(k, 1) and len(xs) < n - k + 1:
        raise ValueError(f"B_{{{n},{k}}} needs x_1..x_{n - k + 1}")
    total = None
    for coeff, lam in template:
        term = one * coeff
        for i, m in enumerate(lam, start=1):
            for _ in range(m):
                term = term * xs[i - 1]
        total = term if total is None else total + term
    if total is None:
        return one * 0
    return total


def faa_di_bruno(n: int, f_derivs: Sequence, g_derivs: Sequence, *, one=1):
    """n-th derivative of f(g(t)) from f^(1..n) at g(t) and g^(1..n) at t."""
    if n < 1:
        raise ValueError("faa_di_bruno needs n >= 1")
    if len(f_derivs) < n or len(g_derivs) < n:
        raise ValueError("need n derivatives of both f and g")
    total = None
    for m in range(1, n + 1):
        term = f_derivs[m - 1] * bell_polynomial(n, m, g_derivs, one=one)
        total = term if total is None else total + term
    return total


def bell_number(n: int) -> int:
    """Row sum sum_k B_{n,k}(1,...,1), i.e. the number of set partitions."""
    return sum(coeff for k in range(0, n + 1) for coeff, _ in bell_template(n, k))
