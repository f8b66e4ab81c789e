"""Exact Brownian-bridge functionals on the ordered simplex.

The bridge alpha is the Gaussian process on [0,1] with alpha(0)=alpha(1)=0 and
E[alpha(s)alpha(t)] = s(1-t) for s <= t.  Everything here is exact rational
except the Monte Carlo oracle ``mc_estimate`` and the quadrature helpers used
by tests.

Words are plain tuples of positive integers; a ShuffleSum is a dict mapping
word -> Fraction.  A MomentSpec maps a letter i to its multiplicity m_i and
describes the functional  prod_i x_i(alpha)^(m_i)  with x_k(alpha) the k-th
power path integral of alpha.

Word integrals and moments come from one exact backward Wick recursion,
``_wick``: G(rest, open)(u) integrates the letters of ``rest`` over increasing
points in [0, u] while ``open`` covariance legs wait from points above u.  It
depends on nothing else, so one memo serves every word, spec, cell and order;
it holds integer coefficients in the divided-power basis u^k/k!, so the only
division is at u = 1.  The independent oracle route builds the moment as a
polynomial in the simplex variables by Isserlis' recursion over the pairings
of its legs (``monomial_bridge_polynomial``) and integrates it term by term
(``simplex_integrate``); ``mc_estimate`` is the Monte Carlo oracle.

The memos are ``lru_cache``s of immutable, deterministic values, so concurrent
readers are safe; MC paths are seeded per chunk by counter, making results
independent of how chunks are distributed over workers.  Each chunk is drawn
and reduced in fixed blocks of paths, so a worker's memory is bounded by the
block, not the chunk, while the estimates equal those of whole-chunk arrays.
numpy is imported only inside the Monte Carlo chunk, so the exact routes
never load it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Mapping, Sequence

from .symcore import SparsePoly

__all__ = [
    "VPoly",
    "simplex_monomial_integral",
    "simplex_integrate",
    "pairing_integral",
    "monomial_bridge_polynomial",
    "monomial_simplex_integral",
    "shuffle",
    "shuffle_multi",
    "word_integral",
    "moment_product",
    "x1_even_moment",
    "mc_estimate",
    "mc_estimate_many",
]

Word = tuple[int, ...]
ShuffleSum = dict[Word, Fraction]
MomentSpec = Mapping[int, int]


# ----------------------------------------------------------------------
# polynomials in the simplex variables v_1..v_n
# ----------------------------------------------------------------------

class VPoly(SparsePoly):
    """Sparse polynomial over Q in v_1, ..., v_n (exponent-tuple keyed)."""

    __slots__ = ()

    @staticmethod
    def _key(mono) -> tuple[int, ...]:
        mono = tuple(mono)
        while mono and mono[-1] == 0:
            mono = mono[:-1]
        return mono

    @staticmethod
    def _mono_mul(m1: tuple[int, ...], m2: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(a + b for a, b in itertools.zip_longest(m1, m2, fillvalue=0))

    @staticmethod
    def var(i: int) -> "VPoly":
        """The variable v_i (1-based)."""
        return VPoly({(0,) * (i - 1) + (1,): 1})

    def max_var(self) -> int:
        return max((len(m) for m in self.terms), default=0)


# ----------------------------------------------------------------------
# simplex integrals
# ----------------------------------------------------------------------

def simplex_monomial_integral(k: Sequence[int]) -> Fraction:
    """Integral of v_1^k1 ... v_n^kn over 0 <= v_1 <= ... <= v_n <= 1.

    Equals 1 / ((k1+1)(k1+k2+2)...(k1+...+kn+n)).
    """
    denom = 1
    partial = 0
    for j, kj in enumerate(k, start=1):
        if kj < 0:
            raise ValueError("exponents must be non-negative")
        partial += kj
        denom *= partial + j
    return Fraction(1, denom)


def simplex_integrate(p: VPoly, n: int) -> Fraction:
    """Term-wise simplex integral of ``p`` over the ordered n-simplex."""
    if p.max_var() > n:
        raise ValueError(f"polynomial uses v_{p.max_var()} but dimension is {n}")
    total = Fraction(0)
    for mono, c in p.terms.items():
        exps = tuple(mono) + (0,) * (n - len(mono))
        total += c * simplex_monomial_integral(exps)
    return total


# ----------------------------------------------------------------------
# bridge moments of products alpha(v_1)...alpha(v_2n)
# ----------------------------------------------------------------------

def _pairings(indices: tuple[int, ...]):
    """Perfect pairings as tuples of (i, j) with i < j, first elements sorted."""
    if not indices:
        yield ()
        return
    first = indices[0]
    rest = indices[1:]
    for pos in range(len(rest)):
        partner = rest[pos]
        remaining = rest[:pos] + rest[pos + 1 :]
        for tail in _pairings(remaining):
            yield ((first, partner),) + tail


def pairing_integral(n: int) -> VPoly:
    """Bridge moment of alpha(v_1)...alpha(v_2n) on the ordered simplex.

    Sum over the (2n-1)!! pairings of the covariances v_i(1 - v_j), i < j.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = VPoly.zero()
    for pairing in _pairings(tuple(range(1, 2 * n + 1))):
        term = VPoly.one()
        for i, j in pairing:
            term = term * (VPoly.var(i) - VPoly.var(i) * VPoly.var(j))
        total = total + term
    return total


def monomial_bridge_polynomial(I: Sequence[int]) -> VPoly:
    """Bridge moment of alpha(v_1)^i1 ... alpha(v_n)^in as a VPoly.

    Valid on the ordered simplex v_1 <= ... <= v_n; zero when sum(I) is odd.
    By Isserlis' theorem the moment is the sum, over the pairings of the
    sum(I) legs, of the product of the paired covariances, and two legs at
    slots j <= k have covariance v_j (1 - v_k).  The recursion pairs the
    first open leg, at the lowest slot j with legs left, with each open leg
    at a slot k >= j: the I[k] legs there (I[j] - 1 when k = j) give the same
    factor, so their count multiplies it once.  The moments of the remaining
    legs are memoised for the call only, keyed by the legs left per slot.
    """
    I = tuple(int(i) for i in I)
    if any(i < 0 for i in I):
        raise ValueError("exponents must be non-negative")
    memo: dict[tuple[int, ...], VPoly] = {}

    def moment(legs: tuple[int, ...]) -> VPoly:
        j = next((j for j, i in enumerate(legs) if i), None)
        if j is None:
            return VPoly.one()
        if legs not in memo:
            total = VPoly.zero()
            vj = VPoly.var(j + 1)
            for k in range(j, len(legs)):
                count = legs[k] - (k == j)
                if count > 0:
                    rest = list(legs)
                    rest[j] -= 1
                    rest[k] -= 1
                    cov = vj - vj * VPoly.var(k + 1)
                    total = total + moment(tuple(rest)) * cov * count
            memo[legs] = total
        return memo[legs]

    return moment(I)


@lru_cache(maxsize=None)
def _kernels(i: int, open_legs: int) -> tuple:
    """Wick placements of a point x with i legs below ``open_legs`` waiting legs.

    The i legs split into d self-pairs, c legs closing waiting legs and o
    legs opening downward (2d + c + o = i).  A self-pair contributes
    x(1-x), a closing leg x and an opening leg (1-x); the waiting legs
    carried their upper point's factor already.  The count of such
    placements is i!/(2^d d! c! o!) * open!/(open-c)!.

    Returns (new_open, coeffs) pairs in increasing new_open: the placements
    that leave the same number of legs open, summed into the integer
    polynomial sum_k coeffs[k] x^k of degree i.
    """
    by_open: dict[int, list[int]] = {}
    for d in range(i // 2 + 1):
        for c in range(min(i - 2 * d, open_legs) + 1):
            o = i - 2 * d - c
            count = factorial(i) // (2**d * factorial(d) * factorial(c) * factorial(o))
            count *= factorial(open_legs) // factorial(open_legs - c)
            poly = by_open.setdefault(open_legs - c + o, [0] * (i + 1))
            for k in range(d + o + 1):  # x^(d+c) (1-x)^(d+o)
                poly[d + c + k] += (-1) ** k * comb(d + o, k) * count
    return tuple((new_open, tuple(poly)) for new_open, poly in sorted(by_open.items()))


@lru_cache(maxsize=None)
def _wick(rest: tuple[int, ...], open_legs: int, forced: bool) -> tuple[int, ...]:
    """Backward Wick recursion G(rest, open)(u) for bridge moments on [0, u].

    G integrates over placing the letters of ``rest`` at points
    0 <= v_1 <= ... <= v_n <= u, with ``open_legs`` covariance legs waiting
    from points above u.  The top point x takes a letter i: a word
    (``forced``) its last letter, a multiset (a sorted tuple) any of its
    distinct letters.  G(rest, open) sums, over i and the kernels of
    ``_kernels(i, open)``, the integral from 0 to u of
    kernel(x) G(rest - i, new_open)(x).  States with more open legs than
    legs left to place vanish, so the empty word is reached with none open.

    G is returned as integer coefficients c_k in the divided-power basis
    u^k/k!: multiplying by x maps c_k to (k+1) c_k one place up and
    integrating from 0 to u shifts by one place, so the recursion does
    integer arithmetic only.
    """
    if not rest:
        return (1,)
    legs = sum(rest)
    acc = [0] * (legs + len(rest) + 1)
    if forced:
        moves = ((rest[-1], rest[:-1]),)
    else:
        moves = tuple((i, rest[:p] + rest[p + 1:])
                      for p, i in enumerate(rest) if p == 0 or rest[p - 1] != i)
    for i, rest2 in moves:
        for new_open, kern in _kernels(i, open_legs):
            if new_open > legs - i:
                break
            for k, gk in enumerate(_wick(rest2, new_open, forced)):
                # gk u^k/k! times x^j is gk (k+1)...(k+j) u^(k+j)/(k+j)!
                for j, kj in enumerate(kern, start=k + 1):
                    if kj:
                        acc[j] += kj * gk
                    gk *= j
    return tuple(acc)


def _wick_at_one(rest: tuple[int, ...], forced: bool) -> Fraction:
    """G(rest, 0)(1) = sum_k c_k/k!, summed by Horner over the one denominator n!."""
    coeffs = _wick(rest, 0, forced)
    total = 0
    for k, c in enumerate(coeffs):
        total = total * k + c
    return Fraction(total, factorial(len(coeffs) - 1))


def monomial_simplex_integral(I: Sequence[int]) -> Fraction:
    """Exact simplex integral of the bridge moment with exponents I.

    The integral over v_1 <= ... <= v_n of E[alpha(v_1)^i1 ... alpha(v_n)^in],
    by the backward Wick recursion with each point's letter forced.  The
    independent oracle is simplex_integrate(monomial_bridge_polynomial(I)),
    which sums the pairings of the legs by Isserlis' recursion.
    """
    I = tuple(int(i) for i in I)
    if any(i < 0 for i in I):
        raise ValueError("exponents must be non-negative")
    if sum(I) % 2 == 1:
        return Fraction(0)
    return _wick_at_one(I, True)


# ----------------------------------------------------------------------
# shuffle products and word integrals
# ----------------------------------------------------------------------

def shuffle(w1: Sequence[int], w2: Sequence[int]) -> ShuffleSum:
    """All interlacings of two words preserving each word's internal order."""
    w1, w2 = tuple(w1), tuple(w2)
    out: ShuffleSum = {}

    def rec(a: Word, b: Word, prefix: Word, mult: int):
        if not a:
            word = prefix + b
            out[word] = out.get(word, Fraction(0)) + mult
            return
        if not b:
            word = prefix + a
            out[word] = out.get(word, Fraction(0)) + mult
            return
        rec(a[1:], b, prefix + (a[0],), mult)
        rec(a, b[1:], prefix + (b[0],), mult)

    rec(w1, w2, (), 1)
    return out


def shuffle_multi(words: Iterable[Sequence[int]]) -> ShuffleSum:
    """Iterated shuffle product of several words (left fold)."""
    acc: ShuffleSum = {(): Fraction(1)}
    for w in words:
        w = tuple(w)
        nxt: ShuffleSum = {}
        for word, coeff in acc.items():
            for word2, coeff2 in shuffle(word, w).items():
                nxt[word2] = nxt.get(word2, Fraction(0)) + coeff * coeff2
        acc = nxt
    return acc


def word_integral(w) -> Fraction:
    """Simplex integral of the bridge moment indexed by a word (or a sum).

    For a word (i_1, ..., i_n) this is the integral over the ordered n-simplex
    of the bridge moment of alpha(v_1)^(i_1)...alpha(v_n)^(i_n); the map is
    extended linearly to ShuffleSum values.  Order matters: words index points
    on the ordered simplex.
    """
    if isinstance(w, Mapping):
        return sum(
            (coeff * word_integral(word) for word, coeff in w.items()),
            Fraction(0),
        )
    return monomial_simplex_integral(w)


def _normalize_spec(spec: MomentSpec) -> tuple[tuple[int, int], ...]:
    items = sorted((int(i), int(m)) for i, m in spec.items())
    if any(i < 1 or m < 1 for i, m in items):
        raise ValueError("letters and multiplicities must be positive")
    if len({i for i, _ in items}) != len(items):
        raise ValueError("letters must be distinct")
    return tuple(items)


def moment_product(spec: MomentSpec) -> Fraction:
    """Exact bridge moment of prod_i x_i(alpha)^(m_i).

    Equal to m_1!...m_r! times the word integral of the shuffle product of
    the blocks (i,...,i) repeated m_i times; zero when sum i*m_i is odd.
    The shuffle sum is never expanded: the backward Wick recursion lets any
    remaining letter take the top point, which sums over the distinct
    arrangements at once.  ``shuffle_multi`` + ``word_integral`` is the
    word-by-word route through the same recursion;
    ``monomial_bridge_polynomial`` + ``simplex_integrate`` is the
    independent one.
    """
    return _moment(_normalize_spec(spec))


@lru_cache(maxsize=None)
def _moment(key: tuple[tuple[int, int], ...]) -> Fraction:
    if sum(i * m for i, m in key) % 2 == 1:
        return Fraction(0)
    value = _wick_at_one(tuple(i for i, m in key for _ in range(m)), False)
    for _, m in key:
        value *= factorial(m)
    return value


# ----------------------------------------------------------------------
# even moments of x_1 through the permutation/index-tuple formula
# ----------------------------------------------------------------------

def x1_even_moment(n: int) -> Fraction:
    """Bridge moment of x_1(alpha)^(2n) via the matching/J-tuple expansion.

    Each matching contributes alternating sums over subsets J of its pair
    seconds; the subset-dependent index list is sorted and fed into the
    linear-monomial simplex integral.  Must agree with
    moment_product({1: 2n}).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for matching in _pairings(tuple(range(1, 2 * n + 1))):
        firsts = [a for a, _ in matching]
        seconds = [b for _, b in matching]
        for k in range(0, n + 1):
            for J in itertools.combinations(range(n), k):
                idx = sorted(firsts + [seconds[j] for j in J])
                num = 1
                for pos, val in enumerate(idx):
                    num *= val + pos
                total += Fraction((-1) ** k * num, factorial(3 * n + k))
    return factorial(2 * n) * total


# ----------------------------------------------------------------------
# Monte Carlo oracle
# ----------------------------------------------------------------------

_MC_CHUNK = 8192
_MC_BLOCK = 256


def _mc_chunk_sums(keys, n_grid: int, seed: int, chunk_index: int, todo: int):
    """Per key, (sum, sum of squares) of its functional over one counter-seeded chunk.

    The chunk's stream is drawn in consecutive blocks of ``_MC_BLOCK`` paths
    into one reused buffer, and each block is finished while it is in cache:
    its bridges are built in place on the grid points v_1..v_{n_grid}, once
    for all keys, and every key's value per path is stored.  The bridge is
    zero at v_0 = 0 and v_{n_grid} = 1, so each trapezoid sum is dt times the
    sum over the interior points.  The powers alpha^k are running products in
    ascending letter order, rebuilt per key in a second buffer.  Memory is two
    (block, n_grid) buffers plus one value per key and path, whatever the
    chunk size.  Consecutive draws continue one stream, the cumsum and the
    trapezoid sums act row by row, and each key's chunk-wide sums see the
    same values, so the result is bit-identical to building the chunk whole.
    """
    import numpy as np

    dt = 1.0 / n_grid
    scale = np.sqrt(dt)
    v = np.linspace(0.0, 1.0, n_grid + 1)[1:]
    rng = np.random.Generator(np.random.Philox(key=[seed, chunk_index]))
    alpha_buf = np.empty((min(_MC_BLOCK, todo), n_grid))
    power_buf = np.empty_like(alpha_buf)
    vals = np.ones((len(keys), todo))
    for start in range(0, todo, _MC_BLOCK):
        stop = min(start + _MC_BLOCK, todo)
        alpha = alpha_buf[: stop - start]
        alpha_k = power_buf[: stop - start]
        rng.standard_normal(out=alpha)
        alpha *= scale
        np.cumsum(alpha, axis=1, out=alpha)
        alpha -= np.multiply(v, alpha[:, -1:], out=alpha_k)
        for key, row in zip(keys, vals):
            power, alpha_p = 1, alpha
            for letter, mult in key:
                for _ in range(power, letter):
                    alpha_p = np.multiply(alpha_p, alpha, out=alpha_k)
                power = letter
                row[start:stop] *= (alpha_p[:, :-1].sum(axis=1) * dt) ** mult
    return [(float(row.sum()), float((row**2).sum())) for row in vals]


def mc_estimate_many(
    specs: Sequence[MomentSpec],
    n_paths: int,
    n_grid: int,
    seed: int,
    n_workers: int = 1,
) -> list[tuple[float, float]]:
    """Monte Carlo estimates (mean, standard error) of several bridge moments.

    Every spec is evaluated on the same paths: each counter-seeded chunk is
    simulated once, so the estimates equal those of ``mc_estimate`` called
    per spec with the same arguments.  A chunk is drawn and reduced block by
    block (``_mc_chunk_sums``), so each worker holds two (block, n_grid)
    buffers and one value per spec and path, not the chunk's paths.
    """
    if n_paths < 1000:
        raise ValueError("n_paths must be >= 1000")
    if n_grid < 64:
        raise ValueError("n_grid must be >= 64")
    keys = [_normalize_spec(spec) for spec in specs]
    sizes = []
    done = 0
    while done < n_paths:
        todo = min(_MC_CHUNK, n_paths - done)
        sizes.append(todo)
        done += todo
    if n_workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(
                pool.map(
                    lambda args: _mc_chunk_sums(keys, n_grid, seed, *args),
                    list(enumerate(sizes)),
                )
            )
    else:
        parts = [
            _mc_chunk_sums(keys, n_grid, seed, i, todo)
            for i, todo in enumerate(sizes)
        ]
    out = []
    for j in range(len(keys)):
        total = sum(p[j][0] for p in parts)
        total_sq = sum(p[j][1] for p in parts)
        mean = total / n_paths
        var = max(total_sq / n_paths - mean**2, 0.0)
        out.append((mean, (var / n_paths) ** 0.5))
    return out


def mc_estimate(
    spec: MomentSpec,
    n_paths: int,
    n_grid: int,
    seed: int,
    n_workers: int = 1,
) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of a bridge moment.

    Bridges are built from cumulative Gaussian increments W conditioned to
    return to zero via alpha(v) = W(v) - v W(1); the path functionals x_k are
    trapezoid sums on a uniform grid.  Chunks of paths are seeded by their
    index, so the estimate is identical however the chunks are distributed
    over workers.
    """
    return mc_estimate_many([spec], n_paths, n_grid, seed, n_workers)[0]
