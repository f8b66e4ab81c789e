"""Numeric special functions and the closed-form identity verification harness.

dawson: the Maclaurin series on |x| <= 1, sqrt(pi)/2 e^(-x^2) erfi(x) in
mpmath's double-precision context up to |x| = 25, x 1F1(1; 3/2; -x^2) at 20
digits up to |x| = 2^28, and 1/(2x) beyond.  gamma_complex and kummer_1f1:
mpmath (fp.gamma and hyp1f1), behind the pole checks that raise
ZeroDivisionError.

The verify_* functions check closed forms against numeric integrals and
return (lhs, rhs, passed) so callers can report both sides.  The simplex
Gaussian integrals (Dawson combinations, term lists bundled as data) are
checked against one tensor Gauss-Legendre rule in numpy (its error against u
is given at verify_dawson_simplex), the Gaussian multiplicity and
Mellin-transform/Kummer identities against mpmath's tanh-sinh quadrature
(mp.fp.quad) on fixed intervals.  numpy is imported inside the functions
that need it, so it loads only when a verify suite runs; nothing loads scipy.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from importlib import resources
from typing import Sequence

import mpmath as mp

__all__ = [
    "dawson",
    "gamma_complex",
    "kummer_1f1",
    "dawson_simplex_closed_form",
    "verify_dawson_simplex",
    "gaussian_multiplicity_closed_form",
    "verify_gaussian_multiplicity",
    "verify_mellin_z1",
    "verify_mellin_pm",
    "mellin_fs_minus",
    "mellin_fs_plus",
    "mellin_fs_sum",
    "kummer_h",
]

SQRT2 = math.sqrt(2.0)
SQRT_PI = math.sqrt(math.pi)
GAUSS_NODES = 24  # Gauss-Legendre nodes per axis of the simplex rule
_GAUSS_BLOCK = 1024  # outer nodes per block of the simplex rule's innermost sum
_DAWSON_ASYMPTOTE = 2.0**28  # past it 1/(2x) omits under a quarter ulp of the Dawson function


# ----------------------------------------------------------------------
# Dawson function
# ----------------------------------------------------------------------

def _dawson_series(x: float) -> float:
    # F(x) = sum (-2)^k x^(2k+1) / (2k+1)!!
    term = x
    total = x
    k = 0
    while abs(term) > 1e-18:
        k += 1
        term *= -2.0 * x * x / (2 * k + 1)
        total += term
    return total


def dawson(x: float) -> float:
    """Dawson integral exp(-x^2) int_0^x exp(y^2) dy, exactly odd.

    On |x| <= 1 the Maclaurin series, within 4 ulp: the simplex closed forms,
    high-order differences of F at small arguments, magnify any error there.
    Up to |x| = 25, sqrt(pi)/2 e^(-x^2) erfi(x) with mpmath.fp.erfi, measured
    within 17 ulp; e^(x^2) overflows a double past |x| = 26.6.  Beyond, the
    same function as x 1F1(1; 3/2; -x^2) at 20 digits, which needs no
    e^(-x^2) and stays within 1 ulp, up to |x| = 2^28.  Past it, 1/(2x):
    the omitted 1/(4x^3) + ... is below 2^-57 of F, under a quarter ulp,
    and 1F1, whose cost grows with the argument, is not called.  F is
    computed at |x| and given the sign of x, so F(-x) = -F(x) exactly;
    F(+-inf) = +-0.0 and F(nan) = nan.
    """
    a = abs(x)
    if a <= 1.0:
        f = _dawson_series(a)
    elif a < 25.0:
        f = 0.5 * SQRT_PI * math.exp(-a * a) * mp.fp.erfi(a)
    elif a <= _DAWSON_ASYMPTOTE:
        with mp.workdps(20):
            f = float(a * mp.hyp1f1(1, 1.5, -mp.mpf(a) ** 2))
    elif a < math.inf:
        f = 0.5 / a
    else:
        f = 0.0 if a == math.inf else a  # nan fails every comparison and stays nan
    return math.copysign(f, x)


# ----------------------------------------------------------------------
# complex Gamma and Kummer 1F1
# ----------------------------------------------------------------------

def gamma_complex(z: complex) -> complex:
    """Gamma on C in double precision (mpmath.fp.gamma)."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise ZeroDivisionError(f"Gamma pole at z = {z}")
    return complex(mp.fp.gamma(z))


def kummer_1f1(a: complex, b: complex, x: complex) -> complex:
    """Confluent hypergeometric 1F1(a, b, x) by mpmath.hyp1f1, which raises its
    working precision where the plain series cancels (large imaginary x)."""
    a, b, x = complex(a), complex(b), complex(x)
    if b.imag == 0 and b.real <= 0 and b.real == int(b.real):
        raise ZeroDivisionError(f"1F1 undefined at non-positive integer b = {b}")
    return complex(mp.hyp1f1(a, b, x))


# ----------------------------------------------------------------------
# simplex Gaussian integrals and their Dawson closed forms
# ----------------------------------------------------------------------

@lru_cache(maxsize=1)
def _dawson_terms() -> dict:
    raw = resources.files("specexp").joinpath("data/dawson_simplex_terms.json").read_text()
    return json.loads(raw)


def dawson_simplex_closed_form(n: int, u: Sequence[float]) -> float:
    """Closed-form value of the simplex Gaussian integral in Dawson functions.

    Terms are read from the bundled structured list: each contributes
    coeff * F(S/(2 sqrt2)) * prod(u_k) / prod(interval sums), all times sqrt2.
    An interval sum u_a + ... + u_b that is 0 raises ValueError.
    """
    terms = _dawson_terms().get(str(n))
    if terms is None:
        raise ValueError(f"no closed form bundled for n = {n}")
    u = list(map(float, u))
    total = 0.0
    for t in terms:
        i, j = t["F"]
        arg = sum(u[i - 1 : j])
        val = t["coeff"] * dawson(arg / (2.0 * SQRT2))
        for k in t["num"]:
            val *= u[k - 1]
        for a, b in t["den"]:
            den = sum(u[a - 1 : b])
            if den == 0:
                raise ValueError(
                    f"the closed form for n = {n} divides by the interval sum of u_{a}..u_{b}, "
                    f"which is 0 at u = {u}")
            val /= den
        total += val
    return total * SQRT2


def _bridge_forms(u: Sequence[float]) -> tuple[list[float], list[float]]:
    """Weights (w, u) of the bridge quadratic form as two linear forms in v.

    For ascending v, (1/2) sum_{j,m} (min(v_j, v_m) - v_j v_m) u_j u_m equals
    (1/2) [sum_j w_j v_j - (sum_j u_j v_j)^2] with w_j = u_j (u_j + 2 sum_{m>j} u_m).
    """
    u = [float(x) for x in u]
    w = [0.0] * len(u)
    tail = 0.0
    for j in range(len(u) - 1, -1, -1):
        w[j] = u[j] * (u[j] + 2.0 * tail)
        tail += u[j]
    return w, u


@lru_cache(maxsize=1)
def _unit_gauss_legendre():
    """GAUSS_NODES Gauss-Legendre nodes and weights mapped to [0, 1], read-only."""
    import numpy as np

    x, wx = np.polynomial.legendre.leggauss(GAUSS_NODES)
    z, wz = 0.5 * (x + 1.0), 0.5 * wx
    z.flags.writeable = wz.flags.writeable = False
    return z, wz


def _simplex_gauss(u: Sequence[float]) -> float:
    """Tensor Gauss-Legendre rule, GAUSS_NODES per axis, of exp(-quadratic) over
    the ordered simplex.

    Substitution v_k = prod_{j>=k} z_j maps the cube onto the simplex with
    jacobian prod_k z_k^(k-1); the integrand is analytic on the cube, so the
    rule converges exponentially in the node count.  The outer axes are
    tensored out in full; the innermost axis (weights wz) is summed per block
    of _GAUSS_BLOCK outer nodes, so no array holds all GAUSS_NODES^n points.
    """
    import numpy as np

    z, wz = _unit_gauss_legendre()
    w, u = _bridge_forms(u)
    v = weight = np.ones(1)
    lin_w = lin_u = np.zeros(1)
    for k in range(len(u) - 1, 0, -1):
        v = np.multiply.outer(v, z).ravel()
        weight = np.multiply.outer(weight, wz * z**k).ravel()
        lin_w = np.repeat(lin_w, GAUSS_NODES) + w[k] * v
        lin_u = np.repeat(lin_u, GAUSS_NODES) + u[k] * v
    total = 0.0
    for start in range(0, v.size, _GAUSS_BLOCK):
        block = slice(start, start + _GAUSS_BLOCK)
        vz = np.multiply.outer(v[block], z)
        q_w = lin_w[block, None] + w[0] * vz
        q_u = lin_u[block, None] + u[0] * vz
        total += float(weight[block] @ (np.exp(-0.5 * (q_w - q_u * q_u)) @ wz))
    return total


def verify_dawson_simplex(
    n: int, u: Sequence[float], tol: float = 1e-9
) -> tuple[float, float, bool]:
    """Compare quadrature and Dawson closed form of the simplex Gaussian integral.

    One tensor Gauss-Legendre rule (GAUSS_NODES^n points, numpy only) serves
    n = 1..4.  Measured against the closed form, the difference is at most
    3e-13 for u_k in [0.25, 2.2] (the closed form's own rounding at small u),
    7e-12 for u_k <= 5 and 1e-8 for u_k <= 10: the integrand sharpens as u
    grows.  Requires all consecutive partial sums of u
    to stay away from zero (they appear as denominators).
    """
    if n not in (1, 2, 3, 4):
        raise ValueError("n must be 1..4")
    if len(u) != n:
        raise ValueError(f"u must have {n} components")
    for i in range(n):
        for j in range(i, n):
            if abs(sum(u[i : j + 1])) < 1e-9:
                raise ValueError(f"degenerate u: interval sum u_{i+1}..u_{j+1} vanishes")
    lhs = _simplex_gauss(u)
    rhs = dawson_simplex_closed_form(n, u)
    return lhs, rhs, abs(lhs - rhs) <= tol


# ----------------------------------------------------------------------
# Gaussian multiplicity integral and Mellin/Kummer identities
# ----------------------------------------------------------------------

def gaussian_multiplicity_closed_form(U: float, V: float) -> float:
    """sqrt(pi) e^(V^2/4U) (-U^2 + 2U + V^2) / (4 U^(5/2))."""
    return SQRT_PI * math.exp(V * V / (4.0 * U)) * (-U * U + 2.0 * U + V * V) / (
        4.0 * U**2.5
    )


def verify_gaussian_multiplicity(
    U: float, V: float, tol: float = 1e-10
) -> tuple[float, float, bool]:
    """Quadrature of int (x^2 - 1/4) exp(-x^2 U - x V) dx vs its closed form."""
    if U <= 0:
        raise ValueError("U must be positive")
    lhs = mp.fp.quad(
        lambda x: (x * x - 0.25) * math.exp(-x * x * U - x * V), [-math.inf, math.inf]
    )
    rhs = gaussian_multiplicity_closed_form(U, V)
    return lhs, rhs, abs(lhs - rhs) <= tol * max(1.0, abs(rhs))


def kummer_h(z: complex, U: float, V: float) -> complex:
    """H(z) = U^(-z/2) Gamma(z/2) 1F1(z/2, 1/2, V^2/(4U))."""
    gamma_arg = V * V / (4.0 * U)
    return (
        complex(U) ** (-z / 2.0)
        * gamma_complex(z / 2.0)
        * kummer_1f1(z / 2.0, 0.5, gamma_arg)
    )


def mellin_fs_minus(z: complex, U: float, V: float) -> complex:
    """Closed-form Mellin transform of (x^2-1/4) exp(-x^2 U - x V) on (0, inf)."""
    g = V * V / (4.0 * U)
    z = complex(z)
    block_u = complex(U) ** 0.5 * gamma_complex(z / 2.0) * (
        -U * kummer_1f1(z / 2.0, 0.5, g) + 2.0 * z * kummer_1f1((z + 2.0) / 2.0, 0.5, g)
    )
    block_v = V * gamma_complex((z + 1.0) / 2.0) * (
        U * kummer_1f1((z + 1.0) / 2.0, 1.5, g)
        - 2.0 * (z + 1.0) * kummer_1f1((z + 3.0) / 2.0, 1.5, g)
    )
    return 0.125 * complex(U) ** (-(z + 3.0) / 2.0) * (block_u + block_v)


def mellin_fs_plus(z: complex, U: float, V: float) -> complex:
    """Same Mellin transform for the +xV sign; equals the -V evaluation."""
    return mellin_fs_minus(z, U, -V)


def mellin_fs_sum(z: complex, U: float, V: float) -> complex:
    """Combined transform -1/4 U^(-1-z/2) Gamma(z/2) (U 1F1(z/2,1/2,g)
    - 2z 1F1(1+z/2,1/2,g)); the multiplicity integral is its value at z=1."""
    g = V * V / (4.0 * U)
    z = complex(z)
    return (
        -0.25
        * complex(U) ** (-1.0 - z / 2.0)
        * gamma_complex(z / 2.0)
        * (
            U * kummer_1f1(z / 2.0, 0.5, g)
            - 2.0 * z * kummer_1f1(1.0 + z / 2.0, 0.5, g)
        )
    )


def verify_mellin_z1(U: float, V: float) -> tuple[float, float, bool]:
    """The z = 1 value of the combined Mellin transform vs the Gaussian form."""
    if U <= 0:
        raise ValueError("U must be positive")
    lhs = mellin_fs_sum(1.0, U, V).real
    rhs = gaussian_multiplicity_closed_form(U, V)
    return lhs, rhs, abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def _mellin_quadrature(z: complex, U: float, V: float, sign: float) -> complex:
    """Numeric int_0^inf x^(z-1) g(x) dx, g(x) = (x^2 - 1/4) exp(-x^2 U + sign x V).

    Integrated by parts as -(1/z) int_0^inf x^z g'(x) dx; the boundary terms
    vanish for Re z > 0.  In double precision the tanh-sinh nodes stop at
    x = 2.2e-16, which cuts off the x^(z-1) endpoint: measured relative
    errors of 1e-7 near Re z = 0.5 and 0.1 near Re z = 0.1.  The bounded x^z
    keeps them at 1e-13 or less for 0 < Re z <= 3.  One complex mp.fp.quad
    on the fixed interval [0, inf], so mpmath's node cache, keyed by
    interval, stays bounded.
    """
    z = complex(z)

    def f(x: float) -> complex:
        dg = 2.0 * x + (x * x - 0.25) * (sign * V - 2.0 * x * U)
        return x**z * dg * math.exp(-x * x * U + sign * x * V)

    return -mp.fp.quad(f, [0.0, math.inf]) / z


def verify_mellin_pm(
    z: complex, U: float, V: float, tol: float = 1e-8
) -> bool:
    """Check both one-sided Mellin closed forms, their combination, and the
    rescaling identity -1/4 a^z H(z) + a^(z+2) H(z+2) at a = 1/2."""
    if complex(z).real <= 0:
        raise ValueError("need Re z > 0 for a convergent quadrature")
    if U <= 0:
        raise ValueError("U must be positive")
    qm = _mellin_quadrature(z, U, V, -1.0)
    qp = _mellin_quadrature(z, U, V, +1.0)
    cm = mellin_fs_minus(z, U, V)
    cp = mellin_fs_plus(z, U, V)
    cs = mellin_fs_sum(z, U, V)
    a = 0.5
    lhs_scaled = -0.25 * a**complex(z) * kummer_h(z, U, V) + a ** (
        complex(z) + 2.0
    ) * kummer_h(complex(z) + 2.0, U, V)
    rhs_scaled = mellin_fs_sum(z, U / a**2, V / a)
    scale_ok = abs(lhs_scaled - rhs_scaled) <= tol * max(1.0, abs(rhs_scaled))
    ok = (
        abs(qm - cm) <= tol * max(1.0, abs(cm))
        and abs(qp - cp) <= tol * max(1.0, abs(cp))
        and abs((qm + qp) - cs) <= tol * max(1.0, abs(cs))
        and scale_ok
    )
    return ok
