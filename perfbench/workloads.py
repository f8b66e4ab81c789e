"""The benchmark's four workloads and their correctness gates.

Each workload turns ``(seed, index)`` into the inputs of one operation, runs
the operation through specexp's public API, and checks its output against an
independent route after the timed region.  The library sees only the
generated inputs.  Checks return ``None`` on success or a one-line reason.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath as mp

from specexp import bridge, cli, expansion, pscc, symcore, zeta

DATA = Path(symcore.__file__).resolve().parent / "data"
THREADS = cli.worker_count()  # from SPECEXP_THREADS, as the CLI reads it

RW_FAMILIES = ("inflation", "radiation", "matter", "empty", "sphere")


@functools.lru_cache(maxsize=1)
def _reference_tables() -> dict:
    return json.loads((DATA / "reference_coefficients.json").read_text())


def _aform_json_value(table: dict, derivs) -> tuple[float, float]:
    """Value of a bundled a-form table and the sum of its terms' magnitudes."""
    a0 = derivs(0)
    total = scale = 0.0
    for term in table["terms"]:
        val = term["coeff"]["p"] / term["coeff"]["q"] * a0 ** term["aPow"]
        for i, e in term["d"]:
            val *= derivs(i) ** e
        total += val
        scale += abs(val)
    return total, scale


def _rw_params(rng: random.Random, family: str) -> tuple[float, float]:
    """H and t inside the family's regular domain (a(t) != 0, t > 0 for powers)."""
    H = rng.uniform(0.5, 2.0)
    if family == "inflation":
        return H, rng.uniform(-1.0, 2.0)
    if family == "sphere":
        return H, rng.uniform(0.4, math.pi - 0.4)
    return H, rng.uniform(0.5, 3.0)


def _close(value, expected, rtol: float, scale: float = 0.0) -> bool:
    return abs(complex(value) - complex(expected)) <= rtol * max(abs(complex(expected)), scale)


# ----------------------------------------------------------------------
# coeff: a_0..a_8 in both forms, one fresh process per operation
# ----------------------------------------------------------------------

class Coeff:
    """``a2M(M)`` and ``to_a_form(a2M(M))`` for M = 0..4, caches cold.

    ``a_10`` is left out: cold, it alone takes 11-17 s, so a run would hold a
    single sample and the host's speed spells would set its spread.
    """

    max_M = 4
    poly_route_sample = 6
    poly_route_max_factors = 4

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        pass

    def op(self, index: int):
        out = []
        for M in range(self.max_M + 1):
            poly = expansion.a2M(M)
            out.append((poly, symcore.to_a_form(poly)))
        return out

    def check(self, index: int, output) -> str | None:
        tables = _reference_tables()
        for M, (poly, aform) in enumerate(output):
            entry = tables.get(str(2 * M))
            if entry is None:
                continue
            if symcore.sympoly_from_json(entry["ab"]) != poly:
                return f"a_{2 * M} (ab form) differs from the bundled reference"
            if symcore.aform_from_json(entry["a"]) != aform:
                return f"a_{2 * M} (a form) differs from the bundled reference"
        M = self.max_M
        cells = ((expansion.R_MAIN, 0, 2 * M), (expansion.R_PLUS, 2, 2 * M - 2),
                 (expansion.R_MINUS, 0, 2 * M - 2))
        specs = set()
        bell_cells = []
        for r, m, order in cells:
            direct = expansion.crm_direct(r, m, order)
            bell_cells.append(expansion.integrate_bridge(expansion.crm_bell(r, m, order)))
            if bell_cells[-1] != expansion.integrate_bridge(direct):
                return f"a_{2 * M} cell (r={r}, m={m}) differs between crm_direct and crm_bell"
            for term in direct:
                if term.letters and sum(term.letters) % 2 == 0:
                    specs.add(tuple(sorted(Counter(term.letters).items())))
        main, plus, minus = bell_cells
        if main.scale(Fraction(1, 2)) + (plus - minus).scale(Fraction(1, 4)) != output[M][0]:
            return f"a_{2 * M} differs from its crm_bell assembly"
        # The polynomial route grows steeply with the number of path factors
        # (9.5 s for the heaviest a_10 spec); at most four keep it cheap.
        cheap = sorted(s for s in specs if sum(m for _, m in s) <= self.poly_route_max_factors)
        rng = random.Random(self.seed)
        for spec in rng.sample(cheap, min(self.poly_route_sample, len(cheap))):
            if bridge.moment_product(dict(spec)) != _moment_poly_route(spec):
                return f"moment {spec} differs between the combinatorial and polynomial routes"
        return None


def _moment_poly_route(spec) -> Fraction:
    """Shuffle product, then polynomial bridge moment and simplex integral."""
    combo = bridge.shuffle_multi([(i,) * m for i, m in spec])
    total = Fraction(0)
    for word, coeff in combo.items():
        total += coeff * bridge.simplex_integrate(
            bridge.monomial_bridge_polynomial(word), len(word))
    for _, m in spec:
        total *= math.factorial(m)
    return total


# ----------------------------------------------------------------------
# cosmology: pointwise heat coefficients a_0..a_8 for RW families
# ----------------------------------------------------------------------

class Cosmology:
    """One ``heat_trace_series(4, scale_factor(family, H), t)`` per operation."""

    max_m = 4

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        for M in range(self.max_m + 1):
            expansion.a2M(M)

    def inputs(self, index: int):
        family = RW_FAMILIES[index % len(RW_FAMILIES)]
        H, t = _rw_params(random.Random(self.seed * 1_000_003 + index), family)
        return family, H, t

    def op(self, index: int):
        family, H, t = self.inputs(index)
        return expansion.heat_trace_series(self.max_m, expansion.scale_factor(family, H), t)

    def check(self, index: int, output) -> str | None:
        family, H, t = self.inputs(index)
        factor = expansion.scale_factor(family, H)
        tables = _reference_tables()
        if [p for p, _ in output] != [2 * M - 4 for M in range(self.max_m + 1)]:
            return "unexpected exponent labels"
        for M, (_, value) in enumerate(output):
            ref, scale = _aform_json_value(tables[str(2 * M)]["a"], lambda i: factor.deriv(i, t))
            if not _close(value, ref, 1e-11, scale):
                return f"{family} H={H} t={t}: a_{2 * M} = {value}, reference {ref}"
        return None


# ----------------------------------------------------------------------
# packing: Ford-string expansions with maxM = 2
# ----------------------------------------------------------------------

def _strip(rng: random.Random, re_low_range) -> tuple:
    im = rng.uniform(40.0, 46.0)
    return (rng.uniform(*re_low_range), 4.5), (-im, im)


PACKING_CYCLE = ("s4-action", "rw-action", "s4-action", "heat", "s4-action")


class Packing:
    """One Ford-string ``spectral_action`` or ``round_heat_expansion``.

    ``maxM`` is fixed at 2: lower orders have no pole in their default strip
    and return in under a millisecond, and ``maxM >= 3`` collides with the
    Ford poles.  Every other request passes an explicit strip drawn from a
    small per-run pool, so only part of the pole-table requests repeat.
    """

    max_m = 2

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        # Gaussian moments are undefined at odd negative poles, so action
        # strips stop short of -1; the S^4 heat transform has a Gamma pole at
        # -2 (the M = 3 bulk exponent), so S^4 heat strips stop short of -2.
        lows = {"action": (-0.9, 0.0), "rw-heat": (-8.5, -0.5), "s4-heat": (-1.5, 0.0)}
        self.strip_pool = {kind: [_strip(rng, lo) for _ in range(3)] for kind, lo in lows.items()}
        self.moments = None
        self.gammas = tuple(float(x) for x in (DATA / "zeta_zeros.txt").read_text().split())
        self._expected = {}

    def setup(self):
        zeta.zero_ordinates()
        for M in range(self.max_m + 1):
            expansion.a2M(M)
        self.moments = pscc.gaussian_test_function()

    def inputs(self, index: int):
        rng = random.Random(self.seed * 1_000_003 + index)
        kind = PACKING_CYCLE[index % len(PACKING_CYCLE)]
        if kind == "heat":
            kind = "rw-heat" if (index // len(PACKING_CYCLE)) % 2 == 0 else "s4-heat"
        lam = math.exp(rng.uniform(math.log(2.0), math.log(200.0)))
        family = rng.choice(RW_FAMILIES)
        H, t = _rw_params(rng, family)
        pool = self.strip_pool["action" if kind.endswith("action") else kind]
        # every other request passes an explicit strip; the pattern shifts
        # each ten requests so that both heat kinds get both strip kinds
        strip = rng.choice(pool) if (index + index // 10) % 2 else None
        return kind, lam, family, H, t, strip

    def _geometry(self, kind, family, H, t):
        if kind.startswith("s4"):
            return pscc.S4Geometry()
        return pscc.RWGeometry(expansion.scale_factor(family, H), t)

    def op(self, index: int):
        kind, lam, family, H, t, strip = self.inputs(index)
        geometry = self._geometry(kind, family, H, t)
        string = zeta.FordString()
        if kind.endswith("action"):
            return pscc.spectral_action(string, self.moments, lam, self.max_m, geometry, strip)
        return pscc.round_heat_expansion(string, self.max_m, geometry, strip)

    # -- independent route: mpmath zeta/gamma and the bundled tables -------

    def expected_poles(self, strip) -> list[complex]:
        if strip is None:  # the library's default strip for this maxM
            strip = ((4.0 - 2.0 * self.max_m, 4.5), (-46.0, 46.0))
        (re_lo, re_hi), (im_lo, im_hi) = strip
        inside = lambda s: re_lo <= s.real <= re_hi and im_lo <= s.imag <= im_hi
        cands = [1 + 0j] + [complex(-k, 0) for k in range(1, 20)]
        cands += [complex(0.25, sg * g / 2) for g in self.gammas for sg in (1, -1)]
        return sorted((s for s in cands if inside(s)), key=lambda s: (s.real, s.imag))

    def _cached(self, key, fn):
        if key not in self._expected:
            self._expected[key] = fn()
        return self._expected[key]

    def residue(self, sigma: complex) -> complex:
        def compute():
            with mp.workdps(30):
                s = mp.mpc(sigma)
                if sigma == 1:
                    return complex(mp.mpf(3) / (2 * mp.pi**2))
                return complex(mp.power(2, -s) * mp.zeta(2 * s - 1)
                               / (2 * mp.zeta(2 * s, derivative=1)))
        return self._cached(("res", sigma), compute)

    def f_moment(self, alpha: complex) -> complex:
        if alpha == 0:
            return 1.0
        return self._cached(("f", alpha), lambda: complex(mp.gamma(mp.mpc(alpha) / 2) / 2))

    def s4_weight(self, sigma: complex) -> tuple[complex, float]:
        """Gamma(s/2)/2 zeta_D(s) and the magnitude of its parts.  At s = -1
        both zeta terms sit on trivial zeros and the weight is exactly 0; the
        floor of 1e-20 accepts the library's rounding-level residue there."""
        def compute():
            with mp.workdps(30):
                s = mp.mpc(sigma)
                half_gamma = mp.gamma(s / 2) / 2
                z3, z1 = mp.zeta(s - 3), mp.zeta(s - 1)
                return (complex(half_gamma * mp.mpf(4) / 3 * (z3 - z1)),
                        float(abs(half_gamma) * 4 / 3 * max(abs(z3) + abs(z1), 1e-20)))
        return self._cached(("s4w", sigma), compute)

    def ford_zeta(self, n: int) -> float:
        return self._cached(("ford", n), lambda: float(
            mp.power(2, -n) * mp.zeta(2 * n - 1) / mp.zeta(2 * n)))

    def s4_heat(self, M: int) -> float:
        if M < 2:
            return (2 / 3, -2 / 3)[M]
        return float(mp.mpf(4) / 3 * (-1) ** M * (mp.zeta(1 - 2 * M) - mp.zeta(3 - 2 * M))
                     / mp.factorial(M - 2))

    def check(self, index: int, output) -> str | None:
        kind, lam, family, H, t, strip = self.inputs(index)
        action = kind.endswith("action")
        if kind.startswith("s4"):
            bulk = [self.s4_heat(M) for M in range(self.max_m + 1)]
            weight = self.s4_weight
        else:
            factor = expansion.scale_factor(family, H)
            tables = _reference_tables()
            bulk = [_aform_json_value(tables[str(2 * M)]["a"], lambda i: factor.deriv(i, t))[0]
                    for M in range(self.max_m + 1)]
            weight = lambda s: (sum(c / (s + 2 * M - 4) for M, c in enumerate(bulk)),
                                sum(abs(c / (s + 2 * M - 4)) for M, c in enumerate(bulk)))
        rows = [r for r in output if r.kind == "bulk"]
        if [r.provenance for r in rows] != list(range(self.max_m + 1)):
            return f"{kind}: bulk rows {[r.provenance for r in rows]}"
        for M, row in enumerate(rows):
            alpha = 4 - 2 * M
            expected = self.ford_zeta(alpha) * bulk[M]
            if action:
                expected *= self.f_moment(alpha)
            elif kind == "s4-heat" and not isinstance(row.coeff, zeta.ExactToken):
                return f"{kind}: bulk row M={M} is {type(row.coeff).__name__}, not exact"
            value = float(row.coeff) if isinstance(row.coeff, (Fraction, zeta.ExactToken)) \
                else row.coeff
            if not _close(value, expected, 1e-10):
                return f"{kind}: bulk M={M} {value} vs {expected}"
        poles = self.expected_poles(strip)
        if action:  # conjugate pairs are merged into the row with Im > 0
            poles = [s for s in poles if s.imag >= 0]
        got = sorted((r for r in output if r.kind == "pole"),
                     key=lambda r: (complex(r.provenance).real, complex(r.provenance).imag))
        sigmas = [complex(r.provenance) for r in got]
        if len(sigmas) != len(poles) or any(abs(a - b) > 1e-12 for a, b in zip(sigmas, poles)):
            return f"{kind}: {len(sigmas)} poles at the wrong places (expected {len(poles)})"
        for sigma, row in zip(poles, got):
            w, w_scale = weight(sigma)
            factor = self.residue(sigma) * (self.f_moment(sigma) if action else 1.0)
            expected = w * factor
            if not _close(row.coeff, expected, 1e-8, w_scale * abs(factor)):
                return f"{kind}: pole {sigma} row {row.coeff} vs {expected}"
        return None


# ----------------------------------------------------------------------
# verify: CLI verdict, multi-letter MC moments, Ford totient sums
# ----------------------------------------------------------------------

class Verify:
    """One verification verdict: the CLI suites, MC moments, totient sums.

    A 4-sigma gate on freshly seeded MC draws fails now and then by chance,
    so the CLI seed comes from a pool of 64 and the MC paths use the
    criterion-5 seed 42; at these path and grid counts every pool seed and
    every spec of the drawn shape passes (worst MC deviation 0.99 sigma).
    """

    cli_paths, cli_grid, cli_seeds = 20_000, 256, 64
    mc_specs, mc_paths, mc_grid, mc_seed = 2, 16_384, 256, 42
    prefix_range = (300_000, 500_000)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        pass

    def inputs(self, index: int):
        rng = random.Random(self.seed * 1_000_003 + index)
        specs = []
        while len(specs) < self.mc_specs:
            # acceptance-criterion-5 shape: letters 1..4, weight <= 8
            spec, weight = {}, 0
            for i in rng.sample(range(1, 5), rng.randint(2, 3)):
                m = rng.randint(1, 3)
                if weight + i * m <= 8:
                    spec[i] = m
                    weight += i * m
            if len(spec) >= 2 and spec not in specs:
                specs.append(spec)
        return rng.randrange(self.cli_seeds), specs, rng.randint(*self.prefix_range)

    def op(self, index: int):
        cli_seed, specs, n_max = self.inputs(index)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--suite", "all", "--seed", str(cli_seed),
                             "--paths", str(self.cli_paths), "--grid", str(self.cli_grid)])
        mc = [bridge.mc_estimate(spec, self.mc_paths, self.mc_grid, self.mc_seed, THREADS)
              for spec in specs]
        prefix = zeta.ford_prefix_string(n_max)
        sums = {s: prefix.zeta(float(s)) for s in (2, 4)}
        return code, buf.getvalue(), mc, sums

    def check(self, index: int, output) -> str | None:
        _, specs, n_max = self.inputs(index)
        code, text, mc, sums = output
        lines = text.strip().splitlines()
        if code != 0 or not lines or lines[-1] != "overall: PASS":
            failing = [ln.strip() for ln in lines if "FAIL" in ln]
            return f"verify exit {code}: {failing[:3]}"
        for spec, (est, se) in zip(specs, mc):
            exact = float(bridge.moment_product(spec))
            if abs(est - exact) > 4 * se:
                return f"MC {spec}: {est} +- {se} vs exact {exact}"
        for s, value in sums.items():
            exact = float(zeta.ford_zeta_exact(s))
            if abs(value - exact) > 1e-6 * exact:
                return f"totient sum n<={n_max} at s={s}: {value} vs {exact}"
        return None


WORKLOADS = {"coeff": Coeff, "cosmology": Cosmology, "packing": Packing, "verify": Verify}
