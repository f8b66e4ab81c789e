"""Brownian-bridge machinery: exact moments against a Monte Carlo oracle.

The expansion engine needs mixed moments of the path functionals
x_k = int_0^1 alpha(v)^k dv of the standard Brownian bridge.  This script
shows three independent routes to the same numbers: the memoised Wick
recursion, the Gaussian-moment polynomial route, and path simulation (one set
of simulated paths serves every functional).
"""

from fractions import Fraction

from specexp import bridge

print("=" * 72)
print("Bridge moments three ways")
print("=" * 72)

specs = [{1: 2}, {2: 1}, {1: 4}, {2: 2}, {1: 2, 2: 1}, {3: 2}]

print(f"\n{'functional':>16} {'Wick recursion':>16} {'polynomial route':>18}"
      f" {'MC (2e5 paths)':>16} {'dev/se':>8}")
estimates = bridge.mc_estimate_many(specs, 200_000, 512, seed=1)
for spec, (est, se) in zip(specs, estimates):
    exact = bridge.moment_product(spec)
    blocks = [(i,) * m for i, m in sorted(spec.items())]
    combo = bridge.shuffle_multi(blocks)
    poly_route = Fraction(0)
    for word, coeff in combo.items():
        poly_route += coeff * bridge.simplex_integrate(
            bridge.monomial_bridge_polynomial(word), len(word)
        )
    for _, m in spec.items():
        import math
        poly_route *= math.factorial(m)
    dev = abs(est - float(exact)) / se if se else 0.0
    name = " ".join(f"x{i}^{m}" for i, m in sorted(spec.items()))
    print(f"{name:>16} {str(exact):>16} {str(poly_route):>18} {est:16.8f} {dev:8.2f}")

print("\nx_1 is itself Gaussian with variance 1/12, so its even moments are")
print("(2n-1)!! / 12^n; the permutation-formula route reproduces them:")
for n in (1, 2, 3):
    print(f"  E x_1^{2*n} = {bridge.x1_even_moment(n)}")

print("\nShuffle products keep track of how many interleavings coincide:")
print("  (1) shuffled with (2):", dict(bridge.shuffle((1,), (2,))))
print("  (1,1) shuffled with (1):", dict(bridge.shuffle((1, 1), (1,))))
