"""specexp: exact spectral-action expansion engine for Robertson-Walker
geometries, with multifractal sphere-packing extensions.

Subpackages by area:

- symcore: the sparse polynomial carrier and canonical derivative polynomials over Q
- bell: partial Bell polynomials / derivatives of composite functions
- bridge: exact Brownian-bridge moments and the Monte Carlo oracle
- expansion: Laurent coefficients C^(r,m)_M and heat coefficients a_{2M}
- zeta: Riemann zeta, fractal-string zetas, Dirac zeta on S^4
- pscc: packed-sphere expansions, log-periodic terms, rescaling laws
- specfun: Dawson/Kummer/Gamma numerics and identity verification harness
- cli: batch command-line front end
"""

from . import bell, bridge, cli, expansion, pscc, specfun, symcore, zeta

__version__ = "0.1.0"

__all__ = ["bell", "bridge", "cli", "expansion", "pscc", "specfun", "symcore", "zeta"]
