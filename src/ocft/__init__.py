"""Numerical toolkit for orthogonal-group colour-flavour identities.

Modules
-------
linalg     Pfaffians, determinants, symmetric polynomials, log-Gamma/Beta.
haar       Haar sampling on O(N)/SO(N) and U(M), seeded Monte-Carlo estimation.
grassmann  Sparse exterior algebra behind the flavour-side monomial signs.
cft        Flavour-space measures and identity verification reports.
moments    Averaged modulus powers of characteristic polynomials |z - GO|.
jacobi     Jacobi-ensemble characteristic polynomial averages and the
           Gaussian (Ginibre) consistency check.
cli        Command-line front end (``ocft`` entry point).
"""

from .errors import ConfigError, DimensionError, DomainError, OcftError, ShapeError
from .haar import Estimate, RngStream

__all__ = [
    "ConfigError",
    "DimensionError",
    "DomainError",
    "Estimate",
    "OcftError",
    "RngStream",
    "ShapeError",
]

__version__ = "0.1.0"
