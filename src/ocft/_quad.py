"""Shared radial helpers.

Every flavour integral reduces to a radial integral with density
(1 + r)^{-(n+2)} on [0, inf).  When the integrand is a polynomial in r the
integral is exact: with t = r/(1+r) it is a Beta integral,

    integral_0^inf r^k (1+r)^{-(n+2)} dr = B(k+1, n-k+1)
                                         = 1 / ((n+1) binom(n, k)),

returned for k = 0..n by :func:`half_line_moments`.  Products of
kernel Pfaffians over one or more radii use the t-space grid of
:func:`half_line_nodes` instead: Gauss-Legendre in t on [0, 1), mapped to
r = t/(1-t).  In t the integrand r^k (1+r)^{-(n+2)} dr is t^k (1-t)^{n-k} dt,
so the grid is exact for k <= n < 2 * nodes.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gauss_legendre_01", "half_line_moments", "half_line_nodes"]

def gauss_legendre_01(nodes: int):
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def half_line_nodes(nodes: int):
    """Nodes r_k on [0, inf) and weights including the Jacobian dr/dt.

    With r = t/(1-t) the Jacobian is 1/(1-t)^2.
    """
    t, w = gauss_legendre_01(nodes)
    r = t / (1.0 - t)
    return r, w / (1.0 - t) ** 2


def half_line_moments(n: int) -> np.ndarray:
    """integral_0^inf r^k (1+r)^{-(n+2)} dr = 1 / ((n+1) binom(n, k)), k = 0..n."""
    return np.array([1.0 / ((n + 1) * math.comb(n, k)) for k in range(n + 1)])
