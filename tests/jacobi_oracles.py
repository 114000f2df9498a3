"""Independent oracles for the Jacobi routes, used only by the tests.

They load SciPy, which the library itself does not import.
"""

import math
from fractions import Fraction

import numpy as np

from ocft.errors import DomainError


def aomoto_moments(n, a, b):
    """Exact M_k / M_0 of the Jacobi weight x^a (1-x)^b, k = 0..n, as Fractions.

    Aomoto's Selberg integral with alpha = a + 1/2, beta = b + 1 and
    gamma = 1/2 (SIAM J. Math. Anal. 18 (1987) 545; Forrester-Warnaar,
    Bull. AMS 45 (2008) 489): M_k / M_0 = binom(n, k) prod_{i<=k}
    (alpha + (n-i) gamma) / (alpha + beta + (2n-i-1) gamma).
    """
    out, ratio = [], Fraction(1)
    for k in range(n + 1):
        if k:
            ratio *= Fraction(2 * a + 1 + n - k, 2 * a + 2 * b + 2 * n + 2 - k)
        out.append(math.comb(n, k) * ratio)
    return out


def h_closed(a, b, x):
    """h(a, b; x) = integral_0^x g^{2a} (1 - g^2)^b dg via the finite Gamma sum.

    Valid for real a >= 0 (half-integers included) and integer b >= 0;
    evaluated term by term in the log domain.  ``x`` may be an array in
    [0, 1].
    """
    xs = np.asarray(x, dtype=float)
    if np.any((xs < 0) | (xs > 1)):
        raise DomainError("h is defined for x in [0, 1]")
    if b != int(b) or b < 0:
        raise DomainError("b must be a non-negative integer")
    if a < 0:
        raise DomainError("a must be >= 0")
    b = int(b)
    prefix = math.lgamma(b + 1.0) + math.lgamma(a + 0.5) - math.log(2.0)
    total = np.zeros_like(xs)
    one_minus = 1.0 - xs**2
    for i in range(b + 1):
        coeff = math.exp(prefix - math.lgamma(b - i + 1.0) - math.lgamma(a + i + 1.5))
        total = total + coeff * xs ** (2 * (a + i) + 1) * one_minus ** (b - i)
    return total if total.shape else float(total)


def alpha_entry_quadrature(i, j, a, b, r, lg):
    """Adaptive quadrature of the defining integral for alpha_ij.

    Independent oracle for ``ocft.jacobi.alpha_entry``; authoritative if the
    two ever disagree.
    """
    from scipy import integrate

    if lg == 0:
        raise DomainError("alpha divides by lambda*gamma")
    c = complex(r) / complex(lg)

    def integrand(g):
        kj = h_closed(a + j, b, g) + c * h_closed(a + j + 1, b, g)
        ki = h_closed(a + i, b, g) + c * h_closed(a + i + 1, b, g)
        w = (1.0 + c * g**2) * g ** (2 * a) * (1.0 - g**2) ** b
        return w * (g ** (2 * i) * kj - g ** (2 * j) * ki)

    re, _ = integrate.quad(lambda g: integrand(g).real, 0.0, 1.0, limit=200)
    if c.imag == 0.0:
        return re
    im, _ = integrate.quad(lambda g: integrand(g).imag, 0.0, 1.0, limit=200)
    return complex(re, im)
