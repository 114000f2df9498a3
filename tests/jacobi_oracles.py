"""Independent oracles for the Jacobi routes, used only by the tests.

They load SciPy, which the library itself does not import.  J_sym(c) is
the inner integral at a fixed coefficient c.
"""

import math
from fractions import Fraction

import numpy as np

from ocft.errors import DomainError
from ocft.jacobi import (
    JacobiQuery, _alpha_matrix_poly, _alpha_poly, _inner_moments, _peak, _slab_grid,
)
from ocft.linalg import det_stack, pfaffian


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

    Independent oracle for :func:`alpha_closed`; authoritative if the two
    ever disagree.
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


def alpha_closed(i, j, a, b, r, lg):
    """The library's exact alpha_ij(c) = A0 + A1 c + A2 c^2 at c = r / lg."""
    c = r / lg
    a0, a1, a2 = _alpha_poly(i, j, a, b)
    return a0 + a1 * c + a2 * c * c


def inner_pfaffian(n, a, b, c):
    """J_sym(c) = N! (-1)^{floor(N/2)} pf[A(c)], exact for an int or ``Fraction`` c."""
    a0, a1, a2 = _alpha_matrix_poly(n, a, b)
    kernel = a0 + c * (a1 + c * a2)
    sign = -1 if (n // 2) % 2 else 1
    return math.factorial(n) * sign * pfaffian(kernel)


def inner_symmetrized(n, a, b, c):
    """J_sym(c) = integral over [0,1]^N of prod_{i<j} |g_i^2 - g_j^2|
    prod_i (1 + c g_i^2) W(g_i^2) dg, from the library's inner moments."""
    x0 = _peak(a, b)
    m = _inner_moments(n, a, b) * (x0**a * (1.0 - x0) ** b) ** n
    return sum(m[k] * c**k for k in range(n + 1))


def mehta_determinant(query: JacobiQuery, r):
    """Ordered-sector monomial-determinant route to the inner integral.

    Evaluates N! * integral over the ordered sector of
    det[ W(g_i^2) g_i^{2(j-1)} (1 + r g_i^2) ], which on ascending rows is
    prod_i W(g_i^2) (1 + r g_i^2) times the positive Vandermonde, one slab
    of the library's grid at a time.  ``r`` is the literal coefficient of
    the (1 + r g^2) factor; the full pipeline passes c = r / (lambda gamma).
    """
    n, a, b = query.n, query.a, query.b
    s, ws, y, wy = _slab_grid(n, a, b)
    y_asc = y[:, ::-1]  # ascending rows make the determinant positive
    total = 0.0 + 0.0j
    for s_a, w_a in zip(s, ws):
        x_asc = s_a * y_asc
        f = x_asc**a * (1.0 - x_asc) ** b * (1.0 + r * x_asc)
        fcols = np.stack([f * x_asc**p for p in range(n)], axis=2)
        total += w_a * (wy @ det_stack(fcols))
    return complex(math.factorial(n) * total)
