"""Independent oracles for the Jacobi routes, used only by the tests.

They load SciPy, which the library itself does not import.  J_sym(c) is
the inner integral at a fixed coefficient c.

The inner moments have a numerical oracle in :func:`slab_inner_moments`, a
Gauss-Legendre product grid on the ordered sector g_1 > ... > g_N, mapped
from the unit cube by g_i = u_1 u_2 ... u_i (:func:`slab_grid`) and sized to
the integrand's degree.  The grid is taken in slabs of fixed u_1: with
s = g_1^2 every node is x = g^2 = s * y, where y_i = (u_2 ... u_i)^2 ranges
over the same nodes^{N-1} rows on every slab.  Then
prod_{i<j} |x_i - x_j| = s^{N(N-1)/2} prod_{i<j} |y_i - y_j| and
e_k(x) = s^k e_k(y), so the Vandermonde and e_k(y) rows are built once and
each slab costs one weight evaluation and one matrix-vector product; no
array holds more than one slab, nodes^{N-1} points.
"""

import math

import numpy as np

from ocft.errors import DomainError
from ocft.jacobi import JacobiQuery, _alpha_matrix_poly, _alpha_poly
from ocft.linalg import det_stack, elementary_symmetric_all, pfaffian
from ocft.moments import gauss_legendre_01


def slab_grid(n, a, b):
    """Nodes/weights for the descending-ordered sector g_1 > ... > g_n, in slabs.

    Maps the unit cube through cumulative products g_i = prod_{k<=i} u_k.
    With the Jacobian g_1^{n-1} prod_{k>=2} u_k^{n-k}, the moment integrand
    has degree d = n^2 + 2n - 1 + 2n(a+b) in u_1 and less in every other
    u_k, so ceil((d+1)/2) Gauss-Legendre nodes per axis are exact.  The
    rows take nodes^{n-1} * n floats, so the caller keeps n and a + b small.

    Since g_i = g_1 (u_2 ... u_i), the squares factor as x = s * y with
    s = g_1^2 the slab value and y_i = (u_2 ... u_i)^2 the same on every
    slab.  Returns (s, ws, y, wy): the ``nodes`` slab values and weights,
    ws folding in g_1^{n-1}, and the nodes^{n-1} rows y of shape
    (nodes^{n-1}, n) with weights wy folding in prod_{k>=2} u_k^{n-k}.
    The node s_a * y_b has weight ws_a * wy_b.
    """
    nodes = ((n + 1) ** 2 + 2 * n * (a + b)) // 2
    x, w = gauss_legendre_01(nodes)
    # rows (1, u_2, u_2 u_3, ..., u_2 ... u_n) of the row-major product grid
    ratios, wy = np.ones((1, 1)), np.ones(1)
    for k in range(2, n + 1):
        last = np.outer(ratios[:, -1], x).ravel()
        ratios = np.hstack([np.repeat(ratios, nodes, axis=0), last[:, None]])
        wy = np.outer(wy, w * x ** (n - k)).ravel()
    return x**2, w * x ** (n - 1), ratios**2, wy


def abs_vandermonde(x):
    """prod_{i<j} |x_i - x_j| for descending rows x (positive as written)."""
    n = x.shape[1]
    out = np.ones(x.shape[0])
    for i in range(n):
        for j in range(i + 1, n):
            out *= x[:, i] - x[:, j]
    return np.abs(out)


def peak(a, b):
    """x0 = (a + 1/2) / (a + b + 1) in (0, 1), near the peak of x^a (1-x)^b."""
    return (a + 0.5) / (a + b + 1)


def slab_inner_moments(n, a, b):
    """M_k / W(x0)^n, k = 0..n, by the nested slab quadrature, with M_k the
    integral of prod|g_i^2-g_j^2| e_k(g^2) prod W(g_i^2) for the Jacobi weight
    W(x) = x^a (1-x)^b, and x0 = :func:`peak`.

    The factor W(x0)^{-n} cancels in every ratio of moments and keeps the sum
    in float64 range: unscaled, the N = 2 sums turn subnormal from
    a = b = 260.  Each slab's weight is formed by ``**`` and reduced by
    ``np.prod``.
    """
    s, ws, y, wy = slab_grid(n, a, b)
    x0 = peak(a, b)
    rows = (wy * abs_vandermonde(y))[:, None] * elementary_symmetric_all(y)
    powers = n * (n - 1) // 2 + np.arange(n + 1)
    total = np.zeros(n + 1)
    for s_a, w_a in zip(s, ws):
        x = s_a * y
        weight = (x / x0) ** a * ((1.0 - x) / (1.0 - x0)) ** b
        total += w_a * s_a**powers * (np.prod(weight, axis=1) @ rows)
    return math.factorial(n) * total


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
    # Python ints: numpy ints would overflow inside Fraction
    a0, a1, a2 = _alpha_poly(int(i), int(j), int(a), int(b))
    return a0 + a1 * c + a2 * c * c


def inner_pfaffian(n, a, b, c):
    """J_sym(c) = N! (-1)^{floor(N/2)} pf[A(c)], exact for an int or ``Fraction`` c."""
    a0, a1, a2 = _alpha_matrix_poly(n, a, b)
    kernel = a0 + c * (a1 + c * a2)
    sign = -1 if (n // 2) % 2 else 1
    return math.factorial(n) * sign * pfaffian(kernel)


def inner_symmetrized(n, a, b, c):
    """J_sym(c) = integral over [0,1]^N of prod_{i<j} |g_i^2 - g_j^2|
    prod_i (1 + c g_i^2) W(g_i^2) dg, from the slab quadrature's inner moments."""
    x0 = peak(a, b)
    m = slab_inner_moments(n, a, b) * (x0**a * (1.0 - x0) ** b) ** n
    return sum(m[k] * c**k for k in range(n + 1))


def mehta_determinant(query: JacobiQuery, r):
    """Ordered-sector monomial-determinant route to the inner integral.

    Evaluates N! * integral over the ordered sector of
    det[ W(g_i^2) g_i^{2(j-1)} (1 + r g_i^2) ], which on ascending rows is
    prod_i W(g_i^2) (1 + r g_i^2) times the positive Vandermonde, one slab
    of :func:`slab_grid` at a time.  ``r`` is the literal coefficient of
    the (1 + r g^2) factor; the full pipeline passes c = r / (lambda gamma).
    """
    n, a, b = query.n, query.a, query.b
    s, ws, y, wy = slab_grid(n, a, b)
    y_asc = y[:, ::-1]  # ascending rows make the determinant positive
    total = 0.0 + 0.0j
    for s_a, w_a in zip(s, ws):
        x_asc = s_a * y_asc
        f = x_asc**a * (1.0 - x_asc) ** b * (1.0 + r * x_asc)
        fcols = np.stack([f * x_asc**p for p in range(n)], axis=2)
        total += w_a * (wy @ det_stack(fcols))
    return complex(math.factorial(n) * total)


def fancy_index_ginibre_rows(mats, lam, gam):
    """``ginibre_mc``'s rows for one drawn (b, n, n) batch, with a real shift
    put on the diagonal by fancy indexing and a complex one by x I - A, as it
    was before the strided diagonal: the oracle for the bits of the rows.
    ``mats`` is overwritten."""
    n = mats.shape[-1]
    scale = math.ldexp(1.0, -round(math.lgamma(n + 1) / math.log(4)))
    den = (det_stack(mats) * scale) ** 2
    if isinstance(lam, float) and isinstance(gam, float):
        diag = np.arange(n)
        d = mats[:, diag, diag]
        mats[:, diag, diag] = d - lam
        det_l = det_stack(mats)
        mats[:, diag, diag] = d - gam
        det_g = det_stack(mats)
    else:
        eye = np.eye(n)
        det_l, det_g = (det_stack(x * eye - mats) for x in (lam, gam))
    num = (det_l * scale) * (det_g * scale)
    return np.stack([num, den, num * np.conj(den)], axis=1)
