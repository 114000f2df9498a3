"""Characteristic-polynomial averages over invariant real-matrix ensembles.

For a separable weight W on squared singular values, the ensemble average
of det(lambda - A) det(gamma - A^T) reduces to

    S(lg) = integral over r in [0, inf) of
            (1 + r)^{-(N+2)} * J(lg; r) dr,
    J(lg; r) = integral over g in [0,1]^N (or [0,inf)^N) of
            prod_{i<j} |g_i^2 - g_j^2| * prod_i (lg + r g_i^2) W(g_i^2) dg_i,

with lg = lambda * gamma.  Every reported value is a ratio of S at the
queried lg to S at a reference lg (1 for the Jacobi weight, 0 for the
Gaussian), because the reduction only determines S up to a constant.

Expanding prod_i (lg + r g_i^2) = sum_k lg^{N-k} r^k e_k(g^2) turns S into
sum_k M_k lg^{N-k} B_k, with M_k the inner moments and the exact
B_k = integral r^k (1+r)^{-(N+2)} dr = 1 / ((N+1) binom(N, k))
(``_quad.half_line_moments``).  Every route therefore computes one moment
vector M_0..M_N and takes the r-integral exactly (``_s_ratio``):
``ginibre_pipeline`` from closed moments, ``jacobi_quadrature`` from a
Gauss-Legendre rule sized to the integrand's degree, and ``jacobi_pfaffian``
from the values of the degree-N polynomial pf[A(c)] at c = 0..N, which for
integer a and b are exact rationals (``Fraction``), as are its moments.
The tests check both routes against Aomoto's closed form and against the
determinant and symmetrised-quadrature oracles of ``tests/jacobi_oracles.py``.

The quadrature route sums over one Gauss-Legendre product grid on the
ordered sector g_1 > ... > g_N, mapped from the unit cube by
g_i = u_1 u_2 ... u_i (``_slab_grid``).  The grid is taken in slabs of fixed
u_1: with s = g_1^2 every node is x = g^2 = s * y, where
y_i = (u_2 ... u_i)^2 ranges over the same nodes^{N-1} rows on every slab.
Then prod_{i<j} |x_i - x_j| = s^{N(N-1)/2} prod_{i<j} |y_i - y_j| and
e_k(x) = s^k e_k(y), so the Vandermonde and e_k(y) rows are built once and
each slab costs one weight evaluation and one matrix-vector product; no
array holds more than one slab, nodes^{N-1} points.

Factoring lg^N out of prod_i (lg + r g_i^2) turns the inner weight into
(1 + c g^2) with c = r / lg; the Pfaffian data (h, alpha_ij) is expressed
in terms of c throughout.

The Gaussian weight W(x) = exp(-x/2) reproduces the closed form
sum_{k<=N} lg^k / k! (the real Ginibre average), which pins the r-domain
[0, inf) end to end; see ``ginibre_closed`` / ``ginibre_mc``.  Its inner
moments are Laguerre-Selberg integrals with an exact Aomoto closed form
(``gaussian_inner_moments``), so that pipeline is exact end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._quad import gauss_legendre_01, half_line_moments
from .errors import ConfigError, DomainError
from .haar import Estimate, RngStream, stream_mean
from .linalg import det_stack, elementary_symmetric_all, pfaffian

__all__ = [
    "JacobiQuery",
    "check_ginibre_n",
    "gaussian_inner_moments",
    "ginibre_closed",
    "ginibre_mc",
    "ginibre_pipeline",
    "jacobi_pfaffian",
    "jacobi_quadrature",
]

# jacobi_pfaffian's range, a time cap on its exact arithmetic: N = 16 takes
# 0.3-0.7 s for a = b <= 50, and 6.4 s at a = b = 200
MAX_PFAFFIAN_N = 16
MAX_PFAFFIAN_AB = 100
# nested quadrature's size budget on nodes^N grid points; gauss_legendre_01
# solves a dense nodes x nodes eigenproblem, so N = 1 counts nodes^2
_GRID_BUDGET = 2**21
# ginibre_mc's range.  Its delta-method error understates the spread of the
# heavy-tailed det ratios as N grows: in 2000-sample runs |z| > 3 came up in
# 0.7% of runs at N <= 15, 5.5% at N = 30..50 and 6% at N = 70..94, against
# 0.27% for a Gaussian z, so the range is not widened until that is fixed
MAX_GINIBRE_N = 50


@dataclass(frozen=True)
class JacobiQuery:
    """One evaluation of the Jacobi-weight average with W(x) = x^a (1-x)^b."""

    lam: complex
    gam: complex
    a: int
    b: int
    n: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0 or self.a != int(self.a) or self.b != int(self.b):
            raise DomainError("weight exponents a, b must be non-negative integers")
        if self.n < 1:
            raise DomainError("matrix dimension must be >= 1")

    @property
    def lg(self) -> complex:
        return complex(self.lam) * complex(self.gam)


# -- h and the alpha kernel, in exact rationals ---------------------------


def _h_terms(q: int, b: int) -> list[Fraction]:
    """h_m, m = 0..b, with h(q, b; x) = integral_0^x g^{2q} (1-g^2)^b dg
    = sum_m h_m x^{2q+2m+1}."""
    return [Fraction((-1) ** m * math.comb(b, m), 2 * q + 2 * m + 1) for m in range(b + 1)]


@lru_cache(maxsize=4096)
def _i_moment(p: int, q: int, b: int) -> Fraction:
    """I(p, q) = integral_0^1 g^{2p} (1-g^2)^b h(q, b; g) dg, exactly.

    Termwise, I = 1/2 sum_m h_m B(p+q+m+1, b+1) with h_m from
    :func:`_h_terms`, and B(x+1, b+1) = x! b! / (x+b+1)! for integer x.
    """
    fb = math.factorial(b)
    total = sum(
        h * Fraction(math.factorial(p + q + m) * fb, math.factorial(p + q + m + b + 1))
        for m, h in enumerate(_h_terms(q, b))
    )
    return total / 2


def _alpha_poly(i: int, j: int, a: int, b: int) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (A0, A1, A2) of alpha_ij(c) = A0 + A1 c + A2 c^2."""
    # Python ints: numpy ints would overflow inside Fraction
    ai, aj, b = int(a + i), int(a + j), int(b)

    def anti(p, q):
        return _i_moment(p, q, b) - _i_moment(q, p, b)

    a0 = anti(ai, aj)
    a1 = anti(ai + 1, aj) + anti(ai, aj + 1)
    a2 = anti(ai + 1, aj + 1)
    return a0, a1, a2


def _alpha_matrix_poly(n: int, a: int, b: int) -> list[np.ndarray]:
    """Matrix coefficients [A0, A1, A2] of the Pfaffian kernel in c.

    Object arrays of ``Fraction``.  For even N = 2s the kernel is
    alpha[0:2s, 0:2s]; for odd N = 2s+1 it is bordered by the column
    k_i(1) = h(a+i, b; 1) + c h(a+i+1, b; 1), linear in c.
    """
    size = n + n % 2
    mats = [np.full((size, size), Fraction(0), dtype=object) for _ in range(3)]
    for i in range(n):
        for j in range(i + 1, n):
            for m, val in zip(mats, _alpha_poly(i, j, a, b)):
                m[i, j], m[j, i] = val, -val
    if n % 2 == 1:
        for i in range(n):
            for m, q in zip(mats, (a + i, a + i + 1)):
                val = sum(_h_terms(int(q), int(b)))
                m[i, n], m[n, i] = val, -val
    return mats


def _pfaffian_moments(n: int, a: int, b: int) -> list[Fraction]:
    """Exact inner moments M_k / M_0, k = 0..N, read off the Pfaffian route.

    The inner integral at fixed c is J_sym(c) = N! (-1)^{floor(N/2)} pf[A(c)],
    with A the alpha kernel (even N) or its k-bordered extension (odd N).
    It is a polynomial sum_k M_k c^k of degree N, so its exact values at
    c = 0..N (N+1 Pfaffians; the factor N! (-1)^{floor(N/2)} cancels in
    M_k / M_0) determine it.  Newton's
    divided differences on these unit-spaced nodes give its Newton form,
    which is expanded into powers of c.  The ratios to M_0 stay in float
    range where M_0 does not: it underflows float64 at a = b = 50, N = 16.
    """
    a0, a1, a2 = _alpha_matrix_poly(n, a, b)
    table = [pfaffian(a0 + c * (a1 + c * a2)) for c in range(n + 1)]
    for level in range(1, n + 1):
        for j in range(n, level - 1, -1):
            table[j] = (table[j] - table[j - 1]) / level
    coeffs = [0] * (n + 1)
    for k in range(n, -1, -1):  # coeffs(c) <- coeffs(c) * (c - k) + table[k]
        coeffs = [table[k] - k * coeffs[0]] + [lo - k * hi for lo, hi in zip(coeffs, coeffs[1:])]
    return [m / coeffs[0] for m in coeffs]


# -- degree-sized ordered-sector quadrature -------------------------------


def _slab_grid(n: int, a: int, b: int):
    """Nodes/weights for the descending-ordered sector g_1 > ... > g_n, in slabs.

    Maps the unit cube through cumulative products g_i = prod_{k<=i} u_k.
    With the Jacobian g_1^{n-1} prod_{k>=2} u_k^{n-k}, the moment integrand
    has degree d = n^2 + 2n - 1 + 2n(a+b) in u_1 and
    less in every other u_k, so ceil((d+1)/2) Gauss-Legendre nodes per axis
    are exact.  Above the size budget it raises ``ConfigError``.

    Since g_i = g_1 (u_2 ... u_i), the squares factor as x = s * y with
    s = g_1^2 the slab value and y_i = (u_2 ... u_i)^2 the same on every
    slab.  Returns (s, ws, y, wy): the ``nodes`` slab values and weights,
    ws folding in g_1^{n-1}, and the nodes^{n-1} rows y of shape
    (nodes^{n-1}, n) with weights wy folding in prod_{k>=2} u_k^{n-k}.
    The node s_a * y_b has weight ws_a * wy_b.
    """
    nodes = int((n + 1) ** 2 + 2 * n * (a + b)) // 2  # JacobiQuery admits a = 2.0
    if nodes ** max(n, 2) > _GRID_BUDGET:
        raise ConfigError(f"nested quadrature needs {nodes}^{n} nodes, over the budget of 2^21")
    x, w = gauss_legendre_01(nodes)
    # rows (1, u_2, u_2 u_3, ..., u_2 ... u_n) of the row-major product grid
    ratios, wy = np.ones((1, 1)), np.ones(1)
    for k in range(2, n + 1):
        last = np.outer(ratios[:, -1], x).ravel()
        ratios = np.hstack([np.repeat(ratios, nodes, axis=0), last[:, None]])
        wy = np.outer(wy, w * x ** (n - k)).ravel()
    return x**2, w * x ** (n - 1), ratios**2, wy


def _abs_vandermonde(x: np.ndarray) -> np.ndarray:
    """prod_{i<j} |x_i - x_j| for descending rows x (positive as written)."""
    n = x.shape[1]
    out = np.ones(x.shape[0])
    for i in range(n):
        for j in range(i + 1, n):
            out *= x[:, i] - x[:, j]
    return np.abs(out)


def _peak(a: int, b: int) -> float:
    """x0 = (a + 1/2) / (a + b + 1) in (0, 1), near the peak of x^a (1-x)^b."""
    return (a + 0.5) / (a + b + 1)


def _inner_moments(n: int, a: int, b: int) -> np.ndarray:
    """M_k / W(x0)^n, k = 0..n, with M_k the integral of
    prod|g_i^2-g_j^2| e_k(g^2) prod W(g_i^2) for the Jacobi weight
    W(x) = x^a (1-x)^b, and x0 = :func:`_peak`.

    These moments reconstruct the inner integral for every coefficient at
    once: J(lg; r) = sum_k M_k lg^{n-k} r^k, since
    prod_i (lg + r g_i^2) = sum_k lg^{n-k} r^k e_k(g^2) pointwise.  The
    factor W(x0)^{-n} cancels in every ratio of moments and keeps the sum in
    float64 range: unscaled, the N = 2 sums turn subnormal from a = b = 260.

    On a slab x = s * y of :func:`_slab_grid`, prod|x_i - x_j| =
    s^{n(n-1)/2} prod|y_i - y_j| and e_k(x) = s^k e_k(y), so the rows
    wy * prod|y_i - y_j| * e_k(y) are built once, and each slab costs one
    evaluation of prod_i W(s y_i) / W(x0) and one matrix-vector product
    with them.
    """
    s, ws, y, wy = _slab_grid(n, a, b)
    x0 = _peak(a, b)
    rows = (wy * _abs_vandermonde(y))[:, None] * elementary_symmetric_all(y)
    powers = n * (n - 1) // 2 + np.arange(n + 1)
    total = np.zeros(n + 1)
    for s_a, w_a in zip(s, ws):
        x = s_a * y
        weight = (x / x0) ** a * ((1.0 - x) / (1.0 - x0)) ** b
        total += w_a * s_a**powers * (np.prod(weight, axis=1) @ rows)
    return math.factorial(n) * total


# -- full averages ---------------------------------------------------------


def _s_ratio(moments, lg: complex, reference_lg: complex) -> complex:
    """S(lg) / S(reference_lg) with S(lg) = sum_k M_k lg^{N-k} B_k, the exact
    r-integral of the moment sum, in float64; ``ConfigError`` if S(reference)
    is zero or either is not finite."""
    weighted = np.array(moments, dtype=float) * half_line_moments(len(moments) - 1)

    def s(x: complex) -> complex:
        total = 0j  # Horner: overflow gives inf, not OverflowError
        for w in weighted:
            total = total * x + w
        return total

    num, den = s(complex(lg)), s(complex(reference_lg))
    if not (den != 0 and np.isfinite(den) and np.isfinite(num / den)):
        raise ConfigError(f"S(lg) = {num} over S(reference) = {den} has no float64 ratio")
    return num / den


def jacobi_pfaffian(query: JacobiQuery) -> complex:
    """Pfaffian-assembled Jacobi average, as the ratio S(lg) / S(1).

    The inner moments are the exact rational coefficients of the kernel
    Pfaffian pf[A(c)] in c (:func:`_pfaffian_moments`, N+1 Pfaffians) and
    the r-integral is exact, so lg = 0 is a valid query.
    Above N = ``MAX_PFAFFIAN_N`` or a + b = ``MAX_PFAFFIAN_AB`` the exact
    arithmetic takes seconds and the route raises ``ConfigError``.
    """
    if query.n > MAX_PFAFFIAN_N or query.a + query.b > MAX_PFAFFIAN_AB:
        raise ConfigError(
            f"exact Pfaffian route capped at N = {MAX_PFAFFIAN_N} and "
            f"a + b = {MAX_PFAFFIAN_AB}"
        )
    moments = _pfaffian_moments(query.n, query.a, query.b)
    return _s_ratio(moments, query.lg, 1.0)


def jacobi_quadrature(query: JacobiQuery) -> complex:
    """Direct-quadrature Jacobi average, as the ratio S(lg) / S(1).

    The inner moments are degree-sized nested quadrature of the unfactored
    product prod_i (lg + r g_i^2), so lg = 0 is a valid query; the
    r-integral is exact.
    """
    moments = _inner_moments(query.n, query.a, query.b)
    return _s_ratio(moments, query.lg, 1.0)


def ginibre_closed(lam: complex, gam: complex, n: int) -> complex:
    """Exact Gaussian-weight average ratio: sum_{k=0}^{N} (lg)^k / k!.

    Normalised so that lg = 0 gives 1.
    """
    lg = complex(lam) * complex(gam)
    try:
        return complex(sum(lg**k / math.factorial(k) for k in range(n + 1)))
    except OverflowError:
        raise ConfigError(f"closed form overflows float64 at lg = {lg}, N = {n}") from None


def gaussian_inner_moments(n: int) -> np.ndarray:
    """Exact Gaussian-weight inner moments M_k / M_0, k = 0..N.

    M_k = integral over [0, inf)^N of prod_{i<j} |x_i - x_j| e_k(x)
    prod_i x_i^{-1/2} exp(-x_i / 2) dx (the g-integral with x = g^2) is a
    Laguerre-Selberg integral; Aomoto's extension (SIAM J. Math. Anal. 18,
    1987) gives M_k / M_0 = binom(N, k) * N! / (N - k)!.
    """
    if n < 1:
        raise DomainError("matrix dimension must be >= 1")
    try:
        return np.array(
            [math.comb(n, k) * math.perm(n, k) for k in range(n + 1)], dtype=float
        )
    except OverflowError:
        raise ConfigError(f"Gaussian inner moments overflow float64 at N = {n}") from None


def ginibre_pipeline(lam: complex, gam: complex, n: int) -> complex:
    """Gaussian-weight average through the singular-value pipeline.

    Same reduction as the Jacobi route but with W(x) = exp(-x/2) on
    [0, inf), reported as the ratio to lg = 0.  The inner moments
    (:func:`gaussian_inner_moments`) and the r-integral are both exact, and
    agreement with :func:`ginibre_closed` pins the [0, inf) r-domain: a
    finite r-domain breaks the N = 1 ratio 1 + lg.  The moments overflow
    float64 from N = 167.
    """
    return _s_ratio(gaussian_inner_moments(n), complex(lam) * complex(gam), 0.0)


def check_ginibre_n(n: int) -> None:
    """Refuse a Ginibre Monte Carlo above MAX_GINIBRE_N."""
    if n > MAX_GINIBRE_N:
        raise ConfigError(f"Ginibre Monte Carlo capped at N = {MAX_GINIBRE_N}")


@np.errstate(over="ignore", invalid="ignore")
def ginibre_mc(
    lam: complex,
    gam: complex,
    n: int,
    samples: int,
    rng: RngStream,
) -> Estimate:
    """Monte-Carlo Gaussian-weight average ratio.

    Samples real N x N matrices with iid standard normal entries and
    estimates E[det(lam - A) det(gam - A^T)] / E[det(A) det(A^T)] on common
    draws (the denominator is the lg = 0 reference).  The standard error is
    the delta-method one of the ratio of the two means.  It runs with
    numpy's overflow and invalid-value warnings off: an overflow anywhere
    reaches the estimate as inf or nan, and a non-finite ratio or error
    raises ``ConfigError``.
    """
    check_ginibre_n(n)
    # a real shift keeps the shifted matrices, and so their dets, in float64
    lam, gam = (x.real if x.imag == 0 else x for x in (complex(lam), complex(gam)))
    real_shift = isinstance(lam, float) and isinstance(gam, float)
    diag = np.arange(n)
    # E det(A)^2 = N!, so every det is scaled by the power of two nearest
    # 1/sqrt(N!): the det^4-sized cross column and its squares stay in range,
    # and the scaling is exact, so the ratio and its error are unchanged
    scale = math.ldexp(1.0, -round(math.lgamma(n + 1) / math.log(4)))

    def values(gen, b):
        mats = gen.standard_normal((b, n, n))
        den = (det_stack(mats) * scale) ** 2
        if real_shift:
            # A - x = -(x - A) entry by entry, exactly, so det(A - x) is
            # (-1)^N det(x - A) to the bit, for the cofactor formulas and for
            # LU alike, and the product of the two dets is the same; shifting
            # the drawn diagonal in place allocates no shifted copies
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

    (mean_n, mean_d, cross), se = stream_mean(values, samples, rng)
    ratio = mean_n / mean_d
    # Bessel-corrected variances back from the standard errors, se^2 = var / n
    var_n, var_d = samples * se[:2] ** 2
    cov = (cross - mean_n * np.conj(mean_d)) * samples / (samples - 1)
    var_r = (
        var_n - 2 * (np.conj(ratio) * cov).real + abs(ratio) ** 2 * var_d
    ) / abs(mean_d) ** 2
    est = Estimate(complex(ratio), float(np.sqrt(max(var_r, 0.0) / samples)), samples)
    if not (np.isfinite(est.mean) and math.isfinite(est.std_error)):
        lg = complex(lam) * complex(gam)
        raise ConfigError(f"Monte Carlo overflows float64 at lg = {lg}, N = {n}")
    return est
