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
``jacobi_quadrature`` and ``ginibre_pipeline`` from quadrature or closed
moments, and ``jacobi_pfaffian`` by reading the coefficients of the degree-N
polynomial pf[A(c)] off N+1 Pfaffians on a circle in the complex c-plane.

The inner integral J has three independent evaluation routes, compared
against each other in the tests:

* symmetrised quadrature of the product form (``inner_symmetrized``),
* the ordered-sector monomial determinant (``mehta_determinant``),
* a Pfaffian of Beta-function sums (``inner_pfaffian`` / ``alpha_entry``).

The two quadrature routes sum over one Gauss-Legendre product grid on the
ordered sector g_1 > ... > g_N, mapped from the unit cube by
g_i = u_1 u_2 ... u_i (``_slab_grid``).  The grid is taken in slabs of fixed
u_1: with s = g_1^2 every node is x = g^2 = s * y, where
y_i = (u_2 ... u_i)^2 ranges over the same nodes^{N-1} rows on every slab.
Then prod_{i<j} |x_i - x_j| = s^{N(N-1)/2} prod_{i<j} |y_i - y_j| and
e_k(x) = s^k e_k(y), so the moment route builds its Vandermonde and
e_k(y) rows once and each slab costs one weight evaluation and one
matrix-vector product; the determinant route evaluates its N x N
determinants one slab at a time.  Either way no array holds more than one
slab, nodes^{N-1} points.

Factoring lg^N out of prod_i (lg + r g_i^2) turns the inner weight into
(1 + c g^2) with c = r / lg; the Pfaffian data (h, k_i, alpha_ij) is
expressed in terms of c throughout.

The Gaussian weight W(x) = exp(-x/2) reproduces the closed form
sum_{k<=N} lg^k / k! (the real Ginibre average), which pins the r-domain
[0, inf) end to end; see ``ginibre_closed`` / ``ginibre_mc``.  Its inner
moments are Laguerre-Selberg integrals with an exact Aomoto closed form
(``gaussian_inner_moments``), so that pipeline is exact end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._quad import gauss_legendre_01, half_line_moments
from .errors import ConfigError, DomainError
from .haar import Estimate, RngStream, stream_mean
from .linalg import elementary_symmetric_all, log_beta, log_gamma, pfaffian

__all__ = [
    "JacobiQuery",
    "alpha_entry",
    "alpha_entry_quadrature",
    "gaussian_inner_moments",
    "ginibre_closed",
    "ginibre_mc",
    "ginibre_pipeline",
    "h_closed",
    "inner_pfaffian",
    "inner_symmetrized",
    "jacobi_pfaffian",
    "jacobi_quadrature",
    "mehta_determinant",
]

MAX_QUADRATURE_N = 4
# jacobi_pfaffian's range: the float Pfaffian of the monomial-basis alpha
# kernel is badly conditioned.  Over a, b in {0, 1, 2} and query and
# reference lg in {0, 0.15, 1.08 e^{0.4i}, 1.25, 1.8, 8}, the worst relative
# error of its ratios against Aomoto's closed moments is 5.0e-9 at N = 6 and
# 1.6e-6 at N = 7
MAX_PFAFFIAN_N = 6
# radius of the circle in the c-plane on which pf[A(c)] is sampled; the unit
# circle is up to 11x less accurate at N = 6 and 8
_PFAFFIAN_RADIUS = 2.0
# ginibre_mc's range.  Its delta-method error understates the spread of the
# heavy-tailed det ratios as N grows: in 2000-sample runs |z| > 3 came up in
# 0.7% of runs at N <= 15, 5.5% at N = 30..50 and 6% at N = 70..94, against
# 0.27% for a Gaussian z, so the range is not widened until that is fixed
MAX_GINIBRE_N = 50
_INNER_NODES = {1: 128, 2: 64, 3: 48, 4: 32}


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


# -- h, k and the alpha kernel -------------------------------------------


def h_closed(a: float, b: int, x) -> float | np.ndarray:
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
    prefix = log_gamma(b + 1.0) + log_gamma(a + 0.5) - math.log(2.0)
    total = np.zeros_like(xs)
    one_minus = 1.0 - xs**2
    for i in range(b + 1):
        coeff = math.exp(prefix - log_gamma(b - i + 1.0) - log_gamma(a + i + 1.5))
        total = total + coeff * xs ** (2 * (a + i) + 1) * one_minus ** (b - i)
    return total if total.shape else float(total)


@lru_cache(maxsize=4096)
def _i_moment(p: float, q: float, b: int) -> float:
    """I(p, q) = integral_0^1 g^{2p} (1-g^2)^b h(q, b; g) dg, in log domain.

    Expanding h termwise gives
    I = (1/4) Gamma(b+1) Gamma(q+1/2)
        * sum_l B(p+q+l+1, 2b-l+1) / (Gamma(b-l+1) Gamma(q+l+3/2)).
    """
    prefix = log_gamma(b + 1.0) + log_gamma(q + 0.5) - math.log(4.0)
    total = 0.0
    for l in range(b + 1):
        total += math.exp(
            prefix
            + log_beta(p + q + l + 1.0, 2.0 * b - l + 1.0)
            - log_gamma(b - l + 1.0)
            - log_gamma(q + l + 1.5)
        )
    return total


def _alpha_poly(i: int, j: int, a: int, b: int) -> tuple[float, float, float]:
    """Coefficients (A0, A1, A2) of alpha_ij(c) = A0 + A1 c + A2 c^2."""
    ai, aj = a + i, a + j

    def anti(p, q):
        return _i_moment(p, q, b) - _i_moment(q, p, b)

    a0 = anti(ai, aj)
    a1 = anti(ai + 1, aj) + anti(ai, aj + 1)
    a2 = anti(ai + 1, aj + 1)
    return a0, a1, a2


def alpha_entry(i: int, j: int, a: int, b: int, r: float, lg: complex) -> complex:
    """Closed Beta-sum evaluation of the antisymmetric kernel alpha_ij.

    alpha_ij = integral_0^1 (1 + c g^2) g^{2a} (1-g^2)^b
               (g^{2i} k_j(g) - g^{2j} k_i(g)) dg,  c = r / lg.
    """
    if lg == 0:
        raise DomainError("alpha divides by lambda*gamma")
    c = r / lg
    a0, a1, a2 = _alpha_poly(i, j, a, b)
    return a0 + a1 * c + a2 * c * c


def alpha_entry_quadrature(
    i: int, j: int, a: int, b: int, r: float, lg: complex
) -> complex:
    """Adaptive quadrature of the defining integral for alpha_ij.

    Independent oracle for :func:`alpha_entry`; authoritative if the two
    ever disagree.  SciPy is imported here, so the library itself does not
    load it.
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


# -- ordered-sector quadrature machinery ----------------------------------


def _jacobi_weight(a: int, b: int):
    return lambda x: x**a * (1.0 - x) ** b


def _gaussian_weight():
    return lambda x: np.exp(-0.5 * x)


def _slab_grid(n: int, half_line: bool):
    """Nodes/weights for the descending-ordered sector g_1 > ... > g_n, in slabs.

    Maps the unit cube through cumulative products g_i = prod_{k<=i} u_k;
    for the half-line the first coordinate is opened up with u -> u/(1-u).
    Since g_i = g_1 (u_2 ... u_i), the squares factor as x = s * y with
    s = g_1^2 the slab value and y_i = (u_2 ... u_i)^2 the same on every
    slab.  With nodes = _INNER_NODES[n], returns (s, ws, y, wy): the
    ``nodes`` slab values and weights,
    ws folding in the Jacobian g_1^{n-1} (and 1/(1-u_1)^2 on the
    half-line), and the nodes^{n-1} rows y of shape (nodes^{n-1}, n) with
    weights wy folding in prod_{k>=2} u_k^{n-k}.  The node s_a * y_b has
    weight ws_a * wy_b.
    """
    if n > MAX_QUADRATURE_N:
        raise ConfigError(f"nested quadrature capped at N = {MAX_QUADRATURE_N}")
    nodes = _INNER_NODES[n]
    x, w = gauss_legendre_01(nodes)
    g1 = x / (1.0 - x) if half_line else x
    ws = w * g1 ** (n - 1)
    if half_line:
        ws = ws / (1.0 - x) ** 2
    # rows (1, u_2, u_2 u_3, ..., u_2 ... u_n) of the row-major product grid
    ratios, wy = np.ones((1, 1)), np.ones(1)
    for k in range(2, n + 1):
        last = np.outer(ratios[:, -1], x).ravel()
        ratios = np.hstack([np.repeat(ratios, nodes, axis=0), last[:, None]])
        wy = np.outer(wy, w * x ** (n - k)).ravel()
    return g1**2, ws, ratios**2, wy


def _abs_vandermonde(x: np.ndarray) -> np.ndarray:
    """prod_{i<j} |x_i - x_j| for descending rows x (positive as written)."""
    n = x.shape[1]
    out = np.ones(x.shape[0])
    for i in range(n):
        for j in range(i + 1, n):
            out *= x[:, i] - x[:, j]
    return np.abs(out)


def _inner_moments(n: int, weight, half_line: bool) -> np.ndarray:
    """M_k = integral of prod|g_i^2-g_j^2| e_k(g^2) prod W(g^2), k = 0..n.

    These moments reconstruct the inner integral for every coefficient at
    once: J(lg; r) = sum_k M_k lg^{n-k} r^k, since
    prod_i (lg + r g_i^2) = sum_k lg^{n-k} r^k e_k(g^2) pointwise.

    On a slab x = s * y of :func:`_slab_grid`, prod|x_i - x_j| =
    s^{n(n-1)/2} prod|y_i - y_j| and e_k(x) = s^k e_k(y), so the rows
    wy * prod|y_i - y_j| * e_k(y) are built once, and each slab costs one
    evaluation of prod_i W(s y_i) and one matrix-vector product with them.
    """
    s, ws, y, wy = _slab_grid(n, half_line)
    rows = (wy * _abs_vandermonde(y))[:, None] * elementary_symmetric_all(y)
    powers = n * (n - 1) // 2 + np.arange(n + 1)
    total = np.zeros(n + 1)
    for s_a, w_a in zip(s, ws):
        total += w_a * s_a**powers * (np.prod(weight(s_a * y), axis=1) @ rows)
    return math.factorial(n) * total


def inner_symmetrized(n: int, a: int, b: int, c: complex) -> complex:
    """Symmetrised quadrature of the inner integral at fixed coefficient c.

    J_sym(c) = integral over [0,1]^N of
               prod_{i<j} |g_i^2 - g_j^2| prod_i (1 + c g_i^2) W(g_i^2) dg.
    """
    m = _inner_moments(n, _jacobi_weight(a, b), False)
    return sum(m[k] * c**k for k in range(n + 1))


def mehta_determinant(
    query: JacobiQuery,
    r: float | complex,
    powers: tuple[int, ...] | None = None,
) -> complex:
    """Ordered-sector monomial-determinant route to the inner integral.

    Evaluates N! * integral over the ordered sector of
    det[ W(g_i^2) R_{j-1}(g_i^2) (1 + r g_i^2) ] with R_j(x) = x^{p_j}
    (default p = (0, 1, ..., N-1), which makes the determinant the positive
    Vandermonde on ascending rows).  ``r`` is the literal coefficient of
    the (1 + r g^2) factor; the full pipeline passes c = r / (lambda gamma).
    """
    n = query.n
    s, ws, y, wy = _slab_grid(n, False)
    powers = tuple(range(n)) if powers is None else tuple(powers)
    if len(powers) != n:
        raise ConfigError("need one monomial power per matrix row")
    y_asc = y[:, ::-1]  # ascending rows make the default determinant positive
    weight = _jacobi_weight(query.a, query.b)
    total = 0.0 + 0.0j
    for s_a, w_a in zip(s, ws):
        x_asc = s_a * y_asc
        fcols = np.stack(
            [weight(x_asc) * x_asc**p * (1.0 + r * x_asc) for p in powers], axis=2
        )
        total += w_a * (wy @ np.linalg.det(fcols.astype(complex)))
    return complex(math.factorial(n) * total)


def _alpha_matrix_poly(n: int, a: int, b: int) -> list[np.ndarray]:
    """Matrix coefficients [A0, A1, A2] of the Pfaffian kernel in c.

    For even N = 2s the kernel is alpha[0:2s, 0:2s]; for odd N = 2s+1 it is
    bordered by the column k_i(a, b; 1), itself linear in c, giving a third
    degree-one coefficient slot merged into A0/A1.
    """
    size = n if n % 2 == 0 else n + 1
    mats = [np.zeros((size, size)) for _ in range(3)]
    for i in range(n):
        for j in range(i + 1, n):
            a0, a1, a2 = _alpha_poly(i, j, a, b)
            for m, val in zip(mats, (a0, a1, a2)):
                m[i, j] = val
                m[j, i] = -val
    if n % 2 == 1:
        for i in range(n):
            k0 = float(h_closed(a + i, b, 1.0))
            k1 = float(h_closed(a + i + 1, b, 1.0))
            mats[0][i, n], mats[0][n, i] = k0, -k0
            mats[1][i, n], mats[1][n, i] = k1, -k1
    return mats


def inner_pfaffian(n: int, a: int, b: int, c: complex) -> complex:
    """Pfaffian route to the inner integral at fixed coefficient c.

    J_sym(c) = N! (-1)^{floor(N/2)} pf[A(c)] with A the alpha kernel (even
    N) or its k-bordered extension (odd N).
    """
    mats = _alpha_matrix_poly(n, a, b)
    kernel = (mats[0] + c * mats[1] + c * c * mats[2]).astype(complex)
    sign = -1.0 if (n // 2) % 2 else 1.0
    return math.factorial(n) * sign * pfaffian(kernel)


def _pfaffian_moments(n: int, a: int, b: int) -> np.ndarray:
    """Inner moments M_0..M_N read off the Pfaffian route.

    J_sym(c) = sum_k M_k c^k is a polynomial of degree N, so its values at
    the N+1 points c_j = rho w_j, w_j = e^{2 pi i j / (N+1)}, determine it:
    sum_j J_sym(c_j) w_j^{-k} = (N+1) M_k rho^k.  The kernel is real, so the
    coefficients are real up to rounding and only their real part is kept.
    The sum is one small matrix product, which loads no FFT module.
    """
    roots = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    values = np.array([inner_pfaffian(n, a, b, _PFAFFIAN_RADIUS * w) for w in roots])
    dft = np.vander(roots.conj(), increasing=True).T
    return (dft @ values).real / ((n + 1) * _PFAFFIAN_RADIUS ** np.arange(n + 1))


# -- full averages ---------------------------------------------------------


def _s_ratio(moments: np.ndarray, lg: complex, reference_lg: complex) -> complex:
    """S(lg) / S(reference_lg) with S(lg) = sum_k M_k lg^{N-k} B_k, the exact
    r-integral of the moment sum."""
    n = moments.size - 1
    weighted = moments * half_line_moments(n)

    def s(x: complex) -> complex:
        return complex(weighted @ np.array([x ** (n - k) for k in range(n + 1)]))

    return s(lg) / s(complex(reference_lg))


def jacobi_pfaffian(query: JacobiQuery, reference_lg: complex = 1.0) -> complex:
    """Pfaffian-assembled Jacobi average, as the ratio S(lg) / S(reference).

    The inner moments are the coefficients of the kernel Pfaffian
    pf[A(c)] in c (:func:`_pfaffian_moments`, N+1 Pfaffians) and the
    r-integral is exact, so lg = 0 is a valid query and reference.  Above
    ``MAX_PFAFFIAN_N`` the float Pfaffian loses more than 1e-8 relative and
    the route raises ``ConfigError``.
    """
    if query.n > MAX_PFAFFIAN_N:
        raise ConfigError(f"float Pfaffian route capped at N = {MAX_PFAFFIAN_N}")
    moments = _pfaffian_moments(query.n, query.a, query.b)
    return _s_ratio(moments, query.lg, reference_lg)


def jacobi_quadrature(query: JacobiQuery, reference_lg: complex = 1.0) -> complex:
    """Direct-quadrature Jacobi average, as the ratio S(lg) / S(reference).

    The inner moments are nested quadrature of the unfactored product
    prod_i (lg + r g_i^2), so lg = 0 is a valid query and reference; the
    r-integral is exact.
    """
    weight = _jacobi_weight(query.a, query.b)
    moments = _inner_moments(query.n, weight, False)
    return _s_ratio(moments, query.lg, reference_lg)


def ginibre_closed(lam: complex, gam: complex, n: int) -> complex:
    """Exact Gaussian-weight average ratio: sum_{k=0}^{N} (lg)^k / k!.

    Normalised so that lg = 0 gives 1.
    """
    lg = complex(lam) * complex(gam)
    return complex(sum(lg**k / math.factorial(k) for k in range(n + 1)))


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
    the delta-method one of the ratio of the two means.
    """
    if n > MAX_GINIBRE_N:
        raise ConfigError(f"Ginibre Monte Carlo capped at N = {MAX_GINIBRE_N}")
    eye = np.eye(n)
    # E det(A)^2 = N!, so every det is scaled by the power of two nearest
    # 1/sqrt(N!): the det^4-sized cross column and its squares stay in range,
    # and the scaling is exact, so the ratio and its error are unchanged
    scale = math.ldexp(1.0, -round(math.lgamma(n + 1) / math.log(4)))

    def values(gen, b):
        mats = gen.standard_normal((b, n, n))
        num = (np.linalg.det(lam * eye - mats) * scale) * (
            np.linalg.det(gam * eye - mats) * scale
        )
        den = (np.linalg.det(mats) * scale) ** 2
        return np.stack([num, den, num * np.conj(den)], axis=1)

    (mean_n, mean_d, cross), se = stream_mean(values, samples, rng)
    ratio = mean_n / mean_d
    # Bessel-corrected variances back from the standard errors, se^2 = var / n
    var_n, var_d = samples * se[:2] ** 2
    cov = (cross - mean_n * np.conj(mean_d)) * samples / (samples - 1)
    var_r = (
        var_n - 2 * (np.conj(ratio) * cov).real + abs(ratio) ** 2 * var_d
    ) / abs(mean_d) ** 2
    return Estimate(complex(ratio), float(np.sqrt(max(var_r, 0.0) / samples)), samples)
