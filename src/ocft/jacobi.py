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
sum_k M_k lg^{N-k} B_k, with M_k the inner moments and the exact Beta rule
B_k = integral r^k (1+r)^{-(N+2)} dr = 1 / ((N+1) binom(N, k)).  The factor
1/(N+1) cancels in every ratio, so every route computes one moment vector
M_0..M_N and weights it by the exact M_k / binom(N, k)
(``_beta_weights``).  For the Jacobi weight the M_k are Selberg integrals, and
``jacobi_quadrature`` evaluates them by Aomoto's closed form
(``jacobi_inner_moments``); it keeps the name of the CLI's
``--method quadrature``.  ``jacobi_pfaffian`` reads them off the values of
the degree-N polynomial pf[A(c)] at c = 0..N.  For integer a and b both
give the same exact rationals (``Fraction``), so the two routes agree to
the bit.  The tests check both against the nested slab quadrature and the
determinant and symmetrised-sum oracles of ``tests/jacobi_oracles.py``.

Factoring lg^N out of prod_i (lg + r g_i^2) turns the inner weight into
(1 + c g^2) with c = r / lg; the Pfaffian data (h, alpha_ij) is expressed
in terms of c throughout.

The Gaussian weight W(x) = exp(-x/2) reproduces the closed form
sum_{k<=N} lg^k / k! (the real Ginibre average), which pins the r-domain
[0, inf) end to end; see ``ginibre_closed`` / ``ginibre_mc``.  Its inner
moments are Laguerre-Selberg integrals with an exact Aomoto closed form
(``gaussian_inner_moments``), so that pipeline is exact end to end.

All four routes take S(lg) / S(reference) from one evaluator,
``_exact_ratio``, in exact rationals rounded once.  So the two Jacobi routes
agree to the bit, as do the two Gaussian ones, and the alternating sum at
negative lg loses no digit to cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError
from .haar import Estimate, RngStream, stream_mean
from .linalg import det_stack, pfaffian

__all__ = [
    "JacobiQuery",
    "check_ginibre_n",
    "gaussian_inner_moments",
    "ginibre_closed",
    "ginibre_mc",
    "ginibre_pipeline",
    "jacobi_inner_moments",
    "jacobi_pfaffian",
    "jacobi_quadrature",
]

# jacobi_pfaffian's range, a time cap on its exact arithmetic: N = 16 takes
# 0.3-0.7 s for a = b <= 50, and 6.4 s at a = b = 200
MAX_PFAFFIAN_N = 16
MAX_PFAFFIAN_AB = 100
# jacobi_inner_moments' range, a time cap on its exact products: at N = 1019
# the moments and their Beta weights take 0.06 s at a = b = 1, 0.12 s at
# a + b = 1e18 and 22 s at a + b = 2e1000, and `jacobi --method quadrature`
# takes 0.07-0.09 s at a = b = 1 and 0.53-0.65 s at a + b = 1e18, real to
# complex lambda gamma (2 vCPUs); no weight exceeds 1
MAX_SELBERG_N = 1019
MAX_SELBERG_AB = 10**18
# ginibre_mc's range.  Its delta-method error understates the spread of the
# heavy-tailed det ratios as N grows: in 2000-sample runs at lambda = gamma = 1,
# |z| > 3 came up at 1.7% of 1000 seeds at N = 15, 3.4% at N = 30 and 3.9% at
# N = 50, against 0.27% for a Gaussian z, so the range is not widened until that is fixed
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
        # stored as Python ints, which the exact routes' Fractions take
        for name in ("a", "b", "n"):
            value = getattr(self, name)
            try:
                whole = int(value)
            except (OverflowError, TypeError, ValueError):  # inf, complex, nan
                whole = None
            if whole is None or whole != value:
                raise DomainError(f"{name} = {value!r} is not a finite integer")
            object.__setattr__(self, name, whole)
        if self.a < 0 or self.b < 0:
            raise DomainError("weight exponents a, b must be non-negative integers")
        if self.n < 1:
            raise DomainError("matrix dimension must be >= 1")


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
    ai, aj = a + i, a + j

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
                val = sum(_h_terms(q, b))
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


# -- full averages ---------------------------------------------------------


def _beta_weights(moments) -> list[Fraction]:
    """The exact weights M_k / binom(N, k), k = 0..N, of S(lg) = sum_k M_k
    lg^{N-k} B_k: B_k = integral_0^inf r^k (1+r)^{-(N+2)} dr, a Beta integral
    in t = r/(1+r), is 1 / ((N+1) binom(N, k)), and the common factor
    1/(N+1) cancels in every ratio of two S values."""
    n = len(moments) - 1
    return [Fraction(m) / math.comb(n, k) for k, m in enumerate(moments)]


def _exact_lg(lam: complex, gam: complex) -> tuple[Fraction, Fraction]:
    """lambda gamma as the exact pair (re, im) of ``Fraction``s.

    A finite float is a dyadic rational, so the product is exact; a
    non-finite lambda or gamma raises ``ConfigError``.
    """
    lam, gam = complex(lam), complex(gam)
    if not all(map(math.isfinite, (lam.real, lam.imag, gam.real, gam.imag))):
        raise ConfigError(f"lambda = {lam} and gamma = {gam} must be finite")
    (a, b), (c, d) = ((Fraction(x.real), Fraction(x.imag)) for x in (lam, gam))
    return a * c - b * d, a * d + b * c


def _exact_ratio(weights, lg: tuple[Fraction, Fraction], reference: int, route: str) -> complex:
    """S(lg) / S(reference), S(x) = sum_k weights[k] x^(N-k), evaluated
    exactly and rounded once to the nearest complex float.

    The rational weights are scaled to integers over their least common
    denominator D, and the dyadic lg of :func:`_exact_lg` to the Gaussian
    integer p + iq = 2^e lg, so every Horner step is an integer product with
    no gcd: D 2^{eN} S(lg) is the Horner sum at p + iq of the k-th integer
    weight times 2^{ek}.  Each of its parts over D 2^{eN} S(reference) is one
    correctly rounded integer division, so an alternating sum at negative lg
    loses no digit to cancellation; a part past float64 raises
    ``ConfigError``.
    """
    n = len(weights) - 1
    scale = math.lcm(*(w.denominator for w in weights))
    ints = [w.numerator * (scale // w.denominator) for w in weights]
    e = max(x.denominator for x in lg).bit_length() - 1
    p, q = (x.numerator << e + 1 - x.denominator.bit_length() for x in lg)
    re = im = den = 0
    for k, w in enumerate(ints):
        re, im = re * p - im * q + (w << e * k), re * q + im * p
        den = den * reference + w
    den <<= e * n
    try:
        return complex(re / den, im / den)
    except OverflowError:
        raise ConfigError(f"{route} overflows float64 at N = {n}") from None


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
    lg = _exact_lg(query.lam, query.gam)
    weights = _beta_weights(_pfaffian_moments(query.n, query.a, query.b))
    return _exact_ratio(weights, lg, 1, "Pfaffian route")


def jacobi_inner_moments(n: int, a: int, b: int) -> list[Fraction]:
    """Exact Jacobi-weight inner moments M_k / M_0, k = 0..N, as ``Fraction``s.

    M_k (the g-integral with x = g^2) is Aomoto's Selberg integral with
    alpha = a + 1/2, beta = b + 1, gamma = 1/2 (SIAM J. Math. Anal. 18, 1987):
    M_k / M_0 = binom(N, k) prod_{i<=k} (alpha + (N-i) gamma)
    / (alpha + beta + (2N-i-1) gamma).  Above N = ``MAX_SELBERG_N`` or
    a + b = ``MAX_SELBERG_AB`` it raises ``ConfigError`` before any arithmetic.
    """
    if n > MAX_SELBERG_N or a + b > MAX_SELBERG_AB:
        raise ConfigError(
            f"Selberg closed form capped at N = {MAX_SELBERG_N} and a + b = {MAX_SELBERG_AB}"
        )
    out, ratio = [], Fraction(1)
    for k in range(n + 1):
        if k:
            ratio *= Fraction(2 * a + 1 + n - k, 2 * a + 2 * b + 2 * n + 2 - k)
        out.append(math.comb(n, k) * ratio)
    return out


def jacobi_quadrature(query: JacobiQuery) -> complex:
    """Closed-form Jacobi average, as the ratio S(lg) / S(1).

    The inner moments' Selberg integrals are taken in closed form
    (:func:`jacobi_inner_moments`), the Pfaffian route's exact rationals, and
    the r-integral by its exact Beta rule, so lg = 0 is a valid query.
    """
    lg = _exact_lg(query.lam, query.gam)
    weights = _beta_weights(jacobi_inner_moments(query.n, query.a, query.b))
    return _exact_ratio(weights, lg, 1, "Selberg closed form")


def ginibre_closed(lam: complex, gam: complex, n: int) -> complex:
    """Exact Gaussian-weight average ratio: sum_{k=0}^{N} (lg)^k / k!.

    Normalised so that lg = 0 gives 1.  The sum is taken in exact rationals
    (``Fraction``), as (sum_k lg^k N!/k!) / N!, and rounded once, so the
    alternating sum at negative lg loses no digits to cancellation.
    """
    if n < 1:
        raise DomainError("matrix dimension must be >= 1")
    lg = _exact_lg(lam, gam)
    return _exact_ratio([math.perm(n, k) for k in range(n + 1)], lg, 0, "closed form")


def gaussian_inner_moments(n: int) -> list[int]:
    """Exact Gaussian-weight inner moments M_k / M_0, k = 0..N, as ``int``s.

    M_k = integral over [0, inf)^N of prod_{i<j} |x_i - x_j| e_k(x)
    prod_i x_i^{-1/2} exp(-x_i / 2) dx (the g-integral with x = g^2) is a
    Laguerre-Selberg integral; Aomoto's extension (SIAM J. Math. Anal. 18,
    1987) gives M_k / M_0 = binom(N, k) * N! / (N - k)!.
    """
    if n < 1:
        raise DomainError("matrix dimension must be >= 1")
    return [math.comb(n, k) * math.perm(n, k) for k in range(n + 1)]


def ginibre_pipeline(lam: complex, gam: complex, n: int) -> complex:
    """Gaussian-weight average through the singular-value pipeline.

    Same reduction as the Jacobi route but with W(x) = exp(-x/2) on
    [0, inf), reported as the ratio to lg = 0.  The inner moments
    (:func:`gaussian_inner_moments`) and their Beta weights
    (:func:`_beta_weights`) are exact, and S(lg) / S(0) is taken in exact
    rationals and rounded once, so it equals :func:`ginibre_closed` to the
    bit at every N; that agreement pins the [0, inf) r-domain, since a
    finite r-domain breaks the N = 1 ratio 1 + lg.
    """
    lg = _exact_lg(lam, gam)
    return _exact_ratio(_beta_weights(gaussian_inner_moments(n)), lg, 0, "pipeline")


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
    draws (the denominator is the lg = 0 reference), in batches of
    ``haar._batch_rows(N^2)`` matrices, at most ``haar.BATCH_ENTRIES``
    entries each.  The standard error is the delta-method one of the ratio
    of the two means.  It runs with numpy's overflow and invalid-value
    warnings off: an overflow anywhere reaches the estimate as inf or nan,
    and a non-finite ratio or error raises ``ConfigError``.
    """
    check_ginibre_n(n)
    # a real shift keeps the shifted matrices, and so their dets, in float64
    lam, gam = (x.real if x.imag == 0 else x for x in (complex(lam), complex(gam)))
    real_shift = isinstance(lam, float) and isinstance(gam, float)
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
            # LU alike, and the product of the two dets is the same; the
            # drawn diagonal, every (n + 1)-th entry of the C-contiguous
            # batch, is shifted in place through a strided view, so no
            # shifted copy and no index array is made
            diag = mats.reshape(b, n * n)[:, :: n + 1]
            d = diag.copy()
            np.subtract(d, lam, out=diag)
            det_l = det_stack(mats)
            np.subtract(d, gam, out=diag)
            det_g = det_stack(mats)
        else:
            eye = np.eye(n)
            det_l, det_g = (det_stack(x * eye - mats) for x in (lam, gam))
        num = (det_l * scale) * (det_g * scale)
        return np.stack([num, den, num * np.conj(den)], axis=1)

    (mean_n, mean_d, cross), se = stream_mean(values, samples, rng, entries=n * n)
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
