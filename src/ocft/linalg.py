"""Dense real and complex linear algebra and combinatorial primitives.

Everything downstream (Pfaffian kernels, symmetric-polynomial closed forms,
Beta-function sums, Monte-Carlo determinant oracles) is built on the handful
of routines in this module:

* ``pfaffian``          -- skew-symmetric elimination with partial pivoting
* ``det_stack``         -- batched determinants in the input's dtype:
                           cofactor / Laplace formulas up to 4 x 4, LAPACK's
                           LU above; ``determinant`` is its one-matrix form
* ``elementary_symmetric_all`` -- every e_k of each row, by the stable
                           product-polynomial scheme
* ``log_gamma`` / ``log_beta`` -- log-domain special functions

All functions are pure; none keep state.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError, ShapeError

__all__ = [
    "as_complex_matrix",
    "det_stack",
    "determinant",
    "elementary_symmetric_all",
    "is_skew",
    "log_beta",
    "log_gamma",
    "pfaffian",
]


def as_complex_matrix(a) -> np.ndarray:
    """Return ``a`` as a 2-D complex ndarray without copying when possible."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    return m


def is_skew(a, tol: float | None = None) -> bool:
    """Check |A + A^T|_max <= tol.

    ``tol`` defaults to ``1e-12 * |A|_max`` (absolute 1e-12 for a zero
    matrix) so that the check scales with the data.
    """
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        return False
    scale = np.abs(m).max() if m.size else 0.0
    if tol is None:
        tol = 1e-12 * max(scale, 1.0)
    return bool(np.abs(m + m.T).max() <= tol) if m.size else True


def pfaffian(a, tol: float | None = None):
    """Pfaffian of a complex skew-symmetric matrix.

    Uses skew-symmetric (Parlett-Reid style) elimination with partial
    pivoting: the matrix is reduced to tridiagonal form by congruence with
    unit lower-triangular Gauss transforms, and the Pfaffian is the product
    of the surviving superdiagonal entries times the pivot sign.  O(n^3),
    numerically stable for the small dimensions used here.  An object-dtype
    input stays in its own arithmetic: ``Fraction`` entries give an exact
    Pfaffian.  Any other input is taken as complex.

    Raises DimensionError for odd dimension, ShapeError if the skew check
    fails at ``tol`` (same default as :func:`is_skew`).
    """
    m = np.asarray(a)
    exact = m.dtype == object
    if not exact:
        m = as_complex_matrix(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 == 1:
        raise DimensionError(f"pfaffian needs an even square matrix, got {m.shape}")
    n = m.shape[0]
    if not is_skew(m, tol):
        raise ShapeError("matrix is not skew-symmetric within tolerance")
    if n == 0:
        return 1.0 + 0.0j
    m = (m - m.T) / 2  # the skew part, free of rounding drift

    val = 1 if exact else 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        # pivot the largest entry of column k below the diagonal into (k+1, k)
        kp = k + 1 + int(np.abs(m[k + 1:, k]).argmax())
        if kp != k + 1:
            m[[k + 1, kp], k:] = m[[kp, k + 1], k:]
            m[k:, [k + 1, kp]] = m[k:, [kp, k + 1]]
            val = -val
        pivot = m[k + 1, k]
        if pivot == 0:
            return 0 * pivot if exact else 0.0 + 0.0j
        val *= m[k, k + 1]
        if k + 2 < n:
            tau = m[k + 2:, k] / pivot
            col = m[k + 2:, k + 1]
            m[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return val if exact else complex(val)


def det_stack(m) -> np.ndarray:
    """Determinants of a real or complex (..., n, n) stack, shape (...).

    The result keeps the input's dtype (integer input is taken as float64),
    so a real stack gives real determinants.  Up to n = 4 every determinant
    is a fixed polynomial in the entries, with no pivoting, division or
    log/exp: the entry, ad - bc, the cofactor expansion along the first row,
    and at n = 4 the Laplace expansion over the six 2 x 2 minors of rows
    {0, 1} and their complements in rows {2, 3}.  Larger matrices go through
    LAPACK's partially pivoted LU (``numpy.linalg.det``).
    """
    a = np.asarray(m)
    if not np.issubdtype(a.dtype, np.inexact):
        a = a.astype(float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"det_stack needs a (..., n, n) stack, got {a.shape}")
    n = a.shape[-1]
    if n > 4:
        return np.linalg.det(a)
    if n == 0:
        return np.ones(a.shape[:-2], dtype=a.dtype)
    e = [[a[..., i, j] for j in range(n)] for i in range(n)]
    if n == 1:
        return e[0][0].copy()
    if n == 2:
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]
    if n == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = e
        return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)

    def minor(r, j, k):
        return e[r][j] * e[r + 1][k] - e[r][k] * e[r + 1][j]

    return (
        minor(0, 0, 1) * minor(2, 2, 3)
        - minor(0, 0, 2) * minor(2, 1, 3)
        + minor(0, 0, 3) * minor(2, 1, 2)
        + minor(0, 1, 2) * minor(2, 0, 3)
        - minor(0, 1, 3) * minor(2, 0, 2)
        + minor(0, 2, 3) * minor(2, 0, 1)
    )


def determinant(a) -> complex:
    """Determinant of a square complex matrix (:func:`det_stack` of one)."""
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"determinant needs a square matrix, got {m.shape}")
    return complex(det_stack(m))


def elementary_symmetric_all(values) -> np.ndarray:
    """All elementary symmetric polynomials S^0..S^n of each row.

    Builds the coefficients of prod_i (1 + v_i t) by repeated convolution,
    which is numerically stable (no alternating Newton sums); S^l is the
    t^l coefficient.  ``values`` is a vector or a (..., n) stack of rows; the result has shape
    (..., n + 1).
    """
    v = np.atleast_1d(np.asarray(values, dtype=float))
    n = v.shape[-1]
    coeffs = np.zeros(v.shape[:-1] + (n + 1,))
    coeffs[..., 0] = 1.0
    for k in range(n):
        coeffs[..., 1:k + 2] += v[..., k:k + 1] * coeffs[..., :k + 1].copy()
    return coeffs


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if x <= 0:
        raise DomainError(f"log_gamma needs x > 0, got {x}")
    return math.lgamma(x)


def log_beta(x: float, y: float) -> float:
    """log B(x, y) = log Gamma(x) + log Gamma(y) - log Gamma(x+y)."""
    if x <= 0 or y <= 0:
        raise DomainError(f"log_beta needs positive arguments, got ({x}, {y})")
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)
