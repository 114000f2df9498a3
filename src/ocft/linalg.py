"""Dense real and complex linear algebra and combinatorial primitives.

Everything downstream (Pfaffian kernels, symmetric-polynomial closed forms,
Beta-function sums, Monte-Carlo determinant oracles) is built on the handful
of routines in this module:

* ``pfaffian``          -- skew-symmetric elimination with partial pivoting
* ``det_stack``         -- batched determinants in the input's dtype:
                           cofactor / Laplace formulas up to 4 x 4, the
                           Laplace minors below at 5 x 5 and real 6 x 6,
                           both on cache-sized tiles, LAPACK's LU above;
                           ``determinant`` is its one-matrix form
* ``laplace_minors``    -- batched minors of given row tuples on every
                           column set, each expanded along its first row:
                           the one Laplace engine, behind ``det_stack`` and
                           the colour-side minors of ``cft``
* ``tile_slices``       -- the cache-sized tiles that the batched kernels
                           here and in ``haar`` work through
* ``elementary_symmetric_all`` -- every e_k of each row, by the stable
                           product-polynomial scheme
* ``log_gamma`` / ``log_beta`` -- log-domain special functions

All functions are pure; none keep state.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import DimensionError, DomainError, ShapeError

__all__ = [
    "as_complex_matrix",
    "det_stack",
    "determinant",
    "elementary_symmetric_all",
    "is_skew",
    "laplace_minors",
    "log_beta",
    "log_gamma",
    "pfaffian",
    "tile_slices",
]

# Batched kernels take their stacks in tiles of about this many matrix entries
# (1 MiB of float64), so that a tile's copies and temporaries stay in the
# per-core cache and are reused by the next tile, not made afresh batch-sized
TILE_ENTRIES = 1 << 17


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


def tile_slices(count: int, entries: int) -> list[slice]:
    """Consecutive slices over ``count`` items of ``entries`` matrix entries each.

    Each slice holds TILE_ENTRIES // entries items, at least two, and the
    last holds the rest.  A rest of one item joins the slice before it, so
    no slice holds a single item unless ``count`` is 1: numpy's ``einsum``
    sums a product over one draw in another order than over several, which
    would change the rounding of that draw's Gram-Schmidt Q.
    """
    step = max(2, TILE_ENTRIES // entries)
    starts = list(range(0, count, step))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [count])]


def det_stack(m) -> np.ndarray:
    """Determinants of a real or complex (..., n, n) stack, shape (...).

    The result keeps the input's dtype (integer input is taken as float64),
    so a real stack gives real determinants.  Up to n = 6 for a real stack,
    and n = 5 for a complex one, every determinant is a fixed polynomial in
    the entries, with no pivoting, division or log/exp: the entry, ad - bc,
    the cofactor expansion along the first row, at n = 4 the Laplace
    expansion over the six 2 x 2 minors of rows {0, 1} and their
    complements in rows {2, 3}, and at n = 5 and 6 (-1)^(n(n-1)/2) times
    the minor of the rows n - 1, ..., 0 by :func:`laplace_minors`, which
    expands rows k - 1, ..., 0 along row k - 1 for k = 2..n.  On a stack
    with n >= 2 the polynomial runs on one tile of the stack at a time
    (:func:`tile_slices`), so its temporaries are tile-sized and stay in
    cache; each determinant takes the same elementwise operations in the
    same order as on the whole stack.  So determinants keep their bits
    whatever the tiling and the stack length, complex ones too: numpy
    multiplies a complex temporary of 256 KiB or more in place, which
    rounds differently, and a tile's temporaries that enter a product at
    n <= 4 stay below that size (n = 5 and 6 multiply in place throughout,
    except for one-element products).  Larger matrices, and complex ones
    at n = 6, go through LAPACK's partially pivoted LU
    (``numpy.linalg.det``), which works on each matrix alone, so its bits
    do not depend on the layout or the stack length either.  A stack whose
    entry vectors ``m[..., i, j]`` are contiguous, as the Haar samplers'
    column-layout tiles give, is read without a copy by the Laplace
    expansion.
    """
    a = np.asarray(m)
    if not np.issubdtype(a.dtype, np.inexact):
        a = a.astype(float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"det_stack needs a (..., n, n) stack, got {a.shape}")
    n = a.shape[-1]
    # per 400,000 complex moment_mc draws (2 vCPUs, 1 BLAS thread), 6 x 6
    # took 324 ms by Laplace and 286 ms by LAPACK, 5 x 5 165 ms and 209 ms
    if n > (5 if np.iscomplexobj(a) else 6):
        return np.linalg.det(a)
    if n == 0:
        return np.ones(a.shape[:-2], dtype=a.dtype)
    if n == 1:
        return a[..., 0, 0].copy()
    if a.ndim == 2 and n <= 4:  # one matrix, whose entries numpy takes as scalars
        return _det_polynomial(a)
    flat = a.reshape(-1, n, n)
    out = np.empty(len(flat), dtype=a.dtype)
    prefixes = tuple(tuple(range(k - 1, -1, -1)) for k in range(1, n + 1))
    for tile in tile_slices(len(flat), n * n):
        out[tile] = (_det_polynomial(flat[tile]) if n <= 4
                     else laplace_minors(flat[tile], prefixes)[-1])
    if n > 4 and n * (n - 1) // 2 % 2:  # rows n - 1, ..., 0 are n(n-1)/2 swaps from 0..n-1
        np.negative(out, out=out)
    return out.reshape(a.shape[:-2])


def _det_polynomial(a: np.ndarray) -> np.ndarray:
    """det_stack's formula on views of the entries of an (..., n, n) stack, 2 <= n <= 4."""
    n = a.shape[-1]
    e = [[a[..., i, j] for j in range(n)] for i in range(n)]
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


@lru_cache(maxsize=None)
def _laplace_tables(n: int, rows: tuple) -> tuple:
    """The minor count and the index tables of :func:`laplace_minors`.

    ``rows`` lists row tuples S in order of size, each with S[1:] among
    them or empty.  Position 0 is the empty minor; then each S, in order,
    is paired with every column set T of its size in ``combinations``
    order.  M(S, T) is expanded along row S[0] as
    sum_j (-1)^j a[S[0], T[j]] M(S[1:], T - T[j]).  One step per size k
    gives the position of its first pair and two (k, P_k) arrays: for term
    j of each pair, the row T[j] * n + S[0] of the entry in the
    column-major entry array, and the position of M(S[1:], T - T[j]).  The
    tables are read-only: callers share them.
    """
    position = {((), ()): 0}
    steps = []
    for k in range(1, len(rows[-1]) + 1):
        pairs = [(s, t) for s in rows if len(s) == k for t in combinations(range(n), k)]
        entry = np.array([[t[j] * n + s[0] for s, t in pairs] for j in range(k)])
        smaller = np.array([[position[s[1:], t[:j] + t[j + 1:]] for s, t in pairs]
                            for j in range(k)])
        for table in (entry, smaller):
            table.setflags(write=False)
        steps.append((len(position), entry, smaller))
        position.update({pair: len(position) + p for p, pair in enumerate(pairs)})
    return len(position), tuple(steps)


def laplace_minors(a: np.ndarray, rows: tuple) -> np.ndarray:
    """(count, t) minors M(S, T) of a (t, n, n) stack, by Laplace expansion.

    The minors are those of the row tuples ``rows`` (in order of size, each
    S[1:] among them or empty) on every column set of their size, in the
    order of :func:`_laplace_tables`, after the empty minor 1 at row 0.
    Each size's minors are summed from the next smaller ones along their
    first row, vectorised over the stack and the pairs, with no
    determinant call: the two factors of each term are gathered into
    buffers of the widest size and multiplied in place, so no temporary is
    allocated per term, and the terms are subtracted and added left to
    right.  The size-1 minors are the entries themselves.  A stack whose
    entry vectors ``a[:, i, j]`` are contiguous is read without a copy.
    """
    t, n = a.shape[0], a.shape[-1]
    # row j * n + i holds a[:, i, j]; a view when those vectors are contiguous
    entries = np.transpose(a, (2, 1, 0)).reshape(n * n, t)
    count, steps = _laplace_tables(n, rows)
    minors = np.empty((count, t), dtype=a.dtype)
    minors[0] = 1
    x, y = np.empty((2, max(e.shape[1] for _, e, _ in steps), t), dtype=a.dtype)
    # the indices are in range; mode "clip" lets take write straight into out
    for start, entry, smaller in steps:
        block = minors[start:start + entry.shape[1]]
        if len(entry) == 1:  # a copy: a product with a complex 1 may flip a zero's sign
            np.take(entries, entry[0], axis=0, out=block, mode="clip")
            continue
        xs, ys = x[:len(block)], y[:len(block)]
        for j in range(len(entry)):
            np.take(entries, entry[j], axis=0, out=xs, mode="clip")
            np.take(minors, smaller[j], axis=0, out=ys, mode="clip")
            if not j:
                np.multiply(xs, ys, out=block)
                continue
            # numpy multiplies a one-element complex array in place with other
            # rounding, so a lone matrix's last size takes a new product
            term = np.multiply(xs, ys, out=xs if xs.size > 1 else None)
            if j % 2:
                block -= term
            else:
                block += term
    return minors


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
