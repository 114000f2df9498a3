"""Averaged modulus powers of characteristic polynomials, F_G(z) = <|z - GO|^{2m}>.

Three routes to the same quantity, used to cross-check each other:

* ``moment_m1_closed``        -- exact m = 1 formula via elementary symmetric
                                 polynomials of the squared singular values,
                                 sum_l binom(N, l)^{-1} |z|^{2(N-l)} S^l(G^2);
* ``moment_pfaffian_integral``-- flavour-space integral of a product of
                                 Pfaffian kernels over the m squared block
                                 radii of the skew flavour matrix (plus a
                                 compact-group average at m = 2 for complex z);
* ``moment_mc``               -- brute-force Haar average of the determinant.

m = 1 and m = 2 share one path: a tensor grid over the block radii
(``_radial_grid``), the canonical skew matrices on it
(``_skew_sigma_blocks``) and batched kernel Pfaffians (``_pf_product``).
The flavour-space integral carries an overall constant that is fixed by
the G = 0 calibration point F_0(1) = 1: the same integral is evaluated with
G and with the calibration pair on identical nodes and only the ratio is
reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import half_line_nodes
from .errors import ConfigError
from .haar import (
    Estimate,
    RngStream,
    mc_expectation,
    sample_unitary_columns,
    stream_mean,
)
from .linalg import det_stack, elementary_symmetric_all

__all__ = [
    "MomentQuery",
    "moment_m1_closed",
    "moment_mc",
    "moment_pfaffian_integral",
]


@dataclass(frozen=True)
class MomentQuery:
    """One evaluation of <|z - GO|^{2m}> over O(N), G = diag(g_1..g_N)."""

    z: complex
    g: tuple[float, ...]
    m: int = 1

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "g", tuple(float(x) for x in np.atleast_1d(self.g)))
        if self.m < 1:
            raise ConfigError("moment order m must be >= 1")
        if not np.all(np.isfinite(self.g)):
            raise ConfigError("singular values must be finite")

    @property
    def n(self) -> int:
        return len(self.g)


def moment_m1_closed(query: MomentQuery) -> float:
    """Exact value for m = 1: sum_l binom(N,l)^{-1} |z|^{2(N-l)} S^l(G^2)."""
    if query.m != 1:
        raise ConfigError("closed form only covers m = 1")
    n = query.n
    try:
        # an overflow gives inf or nan, which the finiteness check turns into
        # the error, so numpy need not warn about it
        with np.errstate(over="ignore", invalid="ignore"):
            s = elementary_symmetric_all(np.asarray(query.g) ** 2)
            zz = abs(query.z) ** 2
            value = float(sum(s[l] * zz ** (n - l) / math.comb(n, l) for l in range(n + 1)))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"closed form overflows float64 at |z| = {abs(query.z)}, g = {query.g}")
    return value


def _finite(est: Estimate, query: MomentQuery) -> Estimate:
    """``est``, or a ConfigError if its value or its error is not finite.

    The routes that return one run with numpy's overflow and invalid-value
    warnings off: an overflow anywhere reaches the estimate as inf or nan.
    """
    if not (np.isfinite(est.mean) and math.isfinite(est.std_error)):
        raise ConfigError(f"estimate overflows float64 at |z| = {abs(query.z)}, g = {query.g}")
    return est


@np.errstate(over="ignore", invalid="ignore")
def moment_mc(
    query: MomentQuery,
    samples: int,
    rng: RngStream,
    workers: int = 1,
) -> Estimate:
    """Haar Monte-Carlo estimate of E[det^m((z - GO)(z - GO)^dagger)]."""
    g = np.asarray(query.g)
    # a real z keeps z - GO, and so its dets, in float64
    z = query.z.real if query.z.imag == 0 else query.z
    m = query.m

    def f(o):
        mats = z * np.eye(g.size) - g[:, None] * o
        dets = det_stack(mats)
        return (dets * dets.conj()).real ** m

    return _finite(mc_expectation(f, g.size, samples, rng, workers=workers), query)


# -- polar decomposition of the skew flavour matrix -------------------------


def _perfect_matchings(size: int) -> tuple[np.ndarray, np.ndarray]:
    """All perfect matchings of {0..size-1} with their Pfaffian signs."""
    pairs_out: list[list[tuple[int, int]]] = []
    signs_out: list[int] = []

    def rec(rest: list[int], acc: list[tuple[int, int]], sign: int):
        if not rest:
            pairs_out.append(list(acc))
            signs_out.append(sign)
            return
        first, tail = rest[0], rest[1:]
        for p, j in enumerate(tail):
            acc.append((first, j))
            rec(tail[:p] + tail[p + 1 :], acc, sign * (-1) ** p)
            acc.pop()

    rec(list(range(size)), [], 1)
    return np.array(pairs_out, dtype=int), np.array(signs_out, dtype=float)


_MATCH_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def pfaffian_batch(k: np.ndarray) -> np.ndarray:
    """Pfaffians of a (B, 2k, 2k) stack via the perfect-matching expansion.

    Intended for small kernels (2k <= 8, i.e. 105 matchings); entries should
    be pre-scaled to order one by the caller if they can overflow.
    """
    size = k.shape[-1]
    if size not in _MATCH_CACHE:
        _MATCH_CACHE[size] = _perfect_matchings(size)
    pairs, signs = _MATCH_CACHE[size]
    vals = k[:, pairs[:, :, 0], pairs[:, :, 1]]
    return np.prod(vals, axis=2) @ signs


def _kernel_batch(z_batch: np.ndarray, g: float, z: complex, m: int) -> np.ndarray:
    """(B, 4m, 4m) skew kernels [[g^2 Z, D], [-D, Z^dagger]] of a (B, 2m, 2m) stack.

    Z is a complex skew flavour matrix and D = diag(z, zbar) (x) I_m couples
    the two blocks.
    """
    try:
        g2 = g**2
    except OverflowError:  # inf, which the caller's finiteness check refuses
        g2 = math.inf
    b = z_batch.shape[0]
    d = np.kron(np.diag([z, np.conj(z)]), np.eye(m))
    k = np.zeros((b, 4 * m, 4 * m), dtype=complex)
    k[:, : 2 * m, : 2 * m] = g2 * z_batch
    k[:, : 2 * m, 2 * m :] = d
    k[:, 2 * m :, : 2 * m] = -d
    k[:, 2 * m :, 2 * m :] = np.conj(np.transpose(z_batch, (0, 2, 1)))
    return k


def _skew_sigma_blocks(t: np.ndarray) -> np.ndarray:
    """(K, 2m, 2m) canonical skew matrices with 2x2 blocks of radii sqrt(t)."""
    k, m = t.shape
    sig = np.zeros((k, 2 * m, 2 * m), dtype=complex)
    s = np.sqrt(t)
    even = 2 * np.arange(m)
    sig[:, even, even + 1], sig[:, even + 1, even] = s, -s
    return sig


# Gauss-Legendre nodes per block radius of the m-th moment's grid
_GRID_NODES = {1: 128, 2: 32}


def _radial_grid(query_n: int, m: int):
    """Tensor quadrature grid over the m squared block radii t_1..t_m.

    The flat measure on complex skew 2m x 2m matrices factorises under the
    Youla decomposition Z = U Sigma U^T as

        dZ dZ^dagger = const * prod_{i<j} (t_i - t_j)^4 prod_i dt_i * dHaar(U),

    with t_i the squared block radii (det(1 + Z Z^dagger) = prod (1+t_i)^2),
    and the flavour density is prod_i (1+t_i)^{-(N+4m-2)}.  Returns the
    (K, m) nodes and weights that fold in the Jacobian and the density.
    """
    r, w = half_line_nodes(_GRID_NODES[m])

    def tensor(x):
        return np.stack([c.ravel() for c in np.meshgrid(*([x] * m), indexing="ij")], 1)

    t = tensor(r)
    dens = np.prod(1.0 + t, axis=1) ** (-(query_n + 4.0 * m - 2.0))
    for i in range(m):
        for j in range(i + 1, m):
            dens = (t[:, i] - t[:, j]) ** 4 * dens
    return t, np.prod(tensor(w), axis=1) * dens


def _pf_product(z_batch: np.ndarray, g_values, z: complex, m: int) -> np.ndarray:
    out = np.ones(z_batch.shape[0], dtype=complex)
    for gi in g_values:
        out *= pfaffian_batch(_kernel_batch(z_batch, float(gi), z, m))
    return out


def _m2_kernel_pfaffian(p, q, trace, pf_sq, g: float, z: complex):
    """Closed-form Pfaffian of the m = 2 kernel [[g^2 Z, D], [-D, Z^dagger]].

    With D = diag(z, z, zbar, zbar) the 105-term matching expansion collapses to

        |z|^4 + g^2 (zbar^2 p + z^2 q + |z|^2 (trace - p - q)) + g^4 pf_sq,

    where p = |Z_01|^2, q = |Z_23|^2, trace = sum_{i<j} |Z_ij|^2 = t1 + t2
    and pf_sq = |pf Z|^2 = t1 t2.  Arguments broadcast against each other.
    """
    zz = abs(z) ** 2
    g2 = g * g
    base = zz * zz + g2 * zz * trace + g2 * g2 * pf_sq
    return base + g2 * (np.conj(z) ** 2 - zz) * p + g2 * (z**2 - zz) * q


# U(4) draws per batch of the complex-z m = 2 average; it fixes how the draws
# interleave with the Gaussian stream, so changing it changes the estimate
_U_CHUNK = 8


def _block_minor_coefficients(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-draw coefficients of |Z_01|^2 and |Z_23|^2 in (t1, t2, 2 sqrt(t1 t2)).

    For Z = U Sigma U^T with Sigma = s1 J (+) s2 J, J = [[0, 1], [-1, 0]],
    Z_01 = s1 A + s2 B with A, B the 2x2 minors of U on rows {0, 1} and
    columns {0, 1}, {2, 3}; Z_23 is the same on rows {2, 3}.  Hence
    |Z_01|^2 = t1 |A|^2 + t2 |B|^2 + 2 s1 s2 Re(A conj(B)).
    """

    def minor(r0, c0):
        return u[:, r0, c0] * u[:, r0 + 1, c0 + 1] - u[:, r0, c0 + 1] * u[:, r0 + 1, c0]

    def coefficients(row):
        a, b = minor(row, 0), minor(row, 2)
        return np.stack([np.abs(a) ** 2, np.abs(b) ** 2, (a * np.conj(b)).real], 1)

    return coefficients(0), coefficients(2)


@np.errstate(over="ignore", invalid="ignore")
def moment_pfaffian_integral(
    query: MomentQuery,
    rng: RngStream | None = None,
    samples: int = 1000,
) -> Estimate:
    """Flavour-space Pfaffian-product integral for F_G(z), m <= 2.

    Uses the polar decomposition Z = U Sigma U^T of the skew flavour
    matrix: the m block radii are integrated by tensor Gauss-Legendre
    quadrature with the exact radial Jacobian (:func:`_radial_grid`).  At
    m = 1, and at m = 2 for real z, the kernel product is invariant under
    the unitary factor, so the radial quadrature is the whole integral
    (zero standard error); for complex z at m = 2 the compact factor is
    averaged by Haar Monte Carlo over ``samples`` U(4) draws, which keeps
    every random quantity bounded.
    There each kernel Pfaffian is evaluated in closed form
    (:func:`_m2_kernel_pfaffian`): it depends on U only through
    |Z_01|^2 and |Z_23|^2, which are per-draw combinations of two 2x2
    minors of U, so no 4x4 flavour matrix or 8x8 kernel is built.

    The overall constant is fixed by the G = 0 calibration,
    F_0(1) = 1, whose integral is evaluated exactly on the same grid.
    """
    if query.m > 2:
        raise ConfigError("flavour-space integral implemented for m <= 2 only")
    radii, t_weights = _radial_grid(query.n, query.m)
    sigma = _skew_sigma_blocks(radii)
    den = complex(_pf_product(sigma, np.zeros(query.n), 1.0, query.m) @ t_weights)

    z = query.z.real if abs(query.z.imag) < 1e-14 else query.z
    if query.m == 1 or z.imag == 0.0:
        num = complex(_pf_product(sigma, query.g, z, query.m) @ t_weights)
        return _finite(Estimate((num / den).real, 0.0, 0), query)

    if rng is None:
        raise ConfigError("complex z at m = 2 needs an RngStream for the U-average")
    t1, t2 = radii[:, 0], radii[:, 1]
    radial_basis = np.stack([t1, t2, 2.0 * np.sqrt(t1 * t2)])
    trace, pf_sq = t1 + t2, t1 * t2

    def numerator(gen, b):
        u = sample_unitary_columns(4, 4, b, gen)
        coef_01, coef_23 = _block_minor_coefficients(u)
        p, q = coef_01 @ radial_basis, coef_23 @ radial_basis
        fg = np.ones((b, t_weights.size), dtype=complex)
        for gi in query.g:
            fg *= _m2_kernel_pfaffian(p, q, trace, pf_sq, gi, query.z)
        return (fg @ t_weights)[:, None]

    mean, se = stream_mean(numerator, samples, rng, batch=_U_CHUNK)
    return _finite(Estimate((mean[0] / den).real, float(se[0] / abs(den)), samples), query)
