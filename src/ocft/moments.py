"""Averaged modulus powers of characteristic polynomials, F_G(z) = <|z - GO|^{2m}>.

Three routes to the same quantity, used to cross-check each other:

* ``moment_m1_closed``        -- exact m = 1 formula via elementary symmetric
                                 polynomials of the squared singular values,
                                 sum_l binom(N, l)^{-1} |z|^{2(N-l)} S^l(G^2);
* ``moment_pfaffian_integral``-- flavour-space integral of a product of
                                 Pfaffian kernels over the m squared block
                                 radii of the skew flavour matrix (plus an
                                 exact U(4) quadrature at m = 2 for complex z);
* ``moment_mc``               -- brute-force Haar average of the determinant.

m = 1 and m = 2 share one tensor grid over the block radii
(``_radial_grid``).  At m = 1, and at m = 2 for real z, the kernels are
built on the canonical skew matrices of that grid (``_skew_sigma_blocks``)
and their Pfaffians taken in batches (``_pf_product``); for complex z at
m = 2 each kernel Pfaffian is a closed form (``_m2_kernel_pfaffian``)
averaged over the U(4) factor, and no kernel is built.
The flavour-space integral carries an overall constant that is fixed by
the G = 0 calibration point F_0(1) = 1: the same integral is evaluated with
G and with the calibration pair on identical nodes and only the ratio is
reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import gauss_legendre_01, half_line_nodes
from .errors import ConfigError
from .haar import Estimate, RngStream, mc_expectation
from .linalg import det_stack, elementary_symmetric_all, tile_slices

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
        raise ConfigError(f"closed form overflows float64 at {_point(query)}")
    return value


def _point(query: MomentQuery) -> str:
    """The query in an error message: |z|, N and max |g|, not every g_i."""
    g_max = max(map(abs, query.g), default=0.0)
    return f"|z| = {abs(query.z)}, N = {query.n}, max |g| = {g_max}"


def _finite(est: Estimate, query: MomentQuery) -> Estimate:
    """``est``, or a ConfigError if its value or its error is not finite.

    The routes that return one run with numpy's overflow and invalid-value
    warnings off: an overflow anywhere reaches the estimate as inf or nan.
    """
    if not (np.isfinite(est.mean) and math.isfinite(est.std_error)):
        raise ConfigError(f"estimate overflows float64 at {_point(query)}")
    return est


@np.errstate(over="ignore", invalid="ignore")
def moment_mc(
    query: MomentQuery,
    samples: int,
    rng: RngStream,
    workers: int = 1,
) -> Estimate:
    """Haar Monte-Carlo estimate of E[det^m((z - GO)(z - GO)^dagger)]."""
    g = np.asarray(query.g)[:, None]
    diag = np.arange(query.n)
    # a real z keeps z - GO, and so its dets, in float64
    real = query.z.imag == 0
    z = query.z.real if real else query.z
    m = query.m

    def f(o):
        # z - GO over the sampler's tile: -(g_i O_ij) then z on the diagonal,
        # the bits of z I - G O
        o *= -g
        mats = o if real else o.astype(complex)
        mats[:, diag, diag] += z
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


# Gauss-Legendre nodes per block radius of the m-th moment's grid; in t = r/(1+r)
# the integrand is a polynomial of degree N + 4m - 4 per radius, which the
# grid integrates exactly while that degree is below 2 nodes, so the route is
# capped at N = 2 nodes - 4m + 3: 255 at m = 1 and 59 at m = 2
_GRID_NODES = {1: 128, 2: 32}


def _radial_grid(m: int):
    """Tensor quadrature grid over the m squared block radii t_1..t_m.

    The flat measure on complex skew 2m x 2m matrices factorises under the
    Youla decomposition Z = U Sigma U^T as

        dZ dZ^dagger = const * prod_{i<j} (t_i - t_j)^4 prod_i dt_i * dHaar(U),

    with t_i the squared block radii (det(1 + Z Z^dagger) = prod (1+t_i)^2),
    and the flavour density is prod_i (1+t_i)^{-(N+4m-2)}.  Returns the
    (K, m) nodes and weights that fold in the Jacobian and the density's
    prod_i (1+t_i)^{-(4m-2)}; the other prod_i (1+t_i)^{-N} is one factor
    1 / prod_i (1+t_i) per kernel Pfaffian, which keeps the N-fold products
    in float64 range where the density alone would underflow.
    """
    r, w = half_line_nodes(_GRID_NODES[m])

    def tensor(x):
        return np.stack([c.ravel() for c in np.meshgrid(*([x] * m), indexing="ij")], 1)

    t = tensor(r)
    dens = np.prod(1.0 + t, axis=1) ** (-(4.0 * m - 2.0))
    for i in range(m):
        for j in range(i + 1, m):
            dens = (t[:, i] - t[:, j]) ** 4 * dens
    return t, np.prod(tensor(w), axis=1) * dens


def _pf_product(z_batch: np.ndarray, scale: np.ndarray, g_values, z: complex, m: int):
    """prod_i pf(kernel(g_i)) / scale over a (B, 2m, 2m) stack and its B scales."""
    out = np.ones(z_batch.shape[0], dtype=complex)
    for gi in g_values:
        out *= pfaffian_batch(_kernel_batch(z_batch, float(gi), z, m)) / scale
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


# complex z at m = 2 is refused above this N: its exact U(4) average costs
# about N^4 (N^2 / 8 Jacobi pairs x (N + 1) angles x the 32^2 radial nodes x
# N kernel factors), measured at 0.12, 1.2 and 5.7 s at N = 16, 32 and 48 on
# one core of a 2-vCPU Intel Xeon host, with a flat 41 MB peak
MAX_M2_COMPLEX_N = 48


def _u4_block_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(K, 3) nodes (a, b, c) and K weights of the Haar U(4) average at degree n.

    A and B are the 2x2 minors of U on rows {0, 1} and columns {0, 1} and
    {2, 3}; a = |A|^2, b = |B|^2, c = Re(A conj(B)).  With l1, l2 the
    squared singular values of U[0:2, 0:2], a = l1 l2 and
    b = (1 - l1)(1 - l2), where (l1, l2) follow the beta = 2 Jacobi ensemble
    with density ~ (l1 - l2)^2 on [0, 1]^2 (Collins, Probab. Theory Relat.
    Fields 133 (2005) 315), and c = sqrt(ab) cos(phi) with phi uniform and
    independent of them.  So n // 2 + 2 Gauss-Legendre nodes per l and
    n + 1 equispaced phi average every polynomial of degree n in (a, b, c)
    exactly.  The integrand is symmetric in l1 <-> l2 and the weight
    vanishes at l1 = l2, so only the pairs l1 < l2 are kept.
    """
    lam, w = gauss_legendre_01(n // 2 + 2)
    i, j = np.triu_indices(lam.size, 1)
    a, b = lam[i] * lam[j], (1.0 - lam[i]) * (1.0 - lam[j])
    pair_w = w[i] * w[j] * (lam[i] - lam[j]) ** 2
    cos_phi = np.cos(2.0 * np.pi * np.arange(n + 1) / (n + 1))
    nodes = np.broadcast_arrays(a[:, None], b[:, None], np.sqrt(a * b)[:, None] * cos_phi)
    weights = np.repeat(pair_w / (pair_w.sum() * (n + 1)), n + 1)
    return np.stack(nodes, -1).reshape(-1, 3), weights


@np.errstate(over="ignore", invalid="ignore")
def moment_pfaffian_integral(query: MomentQuery) -> Estimate:
    """Flavour-space Pfaffian-product integral for F_G(z), m <= 2.

    Uses the polar decomposition Z = U Sigma U^T of the skew flavour
    matrix: the m block radii are integrated by tensor Gauss-Legendre
    quadrature with the exact radial Jacobian (:func:`_radial_grid`).  At
    m = 1, and at m = 2 for real z, the kernel product is invariant under
    the unitary factor, so the radial quadrature is the whole integral.
    For complex z at m = 2 the U(4) factor is averaged exactly by the
    quadrature of :func:`_u4_block_nodes`, and each kernel Pfaffian is
    evaluated in closed form (:func:`_m2_kernel_pfaffian`): it depends on U
    only through p = |Z_01|^2 = t1 a + t2 b + 2 sqrt(t1 t2) c and
    q = |Z_23|^2, the same with a and b swapped (Jacobi's complementary
    minors, |det U| = 1), so no 4x4 flavour matrix or 8x8 kernel is built.
    Every route is deterministic: the standard error is 0.

    The overall constant is fixed by the G = 0 calibration,
    F_0(1) = 1, whose integral is evaluated exactly on the same grid.
    """
    if query.m > 2:
        raise ConfigError("flavour-space integral implemented for m <= 2 only")
    nodes = _GRID_NODES[query.m]
    cap = 2 * nodes - 4 * query.m + 3
    if query.n > cap:
        raise ConfigError(
            f"flavour-space integral at m = {query.m} capped at N = {cap}, "
            f"where its {nodes}-node radial grid stops being exact"
        )
    z = query.z.real if query.z.imag == 0 else query.z
    if query.m == 2 and z.imag != 0 and query.n > MAX_M2_COMPLEX_N:
        raise ConfigError(f"complex z at m = 2 capped at N = {MAX_M2_COMPLEX_N}")
    radii, t_weights = _radial_grid(query.m)
    scale = np.prod(1.0 + radii, axis=1)
    sigma = _skew_sigma_blocks(radii)
    den = complex(_pf_product(sigma, scale, np.zeros(query.n), 1.0, query.m) @ t_weights)

    if query.m == 1 or z.imag == 0:
        num = complex(_pf_product(sigma, scale, query.g, z, query.m) @ t_weights)
        return _finite(Estimate((num / den).real, 0.0, 0), query)

    t1, t2 = radii[:, 0], radii[:, 1]
    radial_basis = np.stack([t1, t2, 2.0 * np.sqrt(t1 * t2)])
    trace, pf_sq = t1 + t2, t1 * t2
    u_nodes, u_weights = _u4_block_nodes(query.n)
    num = 0j
    for tile in tile_slices(len(u_nodes), t_weights.size):
        # q is p with a and b swapped, i.e. with t1 and t2 swapped
        p, q = u_nodes[tile] @ radial_basis, u_nodes[tile] @ radial_basis[[1, 0, 2]]
        fg = np.ones(p.shape, dtype=complex)
        for gi in query.g:
            fg *= _m2_kernel_pfaffian(p, q, trace, pf_sq, gi, z) / scale
        num += u_weights[tile] @ (fg @ t_weights)
    return _finite(Estimate((num / den).real, 0.0, 0), query)
