"""The kernel Pfaffians of ``ocft.moments`` by the perfect-matching expansion.

``moments`` takes the m = 1 kernel Pfaffians as the three-matching sum of
4x4 kernels, and the m = 2 ones in closed form.  These oracles build the
4m x 4m kernels [[g^2 Z, D], [-D, Z^dagger]] at any m and expand their
Pfaffians over all perfect matchings (105 terms at m = 2), so both
evaluators can be checked against one general expansion.
"""

import functools

import numpy as np

from ocft.moments import _radial_grid


@functools.cache
def perfect_matchings(size: int) -> tuple[np.ndarray, np.ndarray]:
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


def matching_pfaffians(k: np.ndarray) -> np.ndarray:
    """Pfaffians of a (B, 2k, 2k) stack via the perfect-matching expansion."""
    pairs, signs = perfect_matchings(k.shape[-1])
    vals = k[:, pairs[:, :, 0], pairs[:, :, 1]]
    return np.prod(vals, axis=2) @ signs


def kernel_batch(z_batch: np.ndarray, g: float, z: complex, m: int) -> np.ndarray:
    """(B, 4m, 4m) skew kernels [[g^2 Z, D], [-D, Z^dagger]] of a (B, 2m, 2m) stack,
    with D = diag(z, zbar) (x) I_m."""
    b = z_batch.shape[0]
    d = np.kron(np.diag([z, np.conj(z)]), np.eye(m))
    k = np.zeros((b, 4 * m, 4 * m), dtype=complex)
    k[:, : 2 * m, : 2 * m] = g**2 * z_batch
    k[:, : 2 * m, 2 * m :] = d
    k[:, 2 * m :, : 2 * m] = -d
    k[:, 2 * m :, 2 * m :] = np.conj(np.transpose(z_batch, (0, 2, 1)))
    return k


def skew_sigma_blocks(t: np.ndarray) -> np.ndarray:
    """(K, 2m, 2m) canonical skew matrices with 2x2 blocks of radii sqrt(t), t of shape (K, m)."""
    k, m = t.shape
    sig = np.zeros((k, 2 * m, 2 * m), dtype=complex)
    s = np.sqrt(t)
    even = 2 * np.arange(m)
    sig[:, even, even + 1], sig[:, even + 1, even] = s, -s
    return sig


def pf_product(z_batch: np.ndarray, scale: np.ndarray, g_values, z: complex, m: int):
    """prod_i pf(kernel(g_i)) / scale over a (B, 2m, 2m) stack and its B scales."""
    out = np.ones(z_batch.shape[0], dtype=complex)
    for gi in g_values:
        out *= matching_pfaffians(kernel_batch(z_batch, float(gi), z, m)) / scale
    return out


def expansion_integral(query) -> float:
    """``moment_pfaffian_integral`` at m = 1, or at m = 2 for real z, on the
    matching expansion of the 4m x 4m kernels at U = I."""
    radii, t_weights = _radial_grid(query.m)
    scale = np.prod(1.0 + radii, axis=1)
    sigma = skew_sigma_blocks(radii)
    z = query.z.real if query.z.imag == 0 else query.z
    den = complex(pf_product(sigma, scale, np.zeros(query.n), 1.0, query.m) @ t_weights)
    num = complex(pf_product(sigma, scale, query.g, z, query.m) @ t_weights)
    return (num / den).real


def explicit_u_average(query, rng, samples, u_chunk=8):
    """The complex-z m = 2 integral by Monte Carlo over Haar U(4) draws, with
    every Z = U Sigma U^T and 8x8 kernel built: the oracle of the exact U(4)
    average and the closed-form kernel Pfaffians of ``moment_pfaffian_integral``.
    """
    t_pairs, t_weights = _radial_grid(2)
    scale = np.prod(1.0 + t_pairs, axis=1)
    sigma = skew_sigma_blocks(t_pairs)
    den = complex(pf_product(sigma, scale, np.zeros(query.n), 1.0, 2) @ t_weights)
    gen = rng.generator()
    q_num = []
    done = 0
    while done < samples:
        b = min(u_chunk, samples - done)
        gauss = gen.standard_normal((b, 4, 4)) + 1j * gen.standard_normal((b, 4, 4))
        u, r = np.linalg.qr(gauss)
        d = np.einsum("...ii->...i", r).copy()
        u *= (d / np.abs(d))[:, None, :]
        z_all = np.einsum("uij,kjl,uml->ukim", u, sigma, u).reshape(-1, 4, 4)
        fg = pf_product(z_all, np.tile(scale, b), query.g, query.z, 2).reshape(b, -1)
        q_num.extend(fg @ t_weights)
        done += b
    q_num = np.array(q_num)
    se = np.std(q_num, ddof=1) / np.sqrt(samples) / abs(den)
    return (q_num.mean() / den).real, se
