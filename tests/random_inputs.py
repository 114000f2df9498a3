"""Random inputs shared by the tests."""

import numpy as np

from ocft.grassmann import Multivector


def random_skew(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random dense complex skew-symmetric matrix."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a - a.T) / 2.0


def random_even_nilpotent(
    ngen: int, rng: np.random.Generator, terms: int = 4
) -> Multivector:
    """Random even-grade scalar-free multivector."""
    out: dict[int, complex] = {}
    for _ in range(terms):
        k = int(rng.integers(1, ngen // 2 + 1)) * 2
        idx = rng.choice(ngen, size=k, replace=False)
        mask = 0
        for b in idx:
            mask |= 1 << int(b)
        out[mask] = complex(rng.standard_normal(), rng.standard_normal())
    return Multivector(ngen, out)
