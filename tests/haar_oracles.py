"""The Monte-Carlo route that ``mc_expectation`` replaced, used only by the tests.

It draws each batch with the public samplers, whose C-contiguous (B, n, n)
output is Q scattered back from the Gram-Schmidt column layout, and applies
``f`` to one contiguous tile of it at a time.  ``mc_expectation`` must give
its bits.
"""

import numpy as np

from ocft.haar import (
    Estimate,
    sample_orthogonal_batch,
    sample_special_orthogonal_batch,
    stream_mean,
)
from ocft.linalg import tile_slices

PUBLIC_SAMPLERS = {"O": sample_orthogonal_batch, "SO": sample_special_orthogonal_batch}


def public_route_expectation(f, n, samples, rng, group="O", workers=1) -> Estimate:
    """``mc_expectation`` through the public sampler, then ``f`` per tile."""
    sampler = PUBLIC_SAMPLERS[group]

    def values(gen, b):
        o = sampler(n, b, gen)
        rows = np.empty((b, 1), dtype=complex)
        for tile in tile_slices(b, n * n):
            rows[tile, 0] = f(o[tile])
        return rows

    mean, se = stream_mean(values, samples, rng, workers)
    return Estimate(complex(mean[0]), float(se[0]), samples)
