"""The C-layout Haar samplers and the Monte-Carlo route that ``mc_expectation``
replaced, used only by the tests.

``sample_orthogonal_batch`` and ``sample_special_orthogonal_batch`` draw the
same Gaussians as ``haar._SAMPLERS`` and return the same Q, scattered back
from the Gram-Schmidt column layout into a C-contiguous (count, n, n)
stack.  ``public_route_expectation`` draws ``mc_expectation``'s batches with
them and applies ``f`` to one contiguous tile of a batch at a time; it and
``PUBLIC_SAMPLERS`` are named for the public samplers of ``ocft.haar`` these
once were.  The tile
samplers, ``mc_expectation`` and the colour sides of ``ocft.cft`` must give
their bits.
"""

import numpy as np

from ocft import haar
from ocft.haar import Estimate, stream_mean
from ocft.linalg import det_stack, tile_slices


def sample_orthogonal_batch(n: int, count: int, rng) -> np.ndarray:
    """(count, n, n) C-contiguous stack of Haar-distributed O(n) matrices."""
    return haar._orthonormal_columns(haar._gaussians(n, count, rng))


def sample_special_orthogonal_batch(n: int, count: int, rng) -> np.ndarray:
    """(count, n, n) C-contiguous stack of Haar draws conditioned on det = +1.

    An O(n) draw with det = -1 has the sign of its last row flipped, i.e. it
    is mapped through the fixed reflection diag(1, ..., 1, -1).
    """
    o = sample_orthogonal_batch(n, count, rng)
    o[det_stack(o) < 0, -1, :] *= -1.0
    return o


PUBLIC_SAMPLERS = {"O": sample_orthogonal_batch, "SO": sample_special_orthogonal_batch}


def public_route_expectation(f, n, samples, rng, group="O", workers=1) -> Estimate:
    """``mc_expectation`` through the C-layout sampler, then ``f`` per tile."""
    sampler = PUBLIC_SAMPLERS[group]

    def values(gen, b):
        o = sampler(n, b, gen)
        rows = np.empty((b, 1), dtype=complex)
        for tile in tile_slices(b, n * n):
            rows[tile, 0] = f(o[tile])
        return rows

    mean, se = stream_mean(values, samples, rng, workers, batch=haar._batch_rows(n * n))
    return Estimate(complex(mean[0]), float(se[0]), samples)
