"""Haar sampling on O(N) / SO(N) and U(M), and the one streaming estimator.

The samplers take the Q factor of a matrix of iid standard Gaussians in the
QR factorisation whose R has a positive diagonal (Mezzadri, Notices AMS 54
(2007) 592).  That Q is exactly Haar on the full orthogonal group, with both
determinant components equally likely, and on the unitary group; an M x n
complex Gaussian gives the first n columns of a Haar U(M) matrix.  It is
the Q of LAPACK's QR with each column multiplied by the sign (for complex
Gaussians, the phase) of the matching diagonal entry of R.  The samplers
form it instead by Gram-Schmidt with one reorthogonalisation pass,
vectorised over the batch (:func:`_orthonormal_columns`): its R has a
positive diagonal by construction, so it is the same Q to rounding, from
the same Gaussian draws, at several times LAPACK's rate for the small
matrices drawn here.  An SO(N) draw is an O(N) draw whose last row is
negated when its determinant, read off the batched cofactor formulas of
:func:`linalg.det_stack` (LAPACK above 4 x 4), is negative: det = +-1 to
rounding, so any accurate determinant picks the same draws.

Every Monte-Carlo mean in the package is formed by :func:`stream_mean`: it
draws batches of sample rows, keeps per-column sums and sums of squared
moduli, and returns the means and Bessel-corrected standard errors.  Runs
are reproducible: an :class:`RngStream` names a stream by (seed,
stream_index), worker shard w reads ``rng.substream(w)``, and shards are
reduced in order, so a fixed (seed, workers) configuration gives
bit-identical results.

The random numbers of a large batch are drawn one batch ahead.  A caller
that declares the draws of one batch (``noise``) has each batch's arrays
filled on a helper thread while the caller's thread turns the previous
batch into rows; numpy's ``Generator`` releases the interpreter lock while
it fills an array, so the draw runs beside the Gram-Schmidt passes,
determinants and sums.  Only those ``Generator`` fills run on the helper
thread: the samplers, and everything else, run on the caller's thread with
the same arguments, and read the same numbers in the same order, as
without the helper.  The fills go into two preallocated buffers per
declared array, which alternate between batches, so a batch's draws are
overwritten only once the batch after it is being processed.  Only batches
of at least DRAW_AHEAD_MIN_VALUES = 2^16 values are drawn ahead: a smaller
draw takes less time than starting and joining the helper thread.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .linalg import det_stack

__all__ = [
    "Estimate",
    "RngStream",
    "mc_expectation",
    "sample_orthogonal_batch",
    "sample_special_orthogonal_batch",
    "sample_unitary_columns",
    "stream_mean",
]

DEFAULT_BATCH = 20_000

# stream_mean draws a batch ahead only when the batch fills at least this many
# values: below it, starting and joining the helper thread costs more than the
# overlapped draw saves
DRAW_AHEAD_MIN_VALUES = 1 << 16


@dataclass(frozen=True)
class RngStream:
    """Reproducible RNG handle: identical (seed, stream_index) -> identical draws."""

    seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_index,))
        return np.random.default_rng(ss)

    def substream(self, offset: int) -> "RngStream":
        """Stream with a jumped index; callers keep offsets disjoint."""
        return RngStream(self.seed, self.stream_index + offset)


@dataclass(frozen=True)
class Estimate:
    """Monte-Carlo result: sample mean, plug-in standard error, sample count."""

    mean: complex
    std_error: float
    samples: int

    @property
    def real(self) -> float:
        return self.mean.real

    def z_score(self, reference: complex) -> float:
        """|mean - reference| in units of the standard error."""
        if self.std_error == 0.0:
            return 0.0 if self.mean == reference else float("inf")
        return abs(self.mean - reference) / self.std_error


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, (np.random.Generator, _Drawn)):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    raise ConfigError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def _orthonormal_columns(a: np.ndarray) -> np.ndarray:
    """Q of a = QR with diag(R) > 0, for a real or complex (B, m, n) stack.

    Classical Gram-Schmidt with one reorthogonalisation pass, which keeps Q
    orthogonal to machine precision for any numerically nonsingular
    column set (Giraud, Langou, Rozloznik and van den Eshof, Numer. Math.
    101 (2005) 87).  The stack is transposed once to (n, m, B), so every
    step is a product over m or over the earlier columns, vectorised over
    the batch.  A draw with an exactly zero (or non-finite) Gram-Schmidt
    column is redone by LAPACK's QR with the sign rule, whose Q stays
    orthogonal where Gram-Schmidt has no direction to normalise.  Returns a
    C-contiguous (B, m, n) array.
    """
    cols = np.ascontiguousarray(np.transpose(a, (2, 1, 0)))
    degenerate = np.zeros(a.shape[0], dtype=bool)
    for j, v in enumerate(cols):
        if j:
            prev, prev_conj = cols[:j], cols[:j].conj()
            for _ in range(2):
                v -= np.einsum("jmb,jb->mb", prev, np.einsum("jmb,mb->jb", prev_conj, v))
        norm = np.einsum("mb,mb->b", v.real, v.real)
        if np.iscomplexobj(v):
            norm += np.einsum("mb,mb->b", v.imag, v.imag)
        norm = np.sqrt(norm)
        bad = ~(np.isfinite(norm) & (norm > 0.0))
        norm[bad] = 1.0
        degenerate |= bad
        v /= norm
    q = np.ascontiguousarray(np.transpose(cols, (2, 1, 0)))
    if degenerate.any():
        q[degenerate] = _sign_corrected_qr(a[degenerate])
    return q


def _sign_corrected_qr(a: np.ndarray) -> np.ndarray:
    """LAPACK's Q with column j scaled by the phase of R_jj (1 where R_jj = 0)."""
    q, r = np.linalg.qr(a)
    d = np.einsum("...ii->...i", r)
    size = np.abs(d)
    phase = np.divide(d, size, out=np.ones_like(d), where=size > 0.0)
    return q * phase[:, None, :]


def sample_orthogonal_batch(n: int, count: int, rng) -> np.ndarray:
    """(count, n, n) stack of Haar-distributed O(n) matrices."""
    if n < 1:
        raise DimensionError("group dimension must be >= 1")
    gen = _as_generator(rng)
    return _orthonormal_columns(gen.standard_normal((count, n, n)))


def sample_special_orthogonal_batch(n: int, count: int, rng) -> np.ndarray:
    """(count, n, n) stack of Haar draws conditioned on det = +1.

    An O(n) draw with det = -1 has the sign of its last row flipped, i.e. it
    is mapped through the fixed reflection diag(1, ..., 1, -1).
    """
    o = sample_orthogonal_batch(n, count, rng)
    neg = det_stack(o) < 0
    o[neg, -1, :] *= -1.0
    return o


def sample_unitary_columns(m: int, n: int, count: int, rng) -> np.ndarray:
    """(count, m, n) stack: the first n columns of Haar U(m) draws."""
    if not 1 <= n <= m:
        raise DimensionError(f"need 1 <= n <= m, got m={m}, n={n}")
    gen = _as_generator(rng)
    gauss = gen.standard_normal((count, m, n)) + 1j * gen.standard_normal((count, m, n))
    return _orthonormal_columns(gauss)


_SAMPLERS = {"O": sample_orthogonal_batch, "SO": sample_special_orthogonal_batch}


class _Drawn:
    """Pre-drawn stand-in for a ``Generator``: one batch's declared draws.

    Each ``standard_normal`` or ``random`` call is served the next declared
    array, and must name its method and shape; any other call raises.
    """

    def __init__(self, arrays: list[tuple[str, np.ndarray]]):
        self._arrays = arrays
        self._served = 0

    def _serve(self, method: str, size) -> np.ndarray:
        shape = tuple(size) if isinstance(size, (tuple, list)) else (size,)
        if self._served < len(self._arrays):
            declared, array = self._arrays[self._served]
            if declared == method and array.shape == shape:
                self._served += 1
                return array
        raise RuntimeError(
            f"draw {method}{shape} was not declared: the batch declares "
            f"{[(m, a.shape) for m, a in self._arrays]}, {self._served} served"
        )

    def standard_normal(self, size) -> np.ndarray:
        return self._serve("standard_normal", size)

    def random(self, size) -> np.ndarray:
        return self._serve("random", size)

    def check_all_served(self) -> None:
        if self._served != len(self._arrays):
            raise RuntimeError(
                f"values used {self._served} of the {len(self._arrays)} declared draws"
            )


class _Fill(threading.Thread):
    """Fills one batch's declared arrays from its generator, on its own thread."""

    def __init__(self, gen: np.random.Generator, arrays: list[tuple[str, np.ndarray]]):
        super().__init__(name="ocft-draw-ahead")
        self._gen, self._arrays, self._error = gen, arrays, None
        self.start()

    def run(self) -> None:
        try:
            for method, out in self._arrays:
                getattr(self._gen, method)(out=out)
        except BaseException as exc:  # re-raised on the caller's thread by drawn()
            self._error = exc

    def drawn(self) -> _Drawn:
        """Wait for the fill; its arrays, or the exception it raised."""
        self.join()
        if self._error is not None:
            raise self._error
        return _Drawn(self._arrays)


def _batch_values(values, jobs, noise):
    """``values(source, b)`` of each (generator, b) job, in job order.

    Without ``noise``, or when a full batch's declared draws fill fewer than
    DRAW_AHEAD_MIN_VALUES values, ``source`` is the job's generator itself.
    Otherwise job k's arrays are filled on a helper thread into the k % 2 set
    of buffers, while ``values`` runs on job k - 1, whose arrays are the
    other set; ``source`` is a :class:`_Drawn` over job k's arrays.
    """
    rows = jobs[0][1]  # no batch is larger than the first
    if noise is None or sum(math.prod(s) for _, s in noise(rows)) < DRAW_AHEAD_MIN_VALUES:
        for gen, b in jobs:
            yield values(gen, b)
        return
    buffers = [[np.empty(shape) for _, shape in noise(rows)] for _ in range(2)]

    def fill(k: int) -> _Fill:
        gen, b = jobs[k]
        return _Fill(gen, [(m, buf[:b]) for (m, _), buf in zip(noise(b), buffers[k % 2])])

    pending = fill(0)
    try:
        for k, (_, b) in enumerate(jobs):
            source = pending.drawn()
            pending = fill(k + 1) if k + 1 < len(jobs) else None
            vals = values(source, b)
            source.check_all_served()
            yield vals
    finally:
        if pending is not None:
            pending.join()


def stream_mean(
    values,
    samples: int,
    rng: RngStream,
    workers: int = 1,
    batch: int = DEFAULT_BATCH,
    noise=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column sample mean and standard error of ``values`` rows.

    ``values(gen, b)`` draws ``b`` rows from the generator ``gen`` and
    returns a (b, width) array, real or complex.  The samples are split into
    ``workers`` shards of near-equal size; shard w draws from
    ``rng.substream(w)`` in batches of at most ``batch`` rows, and the
    shards run one after another.  The standard error is
    sqrt(s^2 / samples) with s^2 the n/(n-1)-corrected variance of the
    moduli about the mean.

    ``noise(b)``, if given, declares every draw that ``values`` makes for
    ``b`` rows, in order, as a list of (``Generator`` method, shape) pairs,
    each shape leading with ``b``, e.g. ``[("standard_normal", (b, n, n))]``;
    the methods may be ``standard_normal`` and ``random``.  When one full
    batch's declared draws fill at least DRAW_AHEAD_MIN_VALUES values, each
    batch is drawn one batch ahead: batch k + 1's arrays are filled, in
    stream order, on a helper thread while ``values`` runs on batch k, and
    ``values`` then gets a stand-in for ``gen`` that serves exactly the
    declared arrays and raises on any other call, or if a declared array
    goes unused.  Only those fills run on the helper thread; the thread is
    joined before the next batch starts, and before this function returns
    or raises.  Each declared entry has two buffers of a full batch, used by
    alternate batches: batch k's arrays live until batch k + 2 is drawn, so
    ``values`` may change them in place but nothing may keep them past its
    return.  Below the size gate the draw is too short to pay for the
    handoff (starting and joining a thread), and ``values`` draws from
    ``gen`` itself.  Either way the draws, and so the result, are the same
    bits.
    """
    if samples < 2:
        raise ConfigError("need at least 2 samples for a standard error")
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    jobs = []
    for w in range(workers):
        gen = rng.substream(w).generator()
        shard = samples // workers + (1 if w < samples % workers else 0)
        jobs += [(gen, min(batch, shard - done)) for done in range(0, shard, batch)]
    total = total_abs2 = 0.0
    for vals in _batch_values(values, jobs, noise):
        total = total + vals.sum(axis=0)
        total_abs2 = total_abs2 + (np.abs(vals) ** 2).sum(axis=0)
    mean = total / samples
    var = np.maximum(total_abs2 / samples - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var * samples / (samples - 1) / samples)


def mc_expectation(
    f,
    n: int,
    samples: int,
    rng: RngStream,
    group: str = "O",
    workers: int = 1,
) -> Estimate:
    """Sample mean and standard error of f over Haar draws.

    ``f`` maps a (B, n, n) stack of draws to a length-B vector.  Worker w
    consumes ``rng.substream(w)`` (see :func:`stream_mean`).
    """
    if group not in _SAMPLERS:
        raise ConfigError(f"group must be one of {sorted(_SAMPLERS)}, got {group!r}")
    sampler = _SAMPLERS[group]

    def values(gen, b):
        return np.asarray(f(sampler(n, b, gen)), dtype=complex)[:, None]

    mean, se = stream_mean(
        values, samples, rng, workers, noise=lambda b: [("standard_normal", (b, n, n))]
    )
    return Estimate(complex(mean[0]), float(se[0]), samples)
