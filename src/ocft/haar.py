"""Haar sampling on O(N) / SO(N) and U(M), and the one streaming estimator.

The samplers take the Q factor of a matrix of iid standard Gaussians in the
QR factorisation whose R has a positive diagonal (Mezzadri, Notices AMS 54
(2007) 592).  That Q is exactly Haar on the full orthogonal group, with both
determinant components equally likely, and on the unitary group; an M x n
complex Gaussian gives the first n columns of a Haar U(M) matrix.  It is
the Q of LAPACK's QR with each column multiplied by the sign (for complex
Gaussians, the phase) of the matching diagonal entry of R.  The samplers
form it instead by Gram-Schmidt with one reorthogonalisation pass,
vectorised over the draws of one cache-sized tile at a time
(:func:`_orthonormal_tile`), and write Q over the Gaussian array they
drew: its R has a positive diagonal by construction, so it is the same Q
to rounding, from the same Gaussian draws, at several times LAPACK's rate
for the small matrices drawn here.  An SO(N) draw is an O(N) draw whose
last row is negated when its determinant, read off the batched
polynomial formulas of :func:`linalg.det_stack` (LAPACK above 6 x 6), is
negative: det = +-1 to rounding, so any accurate determinant picks the
same draws.  Every O(n) and SO(n) draw of the package comes from the one
sampler of its group in ``_SAMPLERS``.  It leaves each tile's Q in the
(n, n, t) column layout the Gram-Schmidt works in, in the tile's own block
of the Gaussian array, and callers read the draws through strided views of
it (:func:`_tile_views`), with no transpose back.  Asked for k < n
columns, the samplers draw only an n x k Gaussian block per draw, whose Q
is the first k columns of a Haar O(n) draw, uniform on the Stiefel
manifold (the same Mezzadri construction as for U(M)), and of a Haar SO(n)
draw alike, so SO(n) then takes no determinant.  A caller that reads only
k < n columns of each draw, or only k < n rows (the transpose of a Haar
draw is Haar), pays for n k Gaussians in place of n^2.

Every Monte-Carlo mean in the package is formed by :func:`stream_mean`: it
draws batches of sample rows, keeps per-column sums and sums of squared
moduli, and returns the means and Bessel-corrected standard errors.  Every
caller sizes its batches by one rule, :func:`_batch_rows`: a batch holds at
most BATCH_ENTRIES = 2^18 values of its largest per-row array, and at most
DEFAULT_BATCH = 20,000 rows, so no batch grows with the matrix size.  A
caller that can sum a batch's rows without forming them returns the two
sums in place of the rows, as the colour side of the fermionic and SO(N)
identities does with Gram products over each tile; the loop, the shards and
the reduction are the same either way.  :func:`mc_expectation` draws each
batch in one sampler call and applies its per-draw function to one tile of
the batch at a time, as a view it may overwrite, into the batch's one row
array, so it sums the rows that one call per batch would give.  Runs are
reproducible: an :class:`RngStream` names a stream by (seed,
stream_index), worker shard w reads ``rng.substream(w)``, and shards are
reduced in order, so a fixed (seed, workers) configuration gives
bit-identical results, and the tiled kernels give each draw the same
operations whatever the tiling.

Large arrays of random numbers are drawn one array ahead.  Each shard's
generator reaches ``values`` through a stand-in (:class:`_DrawAhead`):
after it serves a ``standard_normal`` array of at least
DRAW_AHEAD_MIN_VALUES = 2^16 values, a helper thread fills the next array
of the same shape from a copy of the generator, while the caller's thread
turns the draws into rows.  numpy's ``Generator`` releases the interpreter
lock while it fills an array, so the draw runs beside the Gram-Schmidt
passes, determinants and sums.  A call that asks for that
array gets it; any other call drops it and draws from the generator as it
was, so every call returns the same numbers as without the helper, and
callers need not say what they draw.  Only the fills run on the helper
thread.  A smaller array takes less time to draw than starting and joining
the helper thread.
"""

from __future__ import annotations

import copy
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .linalg import det_stack, tile_slices

__all__ = [
    "Estimate",
    "RngStream",
    "mc_expectation",
    "sample_unitary_columns",
    "stream_mean",
]

# the one batch rule of the package's Monte Carlos (_batch_rows): a batch holds
# at most BATCH_ENTRIES values of its largest per-row array, the n k Gaussians
# of a Haar draw in mc_expectation, the N^2 entries of a Ginibre matrix, the
# Khatri-Rao factor of a colour-side row or a bosonic side's probe values in
# cft, and at most DEFAULT_BATCH rows, however narrow.  In float64 a batch and
# the batch drawn ahead of it then take at most 2 x 2 MiB at any N
DEFAULT_BATCH = 20_000
BATCH_ENTRIES = 2**18

# stream_mean's generator draws the next array ahead only after an array of at
# least this many values: below it, starting and joining the helper thread
# costs more than the overlapped draw saves
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

    def z_score(self, reference: complex) -> float:
        """|mean - reference| in units of the standard error."""
        if self.std_error == 0.0:
            return 0.0 if self.mean == reference else float("inf")
        return abs(self.mean - reference) / self.std_error


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, (np.random.Generator, _DrawAhead)):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    raise ConfigError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def _orthonormal_tile(a: np.ndarray) -> np.ndarray:
    """Q of a = QR with diag(R) > 0 for one tile, as an (n, m, t) array.

    ``a`` is a real or complex (t, m, n) tile; the result holds column j of
    draw b's Q at [j, :, b].  Classical Gram-Schmidt with one
    reorthogonalisation pass, which keeps Q orthogonal to machine precision
    for any numerically nonsingular column set (Giraud, Langou, Rozloznik
    and van den Eshof, Numer. Math. 101 (2005) 87).  The tile is copied to
    that column layout, so every step is a product over m or over the
    earlier columns, vectorised over the tile's draws, on temporaries that
    stay in cache; each draw's Q takes the same operations whatever the
    tiling.  A draw with an exactly zero Gram-Schmidt column divides by a
    zero norm, and its non-finite values reach no other draw; such draws
    are found once, at the end, and redone by LAPACK's QR with the sign
    rule, whose Q stays orthogonal where Gram-Schmidt has no direction to
    normalise.
    """
    cols = np.ascontiguousarray(np.transpose(a, (2, 1, 0)))
    conj = np.iscomplexobj(cols)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, v in enumerate(cols):
            if j:
                prev = cols[:j]
                prev_conj = prev.conj() if conj else prev
                for _ in range(2):
                    v -= np.einsum("jmb,jb->mb", prev, np.einsum("jmb,mb->jb", prev_conj, v))
            norm = np.einsum("mb,mb->b", v.real, v.real)
            if conj:
                norm += np.einsum("mb,mb->b", v.imag, v.imag)
            v /= np.sqrt(norm)
        degenerate = ~np.isfinite(cols).all(axis=(0, 1))
    if degenerate.any():
        cols[:, :, degenerate] = np.transpose(_sign_corrected_qr(a[degenerate]), (2, 1, 0))
    return cols


def _orthonormal_columns(a: np.ndarray) -> np.ndarray:
    """Q of a = QR with diag(R) > 0, for a real or complex (B, m, n) stack.

    Takes the stack in tiles (:func:`linalg.tile_slices`) and overwrites
    each with its Q from :func:`_orthonormal_tile`, so a C-contiguous ``a``
    gives a C-contiguous (B, m, n) result, which is returned.  Pass a copy
    to keep the input.
    """
    for tile in tile_slices(len(a), a.shape[1] * a.shape[2]):
        a[tile] = np.transpose(_orthonormal_tile(a[tile]), (2, 1, 0))
    return a


def _sign_corrected_qr(a: np.ndarray) -> np.ndarray:
    """LAPACK's Q with column j scaled by the phase of R_jj (1 where R_jj = 0)."""
    q, r = np.linalg.qr(a)
    d = np.einsum("...ii->...i", r)
    size = np.abs(d)
    phase = np.divide(d, size, out=np.ones_like(d), where=size > 0.0)
    return q * phase[:, None, :]


def _gaussians(n: int, count: int, rng, columns: int | None = None) -> np.ndarray:
    """(count, n, columns) iid standard Gaussians, the input of the first
    ``columns`` columns of an O(n) draw (all n by default)."""
    if n < 1:
        raise DimensionError("group dimension must be >= 1")
    return _as_generator(rng).standard_normal((count, n, n if columns is None else columns))


def sample_unitary_columns(m: int, n: int, count: int, rng) -> np.ndarray:
    """(count, m, n) stack: the first n columns of Haar U(m) draws."""
    if not 1 <= n <= m:
        raise DimensionError(f"need 1 <= n <= m, got m={m}, n={n}")
    gen = _as_generator(rng)
    gauss = gen.standard_normal((count, m, n)) + 1j * gen.standard_normal((count, m, n))
    return _orthonormal_columns(gauss)


def _tile_views(a: np.ndarray):
    """(slice, (t, n, k) view) of each tile of a tile-major stack.

    ``a`` is a C-contiguous (count, n, k) array, k <= n the number of
    columns drawn, whose memory holds, tile after tile
    (:func:`linalg.tile_slices` over n k entries per draw), each tile's
    (k, n, t) column layout.  The view reads draw b's entry (i, j) at
    [b, i, j], so every entry vector ``view[:, i, j]`` is contiguous.
    """
    count, n, k = a.shape
    flat = a.reshape(-1)
    for tile in tile_slices(count, n * k):
        block = flat[tile.start * n * k:tile.stop * n * k]
        yield tile, block.reshape(k, n, -1).transpose(2, 1, 0)


def _orthogonal_tiles(n: int, count: int, rng, columns: int | None = None) -> np.ndarray:
    """(count, n, n) Haar O(n) draws, tile-major, or their first
    ``columns`` columns, from a (count, n, columns) Gaussian array.

    Each tile's block of the Gaussian array is overwritten by its Q in the
    column layout of :func:`_orthonormal_tile`, a contiguous copy, so no
    second batch-sized array is made; read the draws through
    :func:`_tile_views`.
    """
    a = _gaussians(n, count, rng, columns)
    for tile, o in _tile_views(a):
        o[...] = np.transpose(_orthonormal_tile(a[tile]), (2, 1, 0))
    return a


def _special_orthogonal_tiles(n: int, count: int, rng, columns: int | None = None) -> np.ndarray:
    """(count, n, n) Haar SO(n) draws, tile-major, or their first
    ``columns`` columns.

    An O(n) draw with det = -1 has its last row negated, i.e. it is mapped
    through the fixed reflection diag(1, ..., 1, -1).  For k < n columns
    the determinant fix is skipped: SO(n) acts transitively on k-frames, so
    the first k columns of a Haar SO(n) draw have the law of those of a
    Haar O(n) draw.
    """
    a = _orthogonal_tiles(n, count, rng, columns)
    if a.shape[2] == n:
        for _, o in _tile_views(a):
            o[det_stack(o) < 0, -1, :] *= -1.0
    return a


# the one sampler of each group; callers look it up at call time, and every
# draw passes through it once
_SAMPLERS = {"O": _orthogonal_tiles, "SO": _special_orthogonal_tiles}


class _DrawAhead:
    """``Generator`` stand-in that draws the next large array on a helper thread.

    After it serves a ``standard_normal`` array of at least
    DRAW_AHEAD_MIN_VALUES values, a helper thread fills a fresh array of the
    same shape from a copy of the generator.  If the next call asks for a
    ``standard_normal`` array of that shape, it gets the filled array (or
    the error the fill raised) and the copy becomes the generator.  Any
    other call, of this or of any other method, and :meth:`close`, waits for
    the fill and drops it with its copy, so the draw comes from the
    generator as it was.  Either way every call returns the numbers the
    generator itself would have returned.
    """

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._ahead = None  # shape, thread, copy, array, errors
        self.last_batch = False  # set: start no fill, since none would be used

    def __getattr__(self, name):
        self.close()
        return getattr(self._gen, name)

    def close(self) -> None:
        """Wait for the fill in flight, if any, and drop it."""
        ahead, self._ahead = self._ahead, None
        if ahead is not None:
            ahead[1].join()

    def standard_normal(self, size=None, *args, **kwargs) -> np.ndarray:
        # only a plain float64 draw of an integer shape is filled ahead
        dims = size if isinstance(size, (tuple, list)) else (size,)
        plain = not (args or kwargs) and all(isinstance(d, (int, np.integer)) for d in dims)
        shape = tuple(int(d) for d in dims) if plain else None
        if self._ahead is not None and self._ahead[0] == shape:
            _, thread, gen, array, errors = self._ahead
            self._ahead = None
            thread.join()
            if errors:
                raise errors[0]
            self._gen = gen
        else:
            self.close()
            array = self._gen.standard_normal(size, *args, **kwargs)
        if plain and not self.last_batch and math.prod(shape) >= DRAW_AHEAD_MIN_VALUES:
            gen, ahead, errors = copy.deepcopy(self._gen), np.empty(shape), []

            def fill():
                try:
                    gen.standard_normal(out=ahead)
                except BaseException as exc:  # raised on the caller's thread by the next draw
                    errors.append(exc)

            thread = threading.Thread(target=fill, name="ocft-draw-ahead")
            thread.start()
            self._ahead = (shape, thread, gen, ahead, errors)
        return array


def _column_sums(rows: np.ndarray) -> np.ndarray:
    """``rows.sum(axis=0)`` of a (b, width) array, to the bit.

    On a C-contiguous array of two or more columns, ``sum(axis=0)`` adds
    the rows into the column totals one row after another, and so does
    ``einsum("ij->j")``, which takes a whole row per step of its inner loop
    where ``sum`` takes one entry: five times as fast at width 3.  A single
    column is one contiguous vector, which ``sum`` adds pairwise, and other
    layouts may be reduced in another order, so those keep ``sum``.
    """
    if rows.shape[1] >= 2 and rows.flags.c_contiguous:
        return np.einsum("ij->j", rows)
    return rows.sum(axis=0)


def _batch_rows(entries: int) -> int:
    """Rows per Monte-Carlo batch whose rows hold ``entries`` values each.

    A batch holds at most BATCH_ENTRIES such values, so with the batch drawn
    ahead of it at most 2 BATCH_ENTRIES, whatever the matrix size; and at
    most DEFAULT_BATCH rows, however narrow.
    """
    return min(DEFAULT_BATCH, max(1, BATCH_ENTRIES // entries))


def stream_mean(
    values,
    samples: int,
    rng: RngStream,
    workers: int = 1,
    batch: int = DEFAULT_BATCH,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column sample mean and standard error of ``values`` rows.

    ``values(gen, b)`` draws ``b`` rows from the generator ``gen`` and
    returns them as a (b, width) array, real or complex, which is summed
    here; or it returns the tuple (sum, sum_abs2) of their column sums and
    column sums of squared moduli, each of length width, when it can sum
    the rows without forming them.  Rows are summed by
    :func:`_column_sums`, the bits of ``rows.sum(axis=0)``: by ``einsum``
    for C-contiguous rows of width two or more, and by ``sum`` itself for a
    single column, which it adds pairwise, and for other layouts, whose
    order of addition may differ.  The samples are split into ``workers``
    shards of near-equal size; shard w draws from ``rng.substream(w)`` in
    batches of at most ``batch`` rows, and the shards run one after
    another.  The package's callers pass ``batch = _batch_rows(entries)``
    for the value count of one row's largest array; the draws do not
    depend on ``batch``, only the grouping of the row sums does.  Only the
    first min(workers, samples) shards hold draws, and only those make a
    generator, so any ``workers`` costs at most one generator per sample.  The standard error is
    sqrt(s^2 / samples) with s^2 the n/(n-1)-corrected variance of the
    moduli about the mean.

    ``gen`` is a stand-in for the shard's generator that draws ahead: each
    ``standard_normal`` array of at least DRAW_AHEAD_MIN_VALUES values is
    followed, on a helper thread, by the fill of the next array of the same
    shape, which the next draw gets if it asks for a ``standard_normal``
    array of that shape.  The shard's last batch starts no fill, since
    nothing would use it.  Every draw returns the numbers the generator
    itself would have returned, whatever ``values`` draws and in whatever
    order, so the result is the same bits as drawing in turn.  A drawn array is ``values``'s own: it may change or keep it.
    The helper thread is joined before the next different draw, and before
    this function returns or raises.
    """
    if samples < 2:
        raise ConfigError("need at least 2 samples for a standard error")
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    total = total_abs2 = 0.0
    for w in range(min(workers, samples)):
        gen = _DrawAhead(rng.substream(w).generator())
        shard = samples // workers + (1 if w < samples % workers else 0)
        try:
            for done in range(0, shard, batch):
                b = min(batch, shard - done)
                gen.last_batch = done + b == shard
                vals = values(gen, b)
                if isinstance(vals, tuple):
                    batch_sum, batch_abs2 = vals
                else:
                    batch_sum, batch_abs2 = _column_sums(vals), _column_sums(np.abs(vals) ** 2)
                total = total + batch_sum
                total_abs2 = total_abs2 + batch_abs2
        finally:
            gen.close()
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
    columns: int | None = None,
) -> Estimate:
    """Sample mean and standard error of f over Haar draws.

    ``f`` maps a (B, n, k) stack of draws to a length-B vector, and each
    draw's value must depend on that draw alone: each batch of
    ``_batch_rows(n k)`` draws, at most BATCH_ENTRIES Gaussians, is drawn in
    one sampler call, and ``f`` is then applied to one cache-sized tile of it
    at a time (:func:`linalg.tile_slices`), its values written into the
    batch's one (B, 1) row array.  So ``stream_mean`` sums the rows of one
    ``f`` call per batch, to the bit wherever ``f`` rounds a draw alike at
    any array length and memory layout, as elementwise arithmetic and
    :func:`linalg.det_stack`, complex stacks included, do.  The tile ``f``
    gets is a strided view of the sampler's buffer, in which each entry
    vector ``o[:, i, j]`` is contiguous; ``f`` may overwrite it, since no
    draw is read again.  Worker w consumes ``rng.substream(w)`` (see
    :func:`stream_mean`).

    By default k = n and ``f`` gets whole draws.  ``columns = k < n`` draws
    only the first k columns of each draw, from n k Gaussians in place of
    n^2, with the law they have in a whole draw of either group: ``f`` must
    then read only those columns, and gets other numbers than at k = n.
    """
    if group not in _SAMPLERS:
        raise ConfigError(f"group must be one of {sorted(_SAMPLERS)}, got {group!r}")
    if columns is not None and not 1 <= columns <= n:
        raise ConfigError(f"columns must be in 1..{n}, got {columns}")
    sampler = _SAMPLERS[group]

    def values(gen, b):
        draws = sampler(n, b, gen, columns)
        # allocated after the batch: the other order raised the peak resident
        # set of the moments benchmark by about 3 MB, by heap layout alone
        rows = np.empty((b, 1), dtype=complex)
        for tile, o in _tile_views(draws):
            rows[tile, 0] = f(o)
        return rows

    entries = n * (n if columns is None else columns)
    mean, se = stream_mean(values, samples, rng, workers, batch=_batch_rows(entries))
    return Estimate(complex(mean[0]), float(se[0]), samples)
