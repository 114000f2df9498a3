"""Flavour-space measures and verification of the colour-flavour identities.

The identities assert that a Haar average over the colour group equals a
weighted integral over a small space of flavour matrices:

* fermionic: exp(psibar O psi) averaged over O(N) equals the average of
  exp((psibar Z psibar + psi Z^dagger psi)/2) over complex skew n x n
  matrices with density det^{-(N/2+n-1)}(1 + Z Z^dagger);
* bosonic: same structure with commuting probe vectors, complex symmetric
  Z, density det^{N/2-n-1}(1 - Z Z^dagger) on the contracting ball, drawn
  exactly as the n x n block of a circular orthogonal ensemble matrix of
  size N - 1;
* special-orthogonal: restricting the average to SO(N) adds a single
  det-correction term with one scalar constant K, fitted here numerically.

Verification is coefficient-wise for the Grassmann variants: the left side
expands each monomial coefficient into products of minors of O (estimated
by Haar Monte Carlo, with every minor of a draw built from the smaller ones
by the Laplace expansion that ``linalg.det_stack`` also uses, and the sums
over each tile of draws taken as Gram products, one tile per batch),
the right side into powers of the flavour parameter
with exactly computable radial moments.  All normalisations are fixed
self-consistently by matching the constant term to the group volume 1;
the closed-form constants quoted alongside are reported, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, DomainError
from .grassmann import (
    Multivector,
    gmul,
    psi_index,
    psibar_index,
    universe_size,
)
from .haar import (
    _SAMPLERS,
    RngStream,
    _batch_rows,
    _tile_views,
    sample_unitary_columns,
    stream_mean,
)
from .linalg import laplace_minors, log_beta, log_gamma

__all__ = [
    "BosonicMeasure",
    "VerificationReport",
    "c0_fermionic_closed_form",
    "c0_fermionic_selfconsistent",
    "lhs_coefficient_means",
    "normalization_audit",
    "sample_bosonic_z",
    "sidak_row_bound",
    "verify_bosonic_cft",
    "verify_fermionic_cft",
    "verify_son_cft",
]

Z_SE_FLOOR = 1e-12
DEFAULT_THRESHOLD = 4.0
# verify_bosonic_cft's range, a memory and time cap.  Its colour batches count
# the probe values of a row, not the N^2 Gaussians of its draw, so up to 13
# probes a batch holds 20,000 whole O(N) draws: at N = 64 one batch peaks at
# 662 MiB and takes about 10 s, and two batches, the second drawn ahead,
# 1,287 MiB and 16 s (measured through haar-moment before its batches counted
# the Gaussians, on 2 vCPUs, 1 BLAS thread); both grow as N^2 to N^3
MAX_BOSONIC_N = 64


# -- normalisation constants ----------------------------------------------


def c0_fermionic_closed_form(n_colour: int, n_flavour: int) -> float:
    """Closed-form fermionic constant pi^{-n(n-1)/2} prod Gamma(N+2i)/Gamma(N+i)."""
    if n_colour < 1 or n_flavour < 1:
        raise DomainError("need N >= 1 and n >= 1")
    log_val = -0.5 * n_flavour * (n_flavour - 1) * math.log(math.pi)
    for i in range(1, n_flavour):
        log_val += log_gamma(n_colour + 2.0 * i) - log_gamma(n_colour + 1.0 * i)
    return math.exp(log_val)


def c0_fermionic_selfconsistent(n_colour: int, n_flavour: int) -> float:
    """Inverse total mass of the fermionic flavour measure, flat convention.

    The flat measure is the product of dRe dIm over independent strict
    upper-triangle entries.  For n = 1 the space is zero dimensional; for
    n = 2 a single complex entry a remains and det(1 + Z Z^dagger) =
    (1 + |a|^2)^2, so the mass is pi * integral (1+r)^{-(N+2)} dr
    = pi B(1, N+1).  This value, not the closed form, normalises the
    verification integrals (they coincide; see ``normalization_audit``).
    """
    if n_colour < 1 or n_flavour < 1:
        raise DomainError("need N >= 1 and n >= 1")
    if n_flavour == 1:
        return 1.0
    if n_flavour == 2:
        return math.exp(-log_beta(1.0, n_colour + 1.0)) / math.pi
    raise ConfigError("explicit parametrization implemented for n <= 2")


def normalization_audit(n_colour: int, n_flavour: int = 2) -> dict:
    """Report the closed-form and self-consistent fermionic constants.

    The verification suite always uses the self-consistent value; the ratio
    is reported so any convention mismatch is visible rather than silently
    corrected.
    """
    closed = c0_fermionic_closed_form(n_colour, n_flavour)
    selfc = c0_fermionic_selfconsistent(n_colour, n_flavour)
    return {
        "n_colour": n_colour,
        "n_flavour": n_flavour,
        "closed_form": closed,
        "self_consistent": selfc,
        "ratio": closed / selfc,
    }


# -- measures and samplers -------------------------------------------------


@dataclass(frozen=True)
class BosonicMeasure:
    """Complex symmetric n x n matrices, density det^{N/2-n-1}(1 - Z Z^dagger).

    Supported where 1 - Z Z^dagger is positive definite; N > 2n is required
    (the integrability bound).
    """

    n_colour: int
    n_flavour: int

    def __post_init__(self):
        if self.n_colour < 1 or self.n_flavour < 1:
            raise DomainError("need N >= 1 and n >= 1")
        if self.n_colour <= 2 * self.n_flavour:
            raise DomainError(
                f"need N > 2n, got N={self.n_colour}, n={self.n_flavour}"
            )


def sample_bosonic_z(measure: BosonicMeasure, rng, count: int = 1) -> np.ndarray:
    """Draw Z from the bosonic measure, exactly, for every N > 2n.

    With M = N - 1 and Q the first n columns of a Haar U(M) matrix, Z = Q^T Q
    is the leading n x n block of the circular orthogonal ensemble matrix
    U^T U.  That block has density det^{(M-2n-1)/2}(1 - Z Z^dagger), which is
    the measure's det^{N/2-n-1} (Zyczkowski-Sommers, J. Phys. A 33 (2000)
    2045; Forrester, J. Phys. A 39 (2006) 6861).
    """
    q = sample_unitary_columns(measure.n_colour - 1, measure.n_flavour, count, rng)
    return np.transpose(q, (0, 2, 1)) @ q


# -- monomial bookkeeping ---------------------------------------------------


def _minor_pairs(n_colour: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (row set, column set) pairs with equal cardinality."""
    pairs = []
    for k in range(n_colour + 1):
        for s in combinations(range(n_colour), k):
            for t in combinations(range(n_colour), k):
                pairs.append((s, t))
    return pairs


def _minor_dets(o_batch: np.ndarray) -> np.ndarray:
    """(B, P) minors det(O[S, T]) in ``_minor_pairs`` order.

    :func:`linalg.laplace_minors` of every sorted row set, by size, read
    through ``.T``: the size-0 minor is 1, and each size k >= 1 is summed
    from the size-(k - 1) minors along its first row, vectorised over the
    batch and the pairs.
    """
    n_colour = o_batch.shape[-1]
    rows = tuple(s for k in range(1, n_colour + 1) for s in combinations(range(n_colour), k))
    return laplace_minors(o_batch, rows).T


@lru_cache(maxsize=None)
def _lhs_structure(n_colour: int, n_flavour: int):
    """Monomial table: every flavour assignment of minor pairs.

    The coefficient of the monomial with per-flavour index sets
    (S_a, T_a) in the expanded exponential is

        sign * prod_a det(O[S_a, T_a]),   sign = (-1)^{K (K - 1)/2},

    K = sum_a |S_a|: the parity of moving the K psi generators of the
    product of bar/unbar pairs behind the K psibar generators, into
    canonical order.  Cross-checked against the exact exterior-algebra
    expansion in tests.

    Built once per (N, n) as ``(choices, signs, masks, labels)``, one row per
    choice of minor pairs in ``itertools.product`` order: the (rows, n) pair
    positions, the signs, the int64 masks and the names (b<i><a> for psibar,
    p<i><a> for psi, "1" for the empty monomial).  Each flavour's psibar bits
    of S_a and psi bits of T_a are precomputed fragments, one per pair; a
    row's mask is the OR and its name the join of its fragments, psibar
    fragments of flavours 1..n before psi fragments.  A mask fixes every S_a
    and T_a, so no two rows share one.  The arrays are read-only and the
    labels a tuple: callers share them.
    """
    universe_size(n_colour, n_flavour)
    pairs = _minor_pairs(n_colour)
    choices = np.indices((len(pairs),) * n_flavour).reshape(n_flavour, -1).T
    k = np.array([len(s) for s, _ in pairs])[choices].sum(axis=1)
    signs = np.where(k * (k - 1) // 2 % 2, -1, 1)
    colours = range(n_colour)
    bits = (  # bits[half][a][i]: the psibar (half 0) or psi (half 1) bit of colour i
        [[1 << psibar_index(i, a, n_colour) for i in colours] for a in range(n_flavour)],
        [[1 << psi_index(i, a, n_colour, n_flavour) for i in colours] for a in range(n_flavour)],
    )
    masks = np.zeros(len(choices), dtype=np.int64)
    labels = np.full(len(choices), "", dtype=object)
    for half, letter in enumerate("bp"):
        sets = [pair[half] for pair in pairs]
        for a, bit in enumerate(bits[half]):
            name = [f"{letter}{i + 1}{a + 1} " for i in colours]
            fragment_masks = np.array([sum([bit[i] for i in s]) for s in sets])
            fragment_labels = np.array(["".join([name[i] for i in s]) for s in sets], dtype=object)
            masks |= fragment_masks[choices[:, a]]
            labels += fragment_labels[choices[:, a]]
    for array in (choices, signs, masks):
        array.setflags(write=False)
    return choices, signs, masks, tuple(label.rstrip() or "1" for label in labels)


def lhs_coefficient_means(
    n_colour: int,
    n_flavour: int,
    samples: int,
    rng: RngStream,
    group: str = "O",
    workers: int = 1,
) -> np.ndarray:
    """Haar-Monte-Carlo means of every monomial coefficient of the colour side.

    Returns a (rows, 2) array of the means and standard errors over the rows
    of ``_lhs_structure``, in table order.

    The coefficient of table row (c_1, ..., c_n) is sign * prod_a m_{c_a},
    with m the (t, P) minors of one tile of draws (``haar._tile_views``).
    So the tile's sums over all rows are one product K^T m, reshaped in
    table order, where K is the row-wise Khatri-Rao product of n - 1 copies
    of m (a column of ones for n = 1); the sums of squares are
    (K * K)^T (m * m).  The tiles' sums are added into the batch's, and
    ``stream_mean`` adds these, so no (B, P^n) row array is formed, and a
    batch holds at most ``haar.BATCH_ENTRIES`` entries of K (of m for
    n = 1).  At N n <= 8 and n <= 2 every batch is one tile, so each
    batch's sums are one Gram product.
    """
    if group not in _SAMPLERS:
        raise ConfigError(f"group must be one of {sorted(_SAMPLERS)}, got {group!r}")
    _, signs, _, _ = _lhs_structure(n_colour, n_flavour)
    sampler = _SAMPLERS[group]
    # the Khatri-Rao width, with P = sum_k C(N, k)^2 = C(2N, N) minor pairs
    width = math.comb(2 * n_colour, n_colour) ** max(1, n_flavour - 1)

    def sums(gen, b):
        total = total_abs2 = 0.0
        for _, o in _tile_views(sampler(n_colour, b, gen)):
            minors = _minor_dets(o)
            k = np.ones((len(minors), 1))
            for _ in range(n_flavour - 1):
                k = (k[:, :, None] * minors[:, None, :]).reshape(len(minors), -1)
            total = total + signs * (k.T @ minors).ravel()
            total_abs2 = total_abs2 + ((k * k).T @ (minors * minors)).ravel()
        return total, total_abs2

    mean, se = stream_mean(
        sums,
        samples,
        rng,
        workers,
        batch=_batch_rows(width),
    )
    return np.stack([mean, se], axis=1)


# -- flavour-side coefficients (exact radial reduction, n <= 2) -------------


def rhs_exact_coefficients(n_colour: int, n_flavour: int) -> np.ndarray:
    """Exact flavour-side coefficient of every row of ``_lhs_structure``, n <= 2.

    For n = 1 the flavour matrix is 0 and only the constant row is nonzero.
    For n = 2 the flavour side expands into the monomials
    prod_{i in U} psibar_i^1 psibar_i^2 prod_{j in V} psi_j^1 psi_j^2 with
    coefficient a^{|U|} (-conj(a))^{|V|}, a the single flavour parameter.
    The phase integral kills every term with |U| != |V|, and the radial
    moments are E[r^u] = 1 / binom(N, u), leaving sign * (-1)^u / binom(N, u)
    with the sign of the product in the exact exterior algebra.  (U, V) is
    then a minor pair p, and its monomial the table row of the choice
    (p, p), row p (P + 1).  The tests check these against Monte-Carlo draws
    of the measure.
    """
    if n_flavour not in (1, 2):
        raise ConfigError("exact flavour-side reduction implemented for n <= 2")
    out = np.zeros(len(_lhs_structure(n_colour, n_flavour)[0]))
    if n_flavour == 1:
        out[0] = 1.0
        return out
    ngen = universe_size(n_colour, 2)
    pairs = _minor_pairs(n_colour)
    for p, (u, v) in enumerate(pairs):
        bilinears = [(psibar_index(i, 0, n_colour), psibar_index(i, 1, n_colour)) for i in u]
        bilinears += [(psi_index(j, 0, n_colour, 2), psi_index(j, 1, n_colour, 2)) for j in v]
        mv = Multivector.scalar(ngen)
        for first, second in bilinears:
            pair = gmul(Multivector.generator(ngen, first), Multivector.generator(ngen, second))
            mv = gmul(mv, pair)
        ((_, coeff),) = mv.terms.items()
        sign = int(round(coeff.real))
        out[p * (len(pairs) + 1)] = sign * (-1.0) ** len(u) / math.comb(n_colour, len(u))
    return out


# -- reports ----------------------------------------------------------------


def sidak_row_bound(threshold: float, rows: int) -> float:
    """Per-row |z| bound with the family-wise level of a single row at ``threshold``.

    One row passes |z| <= t with two-sided tail alpha = erfc(t / sqrt 2).
    Over ``rows`` rows the Sidak per-row tail is 1 - (1 - alpha)^{1/rows};
    by Sidak's inequality this keeps the chance that any row of a jointly
    Gaussian family fails at most alpha, whatever the correlations.  If the
    per-row tail underflows (t above about 37) the bound stays at t.
    """
    if rows <= 1 or threshold <= 0.0:
        return threshold
    alpha = math.erfc(threshold / math.sqrt(2.0))
    if alpha >= 1.0:
        return threshold
    per_row = -math.expm1(math.log1p(-alpha) / rows)
    if per_row <= 0.0:
        return threshold
    return max(threshold, -NormalDist().inv_cdf(0.5 * per_row))


@dataclass
class VerificationReport:
    """Rows of a verification run; ``threshold`` is the single-row |z| level.

    Row r compares ``lhs[r]`` (standard error ``lhs_se[r]``) with ``rhs[r]``
    (``rhs_se[r]``) on the monomial ``masks[r]``, or on probe point r, named
    ``labels[r]``.  The verdict is family-wise: every row is held to the
    Sidak-corrected ``row_threshold`` over the ``rows_tested`` rows that
    carry a nonzero standard error, so the chance of a false failure does
    not grow with the number of monomials.
    """

    variant: str
    n_colour: int
    n_flavour: int
    samples: int
    threshold: float
    masks: np.ndarray
    labels: tuple[str, ...]
    lhs: np.ndarray
    lhs_se: np.ndarray
    rhs: np.ndarray
    rhs_se: np.ndarray
    extras: dict = field(default_factory=dict)

    @property
    def z_scores(self) -> np.ndarray:
        """|lhs - rhs| / max(hypot(lhs_se, rhs_se), Z_SE_FLOOR), row by row."""
        # the modulus as a hypot: numpy's vectorised complex abs can differ
        # from the scalar one in the last bit
        delta = self.lhs - self.rhs
        se = np.hypot(self.lhs_se, self.rhs_se)
        return np.hypot(delta.real, delta.imag) / np.maximum(se, Z_SE_FLOOR)

    @property
    def max_abs_z(self) -> float:
        return float(self.z_scores.max(initial=0.0))

    @property
    def rows_tested(self) -> int:
        return int(np.count_nonzero(np.hypot(self.lhs_se, self.rhs_se) > 0.0))

    @property
    def row_threshold(self) -> float:
        return sidak_row_bound(self.threshold, self.rows_tested)

    @property
    def passed(self) -> bool:
        return self.max_abs_z <= self.row_threshold


def _verify_table(
    variant: str,
    n_colour: int,
    n_flavour: int,
    samples: int,
    rng: RngStream,
    threshold: float,
    workers: int,
) -> VerificationReport:
    """Both sides of the fermionic or the SO(N) identity on every monomial.

    The colour side is Haar Monte Carlo over O(N) ("fermionic") or SO(N)
    ("son"), the flavour side the exact radial reduction
    (:func:`rhs_exact_coefficients`); SO(N) adds K times the kappa det(M_0)
    column (see :func:`verify_son_cft`).  Both sides are arrays over the
    rows of ``_lhs_structure``; the report lists the rows sorted by mask.
    """
    if n_colour < 1 or n_flavour < 1:
        raise DomainError("need N >= 1 and n >= 1")
    # the flavour side rejects n >= 3, and the colour side's monomial table
    # N*n > 8, before anything is sampled
    rhs = rhs_exact_coefficients(n_colour, n_flavour)
    _, _, masks, labels = _lhs_structure(n_colour, n_flavour)
    order = np.argsort(masks)
    group = "O" if variant == "fermionic" else "SO"
    means = lhs_coefficient_means(n_colour, n_flavour, samples, rng, group, workers)
    lhs, lhs_se = means[order].T
    rhs = rhs[order]
    extras = {}
    if group == "SO":
        kappa = float(n_colour + 1) if n_flavour == 2 else 1.0
        correction = kappa * _det_m0_terms(n_colour, n_flavour)[order]
        fit = np.flatnonzero(correction)
        # weighted least squares, summed in mask order as Python floats
        num = den = 0.0
        for ls, b, d in zip(
            lhs_se[fit].tolist(), correction[fit].tolist(), (lhs - rhs)[fit].tolist()
        ):
            w = 1.0 / max(ls, Z_SE_FLOOR) ** 2
            num += w * b * d
            den += w * b * b
        if den == 0.0:
            raise ConfigError("no monomial carries the det correction; cannot fit K")
        k_fit = num / den
        rhs = rhs + k_fit * correction
        extras = {"fitted_k": k_fit, "kappa": kappa}
    elif n_flavour == 2:
        extras = {"normalization_ratio": normalization_audit(n_colour)["ratio"]}
    return VerificationReport(
        variant, n_colour, n_flavour, samples, threshold, masks[order],
        tuple(labels[r] for r in order.tolist()), lhs, lhs_se, rhs, np.zeros_like(rhs),
        extras,
    )


def verify_fermionic_cft(
    n_colour: int,
    n_flavour: int,
    samples: int,
    rng: RngStream,
    threshold: float = DEFAULT_THRESHOLD,
    workers: int = 1,
) -> VerificationReport:
    """Coefficient-wise comparison of the two sides of the fermionic identity.

    The colour side is Haar Monte Carlo over O(N); the flavour side is the
    exact radial reduction (:func:`rhs_exact_coefficients`).  Every monomial
    of the colour side's table is a row; coefficients outside it are
    identically zero on both sides.  The constant monomial must match
    exactly.  N*n <= 8 and n <= 2.
    """
    return _verify_table("fermionic", n_colour, n_flavour, samples, rng, threshold, workers)


def _probe_pair(gen, n_colour: int, n_flavour: int, norm: float = 0.5):
    phi = gen.standard_normal((n_colour, n_flavour)) + 1j * gen.standard_normal(
        (n_colour, n_flavour)
    )
    phibar = gen.standard_normal((n_colour, n_flavour)) + 1j * gen.standard_normal(
        (n_colour, n_flavour)
    )
    phi *= norm / np.linalg.norm(phi)
    phibar *= norm / np.linalg.norm(phibar)
    return phi, phibar


def verify_bosonic_cft(
    n_colour: int,
    n_flavour: int,
    probes: int,
    samples: int,
    rng: RngStream,
    threshold: float = DEFAULT_THRESHOLD,
    workers: int = 1,
) -> VerificationReport:
    """Probe-point comparison of the two sides of the bosonic identity.

    At each probe (phi, phibar), the colour side averages
    exp(sum_a phibar^a . O phi^a) over O(N) and the flavour side averages
    exp((phibar Z phibar + phi Z^dagger phi)/2) over the bosonic measure;
    both sides share the constant-term normalisation 1.  The colour side's
    worker shards read substreams 1..workers, the flavour side's the
    ``workers`` substreams after them.  Each side draws batches of
    ``_batch_rows(probes)`` rows, so a batch holds at most
    ``haar.BATCH_ENTRIES`` values whatever the probe count; the colour
    side's draws, N^2 Gaussians per row, are not counted.  N is capped at
    ``MAX_BOSONIC_N``.
    """
    measure = BosonicMeasure(n_colour, n_flavour)  # validates N > 2n
    if n_colour > MAX_BOSONIC_N:
        raise ConfigError(f"bosonic verification capped at N = {MAX_BOSONIC_N}")
    if probes < 1:
        raise ConfigError("need at least one probe point")
    gen = rng.generator()
    probe_list = [_probe_pair(gen, n_colour, n_flavour) for _ in range(probes)]
    # colour side: one pass over shared Haar draws for all probes
    mats = np.stack(
        [
            np.einsum("ia,ja->ij", phibar, phi)
            for phi, phibar in probe_list
        ]
    )
    # flavour-space bilinears: sum_i phibar_i^a phibar_i^b and its phi twin
    sbar = np.stack([phibar.T @ phibar for _, phibar in probe_list])
    s = np.stack([phi.T @ phi for phi, _ in probe_list])

    def colour(o_gen, b):
        draws = _SAMPLERS["O"](n_colour, b, o_gen)
        rows = np.empty((b, probes), dtype=complex)
        for tile, o in _tile_views(draws):
            np.einsum("bij,pij->bp", o, mats, out=rows[tile])
        return np.exp(rows, out=rows)

    def flavour(z_gen, b):
        z = sample_bosonic_z(measure, z_gen, b)
        zdag = np.conj(np.transpose(z, (0, 2, 1)))
        return np.exp(
            0.5
            * (np.einsum("bxy,pxy->bp", z, sbar) + np.einsum("bxy,pxy->bp", zdag, s))
        )

    batch = _batch_rows(probes)
    lhs, lhs_se = stream_mean(colour, samples, rng.substream(1), workers, batch=batch)
    rhs, rhs_se = stream_mean(flavour, samples, rng.substream(1 + workers), workers, batch=batch)

    return VerificationReport(
        "bosonic", n_colour, n_flavour, samples, threshold, np.arange(probes),
        tuple(f"probe{p + 1}" for p in range(probes)), lhs, lhs_se, rhs, rhs_se,
        {"probes": probes},
    )


# -- SO(N) variant -----------------------------------------------------------


def _det_m0_terms(n_colour: int, n_flavour: int) -> np.ndarray:
    """Monomial coefficients of det(M_0), M_0[i, j] = sum_a psibar_i^a psi_j^a.

    One float per row of ``_lhs_structure``, nonzero only on rows with
    sum_a |S_a| = N.  Such a row carries det(M_0) only if its row sets S_a
    and its column sets T_a each partition 0..N-1.  Its Leibniz terms are the prod_a |S_a|! permutations
    pi with pi(S_a) = T_a, each the row's monomial times sign * sgn(pi_0),
    where pi_0 maps each sorted S_a onto the sorted T_a.
    """
    choices, signs, _, _ = _lhs_structure(n_colour, n_flavour)
    pairs = _minor_pairs(n_colour)
    k = np.array([len(s) for s, _ in pairs])[choices].sum(axis=1)
    full = list(range(n_colour))
    out = np.zeros(len(choices))
    for r in np.flatnonzero(k == n_colour):
        rows = [i for p in choices[r] for i in pairs[p][0]]
        cols = [j for p in choices[r] for j in pairs[p][1]]
        if sorted(rows) == full == sorted(cols):
            # pi_0 sends rows[x] to cols[x]: sgn(pi_0) = sgn(rows) * sgn(cols)
            flips = sum(x > y for seq in (rows, cols) for x, y in combinations(seq, 2))
            count = math.prod(math.factorial(len(pairs[p][0])) for p in choices[r])
            out[r] = (-1) ** flips * int(signs[r]) * count
    return out


def verify_son_cft(
    n_colour: int,
    n_flavour: int,
    samples: int,
    rng: RngStream,
    threshold: float = DEFAULT_THRESHOLD,
    workers: int = 1,
) -> VerificationReport:
    """Fit and check the det-corrected SO(N) identity.

    The flavour side is exp-part + K * correction, where the correction's
    monomial coefficients reduce (for n <= 2) to kappa * coeff(det M_0),
    M_0[i,j] = sum_a psibar_i^a psi_j^a read off the colour-side monomial
    table, with kappa = E[(1+r)^N] = N + 1 for n = 2 and 1 for n = 1 (the
    angular integral first removes every cross term).  K is fitted by
    weighted least squares over all monomials and the residual z-scores
    reported; it comes out as 1/(kappa N!).  N*n <= 8, as in the fermionic
    variant.
    """
    return _verify_table("son", n_colour, n_flavour, samples, rng, threshold, workers)
