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
by Laplace expansion and the sums over a batch taken as one Gram product),
the right side into powers of the flavour parameter
with exactly computable radial moments.  All normalisations are fixed
self-consistently by matching the constant term to the group volume 1;
the closed-form constants quoted alongside are reported, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
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
    DEFAULT_BATCH,
    RngStream,
    sample_orthogonal_batch,
    sample_special_orthogonal_batch,
    sample_unitary_columns,
    stream_mean,
)
from .linalg import log_beta, log_gamma

__all__ = [
    "BosonicMeasure",
    "MonomialRow",
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
# verify_bosonic_cft's range, a memory and time cap: one 20,000-draw batch of
# O(64) draws peaks at 1.9 GB (2.5 GB with the next batch drawn ahead) and
# takes about 20 s, and both grow as N^2 to N^3
MAX_BOSONIC_N = 64
# entries of the largest array of one colour-side batch, the (rows, P^(n-1))
# Khatri-Rao factor of lhs_coefficient_means (the (rows, P) minors for n = 1);
# the row count of a batch is derived from this and that width, and capped at
# haar.DEFAULT_BATCH
BATCH_ENTRIES = 2**18


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


@lru_cache(maxsize=None)
def _minor_recursion(n_colour: int) -> tuple[int, tuple]:
    """The pair count P and, per size k = 1..N, a Laplace expansion table.

    The size-k pairs take the ``_minor_pairs`` positions start..start+P_k-1.
    Expanding det O[S, T] along its first row s_0 gives the terms
    (-1)^j O[s_0, t_j] det O[S - s_0, T - t_j], j < k; the (k, P_k) tables hold
    the flat index s_0 * N + t_j of the entry and the position of the
    size-(k-1) minor.
    """
    pairs = _minor_pairs(n_colour)
    position = {pair: p for p, pair in enumerate(pairs)}
    steps = []
    for k in range(1, n_colour + 1):
        sized = [(s, t) for s, t in pairs if len(s) == k]
        entries = [[s[0] * n_colour + tj for tj in t] for s, t in sized]
        smaller = [[position[s[1:], t[:j] + t[j + 1:]] for j in range(k)] for s, t in sized]
        steps.append((position[sized[0]], np.array(entries).T, np.array(smaller).T))
    return len(pairs), tuple(steps)


def _minor_dets(o_batch: np.ndarray) -> np.ndarray:
    """(B, P) minors det(O[S, T]) in ``_minor_pairs`` order.

    The size-0 minor is 1, and the minors of each size k >= 1 are summed from
    the size-(k - 1) minors by Laplace expansion along their first row
    (:func:`_minor_recursion`), vectorised over the batch and the pairs.
    """
    b, n_colour = o_batch.shape[:2]
    count, steps = _minor_recursion(n_colour)
    entries = np.ascontiguousarray(o_batch.reshape(b, -1).T)
    minors = np.empty((count, b))
    minors[0] = 1.0
    for start, entry, smaller in steps:
        block = minors[start:start + entry.shape[1]]
        np.multiply(entries[entry[0]], minors[smaller[0]], out=block)
        for j in range(1, len(entry)):
            term = entries[entry[j]] * minors[smaller[j]]
            if j % 2:
                block -= term
            else:
                block += term
    return minors.T


def _mask_for(pair_choice, n_colour: int, n_flavour: int, pairs) -> int:
    mask = 0
    for a, p in enumerate(pair_choice):
        s, t = pairs[p]
        for i in s:
            mask |= 1 << psibar_index(i, a, n_colour)
        for i in t:
            mask |= 1 << psi_index(i, a, n_colour, n_flavour)
    return mask


@lru_cache(maxsize=None)
def _lhs_structure(n_colour: int, n_flavour: int):
    """Monomial table: every flavour assignment of minor pairs.

    The coefficient of the monomial with per-flavour index sets
    (S_a, T_a) in the expanded exponential is

        sign * prod_a det(O[S_a, T_a]),   sign = (-1)^{K (K - 1)/2},

    K = sum_a |S_a|: the parity of moving the K psi generators of the
    product of bar/unbar pairs behind the K psibar generators, into
    canonical order.  Cross-checked against the exact exterior-algebra
    expansion in tests.  Built once per (N, n) and returned as the tuples
    ``pairs`` and ``table`` of (mask, sign, choice) rows, which callers
    share and must not change.
    """
    universe_size(n_colour, n_flavour)
    pairs = tuple(_minor_pairs(n_colour))
    table = []
    for choice in product(range(len(pairs)), repeat=n_flavour):
        k = sum(len(pairs[p][0]) for p in choice)
        sign = -1 if k * (k - 1) // 2 % 2 else 1
        table.append((_mask_for(choice, n_colour, n_flavour, pairs), sign, choice))
    return pairs, tuple(table)


def _batch_rows(width: int) -> int:
    """Rows per Monte-Carlo batch, so that one batch holds <= BATCH_ENTRIES values.

    ``width`` is the value count of one row; a batch has at most
    DEFAULT_BATCH rows, however narrow.
    """
    return min(DEFAULT_BATCH, max(1, BATCH_ENTRIES // width))


def mask_label(mask: int, n_colour: int, n_flavour: int) -> str:
    """Readable monomial name: b<i><a> for psibar, p<i><a> for psi."""
    if mask == 0:
        return "1"
    names = []
    nn = n_colour * n_flavour
    for bit in range(2 * nn):
        if mask >> bit & 1:
            block, local = divmod(bit, nn)
            a, i = divmod(local, n_colour)
            names.append(f"{'b' if block == 0 else 'p'}{i + 1}{a + 1}")
    return " ".join(names)


def lhs_coefficient_means(
    n_colour: int,
    n_flavour: int,
    samples: int,
    rng: RngStream,
    group: str = "O",
    workers: int = 1,
) -> dict[int, tuple[float, float]]:
    """Haar-Monte-Carlo means of every monomial coefficient of the colour side.

    Returns {mask: (mean, std_error)}; masks that cannot appear carry exact
    zeros and are omitted.

    The coefficient of table row (c_1, ..., c_n) is sign * prod_a m_{c_a},
    with m the (B, P) minors of a batch of draws.  So the batch's sums over
    all rows are one product K^T m, reshaped in table order, where K is the
    row-wise Khatri-Rao product of n - 1 copies of m (a column of ones for
    n = 1); the sums of squares are (K * K)^T (m * m).  ``stream_mean`` adds
    these per-batch sums, so no (B, P^n) row array is formed, and a batch
    holds at most BATCH_ENTRIES entries of K (of m for n = 1).
    """
    if group not in ("O", "SO"):
        raise ConfigError(f"group must be 'O' or 'SO', got {group!r}")
    pairs, table = _lhs_structure(n_colour, n_flavour)
    sampler = (
        sample_orthogonal_batch if group == "O" else sample_special_orthogonal_batch
    )
    signs = np.array([sign for _, sign, _ in table], dtype=float)

    def sums(gen, b):
        minors = _minor_dets(sampler(n_colour, b, gen))
        k = np.ones((b, 1))
        for _ in range(n_flavour - 1):
            k = (k[:, :, None] * minors[:, None, :]).reshape(b, -1)
        return signs * (k.T @ minors).ravel(), ((k * k).T @ (minors * minors)).ravel()

    mean, se = stream_mean(
        sums,
        samples,
        rng,
        workers,
        batch=_batch_rows(len(pairs) ** max(1, n_flavour - 1)),
    )
    out = {mask: (float(m), float(e)) for (mask, _, _), m, e in zip(table, mean, se)}
    if len(out) != len(table):  # distinct flavour assignments, same monomial
        raise AssertionError("monomial masks must be unique")
    return out


# -- flavour-side coefficients (exact radial reduction, n <= 2) -------------


def _rhs_structure(n_colour: int):
    """Monomial table of the two-flavour Z-side expansion.

    Each monomial is a choice of colour subsets U (bar pairs) and V (unbar
    pairs); the integrand coefficient is sign * a^{|U|} (-conj(a))^{|V|}
    with a the single flavour parameter.  Signs come from the exact
    exterior algebra.
    """
    ngen = universe_size(n_colour, 2)
    table = []
    colours = range(n_colour)
    for usize in range(n_colour + 1):
        for u in combinations(colours, usize):
            for vsize in range(n_colour + 1):
                for v in combinations(colours, vsize):
                    mv = Multivector.scalar(ngen)
                    for i in u:
                        pair = gmul(
                            Multivector.generator(ngen, psibar_index(i, 0, n_colour)),
                            Multivector.generator(ngen, psibar_index(i, 1, n_colour)),
                        )
                        mv = gmul(mv, pair)
                    for i in v:
                        pair = gmul(
                            Multivector.generator(
                                ngen, psi_index(i, 0, n_colour, 2)
                            ),
                            Multivector.generator(
                                ngen, psi_index(i, 1, n_colour, 2)
                            ),
                        )
                        mv = gmul(mv, pair)
                    ((mask, coeff),) = mv.terms.items()
                    table.append((mask, int(round(coeff.real)), usize, vsize))
    return table


def rhs_exact_coefficients(n_colour: int, n_flavour: int) -> dict[int, float]:
    """Exact flavour-side coefficient of every monomial, n <= 2.

    The radial moments of the n = 2 measure are E[r^u] = 1 / binom(N, u),
    and the phase integral kills all terms with unequal bar/unbar pair
    counts, leaving sign * (-1)^u / binom(N, u) on the surviving masks.
    The tests check these against Monte-Carlo draws of the measure.
    """
    if n_flavour == 1:
        return {0: 1.0}
    if n_flavour != 2:
        raise ConfigError("exact flavour-side reduction implemented for n <= 2")
    out: dict[int, float] = {}
    for mask, sign, u, v in _rhs_structure(n_colour):
        if u != v:
            continue
        out[mask] = sign * (-1.0) ** u / math.comb(n_colour, u)
    return out


# -- reports ----------------------------------------------------------------


@dataclass(frozen=True)
class MonomialRow:
    mask: int
    label: str
    lhs: complex
    lhs_se: float
    rhs: complex
    rhs_se: float
    z_score: float


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

    The verdict is family-wise: every row is held to the Sidak-corrected
    ``row_threshold`` over the ``rows_tested`` rows that carry a nonzero
    standard error, so the chance of a false failure does not grow with the
    number of monomials.
    """

    variant: str
    n_colour: int
    n_flavour: int
    samples: int
    threshold: float
    rows: list[MonomialRow] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def max_abs_z(self) -> float:
        return float(max((r.z_score for r in self.rows), default=0.0))

    @property
    def rows_tested(self) -> int:
        return sum(1 for r in self.rows if math.hypot(r.lhs_se, r.rhs_se) > 0.0)

    @property
    def row_threshold(self) -> float:
        return sidak_row_bound(self.threshold, self.rows_tested)

    @property
    def passed(self) -> bool:
        return self.max_abs_z <= self.row_threshold

    def row(self, mask: int) -> MonomialRow:
        for r in self.rows:
            if r.mask == mask:
                return r
        raise KeyError(f"no monomial with mask {mask:#x}")


def _z_score(delta: float, se: float) -> float:
    return float(abs(delta)) / max(float(se), Z_SE_FLOOR)


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
    exact radial reduction (:func:`rhs_exact_coefficients`).  Coefficients
    absent from both sides are identically zero and not listed; the
    constant monomial must match exactly.
    """
    if n_colour < 1 or n_flavour < 1:
        raise DomainError("need N >= 1 and n >= 1")
    # the flavour side rejects n >= 3, and the colour side's monomial table
    # N*n > 8, before anything is sampled
    rhs = {m: (v, 0.0) for m, v in rhs_exact_coefficients(n_colour, n_flavour).items()}
    lhs = lhs_coefficient_means(
        n_colour, n_flavour, samples, rng, group="O", workers=workers
    )

    rows = []
    for mask in sorted(set(lhs) | set(rhs)):
        lv, ls = lhs.get(mask, (0.0, 0.0))
        rv, rs = rhs.get(mask, (0.0, 0.0))
        z = _z_score(abs(lv - rv), float(np.hypot(ls, rs)))
        rows.append(
            MonomialRow(mask, mask_label(mask, n_colour, n_flavour), lv, ls, rv, rs, z)
        )
    report = VerificationReport(
        "fermionic", n_colour, n_flavour, samples, threshold, rows
    )
    if n_flavour == 2:
        report.extras["normalization_ratio"] = normalization_audit(n_colour)["ratio"]
    return report


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
    ``workers`` substreams after them.  N is capped at ``MAX_BOSONIC_N``.
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
        o = sample_orthogonal_batch(n_colour, b, o_gen)
        return np.exp(np.einsum("bij,pij->bp", o, mats))

    def flavour(z_gen, b):
        z = sample_bosonic_z(measure, z_gen, b)
        zdag = np.conj(np.transpose(z, (0, 2, 1)))
        return np.exp(
            0.5
            * (np.einsum("bxy,pxy->bp", z, sbar) + np.einsum("bxy,pxy->bp", zdag, s))
        )

    lhs, lhs_se = stream_mean(colour, samples, rng.substream(1), workers)
    rhs, rhs_se = stream_mean(flavour, samples, rng.substream(1 + workers), workers)

    rows = []
    for p in range(probes):
        ls, rs = float(lhs_se[p]), float(rhs_se[p])
        z = _z_score(abs(lhs[p] - rhs[p]), float(np.hypot(ls, rs)))
        rows.append(
            MonomialRow(p, f"probe{p + 1}", complex(lhs[p]), ls, complex(rhs[p]), rs, z)
        )
    report = VerificationReport(
        "bosonic", n_colour, n_flavour, samples, threshold, rows
    )
    report.extras["probes"] = probes
    return report


# -- SO(N) variant -----------------------------------------------------------


def _det_m0_terms(n_colour: int, pairs, table) -> dict[int, int]:
    """Monomial coefficients of det(M_0), M_0[i, j] = sum_a psibar_i^a psi_j^a.

    A table row carries det(M_0) only if its row sets S_a and its column sets
    T_a each partition 0..N-1.  Its Leibniz terms are the prod_a |S_a|!
    permutations pi with pi(S_a) = T_a, each the row's monomial times
    sign * sgn(pi_0), where pi_0 maps each sorted S_a onto the sorted T_a.
    """
    full = list(range(n_colour))
    out = {}
    for mask, sign, choice in table:
        rows = [i for p in choice for i in pairs[p][0]]
        cols = [j for p in choice for j in pairs[p][1]]
        if sorted(rows) == full == sorted(cols):
            # pi_0 sends rows[x] to cols[x]: sgn(pi_0) = sgn(rows) * sgn(cols)
            flips = sum(x > y for seq in (rows, cols) for x, y in combinations(seq, 2))
            count = math.prod(math.factorial(len(pairs[p][0])) for p in choice)
            out[mask] = (-1) ** flips * sign * count
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
    if n_colour < 1 or n_flavour < 1:
        raise DomainError("need N >= 1 and n >= 1")
    if n_flavour > 2:
        raise ConfigError("exact flavour-side reduction implemented for n <= 2")
    pairs, table = _lhs_structure(n_colour, n_flavour)
    kappa = float(n_colour + 1) if n_flavour == 2 else 1.0
    b_coeffs = {
        m: kappa * c for m, c in _det_m0_terms(n_colour, pairs, table).items()
    }
    lhs = lhs_coefficient_means(
        n_colour, n_flavour, samples, rng, group="SO", workers=workers
    )
    a_coeffs = rhs_exact_coefficients(n_colour, n_flavour)

    masks = sorted(set(lhs) | set(a_coeffs) | set(b_coeffs))
    num = den = 0.0
    for mask in masks:
        lv, ls = lhs.get(mask, (0.0, 0.0))
        av = a_coeffs.get(mask, 0.0)
        bv = b_coeffs.get(mask, 0.0)
        if bv == 0.0:
            continue
        w = 1.0 / max(ls, Z_SE_FLOOR) ** 2
        num += w * bv * (lv - av)
        den += w * bv * bv
    if den == 0.0:
        raise ConfigError("no monomial carries the det correction; cannot fit K")
    k_fit = num / den

    rows = []
    for mask in masks:
        lv, ls = lhs.get(mask, (0.0, 0.0))
        av = a_coeffs.get(mask, 0.0)
        bv = b_coeffs.get(mask, 0.0)
        rv = av + k_fit * bv
        z = _z_score(abs(lv - rv), ls)
        rows.append(
            MonomialRow(
                mask, mask_label(mask, n_colour, n_flavour), lv, ls, rv, 0.0, z
            )
        )
    report = VerificationReport(
        "son", n_colour, n_flavour, samples, threshold, rows
    )
    report.extras["fitted_k"] = k_fit
    report.extras["kappa"] = kappa
    return report
