import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from grassmann_oracles import coefficient, lhs_integrand
from ocft import cft, haar, linalg
from ocft.cft import (
    BosonicMeasure, VerificationReport, _det_m0_terms,
    _lhs_structure, _minor_dets, _minor_pairs,
    c0_fermionic_closed_form, c0_fermionic_selfconsistent, lhs_coefficient_means,
    normalization_audit, rhs_exact_coefficients, sample_bosonic_z,
    sidak_row_bound, verify_bosonic_cft, verify_fermionic_cft, verify_son_cft,
)
from ocft.errors import ConfigError, DomainError
from ocft.grassmann import Multivector, gmul, psi_index, psibar_index, universe_size
from ocft.haar import RngStream, _as_generator, _batch_rows, stream_mean
from haar_oracles import (
    PUBLIC_SAMPLERS, sample_orthogonal_batch, sample_special_orthogonal_batch,
)


def sample_fermionic_z(n_colour, n_flavour, rng, count=1):
    """Draw Z from the fermionic flavour measure, n <= 2.

    The measure is det^{-(N/2+n-1)}(1 + Z Z^dagger) on complex skew n x n
    matrices.  n = 1 is the zero matrix; n = 2 samples the single complex
    entry exactly through the radial inverse CDF of (1+r)^{-(N+2)}.
    """
    gen = _as_generator(rng)
    if n_flavour == 1:
        return np.zeros((count, 1, 1), dtype=complex)
    if n_flavour != 2:
        raise ConfigError("fermionic flavour sampling implemented for n <= 2")
    u = gen.random(count)
    r = (1.0 - u) ** (-1.0 / (n_colour + 1.0)) - 1.0
    theta = gen.random(count) * 2.0 * np.pi
    a = np.sqrt(r) * np.exp(1j * theta)
    z = np.zeros((count, 2, 2), dtype=complex)
    z[:, 0, 1] = a
    z[:, 1, 0] = -a
    return z


def rhs_structure(n_colour):
    """Monomial table of the two-flavour Z-side expansion.

    Each monomial is a choice of colour subsets U (bar pairs) and V (unbar
    pairs), including |U| != |V|; the integrand coefficient is
    sign * a^{|U|} (-conj(a))^{|V|} with a the single flavour parameter.
    Rows are (mask, sign, |U|, |V|), the signs from the exact exterior
    algebra, one product per pair.
    """
    ngen = universe_size(n_colour, 2)
    table = []
    colours = range(n_colour)
    for usize in range(n_colour + 1):
        for u in itertools.combinations(colours, usize):
            for vsize in range(n_colour + 1):
                for v in itertools.combinations(colours, vsize):
                    mv = Multivector.scalar(ngen)
                    for i in u:
                        pair = gmul(
                            Multivector.generator(ngen, psibar_index(i, 0, n_colour)),
                            Multivector.generator(ngen, psibar_index(i, 1, n_colour)),
                        )
                        mv = gmul(mv, pair)
                    for i in v:
                        pair = gmul(
                            Multivector.generator(ngen, psi_index(i, 0, n_colour, 2)),
                            Multivector.generator(ngen, psi_index(i, 1, n_colour, 2)),
                        )
                        mv = gmul(mv, pair)
                    ((mask, coeff),) = mv.terms.items()
                    table.append((mask, int(round(coeff.real)), usize, vsize))
    return table


def rhs_mc_coefficients(n_colour, n_flavour, samples, rng):
    """Monte-Carlo estimate of the flavour-side coefficients, n <= 2.

    The sampling oracle for ``rhs_exact_coefficients``, as {mask: (mean,
    std_error)} over every (U, V) monomial; the top-coefficient estimator
    has infinite variance at N = 1 (the measure is too heavy-tailed there).
    """
    if n_flavour == 1:
        return {0: (1.0, 0.0)}
    if n_flavour != 2:
        raise ConfigError("flavour-side sampling implemented for n <= 2")
    table = rhs_structure(n_colour)
    signs, u, v = (np.array([row[col] for row in table]) for col in (1, 2, 3))

    def values(gen, b):
        a = sample_fermionic_z(n_colour, n_flavour, gen, b)[:, 0, 1, None]
        return signs * a**u * (-np.conj(a)) ** v

    mean, se = stream_mean(values, samples, rng, entries=len(table))
    return {row[0]: (complex(m), float(e)) for row, m, e in zip(table, mean, se)}


def scalar_z_scores(report):
    """A report's z-scores, tested-row count and largest |z|, one row at a
    time in Python scalars: the oracle of the array arithmetic of
    ``VerificationReport``."""
    columns = [c.tolist() for c in (report.lhs, report.lhs_se, report.rhs, report.rhs_se)]
    z = [abs(lv - rv) / max(float(np.hypot(ls, rs)), cft.Z_SE_FLOOR)
         for lv, ls, rv, rs in zip(*columns)]
    tested = sum(1 for _, ls, _, rs in zip(*columns) if math.hypot(ls, rs) > 0.0)
    return z, tested, max(z, default=0.0)


def table_dict(n_colour, n_flavour, values):
    """{mask: value} over the nonzero entries of an array over the table rows."""
    masks = _lhs_structure(n_colour, n_flavour)[2]
    return {mask: v for mask, v in zip(masks.tolist(), values.tolist()) if v}


def colour_coefficients(n_colour, n_flavour):
    """Map a (B, N, N) stack to the (B, rows) colour-side coefficients.

    Column t is sign_t * prod_a det(O[S_a, T_a]) over row t's flavour choices
    in the ``_lhs_structure`` table: the row-wise oracle for the per-batch
    Gram sums of ``lhs_coefficient_means``.
    """
    choices, signs, _, _ = _lhs_structure(n_colour, n_flavour)
    return lambda mats: signs * np.prod(_minor_dets(mats)[:, choices], axis=2)


def c_layout_lhs_means(n_colour, n_flavour, samples, rng, group, workers):
    """``lhs_coefficient_means`` through the C-layout samplers: the minors of
    a whole batch, then one Khatri-Rao product and one Gram product per
    batch.  Where every batch is one tile, the tiled route keeps its bits."""
    _, signs, _, _ = _lhs_structure(n_colour, n_flavour)
    sampler = PUBLIC_SAMPLERS[group]

    def sums(gen, b):
        minors = _minor_dets(sampler(n_colour, b, gen))
        k = np.ones((b, 1))
        for _ in range(n_flavour - 1):
            k = (k[:, :, None] * minors[:, None, :]).reshape(b, -1)
        return signs * (k.T @ minors).ravel(), ((k * k).T @ (minors * minors)).ravel()

    mean, se = stream_mean(sums, samples, rng, workers,
                           entries=khatri_rao_width(n_colour, n_flavour))
    return np.stack([mean, se], axis=1)


def khatri_rao_width(n_colour, n_flavour):
    """P^max(1, n - 1) entries per colour-side row, P = C(2N, N) minor pairs."""
    return math.comb(2 * n_colour, n_colour) ** max(1, n_flavour - 1)


def c_layout_bosonic_colour(n_colour, n_flavour, probes, samples, rng, workers):
    """The bosonic colour side's means and standard errors through the
    C-layout O(N) sampler, one ``einsum`` per batch."""
    gen = rng.generator()
    probe_list = [cft._probe_pair(gen, n_colour, n_flavour) for _ in range(probes)]
    mats = np.stack([np.einsum("ia,ja->ij", phibar, phi) for phi, phibar in probe_list])

    def colour(o_gen, b):
        return np.exp(np.einsum("bij,pij->bp", sample_orthogonal_batch(n_colour, b, o_gen), mats))

    return stream_mean(colour, samples, rng.substream(1), workers,
                       entries=max(n_colour**2, probes))


# every (N, n) the fermionic and SO(N) colour sides accept: N n <= 8, n <= 2
REACHABLE_TABLES = [(n_colour, n_flavour) for n_flavour in (1, 2)
                    for n_colour in range(1, 8 // n_flavour + 1)]


def reflection_split_check(n_colour, n_flavour, samples, rng):
    """Check E_{O(N)} = (E_{SO(N)} + E_{R SO(N)})/2 coefficient-wise.

    R = diag(1, ..., 1, -1); reflected draws are SO(N) samples with the
    last row negated.  Exercises the decomposition of the full group into
    its two components.  SO(N) draws come from substream 1, O(N) draws
    from substream 2.
    """
    _, _, masks, labels = _lhs_structure(n_colour, n_flavour)
    width = len(masks)
    coefficients = colour_coefficients(n_colour, n_flavour)

    def components(gen, b):
        so = sample_special_orthogonal_batch(n_colour, b, gen)
        refl = so.copy()
        refl[:, -1, :] *= -1.0
        return np.concatenate([coefficients(so), coefficients(refl)], axis=1)

    def full_group(gen, b):
        return coefficients(sample_orthogonal_batch(n_colour, b, gen))

    split, split_se = stream_mean(components, samples, rng.substream(1), entries=2 * width)
    full, full_se = stream_mean(full_group, samples, rng.substream(2), entries=width)
    half = 0.5 * (split[:width] + split[width:])
    half_se = 0.5 * np.hypot(split_se[:width], split_se[width:])
    return VerificationReport(
        "reflection-split", n_colour, n_flavour, samples, cft.DEFAULT_THRESHOLD, masks,
        labels, full, full_se, half, half_se,
    )


def mask_for(pair_choice, n_colour, n_flavour, pairs):
    """A row's mask set one generator bit at a time."""
    mask = 0
    for a, p in enumerate(pair_choice):
        s, t = pairs[p]
        for i in s:
            mask |= 1 << psibar_index(i, a, n_colour)
        for i in t:
            mask |= 1 << psi_index(i, a, n_colour, n_flavour)
    return mask


def mask_label(mask, n_colour, n_flavour):
    """A mask's name decoded one bit at a time: b<i><a> for psibar, p<i><a>
    for psi, in generator order, or "1" for the empty monomial."""
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


def rebuilt_lhs_table(n_colour, n_flavour):
    """The monomial table row by row, each mask set and decoded bit by bit:
    the oracle for the fragment-built arrays of ``_lhs_structure``.  Rows are
    (mask, sign, choice, label) in ``itertools.product`` order."""
    pairs = _minor_pairs(n_colour)
    table = []
    for choice in itertools.product(range(len(pairs)), repeat=n_flavour):
        k = sum(len(pairs[p][0]) for p in choice)
        sign = -1 if k * (k - 1) // 2 % 2 else 1
        mask = mask_for(choice, n_colour, n_flavour, pairs)
        table.append((mask, sign, choice, mask_label(mask, n_colour, n_flavour)))
    return table


def per_pair_minor_dets(o_batch, pairs):
    """The minors one (S, T) pair and one determinant call at a time, and
    each minor's Hadamard bound, the product of the row norms of O[S, T]."""
    out = np.ones((o_batch.shape[0], len(pairs)))
    bound = np.ones_like(out)
    for idx, (s, t) in enumerate(pairs):
        if s:
            sub = o_batch[:, np.ix_(s, t)[0], np.ix_(s, t)[1]]
            out[:, idx] = np.linalg.det(sub)
            bound[:, idx] = np.prod(np.linalg.norm(sub, axis=2), axis=1)
    return out, bound


def first_row_minor_dets(o_batch):
    """(B, P) minors in ``_minor_pairs`` order by cft's former recursion: each
    size-k minor expanded along its first row s_0 on the row-major entries
    s_0 * N + t_j, from the size-(k - 1) minors, one new array per term.  The
    bit oracle of the shared Laplace engine."""
    b, n_colour = o_batch.shape[:2]
    pairs = _minor_pairs(n_colour)
    position = {pair: p for p, pair in enumerate(pairs)}
    entries = np.ascontiguousarray(o_batch.reshape(b, -1).T)
    minors = np.empty((len(pairs), b))
    minors[0] = 1.0
    for k in range(1, n_colour + 1):
        sized = [(s, t) for s, t in pairs if len(s) == k]
        start = position[sized[0]]
        block = minors[start:start + len(sized)]
        for j in range(k):
            term = (entries[[s[0] * n_colour + t[j] for s, t in sized]]
                    * minors[[position[s[1:], t[:j] + t[j + 1:]] for s, t in sized]])
            if not j:
                block[:] = term
            elif j % 2:
                block -= term
            else:
                block += term
    return minors.T


def signed_permutations(n_colour, count, seed):
    """(count, N, N) random signed permutation matrices."""
    gen = np.random.default_rng(seed)
    eye = np.eye(n_colour)
    return np.stack([eye[gen.permutation(n_colour)] * gen.choice([-1.0, 1.0], n_colour)
                     for _ in range(count)])


def leibniz_det_m0(n_colour, n_flavour):
    """det(M_0), M_0[i, j] = sum_a psibar_i^a psi_j^a, as a Leibniz sum in the algebra."""
    ngen = universe_size(n_colour, n_flavour)

    def entry(i, j):
        out = Multivector(ngen)
        for a in range(n_flavour):
            out = out + gmul(
                Multivector.generator(ngen, psibar_index(i, a, n_colour)),
                Multivector.generator(ngen, psi_index(j, a, n_colour, n_flavour)),
            )
        return out

    det = Multivector(ngen)
    for perm in itertools.permutations(range(n_colour)):
        inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
        term = Multivector.scalar(ngen, (-1.0) ** inversions)
        for i, j in enumerate(perm):
            term = gmul(term, entry(i, j))
        det = det + term
    return det.terms


def rejection_bosonic_z(n_colour, rng, count):
    """Two-flavour bosonic draws by rejection, for N >= 6.

    The three entries of the symmetric Z are proposed uniformly on the unit
    disc and accepted with probability det^{N/2-3}(1 - Z Z^dagger), a valid
    thinning because the exponent is non-negative.  Kept as the oracle for
    the COE-block sampler.
    """
    assert n_colour >= 6
    gen = rng.generator()
    iu = np.triu_indices(2)
    kept, got = [], 0
    while got < count:
        m = max(4 * (count - got), 256)
        r = np.sqrt(gen.random((m, 3)))
        theta = gen.random((m, 3)) * 2.0 * np.pi
        entries = r * np.exp(1j * theta)
        z = np.zeros((m, 2, 2), dtype=complex)
        z[:, iu[0], iu[1]] = entries
        z[:, iu[1], iu[0]] = entries
        sv = np.linalg.svd(z, compute_uv=False)
        inside = sv[:, 0] < 1.0
        accept = np.zeros(m, dtype=bool)
        dens = np.prod(1.0 - sv[inside] ** 2, axis=1) ** (n_colour / 2.0 - 3.0)
        accept[inside] = gen.random(inside.sum()) < dens
        kept.append(z[accept])
        got += int(accept.sum())
    return np.concatenate(kept)[:count]


def bosonic_statistics(z):
    """Per-draw tr ZZ^dagger, its square, |det Z|^2, top sv, bottom sv^2."""
    sv = np.linalg.svd(z, compute_uv=False)
    trace = (sv**2).sum(axis=1)
    det_sq = np.prod(sv**2, axis=1)
    return np.stack([trace, trace**2, det_sq, sv[:, 0], sv[:, -1] ** 2], axis=1)


class TestConstants:
    def test_fermionic_closed_form_single_flavour(self):
        for n_colour in (1, 3, 7):
            assert c0_fermionic_closed_form(n_colour, 1) == pytest.approx(1.0)

    def test_fermionic_closed_form_two_flavours(self):
        assert c0_fermionic_closed_form(4, 2) == pytest.approx(5.0 / math.pi, rel=1e-12)
        assert c0_fermionic_closed_form(2, 2) == pytest.approx(3.0 / math.pi, rel=1e-12)

    def test_fermionic_selfconsistent(self):
        # flat-measure mass for n=2 is pi/(N+1): the constant is (N+1)/pi
        assert c0_fermionic_selfconsistent(1, 1) == 1.0
        for n_colour in (2, 4, 6):
            assert c0_fermionic_selfconsistent(n_colour, 2) == pytest.approx(
                (n_colour + 1) / math.pi, rel=1e-12
            )

    def test_normalization_audit_ratio_is_one(self):
        for n_colour in (2, 4, 6):
            audit = normalization_audit(n_colour)
            assert audit["ratio"] == pytest.approx(1.0, rel=1e-14)


class TestFermionicSampler:
    def test_single_flavour_is_zero_matrix(self):
        z = sample_fermionic_z(3, 1, RngStream(1), 10)
        assert z.shape == (10, 1, 1) and np.all(z == 0)

    def test_three_flavours_rejected(self):
        with pytest.raises(ConfigError):
            sample_fermionic_z(4, 3, RngStream(5), 10)

    def test_rejects_unsupported_rng(self):
        with pytest.raises(ConfigError):
            sample_fermionic_z(2, 2, "x", 3)

    def test_two_flavour_radial_moment(self):
        n_colour = 4
        z = sample_fermionic_z(n_colour, 2, RngStream(3), 400_000)
        np.testing.assert_array_equal(z[:, 0, 1], -z[:, 1, 0])
        r = np.abs(z[:, 0, 1]) ** 2
        # quadrature oracle for E[r / (1 + r)]
        dens = lambda r_: (1 + r_) ** (-(n_colour + 2.0))
        num, _ = integrate.quad(lambda r_: r_ / (1 + r_) * dens(r_), 0, np.inf)
        den, _ = integrate.quad(dens, 0, np.inf)
        vals = r / (1 + r)
        se = vals.std() / np.sqrt(vals.size)
        assert abs(vals.mean() - num / den) <= 3 * se

    def test_radial_moment_closed_form(self):
        # E[r^u] = 1 / binom(N, u) under the n=2 measure
        n_colour = 5
        z = sample_fermionic_z(n_colour, 2, RngStream(4), 400_000)
        r = np.abs(z[:, 0, 1]) ** 2
        se = r.std() / np.sqrt(r.size)
        assert abs(r.mean() - 1.0 / n_colour) <= 3 * se


class TestBosonicSampler:
    def test_stays_in_unit_disc(self):
        z = sample_bosonic_z(BosonicMeasure(4, 1), RngStream(7), 5000)
        assert np.abs(z).max() < 1.0

    @pytest.mark.parametrize("n_colour", [4, 6])
    def test_radial_moment(self, n_colour):
        z = sample_bosonic_z(BosonicMeasure(n_colour, 1), RngStream(8), 300_000)
        r = np.abs(z[:, 0, 0]) ** 2
        expo = n_colour / 2.0 - 2.0
        num, _ = integrate.quad(lambda r_: r_ * (1 - r_) ** expo, 0, 1)
        den, _ = integrate.quad(lambda r_: (1 - r_) ** expo, 0, 1)
        se = r.std() / np.sqrt(r.size)
        assert abs(r.mean() - num / den) <= 3 * se

    @pytest.mark.parametrize("n_colour", [5, 6])
    def test_two_flavour_draws_are_symmetric_contractions(self, n_colour):
        # N = 5 = 2n + 1 has density exponent -1/2
        z = sample_bosonic_z(BosonicMeasure(n_colour, 2), RngStream(9), 500)
        assert z.shape == (500, 2, 2)
        np.testing.assert_allclose(z, np.transpose(z, (0, 2, 1)), atol=1e-15)
        sv = np.linalg.svd(z, compute_uv=False)
        assert sv.max() < 1.0

    @pytest.mark.parametrize(
        "n_colour, n_flavour", [(4, 1), (5, 2), (6, 2), (7, 3), (14, 4)]
    )
    def test_mean_trace_is_exact(self, n_colour, n_flavour):
        # E tr Z Z^dagger = n(n+1)/N for the n x n block of COE(N - 1)
        measure = BosonicMeasure(n_colour, n_flavour)
        z = sample_bosonic_z(measure, RngStream(11), 100_000)
        trace = np.einsum("bij,bij->b", z, np.conj(z)).real
        se = trace.std(ddof=1) / np.sqrt(trace.size)
        exact = n_flavour * (n_flavour + 1) / n_colour
        assert abs(trace.mean() - exact) <= 4 * se

    def test_two_flavour_statistics_match_rejection_oracle(self):
        draws = 100_000
        coe = bosonic_statistics(
            sample_bosonic_z(BosonicMeasure(6, 2), RngStream(12), draws)
        )
        ref = bosonic_statistics(rejection_bosonic_z(6, RngStream(13), draws))
        se = np.hypot(coe.std(axis=0, ddof=1), ref.std(axis=0, ddof=1))
        z = (coe.mean(axis=0) - ref.mean(axis=0)) / (se / np.sqrt(draws))
        assert np.abs(z).max() <= 4.0

    def test_integrability_bound(self):
        with pytest.raises(DomainError):
            BosonicMeasure(2, 1)

    @pytest.mark.parametrize("shape", [(3, 0), (5, -1), (0, 1)])
    def test_rejects_empty_sizes(self, shape):
        with pytest.raises(DomainError, match="need N >= 1 and n >= 1"):
            BosonicMeasure(*shape)


class TestColourSideStructure:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)])
    def test_minor_table_matches_exterior_algebra(self, shape):
        n_colour, n_flavour = shape
        rng = np.random.default_rng(11)
        o = rng.standard_normal((n_colour, n_colour))
        choices, signs, masks, _ = _lhs_structure(n_colour, n_flavour)
        minors = _minor_dets(o[None])[0]
        exact = lhs_integrand(o, n_colour, n_flavour)
        for mask, sign, choice in zip(masks.tolist(), signs, choices):
            pred = sign * np.prod(minors[choice])
            assert pred == pytest.approx(
                coefficient(exact, mask).real, abs=1e-12
            )
        assert set(exact.terms) <= set(masks.tolist())

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (8, 1)])
    def test_monomial_table_is_built_once(self, shape):
        structure = _lhs_structure(*shape)
        assert _lhs_structure(*shape) is structure
        _, _, masks, labels = structure
        assert masks.dtype == np.int64 and isinstance(labels, tuple)

    @pytest.mark.parametrize(
        "shape",
        [(n_colour, n_flavour) for n_colour in range(1, 9) for n_flavour in range(1, 9)
         if n_colour * n_flavour <= 8],
    )
    def test_fragment_table_matches_bitwise_oracle(self, shape):
        choices, signs, masks, labels = _lhs_structure(*shape)
        want = rebuilt_lhs_table(*shape)
        assert masks.tolist() == [mask for mask, _, _, _ in want]
        assert signs.tolist() == [sign for _, sign, _, _ in want]
        assert [tuple(c) for c in choices.tolist()] == [choice for _, _, choice, _ in want]
        assert list(labels) == [label for _, _, _, label in want]
        assert len(set(masks.tolist())) == len(masks)

    @pytest.mark.parametrize("shape", [(2, 2), (8, 1)])
    def test_shared_tables_are_read_only(self, shape):
        for array in _lhs_structure(*shape)[:3]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        n_colour = shape[0]
        rows = tuple(s for k in range(1, n_colour + 1)
                     for s in itertools.combinations(range(n_colour), k))
        _, steps = linalg._laplace_tables(n_colour, rows)
        for _, entries, smaller in steps:
            for array in (entries, smaller):
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0] = 0

    def test_balanced_grades_only(self):
        n_colour, n_flavour = 2, 2
        nn = n_colour * n_flavour
        _, _, masks, _ = _lhs_structure(n_colour, n_flavour)
        for mask in masks.tolist():
            bar = (mask & ((1 << nn) - 1)).bit_count()
            unbar = (mask >> nn).bit_count()
            assert bar == unbar

    @pytest.mark.parametrize("n_colour", [1, 2, 3, 4, 8])
    def test_batched_minors_match_per_pair_loop(self, n_colour):
        # Laplace recursion against LAPACK: both are backward stable, so they
        # agree to rounding relative to each minor's Hadamard bound (a minor
        # near 0 has no elementwise relative accuracy in either route)
        o = np.random.default_rng(n_colour).standard_normal((6, n_colour, n_colour))
        want, bound = per_pair_minor_dets(o, _minor_pairs(n_colour))
        assert np.all(np.abs(_minor_dets(o) - want) <= 1e-13 * bound)

    @pytest.mark.parametrize("n_colour", range(1, 9))
    def test_minors_keep_the_first_row_recursion_bits(self, n_colour):
        o = sample_orthogonal_batch(n_colour, 50, RngStream(60 + n_colour))
        # C order, and the column layout of the Haar tiles, a strided view
        strided = np.ascontiguousarray(o.transpose(2, 1, 0)).transpose(2, 1, 0)
        want = first_row_minor_dets(o)
        for batch in (o, strided):
            np.testing.assert_array_equal(_minor_dets(batch), want)

    @pytest.mark.parametrize("n_colour", range(1, 9))
    def test_recursive_minors_of_signed_permutations_are_exact(self, n_colour):
        # every minor of a signed permutation matrix is 0 or +-1
        o = signed_permutations(n_colour, 5, n_colour)
        want, _ = per_pair_minor_dets(o, _minor_pairs(n_colour))
        assert set(np.unique(want)) <= {-1.0, 0.0, 1.0}
        np.testing.assert_array_equal(_minor_dets(o), want)

    @pytest.mark.parametrize("group", ["O", "SO"])
    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3)])
    def test_gram_sums_match_row_oracle(self, shape, group, monkeypatch):
        n_colour, n_flavour = shape
        _, _, masks, _ = _lhs_structure(n_colour, n_flavour)
        sampler = {"O": sample_orthogonal_batch, "SO": sample_special_orthogonal_batch}[group]
        coefficients = colour_coefficients(n_colour, n_flavour)
        rng = RngStream(40 + n_colour * n_flavour)
        got = lhs_coefficient_means(n_colour, n_flavour, 3_000, rng, group, workers=2)
        # the same draws in batches of 500 rows: the stream of normals does not
        # depend on the batching
        monkeypatch.setattr(haar, "BATCH_ENTRIES", 500)
        mean, se = stream_mean(lambda gen, b: coefficients(sampler(n_colour, b, gen)),
                               3_000, rng, workers=2, entries=1)
        assert got.shape == (len(masks), 2)
        np.testing.assert_allclose(got[:, 0], mean, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(got[:, 1], se, rtol=1e-13, atol=1e-13)

    def test_every_reachable_colour_batch_is_one_tile(self):
        # the per-tile Gram sums keep the bits of one Gram product per batch
        # only while this holds
        assert len(REACHABLE_TABLES) == 12
        for n_colour, n_flavour in REACHABLE_TABLES:
            rows = _batch_rows(khatri_rao_width(n_colour, n_flavour))
            assert linalg.tile_slices(rows, n_colour**2) == [slice(0, rows)]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("group", ["O", "SO"])
    @pytest.mark.parametrize("shape", REACHABLE_TABLES)
    def test_lhs_means_keep_the_c_layout_bits(self, shape, group, workers):
        # three batches per shard at one worker, the last of 3 rows
        samples = 2 * _batch_rows(khatri_rao_width(*shape)) + 3
        rng = RngStream(80 + shape[0] * shape[1])
        got = lhs_coefficient_means(*shape, samples, rng, group, workers)
        want = c_layout_lhs_means(*shape, samples, rng, group, workers)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(2, 2), (8, 1)])
    def test_lhs_means_have_one_row_per_monomial(self, shape):
        # perfbench's cft.lhs.monomials counts the rows as len(result)
        means = lhs_coefficient_means(*shape, 2, RngStream(0))
        assert len(means) == len(_lhs_structure(*shape)[0])

    @pytest.mark.parametrize("group", ["O", "SO"])
    def test_lhs_means_do_not_depend_on_the_row_cap(self, group, monkeypatch):
        args = (3, 2, 2_000, RngStream(35), group)
        default = lhs_coefficient_means(*args, workers=2)
        # a batch holds haar.BATCH_ENTRIES entries of the (rows, P^(n-1))
        # Khatri-Rao factor, here P = 20 minors wide
        width = len(_minor_pairs(3))
        assert _batch_rows(width) == 13_107
        monkeypatch.setattr(haar, "BATCH_ENTRIES", 7 * width)
        assert _batch_rows(width) == 7
        capped = lhs_coefficient_means(*args, workers=2)
        assert capped.shape == default.shape
        for (mean, se), (capped_mean, capped_se) in zip(default, capped):
            assert capped_mean == pytest.approx(mean, rel=1e-13, abs=1e-13)
            assert capped_se == pytest.approx(se, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("shape, rows", [((2, 2), 20_000), ((3, 2), 13_107),
                                             ((2, 3), 7_281), ((8, 1), 20)])
    def test_lhs_batches_are_sized_by_the_khatri_rao_width(self, shape, rows, monkeypatch):
        # P^max(1, n - 1) entries per row: P = 6, 20, 6 and 12,870 minors
        batches = []

        def spy(*args, entries, **kwargs):
            batches.append(_batch_rows(entries))
            return stream_mean(*args, entries=entries, **kwargs)

        monkeypatch.setattr(cft, "stream_mean", spy)
        lhs_coefficient_means(*shape, 2, RngStream(0))
        assert batches == [rows]

    def test_batch_rows_are_capped(self):
        assert _batch_rows(1) == haar.DEFAULT_BATCH
        assert _batch_rows(haar.BATCH_ENTRIES + 1) == 1

    def test_second_moment_of_minors(self):
        # E[det(O[S,T])^2] = 1/binom(N,k) over O(N)
        n_colour = 3
        means = lhs_coefficient_means(n_colour, 1, 200_000, RngStream(12))
        # the full-set pair, the last one, has deterministic minor det(O) = +-1
        assert _minor_pairs(n_colour)[-1] == ((0, 1, 2), (0, 1, 2))
        mean, se = means[-1]
        assert abs(mean) <= 3 * se  # the two components cancel


class TestFlavourSideCoefficients:
    def test_single_flavour_constant_only(self):
        rows = len(_lhs_structure(3, 1)[0])
        assert rhs_exact_coefficients(3, 1).tolist() == [1.0] + [0.0] * (rows - 1)

    @pytest.mark.parametrize("n_colour", [1, 2, 3, 4])
    def test_exact_matches_structure_oracle(self, n_colour):
        # the phase integral keeps |U| = |V|; the radial one gives (-1)^u / binom(N, u)
        want = {mask: sign * (-1.0) ** u / math.comb(n_colour, u)
                for mask, sign, u, v in rhs_structure(n_colour) if u == v}
        assert table_dict(n_colour, 2, rhs_exact_coefficients(n_colour, 2)) == want

    def test_exact_matches_sampling(self):
        exact = table_dict(2, 2, rhs_exact_coefficients(2, 2))
        sampled = rhs_mc_coefficients(2, 2, 300_000, RngStream(13))
        for mask, (mean, se) in sampled.items():
            target = exact.get(mask, 0.0)
            if se == 0.0:
                assert mean == pytest.approx(target, abs=1e-12)
            else:
                assert abs(mean - target) <= 4 * se

    def test_constant_term_is_one(self):
        assert rhs_exact_coefficients(4, 2)[0] == 1.0


class TestFermionicVerification:
    def test_small_configs_pass(self):
        for (n_colour, n_flavour) in [(1, 2), (2, 2)]:
            report = verify_fermionic_cft(
                n_colour, n_flavour, 150_000, RngStream(14)
            )
            assert report.passed, f"max|z| = {report.max_abs_z}"

    def test_constant_term_exact(self):
        report = verify_fermionic_cft(2, 2, 1000, RngStream(15))
        assert report.masks[0] == 0  # rows are sorted by mask
        assert report.lhs[0] == 1.0 and report.rhs[0] == 1.0 and report.z_scores[0] == 0.0

    def test_one_colour_one_flavour(self):
        report = verify_fermionic_cft(1, 1, 10_000, RngStream(16))
        assert report.passed
        # the only non-constant monomial compares E[O] over O(1) with 0
        (other,) = np.flatnonzero(report.masks != 0)
        assert report.rhs[other] == 0.0

    def test_size_cap(self):
        with pytest.raises(ConfigError):
            verify_fermionic_cft(3, 3, 100, RngStream(0))

    def test_audit_attached_for_two_flavours(self):
        report = verify_fermionic_cft(2, 2, 1000, RngStream(18))
        assert report.extras["normalization_ratio"] == pytest.approx(
            1.0, rel=1e-10
        )


def spy_on_batches(monkeypatch):
    """The rows per batch of each ``cft.stream_mean`` call, as a list that
    fills while the test runs."""
    batches = []

    def spy(*args, entries, **kwargs):
        batches.append(_batch_rows(entries))
        return stream_mean(*args, entries=entries, **kwargs)

    monkeypatch.setattr(cft, "stream_mean", spy)
    return batches


class TestBosonicVerification:
    def test_passes_at_four_colours(self):
        report = verify_bosonic_cft(4, 1, 5, 150_000, RngStream(19))
        assert report.passed, f"max|z| = {report.max_abs_z}"

    def test_passes_with_two_flavours(self):
        report = verify_bosonic_cft(6, 2, 4, 100_000, RngStream(27))
        assert report.passed, f"max|z| = {report.max_abs_z}"

    def test_worker_sharding_is_deterministic(self):
        a = verify_bosonic_cft(4, 1, 3, 40_000, RngStream(28), workers=2)
        b = verify_bosonic_cft(4, 1, 3, 40_000, RngStream(28), workers=2)
        np.testing.assert_array_equal(a.lhs, b.lhs)
        np.testing.assert_array_equal(a.rhs, b.rhs)

    def test_integrability_guard(self):
        with pytest.raises(DomainError):
            verify_bosonic_cft(2, 1, 5, 1000, RngStream(20))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_colour, n_flavour, probes, samples", [
        (4, 1, 4, 5_000), (4, 1, 100, 7_000), (8, 3, 4, 5_000), (64, 1, 4, 301),
    ])
    def test_colour_side_keeps_the_c_layout_bits(self, n_colour, n_flavour, probes, samples,
                                                  workers):
        # tiles hold 32,768 O(4) draws, 2,048 O(8) draws and 32 O(64) draws, so
        # a batch at N = 8 (4,096 rows) and 64 (64 rows) spans several tiles;
        # 100 probes take batches of 2,621 rows
        rng = RngStream(90 + n_colour)
        report = verify_bosonic_cft(n_colour, n_flavour, probes, samples, rng, workers=workers)
        mean, se = c_layout_bosonic_colour(n_colour, n_flavour, probes, samples, rng, workers)
        assert report.lhs.tobytes() == mean.tobytes()
        assert report.lhs_se.tobytes() == se.tobytes()

    def test_batches_are_sized_by_the_probe_count(self, monkeypatch):
        # each side's (rows, probes) values stay within haar.BATCH_ENTRIES; up
        # to 13 probes a batch keeps haar.DEFAULT_BATCH rows.  At N = 3, n = 1
        # a draw's 9 and 4 Gaussians are fewer than the probes
        batches = spy_on_batches(monkeypatch)
        for probes, rows in ((13, 20_000), (14, 18_724), (2_000, 131)):
            batches.clear()
            verify_bosonic_cft(3, 1, probes, 20, RngStream(29))
            assert batches == [rows, rows] == [_batch_rows(probes)] * 2

    @pytest.mark.parametrize("n_colour, n_flavour, probes, rows", [
        (4, 1, 4, (16_384, 20_000)), (6, 2, 4, (7_281, 13_107)), (8, 3, 4, (4_096, 6_241)),
        (64, 31, 1, (64, 67)), (64, 1, 5_000, (52, 52)),
    ])
    def test_batches_count_each_sides_draw_gaussians(self, monkeypatch, n_colour, n_flavour,
                                                     probes, rows):
        # N^2 Gaussians per O(N) draw and 2 (N - 1) n per flavour draw, unless
        # the probe values are more; by the probes alone a batch held 20,000
        # whole O(64) draws, 655 MB
        batches = spy_on_batches(monkeypatch)
        verify_bosonic_cft(n_colour, n_flavour, probes, 2, RngStream(30))
        assert tuple(batches) == rows

    def test_zero_probe_gives_unit_on_both_sides(self):
        # with phi = phibar = 0 both integrands are exp(0); the identity is
        # the group-volume normalisation itself
        rng = np.random.default_rng(26)
        o = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        z = 0.3 + 0.1j
        phi = np.zeros(4, dtype=complex)
        lhs = np.exp(phi @ o @ phi)
        rhs = np.exp(0.5 * (z * (phi @ phi) + np.conj(z) * (phi @ phi)))
        assert lhs == 1.0 and rhs == 1.0

    def test_probe_rotation_invariance_of_flavour_side(self):
        # the flavour side depends on probes only through sum phi_i^2 and
        # sum phibar_i^2, which are exactly invariant under phi -> U phi
        # with U real orthogonal
        rng = np.random.default_rng(21)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        assert (phi @ phi) == pytest.approx((u @ phi) @ (u @ phi), rel=1e-12)


class TestSonVerification:
    def test_so1_fit_is_exact(self):
        report = verify_son_cft(1, 1, 1000, RngStream(22))
        assert report.extras["fitted_k"] == pytest.approx(1.0, abs=1e-12)
        assert report.max_abs_z <= 1e-6

    def test_so2_single_flavour(self):
        report = verify_son_cft(2, 1, 150_000, RngStream(23))
        assert report.passed
        assert report.extras["fitted_k"] == pytest.approx(0.5, abs=1e-9)

    def test_so2_two_flavours(self):
        report = verify_son_cft(2, 2, 150_000, RngStream(24))
        assert report.passed
        # K carries over from the n = 1 fit of the same group
        assert report.extras["fitted_k"] == pytest.approx(1.0 / 6.0, rel=0.05)

    @pytest.mark.parametrize(
        "n_colour, n_flavour",
        [(n_colour, n_flavour) for n_colour in (1, 2, 3) for n_flavour in (1, 2, 3, 4)
         if n_colour * n_flavour <= 8],
    )
    def test_det_correction_matches_exterior_algebra(self, n_colour, n_flavour):
        exact = leibniz_det_m0(n_colour, n_flavour)
        terms = _det_m0_terms(n_colour, n_flavour)
        assert exact and {m: c.real for m, c in exact.items()} == table_dict(
            n_colour, n_flavour, terms
        )

    @pytest.mark.parametrize(
        "n_colour, n_flavour, samples, seed",
        [(4, 1, 100_000, 36), (4, 2, 10_000, 37), (5, 1, 20_000, 38), (8, 1, 250, 39)],
    )
    def test_passes_above_three_colours(self, n_colour, n_flavour, samples, seed):
        report = verify_son_cft(n_colour, n_flavour, samples, RngStream(seed))
        assert report.passed, f"max|z| = {report.max_abs_z}"
        kappa = report.extras["kappa"]
        assert report.extras["fitted_k"] == pytest.approx(
            1.0 / (kappa * math.factorial(n_colour)), rel=1e-12
        )

    @pytest.mark.parametrize("shape", [(9, 1), (5, 2)])
    def test_shares_the_fermionic_size_cap(self, shape, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the colour side was sampled")

        monkeypatch.setattr(cft, "lhs_coefficient_means", no_sampling)
        with pytest.raises(ConfigError, match="exceeds the cap of 8"):
            verify_son_cft(*shape, 100, RngStream(0))


class TestReflectionSplit:
    @pytest.mark.parametrize("shape", [(2, 1), (2, 2)])
    def test_full_group_is_mean_of_components(self, shape):
        report = reflection_split_check(*shape, 120_000, RngStream(25))
        assert report.passed, f"max|z| = {report.max_abs_z}"


class TestFamilyWiseVerdict:
    @pytest.mark.parametrize(
        "rows, bound", [(36, 4.78), (4900, 5.69), (12_870, 5.85)]
    )
    def test_sidak_bounds(self, rows, bound):
        assert sidak_row_bound(4.0, rows) == pytest.approx(bound, abs=5e-3)

    def test_single_row_keeps_threshold(self):
        assert sidak_row_bound(4.0, 1) == 4.0
        assert sidak_row_bound(4.0, 0) == 4.0

    def test_bound_grows_with_rows_and_threshold(self):
        bounds = [sidak_row_bound(4.0, m) for m in (2, 10, 100, 1000)]
        assert bounds == sorted(bounds) and bounds[0] > 4.0
        assert sidak_row_bound(3.0, 100) < sidak_row_bound(4.0, 100)

    def test_extreme_thresholds(self):
        assert sidak_row_bound(1e-6, 34) < 1.0  # still forces a failure
        assert sidak_row_bound(40.0, 100) == 40.0  # tail underflows
        assert sidak_row_bound(-1.0, 100) == -1.0

    def test_rows_without_error_are_not_counted(self):
        report = VerificationReport(
            "fermionic", 2, 2, 100, 4.0, np.arange(3), ("1", "a", "b"),
            lhs=np.array([1.0, 0.1, 0.25]), lhs_se=np.array([0.0, 0.01, 0.0]),
            rhs=np.array([1.0, 0.1, 31 / 256]), rhs_se=np.array([0.0, 0.0, 1 / 32]),
        )
        assert report.rows_tested == 2
        assert report.row_threshold == pytest.approx(sidak_row_bound(4.0, 2))
        assert report.z_scores.tolist() == [0.0, 0.0, 4.125]
        assert report.max_abs_z == 4.125 and report.passed  # over 4.0, under 4.16

    @pytest.mark.parametrize("verify, args", [
        (verify_fermionic_cft, (3, 2, 2_000)),
        (verify_son_cft, (3, 2, 2_000)),
        (verify_bosonic_cft, (4, 1, 10, 20_000)),
    ], ids=["fermionic", "son", "bosonic"])
    def test_array_z_scores_match_scalar_oracle(self, verify, args):
        # bit for bit: the CLI prints these numbers
        report = verify(*args, RngStream(44))
        z, tested, largest = scalar_z_scores(report)
        assert report.z_scores.tolist() == z
        assert report.rows_tested == tested
        assert report.max_abs_z == largest


class TestEstimatorContracts:
    def test_lhs_rejects_unknown_group(self):
        with pytest.raises(ConfigError):
            lhs_coefficient_means(2, 1, 100, RngStream(0), group="U")

    def test_reflection_split_error_is_bessel_corrected(self):
        # (N, n) = (1, 1): the O(1) side of the O_11 monomial is the draw itself
        samples = 30
        report = reflection_split_check(1, 1, samples, RngStream(34))
        o = RngStream(34).substream(2).generator().standard_normal(samples)
        signs = np.sign(o)
        (row,) = np.flatnonzero(report.masks != 0)
        assert report.lhs[row] == pytest.approx(signs.mean(), abs=1e-15)
        assert report.lhs_se[row] == pytest.approx(
            np.std(signs, ddof=1) / np.sqrt(samples), rel=1e-12
        )
