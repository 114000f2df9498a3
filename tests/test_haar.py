import io
import json
import sys
import threading

import numpy as np
import pytest

from ocft import haar, linalg
from ocft.cli import run
from ocft.errors import ConfigError, DimensionError
from ocft.haar import (
    DRAW_AHEAD_MIN_VALUES,
    Estimate,
    RngStream,
    _orthonormal_columns,
    mc_expectation,
    sample_unitary_columns,
    stream_mean,
)
from haar_oracles import (
    PUBLIC_SAMPLERS,
    public_route_expectation,
    sample_orthogonal_batch,
    sample_special_orthogonal_batch,
)


def sample_orthogonal(n: int, rng) -> np.ndarray:
    """One Haar draw from O(n).

    Pass a ``numpy.random.Generator`` (e.g. ``stream.generator()``) to draw a
    sequence; an :class:`RngStream` always reproduces the same first draw.
    """
    return sample_orthogonal_batch(n, 1, rng)[0]


def sample_special_orthogonal(n: int, rng) -> np.ndarray:
    """One Haar draw from SO(n)."""
    return sample_special_orthogonal_batch(n, 1, rng)[0]


class TestSamplers:
    def test_orthogonality(self):
        gen = RngStream(1).generator()
        for n in (1, 2, 3, 5):
            o = sample_orthogonal(n, gen)
            np.testing.assert_allclose(o @ o.T, np.eye(n), atol=1e-12)

    def test_o1_is_plus_minus_one_balanced(self):
        o = sample_orthogonal_batch(1, 100_000, RngStream(2))[:, 0, 0]
        assert set(np.round(o)) == {-1.0, 1.0}
        # P(+1) = 1/2; 3 sigma of the mean is 3/(2 sqrt(S))
        assert abs(o.mean()) <= 3.0 / np.sqrt(o.size)

    def test_special_orthogonal_determinant(self):
        o = sample_special_orthogonal_batch(3, 2000, RngStream(3))
        np.testing.assert_allclose(np.linalg.det(o), 1.0, atol=1e-10)

    def test_so1_always_plus_one(self):
        o = sample_special_orthogonal_batch(1, 100, RngStream(4))
        np.testing.assert_allclose(o, 1.0)

    def test_so2_rotation_angle_symmetry(self):
        o = sample_special_orthogonal_batch(2, 200_000, RngStream(5))
        entry = o[:, 0, 0]
        se = entry.std() / np.sqrt(entry.size)
        assert abs(entry.mean()) <= 3 * se

    @pytest.mark.parametrize("n", range(1, 7))
    def test_special_orthogonal_sign_matches_lapack(self, n):
        # the SO(n) reflection rule, applied with LAPACK's det to the same O(n) draws
        for seed in range(10):
            o = sample_orthogonal_batch(n, 2000, RngStream(seed))
            o[np.linalg.det(o) < 0, -1, :] *= -1.0
            so = sample_special_orthogonal_batch(n, 2000, RngStream(seed))
            np.testing.assert_array_equal(so, o)

    def test_determinants_are_signs(self):
        o = sample_orthogonal_batch(4, 2000, RngStream(6))
        dets = np.linalg.det(o)
        np.testing.assert_allclose(np.abs(dets), 1.0, atol=1e-10)
        assert (dets > 0).any() and (dets < 0).any()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_first_moments_vanish(self, n):
        gen = RngStream({2: 32, 3: 33, 4: 35}[n]).generator()
        total = np.zeros((n, n))
        total_sq = np.zeros((n, n))
        samples = 1_000_000
        done = 0
        while done < samples:
            b = min(50_000, samples - done)
            o = sample_orthogonal_batch(n, b, gen)
            total += o.sum(axis=0)
            total_sq += (o**2).sum(axis=0)
            done += b
        mean = total / samples
        se = np.sqrt(np.maximum(total_sq / samples - mean**2, 0) / samples)
        assert (np.abs(mean) <= 3 * se).all()

    @pytest.mark.parametrize("m, n", [(1, 1), (4, 4), (7, 3)])
    def test_unitary_columns_are_orthonormal(self, m, n):
        q = sample_unitary_columns(m, n, 200, RngStream(8))
        assert q.shape == (200, m, n)
        gram = np.conj(np.transpose(q, (0, 2, 1))) @ q
        np.testing.assert_allclose(gram - np.eye(n), 0.0, atol=1e-12)

    def test_unitary_entry_moments(self):
        # Haar U(m): E u_11 = 0, which needs the phase fix, and E|u_11|^2 = 1/m
        m = 5
        u = sample_unitary_columns(m, 2, 200_000, RngStream(9))[:, 0, 0]
        assert abs(u.mean()) <= 4 * np.abs(u).std(ddof=1) / np.sqrt(u.size)
        r = np.abs(u) ** 2
        assert abs(r.mean() - 1.0 / m) <= 4 * r.std(ddof=1) / np.sqrt(r.size)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            sample_orthogonal(0, RngStream(0))
        with pytest.raises(DimensionError):
            sample_special_orthogonal(0, RngStream(0))
        for m, n in ((0, 0), (2, 0), (2, 3)):
            with pytest.raises(DimensionError):
                sample_unitary_columns(m, n, 1, RngStream(0))

    def test_stream_reproducibility(self):
        a = sample_orthogonal(4, RngStream(7, 3))
        b = sample_orthogonal(4, RngStream(7, 3))
        np.testing.assert_array_equal(a, b)
        c = sample_orthogonal(4, RngStream(7, 4))
        assert np.abs(a - c).max() > 1e-3


def _lapack_q(a):
    """np.linalg.qr's Q, each column scaled by the sign/phase of R_jj."""
    q, r = np.linalg.qr(a)
    d = np.einsum("...ii->...i", r)
    return q * (d / np.abs(d))[:, None, :]


def _gram_error(q):
    n = q.shape[-1]
    return np.abs(np.conj(np.transpose(q, (0, 2, 1))) @ q - np.eye(n)).max()


class TestOrthonormalColumns:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_real_matches_sign_corrected_qr(self, n):
        a = RngStream(50 + n).generator().standard_normal((300, n, n))
        np.testing.assert_allclose(_orthonormal_columns(a.copy()), _lapack_q(a), rtol=0, atol=1e-11)

    @pytest.mark.parametrize("m, n", [(4, 4), (5, 2), (7, 3), (13, 4)])
    def test_complex_matches_phase_corrected_qr(self, m, n):
        g = RngStream(60 + m).generator().standard_normal((2, 300, m, n))
        a = g[0] + 1j * g[1]
        np.testing.assert_allclose(_orthonormal_columns(a.copy()), _lapack_q(a), rtol=0, atol=1e-11)

    def test_ill_conditioned_stack_stays_orthogonal(self):
        # condition number 1e10: a single classical Gram-Schmidt pass loses all
        # orthogonality here (max |Q^H Q - I| ~ 1)
        gen = RngStream(70).generator()
        n, count = 6, 200
        u = _lapack_q(gen.standard_normal((count, n, n)))
        v = _lapack_q(gen.standard_normal((count, n, n)))
        a = (u * np.logspace(0, -10, n)) @ np.transpose(v, (0, 2, 1))
        assert np.linalg.cond(a).min() > 0.9e10
        assert _gram_error(_orthonormal_columns(a)) <= 1e-14

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_zero_column_row_falls_back_to_qr(self, kind):
        g = RngStream(71).generator().standard_normal((2, 5, 4, 3))
        a = g[0] + 1j * g[1] if kind == "complex" else g[0]
        a[2, :, 1] = 0.0
        q = _orthonormal_columns(a.copy())
        assert np.isfinite(q).all()
        assert _gram_error(q) <= 1e-14
        # the other draws keep their Gram-Schmidt Q
        rest = [0, 1, 3, 4]
        np.testing.assert_array_equal(q[rest], _orthonormal_columns(a[rest]))
        # the zero column's R_jj = 0 keeps LAPACK's column as it is
        ref, r = np.linalg.qr(a[2])
        d = np.diag(r)[[0, 2]]
        ref[:, [0, 2]] *= d / np.abs(d)
        np.testing.assert_allclose(q[2], ref, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("m, n", [(6, 6), (7, 3)])
    def test_tiles_give_the_one_tile_bits(self, monkeypatch, kind, m, n):
        g = RngStream(73).generator().standard_normal((2, 43, m, n))
        a = g[0] + 1j * g[1] if kind == "complex" else g[0]
        a[30, :, 1] = 0.0  # LAPACK redoes this draw, in the fifth tile
        whole = _orthonormal_columns(a.copy())
        # tiles of 7 draws; the one draw left over joins the last tile
        monkeypatch.setattr(linalg, "TILE_ENTRIES", 7 * m * n)
        assert [t.stop - t.start for t in linalg.tile_slices(43, m * n)] == [7] * 5 + [8]
        tiled = _orthonormal_columns(a.copy())
        np.testing.assert_array_equal(tiled, whole)
        assert np.isfinite(tiled).all() and _gram_error(tiled) <= 1e-14
        # the redone draw is LAPACK's Q of the draw itself, read before its
        # tile was overwritten
        np.testing.assert_array_equal(tiled[30], haar._sign_corrected_qr(a[30:31])[0])

    def test_samplers_return_c_contiguous_stacks(self):
        gen = RngStream(72).generator()
        assert sample_orthogonal_batch(5, 10, gen).flags.c_contiguous
        assert sample_special_orthogonal_batch(5, 10, gen).flags.c_contiguous
        assert sample_unitary_columns(7, 3, 10, gen).flags.c_contiguous


class TestColumnLayoutTiles:
    """The samplers of haar._SAMPLERS leave each tile's Q in column layout;
    the C-layout samplers and f per contiguous tile (tests/haar_oracles.py)
    are the oracle for their bits."""

    @staticmethod
    def draw_a_zero_column(monkeypatch, n):
        """43 fixed Gaussian draws for every sampler, in tiles of 7; draw 30,
        in the fifth tile, has a zero column, which LAPACK's QR redoes."""
        gauss = RngStream(75 + n).generator().standard_normal((43, n, n))
        gauss[30, :, n // 2] = 0.0
        monkeypatch.setattr(haar, "_gaussians",
                            lambda n, count, rng, columns=None: gauss[:count, :, :columns].copy())
        monkeypatch.setattr(linalg, "TILE_ENTRIES", 7 * n * n)
        return gauss

    @pytest.mark.parametrize("group", ["O", "SO"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_tile_views_hold_the_public_draws(self, monkeypatch, n, group):
        gauss = self.draw_a_zero_column(monkeypatch, n)
        public = PUBLIC_SAMPLERS[group](n, 43, None)
        draws = haar._SAMPLERS[group](n, 43, None)
        views = list(haar._tile_views(draws))
        assert [len(o) for _, o in views] == [7] * 5 + [8]
        np.testing.assert_array_equal(np.concatenate([o for _, o in views]), public)
        for _, o in views:
            assert np.shares_memory(o, draws) and o[:, -1, 0].flags.c_contiguous
        if group == "O":
            # the first tile's block is the kernel's (n, n, t) column layout
            first = haar._orthonormal_tile(gauss[:7])
            np.testing.assert_array_equal(draws.reshape(-1)[:first.size], first.ravel())
            np.testing.assert_array_equal(public[30], haar._sign_corrected_qr(gauss[30:31])[0])

    @pytest.mark.parametrize("group", ["O", "SO"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_column_tiles_hold_the_q_of_the_column_block(self, monkeypatch, n, group):
        # k < n columns: Gram-Schmidt of the n x k block alone, tiled over n k
        # entries per draw, and no determinant fix for SO(n)
        gauss = self.draw_a_zero_column(monkeypatch, n)
        for k in range(1, n):
            draws = haar._SAMPLERS[group](n, 43, None, k)
            views = list(haar._tile_views(draws))
            assert draws.shape == (43, n, k)
            assert [tile for tile, _ in views] == linalg.tile_slices(43, n * k)
            np.testing.assert_array_equal(np.concatenate([o for _, o in views]),
                                          _orthonormal_columns(gauss[:, :, :k].copy()))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("group", ["O", "SO"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_f_per_tile_gives_the_public_route_bits(self, monkeypatch, n, group, kind):
        self.draw_a_zero_column(monkeypatch, n)
        eye, g = np.eye(n), np.linspace(0.5, 1.4, n)[:, None]
        if kind == "real":
            def f(o):
                return linalg.det_stack(1.3 * eye - g * o) ** 2 * o[:, 0, -1]
        else:
            def f(o):
                return linalg.det_stack(o + 0.4j * eye) * np.exp(1j * o[:, -1, 0])

        def logged(values):
            def g(o):
                values.append(f(o))
                return values[-1]
            return g

        tiled, public = [], []
        est = mc_expectation(logged(tiled), n, 43, RngStream(76), group=group)
        ref = public_route_expectation(logged(public), n, 43, RngStream(76), group=group)
        assert [len(v) for v in tiled] == [len(v) for v in public] == [7] * 5 + [8]
        np.testing.assert_array_equal(np.concatenate(tiled), np.concatenate(public))
        assert (est.mean, est.std_error) == (ref.mean, ref.std_error)

    def test_verify_cft_draws_every_orthogonal_matrix_through_the_tile_samplers(
            self, monkeypatch):
        # perfbench's haar.sample span counts the draws of haar._SAMPLERS: each
        # colour side makes --samples draws there, and every real Gaussian block
        # and real Gram-Schmidt Q is made inside one of those calls
        draws, inside = [], [0]

        def spy(sampler):
            def counted(n, count, rng, columns=None):
                draws.append(count)
                inside[0] += 1
                try:
                    return sampler(n, count, rng, columns)
                finally:
                    inside[0] -= 1
            return counted

        def only_inside(kernel, real=lambda *args: True):
            def checked(*args, **kwargs):
                assert inside[0] or not real(*args), "an O(N) draw outside haar._SAMPLERS"
                return kernel(*args, **kwargs)
            return checked

        monkeypatch.setattr(haar, "_gaussians", only_inside(haar._gaussians))
        monkeypatch.setattr(haar, "_orthonormal_tile", only_inside(
            haar._orthonormal_tile, real=lambda a: not np.iscomplexobj(a)))
        for group in ("O", "SO"):
            monkeypatch.setitem(haar._SAMPLERS, group, spy(haar._SAMPLERS[group]))
        for variant, colours in (("fermionic", 3), ("son", 3), ("bosonic", 5)):
            draws.clear()
            argv = ["verify-cft", f"--variant={variant}", f"--colors={colours}",
                    "--flavors=2", "--samples=30001", "--workers=2", "--seed=0"]
            assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0
            assert sum(draws) == 30_001, variant
            assert len(draws) == (4 if variant != "bosonic" else 2), variant


class TestMcExpectation:
    def test_determinant_mean_zero_on_full_group(self):
        est = mc_expectation(np.linalg.det, 4, 200_000, RngStream(11))
        assert est.z_score(0.0) <= 3.0

    def test_product_of_diagonal_entries_vanishes(self):
        est = mc_expectation(
            lambda o: o[:, 0, 0] * o[:, 1, 1], 3, 200_000, RngStream(12)
        )
        assert est.z_score(0.0) <= 3.0

    def test_second_moment_matches_one_over_n(self):
        n = 3
        est = mc_expectation(lambda o: o[:, 0, 0] ** 2, n, 400_000, RngStream(13))
        assert est.z_score(1.0 / n) <= 3.0

    def test_bit_identical_for_fixed_config(self):
        cfg = dict(n=3, samples=5_000, group="SO", workers=4)
        f = lambda o: o[:, 0, 1] * o[:, 1, 0]
        a = mc_expectation(f, rng=RngStream(21), **cfg)
        b = mc_expectation(f, rng=RngStream(21), **cfg)
        assert (a.mean, a.std_error, a.samples) == (b.mean, b.std_error, b.samples)

    def test_worker_count_changes_split_not_statistics(self):
        f = lambda o: o[:, 0, 0] ** 2
        a = mc_expectation(f, 2, 100_000, RngStream(22), workers=1)
        b = mc_expectation(f, 2, 100_000, RngStream(22), workers=3)
        # different substreams, same distribution
        assert abs(a.mean - b.mean) <= 3 * np.hypot(a.std_error, b.std_error)

    def test_permutation_invariance(self):
        # left-multiplying by a fixed permutation leaves moments unchanged
        p = np.eye(3)[[2, 0, 1]]
        f_plain = lambda o: o[:, 0, 0] ** 2
        f_perm = lambda o: np.einsum("ij,bjk->bik", p, o)[:, 0, 0] ** 2
        a = mc_expectation(f_plain, 3, 300_000, RngStream(23))
        b = mc_expectation(f_perm, 3, 300_000, RngStream(24))
        assert abs(a.mean - b.mean) <= 3 * np.hypot(a.std_error, b.std_error)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("group", ["O", "SO"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_tiles_give_the_one_call_bits(self, monkeypatch, n, group, kind):
        eye, g = np.eye(n), np.linspace(0.5, 1.4, n)[:, None]
        if kind == "real":
            def f(o):
                return linalg.det_stack(1.3 * eye - g * o) ** 2
        else:
            def f(o):
                return linalg.det_stack(o + 0.4j * eye) * np.exp(1j * o[:, 0, -1])

        sampler, drawn = haar._SAMPLERS[group], []

        def counted(n, count, rng, columns=None):
            drawn.append(count)
            return sampler(n, count, rng, columns)

        monkeypatch.setitem(haar._SAMPLERS, group, counted)

        def run(tile_draws):
            monkeypatch.setattr(linalg, "TILE_ENTRIES", tile_draws * n * n)
            calls = []

            def logged(o):
                calls.append(o.copy())
                return f(o)

            est = mc_expectation(logged, n, 100, RngStream(74), group=group, workers=2)
            return est, calls

        # tiles of 7 draws, which do not divide the two 50-draw batches, in
        # the sampler and in f, against one call per batch; either way each
        # batch is drawn in one sampler call
        tiled, tiles = run(7)
        whole, batches = run(50)
        assert drawn == [50, 50, 50, 50]
        assert [len(o) for o in tiles] == 2 * ([7] * 6 + [8])
        assert [len(o) for o in batches] == [50, 50]
        np.testing.assert_array_equal(np.concatenate(tiles), np.concatenate(batches))
        assert (tiled.mean, tiled.std_error) == (whole.mean, whole.std_error)

    def test_sample_count_validation(self):
        with pytest.raises(ConfigError):
            mc_expectation(np.linalg.det, 2, 1, RngStream(0))

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_validation(self, workers):
        with pytest.raises(ConfigError):
            mc_expectation(np.linalg.det, 2, 100, RngStream(0), workers=workers)

    def test_estimate_z_score_handles_zero_error(self):
        est = Estimate(1.0 + 0j, 0.0, 10)
        assert est.z_score(1.0 + 0j) == 0.0
        assert est.z_score(2.0) == float("inf")


class TestBatchRule:
    @pytest.mark.parametrize("n, columns, rows", [
        (1, None, 20_000), (2, None, 20_000), (3, None, 20_000), (4, None, 16_384),
        (5, None, 10_485), (6, None, 7_281), (64, 1, 4_096), (64, None, 64),
    ])
    def test_mc_batches_hold_the_entry_budget(self, monkeypatch, n, columns, rows):
        # n k Gaussians per draw, at most BATCH_ENTRIES per batch; N = 1..6 are
        # the moments benchmark's m1-mc ops
        batches = []

        def spy(values, samples, rng, workers, *, entries):
            batches.append(haar._batch_rows(entries))
            return stream_mean(values, samples, rng, workers, entries=entries)

        monkeypatch.setattr(haar, "stream_mean", spy)
        mc_expectation(lambda o: o[:, 0, 0], n, 2, RngStream(0), columns=columns)
        assert batches == [rows] == [haar._batch_rows(n * (columns or n))]

    def test_colour_batches_keep_their_rows(self):
        # the Khatri-Rao widths of the identity benchmark's colour tables
        assert [haar._batch_rows(w) for w in (20, 70, 12_870)] == [13_107, 3_744, 20]

    def test_a_batch_holds_at_most_the_budget(self):
        for entries in [*range(1, 5_000), 12_870, haar.BATCH_ENTRIES, haar.BATCH_ENTRIES + 1]:
            rows = haar._batch_rows(entries)
            assert 1 <= rows <= haar.DEFAULT_BATCH
            assert rows * entries <= haar.BATCH_ENTRIES or rows == 1


def haar_moment(monkeypatch, n, entries, group="O", samples=200_000, seed=0, workers=1):
    """The haar-moment record, and the ``columns`` its sampler was called with."""
    sampler, columns = haar._SAMPLERS[group], set()

    def spied(n, count, rng, k=None):
        columns.add(k)
        return sampler(n, count, rng, k)

    monkeypatch.setitem(haar._SAMPLERS, group, spied)
    out, err = io.StringIO(), io.StringIO()
    argv = ["haar-moment", "--n", str(n), "--entries", entries, "--group", group,
            "--samples", str(samples), "--seed", str(seed), "--workers", str(workers)]
    assert run(argv, out=out, err=err) == 0, err.getvalue()
    monkeypatch.setitem(haar._SAMPLERS, group, sampler)
    return json.loads(out.getvalue()), columns


class TestColumnRoute:
    """haar-moment draws only the columns, or the rows, its entries read."""

    @pytest.mark.parametrize("group", ["O", "SO"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_entries_reading_every_row_and_column_keep_the_bits(self, monkeypatch, n, group):
        # the diagonal and the next diagonal read all n rows and columns
        idx = [(i, i) for i in range(n)] + [(i, (i + 1) % n) for i in range(n)]
        entries = ";".join(f"{i + 1},{j + 1}" for i, j in idx)

        def f(o):
            out = np.ones(o.shape[0])
            for i, j in idx:
                out = out * o[:, i, j]
            return out

        rec, columns = haar_moment(monkeypatch, n, entries, group, 3_001, seed=5, workers=2)
        ref = public_route_expectation(f, n, 3_001, RngStream(5), group=group, workers=2)
        est = mc_expectation(f, n, 3_001, RngStream(5), group=group, workers=2)
        assert columns == {None}
        assert (est.mean, est.std_error) == (ref.mean, ref.std_error)
        assert (rec["value"]["re"], rec["value"]["im"]) == (ref.mean.real, ref.mean.imag)
        assert rec["std_error"] == ref.std_error

    @pytest.mark.parametrize("group", ["O", "SO"])
    @pytest.mark.parametrize("n, entries, exact, k", [
        (5, "1,1;1,1", 1 / 5, 1),  # E[O11^2] = 1/N
        (5, "1,1;1,1;1,1;1,1", 3 / 35, 1),  # E[O11^4] = 3/(N(N+2))
        (3, "1,1;1,2;2,1;2,2", -1 / 30, 2),  # -1/(N(N-1)(N+2))
        (5, "1,1;1,1;1,2;1,2", 1 / 35, 1),  # one row: E[O11^2 O12^2] = 1/(N(N+2))
        (4, "2,3;2,3;4,3;4,3", 1 / 24, 1),  # one column, not the first
    ])
    def test_column_route_has_the_haar_law(self, monkeypatch, group, n, entries, exact, k):
        rec, columns = haar_moment(monkeypatch, n, entries, group, seed=61 + n)
        assert columns == {k}
        est = Estimate(complex(rec["value"]["re"], rec["value"]["im"]), rec["std_error"],
                       rec["samples"])
        assert est.z_score(exact) <= 4.0

    @pytest.mark.parametrize("group, exact", [("SO", 0.5), ("O", 0.0)])
    def test_so_keeps_the_determinant_fix_when_every_column_is_read(
            self, monkeypatch, group, exact):
        # O11 O22 is cos^2 on SO(2) and -cos^2 on its reflections
        rec, columns = haar_moment(monkeypatch, 2, "1,1;2,2", group, seed=7)
        assert columns == {None}
        est = Estimate(complex(rec["value"]["re"]), rec["std_error"], rec["samples"])
        assert est.z_score(exact) <= 4.0

    @pytest.mark.parametrize("group", ["O", "SO"])
    def test_f_gets_the_columns_asked_for(self, group):
        shapes = []

        def f(o):
            shapes.append(o.shape[1:])
            return o[:, 0, -1]

        mc_expectation(f, 7, 100, RngStream(3), group=group, columns=2)
        assert set(shapes) == {(7, 2)}

    @pytest.mark.parametrize("columns", [0, -1, 4])
    def test_column_count_validation(self, columns):
        with pytest.raises(ConfigError):
            mc_expectation(lambda o: o[:, 0, 0], 3, 100, RngStream(0), columns=columns)


class TestStreamMean:
    @staticmethod
    def draws(gen, b):
        x = gen.standard_normal((b, 3))
        return x + np.array([0.0, 2.0, -1.0])

    @staticmethod
    def complex_draws(gen, b):
        # one draw per batch, so the stream does not depend on the batch size
        g = gen.standard_normal((b, 4))
        x = g[:, :2] + 1j * g[:, 2:]
        return x * np.array([1.0, 0.3 - 0.2j]) + np.array([0.5j, 4.0])

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_numpy_mean_and_error(self, batch_rows, workers, kind):
        values = self.draws if kind == "real" else self.complex_draws
        samples, rng = 10_001, RngStream(41)
        extra = samples % workers
        # batches of 700 rows: shards of 3334 / 3334 / 3333 end on partial batches
        batch_rows(700)
        mean, se = stream_mean(values, samples, rng, workers, entries=1)
        rows = np.concatenate(
            [
                values(rng.substream(w).generator(), samples // workers + (w < extra))
                for w in range(workers)
            ]
        )
        assert rows.shape[0] == samples
        np.testing.assert_allclose(mean, rows.mean(axis=0), rtol=1e-12, atol=1e-12)
        ref_se = rows.std(axis=0, ddof=1) / np.sqrt(samples)
        np.testing.assert_allclose(se, ref_se, rtol=1e-12)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_batch_sums_give_the_bits_of_their_rows(self, batch_rows, workers, kind):
        values = self.draws if kind == "real" else self.complex_draws

        def sums(gen, b):
            rows = values(gen, b)
            return rows.sum(axis=0), (np.abs(rows) ** 2).sum(axis=0)

        batch_rows(700)
        got = stream_mean(sums, 10_001, RngStream(43), workers, entries=1)
        want = stream_mean(values, 10_001, RngStream(43), workers, entries=1)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("width", range(1, 9))
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_column_sums_give_the_bits_of_sum(self, batch_rows, width, kind, order):
        # magnitudes over 16 decades, so that another order of addition shows
        def values(gen, b):
            rows = gen.standard_normal((b, width)) * 10.0 ** gen.integers(-8, 9, (b, width))
            if kind == "complex":
                rows = rows + 1j * gen.standard_normal((b, width))
            return np.asarray(rows, order=order)

        for batch, samples in [(1, 3), (2, 5), (777, 2 * 777 + 1), (20_000, 40_001)]:
            rows = values(np.random.default_rng(batch), batch)
            for block in (rows, np.abs(rows) ** 2):
                np.testing.assert_array_equal(haar._column_sums(block), block.sum(axis=0))
            batch_rows(batch)
            got = stream_mean(values, samples, RngStream(47), entries=1)
            want = serial_stream_mean(values, samples, RngStream(47), batch=batch)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    def test_batch_size_does_not_change_the_draws(self, batch_rows):
        b = stream_mean(self.draws, 5_000, RngStream(42), entries=1)
        batch_rows(7)
        a = stream_mean(self.draws, 5_000, RngStream(42), entries=1)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    @pytest.mark.parametrize("samples, workers", [(1, 1), (0, 1), (10, 0), (10, -3)])
    def test_rejects_bad_counts_before_drawing(self, samples, workers):
        def values(gen, b):
            raise AssertionError("drew samples")

        with pytest.raises(ConfigError):
            stream_mean(values, samples, RngStream(0), workers, entries=1)


@pytest.fixture
def batch_rows(monkeypatch):
    """Set the rows of every batch of ``stream_mean(..., entries=1)``, up to
    DEFAULT_BATCH: the budget is then that many one-value rows."""
    return lambda rows: monkeypatch.setattr(haar, "BATCH_ENTRIES", rows)


def serial_stream_mean(values, samples, rng, workers=1, batch=20_000):
    """The batch loop of stream_mean with every draw made in turn, as reference."""
    total = total_abs2 = 0.0
    for w in range(workers):
        gen = rng.substream(w).generator()
        shard = samples // workers + (1 if w < samples % workers else 0)
        done = 0
        while done < shard:
            b = min(batch, shard - done)
            vals = values(gen, b)
            total = total + vals.sum(axis=0)
            total_abs2 = total_abs2 + (np.abs(vals) ** 2).sum(axis=0)
            done += b
    mean = total / samples
    var = np.maximum(total_abs2 / samples - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var * samples / (samples - 1) / samples)


@pytest.fixture
def draw_log(monkeypatch):
    """Log the thread name of every draw from an RngStream generator.

    Copies of a generator log into the same list, so the fills that
    stream_mean's stand-in makes on its helper thread are logged too.
    """
    log = []

    class Logged:
        def __init__(self, gen):
            self.gen = gen

        def __getattr__(self, method):
            if method.startswith("__"):  # copy's protocol, not a draw
                raise AttributeError(method)

            def draw(*args, **kwargs):
                log.append(threading.current_thread().name)
                return getattr(self.gen, method)(*args, **kwargs)

            return draw

    generator = RngStream.generator
    monkeypatch.setattr(RngStream, "generator", lambda self: Logged(generator(self)))
    return log


def assert_same_bits(got, want):
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


class TestDrawAhead:
    """stream_mean's draw-ahead: the same bits as drawing in turn."""

    @staticmethod
    def real_rows(gen, b):
        x = gen.standard_normal((b, 70))
        return x[:, :3] * x[:, 3:6] + x[:, 6:9] + np.array([0.0, 2.0, -1.0])

    @staticmethod
    def complex_rows(gen, b):
        g, h = gen.standard_normal((b, 70)), gen.standard_normal((b, 70))
        u = gen.random(b)
        x = (g[:, :2] + 1j * h[:, :2]) * u[:, None]
        return x * np.array([1.0, 0.3 - 0.2j]) + np.array([0.5j, 4.0])

    @staticmethod
    def uniform_rows(gen, b):
        u, v = gen.random((b, 70)), gen.random((b, 70))
        return u[:, :2] - v[:, 2:4] ** 2

    # Draws the caller's thread makes itself in 11 (workers 1) or 12
    # (workers 3) batches of 1000 rows, each shard's last batch partial: each
    # shard's first array and the arrays of its last batch, too small to be
    # drawn ahead, and every ``random`` array, which the stand-in passes to
    # the generator: u in every batch of the complex rows, and g after it
    # (the fill that h started was dropped), and both arrays of every batch
    # of the uniform rows.  Every other array comes from a fill.
    CALLER_DRAWS = {
        ("real", 1): 2, ("real", 3): 6,
        ("complex", 1): 23, ("complex", 3): 27,
        ("uniform", 1): 22, ("uniform", 3): 24,
    }

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("kind", ["real", "complex", "uniform"])
    def test_matches_serial_loop_bit_for_bit(self, draw_log, batch_rows, kind, workers):
        values = getattr(self, f"{kind}_rows")
        samples, rng = 10_001, RngStream(43)
        want = serial_stream_mean(values, samples, rng, workers, batch=1000)
        draw_log.clear()
        batch_rows(1000)
        got = stream_mean(values, samples, rng, workers, entries=1)
        assert_same_bits(got, want)
        caller = draw_log.count(threading.current_thread().name)
        assert caller == self.CALLER_DRAWS[kind, workers]

    def test_bits_hold_under_frequent_thread_switches(self, batch_rows):
        # a fill that wrote into an array values is reading, or drew from the
        # generator the caller draws from, would change the bits; switching
        # threads every 10 us makes such a race likely to show
        def values(gen, b):
            x = gen.standard_normal((b, 64))
            return np.cumsum(x, axis=1)[:, ::16] * x[:, :4]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        batch_rows(1024)
        try:
            got = stream_mean(values, 60_001, RngStream(45), 3, entries=1)
        finally:
            sys.setswitchinterval(interval)
        assert_same_bits(got, serial_stream_mean(values, 60_001, RngStream(45), 3, batch=1024))

    @pytest.mark.parametrize("rows, ahead", [(1023, False), (1024, True), (1025, True)])
    def test_size_gate(self, draw_log, batch_rows, rows, ahead):
        # 64 values per row: 1023 rows fall just below the gate, 1024 meet it
        assert (rows * 64 >= DRAW_AHEAD_MIN_VALUES) == ahead

        def values(gen, b):
            return gen.standard_normal((b, 64))[:, :2] ** 2

        want = serial_stream_mean(values, 5 * rows + 3, RngStream(44), batch=rows)
        draw_log.clear()
        batch_rows(rows)
        got = stream_mean(values, 5 * rows + 3, RngStream(44), entries=1)
        assert_same_bits(got, want)
        # ahead: the first and the partial last batch are drawn in turn, and
        # the five fills (the last one dropped) on the helper thread
        caller = draw_log.count(threading.current_thread().name)
        assert (caller, len(draw_log)) == ((2, 7) if ahead else (6, 6))

    def test_last_batch_starts_no_fill(self, draw_log, batch_rows):
        def values(gen, b):
            return gen.standard_normal((b, 70))[:, :3]

        want = serial_stream_mean(values, 3000, RngStream(46), batch=1000)
        draw_log.clear()
        batch_rows(1000)
        got = stream_mean(values, 3000, RngStream(46), entries=1)
        assert_same_bits(got, want)
        # batch 1 draws in turn; batches 2 and 3 take the fills after 1 and 2
        caller = threading.current_thread().name
        assert draw_log == [caller, "ocft-draw-ahead", "ocft-draw-ahead"]

    @staticmethod
    def changing_draws(change):
        """Rows from 70-value draws whose pattern changes every third batch."""

        def values(gen, b):
            calls.append(b)
            odd = len(calls) % 3 == 2
            if change == "one-too-many":
                draws = [gen.standard_normal((b, 70)) for _ in range(1 + odd)]
            elif change == "one-too-few":
                draws = [gen.standard_normal((b, 70)) for _ in range(2 - odd)]
            elif change == "wrong-method":
                draws = [gen.random((b, 70)) if odd else gen.standard_normal((b, 70))]
            elif change == "wrong-shape":
                draws = [gen.standard_normal((b, 35 if odd else 70))]
            elif change == "other-method":
                draws = [gen.standard_normal((b, 70))]
                if odd:
                    draws.append(gen.integers(2, size=(b, 70)))
            elif change == "other-dtype":
                x = gen.standard_normal((b, 70), dtype=np.float32) if odd else None
                draws = [gen.standard_normal((b, 70)) if x is None else x]
            return sum(x[:, :3] for x in draws)

        calls = []
        return values

    # Draws the caller's thread makes itself, of 10 batches of 1000 rows.  A
    # changed count of same-shape arrays keeps taking them from fills: only
    # batch 1 draws in turn, and the last batch's second array, since the
    # last batch starts no fill.  A changed method, shape or dtype also draws
    # in turn in each changed batch (2, 5, 8) and the batch after it.
    CHANGED_CALLER_DRAWS = {
        "one-too-many": 1, "one-too-few": 2, "wrong-method": 7, "wrong-shape": 7,
        "other-method": 7, "other-dtype": 7,
    }

    @pytest.mark.parametrize("change", CHANGED_CALLER_DRAWS)
    def test_changed_draws_give_the_serial_bits(self, draw_log, batch_rows, change):
        want = serial_stream_mean(self.changing_draws(change), 10_000, RngStream(0), batch=1000)
        draw_log.clear()
        batch_rows(1000)
        got = stream_mean(self.changing_draws(change), 10_000, RngStream(0), entries=1)
        assert_same_bits(got, want)
        caller = draw_log.count(threading.current_thread().name)
        assert caller == self.CHANGED_CALLER_DRAWS[change]

    @staticmethod
    def failing_fills(monkeypatch, threads, fail=True):
        """Log the thread of every fill (a draw into ``out``) of an RngStream
        generator, and make it raise if ``fail``."""

        class FailingFills:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, size=None, out=None):
                if out is not None:
                    threads.append(threading.current_thread())
                    if fail:
                        raise FloatingPointError("fill failed")
                return self.gen.standard_normal(size, out=out)

        generator = RngStream.generator
        monkeypatch.setattr(RngStream, "generator", lambda self: FailingFills(generator(self)))

    @pytest.mark.parametrize("where", ["helper", "values"])
    def test_errors_reach_the_caller_and_no_thread_is_left(self, monkeypatch, batch_rows, where):
        threads, calls = [], []
        self.failing_fills(monkeypatch, threads, fail=where == "helper")

        def values(gen, b):
            calls.append(b)
            x = gen.standard_normal((b, 70))
            if where == "values" and len(calls) == 3:  # batch 4's fill is in flight
                raise ZeroDivisionError("values failed")
            return x[:, :1]

        before = threading.active_count()
        error = FloatingPointError if where == "helper" else ZeroDivisionError
        batch_rows(1000)
        with pytest.raises(error):
            stream_mean(values, 10_000, RngStream(0), entries=1)
        # helper: batch 1 draws in turn, and batch 2 raises the failed fill
        assert len(calls) == {"helper": 2, "values": 3}[where]
        assert threads and threading.main_thread() not in threads
        assert threading.active_count() == before
        assert not any(t.is_alive() for t in threads)

    def test_error_of_an_unused_fill_is_dropped(self, monkeypatch, batch_rows):
        def values(gen, b):
            # the (b, 35) draw drops the fill that follows (b, 70)
            return gen.standard_normal((b, 70))[:, :2] + gen.standard_normal((b, 35))[:, :2]

        want = serial_stream_mean(values, 5_000, RngStream(0), batch=1000)
        threads = []
        self.failing_fills(monkeypatch, threads)
        batch_rows(1000)
        got = stream_mean(values, 5_000, RngStream(0), entries=1)
        assert_same_bits(got, want)
        assert len(threads) == 4  # the fill of every batch but the last failed, unused
