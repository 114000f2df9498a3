import itertools
import tracemalloc

import numpy as np
import pytest

from haar_oracles import public_route_expectation
from ocft import haar, linalg, moments
from ocft.errors import ConfigError
from ocft.haar import RngStream, sample_unitary_columns
from ocft.linalg import det_stack, determinant, pfaffian
from ocft.moments import (
    MAX_M2_COMPLEX_N,
    MomentQuery,
    moment_m1_closed,
    moment_mc,
    moment_pfaffian_integral,
    pfaffian_batch,
)
from ocft.moments import (
    _kernel_batch,
    _m2_kernel_pfaffian,
    _pf_product,
    _radial_grid,
    _skew_sigma_blocks,
)
from random_inputs import random_skew


def o1_enumeration(z, g, m):
    """<|z - gO|^{2m}> over O(1) = {+1, -1}."""
    return 0.5 * (abs(z - g) ** (2 * m) + abs(z + g) ** (2 * m))


def new_arrays_moment_f(query, det=det_stack):
    """moment_mc's per-tile f as it was before it wrote z - GO over its tile:
    z I - G O in new arrays, then ``det``."""
    g = np.asarray(query.g)
    z = query.z.real if query.z.imag == 0 else query.z

    def f(o):
        dets = det(z * np.eye(g.size) - g[:, None] * o)
        return (dets * dets.conj()).real ** query.m

    return f


class TestClosedForm:
    def test_n1_enumeration_value(self):
        q = MomentQuery(z=2.0, g=(1.0,))
        assert moment_m1_closed(q) == pytest.approx(5.0, rel=1e-12)

    def test_n1_random_against_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = complex(rng.normal(), rng.normal())
            g = rng.uniform(0.1, 2.0)
            q = MomentQuery(z=z, g=(g,))
            assert moment_m1_closed(q) == pytest.approx(
                o1_enumeration(z, g, 1), rel=1e-12
            )

    def test_zero_g_gives_power_of_z(self):
        q = MomentQuery(z=1.5 - 0.5j, g=(0.0, 0.0, 0.0))
        assert moment_m1_closed(q) == pytest.approx(abs(1.5 - 0.5j) ** 6, rel=1e-12)

    def test_identity_g_at_origin(self):
        q = MomentQuery(z=0.0, g=(1.0, 1.0))
        assert moment_m1_closed(q) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("z, g", [(1e200, (1.0, 1.0)), (1.0, (1e200, 1.0))])
    def test_overflow_is_config_error(self, z, g):
        with pytest.raises(ConfigError, match="overflow"):
            moment_m1_closed(MomentQuery(z=z, g=g))

    def test_rejects_higher_m(self):
        with pytest.raises(ConfigError):
            moment_m1_closed(MomentQuery(z=1.0, g=(1.0,), m=2))

    def test_phase_invariance(self):
        rng = np.random.default_rng(2)
        g = tuple(rng.uniform(0.2, 1.5, size=4))
        z = 1.3 - 0.4j
        a = moment_m1_closed(MomentQuery(z=z, g=g))
        b = moment_m1_closed(MomentQuery(z=z * np.exp(0.9j), g=g))
        assert a == pytest.approx(b, rel=1e-12)

    def test_permutation_symmetry(self):
        z = 0.8 + 0.1j
        a = moment_m1_closed(MomentQuery(z=z, g=(0.3, 0.9, 1.4)))
        b = moment_m1_closed(MomentQuery(z=z, g=(1.4, 0.3, 0.9)))
        assert a == pytest.approx(b, rel=1e-14)


class TestMonteCarlo:
    def test_n1_value(self):
        est = moment_mc(MomentQuery(z=2.0, g=(1.0,)), 100_000, RngStream(3))
        assert est.z_score(5.0) <= 3.0

    def test_zero_g(self):
        q = MomentQuery(z=1.2, g=(0.0, 0.0), m=2)
        est = moment_mc(q, 1000, RngStream(4))
        assert est.mean.real == pytest.approx(1.2**8, rel=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_determinant_is_one(self):
        q = MomentQuery(z=0.0, g=(1.0, 1.0), m=2)
        est = moment_mc(q, 1000, RngStream(5))
        assert est.mean.real == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("m", [1, 2])
    def test_real_z_matches_complex_arithmetic(self, n, m):
        # z with a zero imaginary part runs in float64; 1e-300j keeps complex
        g = (0.5, 0.8, 1.1, 1.4, 0.7, 1.0)[:n]
        real = moment_mc(MomentQuery(z=1.3, g=g, m=m), 3000, RngStream(30 + n))
        cplx = moment_mc(MomentQuery(z=1.3 + 1e-300j, g=g, m=m), 3000, RngStream(30 + n))
        assert real.mean == pytest.approx(cplx.mean, rel=1e-12)
        assert real.std_error == pytest.approx(cplx.std_error, rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("z", [1.3, -0.8, 0.9 + 0.4j])
    @pytest.mark.parametrize("m", [1, 2])
    def test_in_place_tiles_give_the_public_route_bits(self, monkeypatch, n, z, m):
        # z - GO written over the sampler's column-layout tiles, against the
        # public sampler and z I - G O in new arrays, tiles of 7 draws
        monkeypatch.setattr(linalg, "TILE_ENTRIES", 7 * n * n)
        q = MomentQuery(z=z, g=tuple(np.linspace(0.5, 1.4, n)), m=m)
        est = moment_mc(q, 300, RngStream(41 + n), workers=2)
        ref = public_route_expectation(new_arrays_moment_f(q), n, 300, RngStream(41 + n),
                                       workers=2)
        assert (est.mean, est.std_error) == (ref.mean, ref.std_error)

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("z", [1.3, 0.9 + 0.4j])
    def test_laplace_dets_match_the_lapack_route(self, n, z):
        # det_stack's Laplace expansion at N = 5, 6 rounds otherwise than LU
        q = MomentQuery(z=z, g=(0.5, 0.8, 1.1, 1.4, 0.7, 1.0)[:n])
        est = moment_mc(q, 40_000, RngStream(41_004))
        ref = public_route_expectation(new_arrays_moment_f(q, np.linalg.det), n, 40_000,
                                       RngStream(41_004))
        assert est.mean == pytest.approx(ref.mean, rel=1e-14, abs=0)
        assert est.std_error == pytest.approx(ref.std_error, rel=1e-14, abs=0)

    def test_one_batch_of_draws_is_the_only_batch_sized_array(self, monkeypatch):
        # N = 6 and one batch, so no batch is drawn ahead: the Gaussians the
        # draws are written over, plus a few tiles of temporaries
        n, b = 6, haar.DEFAULT_BATCH
        q = MomentQuery(z=1.3, g=(0.5, 0.8, 1.1, 1.4, 0.7, 1.0))
        bound = 8 * (b * n * n + 4 * linalg.TILE_ENTRIES)

        def peak():
            tracemalloc.start()
            try:
                moment_mc(q, b, RngStream(40))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        moment_mc(q, b, RngStream(40))  # builds the cached Laplace tables
        assert peak() < bound
        # the guard itself: a second batch-sized array breaks the bound
        sampler = haar._SAMPLERS["O"]
        monkeypatch.setitem(haar._SAMPLERS, "O", lambda *args: sampler(*args).copy())
        assert peak() > bound

    def test_matches_closed_form_random(self):
        rng = np.random.default_rng(6)
        for n in (2, 4):
            z = complex(rng.normal(), rng.normal())
            g = tuple(rng.uniform(0.2, 1.5, size=n))
            q = MomentQuery(z=z, g=g)
            est = moment_mc(q, 200_000, RngStream(7 + n))
            assert est.z_score(moment_m1_closed(q)) <= 3.0


class TestKernel:
    def test_explicit_m1_pfaffian(self):
        a = 0.8 - 0.3j
        zval = 1.1 + 0.2j
        g = 1.7
        zm = np.array([[0, a], [-a, 0]])
        k = _kernel_batch(zm[None], g, zval, 1)[0]
        expected = -(abs(zval) ** 2 + g**2 * abs(a) ** 2)
        assert pfaffian(k) == pytest.approx(expected, rel=1e-12)

    def test_exactly_skew(self):
        rng = np.random.default_rng(8)
        zm = random_skew(4, rng)
        k = _kernel_batch(zm[None], 0.7, 0.5 + 0.2j, 2)[0]
        assert np.abs(k + k.T).max() == 0.0

    def test_pf_squared_equals_det(self):
        rng = np.random.default_rng(9)
        for m in (1, 2):
            zm = random_skew(2 * m, rng)
            k = _kernel_batch(zm[None], 1.3, 0.4 - 0.9j, m)[0]
            assert pfaffian(k) ** 2 == pytest.approx(determinant(k), rel=1e-10)

    def test_zero_z_block_factorisation(self):
        # at z = 0 the kernel is block diagonal: pf = pf(g^2 Z) pf(Z^dagger)
        rng = np.random.default_rng(10)
        g = 1.2
        zm = random_skew(2, rng)
        k = _kernel_batch(zm[None], g, 0.0, 1)[0]
        expected = pfaffian(g**2 * zm) * pfaffian(zm.conj().T)
        assert pfaffian(k) == pytest.approx(expected, rel=1e-12)

    def test_single_kernel_is_a_batch_row(self):
        rng = np.random.default_rng(34)
        for m in (1, 2):
            stack = np.array([random_skew(2 * m, rng) for _ in range(3)])
            batch = _kernel_batch(stack, 0.7, 0.5 + 0.2j, m)
            for zm, row in zip(stack, batch):
                assert np.array_equal(_kernel_batch(zm[None], 0.7, 0.5 + 0.2j, m)[0], row)

    def test_batch_pfaffian_matches_elimination(self):
        rng = np.random.default_rng(11)
        for size in (4, 8):
            stack = np.array([random_skew(size, rng) for _ in range(6)])
            batch = pfaffian_batch(stack)
            direct = [pfaffian(a) for a in stack]
            np.testing.assert_allclose(batch, direct, rtol=1e-10)


class TestPfaffianIntegral:
    def test_m1_matches_closed_form(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 4, 8, 10):
            z = complex(rng.normal(), rng.normal())
            g = tuple(rng.uniform(0.1, 1.8, size=n))
            q = MomentQuery(z=z, g=g)
            est = moment_pfaffian_integral(q)
            assert est.mean.real == pytest.approx(moment_m1_closed(q), rel=1e-12)
            assert est.std_error == 0.0

    @pytest.mark.parametrize("n", [76, 100, 200, 255])
    def test_m1_stays_finite_up_to_the_grid_cap(self, n):
        # the density (1+t)^-(N+2) underflows at the outer nodes; each kernel
        # factor carries its share of it instead
        q = MomentQuery(z=1.0, g=(1.0,) * n)
        assert moment_pfaffian_integral(q).mean == pytest.approx(n + 1.0, rel=1e-12)

    @pytest.mark.parametrize("n", [53, 56, 59])
    def test_m2_stays_finite_up_to_the_grid_cap(self, n, monkeypatch):
        q = MomentQuery(z=1.0, g=(1.0,) * n, m=2)
        value = moment_pfaffian_integral(q).mean
        monkeypatch.setitem(moments._GRID_NODES, 2, 48)
        assert value == pytest.approx(moment_pfaffian_integral(q).mean, rel=1e-12)

    @pytest.mark.parametrize("m, cap", [(1, 255), (2, 59)])
    def test_grid_cap(self, m, cap, monkeypatch):
        def no_kernels(*args, **kwargs):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(moments, "_kernel_batch", no_kernels)
        for z in (1.0, 0.9 + 0.4j):
            q = MomentQuery(z=z, g=(1.0,) * (cap + 1), m=m)
            with pytest.raises(ConfigError, match=f"m = {m} capped at N = {cap}"):
                moment_pfaffian_integral(q)

    def test_m1_zero_z(self):
        q = MomentQuery(z=0.0, g=(0.5, 2.0))
        est = moment_pfaffian_integral(q)
        assert est.mean.real == pytest.approx(moment_m1_closed(q), rel=1e-8)

    def test_m2_n1_enumeration_real_z(self):
        q = MomentQuery(z=1.3, g=(0.8,), m=2)
        est = moment_pfaffian_integral(q)
        assert est.mean.real == pytest.approx(o1_enumeration(1.3, 0.8, 2), rel=1e-8)
        assert est.std_error == 0.0

    def test_m2_exact_rotation_value(self):
        # <|1 - O|^4> over O(2): rotations give 16 E[(1-cos)^4] / 2 = 35
        q = MomentQuery(z=1.0, g=(1.0, 1.0), m=2)
        est = moment_pfaffian_integral(q)
        assert est.mean.real == pytest.approx(35.0, rel=1e-8)

    def test_m2_origin_calibration_independence(self):
        q = MomentQuery(z=0.0, g=(1.0, 1.0), m=2)
        est = moment_pfaffian_integral(q)
        assert est.mean.real == pytest.approx(1.0, rel=1e-8)

    def test_m2_complex_z_against_enumeration(self):
        for z, g in ((1.1 * np.exp(0.7j), 0.9), (-0.4 + 2.3j, 1.6)):
            est = moment_pfaffian_integral(MomentQuery(z=z, g=(g,), m=2))
            assert est.mean.real == pytest.approx(o1_enumeration(z, g, 2), rel=1e-12)
            assert (est.std_error, est.samples) == (0.0, 0)

    def test_m2_against_mc(self):
        q = MomentQuery(z=0.8, g=(0.3, 1.7), m=2)
        pf_est = moment_pfaffian_integral(q)
        mc_est = moment_mc(q, 200_000, RngStream(14))
        z = abs(pf_est.mean - mc_est.mean) / np.hypot(
            pf_est.std_error, mc_est.std_error
        )
        assert z <= 3.0

    def test_m2_zero_g_calibration_point(self):
        for z in (1.7, 0.4):
            q = MomentQuery(z=z, g=(0.0, 0.0), m=2)
            est = moment_pfaffian_integral(q)
            assert est.mean.real == pytest.approx(z**8, rel=1e-10)

    def test_m1_grows_at_large_modulus(self):
        g = (0.5, 1.2, 0.9)
        lo = moment_m1_closed(MomentQuery(z=10.0, g=g))
        hi = moment_m1_closed(MomentQuery(z=11.0, g=g))
        assert hi > lo > 0

    def test_m3_rejected(self):
        with pytest.raises(ConfigError):
            moment_pfaffian_integral(MomentQuery(z=1.0, g=(1.0,), m=3))

    def test_complex_z_m2_size_cap(self):
        n = MAX_M2_COMPLEX_N + 1
        with pytest.raises(ConfigError, match=f"capped at N = {MAX_M2_COMPLEX_N}"):
            moment_pfaffian_integral(MomentQuery(z=0.9 + 0.4j, g=(1.0,) * n, m=2))
        # the cap is the U(4) average's: real z and m = 1 keep their range
        for z, m in ((0.9, 2), (0.9 + 0.4j, 1)):
            assert moment_pfaffian_integral(MomentQuery(z=z, g=(0.1,) * n, m=m)).samples == 0

    def test_complex_z_m2_cap_comes_before_any_kernel(self, monkeypatch):
        def refused(*args):
            raise AssertionError("kernel built for a refused query")

        monkeypatch.setattr(moments, "_kernel_batch", refused)
        n = MAX_M2_COMPLEX_N + 1
        with pytest.raises(ConfigError, match=f"capped at N = {MAX_M2_COMPLEX_N}"):
            moment_pfaffian_integral(MomentQuery(z=0.9 + 0.4j, g=(1.0,) * n, m=2))


def explicit_u_average(query, rng, samples, u_chunk=8):
    """The complex-z m = 2 integral by Monte Carlo over Haar U(4) draws, with
    every Z = U Sigma U^T and 8x8 kernel built: the oracle of the exact U(4)
    average and the closed-form kernel Pfaffians of ``moment_pfaffian_integral``.
    """
    t_pairs, t_weights = _radial_grid(2)
    scale = np.prod(1.0 + t_pairs, axis=1)
    sigma = _skew_sigma_blocks(t_pairs)
    den = complex(_pf_product(sigma, scale, np.zeros(query.n), 1.0, 2) @ t_weights)
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
        fg = _pf_product(z_all, np.tile(scale, b), query.g, query.z, 2).reshape(b, -1)
        q_num.extend(fg @ t_weights)
        done += b
    q_num = np.array(q_num)
    se = np.std(q_num, ddof=1) / np.sqrt(samples) / abs(den)
    return (q_num.mean() / den).real, se


class TestClosedFormKernelPfaffian:
    def test_matches_matching_expansion(self):
        rng = np.random.default_rng(31)
        stack = np.array([random_skew(4, rng) for _ in range(40)])
        p = np.abs(stack[:, 0, 1]) ** 2
        q = np.abs(stack[:, 2, 3]) ** 2
        iu = np.triu_indices(4, 1)
        trace = np.sum(np.abs(stack[:, iu[0], iu[1]]) ** 2, axis=1)
        pf_sq = np.abs(
            stack[:, 0, 1] * stack[:, 2, 3]
            - stack[:, 0, 2] * stack[:, 1, 3]
            + stack[:, 0, 3] * stack[:, 1, 2]
        ) ** 2
        for z in (0.9 + 0.4j, -1.3 + 2.1j, 0.2 - 0.7j):
            for g in (0.6, 1.7):
                closed = _m2_kernel_pfaffian(p, q, trace, pf_sq, g, z)
                ref = pfaffian_batch(_kernel_batch(stack, g, z, 2))
                np.testing.assert_allclose(closed, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "z, g",
        [(0.9 + 0.4j, (0.6, 1.2)), (0.5 - 0.7j, (0.3, 1.0, 1.6))],
    )
    def test_u_average_matches_explicit_route(self, z, g):
        q = MomentQuery(z=z, g=g, m=2)
        est = moment_pfaffian_integral(q)
        mean, se = explicit_u_average(q, RngStream(32 + len(g)), samples=200)
        assert (est.std_error, est.samples) == (0.0, 0)
        assert abs(est.mean - mean) <= 4.0 * se

    @pytest.mark.parametrize(
        "z, g",
        [(0.9 + 0.4j, (0.6, 1.2)), (0.3 + 1.1j, (0.5, 1.0, 1.5)),
         (1.5 - 0.7j, tuple(np.linspace(0.2, 1.8, 7)))],
    )
    def test_more_u_nodes_leave_the_value(self, monkeypatch, z, g):
        q = MomentQuery(z=z, g=g, m=2)
        exact = moment_pfaffian_integral(q).mean
        nodes = moments._u4_block_nodes
        # 4 more Legendre nodes per lambda and 8 more angles
        monkeypatch.setattr(moments, "_u4_block_nodes", lambda n: nodes(n + 8))
        assert moment_pfaffian_integral(q).mean == pytest.approx(exact, rel=1e-13, abs=0)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_near_real_z_matches_the_real_route(self, n):
        # the real-z route has no U average; at z.imag = 1e-300 the exact
        # U(4) average of the same kernels must give the same value
        g = (0.5, 0.8, 1.1, 1.4, 0.7, 1.0)[:n]
        real = moment_pfaffian_integral(MomentQuery(z=1.3, g=g, m=2)).mean
        cplx = moment_pfaffian_integral(MomentQuery(z=1.3 + 1e-300j, g=g, m=2)).mean
        assert cplx == pytest.approx(real, rel=1e-12)


def block_minor_coefficients(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-draw coefficients (a, b, c) of |Z_01|^2 and |Z_23|^2 in (t1, t2, 2 sqrt(t1 t2)).

    For Z = U Sigma U^T with Sigma = s1 J (+) s2 J, J = [[0, 1], [-1, 0]],
    Z_01 = s1 A + s2 B with A, B the 2x2 minors of U on rows {0, 1} and
    columns {0, 1}, {2, 3}; Z_23 is the same on rows {2, 3}.  Hence
    |Z_01|^2 = t1 |A|^2 + t2 |B|^2 + 2 s1 s2 Re(A conj(B)).  The Monte-Carlo
    oracle of the node set of ``moments._u4_block_nodes``.
    """

    def minor(r0, c0):
        return u[:, r0, c0] * u[:, r0 + 1, c0 + 1] - u[:, r0, c0 + 1] * u[:, r0 + 1, c0]

    def coefficients(row):
        a, b = minor(row, 0), minor(row, 2)
        return np.stack([np.abs(a) ** 2, np.abs(b) ** 2, (a * np.conj(b)).real], 1)

    return coefficients(0), coefficients(2)


class TestU4BlockNodes:
    def test_coefficients_follow_the_block_singular_values(self):
        u = sample_unitary_columns(4, 4, 2000, RngStream(35))
        coef_01, coef_23 = block_minor_coefficients(u)
        lam = np.linalg.svd(u[:, :2, :2], compute_uv=False) ** 2
        a, b, c = coef_01.T
        np.testing.assert_allclose(a, lam[:, 0] * lam[:, 1], rtol=0, atol=1e-14)
        np.testing.assert_allclose(b, (1 - lam[:, 0]) * (1 - lam[:, 1]), rtol=0, atol=1e-14)
        assert np.all(np.abs(c) <= np.sqrt(a * b) + 1e-15)
        # rows {2, 3}: a and b swap, by Jacobi's complementary minors
        np.testing.assert_allclose(coef_23, coef_01[:, [1, 0, 2]], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 5])
    def test_nodes_average_moments_as_haar_draws_do(self, n):
        # E[a^i b^j c^k] for i + j + k <= n: the nodes against 200,000 Haar draws
        nodes, weights = moments._u4_block_nodes(n)
        assert weights.sum() == pytest.approx(1.0, rel=1e-14)
        draws, _ = block_minor_coefficients(sample_unitary_columns(4, 4, 200_000,
                                                                   RngStream(36 + n)))
        for i, j, k in itertools.product(range(n + 1), repeat=3):
            if i + j + k <= n:
                powers = np.array([i, j, k])
                exact = weights @ np.prod(nodes**powers, axis=1)
                mc = np.prod(draws**powers, axis=1)
                se = mc.std(ddof=1) / np.sqrt(mc.size)
                assert abs(exact - mc.mean()) <= max(4.0 * se, 1e-15)
