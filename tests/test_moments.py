import numpy as np
import pytest

from ocft.errors import ConfigError, ShapeError
from ocft.haar import RngStream
from ocft.linalg import determinant, pfaffian, random_skew
from ocft.moments import (
    MomentQuery,
    build_pf_kernel,
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


def o1_enumeration(z, g, m):
    """<|z - gO|^{2m}> over O(1) = {+1, -1}."""
    return 0.5 * (abs(z - g) ** (2 * m) + abs(z + g) ** (2 * m))


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
        k = build_pf_kernel(zm, g, zval, 1)
        expected = -(abs(zval) ** 2 + g**2 * abs(a) ** 2)
        assert pfaffian(k) == pytest.approx(expected, rel=1e-12)

    def test_exactly_skew(self):
        rng = np.random.default_rng(8)
        zm = random_skew(4, rng)
        k = build_pf_kernel(zm, 0.7, 0.5 + 0.2j, 2)
        assert np.abs(k + k.T).max() == 0.0

    def test_pf_squared_equals_det(self):
        rng = np.random.default_rng(9)
        for m in (1, 2):
            zm = random_skew(2 * m, rng)
            k = build_pf_kernel(zm, 1.3, 0.4 - 0.9j, m)
            assert pfaffian(k) ** 2 == pytest.approx(determinant(k), rel=1e-10)

    def test_zero_z_block_factorisation(self):
        # at z = 0 the kernel is block diagonal: pf = pf(g^2 Z) pf(Z^dagger)
        rng = np.random.default_rng(10)
        g = 1.2
        zm = random_skew(2, rng)
        k = build_pf_kernel(zm, g, 0.0, 1)
        expected = pfaffian(g**2 * zm) * pfaffian(zm.conj().T)
        assert pfaffian(k) == pytest.approx(expected, rel=1e-12)

    def test_single_kernel_is_a_batch_row(self):
        rng = np.random.default_rng(34)
        for m in (1, 2):
            stack = np.array([random_skew(2 * m, rng) for _ in range(3)])
            batch = _kernel_batch(stack, 0.7, 0.5 + 0.2j, m)
            for zm, row in zip(stack, batch):
                assert np.array_equal(build_pf_kernel(zm, 0.7, 0.5 + 0.2j, m), row)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            build_pf_kernel(np.zeros((2, 2)), 1.0, 1.0, 2)
        with pytest.raises(ShapeError):
            build_pf_kernel(np.eye(2), 1.0, 1.0, 1)

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
        z = 1.1 * np.exp(0.7j)
        q = MomentQuery(z=z, g=(0.9,), m=2)
        est = moment_pfaffian_integral(q, RngStream(13), samples=300)
        assert est.z_score(o1_enumeration(z, 0.9, 2)) <= 3.0

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

    def test_complex_z_needs_rng(self):
        with pytest.raises(ConfigError):
            moment_pfaffian_integral(MomentQuery(z=1.0j, g=(1.0,), m=2))


def explicit_u_average(query, rng, samples, u_chunk=8):
    """The complex-z m = 2 route with every Z = U Sigma U^T and 8x8 kernel built.

    Same U(4) draws, in the same order, as ``moment_pfaffian_integral``;
    kept as the oracle for its closed-form kernel Pfaffians.
    """
    t_pairs, t_weights = _radial_grid(query.n, 2)
    sigma = _skew_sigma_blocks(t_pairs)
    den = complex(_pf_product(sigma, np.zeros(query.n), 1.0, 2) @ t_weights)
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
        fg = _pf_product(z_all, query.g, query.z, 2).reshape(b, -1)
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
        est = moment_pfaffian_integral(q, RngStream(32), samples=40)
        mean, se = explicit_u_average(q, RngStream(32), samples=40)
        assert est.samples == 40
        assert est.mean.real == pytest.approx(mean, rel=1e-12)
        assert est.std_error == pytest.approx(se, rel=1e-9)
