import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from jacobi_oracles import (
    abs_vandermonde, alpha_closed, alpha_entry_quadrature, fancy_index_ginibre_rows, h_closed,
    inner_pfaffian, inner_symmetrized, mehta_determinant, slab_inner_moments,
)
from ocft import jacobi
from ocft._quad import gauss_legendre_01, half_line_moments
from ocft.errors import ConfigError, DomainError
from ocft.haar import RngStream, _batch_rows, stream_mean
from ocft.jacobi import _pfaffian_moments, _s_ratio
from ocft.jacobi import (
    MAX_PFAFFIAN_AB,
    MAX_PFAFFIAN_N,
    MAX_SELBERG_AB,
    MAX_SELBERG_N,
    JacobiQuery,
    gaussian_inner_moments,
    ginibre_closed,
    ginibre_mc,
    ginibre_pipeline,
    jacobi_inner_moments,
    jacobi_pfaffian,
    jacobi_quadrature,
)
from ocft.linalg import det_stack, elementary_symmetric_all, pfaffian

# the slab oracle's size on nodes^N grid points, kept to seconds and tens of MiB
SLAB_BUDGET = 2**21


def closed_float(n, a, b):
    return np.array(jacobi_inner_moments(n, a, b), dtype=float)


def rule_nodes(n, a, b):
    """ceil((d+1)/2) for the integrand degree d = n^2 + 2n - 1 + 2n(a+b) in u_1."""
    return math.ceil((n * n + 2 * n + 2 * n * (a + b)) / 2)


def full_grid_moments(n, weight, nodes, half_line=False):
    """The inner moments as one sum over the full nodes^n product grid.

    The unit cube maps to the ordered sector through g_i = prod_{k<=i} u_k
    (u_1 -> u_1/(1-u_1) on the half-line), with Jacobian
    g_1^{n-1} prod_{k>=2} u_k^{n-k}: the same nodes and weights as the slab
    route, summed in another order.
    """
    x, w = gauss_legendre_01(nodes)
    cube = np.stack([gr.ravel() for gr in np.meshgrid(*([x] * n), indexing="ij")], axis=1)
    weights = np.prod(
        np.stack([wg.ravel() for wg in np.meshgrid(*([w] * n), indexing="ij")], axis=1),
        axis=1,
    )
    u = cube.copy()
    if half_line:
        u[:, 0] = cube[:, 0] / (1.0 - cube[:, 0])
        weights = weights / (1.0 - cube[:, 0]) ** 2
    g = np.cumprod(u, axis=1)
    jac = u[:, 0] ** (n - 1)
    for k in range(2, n + 1):
        jac = jac * cube[:, k - 1] ** (n - k)
    xs = g**2
    base = weights * jac * abs_vandermonde(xs) * np.prod(weight(xs), axis=1)
    return math.factorial(n) * (base @ elementary_symmetric_all(xs))


def traced_peak_mb(fn, *args):
    """Peak traced allocation of one call, in MiB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestH:
    def test_unit_values(self):
        assert h_closed(0, 0, 1.0) == pytest.approx(1.0)
        assert h_closed(1, 0, 1.0) == pytest.approx(1.0 / 3.0)
        assert h_closed(0, 1, 1.0) == pytest.approx(2.0 / 3.0)

    def test_against_quadrature(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.integers(0, 4) + rng.choice([0.0, 0.5])
            b = int(rng.integers(0, 4))
            x = rng.uniform(0.1, 1.0)
            direct, _ = integrate.quad(
                lambda g: g ** (2 * a) * (1 - g**2) ** b, 0.0, x
            )
            assert h_closed(a, b, x) == pytest.approx(direct, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            h_closed(0, 0, 1.5)
        with pytest.raises(DomainError):
            h_closed(-1.0, 0, 0.5)


class TestAlpha:
    def test_diagonal_vanishes(self):
        for i in (0, 2):
            assert alpha_closed(i, i, 1, 1, 0.7, 1.3) == 0.0

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            i, j = rng.integers(0, 5, size=2)
            a, b = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            r, lg = rng.uniform(0, 2), rng.uniform(0.5, 2)
            assert alpha_closed(i, j, a, b, r, lg) == -alpha_closed(j, i, a, b, r, lg)

    def test_elementary_value(self):
        assert alpha_closed(0, 1, 0, 0, 0.0, 1.0) == pytest.approx(-1.0 / 6.0)

    @pytest.mark.parametrize("a", [0, 1, 2])
    @pytest.mark.parametrize("b", [0, 1, 2])
    def test_closed_matches_defining_integral(self, a, b):
        for (i, j) in [(0, 1), (1, 3), (2, 4)]:
            for r in (0.0, 0.5, 2.0):
                for lg in (0.5, 1.0, 3.0):
                    closed = alpha_closed(i, j, a, b, r, lg)
                    direct = alpha_entry_quadrature(i, j, a, b, r, lg)
                    assert closed == pytest.approx(direct, rel=1e-6, abs=1e-14)


class TestInnerOracles:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_three_routes_agree(self, n):
        for (a, b) in [(0, 0), (1, 1), (2, 1)]:
            for c in (0.0, 0.7, 2.5):
                sym = inner_symmetrized(n, a, b, c)
                pf = inner_pfaffian(n, a, b, c)
                md = mehta_determinant(JacobiQuery(1, 1, a, b, n), c)
                assert complex(sym) == pytest.approx(complex(pf), rel=1e-12)
                assert complex(sym) == pytest.approx(complex(md), rel=1e-12)

    def test_mehta_single_variable(self):
        # N=1 reduces to the plain 1-D integral of W(g^2)(1 + r g^2)
        q = JacobiQuery(1, 1, 1, 2, 1)
        r = 0.8
        direct, _ = integrate.quad(
            lambda g: g**2 * (1 - g**2) ** 2 * (1 + r * g**2), 0.0, 1.0
        )
        assert mehta_determinant(q, r) == pytest.approx(direct, rel=1e-10)


class TestSlabGrid:
    # n = 5 only fits the oracle's budget at a = b = 0; its 18-node rule is
    # exact for the degree-34 integrand, but float64 Gauss-Legendre nodes on
    # [0, 1] integrate x^35 to 2.9e-14 relative, which sets the rounding
    # floor there.  Past the budget the Pfaffian route is the reference.
    @pytest.mark.parametrize(
        "n, rtol", [(1, 1e-14), (2, 1e-14), (3, 2e-14), (4, 1e-14), (5, 3e-14)]
    )
    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    @pytest.mark.parametrize("b", [0, 1, 2, 3])
    def test_inner_moments_match_aomoto(self, n, rtol, a, b):
        if rule_nodes(n, a, b) ** max(n, 2) > SLAB_BUDGET:
            assert jacobi_inner_moments(n, a, b) == _pfaffian_moments(n, a, b)
            return
        m = slab_inner_moments(n, a, b)
        np.testing.assert_allclose(m / m[0], closed_float(n, a, b), rtol=rtol, atol=0)

    def test_large_exponents_match_aomoto(self):
        # 128^3 = 2^21 nodes, the edge of the budget
        m = slab_inner_moments(3, 20, 20)
        np.testing.assert_allclose(m / m[0], closed_float(3, 20, 20), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("a, b", [(0, 0), (1, 2), (2, 1)])
    def test_matches_full_grid_jacobi(self, n, a, b):
        full = full_grid_moments(n, lambda x: x**a * (1 - x) ** b, rule_nodes(n, a, b))
        slab = slab_inner_moments(n, a, b)
        np.testing.assert_allclose(slab / slab[0], full / full[0], rtol=1e-12, atol=0)

    def test_quadrature_memory_at_cap(self):
        # the full 32^4 grid of the old nested quadrature peaked at 192 MiB
        peak = traced_peak_mb(jacobi_quadrature, JacobiQuery(1.5, 0.7, 1, 2, MAX_SELBERG_N))
        assert peak < 32.0

    def test_mehta_memory_at_cap(self):
        # the full 32^4 grid of 4 x 4 complex matrices peaked at 472 MiB
        peak = traced_peak_mb(mehta_determinant, JacobiQuery(1, 1, 2, 1, 4), 0.7)
        assert peak < 64.0

    def test_mehta_matches_symmetrized_at_cap(self):
        md = mehta_determinant(JacobiQuery(1, 1, 1, 1, 4), 0.7)
        sym = inner_symmetrized(4, 1, 1, 0.7)
        assert complex(md) == pytest.approx(complex(sym), rel=1e-12)


class TestPfaffianMoments:
    # the exact route must equal Aomoto's rationals; the second parameter is
    # the relative error that the float circle-sampled Pfaffian route was
    # allowed at that N, and stays only as part of each case's id
    @pytest.mark.parametrize(
        "n, float_rtol", [(1, 1e-14), (2, 5e-14), (3, 1.5e-13), (4, 2e-11), (5, 3e-9), (6, 1e-8)]
    )
    @pytest.mark.parametrize("a", [0, 1, 2])
    @pytest.mark.parametrize("b", [0, 1, 2])
    def test_match_aomoto(self, n, float_rtol, a, b):
        assert _pfaffian_moments(n, a, b) == jacobi_inner_moments(n, a, b)

    def test_exact_up_to_ten(self):
        for n in range(1, 11):
            for a in range(4):
                for b in range(4):
                    assert _pfaffian_moments(n, a, b) == jacobi_inner_moments(n, a, b), (n, a, b)

    def test_exact_at_cap(self):
        for a, b in [(2, 3), (MAX_PFAFFIAN_AB // 2, MAX_PFAFFIAN_AB // 2)]:
            moments = _pfaffian_moments(MAX_PFAFFIAN_N, a, b)
            assert all(isinstance(m, Fraction) for m in moments)
            assert moments == jacobi_inner_moments(MAX_PFAFFIAN_N, a, b)
            q = JacobiQuery(1.5, 1.2, a, b, MAX_PFAFFIAN_N)
            assert jacobi_quadrature(q) == jacobi_pfaffian(q)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_match_inner_quadrature(self, n):
        for a, b in [(0, 0), (1, 2), (2, 1), (2, 2)]:
            quad = slab_inner_moments(n, a, b)
            np.testing.assert_allclose(
                np.array(_pfaffian_moments(n, a, b), dtype=float), quad / quad[0],
                rtol=1e-14, atol=0,
            )

    def test_ratios_hold_at_cap(self):
        q = JacobiQuery(1.08 * np.exp(0.4j), 1.0, 1, 2, MAX_PFAFFIAN_N)
        exact = jacobi_inner_moments(MAX_PFAFFIAN_N, 1, 2)
        moments = _pfaffian_moments(MAX_PFAFFIAN_N, 1, 2)
        assert _s_ratio(moments, q.lg, 0.15) == pytest.approx(
            _s_ratio(exact, q.lg, 0.15), rel=1e-14
        )
        assert jacobi_pfaffian(q) == pytest.approx(_s_ratio(exact, q.lg, 1.0), rel=1e-14)

    def test_one_pfaffian_per_coefficient(self, monkeypatch):
        import ocft.jacobi

        calls = []

        def counted(kernel):
            calls.append(kernel.shape)
            return pfaffian(kernel)

        monkeypatch.setattr(ocft.jacobi, "pfaffian", counted)
        for n in range(1, 9):
            calls.clear()
            jacobi_pfaffian(JacobiQuery(1.5, 1.2, 1, 1, n))
            assert len(calls) == n + 1

    def test_cap(self):
        with pytest.raises(ConfigError):
            jacobi_pfaffian(JacobiQuery(1.5, 1.2, 0, 0, MAX_PFAFFIAN_N + 1))
        with pytest.raises(ConfigError):
            jacobi_pfaffian(JacobiQuery(1.5, 1.2, MAX_PFAFFIAN_AB, 1, 2))


class TestFullRatios:
    def test_self_ratio_is_one(self):
        q = JacobiQuery(1.0, 1.0, 1, 1, 3)
        assert jacobi_pfaffian(q) == pytest.approx(1.0, rel=1e-12)

    def test_n1_closed_ratio(self):
        # N=1, a=b=0: S(lg) ~ lg/2 + 1/6, so S(2)/S(1) = 7/4
        q = JacobiQuery(2.0, 1.0, 0, 0, 1)
        assert jacobi_pfaffian(q) == pytest.approx(1.75, rel=1e-10)
        assert jacobi_quadrature(q) == pytest.approx(1.75, rel=1e-10)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_pfaffian_matches_quadrature(self, n):
        # to the bit: the same exact moments through the same _s_ratio.  The
        # nested quadrature that the closed form replaced refused N >= 6 and
        # (4, 6, 6) over its 2^21-node budget
        for a, b in [(a, b) for a in range(4) for b in range(4)] + [(6, 6)]:
            q = JacobiQuery(1.08 * np.exp(0.4j), 1.2, a, b, n)
            assert jacobi_pfaffian(q) == jacobi_quadrature(q), (a, b)

    def test_both_routes_match_aomoto(self):
        # the Pfaffian route against the closed form, the closed form against
        # the slab oracle; at (2, 260, 260) the oracle's unscaled weight
        # product would be subnormal in float64
        q = JacobiQuery(1.5, 1.2, 20, 20, 4)
        exact = _s_ratio(jacobi_inner_moments(4, 20, 20), q.lg, 1.0)
        assert jacobi_pfaffian(q) == pytest.approx(exact, rel=1e-14)
        for n, a, b in [(4, 2, 3), (3, 20, 20), (2, 260, 260)]:
            q = JacobiQuery(1.5, 1.2, a, b, n)
            slab = _s_ratio(slab_inner_moments(n, a, b), q.lg, 1.0)
            assert jacobi_quadrature(q) == pytest.approx(slab, rel=1e-14)

    def test_depends_on_product_only(self):
        a = jacobi_pfaffian(JacobiQuery(2.0, 0.9, 1, 1, 2))
        b = jacobi_pfaffian(JacobiQuery(0.6, 3.0, 1, 1, 2))
        assert a == pytest.approx(b, rel=1e-10)

    def test_symmetric_in_lambda_gamma(self):
        a = jacobi_quadrature(JacobiQuery(2.0, 0.9, 0, 1, 2))
        b = jacobi_quadrature(JacobiQuery(0.9, 2.0, 0, 1, 2))
        assert a == pytest.approx(b, rel=1e-12)

    def test_complex_spectral_parameters(self):
        # gamma = conj(lambda) gives a positive product; a rotated pair gives
        # a genuinely complex one; both routes must agree either way
        for lam, gam in [(1.0 + 0.5j, 1.0 - 0.5j), (1.2 * np.exp(0.4j), 0.9)]:
            q = JacobiQuery(lam, gam, 1, 1, 2)
            pf = jacobi_pfaffian(q)
            qd = jacobi_quadrature(q)
            assert complex(pf) == pytest.approx(complex(qd), rel=1e-14)

    def test_zero_product_paths(self):
        assert _s_ratio(slab_inner_moments(2, 0, 0), 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)
        # lg = 0 as the query and as the reference: the exact moments and the
        # slab oracle's take it alike
        for n in (1, 2, 3, 4):
            pfaffian_route, slab = _pfaffian_moments(n, 1, 2), slab_inner_moments(n, 1, 2)
            for lg in (1.8, 0.15, 8.0, 1.08 * np.exp(0.4j)):
                for query, reference in ((0.0, lg), (lg, 0.0)):
                    assert _s_ratio(pfaffian_route, query, reference) == pytest.approx(
                        _s_ratio(slab, query, reference), rel=1e-13
                    )
        zero = JacobiQuery(0.0, 1.0, 1, 2, 3)
        assert jacobi_pfaffian(zero) == pytest.approx(jacobi_quadrature(zero), rel=1e-13)

    def test_quadrature_cap(self):
        # (N+1) binom(N, N/2) overflows float64 one past the cap, whatever a, b are
        for a, b in [(0, 0), (MAX_SELBERG_AB, 0), (0, MAX_SELBERG_AB)]:
            value = jacobi_quadrature(JacobiQuery(1.5, 0.7, a, b, MAX_SELBERG_N))
            assert math.isfinite(value.real) and value.imag == 0.0
        for n, a, b in [(MAX_SELBERG_N + 1, 0, 0), (1, MAX_SELBERG_AB, 1)]:
            with pytest.raises(ConfigError, match="capped"):
                jacobi_quadrature(JacobiQuery(1.5, 0.7, a, b, n))
        # refused before the exact products, which would take hours here
        with pytest.raises(ConfigError, match="capped"):
            jacobi_inner_moments(10**9, 0, 0)

    def test_unusable_reference_is_a_config_error(self):
        with pytest.raises(ConfigError):
            _s_ratio([0.0, 0.0, 0.0], 1.5, 1.0)
        with pytest.raises(ConfigError):
            _s_ratio([1.0, math.inf], 1.5, 1.0)
        with pytest.raises(ConfigError):
            _s_ratio([1.0, 1.0, 1.0], 1e300, 1.0)

    def test_integer_valued_float_exponents(self):
        exact = jacobi_pfaffian(JacobiQuery(1.5, 1.2, 2, 1, 2))
        for method in (jacobi_pfaffian, jacobi_quadrature):
            assert method(JacobiQuery(1.5, 1.2, 2.0, 1.0, 2)) == pytest.approx(exact, rel=1e-14)

    def test_query_validation(self):
        with pytest.raises(DomainError):
            JacobiQuery(1.0, 1.0, -1, 0, 2)
        with pytest.raises(DomainError):
            JacobiQuery(1.0, 1.0, 0, 0, 0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 1.5, 2 + 0j, "2"])
    @pytest.mark.parametrize("field", ["a", "b", "n"])
    def test_query_refuses_a_non_integer(self, field, value):
        args = {"lam": 1.5, "gam": 1.2, "a": 1, "b": 2, "n": 3, field: value}
        with pytest.raises(DomainError, match="finite integer"):
            JacobiQuery(**args)

    def test_query_stores_python_ints(self):
        q = JacobiQuery(1.5, 1.2, 2.0, np.int64(1), np.float64(3.0))
        assert (q.a, q.b, q.n) == (2, 1, 3)
        assert all(type(v) is int for v in (q.a, q.b, q.n))
        assert jacobi_quadrature(q) == jacobi_quadrature(JacobiQuery(1.5, 1.2, 2, 1, 3))


class TestGinibre:
    def test_closed_values(self):
        assert ginibre_closed(1.0, 1.0, 1) == pytest.approx(2.0)
        lg = 0.7
        assert ginibre_closed(0.7, 1.0, 2) == pytest.approx(1 + lg + lg**2 / 2)

    def test_zero_product(self):
        assert ginibre_closed(0.0, 1.0, 3) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_pipeline_matches_closed(self, n):
        for lg in (0.5, 1.0, 2.0, 1.0 + 2.0j):
            pipe = ginibre_pipeline(lg, 1.0, n)
            assert pipe == pytest.approx(ginibre_closed(lg, 1.0, n), rel=1e-12)

    def test_pipeline_size_cap(self):
        # exact up to N = 166; the float Aomoto moments overflow at N = 167
        for lg in (0.5, 1.0, 2.0, 1.0 + 2.0j, 10.0):
            assert ginibre_pipeline(lg, 1.0, 166) == pytest.approx(
                ginibre_closed(lg, 1.0, 166), rel=1e-12
            )
        with pytest.raises(ConfigError):
            ginibre_pipeline(1.0, 1.0, 167)

    @pytest.mark.parametrize("n", [1, 10, 50])
    def test_routes_agree_exactly_on_a_negative_grid(self, n):
        # the alternating sum at lg = -1, -1.5, ..., -44.5: both routes round
        # the exact rational sum_k lg^k / k! once, so they are equal; in float
        # arithmetic 8 of these 88 points missed 1e-6 at N = 50
        for lg in np.arange(-1.0, -45.0, -0.5):
            exact = sum(Fraction(lg) ** k / math.factorial(k) for k in range(n + 1))
            closed = ginibre_closed(lg, 1.0, n)
            assert closed == ginibre_pipeline(lg, 1.0, n) == complex(float(exact))

    def test_complex_lg_is_rounded_once(self):
        rng = np.random.default_rng(51)
        for n in (1, 7, 50):
            lam, gam = (complex(*rng.normal(0, 4, 2)) for _ in range(2))
            lg = (Fraction(lam.real), Fraction(lam.imag))
            lg = (lg[0] * Fraction(gam.real) - lg[1] * Fraction(gam.imag),
                  lg[0] * Fraction(gam.imag) + lg[1] * Fraction(gam.real))
            re = im = Fraction(0)
            power = (Fraction(1), Fraction(0))
            for k in range(n + 1):
                re += power[0] / math.factorial(k)
                im += power[1] / math.factorial(k)
                power = (power[0] * lg[0] - power[1] * lg[1],
                         power[0] * lg[1] + power[1] * lg[0])
            want = complex(float(re), float(im))
            assert ginibre_closed(lam, gam, n) == ginibre_pipeline(lam, gam, n) == want

    def test_non_finite_input_is_config_error(self):
        for lam in (math.inf, math.nan, complex(1.0, math.inf)):
            for route in (ginibre_closed, ginibre_pipeline):
                with pytest.raises(ConfigError, match="finite"):
                    route(lam, 1.0, 3)

    @pytest.mark.parametrize("n, rows", [(1, 20_000), (2, 20_000), (3, 20_000),
                                         (4, 16_384), (50, 104)])
    def test_mc_batches_hold_the_entry_budget(self, monkeypatch, n, rows):
        # N^2 Gaussians per draw, at most haar.BATCH_ENTRIES per batch
        batches = []

        def spy(values, samples, rng, *, entries):
            batches.append(_batch_rows(entries))
            return stream_mean(values, samples, rng, entries=entries)

        monkeypatch.setattr(jacobi, "stream_mean", spy)
        ginibre_mc(1.0, 1.0, n, 2, RngStream(0))
        assert batches == [rows] == [_batch_rows(n * n)]

    def test_mc_det_scaling_is_exact(self):
        # dets scaled by a power of two give the unscaled ratio bit for bit
        n, samples = 6, 500
        eye = np.eye(n)

        def values(gen, b):
            mats = gen.standard_normal((b, n, n))
            num = det_stack(eye - mats) * det_stack(2.0 * eye - mats)
            return np.stack([num, det_stack(mats) ** 2], axis=1)

        (mean_n, mean_d), _ = stream_mean(values, samples, RngStream(3), entries=n * n)
        assert ginibre_mc(1.0, 2.0, n, samples, RngStream(3)).mean == mean_n / mean_d

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_mc_in_place_shift_is_exact(self, n):
        # batches drawn ahead, shifted in place: the bits of x - A in new arrays
        lam, gam, samples = 1.5, -0.7, 40_007
        eye = np.eye(n)

        def values(gen, b):
            mats = gen.standard_normal((b, n, n))
            num = det_stack(lam * eye - mats) * det_stack(gam * eye - mats)
            den = det_stack(mats) ** 2
            return np.stack([num, den], axis=1)

        # in the route's batches, whose grouping of the row sums it shares
        (mean_n, mean_d), _ = stream_mean(values, samples, RngStream(4), entries=n * n)
        assert ginibre_mc(lam, gam, n, samples, RngStream(4)).mean == mean_n / mean_d

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("lam, gam", [(1.5, -0.7), (0.9 + 0.4j, 1.2)])
    def test_strided_diagonal_gives_the_fancy_index_bits(self, monkeypatch, n, lam, gam):
        # two batches of the route's size or more, the last partial; the sums
        # stream_mean hands back
        rows = _batch_rows(n * n)
        samples, sums = 25_001, []

        def recorded(values, samples, rng, *, entries):
            assert _batch_rows(entries) == rows
            sums.append(stream_mean(values, samples, rng, entries=entries))
            return sums[-1]

        def oracle(gen, b):
            return fancy_index_ginibre_rows(gen.standard_normal((b, n, n)), lam, gam)

        monkeypatch.setattr(jacobi, "stream_mean", recorded)
        ginibre_mc(lam, gam, n, samples, RngStream(60 + n))
        want = stream_mean(oracle, samples, RngStream(60 + n), entries=n * n)
        for got, want in zip(sums[0], want):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_mc_real_shift_matches_complex_arithmetic(self, n):
        # lg with a zero imaginary part runs in float64; 1e-300j keeps complex
        real = ginibre_mc(1 + 0j, 1 + 0j, n, 3000, RngStream(20 + n))
        cplx = ginibre_mc(1 + 1e-300j, 1 + 0j, n, 3000, RngStream(20 + n))
        assert real.mean.imag == 0.0
        assert real.mean == pytest.approx(cplx.mean, rel=1e-12)
        assert real.std_error == pytest.approx(cplx.std_error, rel=1e-12)

    def test_mc_complex_shift(self):
        est = ginibre_mc(0.9 + 0.4j, 1.0, 3, 3000, RngStream(9))
        assert np.isfinite(est.mean) and est.mean.imag != 0.0
        assert np.isfinite(est.std_error) and est.std_error > 0.0

    def test_closed_overflow_is_config_error(self):
        with pytest.raises(ConfigError, match="overflow"):
            ginibre_closed(1e200, 1.0, 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mc_overflow_is_config_error(self):
        # lg = 1 has a finite closed form, but det(1e100 - A) overflows at N = 4
        assert ginibre_closed(1e100, 1e-100, 4) == pytest.approx(65.0 / 24.0)
        with pytest.raises(ConfigError, match="overflow"):
            ginibre_mc(1e100, 1e-100, 4, 2000, RngStream(0))

    def test_mc_matches_closed(self):
        est = ginibre_mc(1.0, 1.0, 2, 150_000, RngStream(7))
        assert est.z_score(ginibre_closed(1.0, 1.0, 2)) <= 3.0

    def test_mc_standard_error_is_bessel_corrected(self):
        # at N = 1 the delta-method error is the spread of num - R den
        samples = 50
        lam, gam = 0.7 + 0.4j, 1.3 - 0.9j
        est = ginibre_mc(lam, gam, 1, samples, RngStream(33))
        a = RngStream(33).generator().standard_normal(samples)
        num, den = (lam - a) * (gam - a), a**2
        ratio = num.mean() / den.mean()
        se = np.std(num - ratio * den, ddof=1) / np.sqrt(samples) / den.mean()
        assert est.mean == pytest.approx(ratio, rel=1e-12)
        assert est.std_error == pytest.approx(se, rel=1e-10)

    def test_finite_r_domain_breaks_n1(self):
        # restricting the radial integral to [0, 1] is inconsistent with the
        # exact N=1 ratio 1 + lg; the [0, inf) domain is the correct reading
        lg = 1.0
        m = gaussian_inner_moments(1)
        t, w = gauss_legendre_01(64)
        wgt = w * (1 + t) ** (-3.0)
        s = lambda lgv: wgt @ (m[0] * lgv + m[1] * t)
        truncated = s(lg) / s(0.0)
        assert abs(truncated - 2.0) > 0.25  # far from the exact ratio
        assert ginibre_pipeline(1.0, 1.0, 1) == pytest.approx(2.0, rel=1e-8)


class TestHalfLineMoments:
    @pytest.mark.parametrize("n", range(9))
    def test_matches_adaptive_quadrature(self, n):
        exact = half_line_moments(n)
        assert exact.shape == (n + 1,)
        for k in range(n + 1):
            ref, _ = integrate.quad(
                lambda r: r**k * (1.0 + r) ** (-(n + 2.0)), 0.0, np.inf,
                epsabs=0.0, epsrel=1e-13, limit=200,
            )
            assert exact[k] == pytest.approx(ref, rel=1e-12)


class TestGaussianInnerMoments:
    # nested Gauss-Legendre quadrature on the half-line, with u_1 -> u_1/(1-u_1)
    # and 128, 64 and 48 nodes per axis: not exact, hence the tolerances
    @pytest.mark.parametrize("n, rtol", [(1, 1e-12), (2, 1e-10), (3, 1e-6)])
    def test_closed_form_matches_nested_quadrature(self, n, rtol):
        nodes = {1: 128, 2: 64, 3: 48}[n]
        nested = full_grid_moments(n, lambda x: np.exp(-0.5 * x), nodes, half_line=True)
        np.testing.assert_allclose(
            nested / nested[0], gaussian_inner_moments(n), rtol=rtol
        )

    def test_small_values(self):
        assert list(gaussian_inner_moments(1)) == [1.0, 1.0]
        assert list(gaussian_inner_moments(3)) == [1.0, 9.0, 18.0, 6.0]
