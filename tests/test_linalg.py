import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from ocft import linalg
from ocft.haar import RngStream, sample_orthogonal_batch
from ocft.errors import DimensionError, DomainError, ShapeError
from random_inputs import random_skew


class TestPfaffian:
    def test_2x2_is_upper_entry(self):
        a = [[0, 3 + 4j], [-3 - 4j, 0]]
        assert linalg.pfaffian(a) == pytest.approx(3 + 4j)

    def test_4x4_block_diagonal(self):
        a = np.zeros((4, 4), dtype=complex)
        a[0, 1], a[1, 0] = 1.0, -1.0
        a[2, 3], a[3, 2] = 2.0, -2.0
        assert linalg.pfaffian(a) == pytest.approx(2.0)

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionError):
            linalg.pfaffian(np.zeros((3, 3)))

    def test_non_skew_rejected(self):
        with pytest.raises(ShapeError):
            linalg.pfaffian(np.eye(4))

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_square_equals_determinant(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            a = random_skew(n, rng)
            pf = linalg.pfaffian(a)
            det = linalg.determinant(a)
            assert pf**2 == pytest.approx(det, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_congruence_transformation(self, n):
        rng = np.random.default_rng(200 + n)
        a = random_skew(n, rng)
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lhs = linalg.pfaffian(b @ a @ b.T)
        rhs = linalg.determinant(b) * linalg.pfaffian(a)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_zero_dimension(self):
        assert linalg.pfaffian(np.zeros((0, 0))) == 1.0

    def test_rational_input_is_exact(self):
        # pf = a01 a23 - a02 a13 + a03 a12 for a 4 x 4 skew matrix
        rng = np.random.default_rng(17)
        upper = {(i, j): Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
                 for i in range(4) for j in range(i + 1, 4)}
        a = np.full((4, 4), Fraction(0), dtype=object)
        for (i, j), v in upper.items():
            a[i, j], a[j, i] = v, -v
        u = upper
        expected = u[0, 1] * u[2, 3] - u[0, 2] * u[1, 3] + u[0, 3] * u[1, 2]
        value = linalg.pfaffian(a)
        assert isinstance(value, Fraction) and value == expected
        # the input is left as it was, and a zero pivot gives an exact zero
        assert a[0, 1] == upper[0, 1]
        a[0, 1:] = a[1:, 0] = Fraction(0)
        assert linalg.pfaffian(a) == 0 and isinstance(linalg.pfaffian(a), Fraction)


class TestDeterminant:
    def test_identity(self):
        assert linalg.determinant(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert linalg.determinant(np.diag([2.0, 3.0j])) == pytest.approx(6.0j)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            linalg.determinant(np.zeros((2, 3)))

    def test_matches_numpy_for_larger(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5))
        assert linalg.determinant(a) == pytest.approx(np.linalg.det(a), rel=1e-12)

    @pytest.mark.parametrize("n", range(6))
    def test_returns_complex(self, n):
        rng = np.random.default_rng(80 + n)
        value = linalg.determinant(rng.standard_normal((n, n)))
        assert type(value) is complex


class TestDetStack:
    @staticmethod
    def well_conditioned(shape, n, rng, complex_entries):
        a = rng.standard_normal(shape + (n, n))
        if complex_entries:
            a = a + 1j * rng.standard_normal(shape + (n, n))
        return a + 3.0 * np.eye(n)

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_matches_lapack(self, n, complex_entries):
        rng = np.random.default_rng(40 + n)
        a = self.well_conditioned((500,), n, rng, complex_entries)
        det = linalg.det_stack(a)
        np.testing.assert_allclose(det, np.linalg.det(a), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_negated_stack_flips_sign_exactly(self, n):
        # det(-A) = (-1)^n det(A) to the bit, for the cofactor formulas and LU
        a = np.random.default_rng(60 + n).standard_normal((500, n, n))
        np.testing.assert_array_equal(linalg.det_stack(-a), (-1) ** n * linalg.det_stack(a))

    @pytest.mark.parametrize("n", range(7))
    def test_dtype_is_kept(self, n):
        rng = np.random.default_rng(50 + n)
        real = rng.standard_normal((3, n, n))
        assert linalg.det_stack(real).dtype == np.float64
        assert linalg.det_stack(real.astype(complex)).dtype == np.complex128
        assert linalg.det_stack(real.astype(int)).dtype == np.float64

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("shape", [(), (23,), (4, 9), (2, 3, 5)])
    def test_tiles_give_the_strided_formula_bits(self, monkeypatch, n, complex_entries,
                                                 shape):
        a = self.well_conditioned(shape, n, np.random.default_rng(70 + n), complex_entries)
        # tiles of 7 matrices, which divide none of the stacks
        monkeypatch.setattr(linalg, "TILE_ENTRIES", 7 * n * n)
        for stack in (a, np.swapaxes(a, -1, -2)):
            det = linalg.det_stack(stack)
            assert np.shape(det) == shape
            np.testing.assert_array_equal(det, strided_det_polynomial(stack))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_complex_bits_do_not_depend_on_the_stack_length(self, n):
        # at the real tile size: numpy multiplies complex temporaries of
        # 256 KiB or more in place, which rounds differently, and the strided
        # formula on this stack moves thousands of determinants at n = 3
        a = self.well_conditioned((40_000,), n, np.random.default_rng(80 + n), True)
        cuts = [0, 7, 12_345, 12_346, 40_000]
        split = [linalg.det_stack(a[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        np.testing.assert_array_equal(linalg.det_stack(a), np.concatenate(split))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exact_on_integer_matrices(self, n):
        # the cofactor and Laplace formulas of small integers are exact in float64
        rng = np.random.default_rng(60 + n)
        a = rng.integers(-5, 6, size=(200, n, n))
        exact = [_leibniz(m.tolist()) for m in a]
        assert linalg.det_stack(a).tolist() == exact
        # a repeated row or column gives an exact zero
        if n > 1:
            a[:, -1] = a[:, 0]
            assert not linalg.det_stack(a).any()
            assert not linalg.det_stack(np.swapaxes(a, 1, 2)).any()

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("z", [1.3, 0.9 + 0.4j])
    def test_laplace_error_is_bounded_by_the_row_norms(self, n, z):
        # z - GO as moment --method mc builds it: |Laplace - LU| is a few
        # roundings of the largest term, at most 4 eps prod_i |row_i|
        o = sample_orthogonal_batch(n, 20_000, RngStream(90 + n))
        g = np.linspace(0.5, 1.4, n)[:, None]
        mats = z * np.eye(n) - g * o
        bound = 4 * np.finfo(float).eps * np.prod(np.linalg.norm(mats, axis=2), axis=1)
        assert (np.abs(linalg.det_stack(mats) - np.linalg.det(mats)) <= bound).all()

    def test_laplace_reads_column_layout_tiles_in_place(self):
        # entry vectors a[:, i, j] contiguous: the layout the Haar tiles give
        cols = np.random.default_rng(91).standard_normal((6, 6, 50))
        a = cols.transpose(2, 1, 0)
        entries = np.transpose(a, (2, 1, 0)).reshape(36, 50)
        assert np.shares_memory(entries, cols)
        np.testing.assert_array_equal(linalg.det_stack(a),
                                      linalg.det_stack(np.ascontiguousarray(a)))

    @pytest.mark.parametrize("n", range(7))
    def test_leading_batch_axes(self, n):
        rng = np.random.default_rng(70 + n)
        a = self.well_conditioned((2, 3), n, rng, True)
        det = linalg.det_stack(a)
        assert det.shape == (2, 3)
        flat = linalg.det_stack(a.reshape((6, n, n)))
        np.testing.assert_array_equal(det.ravel(), flat)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            linalg.det_stack(np.zeros((4, 2, 3)))
        with pytest.raises(DimensionError):
            linalg.det_stack(np.zeros(3))


class TestTileSlices:
    @pytest.mark.parametrize("count, sizes", [(0, []), (1, [1]), (2, [2]), (14, [7, 7]),
                                              (15, [7, 8]), (16, [7, 7, 2])])
    def test_tiles_cover_the_stack_with_no_single_item_tile(self, monkeypatch, count, sizes):
        monkeypatch.setattr(linalg, "TILE_ENTRIES", 7 * 36)
        tiles = linalg.tile_slices(count, 36)
        assert [t.stop - t.start for t in tiles] == sizes
        assert [i for t in tiles for i in range(count)[t]] == list(range(count))

    def test_tiles_hold_at_least_two_items(self):
        sizes = [t.stop - t.start for t in linalg.tile_slices(5, linalg.TILE_ENTRIES + 1)]
        assert sizes == [2, 3]
        assert len(linalg.tile_slices(20_000, 36)) == 6  # 3,640 draws of 6 x 6


def _leibniz(m):
    """Determinant of a list-of-lists integer matrix by permutation sum."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def strided_det_polynomial(a):
    """det_stack's formulas on strided views of the whole (..., n, n) stack,
    as it evaluated them before it took tiles: the oracle for the bits of the
    tiled evaluation.  One 5 x 5 or 6 x 6 matrix is taken as a stack of one."""
    n = a.shape[-1]
    if n >= 5:
        return strided_laplace(a[None])[0] if a.ndim == 2 else strided_laplace(a)
    e = [[a[..., i, j] for j in range(n)] for i in range(n)]
    if n == 1:
        return e[0][0].copy()
    if n == 2:
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]
    if n == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = e
        return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)

    def minor(r, j, k):
        return e[r][j] * e[r + 1][k] - e[r][k] * e[r + 1][j]

    return (
        minor(0, 0, 1) * minor(2, 2, 3)
        - minor(0, 0, 2) * minor(2, 1, 3)
        + minor(0, 0, 3) * minor(2, 1, 2)
        + minor(0, 1, 2) * minor(2, 0, 3)
        - minor(0, 1, 3) * minor(2, 0, 2)
        + minor(0, 2, 3) * minor(2, 0, 1)
    )


def strided_laplace(a):
    """The row-prefix Laplace expansion, one minor at a time: the minor of
    rows 0..k-1 on columns T is the alternating sum over j of a[k-1, T[j]]
    times the minor on T - T[j], summed left to right, which is
    (-1)^(k(k-1)/2) times the minor."""
    n = a.shape[-1]
    minors = {(j,): a[..., 0, j] for j in range(n)}
    for k in range(2, n + 1):
        larger = {}
        for t in combinations(range(n), k):
            acc = a[..., k - 1, t[0]] * minors[t[1:]]
            for j in range(1, k):
                term = a[..., k - 1, t[j]] * minors[t[:j] + t[j + 1:]]
                acc = acc - term if j % 2 else acc + term
            larger[t] = acc
        minors = larger
    det = minors[tuple(range(n))]
    return det if n * (n - 1) // 2 % 2 == 0 else -det


class TestElementarySymmetric:
    def test_known_values(self):
        assert linalg.elementary_symmetric_all([1, 2, 3])[1] == pytest.approx(6.0)
        assert linalg.elementary_symmetric_all([1, 2, 3])[2] == pytest.approx(11.0)
        assert linalg.elementary_symmetric_all([1, 2, 3])[3] == pytest.approx(6.0)

    def test_order_zero_is_one(self):
        rng = np.random.default_rng(3)
        assert linalg.elementary_symmetric_all(rng.standard_normal(6))[0] == 1.0

    def test_generating_polynomial_identity(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(8)
        for t in rng.standard_normal(4):
            total = sum(
                linalg.elementary_symmetric_all(v)[l] * t**l for l in range(9)
            )
            assert total == pytest.approx(np.prod(1.0 + v * t), rel=1e-12)
        # a (..., n) stack of rows runs the same recurrence row by row
        rows = rng.standard_normal((2, 5, 8))
        stacked = linalg.elementary_symmetric_all(rows)
        assert stacked.shape == (2, 5, 9)
        for idx in np.ndindex(2, 5):
            assert np.array_equal(stacked[idx], linalg.elementary_symmetric_all(rows[idx]))


class TestLogGammaBeta:
    def test_log_gamma_values(self):
        assert linalg.log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert linalg.log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)))

    def test_log_beta_values(self):
        assert linalg.log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_log_beta_matches_gamma_ratio(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, y = rng.uniform(0.1, 8.0, size=2)
            direct = math.gamma(x) * math.gamma(y) / math.gamma(x + y)
            assert math.exp(linalg.log_beta(x, y)) == pytest.approx(direct, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            linalg.log_gamma(0.0)
        with pytest.raises(DomainError):
            linalg.log_beta(1.0, -2.0)


class TestSkewHelpers:
    def test_is_skew_tolerance_scales(self):
        rng = np.random.default_rng(9)
        a = random_skew(6, rng, scale=1e8)
        assert linalg.is_skew(a)
        assert not linalg.is_skew(a + 1e-2 * np.eye(6))
