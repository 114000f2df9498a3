import numpy as np
import pytest

from ocft.errors import ConfigError, DomainError, ShapeError
from grassmann_oracles import gexp, lhs_integrand, rhs_integrand
from ocft.grassmann import Multivector, gmul, psi_index, psibar_index
from random_inputs import random_even_nilpotent, random_skew


def gen(ngen, k):
    return Multivector.generator(ngen, k)


class TestProduct:
    def test_wedge_of_distinct_generators(self):
        x = gmul(gen(4, 0), gen(4, 1))
        assert x.coefficient(0b11) == pytest.approx(1.0)

    def test_nilpotency(self):
        assert gmul(gen(4, 0), gen(4, 0)).is_zero()

    def test_anticommutation(self):
        assert gmul(gen(4, 1), gen(4, 0)).coefficient(0b11) == pytest.approx(-1.0)

    def test_associativity_on_random_triples(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            x = random_even_nilpotent(8, rng, terms=3)
            y = random_even_nilpotent(8, rng, terms=3)
            z = random_even_nilpotent(8, rng, terms=3)
            a = gmul(gmul(x, y), z)
            b = gmul(x, gmul(y, z))
            diff = a - b
            assert diff.is_zero(tol=1e-12)

    def test_universe_mismatch(self):
        with pytest.raises(ShapeError):
            gmul(gen(4, 0), gen(6, 0))

    def test_universe_cap(self):
        with pytest.raises(ConfigError):
            Multivector(18)


class TestExp:
    def test_exp_of_zero(self):
        x = Multivector(4)
        assert gexp(x).coefficient(0) == pytest.approx(1.0)

    def test_exp_of_single_pair(self):
        x = gmul(gen(4, 0), gen(4, 1)) * 2.5
        e = gexp(x)
        assert e.coefficient(0) == pytest.approx(1.0)
        assert e.coefficient(0b11) == pytest.approx(2.5)
        assert len(e.terms) == 2

    def test_exp_of_two_commuting_pairs(self):
        a, b = 2.0, -3.0
        x = gmul(gen(4, 0), gen(4, 1)) * a + gmul(gen(4, 2), gen(4, 3)) * b
        e = gexp(x)
        assert e.coefficient(0b0011) == pytest.approx(a)
        assert e.coefficient(0b1100) == pytest.approx(b)
        assert e.coefficient(0b1111) == pytest.approx(a * b)

    def test_rejects_odd_grade_and_scalar(self):
        with pytest.raises(DomainError):
            gexp(gen(4, 0))
        with pytest.raises(DomainError):
            gexp(Multivector.scalar(4, 1.0))

    def test_exp_inverse(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            x = random_even_nilpotent(10, rng, terms=4)
            prod = gmul(gexp(x), gexp(x * -1.0))
            assert prod.coefficient(0) == pytest.approx(1.0, rel=1e-10)
            assert (prod - Multivector.scalar(10)).is_zero(tol=1e-10)


class TestLhsIntegrand:
    def test_one_by_one(self):
        e = lhs_integrand(np.array([[1.0]]), 1, 1)
        assert e.coefficient(0) == pytest.approx(1.0)
        assert e.coefficient(0b11) == pytest.approx(1.0)
        e = lhs_integrand(np.array([[-1.0]]), 1, 1)
        assert e.coefficient(0b11) == pytest.approx(-1.0)

    def test_identity_matrix(self):
        e = lhs_integrand(np.eye(2), 2, 1)
        assert e.coefficient(0) == pytest.approx(1.0)
        mask = (1 << psibar_index(0, 0, 2)) | (1 << psi_index(0, 0, 2, 1))
        assert e.coefficient(mask) == pytest.approx(1.0)

    def test_grades_stay_balanced(self):
        rng = np.random.default_rng(41)
        o = rng.standard_normal((2, 2))
        e = lhs_integrand(o, 2, 2)
        nn = 4  # N * n
        for mask in e.terms:
            bar = (mask & ((1 << nn) - 1)).bit_count()
            unbar = (mask >> nn).bit_count()
            assert bar == unbar

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            lhs_integrand(np.eye(3), 2, 1)


class TestRhsIntegrand:
    def test_zero_matrix(self):
        e = rhs_integrand(np.zeros((2, 2)), 1, 2)
        assert e.coefficient(0) == pytest.approx(1.0)
        assert len(e.terms) == 1

    def test_one_flavour_is_trivial(self):
        e = rhs_integrand(np.zeros((1, 1)), 2, 1)
        assert e.coefficient(0) == pytest.approx(1.0)
        assert len(e.terms) == 1

    def test_two_flavour_upper_entry(self):
        a = 0.7 - 0.2j
        z = np.array([[0, a], [-a, 0]])
        e = rhs_integrand(z, 1, 2)
        mask_bar = (1 << psibar_index(0, 0, 1)) | (1 << psibar_index(0, 1, 1))
        mask_psi = (1 << psi_index(0, 0, 1, 2)) | (1 << psi_index(0, 1, 1, 2))
        assert e.coefficient(mask_bar) == pytest.approx(a)
        # Z^dagger upper entry is -conj(a)
        assert e.coefficient(mask_psi) == pytest.approx(-np.conj(a))

    def test_skew_check(self):
        with pytest.raises(ShapeError):
            rhs_integrand(np.eye(2), 1, 2)

    def test_exp_factorizes_over_colours(self):
        rng = np.random.default_rng(43)
        z = random_skew(2, rng)
        e2 = rhs_integrand(z, 2, 2)
        e1 = rhs_integrand(z, 1, 2)
        # colour-0 generators of the N=2 universe sit at twice the N=1 index,
        # an order-preserving embedding, so coefficients carry over unchanged
        for mask, c in e1.terms.items():
            big_mask = 0
            for b in range(4):
                if mask >> b & 1:
                    big_mask |= 1 << (2 * b)
            assert e2.coefficient(big_mask) == pytest.approx(c, rel=1e-12)
