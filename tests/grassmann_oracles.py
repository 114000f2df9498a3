"""Exact exterior-algebra expansions of the two integrands, used only by the tests.

They expand exp(psibar O psi) and exp((psibar Z psibar + psi Z^dagger psi)/2)
term by term in ``ocft.grassmann.Multivector``, so the monomial tables of
``ocft.cft`` can be checked coefficient by coefficient.
"""

import math

from ocft.errors import DomainError, ShapeError
from ocft.grassmann import Multivector, _merge_sign, gmul, psi_index, psibar_index, universe_size
from ocft.linalg import as_complex_matrix, is_skew


def gexp(x: Multivector) -> Multivector:
    """exp of an even nilpotent element: finite sum x^k / k!.

    Requires every term of x to have even grade >= 2 (so repeated products
    terminate at the top grade).
    """
    for m in x.terms:
        g = m.bit_count()
        if g == 0:
            raise DomainError("gexp needs zero scalar part")
        if g % 2 == 1:
            raise DomainError("gexp needs an even-grade argument")
    result = Multivector.scalar(x.ngen)
    power = Multivector.scalar(x.ngen)
    for k in range(1, x.ngen // 2 + 1):
        power = gmul(power, x)
        if not power.terms:
            break
        result = result + power * (1.0 / math.factorial(k))
    return result


def lhs_integrand(o, n_colour: int, n_flavour: int) -> Multivector:
    """exp of sum_{i,j,a} O_ij psibar^a_i psi^a_j, expanded exactly."""
    om = as_complex_matrix(o)
    if om.shape != (n_colour, n_colour):
        raise ShapeError(f"O must be {n_colour}x{n_colour}, got {om.shape}")
    ngen = universe_size(n_colour, n_flavour)
    terms: dict[int, complex] = {}
    for a in range(n_flavour):
        for i in range(n_colour):
            bi = psibar_index(i, a, n_colour)
            for j in range(n_colour):
                if om[i, j] == 0:
                    continue
                pj = psi_index(j, a, n_colour, n_flavour)
                mask = (1 << bi) | (1 << pj)
                sign = _merge_sign(1 << bi, 1 << pj)
                terms[mask] = terms.get(mask, 0.0) + om[i, j] * sign
    return gexp(Multivector(ngen, terms))


def rhs_integrand(z, n_colour: int, n_flavour: int) -> Multivector:
    """exp of (1/2)(psibar Z psibar + psi Z^dagger psi), expanded exactly.

    Z must be an n_flavour x n_flavour complex skew-symmetric matrix; the
    two bilinears couple the flavour indices of a common colour.
    """
    zm = as_complex_matrix(z)
    if zm.shape != (n_flavour, n_flavour):
        raise ShapeError(f"Z must be {n_flavour}x{n_flavour}, got {zm.shape}")
    if not is_skew(zm):
        raise ShapeError("Z must be skew-symmetric")
    zdag = zm.conj().T
    ngen = universe_size(n_colour, n_flavour)
    terms: dict[int, complex] = {}

    def add(idx_a: int, idx_b: int, coeff: complex) -> None:
        if coeff == 0 or idx_a == idx_b:
            return
        mask = (1 << idx_a) | (1 << idx_b)
        sign = _merge_sign(1 << idx_a, 1 << idx_b)
        terms[mask] = terms.get(mask, 0.0) + coeff * sign

    for i in range(n_colour):
        for a in range(n_flavour):
            for b in range(n_flavour):
                add(psibar_index(i, a, n_colour), psibar_index(i, b, n_colour), 0.5 * zm[a, b])
                add(psi_index(i, a, n_colour, n_flavour), psi_index(i, b, n_colour, n_flavour),
                    0.5 * zdag[a, b])
    return gexp(Multivector(ngen, terms))
