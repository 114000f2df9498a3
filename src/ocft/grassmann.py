"""Sparse exact Grassmann (exterior) algebra over a small generator set.

Monomials are encoded as bitmasks over the generator indices, coefficients
are complex, and products pick up the parity sign of the transpositions
needed to merge two sorted index sets (a popcount per crossing block).

The verification workloads use a universe of 2*N*n generators split into a
"bar" block followed by an "unbar" block:

    index(psibar^a_i) = a*N + i          a = 0..n-1, i = 0..N-1
    index(psi^a_i)    = N*n + a*N + i

The universe is capped at 16 generators (N*n <= 8), the cap of the
fermionic and SO(N) identity checks; it keeps the monomial space at 65536.
The flavour-side monomial table of ``cft`` takes its signs from ``gmul``;
the exact expansions of the two integrands live with the tests, as their
exterior-algebra oracle.
"""

from __future__ import annotations

from .errors import ConfigError, ShapeError

__all__ = [
    "Multivector",
    "gmul",
    "psi_index",
    "psibar_index",
    "universe_size",
]

MAX_GENERATORS = 16
PRUNE_REL = 1e-15


def _merge_sign(a: int, b: int) -> int:
    """Sign of e_A * e_B relative to the sorted merge of disjoint masks A, B."""
    a >>= 1
    swaps = 0
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1 if swaps & 1 else 1


class Multivector:
    """Element of the exterior algebra over ``ngen`` anticommuting generators."""

    __slots__ = ("ngen", "terms")

    def __init__(self, ngen: int, terms: dict[int, complex] | None = None):
        if ngen > MAX_GENERATORS:
            raise ConfigError(
                f"universe of {ngen} generators exceeds the cap of {MAX_GENERATORS}"
            )
        self.ngen = ngen
        self.terms = dict(terms) if terms else {}

    # -- constructors ---------------------------------------------------
    @classmethod
    def scalar(cls, ngen: int, value: complex = 1.0) -> "Multivector":
        return cls(ngen, {0: complex(value)} if value != 0 else {})

    @classmethod
    def generator(cls, ngen: int, index: int) -> "Multivector":
        if not 0 <= index < ngen:
            raise ShapeError(f"generator index {index} outside universe of {ngen}")
        return cls(ngen, {1 << index: 1.0 + 0.0j})

    # -- bookkeeping ----------------------------------------------------
    def prune(self) -> "Multivector":
        """Drop coefficients below PRUNE_REL of the largest magnitude."""
        if not self.terms:
            return self
        cut = PRUNE_REL * max(abs(c) for c in self.terms.values())
        self.terms = {m: c for m, c in self.terms.items() if abs(c) > cut}
        return self

    # -- algebra ---------------------------------------------------------
    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_universe(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0.0) + c
        return Multivector(self.ngen, out).prune()

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "Multivector":
        return Multivector(self.ngen, {m: c * scalar for m, c in self.terms.items()})

    __rmul__ = __mul__

    def _check_universe(self, other: "Multivector") -> None:
        if self.ngen != other.ngen:
            raise ShapeError(
                f"universe mismatch: {self.ngen} vs {other.ngen} generators"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        items = ", ".join(f"{m:#x}: {c:.3g}" for m, c in sorted(self.terms.items()))
        return f"Multivector({self.ngen}, {{{items}}})"


def gmul(x: Multivector, y: Multivector) -> Multivector:
    """Graded product; sign from the crossing-parity of the two bit sets."""
    x._check_universe(y)
    out: dict[int, complex] = {}
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            if mx & my:
                continue  # repeated generator, nilpotent
            m = mx | my
            c = cx * cy * _merge_sign(mx, my)
            out[m] = out.get(m, 0.0) + c
    return Multivector(x.ngen, out).prune()


# -- generator indices of the colour-flavour integrands ------------------


def universe_size(n_colour: int, n_flavour: int) -> int:
    if n_colour * n_flavour > MAX_GENERATORS // 2:
        raise ConfigError(
            f"N*n = {n_colour * n_flavour} exceeds the cap of {MAX_GENERATORS // 2}"
        )
    return 2 * n_colour * n_flavour


def psibar_index(i: int, a: int, n_colour: int) -> int:
    """Generator index of psibar^a_i (bar block comes first)."""
    return a * n_colour + i


def psi_index(i: int, a: int, n_colour: int, n_flavour: int) -> int:
    """Generator index of psi^a_i."""
    return n_colour * n_flavour + a * n_colour + i
