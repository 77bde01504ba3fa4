"""Affine cells: locally closed sets V(F) minus V(g1*...*gr).

A cell carries its defining equations F, its inequation in factored
form G, and one of two backends:

* ``gb``: F is the reduced Groebner basis of the distinguished ideal
  I(X), kept saturated by the factors of G on every operation, so that
  V(I(X)) is the Zariski closure of the cell.  Its dimension and degree
  are exact, from the Hilbert series of the basis's lead monomials; the
  backend draws no random numbers.
* ``witness``: F is a plain generator list; a Groebner basis is instead
  kept for the witness ideal I(X meet L), where L is a random affine
  subspace of complementary dimension d: the reduced basis of F plus
  the d affine forms cutting out L, saturated by G.  Radical membership
  and properness queries run against the witness, so positive-dimensional
  Groebner bases are only computed when a basis is explicitly forced;
  that basis comes from the cell's own F and G, as sat(<F>, g1*...*gr).

Saturation by the inequation is always applied factor by factor, which
keeps the degrees of the polynomials involved low.  Nonzero constant
factors are recorded but skipped by saturation.  Every constructor
computes the emptiness flag so decomposition can prune dead branches.
"""

from __future__ import annotations

from typing import Sequence

from . import zerodim
from .gf import ContractViolation
from .rings import PolyRing, Polynomial, random_affine_forms
from .groebner import (
    GroebnerBasis,
    extend_basis,
    groebner_of,
    hilbert_dim_degree,
    is_zero_dim,
    quotient_degree,
    radical_member,
    saturate,
)

GB_BACKEND = "gb"
WITNESS_BACKEND = "witness"


def _sat0(basis: GroebnerBasis, g: Polynomial) -> GroebnerBasis:
    """(<basis> : g^inf), by linear algebra in the quotient when zero-dimensional.

    ``zerodim.saturation`` records why that route is kept beside the
    elimination of ``saturate``.  Adding generators has one route in
    both dimensions: ``extend_basis``.
    """
    if basis.is_unit:
        return basis
    if is_zero_dim(basis):
        return zerodim.saturation(basis, g)
    return saturate(basis, g)


def _sat_chain(basis: GroebnerBasis, factors: Sequence[Polynomial]) -> GroebnerBasis:
    """Successive saturation, routing each step by dimension."""
    for g in factors:
        if basis.is_unit:
            break
        if g.is_constant():
            continue
        basis = _sat0(basis, g)
    return basis


def make_witness(
    ring: PolyRing,
    F: Sequence[Polynomial],
    G: Sequence[Polynomial],
    d: int,
    rng,
) -> tuple[GroebnerBasis, tuple[Polynomial, ...]]:
    """Witness basis for (F, G) at dimension d.

    Draws d random affine forms J, computes the reduced basis of
    <F union J> and saturates it successively by the factors in G.
    Returns the basis and the forms; identical seeds give identical
    output.
    """
    if d < 0:
        raise ContractViolation("witness dimension must be nonnegative")
    forms = tuple(random_affine_forms(ring, d, rng))
    F = tuple(f for f in F if not f.is_zero())
    return _sat_chain(groebner_of(ring, F + forms), G), forms


class AffineCell:
    """Immutable locally closed set with a gb or witness backend."""

    __slots__ = ("ring", "backend", "F", "G", "W", "d", "witness_forms", "_basis", "_empty")

    def __init__(
        self,
        ring: PolyRing,
        backend: str,
        F,
        G: tuple[Polynomial, ...],
        W: GroebnerBasis | None = None,
        d: int | None = None,
        witness_forms: tuple[Polynomial, ...] | None = None,
    ):
        if backend not in (GB_BACKEND, WITNESS_BACKEND):
            raise ContractViolation(f"unknown backend {backend!r}")
        if any(g.is_zero() for g in G):
            raise ContractViolation("zero polynomial as an inequation factor")
        self.ring = ring
        self.backend = backend
        self.G = tuple(G)
        self._basis = None
        if backend == GB_BACKEND:
            assert isinstance(F, GroebnerBasis)
            self.F = F
            self.W = None
            self.d = None
            self.witness_forms = None
            self._empty = F.is_unit
            self._basis = F
        else:
            self.F = tuple(F)
            assert isinstance(W, GroebnerBasis) and d is not None
            self.W = W
            self.d = d
            self.witness_forms = witness_forms or ()
            self._empty = W.is_unit

    # -- constructors ------------------------------------------------------

    @staticmethod
    def full_space(ring: PolyRing, backend: str = GB_BACKEND, rng=None) -> "AffineCell":
        """The cell V(0; 1): all of affine n-space."""
        if backend == GB_BACKEND:
            return AffineCell(ring, GB_BACKEND, GroebnerBasis(ring, ()), ())
        if rng is None:
            raise ContractViolation("witness backend needs a random generator")
        W, forms = make_witness(ring, (), (), ring.nvars, rng)
        return AffineCell(ring, WITNESS_BACKEND, (), (), W, ring.nvars, forms)

    # -- queries -----------------------------------------------------------

    def is_empty(self) -> bool:
        """Exact on the gb backend, high-probability on witness."""
        return self._empty

    def basis(self) -> GroebnerBasis:
        """Reduced basis of the distinguished ideal I(X) = sat(<F>, g1*...*gr).

        The gb backend stores it.  The witness backend computes it on
        first use as the basis of <F>, saturated factor by factor by G,
        and keeps it on the cell.
        """
        if self._basis is None:
            F = [f for f in self.F if not f.is_zero()]
            self._basis = _sat_chain(groebner_of(self.ring, F), self.G)
        return self._basis

    def rad_member(self, f: Polynomial) -> bool:
        """f in rad I(X); probabilistic on the witness backend."""
        if f.is_zero():
            return True
        if self.backend == WITNESS_BACKEND:
            if is_zero_dim(self.W):
                return zerodim.radical_membership(self.W, f)
            return saturate(self.W, f).is_unit
        return radical_member(f, self.F)

    def is_proper(self, f: Polynomial) -> bool:
        """X meet V(f) is empty or has dimension dim X - 1.

        Witness backend: the slice X meet L misses V(f) exactly when
        <W> + <f> is the unit ideal.  gb backend: deterministic test
        that sat(I(X), f) is contained in rad I(X).
        """
        if f.is_zero():
            return self.is_empty()
        if self.backend == WITNESS_BACKEND:
            if f.is_constant():
                return True  # a nonzero constant misses every point
            if is_zero_dim(self.W):
                return zerodim.properness(self.W, f)
            return extend_basis(self.W, [f]).is_unit
        sat = saturate(self.F, f)
        if sat.is_zero_ideal:
            return True
        return all(radical_member(h, self.F) for h in sat.gens)

    def dim_degree(self) -> tuple[int, int]:
        """(dimension, degree); degree is scheme-theoretic for I(X).

        Witness backend: the slice dimension d and the number of points,
        with multiplicity, of the witness slice.  gb backend: exact, from
        the Hilbert series of the stored basis's lead monomials.
        """
        if self.is_empty():
            raise ContractViolation("empty cell has no dimension")
        if self.backend == WITNESS_BACKEND:
            return self.d, quotient_degree(self.W)
        return hilbert_dim_degree(self.F)

    # -- primitive operations ----------------------------------------------

    def intersect_proper(self, f: Polynomial, rng=None) -> "AffineCell":
        """X meet V(f) for a proper hypersurface section (caller-checked)."""
        if self.backend == WITNESS_BACKEND:
            if self.d == 0:
                raise ContractViolation("cannot properly intersect a zero-dimensional cell")
            F2 = self.F + (f,)
            W2, forms = make_witness(self.ring, F2, self.G, self.d - 1, rng)
            return AffineCell(self.ring, WITNESS_BACKEND, F2, self.G, W2, self.d - 1, forms)
        F2 = _sat_chain(extend_basis(self.F, [f]), self.G)
        return AffineCell(self.ring, GB_BACKEND, F2, self.G)

    def intersect_components(self, H: Sequence[Polynomial]) -> "AffineCell":
        """X meet V(H) when V(H) cuts a union of components of X."""
        H = [h for h in H if not h.is_zero()]
        if not H:
            return self
        if self.backend == WITNESS_BACKEND:
            F2 = self.F + tuple(H)
            W2 = extend_basis(self.W, H)
            return AffineCell(self.ring, WITNESS_BACKEND, F2, self.G, W2, self.d, self.witness_forms)
        F2 = _sat_chain(extend_basis(self.F, H), self.G)
        return AffineCell(self.ring, GB_BACKEND, F2, self.G)

    def subtract(self, f: Polynomial) -> "AffineCell":
        """X minus V(f); the closure is tracked lazily on witness cells."""
        if f.is_zero():
            raise ContractViolation("cannot remove the zero hypersurface")
        G2 = self.G + (f,)
        if f.is_constant():
            # no points removed; keep the factor for provenance
            if self.backend == WITNESS_BACKEND:
                return AffineCell(self.ring, WITNESS_BACKEND, self.F, G2, self.W,
                                  self.d, self.witness_forms)
            return AffineCell(self.ring, GB_BACKEND, self.F, G2)
        if self.backend == WITNESS_BACKEND:
            W2 = _sat0(self.W, f)
            return AffineCell(self.ring, WITNESS_BACKEND, self.F, G2, W2,
                              self.d, self.witness_forms)
        F2 = saturate(self.F, f)
        return AffineCell(self.ring, GB_BACKEND, F2, G2)

    # -- presentation --------------------------------------------------------

    def __repr__(self) -> str:
        if self.backend == GB_BACKEND:
            eqs = ", ".join(map(str, self.F.gens))
            tag = ""
        else:
            eqs = ", ".join(map(str, self.F))
            tag = f"; d={self.d}"
        ineq = ", ".join(map(str, self.G))
        return f"V({{{eqs}}} \\ {{{ineq}}}{tag})"
