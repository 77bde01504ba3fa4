"""Affine cells: locally closed sets V(F) minus V(g1*...*gr).

A cell carries its defining equations F, its inequation in factored
form G, a query basis W, and one of two backends:

* ``gb``: F is the reduced Groebner basis of the distinguished ideal
  I(X), kept saturated by the factors of G, so that V(I(X)) is the
  Zariski closure of the cell; W is the same object.  Dimension and
  degree are exact, from the Hilbert series of the basis's lead
  monomials; the backend draws no random numbers.
* ``witness``: F is a plain generator list, and W is the witness ideal
  I(X meet L), L a random affine subspace of complementary dimension d:
  the reduced basis of F plus d affine forms, saturated by G.  W is {1}
  or zero-dimensional; at d = 0 it is the cell's basis, and in any
  other dimension that basis is only computed when forced, from the
  cell's own F and G, as sat(<F>, g1*...*gr).

Every query reads one saturation (W : f^inf): ``rad_member`` asks
whether it is <1>, and ``subtract`` makes it the new W.  ``is_proper``
keeps one method per backend, each measured the faster on its own
workload.  The route rule: a cell's queries use ``_sat_exact``; a basis
saturated once, a witness slice in ``make_witness`` or a forced
``basis()``, uses ``_sat0``.

Where W is zero-dimensional, a witness slice or a gb cell's I(X), the
answers are read in the quotient R/<W> (``zerodim``), and two of them
for many polynomials at once.  ``subtract_each``, which ``remove'``
asks for every h in H before it cuts, tests all the h for units
modulo W, or all the top(h) modulo W_inf, by the rank of their stacked
matrices' product (``zerodim.saturations``); a unit leaves W as it is,
which is the saturation, so only the others take a kernel read.
``intersect_components`` extends a zero-dimensional slice by H in its
quotient (``zerodim.extended``): <W> + <H> is the preimage of the
column space of H's matrices, and the reduced basis read off it is the
one ``extend_basis`` would compute, since a reduced basis is unique for
its ideal.  Neither route draws random numbers, so the draws, and
with them the output, stay as they were.

A cell asks many questions of one basis, so a positive-dimensional
W, which only a gb cell has, whose last d = dim W variables divide no
lead first reads its points at infinity: ``zerodim.at_infinity``
builds their zero-dimensional ideal W_inf once per basis value, and
answers None for a witness slice.  ``_sat_exact`` returns W itself
when top(f) is a unit modulo W_inf, and otherwise runs ``_sat0``.
``rad_member`` answers False when top(f) is not nilpotent modulo
W_inf, in every dimension.  ``_sat0`` reads no W_inf: a W_inf built
for a basis saturated once would not pay for itself.

A witness slice is only valid when it is generic.  ``slices_generic``
is the one rule that decides, from the equations and p alone, whether
a slice may stand in for the exact basis: ``decomp.equidim`` runs the
gb backend where it fails, and ``verify.check_top_dimension`` then
reads the dimension off the exact basis instead of a slice.  A cell
built on a positive-dimensional slice raises ``NonGenericSlice``.

Cells are equidimensional: ``decomp`` keeps this invariant, and the
witness backend assumes it through its one slice dimension d.
Saturation by the inequation is applied factor by factor, which keeps
degrees low; nonzero constant factors are recorded but skipped.  A
cell is empty exactly when W is {1}.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

from . import zerodim
from .gf import ContractViolation
from .rings import PolyRing, Polynomial, random_affine_forms
from .groebner import (
    GroebnerBasis,
    _top_form,
    dimension,
    extend_basis,
    groebner_of,
    hilbert_dim_degree,
    is_zero_dim,
    quotient_degree,
    saturate,
)

GB_BACKEND = "gb"
WITNESS_BACKEND = "witness"


class NonGenericSlice(ContractViolation):
    """A witness slice is positive-dimensional: its random forms were not generic."""


def slices_generic(F: Sequence[Polynomial], ring: PolyRing) -> bool:
    """Random affine slices of V(F) are generic with probability >= 31/32.

    B is Heintz's Bezout bound on the degree of V(F): the product of the
    min(m, n) largest total degrees among the m nonzero polynomials of F
    in n variables.  A slice misses genericity with probability about
    B/p (Schwartz-Zippel), so the rule is 32 * B <= p.  At p = 65521 it
    holds up to B = 2047: ps(3..6) and sos(2,3) to sos(3,6) pass, while
    ps(7) (B = 4096, about 6% per slice) fails, and for it the exact
    basis is the honest choice.  Below p = 32 only an inconsistent F,
    one with a nonzero constant (B = 0), passes.
    """
    degs = sorted((f.total_degree() for f in F if not f.is_zero()), reverse=True)
    return 32 * prod(degs[: ring.nvars]) <= ring.field.p


def _sat0(basis: GroebnerBasis, g: Polynomial) -> GroebnerBasis:
    """(<basis> : g^inf), by linear algebra in the quotient when zero-dimensional.

    The basis itself when it is <1> or g is a nonzero constant.
    ``zerodim.saturation`` records why that route is kept beside the
    colon ideals of ``saturate``.
    """
    if basis.is_unit or g.is_constant():
        return basis
    if is_zero_dim(basis):
        return zerodim.saturation(basis, g)
    return saturate(basis, g)


def _sat_exact(basis: GroebnerBasis, g: Polynomial) -> GroebnerBasis:
    """``_sat0`` for a cell's queries, asking the points at infinity first.

    Where ``zerodim.at_infinity`` gives W_inf, top(g) a unit modulo W_inf
    certifies g a nonzerodivisor modulo <basis>, and ``basis`` itself is
    the answer.  Otherwise ``_sat0`` decides, for either backend.
    """
    W = None if g.is_constant() else zerodim.at_infinity(basis)
    if W is not None and zerodim.saturation(W, _top_form(g)) is W:
        return basis
    return _sat0(basis, g)


def _sat_chain(basis: GroebnerBasis, factors: Sequence[Polynomial], sat=_sat0) -> GroebnerBasis:
    """Successive saturation, each step by ``sat``."""
    for g in factors:
        basis = sat(basis, g)
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
    output.  The basis is positive-dimensional when the forms are not
    generic for V(F) minus V(G); ``AffineCell`` rejects such a slice.
    """
    if d < 0:
        raise ContractViolation("witness dimension must be nonnegative")
    forms = tuple(random_affine_forms(ring, d, rng))
    F = tuple(f for f in F if not f.is_zero())
    return _sat_chain(groebner_of(ring, F + forms), G), forms


class AffineCell:
    """Immutable locally closed set with a gb or witness backend."""

    __slots__ = ("ring", "backend", "F", "G", "W", "d", "witness_forms", "_basis")

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
        """gb: the basis of I(X) as F, or as W, which then replaces F.

        witness: W must be {1} or zero-dimensional, else ``NonGenericSlice``.
        """
        if backend not in (GB_BACKEND, WITNESS_BACKEND):
            raise ContractViolation(f"unknown backend {backend!r}")
        if any(g.is_zero() for g in G):
            raise ContractViolation("zero polynomial as an inequation factor")
        self.ring = ring
        self.backend = backend
        self.G = tuple(G)
        if backend == GB_BACKEND:
            F = W = F if W is None else W
            assert isinstance(F, GroebnerBasis)
            self._basis = F
            d = witness_forms = None
        else:
            F = tuple(F)
            assert isinstance(W, GroebnerBasis) and d is not None
            if not (W.is_unit or is_zero_dim(W)):
                raise NonGenericSlice(
                    f"witness slice of dimension {dimension(W)} for a cell of dimension {d}")
            self._basis = W if d == 0 else None
            witness_forms = witness_forms or ()
        self.F = F
        self.W = W
        self.d = d
        self.witness_forms = witness_forms

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
        return self.W.is_unit

    def basis(self) -> GroebnerBasis:
        """Reduced basis of the distinguished ideal I(X) = sat(<F>, g1*...*gr).

        The gb backend stores it.  A zero-dimensional witness cell's
        basis is its slice W: ``make_witness`` draws no forms at d = 0,
        so W = sat(<F>, G); ``subtract`` keeps that identity; and
        ``intersect_components`` gives W + <H>, whose saturation by G is
        itself, since V(W) misses V(G) and every factor of G is a unit
        modulo W + <H>.  Any other witness cell computes it on first use
        as the basis of <F>, saturated factor by factor by G, and keeps
        it on the cell.
        """
        if self._basis is None:
            F = [f for f in self.F if not f.is_zero()]
            self._basis = _sat_chain(groebner_of(self.ring, F), self.G)
        return self._basis

    def rad_member(self, f: Polynomial) -> bool:
        """f in rad I(X), that is (W : f^inf) = <1>; probabilistic on witness.

        A W with points at infinity W_inf, of any dimension, first reads
        top(f) modulo W_inf: unless it is nilpotent there, f is not in
        the radical, since f^k in I(X) puts top(f)^k in the ideal of
        top forms.
        """
        if f.is_constant():
            return f.is_zero() or self.is_empty()
        W = zerodim.at_infinity(self.W)
        if W is not None and not zerodim.saturation(W, _top_form(f)).is_unit:
            return False
        return _sat_exact(self.W, f).is_unit

    def is_proper(self, f: Polynomial) -> bool:
        """X meet V(f) is empty or has dimension dim X - 1.

        X is equidimensional, so by Krull's principal ideal theorem this
        is dim(I(X) + <f>) < dim I(X).  Witness backend: the zero-dimensional
        slice misses V(f), that is (W : f^inf) = W, the echelon that
        ``rad_member`` and ``subtract`` read too.  gb backend: the exact
        form, on Hilbert-series dimensions of a basis of I(X) + <f> that
        ``intersect_proper`` then takes from the memo.  Measured (median
        benchmark ``wall_s``, 4 alternating pairs), the dimension test on
        witness made families-witness 13% slower (0.522 s against
        0.461 s, slower in 4 of 4), and the saturation test on gb's
        zero-dimensional cells made families-gb 2.7% slower (0.360 s
        against 0.350 s, slower in 3 of 4): each such query builds a
        quotient that the proper cut then discards.
        """
        if f.is_zero():
            return self.is_empty()
        if self.backend == WITNESS_BACKEND:
            return _sat_exact(self.W, f) == self.W
        ext = extend_basis(self.F, [f])
        return ext.is_unit or dimension(ext) < dimension(self.F)

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
        F2 = _sat_chain(extend_basis(self.F, [f]), self.G, _sat_exact)
        return AffineCell(self.ring, GB_BACKEND, F2, self.G)

    def intersect_components(self, H: Sequence[Polynomial]) -> "AffineCell":
        """X meet V(H) when V(H) cuts a union of components of X.

        A witness cell extends its slice W, {1} or zero-dimensional, in
        the quotient R/<W> (``zerodim.extended``): <W> + <H> is the
        preimage of the ideal that H generates there, the column space
        of H's multiplication matrices, and its reduced basis is unique,
        so it is the basis that ``extend_basis`` would compute with
        signature steps.  A gb cell extends I(X) with ``extend_basis``
        and saturates by G again.  Its extensions of a zero-dimensional
        I(X), here and in ``is_proper`` and ``intersect_proper``, build
        no quotient and took about 2.5 ms per families-gb pass in all
        (24 calls, workload seed 1), so they keep that route.
        """
        H = [h for h in H if not h.is_zero()]
        if not H:
            return self
        if self.backend == WITNESS_BACKEND:
            F2 = self.F + tuple(H)
            W2 = zerodim.extended(self.W, H)
            return AffineCell(self.ring, WITNESS_BACKEND, F2, self.G, W2, self.d, self.witness_forms)
        F2 = _sat_chain(extend_basis(self.F, H), self.G, _sat_exact)
        return AffineCell(self.ring, GB_BACKEND, F2, self.G)

    def subtract(self, f: Polynomial) -> "AffineCell":
        """X minus V(f): W becomes (W : f^inf); a constant f is kept for provenance.

        The witness backend keeps its equations and tracks the closure
        lazily; a gb cell's W is its basis of I(X).
        """
        if f.is_zero():
            raise ContractViolation("cannot remove the zero hypersurface")
        return AffineCell(self.ring, self.backend, self.F, self.G + (f,),
                          _sat_exact(self.W, f), self.d, self.witness_forms)

    def subtract_each(self, H: Sequence[Polynomial]) -> list["AffineCell"]:
        """[X minus V(h) for h in H], the zero-dimensional unit tests as one batch.

        Each cell is ``subtract``'s.  Where ``subtract`` would read its
        saturations in one zero-dimensional quotient, ``zerodim.saturations``
        reads them first, all in one stack, whose units one rank test of
        a product finds: the witness slice W by each h, a gb cell's
        zero-dimensional I(X) by each h, or a gb cell's W_inf by each
        top(h).
        """
        W, polys = self.W, [h for h in H if not h.is_constant()]
        W_inf = zerodim.at_infinity(W) if polys else None
        if W_inf is not None:
            W, polys = W_inf, [_top_form(h) for h in polys]
        if polys and is_zero_dim(W):
            zerodim.saturations(W, polys)
        return [self.subtract(h) for h in H]

    # -- presentation --------------------------------------------------------

    def __repr__(self) -> str:
        eqs = ", ".join(map(str, self.F))
        ineq = ", ".join(map(str, self.G))
        tag = "" if self.d is None else f"; d={self.d}"
        return f"V({{{eqs}}} \\ {{{ineq}}}{tag})"
