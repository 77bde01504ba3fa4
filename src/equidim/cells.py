"""Affine cells: locally closed sets V(F) minus V(g1*...*gr).

A cell carries its defining equations F, its inequation in factored
form G, and one of two backends:

* ``gb``: F is the reduced Groebner basis of the distinguished ideal
  I(X), kept saturated by the factors of G on every operation, so that
  V(I(X)) is the Zariski closure of the cell.
* ``witness``: F is a plain generator list; a Groebner basis is instead
  kept for the witness ideal I(X meet L), where L is a random affine
  subspace of complementary dimension d.  Radical membership and
  properness queries run against the witness, so positive-dimensional
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
    _interreduce,
    dimension,
    extend_basis,
    groebner_of,
    quotient_degree,
    radical_member,
    saturate,
)

GB_BACKEND = "gb"
WITNESS_BACKEND = "witness"


def _is_zero_dim(basis: GroebnerBasis) -> bool:
    if basis.is_unit or basis.is_zero_ideal:
        return False
    return dimension(basis) == 0


def _sat0(basis: GroebnerBasis, g: Polynomial) -> GroebnerBasis:
    """Saturation preferring the linear-algebra route when zero-dimensional."""
    if basis.is_unit:
        return basis
    if _is_zero_dim(basis):
        return zerodim.saturation(basis, g)
    return saturate(basis, g)


def _extend0(basis: GroebnerBasis, extra: Sequence[Polynomial]) -> GroebnerBasis:
    extra = [h for h in extra if not h.is_zero()]
    if not extra or basis.is_unit:
        return basis
    if _is_zero_dim(basis):
        return zerodim.extended(basis, extra)
    return extend_basis(basis, extra)


def _sat_chain(basis: GroebnerBasis, factors: Sequence[Polynomial]) -> GroebnerBasis:
    """Successive saturation, routing each step by dimension."""
    for g in factors:
        if basis.is_unit:
            break
        if g.is_constant():
            continue
        basis = _sat0(basis, g)
    return basis


def _solve_affine_forms(
    ring: PolyRing, forms: Sequence[Polynomial]
) -> tuple[list[tuple[int, Polynomial]], bool]:
    """Row-reduce affine forms, solving each for its largest variable.

    Returns (pivots, inconsistent) where pivots are pairs of a variable
    slot and the full-ring polynomial it equals (free of all pivots).
    Dependent-but-consistent forms simply drop out.
    """
    p = ring.field.p
    n = ring.nvars
    rows = []
    for ell in forms:
        row = [0] * (n + 1)
        w = ring.width
        mask = (1 << w) - 1
        for _, ev, c in ell.terms:
            if ev == 0:
                row[n] = c
            else:
                for i in range(n):
                    if (ev >> (i * w)) & mask:
                        row[i] = c
                        break
        rows.append(row)
    pivots: list[tuple[int, int]] = []  # (var slot, row index)
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = ring.field.inv(rows[r][c])
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append((c, r))
        r += 1
    for i in range(r, len(rows)):
        if rows[i][n] % p:
            return [], True  # 0 = nonzero constant: empty slice
    solved = []
    for c, i in pivots:
        # x_c = -(sum of non-pivot terms + const)
        coeffs = [(-rows[i][j]) % p if j != c else 0 for j in range(n)]
        solved.append((c, ring.linear_form(coeffs, (-rows[i][n]) % p)))
    return solved, False


def _slice_basis(
    ring: PolyRing, F: Sequence[Polynomial], forms: Sequence[Polynomial]
) -> GroebnerBasis:
    """Reduced basis of <F union forms>, substituting the forms away.

    Each affine form is solved for its grevlex-largest variable and
    substituted into F; the basis is computed in the smaller ring and
    merged with the solved forms, which is valid because the solved
    forms' leading variables never occur in the substituted system.
    """
    F = [f for f in F if not f.is_zero()]
    if not forms:
        return groebner_of(ring, F)
    solved, inconsistent = _solve_affine_forms(ring, forms)
    if inconsistent:
        return GroebnerBasis(ring, (ring.one(),))
    assignments = {v: tail for v, tail in solved}
    echelon = [ring.var(v) - tail for v, tail in solved]
    pivot_slots = sorted(assignments)
    free_slots = [i for i in range(ring.nvars) if i not in assignments]
    if not free_slots:
        # a single rational point: evaluate the equations there
        point = [0] * ring.nvars
        for v, tail in solved:
            point[v] = tail.constant_value()
        if any(f.evaluate(point) != 0 for f in F):
            return GroebnerBasis(ring, (ring.one(),))
        return GroebnerBasis(ring, _interreduce(ring, echelon))
    sub_ring = PolyRing(ring.field, [ring.names[i] for i in free_slots], cap=ring.cap)
    to_sub = [-1] * ring.nvars
    for j, i in enumerate(free_slots):
        to_sub[i] = j
    F_sub = [f.subst(assignments).convert(sub_ring, to_sub) for f in F]
    B_sub = groebner_of(sub_ring, F_sub)
    if B_sub.is_unit:
        return GroebnerBasis(ring, (ring.one(),))
    lifted = [g.convert(ring, free_slots) for g in B_sub.gens]
    return GroebnerBasis(ring, _interreduce(ring, lifted + echelon))


def make_witness(
    ring: PolyRing,
    F: Sequence[Polynomial],
    G: Sequence[Polynomial],
    d: int,
    rng,
) -> tuple[GroebnerBasis, tuple[Polynomial, ...]]:
    """Witness basis for (F, G) at dimension d.

    Draws d random affine forms J, computes a basis of <F union J> and
    saturates it successively by the factors in G.  Returns the basis
    and the forms; identical seeds give identical output.
    """
    if d < 0:
        raise ContractViolation("witness dimension must be nonnegative")
    forms = tuple(random_affine_forms(ring, d, rng))
    return _sat_chain(_slice_basis(ring, F, forms), G), forms


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
            if _is_zero_dim(self.W):
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
            if _is_zero_dim(self.W):
                return zerodim.properness(self.W, f)
            return extend_basis(self.W, [f]).is_unit
        sat = saturate(self.F, f)
        if sat.is_zero_ideal:
            return True
        return all(radical_member(h, self.F) for h in sat.gens)

    def dim_degree(self, rng=None) -> tuple[int, int]:
        """(dimension, degree); degree is scheme-theoretic for I(X)."""
        if self.is_empty():
            raise ContractViolation("empty cell has no dimension")
        if self.backend == WITNESS_BACKEND:
            return self.d, quotient_degree(self.W)
        d = self.ring.nvars if self.F.is_zero_ideal else dimension(self.F)
        if rng is None:
            raise ContractViolation("degree of a gb cell needs a random generator")
        W, _ = make_witness(self.ring, self.F.gens, self.G, d, rng)
        return d, quotient_degree(W)

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
            W2 = _extend0(self.W, H)
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
        F2 = saturate(self.F, f) if not self.F.is_zero_ideal else self.F
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
