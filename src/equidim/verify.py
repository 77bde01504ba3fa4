"""Independent oracles and checkers for decompositions.

Nothing here shares machinery with the decomposition path beyond basic
ideal arithmetic and the genericity rule ``cells.slices_generic``, which
decides whether a random slice may certify a dimension: rational points
are enumerated exhaustively, monomial systems are decomposed by
brute-force minimal-prime search, and the partition/dimension
validators re-derive their verdicts from scratch.
Cost guards are hard refusals; a silently truncated oracle would be
worse than none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .gf import ContractViolation
from .rings import PolyRing, Polynomial
from .groebner import dimension, groebner_of, is_zero_dim, radical_member, saturate_seq
from .cells import AffineCell, make_witness, slices_generic


class CostGuardExceeded(ContractViolation):
    """An oracle was asked to run outside its guarded cost envelope."""


MAX_ENUM_CHAR = 11
MAX_ENUM_VARS = 4
MAX_FACET_VARS = 12


@dataclass(frozen=True)
class PointSet:
    """Rational points of a locally closed set over a tiny field."""

    points: frozenset[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(sorted(self.points))

    def __and__(self, other: "PointSet") -> "PointSet":
        return PointSet(self.points & other.points)

    def __or__(self, other: "PointSet") -> "PointSet":
        return PointSet(self.points | other.points)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PointSet) and self.points == other.points


def enumerate_points(
    ring: PolyRing,
    equations: Sequence[Polynomial],
    inequations: Sequence[Polynomial] = (),
) -> PointSet:
    """All a in GF(p)^n with f(a) = 0 for f in F and g(a) != 0 for g in G."""
    p = ring.field.p
    if p > MAX_ENUM_CHAR or ring.nvars > MAX_ENUM_VARS:
        raise CostGuardExceeded(
            f"point enumeration limited to p <= {MAX_ENUM_CHAR}, n <= {MAX_ENUM_VARS}"
        )
    pts = []
    for a in itertools.product(range(p), repeat=ring.nvars):
        if all(f.evaluate(a) == 0 for f in equations) and all(
            g.evaluate(a) != 0 for g in inequations
        ):
            pts.append(a)
    return PointSet(frozenset(pts))


def cell_points(cell: AffineCell) -> PointSet:
    """Rational points of a cell, from its stored equations and factors."""
    return enumerate_points(cell.ring, list(cell.F), cell.G)


@dataclass(frozen=True)
class FacetDecomposition:
    """Minimal primes of a squarefree monomial ideal, by dimension.

    Components are coordinate subspaces V(S), named by the variable
    index set S; the map sends each occurring dimension n - |S| to its
    components.
    """

    by_dimension: dict[int, frozenset[frozenset[int]]]

    def dimensions(self) -> list[int]:
        return sorted(self.by_dimension)

    def count(self, dim: int) -> int:
        return len(self.by_dimension.get(dim, ()))

    def total(self) -> int:
        return sum(len(v) for v in self.by_dimension.values())


def monomial_facets_oracle(ring: PolyRing, gens: Sequence[Polynomial]) -> FacetDecomposition:
    """Brute-force minimal primes of a squarefree monomial ideal.

    Every variable subset S is tested for covering (each generator has
    a variable in S); inclusion-minimal covers are the minimal primes.
    """
    n = ring.nvars
    if n > MAX_FACET_VARS:
        raise CostGuardExceeded(f"facet oracle limited to n <= {MAX_FACET_VARS}")
    supports = []
    for f in gens:
        if f.is_zero():
            continue
        if len(f.terms) != 1:
            raise ContractViolation("oracle input must be monomials")
        exps = ring.unpack_evec(f.terms[0][1])
        if any(e > 1 for e in exps):
            raise ContractViolation("oracle input must be squarefree monomials")
        if all(e == 0 for e in exps):
            # a unit generator: the ideal is the whole ring, no components
            return FacetDecomposition({})
        supports.append(frozenset(i for i, e in enumerate(exps) if e))
    if not supports:
        return FacetDecomposition({n: frozenset({frozenset()})})
    covers: list[frozenset[int]] = []
    for size in range(n + 1):
        for S in itertools.combinations(range(n), size):
            S = frozenset(S)
            if any(c <= S for c in covers):
                continue
            if all(S & supp for supp in supports):
                covers.append(S)
    grouped: dict[int, set[frozenset[int]]] = {}
    for S in covers:
        grouped.setdefault(n - len(S), set()).add(S)
    return FacetDecomposition({d: frozenset(v) for d, v in grouped.items()})


@dataclass
class PartitionReport:
    """Outcome of the partition checks; failures are entries, not errors."""

    disjoint: bool = True
    disjoint_failures: list[tuple[int, int]] = field(default_factory=list)
    membership: bool = True
    membership_failures: list[tuple[int, str]] = field(default_factory=list)
    points_checked: bool = False
    points_equal: bool | None = None
    points_disjoint: bool | None = None

    @property
    def passed(self) -> bool:
        ok = self.disjoint and self.membership
        if self.points_checked:
            ok = ok and bool(self.points_equal) and bool(self.points_disjoint)
        return ok

    def as_dict(self) -> dict:
        return {
            "disjoint": self.disjoint,
            "disjoint_failures": self.disjoint_failures,
            "membership": self.membership,
            "membership_failures": self.membership_failures,
            "points_checked": self.points_checked,
            "points_equal": self.points_equal,
            "points_disjoint": self.points_disjoint,
            "passed": self.passed,
        }


def check_partition(
    cells: Sequence[AffineCell],
    F: Sequence[Polynomial],
    ring: PolyRing,
    with_points: bool | None = None,
) -> PartitionReport:
    """Verify that cells form a partition of V(F).

    (a) exact pairwise disjointness: for cells i and j, the basis of
    <F_i union F_j> saturated by all factors of G_i and G_j must be {1};
    (b) every input equation lies in rad I(cell) for every cell;
    (c) when the cost guard permits (or ``with_points`` forces it),
    exhaustive equality of rational point sets.
    """
    report = PartitionReport()
    bases = [c.basis() for c in cells]
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            merged = groebner_of(ring, list(bases[i].gens) + list(bases[j].gens))
            merged = saturate_seq(merged, cells[i].G + cells[j].G)
            if not merged.is_unit:
                report.disjoint = False
                report.disjoint_failures.append((i, j))
    for idx, b in enumerate(bases):
        for f in F:
            if not radical_member(f, b):
                report.membership = False
                report.membership_failures.append((idx, str(f)))
    do_points = with_points
    if do_points is None:
        do_points = ring.field.p <= MAX_ENUM_CHAR and ring.nvars <= MAX_ENUM_VARS
    if do_points:
        target = enumerate_points(ring, list(F))
        union: set[tuple[int, ...]] = set()
        disjoint_pts = True
        for c in cells:
            pts = cell_points(c).points
            if union & pts:
                disjoint_pts = False
            union |= pts
        report.points_checked = True
        report.points_equal = union == target.points
        report.points_disjoint = disjoint_pts
    return report


@dataclass
class TopDimensionReport:
    """Certificate that the top dimension equals d.

    From generic slices, or from the exact basis where slices cannot be
    generic; the comments give the exact equivalents.
    """

    claimed: int
    lower_ok: bool  # codim-d slice is nonempty and zero-dimensional (dim == d)
    upper_ok: bool  # codim-(d+1) slice is empty (dim <= d)

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok


def check_top_dimension(X: AffineCell, claimed: int, rng) -> TopDimensionReport:
    """Cut with d generic forms: nonempty zero-dimensional; with d+1: empty.

    Where ``slices_generic`` rejects the cell's equations a random form
    often passes through a rational point, so the verdicts come from the
    exact dimension of ``X.basis()`` instead, and nothing is drawn.
    """
    F = list(X.F)
    if not slices_generic(F, X.ring):
        basis = X.basis()
        if basis.is_unit:
            return TopDimensionReport(claimed, False, True)
        dim = dimension(basis)
        return TopDimensionReport(claimed, dim == claimed, dim <= claimed)
    Wd, _ = make_witness(X.ring, F, X.G, claimed, rng)
    lower = is_zero_dim(Wd)
    # d+1 generic affine forms are jointly infeasible on a d-dimensional
    # set; for claimed = n they are already infeasible on the whole space
    Wd1, _ = make_witness(X.ring, F, X.G, claimed + 1, rng)
    upper = Wd1.is_unit
    return TopDimensionReport(claimed, lower, upper)
