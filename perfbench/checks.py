"""Correctness checks and output digests for one decomposed system.

A system fails when ``equidim()`` raised, when the partition oracle
raised or rejected the cells (it compares exhaustive point sets when
p <= 11 and n <= 4), or when the top dimension or the total degree there
differs from the reference.  Tiny-field cases have no recorded degree:
their reference is the exact dimension of V(F), read off a Groebner basis
of the input, because at p <= 11 every degree the package computes comes
from random slices over that same tiny field.
"""

from __future__ import annotations

import hashlib

from equidim import check_partition, dimension, groebner_of, poly_to_string


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def digest(out) -> str:
    """Hash of reduced cell bases, inequation factors and annotations, in that order."""
    lines = []
    for cell, (dim, deg) in zip(out.cells, out.annotations):
        lines.append("basis " + ", ".join(poly_to_string(g) for g in cell.basis().gens))
        lines.append("ineq " + ", ".join(poly_to_string(g) for g in cell.G))
        lines.append(f"ann {dim} {deg}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def top_part(degrees: dict[int, int]) -> tuple[int, int] | None:
    if not degrees:
        return None
    top = max(degrees)
    return top, degrees[top]


def failures(case, ring, polys, out) -> list[str]:
    """Every reason the output is wrong; an empty list means it passed."""
    if isinstance(out, BaseException):
        return [f"equidim raised {describe(out)}"]
    reasons = []
    try:
        report = check_partition(out.cells, polys, ring)
    except Exception as exc:  # the oracle's own failure also fails the system
        reasons.append(f"oracle raised {describe(exc)}")
    else:
        if not report.passed:
            bad = [k for k in ("disjoint", "membership", "points_equal", "points_disjoint")
                   if getattr(report, k) is False]
            reasons.append("partition check failed: " + ", ".join(bad))
    got = top_part(out.degrees_by_dimension())
    if case.reference is not None:
        if got != case.reference:
            reasons.append(f"top (dimension, degree) {got} != reference {case.reference}")
    else:
        basis = groebner_of(ring, polys)
        want = None if basis.is_unit else dimension(basis)
        got_dim = got[0] if got else None
        if got_dim != want:
            reasons.append(f"top dimension {got_dim} != exact {want}")
    return reasons
