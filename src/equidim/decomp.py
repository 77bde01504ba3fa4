"""Recursive decomposition into disjoint equidimensional affine cells.

``split(X, f)`` partitions X meet V(f): if the hypersurface section is
proper the cell is cut directly; otherwise a separating element g is
found in I(X minus V(f)) outside rad I(X), the components where g does
not vanish are emitted as one closed piece, and the remainder is
decomposed recursively.  ``remove``/``remove_prime`` partition
X minus V(H); the primed variant makes the pieces disjoint as early
as possible, which avoids the exponential duplication the plain
recursion suffers when H is a redundant generating set.  ``equidim``
folds ``split`` over the input equations.

Separating candidates are cached per input equation: a basis element
computed for a cell remains a valid candidate for every descendant of
that cell, so descendants first try cached elements before forcing a
basis computation.  Caches are never shared across sibling cells or
across different input equations.

The backend that runs is decided from the input before any random draw.
A requested witness backend runs only where ``cells.slices_generic``
holds, that is 32 * B <= p for the Bezout bound B of the input, because
one random slice fails to be generic with probability about B/p.
Elsewhere (at p <= 31 any B >= 1, at p = 65521 any B >= 2048) the
exact gb backend runs instead, and its output does not depend on the
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from . import zerodim
from .gf import ContractViolation
from .groebner import memo_scope
from .rings import PolyRing, Polynomial
from .cells import AffineCell, GB_BACKEND, WITNESS_BACKEND, slices_generic


@dataclass(frozen=True)
class DecompConfig:
    """Knobs for ``equidim``; defaults follow the reference setup."""

    # the requested backend; witness runs only where cells.slices_generic
    # holds for the input (32 * B <= p), gb runs elsewhere
    backend: str = WITNESS_BACKEND
    order_strategy: str = "degree"  # degree | support | asis
    seed: int = 0
    use_classic_remove: bool = False


class GCache:
    """Separating-element candidates, valid for descendant cells only.

    Append-only with snapshot semantics: extending returns a child
    cache so sibling branches never observe each other's additions.
    """

    __slots__ = ("items",)

    def __init__(self, items: tuple[Polynomial, ...] = ()):
        self.items = items

    def extended(self, new: Sequence[Polynomial]) -> "GCache":
        return GCache(self.items + tuple(new))

    def candidates(self) -> list[Polynomial]:
        """Cached elements in selection order (degree, size, position)."""
        return _pick_order(self.items)


def _pick_order(polys: Sequence[Polynomial]) -> list[Polynomial]:
    order = sorted(
        range(len(polys)),
        key=lambda i: (polys[i].total_degree(), len(polys[i].terms), i),
    )
    return [polys[i] for i in order]


class DecompTrace:
    """Optional event log: every proper cut and every improper split."""

    def __init__(self):
        self.proper: list[tuple[AffineCell, AffineCell | None, Polynomial]] = []
        self.improper: list[tuple[AffineCell, Polynomial, AffineCell]] = []

    def record_proper(self, parent: AffineCell, child: AffineCell | None, f: Polynomial):
        self.proper.append((parent, child, f))

    def record_improper(self, parent: AffineCell, g: Polynomial, pretend: AffineCell):
        self.improper.append((parent, g, pretend))


@dataclass
class _Ctx:
    rng: random.Random | None  # None on the gb backend, which never draws
    use_classic_remove: bool = False
    trace: DecompTrace | None = None


def _ctx_for(X: AffineCell, rng, use_classic_remove: bool, trace) -> _Ctx:
    """A context whose generator defaults to Random(0) on a witness cell only."""
    if rng is None and X.backend == WITNESS_BACKEND:
        rng = random.Random(0)
    return _Ctx(rng, use_classic_remove, trace)


def _proper_cut(X: AffineCell, f: Polynomial, ctx: _Ctx) -> list[AffineCell]:
    if X.backend == WITNESS_BACKEND and X.d == 0:
        # a proper section of a zero-dimensional cell is empty
        if ctx.trace is not None:
            ctx.trace.record_proper(X, None, f)
        return []
    Y = X.intersect_proper(f, ctx.rng)
    if Y.is_empty():
        if ctx.trace is not None:
            ctx.trace.record_proper(X, None, f)
        return []
    if ctx.trace is not None:
        ctx.trace.record_proper(X, Y, f)
    return [Y]


def _split(X: AffineCell, f: Polynomial, cache: GCache, ctx: _Ctx) -> list[AffineCell]:
    if X.is_empty():
        return []
    if f.is_zero():
        return [X]
    if X.is_proper(f):
        return _proper_cut(X, f, ctx)
    if X.rad_member(f):
        # f vanishes identically on X: the trace picks the constant
        # separator and emits X itself, so skip the machinery
        return [X]

    g = None
    for h in cache.candidates():
        if not X.rad_member(h):
            g = h
            break
    if g is None:
        # cheap separating candidates first: low-degree members of the
        # saturation found by bounded linear algebra; only when none
        # separates is the full basis of X minus V(f) computed
        harvest = zerodim.low_degree_colon(X.basis(), f)
        for h in _pick_order(harvest):
            if not X.rad_member(h):
                g = h
                break
        if harvest:
            cache = cache.extended(harvest)
    if g is None:
        B = X.subtract(f).basis()
        for h in _pick_order(B.gens):
            if not X.rad_member(h):
                g = h
                break
        if g is None:
            # the saturation lies in rad I(X) after all: proper section
            return _proper_cut(X, f, ctx)
        cache = cache.extended(B.gens)

    H = X.subtract(g).basis()
    out = []
    emitted = X.intersect_components(H.gens)
    if not emitted.is_empty():
        out.append(emitted)
    Xg = X.intersect_components([g])  # purely improper, pretending equidimensional
    if ctx.trace is not None:
        ctx.trace.record_improper(X, g, Xg)
    # any order of H is valid; small elements first keeps the removal's
    # intersections and subtractions cheap
    for Y in _remove(Xg, _pick_order(H.gens), ctx):
        out.extend(_split(Y, f, cache, ctx))
    return out


def _remove_classic(X: AffineCell, H: list[Polynomial], ctx: _Ctx) -> list[AffineCell]:
    if not H:
        return []
    h, rest = H[0], H[1:]
    out = []
    Xh = X.subtract(h)
    if not Xh.is_empty():
        out.append(Xh)
    for Y in _remove_classic(X, rest, ctx):
        out.extend(_split(Y, h, GCache(), ctx))
    return out


def _remove_prime(X: AffineCell, H: list[Polynomial], ctx: _Ctx) -> list[AffineCell]:
    out = []
    # subtracting draws no random numbers, so asking for every X minus
    # V(h_i) here leaves the draws of the proper cuts below in order
    for i, Xi in enumerate(X.subtract_each(H)):
        if Xi.is_empty():
            continue
        deferred: list[Polynomial] = []
        dead = False
        for hj in H[:i]:
            if Xi.is_proper(hj):
                pieces = _proper_cut(Xi, hj, ctx)
                if not pieces:
                    dead = True
                    break
                Xi = pieces[0]
            else:
                deferred.append(hj)
        if dead:
            continue
        cells = [Xi]
        for hj in deferred:
            nxt = []
            for Y in cells:
                nxt.extend(_split(Y, hj, GCache(), ctx))
            cells = nxt
        out.extend(cells)
    return out


def _remove(X: AffineCell, H: list[Polynomial], ctx: _Ctx) -> list[AffineCell]:
    if X.is_empty():
        return []
    H = [h for h in H if not h.is_zero()]
    if ctx.use_classic_remove:
        return _remove_classic(X, H, ctx)
    return _remove_prime(X, H, ctx)


# -- public entry points ----------------------------------------------------


def split(
    X: AffineCell,
    f: Polynomial,
    cache: GCache | None = None,
    rng: random.Random | None = None,
    use_classic_remove: bool = False,
    trace: DecompTrace | None = None,
) -> list[AffineCell]:
    """Partition X meet V(f) into disjoint equidimensional cells."""
    ctx = _ctx_for(X, rng, use_classic_remove, trace)
    return _split(X, f, cache or GCache(), ctx)


def remove(
    X: AffineCell,
    H: Sequence[Polynomial],
    rng: random.Random | None = None,
    trace: DecompTrace | None = None,
) -> list[AffineCell]:
    """Partition X minus V(H) (plain recursion)."""
    ctx = _ctx_for(X, rng, True, trace)
    return _remove(X, list(H), ctx)


def remove_prime(
    X: AffineCell,
    H: Sequence[Polynomial],
    rng: random.Random | None = None,
    trace: DecompTrace | None = None,
) -> list[AffineCell]:
    """Partition X minus V(H), making pieces disjoint eagerly."""
    ctx = _ctx_for(X, rng, False, trace)
    return _remove(X, list(H), ctx)


def order_input(
    F: Sequence[Polynomial], strategy: str = "degree"
) -> tuple[list[Polynomial], tuple[int, ...]]:
    """Stable input ordering; returns (ordered polys, permutation)."""
    idx = list(range(len(F)))
    if strategy == "degree":
        idx.sort(key=lambda i: F[i].total_degree())
    elif strategy == "support":
        idx.sort(key=lambda i: len(F[i].terms))
    elif strategy != "asis":
        raise ContractViolation(f"unknown ordering strategy {strategy!r}")
    return [F[i] for i in idx], tuple(idx)


@dataclass
class DecompositionOutput:
    """Ordered disjoint equidimensional cells with annotations."""

    cells: tuple[AffineCell, ...]
    annotations: tuple[tuple[int, int], ...]  # (dimension, degree) per cell
    input_order_used: tuple[int, ...]
    seed: int
    backend: str  # the backend that ran, which may differ from the request

    def __iter__(self):
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def degrees_by_dimension(self) -> dict[int, int]:
        """Total degree in each occurring dimension."""
        out: dict[int, int] = {}
        for d, deg in self.annotations:
            out[d] = out.get(d, 0) + deg
        return out


def equidim(
    F: Sequence[Polynomial],
    ring: PolyRing,
    config: DecompConfig | None = None,
    trace: DecompTrace | None = None,
) -> DecompositionOutput:
    """Decompose V(F) into disjoint equidimensional affine cells.

    Deterministic given (inputs, config): every random draw comes from
    a generator seeded by ``config.seed``.  Only the witness backend
    draws.  The gb backend builds no generator, so an accidental draw
    there fails instead of making its output depend on the seed.  A
    witness request runs the gb backend when ``slices_generic(F, ring)``
    fails: with B the product of the min(m, n) largest input degrees, a
    random slice misses genericity with probability about B/p, so the
    witness backend needs 32 * B <= p.  This is decided before any draw, no
    option overrides it, and ``DecompositionOutput.backend`` names the
    backend that ran.
    """
    config = config or DecompConfig()
    if config.backend not in (GB_BACKEND, WITNESS_BACKEND):
        raise ContractViolation(f"unknown backend {config.backend!r}")
    F = list(F)
    for i, f in enumerate(F):
        if f.ring != ring:
            raise ContractViolation(f"input {i} lies in {f.ring!r}, not in {ring!r}")
    backend = config.backend
    if backend == WITNESS_BACKEND and not slices_generic(F, ring):
        backend = GB_BACKEND
    rng = random.Random(config.seed) if backend == WITNESS_BACKEND else None
    ctx = _Ctx(rng, config.use_classic_remove, trace)
    ordered, perm = order_input(F, config.order_strategy)
    # the recursion asks one cell the same question several times
    with memo_scope():
        cells = [AffineCell.full_space(ring, backend, rng)]
        for f in ordered:
            if f.is_zero():
                continue  # V(0) cuts nothing
            nxt: list[AffineCell] = []
            for X in cells:
                nxt.extend(_split(X, f, GCache(), ctx))
            cells = nxt
        anns = tuple(X.dim_degree() for X in cells)
    return DecompositionOutput(tuple(cells), anns, perm, config.seed, backend)
