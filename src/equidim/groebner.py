"""Groebner engines and ideal-theoretic toolkit.

Reduced Groebner bases come from one of two routes:

* ``buchberger`` computes a basis from scratch: Buchberger's algorithm
  with Gebauer-Moeller pair elimination and normal selection (smallest
  lcm degree first).  ``groebner_of`` and ``ideal_intersect`` use it.
* ``_sig_step`` extends a known reduced basis P by one polynomial f
  with signature criteria (F5C, Eder-Perry 2010; the rewrite criterion
  of Eder-Roune 2013).  ``extend_basis`` (on both cell backends, so
  also for zero-dimensional witness slices) and the Rabinowitsch
  elimination behind ``saturate`` and ``radical_member`` use it; the
  Koszul criterion discards every pair whose signature lies in LM(P),
  which for t*g - 1 (a nonzerodivisor modulo <P>) is every syzygy.

Both reduce with the one heap kernel ``_reduce_terms``.  On top of them:
normal forms, ideal membership, saturation by a polynomial (elimination
with an auxiliary variable ranked first), radical membership
(Rabinowitsch) and ideal intersection.

Dimension and degree are read off the lead monomials alone:
``hilbert_dim_degree`` computes both from the Hilbert series of
R/LM(I), and ``is_zero_dim`` answers the frequent "finitely many
points?" question with the cheaper pure-power test.

Unit ideals short-circuit everywhere: as soon as a nonzero constant is
produced the basis {1} is returned, since empty cells arise constantly
during decomposition.

Inside ``memo_scope()`` (one ``decomp.equidim`` call) ``groebner_of``,
``extend_basis`` and the Rabinowitsch elimination shared by ``saturate``
and ``radical_member`` are computed once per distinct input value; the
memo is dropped when the scope ends, and it cannot change a result
because a reduced basis is unique for its ideal and order.
"""

from __future__ import annotations

from bisect import insort
from contextlib import contextmanager
from contextvars import ContextVar
from heapq import heappush, heappop
from typing import Callable, Iterable, Iterator, Sequence

from .gf import ContractViolation
from .rings import PolyRing, Polynomial


class GroebnerBasis:
    """Reduced Groebner basis; unique per (ideal, order).

    Generators are monic, inter-reduced and stored in descending
    leading-monomial order, so structural equality decides ideal
    equality.  The empty tuple represents the zero ideal.
    """

    __slots__ = ("ring", "gens", "_reducers", "_quotient")

    def __init__(self, ring: PolyRing, gens: tuple[Polynomial, ...]):
        self.ring = ring
        self.gens = gens
        self._reducers = None
        self._quotient = None  # zero-dimensional structure, filled lazily

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_one()

    @property
    def is_zero_ideal(self) -> bool:
        return not self.gens

    def reducers(self):
        """Generators prepared for reduction, ascending by leading key."""
        if self._reducers is None:
            self._reducers = _prep_reducers(self.gens)
        return self._reducers

    def lead_evecs(self) -> list[int]:
        return [g.terms[0][1] for g in self.gens]

    def __iter__(self):
        return iter(self.gens)

    def __len__(self) -> int:
        return len(self.gens)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and self.gens == other.gens
        )

    def __hash__(self) -> int:
        return hash((self.ring.names, self.gens))

    def __repr__(self) -> str:
        return "GB{" + ", ".join(map(str, self.gens)) + "}"

    def contains(self, f: Polynomial) -> bool:
        return ideal_member(f, self)


def _prep_reducers(gens: Sequence[Polynomial]):
    """[(lm_key, lm_evec, tail_terms)] sorted ascending by lm_key."""
    reds = []
    for g in gens:
        k, ev, c = g.terms[0]
        assert c == 1, "reducers must be monic"
        reds.append((k, ev, g.terms[1:]))
    reds.sort(key=lambda r: r[0])
    return reds


def _reduce_terms(ring: PolyRing, terms, reducers,
                  bound: int | None = None) -> dict[int, tuple[int, int]]:
    """Fully reduce a term stream; returns {evec: (key, coeff)} remainder.

    Heap-driven: monomials are processed in strictly decreasing order,
    so once a monomial is popped no further contributions to it can
    appear and it can be finalized or rewritten on the spot.

    With a signature ``bound`` (a key), each reducer carries its
    signature key as a fourth entry and may rewrite a term of key k
    only when (k / lead) * signature < bound, i.e. when
    ``k - lead_key + sig_key < bound``: the regular reduction of
    signature-based algorithms.
    """
    p = ring.field.p
    guard = ring._evec_guard
    acc: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    out: dict[int, tuple[int, int]] = {}
    acc_get = acc.get
    acc_pop = acc.pop
    push = heappush
    pop = heappop
    for k, ev, c in terms:
        v = acc_get(ev)
        if v is None:
            acc[ev] = c % p
            push(heap, (-k, ev))
        else:
            acc[ev] = (v + c) % p
    while heap:
        nk, ev = pop(heap)
        c = acc_pop(ev, 0)
        if not c:
            continue
        k = -nk
        hit = None
        for red in reducers:
            if red[0] > k:
                break
            d = ev - red[1]
            if d >= 0 and not (d & guard) and (
                    bound is None or k - red[0] + red[3] < bound):
                hit = red
                break
        if hit is None:
            out[ev] = (k, c)
            continue
        dk = k - hit[0]
        dev = ev - hit[1]
        for tk, tev, tc in hit[2]:
            nev = tev + dev
            v = acc_get(nev)
            if v is None:
                acc[nev] = (-c * tc) % p
                push(heap, (-(tk + dk), nev))
            else:
                acc[nev] = (v - c * tc) % p
    return out


def normal_form(f: Polynomial, basis: "GroebnerBasis | Sequence[Polynomial]") -> Polynomial:
    """Remainder of f modulo the basis; unique for a reduced basis."""
    if isinstance(basis, GroebnerBasis):
        if f.ring != basis.ring:
            raise ContractViolation("polynomial and basis from different rings")
        reducers = basis.reducers()
        ring = basis.ring
    else:
        ring = f.ring
        reducers = _prep_reducers([g.monic() for g in basis if not g.is_zero()])
    if f.is_zero() or not reducers:
        return f
    return ring._from_keyed(_reduce_terms(ring, f.terms, reducers))


def _spoly_terms(ring: PolyRing, f: Polynomial, g: Polynomial, lcm_ev: int):
    """Term stream of the S-polynomial of two monic polynomials."""
    kl = ring.key_of_evec(lcm_ev)
    fk, fe, _ = f.terms[0]
    gk, ge, _ = g.terms[0]
    p = ring.field.p
    stream = [(k + kl - fk, ev + lcm_ev - fe, c) for k, ev, c in f.terms[1:]]
    stream += [(k + kl - gk, ev + lcm_ev - ge, (-c) % p) for k, ev, c in g.terms[1:]]
    return stream


def buchberger(polys: Iterable[Polynomial], ring: PolyRing | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``polys``, from scratch.

    The unit ideal is returned as the single generator {1}.  An empty
    input (or all zeros) yields the zero ideal with no generators.

    This is the route for bases with no known part; ``extend_basis``
    adds generators to a basis already known.  Building a basis from
    scratch by adding the inputs one at a time to the zero ideal with
    ``_sig_step`` is far slower, because the intermediate ideals can be
    much harder than the final one.
    """
    polys = [f for f in polys if f is not None]
    if ring is None:
        if not polys:
            raise ContractViolation("cannot infer the ring from an empty input")
        ring = polys[0].ring
    for f in polys:
        if f.ring != ring:
            raise ContractViolation("all inputs must share one ring")

    inputs = [f for f in polys if not f.is_zero()]
    for f in inputs:
        if f.is_constant():
            return GroebnerBasis(ring, (ring.one(),))
    if not inputs:
        return GroebnerBasis(ring, ())

    unpack = ring.unpack_evec
    pack = ring.pack_evec
    keyfn = ring.key_of_evec
    divides = ring.divides

    gens: list[Polynomial] = []
    lm_e: list[int] = []
    lm_x: list[tuple[int, ...]] = []  # unpacked lead exponents, for lcms
    pairs: list[tuple[int, int, int, int]] = []  # (lcm_key, i, j, lcm_ev)
    reducers: list = []

    def full_reduce(stream) -> Polynomial:
        return ring._from_keyed(_reduce_terms(ring, stream, reducers))

    def add_reducer(g: Polynomial):
        k, ev, _ = g.terms[0]
        entry = (k, ev, g.terms[1:])
        lo, hi = 0, len(reducers)
        while lo < hi:
            mid = (lo + hi) // 2
            if reducers[mid][0] < k:
                lo = mid + 1
            else:
                hi = mid
        reducers.insert(lo, entry)

    def replace_reducer(old: Polynomial, new: Polynomial):
        k = old.terms[0][0]
        lo, hi = 0, len(reducers)
        while lo < hi:
            mid = (lo + hi) // 2
            if reducers[mid][0] < k:
                lo = mid + 1
            else:
                hi = mid
        assert reducers[lo][0] == k
        reducers[lo] = (k, new.terms[0][1], new.terms[1:])

    def retro_reduce(he: int):
        """Tail-reduce existing generators against the new lead monomial.

        Leads never change, so the pair bookkeeping stays valid, while
        later reductions see short tails instead of long cascades.
        """
        for idx in range(len(gens)):
            g = gens[idx]
            if any(divides(he, ev) for _, ev, _ in g.terms[1:]):
                # the reduced tail stays below the lead, so keep its keys
                newg = Polynomial(ring, g.terms[:1] + full_reduce(g.terms[1:]).terms)
                replace_reducer(g, newg)
                gens[idx] = newg

    def update(h: Polynomial):
        """Gebauer-Moeller pair update with the new generator h."""
        nonlocal pairs
        t = len(gens)
        he = h.terms[0][1]
        hx = unpack(he)
        cand = []
        for i in range(t):
            le = pack(tuple(map(max, lm_x[i], hx)))
            cand.append((keyfn(le), i, le))
        cand.sort()
        kept: list[tuple[int, int, int]] = []
        for lk, i, le in cand:
            if any(divides(le2, le) for _, _, le2 in kept):
                continue
            kept.append((lk, i, le))
        # prune old pairs made redundant by h
        newpairs = []
        for entry in pairs:
            _, i, j, le = entry
            if divides(he, le):
                if (pack(tuple(map(max, lm_x[i], hx))) != le
                        and pack(tuple(map(max, lm_x[j], hx))) != le):
                    continue
            newpairs.append(entry)
        # drop coprime pairs (product criterion) after they served in pruning
        for lk, i, le in kept:
            if le != lm_e[i] + he:
                newpairs.append((lk, i, t, le))
        newpairs.sort()
        pairs = newpairs
        retro_reduce(he)
        gens.append(h)
        lm_e.append(he)
        lm_x.append(hx)
        add_reducer(h)

    # seed with the reduced inputs, smallest leading terms first
    inputs.sort(key=lambda f: f.terms[0][0])
    for f in inputs:
        r = full_reduce(f.terms)
        if r.is_zero():
            continue
        if r.is_constant():
            return GroebnerBasis(ring, (ring.one(),))
        update(r.monic())

    cursor = 0
    while cursor < len(pairs):
        _, i, j, le = pairs[cursor]
        cursor += 1
        stream = _spoly_terms(ring, gens[i], gens[j], le)
        r = full_reduce(stream)
        if r.is_zero():
            continue
        if r.is_constant():
            return GroebnerBasis(ring, (ring.one(),))
        pairs = pairs[cursor:]
        cursor = 0
        update(r.monic())

    return GroebnerBasis(ring, _interreduce(ring, gens))


def _interreduce(ring: PolyRing, gens: list[Polynomial]) -> tuple[Polynomial, ...]:
    """Minimalize and tail-reduce to the unique reduced basis."""
    if not gens:
        return ()
    # minimal generators: leading monomial not divisible by another's
    order = sorted(range(len(gens)), key=lambda i: gens[i].terms[0][0])
    keep: list[int] = []
    kept_lms: list[int] = []
    for i in order:
        lm = gens[i].terms[0][1]
        if any(ring.divides(e, lm) for e in kept_lms):
            continue
        keep.append(i)
        kept_lms.append(lm)
    minimal = [gens[i] for i in keep]
    reducers = _prep_reducers(minimal)
    # every term of a tail stays below its own lead, so g never reduces
    # itself and one reducer list serves all generators
    reduced = [
        Polynomial(ring, g.terms[:1]
                   + ring._from_keyed(_reduce_terms(ring, g.terms[1:], reducers)).terms)
        for g in minimal
    ]
    reduced.sort(key=lambda f: f.terms[0][0], reverse=True)
    return tuple(reduced)


def _sig_step(basis: GroebnerBasis, f: Polynomial) -> GroebnerBasis:
    """Reduced basis of <basis> + <f>: one signature-based (F5C) step.

    Every new element carries a monomial signature s, standing for
    s * e_f; f, reduced by the basis P and made monic, has signature 1.
    Pair signatures are processed once each, in increasing order.  A
    signature divisible by a lead of P (Koszul) or by a recorded
    syzygy is skipped; otherwise the latest-added element whose
    signature divides it (rewrite criterion) is multiplied up to that
    signature and regular-reduced: elements of P always reduce, a new
    element only when its multiplied signature is strictly smaller.
    """
    ring = basis.ring
    unit = GroebnerBasis(ring, (ring.one(),))
    p_reds = basis.reducers()
    r = ring._from_keyed(_reduce_terms(ring, f.terms, p_reds))
    if r.is_zero():
        return basis
    if r.is_constant():
        return unit

    divides = ring.divides
    unpack = ring.unpack_evec
    pack = ring.pack_evec
    keyfn = ring.key_of_evec
    p_leads = basis.lead_evecs()
    p_x = [unpack(e) for e in p_leads]
    # below k - lead_key + sig for every key k: keys have nvars fields
    floor = -(1 << (ring.nvars * ring.width))
    reducers = [red + (floor,) for red in p_reds]
    sigs: list[tuple[int, int]] = []  # (key, evec) of each new element
    elems: list[Polynomial] = []
    elem_x: list[tuple[int, ...]] = []
    syz: list[int] = []
    heap: list[tuple[int, int]] = []

    def add(sk: int, se: int, h: Polynomial):
        lk, le, _ = h.terms[0]
        lx = unpack(le)
        for px, pe in zip(p_x, p_leads):
            lam = pack(tuple(map(max, lx, px)))
            if lam != le + pe:  # coprime pairs lie in LM(P)
                heappush(heap, (sk + keyfn(lam) - lk, se + lam - le))
        for (s2k, s2e), h2, x2 in zip(sigs, elems, elem_x):
            lam = pack(tuple(map(max, lx, x2)))
            lamk = keyfn(lam)
            k2, e2, _ = h2.terms[0]
            a = sk + lamk - lk
            b = s2k + lamk - k2
            if a > b:
                heappush(heap, (a, se + lam - le))
            elif b > a:
                heappush(heap, (b, s2e + lam - e2))
        sigs.append((sk, se))
        elems.append(h)
        elem_x.append(lx)
        insort(reducers, (lk, le, h.terms[1:], sk), key=lambda red: red[0])

    add(0, 0, r.monic())
    last = None
    while heap:
        sk, se = heappop(heap)
        if sk == last:
            continue
        last = sk
        if any(divides(e, se) for e in p_leads) or any(divides(z, se) for z in syz):
            continue
        i = len(sigs) - 1
        while not divides(sigs[i][1], se):
            i -= 1
        dk = sk - sigs[i][0]
        de = se - sigs[i][1]
        stream = [(k + dk, ev + de, c) for k, ev, c in elems[i].terms]
        h = ring._from_keyed(_reduce_terms(ring, stream, reducers, sk))
        if h.is_zero():
            syz.append(se)
            continue
        if h.is_constant():
            return unit
        hk, he, _ = h.terms[0]
        if any(divides(h2.terms[0][1], he) and hk - h2.terms[0][0] + s2k == sk
               for (s2k, _), h2 in zip(sigs, elems)):
            continue  # singular: a multiple of an element with signature sk
        add(sk, se, h.monic())
    return GroebnerBasis(ring, _interreduce(ring, list(basis.gens) + elems))


_MEMO: ContextVar[dict | None] = ContextVar("equidim_groebner_memo", default=None)


@contextmanager
def memo_scope() -> Iterator[None]:
    """Compute each ideal operation once per distinct input until exit."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _memoized(key: tuple, compute: Callable[[], GroebnerBasis]) -> GroebnerBasis:
    memo = _MEMO.get()
    if memo is None:
        return compute()
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = compute()
    return hit


def groebner_of(ring: PolyRing, polys: Iterable[Polynomial]) -> GroebnerBasis:
    """Like ``buchberger`` but usable with an empty generator list."""
    polys = tuple(polys)
    if not polys:
        return GroebnerBasis(ring, ())
    return _memoized(("gb", ring, polys), lambda: buchberger(polys, ring=ring))


def extend_basis(basis: GroebnerBasis, extra: Sequence[Polynomial]) -> GroebnerBasis:
    """Reduced basis of <basis> + <extra>, reusing the known basis.

    One ``_sig_step`` per extra, smallest leading term first, each on
    the reduced basis the previous step returned.
    """
    extra = tuple(f for f in extra if not f.is_zero())
    if any(f.ring != basis.ring for f in extra):
        raise ContractViolation("polynomial and basis from different rings")
    if not extra or basis.is_unit:
        return basis

    def compute() -> GroebnerBasis:
        out = basis
        for f in sorted(extra, key=lambda f: f.terms[0][0]):
            out = _sig_step(out, f)
        return out

    return _memoized(("extend", basis, extra), compute)


def ideal_member(f: Polynomial, basis: GroebnerBasis) -> bool:
    """f in <basis>, by zero normal form."""
    if basis.is_unit:
        return True
    return normal_form(f, basis).is_zero()


def _embed(ext: PolyRing, polys: Iterable[Polynomial]) -> list[Polynomial]:
    # a t-free term keeps its packed exponents and its key in ext
    return [Polynomial(ext, f.terms) for f in polys]


def _restrict_tfree(ring: PolyRing, ext: PolyRing, basis: GroebnerBasis) -> GroebnerBasis:
    """Extract the elements free of the auxiliary last variable."""
    w = ext.width
    tslot = ext.nvars - 1
    kept = []
    # the order eliminates t, so t-freeness of the lead term is enough;
    # the t-free part of a reduced basis is the reduced basis of the
    # elimination ideal, already in descending order
    for g in basis.gens:
        if (g.terms[0][1] >> (tslot * w)) == 0:
            kept.append(Polynomial(ring, g.terms))
    return GroebnerBasis(ring, tuple(kept))


def _saturation(basis: GroebnerBasis, g: Polynomial) -> GroebnerBasis:
    """(<basis> : g^inf) by Rabinowitsch elimination; {1} iff g is in the radical."""
    ring = basis.ring

    def compute() -> GroebnerBasis:
        ext = ring.extend_elim()
        # t-free generators of a grevlex basis stay a reduced basis
        # under the elimination order
        ext_basis = GroebnerBasis(ext, tuple(_embed(ext, basis.gens)))
        t = ext.var(ext.nvars - 1)
        rab = t * Polynomial(ext, g.terms) - 1
        eb = _sig_step(ext_basis, rab)
        if eb.is_unit:
            return GroebnerBasis(ring, (ring.one(),))
        return _restrict_tfree(ring, ext, eb)

    return _memoized(("saturation", basis, g), compute)


def saturate(F: "GroebnerBasis | Sequence[Polynomial]", g: Polynomial) -> GroebnerBasis:
    """Reduced basis of (<F> : g^inf), by elimination.

    A fresh variable t is appended as the last slot but ranked first;
    the basis of <F> + <t*g - 1> is computed under that order and the
    elements containing t are discarded.
    """
    ring = F.ring if isinstance(F, GroebnerBasis) else g.ring
    if g.ring != ring:
        raise ContractViolation("polynomial and ideal from different rings")
    if g.is_zero():
        raise ContractViolation("saturation by the zero polynomial")
    basis = F if isinstance(F, GroebnerBasis) else groebner_of(ring, F)
    if basis.is_unit or basis.is_zero_ideal or g.is_constant():
        return basis
    return _saturation(basis, g)


def saturate_seq(F: "GroebnerBasis | Sequence[Polynomial]",
                 factors: Sequence[Polynomial]) -> GroebnerBasis:
    """Successive saturation by each factor; constants are skipped."""
    if not isinstance(F, GroebnerBasis):
        F = tuple(F)
        polys = F + tuple(factors)
        if not polys:
            raise ContractViolation("cannot infer the ring from an empty input")
        F = groebner_of(polys[0].ring, F)
    current = F
    for g in factors:
        if g.is_zero():
            raise ContractViolation("saturation by the zero polynomial")
        if g.is_constant():
            continue
        if current.is_unit:
            return current
        current = saturate(current, g)
    return current


def radical_member(f: Polynomial, basis: GroebnerBasis) -> bool:
    """f vanishes on V(<basis>): Rabinowitsch trick over R[t]."""
    if basis.is_unit:
        return True
    if f.is_zero():
        return True
    ring = basis.ring
    if f.ring != ring:
        raise ContractViolation("polynomial and basis from different rings")
    if ideal_member(f, basis):
        return True
    if f.is_constant():
        return False  # nonzero constant vanishes nowhere; V is nonempty here
    return _saturation(basis, f).is_unit


def ideal_intersect(G1: GroebnerBasis, G2: GroebnerBasis) -> GroebnerBasis:
    """Reduced basis of <G1> meet <G2> via one auxiliary variable."""
    ring = G1.ring
    if G2.ring != ring:
        raise ContractViolation("ideals from different rings")
    if G1.is_unit:
        return G2
    if G2.is_unit:
        return G1
    if G1.is_zero_ideal or G2.is_zero_ideal:
        return GroebnerBasis(ring, ())
    ext = ring.extend_elim()
    t = ext.var(ext.nvars - 1)
    one_minus_t = ext.one() - t
    ext_gens = [t * g for g in _embed(ext, G1.gens)]
    ext_gens += [one_minus_t * g for g in _embed(ext, G2.gens)]
    eb = buchberger(ext_gens, ring=ext)
    return _restrict_tfree(ring, ext, eb)


def _minus_shifted(a: list[int], b: list[int], shift: int) -> list[int]:
    """a - t^shift * b, on coefficient lists lowest power first."""
    out = a + [0] * max(0, shift + len(b) - len(a))
    for i, c in enumerate(b):
        out[shift + i] -= c
    return out


def _hilbert_numerator(monos: list[tuple[int, ...]]) -> list[int]:
    """Numerator N(t) of the Hilbert series of R/<monos>, lowest power first.

    N(M + <m>) = N(M) - t^deg(m) * N(M : m) on minimal generators; when
    they are pairwise coprime, N is the product of the (1 - t^deg(m)).
    """
    minimal: list[tuple[int, ...]] = []
    for m in sorted(set(monos), key=sum):
        if not any(all(a <= b for a, b in zip(k, m)) for k in minimal):
            minimal.append(m)
    if all(not (a and b) for i, m in enumerate(minimal) for k in minimal[:i]
           for a, b in zip(m, k)):
        num = [1]
        for m in minimal:
            num = _minus_shifted(num, num, sum(m))
        return num
    pivot, rest = minimal[-1], minimal[:-1]
    colon = [tuple(max(a - b, 0) for a, b in zip(m, pivot)) for m in rest]
    return _minus_shifted(_hilbert_numerator(rest), _hilbert_numerator(colon), sum(pivot))


def hilbert_dim_degree(basis: GroebnerBasis) -> tuple[int, int]:
    """(dimension, degree) of R/<basis>, from the Hilbert series of its leads.

    N(t) / (1 - t)^n is the Hilbert series of R/LM(I); N is divided by
    (1 - t) while N(1) = 0.  The dimension is n minus the number of
    divisions and the degree is the final N(1) (Bayer-Stillman 1992;
    Cox-Little-O'Shea, ch. 9).  The dimension holds for any order; the
    degree is that of the affine variety, counted with multiplicity,
    under a graded order such as grevlex.
    """
    if basis.is_unit:
        raise ContractViolation("empty variety has no dimension")
    ring = basis.ring
    num = _hilbert_numerator([ring.unpack_evec(e) for e in basis.lead_evecs()])
    dim = ring.nvars
    while sum(num) == 0:
        # N = (1 - t) Q: the coefficients of Q are the prefix sums of N
        for i in range(1, len(num)):
            num[i] += num[i - 1]
        num.pop()
        dim -= 1
    return dim, sum(num)


def dimension(basis: GroebnerBasis) -> int:
    """Krull dimension of R/<basis>, from the Hilbert series of its leads."""
    return hilbert_dim_degree(basis)[0]


def is_zero_dim(basis: GroebnerBasis) -> bool:
    """Finitely many points: every variable has a pure power among the leads.

    Cheaper than the Hilbert series; the unit ideal is not zero-dimensional.
    """
    if basis.is_unit:
        return False
    ring = basis.ring
    w = ring.width
    mask = (1 << w) - 1
    pure = set()
    for ev in basis.lead_evecs():
        slots = [i for i in range(ring.nvars) if (ev >> (i * w)) & mask]
        if len(slots) == 1:
            pure.add(slots[0])
    return len(pure) == ring.nvars


def quotient_degree(basis: GroebnerBasis) -> int:
    """Number of standard monomials of a zero-dimensional ideal."""
    return len(standard_monomials(basis))


def standard_monomials(basis: GroebnerBasis) -> list[int]:
    """Packed standard monomials (staircase), ascending in the order.

    Requires a zero-dimensional ideal; raises on positive dimension.
    """
    if basis.is_unit:
        return []
    if not is_zero_dim(basis):
        raise ContractViolation("degree is defined for zero-dimensional ideals only")
    ring = basis.ring
    lead = basis.lead_evecs()
    divides = ring.divides
    w = ring.width
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for ev in frontier:
            for i in range(ring.nvars):
                child = ev + (1 << (i * w))
                if child in seen:
                    continue
                if any(divides(le, child) for le in lead):
                    continue
                seen.add(child)
                nxt.append(child)
        frontier = nxt
    return sorted(seen, key=ring.key_of_evec)
