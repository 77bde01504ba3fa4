"""Groebner engines and ideal-theoretic toolkit.

Reduced Groebner bases come from one of two routes:

* ``buchberger`` computes a basis from scratch with Faugere's F4
  (JPAA 1999): Gebauer-Moeller pair elimination, and the normal
  selection, which takes every pair of the lowest lcm degree at once
  and reduces them together as one Macaulay matrix in numpy, a degree
  with a single pair included.  The call's generators keep their terms
  as arrays for the matrices, in its reducer table; an element a matrix
  makes takes its arrays straight from its echelon row.  ``groebner_of``
  uses it.
* ``_sig_step`` extends a known reduced basis P by one polynomial f
  with signature criteria (F5C, Eder-Perry 2010; the rewrite criterion
  of Eder-Roune 2013).  ``extend_basis`` (on the gb backend; witness
  slices are extended in their quotient by ``zerodim.extended``), the
  certificate and the colon ideals behind ``saturate`` and
  ``radical_member`` use it; the Koszul criterion drops every pair
  whose signature lies in LM(P) when the pair is made, so such a pair
  never enters the step's queue.
  From the zero ideal ``extend_basis`` takes no step: {f / lc(f)} is
  already the reduced basis of <f>.
  The step returns its new elements without interreducing them, and
  ``extend_basis`` interreduces P with all of them.  In colon mode it
  returns instead the cofactors u of its reductions to zero, u * f in
  <P>, which with P form a Groebner basis of (<P> : f).

A saturation (I : g^inf) is the union of the chain of colon ideals
I_0 = I, I_(k+1) = I_k : g, with no auxiliary variable.  Each colon
ideal comes from one ``_sig_step`` of I_k by g in colon mode: every
element h it makes has a cofactor u with h = u * g modulo I_k, and a
regular reduction to zero at signature s leaves a u with u * g in I_k
and LM(u) = s outside LM(I_k).  Those u and I_k's basis form a Groebner
basis of I_k : g (Gao, Volny and Wang, Math. Comp. 85, 2016), and
``_interreduce`` makes it reduced.  The chain ends when a step finds no
syzygy, which proves g a nonzerodivisor modulo I_k, or reaches {1}; a
first step with no syzygy returns the basis of I itself.  The chain is
cheaper than eliminating t from I + <t*g - 1>: over the saturations of
one families-gb benchmark pass the elimination took about 1.8 times as
long.

After each step that grows the ideal, a certificate may stop the chain:
if the top form g* is a nonzerodivisor modulo I_k*, the ideal of top
forms, g is one modulo I_k, and I_k is the answer.  Under grevlex, the
package's one order, the top forms of the reduced basis of I_k are the
reduced basis of I_k*, with LM(I_k*) = LM(I_k) (Kreuzer-Robbiano,
Computational Commutative Algebra 2, 4.3).  One ``_sig_step`` of I_k*
by g* decides it from its own syzygies (see ``_regular_at_infinity``).
The test is one-sided: g = x is a unit modulo <x*y - 1>, yet x is a
zero divisor modulo <x*y>; a decline costs time, never correctness.  It
is not asked of I_0, where a colon step with no syzygy gives the same
answer: on the benchmark families it declined on every I_0, while
between steps it accepted 13 times on sos(3,6) gb.  The gb cells ask
it of I_0 without a signature step: where ``zerodim.at_infinity``
applies, g* a unit in the artinian ring of the points at infinity
proves g* a nonzerodivisor modulo I*, one quotient query.  15 of the
16 subtractions of ps(5) on the gb backend are certified so.

Polynomials are reduced one at a time by the heap kernel
``_reduce_terms``, and many at once by ``_block_reduce``.  The exact
linear algebra mod p is one core of three routines: ``_rref``, the
package's one echelon routine; ``_matmul``, matrix products that are
exact on float64 BLAS for every p < 2^31; and ``_block_reduce``, one
Macaulay matrix of shifted rows built by symbolic preprocessing and
reduced by a block triangular solve of ``_matmul`` products
(Faugere-Lachartre).  The block elimination has two callers.
``_f4_round`` passes the S-pair rows of one F4 degree, with one of
them per lcm as a given pivot row, and sends what is left on the free
columns to ``_rref``.  ``zerodim.low_degree_colon`` passes the new
Macaulay columns of one degree of its separator search, and each row
it gets back is that column's normal form.  Every echelon in
``zerodim`` and in the F4 rounds goes through ``_rref``.

The symbolic preprocessing of ``_block_reduce`` runs on arrays of keys
and evecs, not term by term.  It closes the set of monomials in waves:
the rows' terms, shifted by broadcasting, are the first wave; a wave is
deduplicated by one sort of its keys and a ``searchsorted`` against the
monomials already numbered, and each new monomial that a reducer lead
divides takes its first such reducer in ascending lead key from one
broadcast guard-bit test.  Those reducer rows' terms are the next wave;
most matrices close after two.  A ring whose packed monomials fit 63
bits keeps its packing in int64.  A wider ring (ps(5): 8 variables of
9 bits) repacks every exponent into 63 // n bits while the matrix's top
degree fits them, and otherwise runs the same code on object arrays of
Python ints.  The arrays belong to a
``_ReducerTable``, the reducer list the heap kernel reads: a basis's,
for ``zerodim.low_degree_colon``, or one ``buchberger`` call's.  They
live as long as their table, and no cache outlives it.

The heap kernel holds plain negated order keys in its heap and sums
coefficients by key as plain integers, reducing one mod p only when its
key is popped; it returns the remainder's terms in the order it pops
them, strictly descending, so its callers build a ``Polynomial`` from
them with no sort.  Every reduction modulo a fixed basis
(``normal_form``, the P part of ``_sig_step`` and of its cofactors)
looks the divisor of a monomial up in the basis's divisor memo, which
maps each monomial met to its first dividing reducer (or to none) and
is filled on first use.  Only the heap kernel writes the memo, with
``_first_divisor``, a scan of the reducers ascending by lead key that
stops at the first lead above the monomial; ``_block_reduce`` finds its
divisors by its own broadcast test and shares only the reducer table
with the kernel.
``_interreduce`` uses the same memo and scan to find out whether a tail
holds a term some lead divides, and sends only such a tail through the
kernel: any other tail would come back unchanged.  On top of them:
normal forms, ideal membership, saturation by a polynomial (colon
ideals) and radical membership (a saturation that is <1>).

Dimension, degree and staircase are read off the packed lead monomials
alone.  ``hilbert_dim_degree`` computes the first two from the Hilbert
series of R/LM(I): it carries each lead as a (degree, evec) pair,
minimalizes with the guard-bit divisibility test, and pivots on the
variable found in the most minimal generators (Bigatti, J. Pure Appl.
Algebra 119, 1997) until no two of them share a variable.
``standard_monomials`` enumerates the staircase as an order ideal, and
``is_zero_dim`` answers the frequent "finitely many points?" question
with the cheaper pure-power test.

Unit ideals short-circuit everywhere: as soon as a nonzero constant is
produced the basis {1} is returned, since empty cells arise constantly
during decomposition.

Inside ``memo_scope()`` (one ``decomp.equidim`` call) ``groebner_of``,
``extend_basis``, the saturation shared by ``saturate`` and
``radical_member``, and ``zerodim.quotient`` are computed once per
distinct input value; the memo is dropped when the scope ends, and it
cannot change a result because a reduced basis is unique for its ideal,
and a quotient is a function of its basis.
"""

from __future__ import annotations

from bisect import insort
from contextlib import contextmanager
from contextvars import ContextVar
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from .gf import ContractViolation
from .rings import DegreeOverflow, PolyRing, Polynomial


class GroebnerBasis:
    """Reduced Groebner basis; unique per ideal.

    Generators are monic, inter-reduced and stored in descending
    leading-monomial order, so structural equality decides ideal
    equality.  The empty tuple represents the zero ideal.
    """

    __slots__ = ("ring", "gens", "_reducers", "_divisors", "_quotient", "_hilbert", "_zero_dim",
                 "_hash")

    def __init__(self, ring: PolyRing, gens: tuple[Polynomial, ...]):
        self.ring = ring
        self.gens = gens
        self._reducers = None
        # packed monomial -> its first dividing reducer, or None; filled
        # by _reduce_terms on every reduction modulo this basis
        self._divisors: dict = {}
        self._quotient = None  # zero-dimensional structure, filled lazily
        self._hilbert = None  # (dimension, degree), filled by hilbert_dim_degree
        self._zero_dim = None  # filled by is_zero_dim
        self._hash = None  # filled on first use: memo keys hash a basis often

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_one()

    @property
    def is_zero_ideal(self) -> bool:
        return not self.gens

    def reducers(self) -> "_ReducerTable":
        """Generators prepared for reduction, ascending by leading key.

        The table also holds them as arrays once a ``_block_reduce``
        modulo this basis asks, and keeps those as long as the basis.
        """
        if self._reducers is None:
            self._reducers = _prep_reducers(self.gens)
        return self._reducers

    def reduce_terms(self, terms, extra=(), bound: int | None = None, log: list | None = None):
        """``_reduce_terms`` modulo this basis, through its divisor memo."""
        return _reduce_terms(self.ring, terms, self.reducers(), self._divisors, extra, bound, log)

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
        if self._hash is None:
            self._hash = hash((self.ring.names, self.gens))
        return self._hash

    def __repr__(self) -> str:
        return "GB{" + ", ".join(map(str, self.gens)) + "}"


def _prep_reducers(gens: Sequence[Polynomial]) -> "_ReducerTable":
    """[(lm_key, lm_evec, tail_terms)] sorted ascending by lm_key, as a ``_ReducerTable``."""
    reds = []
    for g in gens:
        k, ev, c = g.terms[0]
        assert c == 1, "reducers must be monic"
        reds.append((k, ev, g.terms[1:]))
    reds.sort(key=lambda r: r[0])
    return _ReducerTable(reds)


_UNSEEN = object()  # a memo miss: None is a stored answer


def _first_divisor(reducers, guard: int, k: int, ev: int):
    """The first reducer, ascending by lead key, whose lead divides ev; or None.

    A lead above the key k of ev cannot divide it, so the scan stops at
    the first such lead.
    """
    for red in reducers:
        if red[0] > k:
            return None
        d = ev - red[1]
        if d >= 0 and not (d & guard):
            return red
    return None


def _reduce_terms(ring: PolyRing, terms, reducers, divisors: dict | None = None,
                  extra=(), bound: int | None = None,
                  log: list | None = None) -> list[tuple[int, int, int]]:
    """Fully reduce a term stream; returns the remainder's (key, evec, coeff) terms.

    Heap-driven: monomials are processed in strictly decreasing order,
    so once a monomial is popped no further contributions to it can
    appear and it can be finalized or rewritten on the spot.  The
    remainder's terms come out in that order, strictly descending, with
    coefficients in [1, p), so they are a ``Polynomial``'s terms as
    they stand.  The heap holds plain negated order keys, and the
    coefficient sums are kept by key as plain integers, reduced mod p
    once, when the key is popped; a key's evec is looked up only then.
    Keys are additive and distinct monomials have distinct keys, so the
    key of a term shifted by a reducer's cofactor is one addition.

    A term is rewritten by the first reducer, in ascending lead key,
    whose lead divides it.  ``reducers`` are (lead key, lead evec,
    tail) entries, ascending.  When they are the fixed reducers of one
    basis, ``divisors`` is that basis's memo: it maps a monomial (its
    evec) to its first dividing reducer, or None, and is filled on first
    sight.

    ``extra`` entries carry their signature key and their index as a
    fourth and fifth entry, and are scanned on every pop, only below
    the key of the divisor found among ``reducers``, so the reducer
    chosen is the first of both lists merged.  Such an entry may
    rewrite a term of key k only when (k / lead) * signature <
    ``bound``, i.e. when ``k - lead_key + sig_key < bound``: the regular
    reduction of signature-based algorithms.  Each such rewrite adds
    m * x^dev * entry to the stream, and ``log``, when given, receives
    (index, key shift, dev, m) for it.
    """
    p = ring.field.p
    guard = ring._evec_guard
    acc: dict[int, int] = {}  # key -> coefficient sum
    evecs: dict[int, int] = {}  # key -> evec
    out: list[tuple[int, int, int]] = []
    memo = {} if divisors is None else divisors
    memo_get = memo.get
    acc_get = acc.get
    acc_pop = acc.pop
    push = heappush
    pop = heappop
    for k, ev, c in terms:
        v = acc_get(k)
        if v is None:
            acc[k] = c
            evecs[k] = ev
        else:
            acc[k] = v + c
    heap = [-k for k in acc]
    heapify(heap)
    while heap:
        k = -pop(heap)
        c = acc_pop(k) % p
        if not c:
            continue
        ev = evecs[k]
        hit = memo_get(ev, _UNSEEN)
        if hit is _UNSEEN:
            hit = _first_divisor(reducers, guard, k, ev)
            if divisors is not None:
                memo[ev] = hit
        if extra:
            top = k if hit is None else hit[0] - 1
            for red in extra:
                if red[0] > top:
                    break
                d = ev - red[1]
                if d >= 0 and not (d & guard) and k - red[0] + red[3] < bound:
                    hit = red
                    if log is not None:
                        log.append((red[4], k - red[0], d, p - c))
                    break
        if hit is None:
            out.append((k, ev, c))
            continue
        dk = k - hit[0]
        dev = ev - hit[1]
        m = p - c
        for tk, tev, tc in hit[2]:
            nk = tk + dk
            v = acc_get(nk)
            if v is None:
                acc[nk] = m * tc
                evecs[nk] = tev + dev
                push(heap, -nk)
            else:
                acc[nk] = v + m * tc
    return out


def normal_form(f: Polynomial, basis: "GroebnerBasis | Sequence[Polynomial]") -> Polynomial:
    """Remainder of f modulo the basis; unique for a reduced basis."""
    if isinstance(basis, GroebnerBasis):
        if f.ring != basis.ring:
            raise ContractViolation("polynomial and basis from different rings")
        if f.is_zero() or basis.is_zero_ideal:
            return f
        return Polynomial(basis.ring, tuple(basis.reduce_terms(f.terms)))
    ring = f.ring
    basis = list(basis)
    if any(g.ring != ring for g in basis):
        raise ContractViolation("polynomial and basis from different rings")
    reducers = _prep_reducers([g.monic() for g in basis if not g.is_zero()])
    if f.is_zero() or not reducers:
        return f
    return Polynomial(ring, tuple(_reduce_terms(ring, f.terms, reducers)))


def buchberger(polys: Iterable[Polynomial], ring: PolyRing | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``polys``, from scratch.

    The unit ideal is returned as the single generator {1}.  An empty
    input (or all zeros) yields the zero ideal with no generators.

    Faugere's F4 (JPAA 1999) with Gebauer-Moeller pair elimination and
    the normal selection: each round takes every pair whose lcm has
    the lowest total degree.  Every round builds one Macaulay matrix
    and reduces it by block elimination (``_f4_round``); a round of one
    pair has one pivot row for its lcm and one row to reduce.  The
    inputs enter through the heap kernel ``_reduce_terms``, smallest
    lead first, each reduced by those before it: the rounds' row
    de-duplication and reducer table need distinct leads.

    This is the route for bases with no known part; ``extend_basis``
    adds generators to a basis already known.  Building a basis from
    scratch by adding the inputs one at a time to the zero ideal with
    ``_sig_step`` is far slower, because the intermediate ideals can be
    much harder than the final one.
    """
    polys = list(polys)
    if ring is None:
        if not polys:
            raise ContractViolation("cannot infer the ring from an empty input")
        ring = polys[0].ring
    for f in polys:
        if f.ring != ring:
            raise ContractViolation("all inputs must share one ring")

    inputs = [f for f in polys if not f.is_zero()]
    unit = GroebnerBasis(ring, (ring.one(),))
    if any(f.is_constant() for f in inputs):
        return unit
    if not inputs:
        return GroebnerBasis(ring, ())

    lcm = ring.lcm_evec
    keyfn = ring.key_of_evec
    divides = ring.divides
    degree = ring.degree_of_key

    gens: list[Polynomial] = []
    pairs: list[tuple[int, int, int, int, int]] = []  # (lcm degree, lcm key, i, j, lcm evec)
    reducers = _ReducerTable()  # _reduce_terms entries of gens, ascending by lead key

    def update(h: Polynomial):
        """Gebauer-Moeller pair update with the new generator h."""
        nonlocal pairs
        t = len(gens)
        hk, he, _ = h.terms[0]
        cand = []
        for i in range(t):
            le = lcm(gens[i].terms[0][1], he)
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
            i, j, le = entry[2:]
            if divides(he, le):
                if (lcm(gens[i].terms[0][1], he) != le
                        and lcm(gens[j].terms[0][1], he) != le):
                    continue
            newpairs.append(entry)
        # drop coprime pairs (product criterion) after they served in pruning
        for lk, i, le in kept:
            if le != gens[i].terms[0][1] + he:
                d = degree(lk)
                if d > ring.cap:
                    raise DegreeOverflow(f"S-pair degree {d} exceeds cap {ring.cap}")
                newpairs.append((d, lk, i, t, le))
        newpairs.sort()
        pairs = newpairs
        gens.append(h)
        reducers.add((hk, he, h.terms[1:]))

    # seed with the reduced inputs, smallest leading terms first
    inputs.sort(key=lambda f: f.terms[0][0])
    for f in inputs:
        r = Polynomial(ring, tuple(_reduce_terms(ring, f.terms, reducers)))
        if r.is_zero():
            continue
        if r.is_constant():
            return unit
        update(r.monic())

    while pairs:
        d = pairs[0][0]
        cut = 1
        while cut < len(pairs) and pairs[cut][0] == d:
            cut += 1
        batch, pairs = pairs[:cut], pairs[cut:]
        for h in _f4_round(ring, gens, reducers, batch):
            if h.is_constant():
                return unit
            update(h)

    return GroebnerBasis(ring, _interreduce(ring, gens))


def _f4_round(ring: PolyRing, gens: list[Polynomial], reducers,
              batch: list[tuple[int, int, int, int, int]]) -> list[Polynomial]:
    """New monic basis elements from one degree's S-pairs, by one Macaulay matrix.

    Rows are multiples m * g of the monic generators.  Both halves of
    every pair enter, and the first row with each lcm is that lead's
    pivot row; the others are reduced by ``_block_reduce``, whose
    symbolic preprocessing adds the reducer rows.  The echelon form of
    what they leave on the free columns gives the new elements, reduced
    by the basis and by each other.
    """
    pivots: dict[int, tuple] = {}  # lcm -> its pivot row
    rest: list[tuple] = []  # (poly, dev, dk): the row x^dev * g
    seen: set[tuple[int, int]] = set()
    for _, lk, i, j, le in batch:
        for g in (gens[i], gens[j]):
            gk, ge, _ = g.terms[0]
            if (ge, le) in seen:
                continue
            seen.add((ge, le))
            row = (reducers.poly(g.terms), le - ge, lk - gk)
            if le in pivots:
                rest.append(row)
            else:
                pivots[le] = row
    if not rest:
        return []
    E, mons = _block_reduce(ring, rest, reducers, pivots=list(pivots.values()))
    R, _ = _rref(E, ring.field.p)
    new = []
    for row in R:
        h = _row_poly(row, mons)
        reducers.polys[h.terms[0][1]] = h  # its arrays, for the rounds that follow
        new.append(Polynomial(ring, h.terms))
    return new


class _Packing(NamedTuple):
    """How one ``_block_reduce`` call holds keys and evecs in arrays."""

    width: int  # bits of one exponent field, guard bit included
    dtype: type  # np.int64, or object for Python ints
    guard: int  # the guard bit of every field


def _packing(ring: PolyRing, top: int) -> _Packing:
    """The packing of a call whose monomials all have degree at most ``top``.

    A ring whose packed monomials fit 63 bits keeps its own packing, in
    int64.  A wider ring repacks every exponent into a field of 63 // n
    bits, if ``top`` stays below that field's guard bit: a key and an
    evec are both vectors of fields, each at most the degree, so the
    order and the guard-bit test carry over.  The field is the
    widest that fits, not the narrowest for ``top``, so that arrays
    built for one call serve every later one.  Any other call runs on
    object arrays of Python ints in the ring's own packing.
    """
    n, w = ring.nvars, ring.width
    if n * w <= 63:
        return _Packing(w, np.int64, ring._evec_guard)
    narrow = 63 // n
    if narrow >= 2 and top < 1 << (narrow - 1):
        return _Packing(narrow, np.int64, sum(1 << (i * narrow + narrow - 1) for i in range(n)))
    return _Packing(w, object, ring._evec_guard)


def _relayout(values: np.ndarray, n: int, w_from: int, w_to: int) -> np.ndarray:
    """Packed vectors of n fields moved from fields of w_from bits to w_to bits.

    The values are cut into int64 pieces of whole fields, in which the
    fields move by int64 operations; only the cutting and the joining
    touch Python ints, once per piece.  The result is int64 when n
    fields of w_to bits fit 63 bits, and object otherwise.
    """
    per = 63 // max(w_from, w_to)  # fields in one piece
    mask = (1 << w_from) - 1
    wide = n * w_to > 63
    out = None
    for j in range(0, n, per):
        piece = ((values >> (j * w_from)) & ((1 << (per * w_from)) - 1)).astype(np.int64)
        moved = np.zeros(len(values), dtype=np.int64)
        for i in range(min(per, n - j)):
            moved |= ((piece >> (i * w_from)) & mask) << (i * w_to)
        moved = moved.astype(object) << (j * w_to) if wide else moved << (j * w_to)
        out = moved if out is None else out | moved
    return out


def _to_packing(ring: PolyRing, pk: _Packing, values: list[int]) -> np.ndarray:
    """Keys or evecs of the ring, as an array in the packing ``pk``."""
    if pk.width == ring.width:
        return np.array(values, dtype=pk.dtype)
    return _relayout(np.array(values, dtype=object), ring.nvars, ring.width, pk.width)


def _from_packing(ring: PolyRing, pk: _Packing, values: np.ndarray) -> list[int]:
    """An array of keys or evecs in ``pk``, as the ring's Python ints."""
    if pk.width == ring.width:
        return values.tolist()
    return _relayout(values, ring.nvars, pk.width, ring.width).tolist()


class _TermArrays:
    """A polynomial's (key, evec, coeff) terms, and the same as arrays in one packing.

    The arrays are given by a caller that has them, such as an echelon
    row on the free columns of a matrix, or built from the terms when a
    call asks for a packing they are not in.
    """

    __slots__ = ("terms", "packing", "arrays")

    def __init__(self, terms, packing: _Packing | None = None, arrays=None):
        self.terms = terms
        self.packing = packing
        self.arrays = arrays

    def get(self, ring: PolyRing, pk: _Packing) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, evecs, coefficients) in the packing ``pk``."""
        if self.packing != pk:
            t = self.terms
            self.arrays = (_to_packing(ring, pk, [k for k, _, _ in t]),
                           _to_packing(ring, pk, [ev for _, ev, _ in t]),
                           np.array([c for _, _, c in t], dtype=np.int64))
            self.packing = pk
        return self.arrays


class _Columns(list):
    """The (key, evec) of a matrix's free columns, and the same as arrays in its packing."""

    __slots__ = ("packing", "keys", "evecs")

    def __init__(self, ring: PolyRing, pk: _Packing, keys: np.ndarray, evecs: np.ndarray):
        super().__init__(zip(_from_packing(ring, pk, keys), _from_packing(ring, pk, evecs)))
        self.packing, self.keys, self.evecs = pk, keys, evecs


def _row_poly(row: np.ndarray, mons: _Columns) -> _TermArrays:
    """The polynomial of a row on the columns ``mons``, with its arrays."""
    nz = np.flatnonzero(row)
    arrays = (mons.keys[nz], mons.evecs[nz], row[nz])
    return _TermArrays(_row_terms(row, mons), mons.packing, arrays)


def _concat(parts: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def _segments(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The indices of the slices [start_i, start_i + length_i), one after another."""
    offset = np.cumsum(length) - length
    return np.repeat(start - offset, length) + np.arange(int(length.sum()))


class _ReducerTable(list):
    """Reducers (lead key, lead evec, tail), ascending by lead key, also held as arrays.

    The heap kernel reads the list.  ``_block_reduce`` reads ``flat``:
    every reducer's terms, its lead first, concatenated in the list's
    order.  ``polys`` keeps each reducer's ``_TermArrays`` by lead evec;
    ``buchberger`` puts an F4 element's arrays there when it has them,
    and any other is built from its terms on first use.  The arrays live
    as long as the table: the basis it belongs to, or one ``buchberger``
    call.
    """

    __slots__ = ("polys", "_flat")

    def __init__(self, entries=()):
        super().__init__(entries)
        self.polys: dict[int, _TermArrays] = {}
        self._flat = None

    def add(self, entry) -> None:
        insort(self, entry, key=lambda red: red[0])
        self._flat = None

    def poly(self, terms) -> _TermArrays:
        """The ``_TermArrays`` of the reducer whose terms these are."""
        rec = self.polys.get(terms[0][1])
        if rec is None:
            rec = self.polys[terms[0][1]] = _TermArrays(terms)
        return rec

    def flat(self, ring: PolyRing, pk: _Packing):
        """(lead keys, lead evecs, starts, lengths, keys, evecs, coeffs) in ``pk``.

        A repacked table holds the reducers whose degree the packing
        holds, a prefix of the list; a call in that packing meets no
        monomial of higher degree.
        """
        if self._flat is None or self._flat[0] != pk:
            reds = self
            if pk.width != ring.width:
                top = (1 << (pk.width - 1)) - 1
                reds = [red for red in self if ring.degree_of_key(red[0]) <= top]
            parts = [self.poly(((k, ev, 1),) + tail).get(ring, pk) for k, ev, tail in reds]
            length = np.array([len(c) for _, _, c in parts], dtype=np.intp)
            start = np.cumsum(length) - length
            keys = _concat([k for k, _, _ in parts], pk.dtype)
            evecs = _concat([e for _, e, _ in parts], pk.dtype)
            self._flat = (pk, keys[start], evecs[start], start, length, keys, evecs,
                          _concat([c for _, _, c in parts], np.int64))
        return self._flat[1:]


def _first_divisors(evecs: np.ndarray, keys: np.ndarray, lead_keys: np.ndarray,
                    leads: np.ndarray, guard: int) -> np.ndarray:
    """For each monomial, its first dividing lead in ascending lead key, or -1.

    One broadcast guard-bit test per block of monomials: lead divides
    ev iff ev - lead has no guard bit set, since a negative field, and
    so a negative difference, sets one.  Leads above the largest key
    divide none and are left out.  This is ``_first_divisor``'s choice.
    """
    out = np.full(len(evecs), -1, dtype=np.intp)
    r = int(np.searchsorted(lead_keys, keys.max(), side="right")) if len(keys) else 0
    if not r:
        return out
    step = max(1, (1 << 16) // r)  # bounds the block's broadcast
    for a in range(0, len(evecs), step):
        ok = ((evecs[a:a + step, None] - leads[None, :r]) & guard) == 0
        first = ok.argmax(axis=1)
        out[a:a + step] = np.where(ok[np.arange(len(first)), first], first, -1)
    return out


# the most entries of the dense Macaulay matrix ``_block_reduce``
# allocates: 1 GiB of int64
MAX_MATRIX_ENTRIES = 2**27


def _block_reduce(ring: PolyRing, rows, reducers: _ReducerTable,
                  pivots=()) -> tuple[np.ndarray, _Columns]:
    """Rows reduced by reducer multiples as one Macaulay matrix.

    A row is (poly, dev, dk): the polynomial ``poly``, given by its
    (key, evec, coeff) terms (distinct monomials, descending,
    coefficients in [1, p)) or by a ``_TermArrays``, times the monomial
    of evec dev and key dk.  ``pivots`` are rows with monic, distinct
    leads, taken as pivot rows as they are.  Symbolic preprocessing
    gives every other monomial met that a lead of ``reducers`` divides
    one pivot row, a multiple of its first dividing reducer in ascending
    lead key (``_first_divisor``'s choice), so the free columns are the
    monomials no lead divides.

    The preprocessing is a closure in waves on arrays of keys and evecs
    (``_packing``).  Wave 0 is every term of the rows and pivots,
    shifted by broadcasting; a wave's monomials are deduplicated by one
    sort of their keys and a ``searchsorted`` against the monomials
    already numbered, and the new ones that no given pivot leads take
    their first dividing reducer from one broadcast guard-bit test
    (``_first_divisors``).  The terms of those reducer rows, gathered
    from the table's flat arrays, are the next wave.  It writes no
    divisor memo: the heap kernel fills a basis's memo on its own
    lookups.

    The rows are then reduced as one block elimination (Faugere-
    Lachartre, PASCO 2010).  In the matrix [A B; C D] the pivot rows
    come first, A on their lead columns and B on the free columns;
    [C D] are ``rows``.  A = I + N is unit upper triangular, since every
    pivot row is monic with its other terms right of its lead.  X A = C
    is solved one level at a time, where a pivot row's level is one
    above the highest level among the pivot rows with a term on its lead
    column, so each level is one ``_matmul``.

    A matrix of more than ``MAX_MATRIX_ENTRIES`` entries raises
    ``ContractViolation`` before it is allocated.

    Returns D - X B, row i being ``rows[i]`` minus multiples of pivot
    rows, on the free columns, and those columns' (key, evec), in
    descending order, also as arrays (``_Columns``).  With ``pivots``
    empty, row i is the normal form of ``rows[i]`` modulo the reducers'
    basis.
    """
    p = ring.field.p
    nrest = len(rows)
    # the distinct row polynomials, and each row's one among them
    polys: list[_TermArrays] = []
    seen: dict[int, int] = {}
    which, devs, dks = [], [], []
    for t, dev, dk in (*rows, *pivots):
        i = seen.get(id(t))
        if i is None:
            i = seen[id(t)] = len(polys)
            polys.append(t if isinstance(t, _TermArrays) else _TermArrays(t))
        which.append(i)
        devs.append(dev)
        dks.append(dk)
    top = 0
    if ring.nvars * ring.width > 63:
        # a row's lead has its top degree
        degree = ring.degree_of_key
        top = max((degree(polys[i].terms[0][0] + dk) for i, dk in zip(which, dks)
                   if polys[i].terms), default=0)
    pk = _packing(ring, top)
    parts = [t.get(ring, pk) for t in polys]
    length = np.array([len(c) for _, _, c in parts], dtype=np.intp)
    start = np.cumsum(length) - length
    which = np.array(which, dtype=np.intp)
    lens = length[which]
    at = _segments(start[which], lens)
    wk = _concat([k for k, _, _ in parts], pk.dtype)[at]
    wk += np.repeat(_to_packing(ring, pk, dks), lens)
    we = _concat([e for _, e, _ in parts], pk.dtype)[at]
    we += np.repeat(_to_packing(ring, pk, devs), lens)
    npiv = len(pivots)
    terms_k = [wk]  # every row's terms, row after row
    coeffs = [_concat([c for _, _, c in parts], np.int64)[at]]
    owner = [np.repeat(np.arange(-nrest, npiv), lens)]  # pivot row, or negative in a row to reduce
    lead_k = [wk[(np.cumsum(lens) - lens)[nrest:]]]  # pivot rows' lead keys, in pivot order
    given = np.sort(lead_k[0])
    red_k, red_e, red_start, red_len, tab_k, tab_e, tab_c = reducers.flat(ring, pk)

    # symbolic preprocessing: a wave's new monomials are numbered, and
    # those a reducer lead divides bring that reducer's row, whose terms
    # are the next wave
    known = np.zeros(0, dtype=pk.dtype)  # keys numbered so far, ascending
    new_k, new_e = [], []
    while len(wk):
        order = np.argsort(wk)
        wk, we = wk[order], we[order]
        fresh = np.ones(len(wk), dtype=bool)
        fresh[1:] = wk[1:] != wk[:-1]
        if len(known):
            pos = np.minimum(np.searchsorted(known, wk), len(known) - 1)
            fresh &= known[pos] != wk
        wk, we = wk[fresh], we[fresh]
        if not len(wk):
            break
        new_k.append(wk)
        new_e.append(we)
        known = np.sort(np.concatenate((known, wk)))
        if len(given):
            pos = np.minimum(np.searchsorted(given, wk), len(given) - 1)
            lead = given[pos] == wk
            wk, we = wk[~lead], we[~lead]
        red = _first_divisors(we, wk, red_k, red_e, pk.guard)
        hit = red >= 0
        red, wk, we = red[hit], wk[hit], we[hit]
        lens = red_len[red]
        at = _segments(red_start[red], lens)
        lead_k.append(wk)
        owner.append(np.repeat(np.arange(npiv, npiv + len(red)), lens))
        npiv += len(red)
        coeffs.append(tab_c[at])
        wk = tab_k[at] + np.repeat(wk - red_k[red], lens)
        we = tab_e[at] + np.repeat(we - red_e[red], lens)
        terms_k.append(wk)

    # columns by descending monomial
    col_k, col_e = _concat(new_k, pk.dtype), _concat(new_e, pk.dtype)
    order = np.argsort(col_k)
    ascending = col_k[order]
    ncols = len(order)
    if (npiv + nrest) * ncols > MAX_MATRIX_ENTRIES:
        top = int(ascending[-1]) >> ((ring.nvars - 1) * pk.width)  # a key's top field
        raise ContractViolation(f"Macaulay matrix {npiv + nrest} x {ncols} over {ring} up to "
                                f"degree {top} exceeds {MAX_MATRIX_ENTRIES} entries")
    pivot_of = np.concatenate(owner)
    cols = ncols - 1 - np.searchsorted(ascending, _concat(terms_k, pk.dtype))
    lead_cols = ncols - 1 - np.searchsorted(ascending, _concat(lead_k, pk.dtype))
    slot = np.full(ncols, -1, dtype=np.intp)  # the pivot row of each lead column
    slot[lead_cols] = np.arange(npiv)
    # level of a pivot row: the longest chain of pivot rows, each with a
    # term on the next one's lead column, that ends at it; the chains
    # run to the right, so this settles in as many passes as the longest
    edge = (pivot_of >= 0) & (slot[cols] >= 0) & (slot[cols] != pivot_of)
    src, dst = pivot_of[edge], slot[cols[edge]]
    level = np.zeros(npiv, dtype=np.intp)
    while True:
        nxt = np.zeros(npiv, dtype=np.intp)
        np.maximum.at(nxt, dst, level[src] + 1)
        if np.array_equal(nxt, level):
            break
        level = nxt
    by_level = np.argsort(level, kind="stable")
    free = np.flatnonzero(slot < 0)

    # [A B; C D]: the pivot rows and their lead columns in level order,
    # then the rows to reduce and the free columns; A = I + N
    row_at = np.empty(nrest + npiv, dtype=np.intp)
    row_at[nrest + by_level] = np.arange(npiv)
    row_at[:nrest] = np.arange(npiv, npiv + nrest)
    col_at = np.empty(ncols, dtype=np.intp)
    col_at[lead_cols[by_level]] = np.arange(npiv)
    col_at[free] = np.arange(npiv, ncols)
    M = np.zeros((npiv + nrest, ncols), dtype=np.int64)
    M[row_at[pivot_of + nrest], col_at[cols]] = np.concatenate(coeffs)
    A, B, C, D = M[:npiv, :npiv], M[:npiv, npiv:], M[npiv:, :npiv], M[npiv:, npiv:]
    # X A = C: each level depends only on the levels before it, whose
    # X overwrites C
    ends = np.cumsum(np.bincount(level)).tolist()
    for a, b in zip(ends, ends[1:]):
        C[:, a:b] = (C[:, a:b] - _matmul(C[:, :a], A[:a, a:b], p)) % p
    keep = order[::-1][free]
    return (D - _matmul(C, B, p)) % p, _Columns(ring, pk, col_k[keep], col_e[keep])


def _row_terms(row: np.ndarray, mons: list[tuple[int, int]]) -> tuple[tuple[int, int, int], ...]:
    """The (key, evec, coeff) terms of a row on the columns ``mons``."""
    nz = np.flatnonzero(row)
    return tuple((*mons[c], v) for c, v in zip(nz.tolist(), row[nz].tolist()))


def _rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p); returns (rref, pivot columns).

    Each pivot is one dense rank-one update of the columns from the
    pivot on (the pivot row is zero left of it); entries stay in [0, p)
    with p < 2^31, so the update a - c * b is exact in int64.  A run of
    columns that is zero below the current row is crossed with one scan,
    and the loop ends when the rows left are zero, so a matrix of rank r
    costs r updates.
    """
    m = np.asarray(mat, dtype=np.int64) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = c = 0
    while r < rows and c < cols:
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            ahead = np.flatnonzero(m[r:, c:].any(axis=0))
            if ahead.size == 0:
                break
            c += int(ahead[0])
            nz = np.flatnonzero(m[r:, c])
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        row = m[r, c:]
        row *= pow(int(row[0]), p - 2, p)
        row %= p
        col = m[:, c].copy()
        col[r] = 0
        tail = m[:, c:]
        tail -= np.outer(col, row)
        tail %= p
        pivots.append(c)
        r += 1
        c += 1
    return m[:r], pivots


# the 16-bit limbs of entries below 2^31 have products below 2^32, so
# float64 sums of up to LIMB_INNER of them are exact
LIMB_INNER = 1 << 21


def _matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p for entries in [0, p), exactly, on float64 BLAS.

    One float64 product is exact while every dot product stays below
    2^53, inner * (p - 1)^2 < 2^53.  Past that both factors are split
    into 16-bit limbs, A = A1 * 2^16 + A0, and the four limb products,
    each exact for inner dimensions up to 2^21, are reduced mod p and
    recombined in int64; a longer inner dimension is summed in chunks.
    """
    inner = A.shape[1]
    if inner * (p - 1) ** 2 < 2**53:
        return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64) % p
    if inner > LIMB_INNER:
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        for s in range(0, inner, LIMB_INNER):
            out += _matmul(A[:, s:s + LIMB_INNER], B[s:s + LIMB_INNER], p)
        return out % p
    A1, A0 = (A >> 16).astype(np.float64), (A & 0xFFFF).astype(np.float64)
    B1, B0 = (B >> 16).astype(np.float64), (B & 0xFFFF).astype(np.float64)

    def limb(X, Y):
        return (X @ Y).astype(np.int64) % p

    hi = (limb(A1, B1) << 16) + limb(A1, B0) + limb(A0, B1)
    return (((hi % p) << 16) + limb(A0, B0)) % p


def _matvec(A: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    return _matmul(A, v.reshape(-1, 1), p).reshape(-1)


def _interreduce(ring: PolyRing, gens: list[Polynomial]) -> tuple[Polynomial, ...]:
    """Minimalize and tail-reduce to the unique reduced basis.

    A minimal generator none of whose tail terms is divisible by a
    minimal lead is already reduced, and the heap kernel would return
    its tail unchanged, so it is kept as it is.  The test looks each
    tail term up as the kernel does, in the shared divisor memo or else
    with ``_first_divisor``, and stops at the first term with a divisor;
    the kernel then finds the terms already looked up in the memo.
    """
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
    # itself and one reducer list, with one divisor memo, serves all
    # generators
    guard = ring._evec_guard
    divisors: dict = {}
    reduced = []
    for g in minimal:
        tail = g.terms[1:]
        for k, ev, _ in tail:
            hit = divisors.get(ev, _UNSEEN)
            if hit is _UNSEEN:
                hit = divisors[ev] = _first_divisor(reducers, guard, k, ev)
            if hit is not None:
                g = Polynomial(ring, g.terms[:1] + tuple(
                    _reduce_terms(ring, tail, reducers, divisors)))
                break
        reduced.append(g)
    reduced.sort(key=lambda f: f.terms[0][0], reverse=True)
    return tuple(reduced)


def _sig_step(basis: GroebnerBasis, f: Polynomial, stop_at_syzygy: bool = False,
              colon: bool = False) -> list[Polynomial] | None:
    """New generators that make ``basis`` a Groebner basis of <basis> + <f>.

    One signature-based (F5C) step.  Every new element carries a
    monomial signature s, standing for s * e_f; f, reduced by the basis
    P and made monic, has signature 1.  Pair signatures are processed
    once each, in increasing order.  A pair whose signature a lead of P
    divides (Koszul) is never queued: that test depends on P alone, so
    it is made when the pair is.  A popped signature divisible by a
    recorded syzygy is skipped; otherwise the latest-added element whose
    signature divides it (rewrite criterion) is multiplied up to that
    signature and regular-reduced: elements of P always reduce, a new
    element only when its multiplied signature is strictly smaller.

    The elements are returned as they are, monic but not interreduced:
    P's generators together with them form a Groebner basis.  An empty
    list means f is in <P>, and [1] the unit ideal.

    A regular reduction to zero at signature s gives a u with LM(u) = s
    outside LM(P) and u * f in <P>: f is a zero divisor modulo <P>.
    With ``stop_at_syzygy`` the step returns None at the first one, for
    ``_regular_at_infinity``, which only asks whether there is any.  A
    step that returns its elements instead has processed every pair
    signature without one, which proves f a nonzerodivisor modulo <P>
    (see below).

    With ``colon`` every element h also carries a cofactor u, a normal
    form modulo P with LM(u) its signature and h = u * f modulo <P>.
    The kernel logs each regular rewrite by a new element, and u follows
    from that log.  The step returns the monic cofactors of its syzygies:
    with P they form a Groebner basis of (<P> : f) (Gao, Volny and
    Wang, Math. Comp. 85, 2016).  Once every pair signature is
    processed, a syzygy signature outside LM(P) is a multiple of one
    found, since a regular reduction at such a signature always gives
    zero.  So [1] means f is in <P>, and an empty list that f is a
    nonzerodivisor modulo <P>, which a step that reaches a constant (f
    a unit modulo <P>) also returns.
    """
    ring = basis.ring
    r = Polynomial(ring, tuple(basis.reduce_terms(f.terms)))
    if r.is_zero():
        return [ring.one()] if colon else []
    if r.is_constant():
        return [] if colon else [ring.one()]

    divides = ring.divides
    lcm = ring.lcm_evec
    keyfn = ring.key_of_evec
    degree = ring.degree_of_key
    guard = ring._evec_guard
    inv = ring.field.inv
    p_leads = basis.lead_evecs()
    sigs: list[tuple[int, int]] = []  # (key, evec) of each new element
    elems: list[Polynomial] = []
    reducers: list = []  # _reduce_terms extra entries of elems, ascending by lead key
    syz: list[int] = []
    heap: list[tuple[int, int]] = []
    cofactors: list[Polynomial] = []  # with colon, of each new element
    found: list[Polynomial] = []  # with colon, monic cofactors of the syzygies

    def push(sk: int, se: int):
        """Queue a pair signature, unless a lead of P divides it (Koszul)."""
        for pe in p_leads:
            d = se - pe
            if d >= 0 and not d & guard:
                return
        heappush(heap, (sk, se))

    def add(sk: int, se: int, h: Polynomial, u: Polynomial | None):
        c = h.terms[0][2]
        h = h.monic()
        lk, le, _ = h.terms[0]
        for pe in p_leads:
            lam = lcm(le, pe)
            if lam != le + pe:  # the signature of a coprime pair is se * pe
                push(sk + keyfn(lam) - lk, se + lam - le)
        for (s2k, s2e), h2 in zip(sigs, elems):
            k2, e2, _ = h2.terms[0]
            lam = lcm(le, e2)
            lamk = keyfn(lam)
            a = sk + lamk - lk
            b = s2k + lamk - k2
            if a > b:
                push(a, se + lam - le)
            elif b > a:
                push(b, s2e + lam - e2)
        insort(reducers, (lk, le, h.terms[1:], sk, len(elems)), key=lambda red: red[0])
        sigs.append((sk, se))
        elems.append(h)
        if colon:
            cofactors.append(u * inv(c))

    def cofactor(i: int, dk: int, de: int, log) -> Polynomial:
        """NF of x^de * u_i plus m * x^dev * u_j for each logged rewrite by h_j."""
        stream = [(k + dk, ev + de, c) for k, ev, c in cofactors[i].terms]
        for j, dkj, dej, m in log:
            stream += [(k + dkj, ev + dej, m * c) for k, ev, c in cofactors[j].terms]
        return Polynomial(ring, tuple(basis.reduce_terms(stream)))

    add(0, 0, r, ring.one())
    last = None
    log = None
    while heap:
        sk, se = heappop(heap)
        if sk == last:
            continue
        last = sk
        skip = False
        for z in syz:  # the syzygy criterion
            d = se - z
            if d >= 0 and not d & guard:
                skip = True
                break
        if skip:
            continue
        i = len(sigs) - 1
        while not divides(sigs[i][1], se):
            i -= 1
        dk = sk - sigs[i][0]
        de = se - sigs[i][1]
        d = degree(elems[i].terms[0][0] + dk)
        if d > ring.cap:
            raise DegreeOverflow(f"S-pair degree {d} exceeds cap {ring.cap}")
        stream = [(k + dk, ev + de, c) for k, ev, c in elems[i].terms]
        if colon:
            log = []
        h = Polynomial(ring, tuple(basis.reduce_terms(stream, reducers, sk, log)))
        if h.is_zero():
            if stop_at_syzygy:
                return None
            syz.append(se)
            if colon:
                found.append(cofactor(i, dk, de, log).monic())
            continue
        if h.is_constant():
            return [] if colon else [ring.one()]
        hk, he, _ = h.terms[0]
        if any(divides(h2.terms[0][1], he) and hk - h2.terms[0][0] + s2k == sk
               for (s2k, _), h2 in zip(sigs, elems)):
            continue  # singular: a multiple of an element with signature sk
        add(sk, se, h, cofactor(i, dk, de, log) if colon else None)
    return found if colon else elems


_MEMO: ContextVar[dict | None] = ContextVar("equidim_groebner_memo", default=None)


@contextmanager
def memo_scope() -> Iterator[None]:
    """Compute each ideal operation once per distinct input until exit."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


_T = TypeVar("_T")


def _memoized(key: tuple, compute: Callable[[], _T]) -> _T:
    memo = _MEMO.get()
    if memo is None:
        return compute()
    hit = memo.get(key, _UNSEEN)
    if hit is _UNSEEN:
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

    The extras are added smallest leading term first, each to the
    reduced basis the previous step returned.  Added to the zero ideal,
    f gives {f / lc(f)}, or {1} for a nonzero constant: one monic
    polynomial is a reduced basis, since its lead divides none of its
    tail monomials, all of which lie below it.  Any other step is one
    ``_sig_step`` followed by ``_interreduce``.
    """
    extra = tuple(f for f in extra if not f.is_zero())
    if any(f.ring != basis.ring for f in extra):
        raise ContractViolation("polynomial and basis from different rings")
    if not extra or basis.is_unit:
        return basis

    def compute() -> GroebnerBasis:
        out = basis
        for f in sorted(extra, key=lambda f: f.terms[0][0]):
            if out.is_zero_ideal:
                # every tail monomial of f lies below its lead, so
                # {f / lc(f)} is already reduced; {1} for a constant
                out = GroebnerBasis(out.ring, (f.monic(),))
                continue
            new = _sig_step(out, f)
            if new:
                out = GroebnerBasis(out.ring, _interreduce(out.ring, list(out.gens) + new))
        return out

    return _memoized(("extend", basis, extra), compute)


def ideal_member(f: Polynomial, basis: GroebnerBasis) -> bool:
    """f in <basis>, by zero normal form."""
    if f.ring != basis.ring:
        raise ContractViolation("polynomial and basis from different rings")
    if basis.is_unit:
        return True
    return normal_form(f, basis).is_zero()


def _top_form(f: Polynomial) -> Polynomial:
    """The homogeneous part of top degree, a prefix of the terms."""
    degree = f.ring.degree_of_key
    e = degree(f.terms[0][0])
    n = 1
    while n < len(f.terms) and degree(f.terms[n][0]) == e:
        n += 1
    return Polynomial(f.ring, f.terms[:n])


def _hilbert_numerator(ring: PolyRing, gens: Iterable[Polynomial]) -> list[int]:
    """N(t) of R/<leads of gens>, lowest power first, without trailing zeros."""
    degree = ring.degree_of_key
    guard = ring._evec_guard
    leads = [(degree(k), ev) for k, ev, _ in (h.terms[0] for h in gens)]
    num = _numerator(_minimal(leads, guard), guard, ring.width)
    while num and not num[-1]:
        num.pop()
    return num


def _regular_at_infinity(basis: GroebnerBasis, g: Polynomial) -> bool:
    """A certificate that g is a nonzerodivisor modulo <basis>, which ends the colon chain.

    Under grevlex, a graded order, the top-degree forms of the reduced
    basis are the reduced basis of I*, the ideal of top forms of I;
    LM(I*) = LM(I).  One ``_sig_step`` of I* by g* = top(g) decides whether g* is
    a nonzerodivisor modulo I*, from the step's own syzygies.  It stops
    at its first regular reduction to zero, which proves g* a zero
    divisor, and it returns no element when g* lies in I*.  A step that
    returns its elements has processed every pair signature with no
    reduction to zero.  Then the Koszul signatures LM(I*) alone generate
    the lead module of the syzygies of (g*, I*) (Eder and Faugere, JSC
    80, 2017), whose signatures are the leads of I* : g*; so LM(I* : g*)
    = LM(I*), and I* : g* = I* since it contains I*.  Every element of
    the step is a form of positive degree, so it never meets a constant.

    If g* is a nonzerodivisor modulo I*, g is one modulo I: take u * g
    in I with u a nonzero normal form; then u* g* is in I*, so LM(u) is
    in LM(I*) = LM(I), a contradiction.  Hence (I : g^inf) = I.  The
    test is one-sided: g = x is a unit modulo <x*y - 1> and so regular,
    yet its top form is a zero divisor modulo <x*y>; then the answer is
    False and the chain takes another colon step.
    """
    top = GroebnerBasis(basis.ring, tuple(_top_form(h) for h in basis.gens))
    return bool(_sig_step(top, _top_form(g), stop_at_syzygy=True))


def _saturation(basis: GroebnerBasis, g: Polynomial) -> GroebnerBasis:
    """(<basis> : g^inf) by the colon chain; {1} iff g is in the radical.

    I_0 = <basis>, I_(k+1) = I_k : g, each colon ideal the reduced basis
    of I_k and the cofactors of one ``_sig_step`` in colon mode.  The
    chain stops when a step finds no syzygy (g is a nonzerodivisor
    modulo I_k; on I_0 the answer is ``basis`` itself), when it reaches
    {1}, or when ``_regular_at_infinity`` accepts the I_k it has just
    grown.
    """

    def chain() -> GroebnerBasis:
        sat = basis
        while True:
            cofactors = _sig_step(sat, g, colon=True)
            if not cofactors:
                return sat  # g is a nonzerodivisor modulo <sat>
            sat = GroebnerBasis(sat.ring, _interreduce(sat.ring, list(sat.gens) + cofactors))
            if sat.is_unit or _regular_at_infinity(sat, g):
                return sat

    return _memoized(("saturation", basis, g), chain)


def saturate(F: "GroebnerBasis | Sequence[Polynomial]", g: Polynomial) -> GroebnerBasis:
    """Reduced basis of (<F> : g^inf), by colon ideals.

    The colon ideals <F> : g, (<F> : g) : g, ... are read off the
    syzygies of signature steps by g until they stop growing (see
    ``_saturation``).  When the first step finds none, g is a
    nonzerodivisor modulo <F>, and the basis of <F> is returned itself.
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
    """f vanishes on V(<basis>): (<basis> : f^inf) is <1>.

    The saturation is the one ``saturate`` computes.  Its first colon
    step reduces f modulo the basis: f in <basis> gives the cofactor 1,
    so <1>, and a nonzero constant gives no syzygy, so <basis> itself.
    """
    if f.ring != basis.ring:
        raise ContractViolation("polynomial and basis from different rings")
    if basis.is_unit or f.is_zero():
        return True
    return _saturation(basis, f).is_unit


def _numerator(leads: list[tuple[int, int]], guard: int, w: int) -> list[int]:
    """Numerator N(t) of the Hilbert series of R/<leads>, lowest power first.

    ``leads`` are (degree, evec) pairs, minimal and ascending by degree.
    When no two share a variable, N is the product of the (1 - t^deg).
    Otherwise x, the variable found in the most of them, is the pivot
    (Bigatti 1997): N(M) = N(M + <x>) + t * N(M : x).  M + <x> is
    generated by x and the leads free of x, which share no variable
    with it, so N(M + <x>) = (1 - t) N(those leads); M : x divides every
    lead holding x by x, one packed subtraction each.
    """
    w1 = w - 1
    ones = guard >> w1
    seen = 0
    coprime = True
    supports = []
    for _, ev in leads:
        s = (((ev | guard) - ones) & guard) >> w1  # a 1 in the field of each variable of ev
        if s & seen:
            coprime = False
        seen |= s
        supports.append(s)
    if coprime:
        num = [1]
        for d, _ in leads:
            num += [0] * d
            for i in range(len(num) - 1, d - 1, -1):
                num[i] -= num[i - d]
        return num
    # each field of counts holds the number of leads holding its variable;
    # counting at most 2^w - 1 leads keeps a field from carrying into the
    # next, and any variable of a lead is a valid pivot
    mask = (1 << w) - 1
    counts = sum(supports[:mask])
    shift = best = 0
    for j in range(0, seen.bit_length(), w):
        c = (counts >> j) & mask
        if c > best:
            shift, best = j, c
    x = 1 << shift
    free, colon = [], []
    for d, ev in leads:
        if (ev >> shift) & mask:
            colon.append((d - 1, ev - x))
        else:
            free.append((d, ev))
            colon.append((d, ev))
    a = _numerator(free, guard, w)
    b = _numerator(_minimal(colon, guard), guard, w)
    # (1 - t) * a + t * b
    out = a + [0] * max(1, len(b) + 1 - len(a))
    for i, c in enumerate(a):
        out[i + 1] -= c
    for i, c in enumerate(b):
        out[i + 1] += c
    return out


def _minimal(leads: list[tuple[int, int]], guard: int) -> list[tuple[int, int]]:
    """The minimal generators of <leads>, ascending by degree; duplicates go too."""
    leads.sort()
    minimal: list[tuple[int, int]] = []
    for d, ev in leads:
        for _, k in minimal:
            q = ev - k
            if q >= 0 and not q & guard:
                break
        else:
            minimal.append((d, ev))
    return minimal


def hilbert_dim_degree(basis: GroebnerBasis) -> tuple[int, int]:
    """(dimension, degree) of R/<basis>, from the Hilbert series of its leads.

    N(t) / (1 - t)^n is the Hilbert series of R/LM(I) (Bayer-Stillman
    1992; Cox-Little-O'Shea, ch. 9).  ``_numerator`` computes N on the
    packed leads, each carried as a (degree, evec) pair with the degree
    read off its order key, by Bigatti's recursion (J. Pure Appl.
    Algebra 119, 1997): it pivots on the variable found in the most
    minimal generators until no two of them share a variable.  N is then
    divided by (1 - t) while N(1) = 0.  The dimension is n minus the
    number of divisions and the degree is the final N(1), that of the
    affine variety counted with multiplicity, since grevlex is graded.

    The pair depends on the generators alone, so it is computed once per
    basis object and kept on it; the unit ideal raises on every call.
    """
    if basis.is_unit:
        raise ContractViolation("empty variety has no dimension")
    if basis._hilbert is None:
        num = _hilbert_numerator(basis.ring, basis.gens)
        dim = basis.ring.nvars
        while sum(num) == 0:
            # N = (1 - t) Q: the coefficients of Q are the prefix sums of N
            for i in range(1, len(num)):
                num[i] += num[i - 1]
            num.pop()
            dim -= 1
        basis._hilbert = (dim, sum(num))
    return basis._hilbert


def dimension(basis: GroebnerBasis) -> int:
    """Krull dimension of R/<basis>, from the Hilbert series of its leads."""
    return hilbert_dim_degree(basis)[0]


def is_zero_dim(basis: GroebnerBasis) -> bool:
    """Finitely many points: every variable has a pure power among the leads.

    Cheaper than the Hilbert series; the unit ideal is not zero-dimensional.
    The verdict depends on the leads alone, so it is computed once per
    basis object and kept on it.
    """
    if basis._zero_dim is None:
        ring = basis.ring
        w = ring.width
        mask = (1 << w) - 1
        pure = set()
        for ev in basis.lead_evecs():
            slots = [i for i in range(ring.nvars) if (ev >> (i * w)) & mask]
            if len(slots) == 1:
                pure.add(slots[0])
        basis._zero_dim = not basis.is_unit and len(pure) == ring.nvars
    return basis._zero_dim


def quotient_degree(basis: GroebnerBasis) -> int:
    """Number of standard monomials of a zero-dimensional ideal."""
    return len(standard_monomials(basis))


def standard_monomials(basis: GroebnerBasis) -> list[int]:
    """Packed standard monomials (staircase), ascending in the order.

    The staircase is an order ideal: u is standard iff it is not a lead
    and every u / x_j is standard.  It is enumerated one degree at a
    time, and u * x_i is formed only for x_i at or after the last
    variable of u, so each monomial is met once, from its quotient by
    its last variable.  Keys are additive, so the key of u * x_i is the
    key of u plus that of x_i.

    Requires a zero-dimensional ideal; raises on positive dimension.
    """
    if basis.is_unit:
        return []
    if not is_zero_dim(basis):
        raise ContractViolation("degree is defined for zero-dimensional ideals only")
    ring = basis.ring
    w = ring.width
    mask = (1 << w) - 1
    lead = set(basis.lead_evecs())
    xs = [1 << (i * w) for i in range(ring.nvars)]
    steps = [(i, ring.key_of_evec(x), x) for i, x in enumerate(xs)]
    std = {0}
    found = [(0, 0)]
    layer = [(0, 0, 0)]  # (key, evec, index of its last variable)
    while layer:
        nxt = []
        for k, u, last in layer:
            for i, xk, x in steps[last:]:
                v = u + x
                if v in lead:
                    continue
                for j in range(i):
                    if (u >> (j * w)) & mask and v - xs[j] not in std:
                        break
                else:
                    std.add(v)
                    nxt.append((k + xk, v, i))
        found += [(k, v) for k, v, _ in nxt]
        layer = nxt
    found.sort()
    return [v for _, v in found]
