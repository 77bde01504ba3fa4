"""Linear algebra in zero-dimensional quotient rings R/<W>.

When a basis W is zero-dimensional, the quotient A = R/<W> is a
finite-dimensional GF(p) vector space of dimension D on the standard
monomials, and multiplication by f is a D x D matrix M_f (Cox, Little
and O'Shea, Using Algebraic Geometry, ch. 2 section 4).  With
2^s >= D, K = ker(M_f^(2^s)) is ker(M_f^D), and one row echelon of
M_f^(2^s) answers all three questions asked of W and f:

* saturation          (<W> : f^inf) is the preimage of K;
* properness          <W> + <f> = <1>  <=>  M_f is invertible
                      <=>  K = 0  <=>  the saturation is <W>;
* radical membership  1 in (<W> : f^inf)  <=>  M_f is nilpotent
                      <=>  K = A  <=>  the saturation is <1>.

``saturation`` computes that echelon once per basis and value of f and
keeps the result on the quotient.  ``cells.AffineCell`` asks every one
of these questions through it, on a witness slice or on a gb cell's
zero-dimensional I(X).  The saturation's reduced
Groebner basis comes off the same echelon: the pivot columns are the
new staircase, each free column gives a new basis element, and the old
generators' tails are reduced modulo K by one matrix product.  Reduced
bases are unique, so it agrees bit-for-bit with ``groebner.saturate``.

Many polynomials share one quotient, so ``QuotientStructure.matrices_of``
builds their matrices as one stack, with one product per staircase
monomial for all of them, and two questions read the stack whole:

* ``saturations`` asks which of several f are units modulo W with one
  forward elimination of all their matrices in lockstep; a unit's
  saturation is W itself with no echelon, and only the others take the
  kernel read above.
* ``extended`` adds generators H to W inside A, the FGLM idea
  (Faugere, Gianni, Lazard and Mora, JSC 16, 1993): <W> + <H> is the
  preimage of the ideal J that H generates in A, which is the column
  space of the stack.  One reduced echelon of those columns, with the
  monomials in descending order, has J's leads as its pivots, and its
  rows and the old generators' tails reduced modulo J give the reduced
  basis, the one ``extend_basis`` computes with signature steps.

A basis of dimension d >= 1 whose last d variables divide no lead has
a zero-dimensional ideal of points at infinity, W_inf, read off its top
forms (``at_infinity``): the last d - 1 variables z are a regular
sequence modulo I*, the ideal of top forms, so they are set to 0, and
the variable y before them is set to 1.  Two questions about I become
questions about W_inf.  g* (the top form of g) a unit modulo W_inf
certifies it a nonzerodivisor modulo I*, so (I : g^inf) = I; for d = 1
that test is exact, for d >= 2 one-sided.  g* not nilpotent modulo
W_inf proves g outside rad I, in every dimension.  A gb cell reads both
through ``saturation``, on the one W_inf of its basis.

The separator search ``low_degree_colon`` works for any basis, not only
zero-dimensional ones.  It looks for low-degree elements of the colon
ideals <W> : f^k (k <= MAX_POWER) with a degree-by-degree Macaulay
matrix whose columns are the normal forms NF(m * f^k) of the monomials
m of degree <= MAX_DEG; a kernel vector a has a * f^k in <W>, so NF(a)
is a candidate unless it is zero.  The column of m = x_i * m' is
NF(x_i * NF(m' * f^k)), the parent column's terms shifted by one
variable (packed exponents and order keys both add).  All of one
degree's new columns are reduced together, as the rows of one
``groebner._block_reduce``: its symbolic preprocessing gives every
monomial a lead divides one reducer row (from the basis's reducer
table, whose arrays stay with the basis), and its block elimination
leaves each row on the free columns, the standard monomials, so each
row is its column's normal form.
At each degree ``_rref`` echelonises the earlier degrees' pivot
columns together with the new columns; every earlier free column lies
in the span of those pivots, so leaving it out changes neither the
pivots nor the kernel vectors.  Each free column c of this degree gives
the kernel vector m_c - sum_i R[i, c] * m_(piv_i); the free columns of
earlier degrees gave zero normal forms, or the search would have
stopped there.

Matrix products, row echelon forms and the block elimination come from
``groebner._matmul``, ``groebner._rref`` and ``groebner._block_reduce``,
the linear-algebra core that the F4 rounds of ``buchberger`` share.
Every product is exact on float64 BLAS, split into 16-bit limbs where
one float64 product could round.  A quotient keeps its vectors and
matrices in float64 where D * (p - 1)^2 < 2^53, so that their products
need no conversion, and in int64 for the limbs elsewhere.

Within one ``memo_scope`` (one ``decomp.equidim`` call) a quotient is
built once per basis value: equal bases reached as separate objects,
such as one slice saturated by several polynomials, share one
``QuotientStructure`` and its saturation memo.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gf import ContractViolation
from .rings import DegreeOverflow, Polynomial
from .groebner import (
    GroebnerBasis, _block_reduce, _matmul, _matvec, _memoized, _reduce_terms, _row_poly, _rref,
    _top_form, dimension, is_zero_dim, standard_monomials,
)


class QuotientStructure:
    """A = R/<W> on the staircase, with multiplication matrices.

    The basis holds its structure, so the structure keeps no reference
    to the basis, only the basis's reducers and divisor memo: a cycle
    would leave every basis with a quotient to the cyclic collector.

    Vectors and matrices on the staircase have ``dtype`` float64 when
    D * (p - 1)^2 < 2^53.  A product Y of two of them is then exact in
    one BLAS call, and so is Y - p * floor(Y / p): Y / p is correctly
    rounded, so its error is below Y * 2^-53 / p < 1 / p, which moves it
    neither across an integer nor off one.  Otherwise they are int64,
    and every product runs ``_matmul``'s 16-bit limbs.
    """

    __slots__ = ("ring", "p", "reducers", "divisors", "monomials", "index", "D", "dtype",
                 "mul", "steps", "saturated")

    def __init__(self, basis: GroebnerBasis):
        self.ring = basis.ring
        self.p = basis.ring.field.p
        self.reducers = basis.reducers()
        self.divisors = basis._divisors
        self.monomials = standard_monomials(basis)  # ascending evecs
        self.index = {ev: i for i, ev in enumerate(self.monomials)}
        self.D = len(self.monomials)
        self.dtype = np.float64 if self.D * (self.p - 1) ** 2 < 2**53 else np.int64
        self.mul = self._build_mul_matrices()
        # m_j = x_k * m_i for each staircase monomial m_j past 1, as (k, i)
        w, mask = self.ring.width, (1 << self.ring.width) - 1
        self.steps = []
        for ev in self.monomials[1:]:
            k = next(k for k in range(self.ring.nvars) if (ev >> (k * w)) & mask)
            self.steps.append((k, self.index[ev - (1 << (k * w))]))
        # f -> <W> : f^inf, or None where that is <W> itself
        self.saturated: dict[Polynomial, GroebnerBasis | None] = {}

    def product(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """A @ B mod p for staircase arrays (B a matrix or a vector)."""
        if self.dtype is np.float64:
            Y = A @ B
            Y -= self.p * np.floor(Y / self.p)
            return Y
        return _matmul(A, B, self.p) if B.ndim == 2 else _matvec(A, B, self.p)

    def zeros(self, *shape: int) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def _build_mul_matrices(self) -> list[np.ndarray]:
        ring, p, D = self.ring, self.p, self.D
        n = ring.nvars
        w = ring.width
        key = ring.key_of_evec
        index = self.index
        tails = {ev: tail for _, ev, tail in self.reducers}
        mats = [self.zeros(D, D) for _ in range(n)]
        # normal-form vectors of staircase-and-border monomials, in
        # increasing order; every monomial u has u/x_k in the same set
        vec: dict[int, np.ndarray] = {}
        needed: set[int] = set(self.monomials)
        for m in self.monomials:
            for i in range(n):
                needed.add(m + (1 << (i * w)))
        for u in sorted(needed, key=key):
            iu = index.get(u)
            if iu is not None:
                vu = self.zeros(D)
                vu[iu] = 1
            elif u in tails:
                vu = self.zeros(D)
                for _, ev, c in tails[u]:
                    vu[index[ev]] = -c % p
            else:
                vu = None
                for k in range(n):
                    if not (u >> (k * w)) & ((1 << w) - 1):
                        continue
                    c_ev = u - (1 << (k * w))
                    if c_ev in index:
                        continue  # x_k * standard: that is this very column
                    vc = vec.get(c_ev)
                    if vc is None:
                        continue
                    vu = self.product(mats[k], vc)
                    break
                assert vu is not None, "border recursion failed"
            vec[u] = vu
            # fill columns: u = x_i * m for standard m
            for i in range(n):
                e_i = (u >> (i * w)) & ((1 << w) - 1)
                if e_i:
                    m_ev = u - (1 << (i * w))
                    j = index.get(m_ev)
                    if j is not None:
                        mats[i][:, j] = vu
        return mats

    # -- vectors ---------------------------------------------------------

    def vector_of(self, f: Polynomial) -> np.ndarray:
        """Coordinates of the class of f on the staircase."""
        if f.ring != self.ring:
            raise ContractViolation("polynomial and basis from different rings")
        nf = _reduce_terms(self.ring, f.terms, self.reducers, self.divisors)
        v = self.zeros(self.D)
        for _, ev, c in nf:
            v[self.index[ev]] = c
        return v

    def matrices_of(self, polys: Sequence[Polynomial]) -> np.ndarray:
        """The multiplication matrices of several polynomials, as one (k, D, D) stack.

        Column j of M_f is vec(f * m_j).  Each staircase monomial m_j
        past 1 is x_k times an earlier one, m_i, so column j of every
        matrix is M_(x_k) times column i: one product per staircase
        monomial serves all k polynomials.
        """
        cols = self.zeros(self.D, self.D, len(polys))  # cols[j]: column j of every matrix
        for t, f in enumerate(polys):
            cols[0, :, t] = self.vector_of(f)
        for j, (k, i) in enumerate(self.steps, 1):
            cols[j] = self.product(self.mul[k], cols[i])
        return cols.transpose(2, 1, 0)

    def matrix_of(self, f: Polynomial) -> np.ndarray:
        """Multiplication-by-f matrix: ``matrices_of`` for one polynomial."""
        return self.matrices_of([f])[0]


# the separator search tries the multipliers a of degree <= MAX_DEG
# against f^k for k <= MAX_POWER
MAX_DEG = 4
MAX_POWER = 2


def low_degree_colon(basis: GroebnerBasis, f: Polynomial) -> list[Polynomial]:
    """Low-degree elements of (<basis> : f^k), by bounded linear algebra.

    For each power k <= MAX_POWER and degree bound d <= MAX_DEG, solves
    NF(a * f^k) = 0 over the coefficients of a; every solution lies in
    the saturation of the ideal by f.  Returns the first nonempty batch
    (smallest power and degree), reduced modulo the basis and
    de-duplicated (first occurrence kept); empty if no candidate exists
    within the bounds.  This is a sound candidate source, never a
    complete saturation.

    Each degree's new columns NF(x_i * NF(m' * f^k)) are computed
    together, as one ``_block_reduce``; normal forms modulo a reduced
    basis are unique, so this gives the columns that reducing each one
    alone would.  Its reducer rows come from the basis's reducer table,
    whose arrays are built on the first search modulo that basis and
    kept with it, and it fills the basis's divisor memo for the heap
    kernel.  A parent column enters as the echelon row it came out as,
    with its arrays, so they are not built from its terms again.
    """
    ring = basis.ring
    p = ring.field.p
    if f.ring != ring:
        raise ContractViolation("polynomials from different rings")
    if basis.is_unit or f.is_zero():
        return []
    if basis.is_zero_ideal:
        return []  # R is a domain: a * f^k = 0 forces a = 0
    reducers, divisors = basis.reducers(), basis._divisors
    w = ring.width
    shifts = [(ring.key_of_evec(1 << (i * w)), 1 << (i * w)) for i in range(ring.nvars)]
    fk = f
    for k in range(1, MAX_POWER + 1):
        fdeg = fk.total_degree()
        # a-monomials (key, evec) in degree-by-degree order; one degree's
        # new Macaulay columns NF(m * f^k) are the rows of one
        # _block_reduce, and the frontier keeps the last degree's as
        # echelon rows with their arrays, for the next degree's shifts;
        # degree 1 also takes the column of m = 1, and shifts f^k itself
        monos = [(0, 0)]
        batch = [(fk.terms, 0, 0)]  # (poly, dev, dk): this degree's columns
        frontier = [(0, 0, fk.terms)]
        seen = {0}
        rows: dict[int, int] = {}  # evec -> row of the Macaulay matrix
        first = 0  # columns before it were tried at an earlier degree
        basic: list[int] = []  # the earlier degrees' pivot columns
        A = np.zeros((0, 0), dtype=np.int64)  # their columns, then the new ones
        for d in range(1, MAX_DEG + 1):
            if d + fdeg > ring.cap:
                raise DegreeOverflow(f"product degree {d + fdeg} exceeds cap {ring.cap}")
            start = len(monos)
            for mk, mev, col in frontier:
                for dk, dev in shifts:
                    ev = mev + dev
                    if ev not in seen:
                        seen.add(ev)
                        monos.append((mk + dk, ev))
                        # NF(x_i * m' * f^k) = NF(x_i * NF(m' * f^k))
                        batch.append((col, dev, dk))
            E, mons = _block_reduce(ring, batch, reducers, divisors)
            fresh = monos[start:]
            frontier = [(*m, _row_poly(row, mons))
                        for m, row in zip(fresh, E[len(E) - len(fresh):])]
            used = np.flatnonzero(E.any(axis=0))  # the free columns some row meets
            at = np.array([rows.setdefault(mons[c][1], len(rows)) for c in used.tolist()],
                          dtype=np.intp)
            idx = basic + list(range(first, len(monos)))  # A's columns among monos
            A = np.pad(A, ((0, len(rows) - A.shape[0]), (0, len(batch))))
            A[at, len(basic):] = E[:, used].T
            R, piv = _rref(A, p)
            pivset = set(piv)
            out: list[Polynomial] = []
            for c in range(len(basic), len(idx)):
                if c in pivset:
                    continue
                a = np.zeros(len(monos), dtype=np.int64)
                a[idx[c]] = 1
                a[[idx[i] for i in piv]] = -R[:, c] % p
                nf = basis.reduce_terms([(*monos[i], int(a[i])) for i in np.flatnonzero(a)])
                if nf:
                    h = Polynomial(ring, tuple(nf)).monic()
                    if h not in out:
                        out.append(h)
            if out:
                return out
            first = len(monos)
            basic = [idx[i] for i in piv]
            A = A[:, piv]
            batch = []
        fk = fk * f
    return []


def quotient(basis: GroebnerBasis) -> QuotientStructure:
    """Build (or fetch the cached) quotient structure of a basis.

    The structure is kept on the basis and, inside ``memo_scope``, under
    the basis's value (its ring and generators): an equal basis built as
    another object gets the same structure, with its ``saturated`` memo.  A
    quotient is a function of the basis value, so sharing it cannot
    change a result; the structure holds no reference to any basis.
    """
    q = basis._quotient
    if q is None:
        q = basis._quotient = _memoized(("quotient", basis), lambda: QuotientStructure(basis))
    return q


_NO_INFINITY = object()  # "W_inf does not apply" in the memo, where None is a miss


def at_infinity(basis: GroebnerBasis) -> GroebnerBasis | None:
    """W_inf, the points at infinity of a positive-dimensional basis; or None.

    It applies when <basis> has dimension d >= 1 and its last d
    variables divide no lead; write y for the first of
    them and z for the other d - 1.  W_inf is each generator's top form
    with the terms that hold a z dropped and y set to 1, plus y - 1 and
    each z.  Its staircase is the deg I monomials in the variables
    before y.  The reason (Bayer and Stillman, Invent. Math. 87, 1987):
    under grevlex, when the last variable divides no lead of a
    homogeneous ideal J, it is a nonzerodivisor modulo J, and J's
    reduced basis with that variable set to 0, plus the variable, is
    the reduced basis of J + <x_n>.  Applied to I*, the ideal of top
    forms, and then d - 2 more times, the z's are a regular sequence
    modulo I*; y is then a nonzerodivisor modulo I* + <z>, a ring of
    dimension 1, and that ring localised at y is A[y, 1/y] with
    A = R/W_inf artinian of dimension deg I.  The generators are
    already the reduced basis, with no Groebner computation: dropping
    terms keeps a reduced basis's tails free of leads; setting y = 1
    keeps a form's terms apart, and its lead first, since the lead is
    free of y and every term with y drops in degree; a tail monomial
    that some lead divides had that lead as a divisor before; and the
    leads y and z are coprime to every other lead.

    For a top form g* (f* below), read in A by ``saturation``:

    * If g* is a unit in A, ``saturation(W_inf, g*) is W_inf``, it is a
      nonzerodivisor modulo I* + <z>, and so modulo I*: if l is a
      homogeneous nonzerodivisor on a graded module M and g* is one on
      M / lM, then g* is one on M (take g* m = 0 with m of least
      degree; then m = l m' and g* m' = 0).  So (I : g^inf) = I with no
      signature step.  For d = 1 the test is exact, the verdict of
      ``groebner._regular_at_infinity``, which the colon chain asks
      only between its steps.  For d >= 2 it is one-sided:
      I = <x^2> in GF(p)[x, y, z] has W_inf = <x^2, y - 1, z>, and
      z is regular modulo I but 0 modulo W_inf.
    * If ``saturation(W_inf, f*)`` is not <1>, f is not in rad <basis>:
      f^k in I gives (f*)^k in I*, in every dimension.

    Built once per basis value in a ``memo_scope``.  A zero-dimensional
    basis is refused before its Hilbert series is read.
    """
    W = _memoized(("infinity", basis), lambda: _points_at_infinity(basis))
    return None if W is _NO_INFINITY else W


def _points_at_infinity(basis: GroebnerBasis) -> GroebnerBasis:
    ring = basis.ring
    if basis.is_unit or is_zero_dim(basis):
        return _NO_INFINITY
    k = ring.nvars - dimension(basis)  # y is x_k, counting from 0; the z's follow it
    shift = k * ring.width  # y's field of a packed exponent
    if any(ev >> shift for ev in basis.lead_evecs()):
        return _NO_INFINITY
    low = (1 << shift) - 1
    zs = shift + ring.width  # the z's fields
    key = ring.key_of_evec
    gens = [Polynomial(ring, tuple(sorted(((key(ev & low), ev & low, c)
                                           for _, ev, c in _top_form(h).terms if not ev >> zs),
                                          reverse=True)))
            for h in basis.gens]
    y = 1 << shift
    gens.append(Polynomial(ring, ((key(y), y, 1), (0, 0, ring.field.p - 1))))
    gens += (ring.var(i) for i in range(k + 1, ring.nvars))
    gens.sort(key=lambda g: g.terms[0][0], reverse=True)
    return GroebnerBasis(ring, tuple(gens))


def saturation(basis: GroebnerBasis, f: Polynomial) -> GroebnerBasis:
    """Reduced basis of (<basis> : f^inf) for zero-dimensional ideals.

    Computed once per basis and value of f and kept on the quotient, so
    a cell's properness, radical-membership and subtraction queries for
    one f read the same echelon: the saturation is ``basis`` itself
    exactly when f is a unit modulo it, and <1> exactly when f lies in
    its radical.  It is the preimage of K = ker(M_f^D), read off the
    echelon R of M_f^(2^s), 2^s >= D: ``basis`` itself when M_f is
    invertible (K = 0), and <1> when the monomial 1 lies in K.  The
    staircase ascends, so the pivot columns are the first monomials
    independent modulo K: the new staircase.  A free column c gives
    m_c - sum_i R[i, c] * m_(piv_i), and an old generator u + t gives
    u + sum_i (R t)_i * m_(piv_i), t reduced modulo K; those of minimal
    lead form the reduced basis.

    Kept beside ``groebner.saturate``: routing zero-dimensional
    saturations through its colon chain instead took sos(3,4) from 0.12
    to 0.34 s and ps(5) from 6.1 to 14.6 s (witness backend, generator
    seed 0, in-process runs on a 2-vCPU host, while a certificate still
    preceded the chain).
    """
    q = quotient(basis)
    if f not in q.saturated:
        q.saturated[f] = _kernel_preimage(q, basis, q.matrix_of(f))
    sat = q.saturated[f]
    return basis if sat is None else sat


def saturations(basis: GroebnerBasis, polys: Sequence[Polynomial]) -> list[GroebnerBasis]:
    """``saturation`` of one zero-dimensional basis by each of several polynomials.

    The polynomials not yet in the memo get their matrices as one
    ``matrices_of`` stack, and one forward elimination of the whole
    stack in lockstep (``_units``) finds those that are units modulo
    the basis: M_f is invertible, so the saturation is ``basis``
    itself, and the memo records that with no power of M_f and no
    echelon.  Each of the others takes ``saturation``'s kernel read of
    the matrix already built.  The answers are ``saturation``'s; only
    the work is shared.
    """
    q = quotient(basis)
    todo = [f for f in dict.fromkeys(polys) if f not in q.saturated]
    if todo:
        stack = q.matrices_of(todo)
        for f, M, unit in zip(todo, stack, _units(stack, q.p)):
            q.saturated[f] = None if unit else _kernel_preimage(q, basis, M)
    return [saturation(basis, f) for f in polys]


def _units(stack: np.ndarray, p: int) -> np.ndarray:
    """Which matrices of a (k, D, D) stack are invertible mod p.

    One forward elimination of all k in lockstep.  At column c each
    matrix takes its first row from c on with a nonzero entry there,
    swaps it to row c, and clears column c below it with
    row_r := piv * row_r - m[r, c] * row_c, which needs no inverse and
    keeps the rank.  A matrix with no such row is singular and leaves
    the stack.  Entries stay in [0, p) with p < 2^31, so each product
    is below 2^62 and exact in int64.
    """
    m = stack.astype(np.int64)
    live = np.arange(len(m))
    for c in range(m.shape[1]):
        nz = m[:, c:, c] != 0
        has = nz.any(axis=1)
        if not has.all():
            live, m, nz = live[has], m[has], nz[has]
            if not live.size:
                break
        at = np.arange(len(m))
        pr = c + nz.argmax(axis=1)
        top = m[at, pr, c:]  # the pivot rows; row c moves to pr, and is not read again
        m[at, pr, c:] = m[at, c, c:]
        below = m[:, c + 1:, c + 1:]
        below *= top[:, None, :1]
        below -= m[:, c + 1:, c:c + 1] * top[:, None, 1:]
        below %= p
    units = np.zeros(len(stack), dtype=bool)
    units[live] = True
    return units


def _kernel_preimage(q: QuotientStructure, basis: GroebnerBasis,
                     M: np.ndarray) -> GroebnerBasis | None:
    """(<basis> : f^inf) from M = M_f, or None when that is <basis> itself."""
    ring, p, D, mons = q.ring, q.p, q.D, q.monomials
    for _ in range(max(1, (D - 1).bit_length())):
        M = q.product(M, M)
    R, piv = _rref(M, p)
    if len(piv) == D:
        return None
    if not piv or piv[0] != 0:  # the monomial 1 lies in K
        return GroebnerBasis(ring, (ring.one(),))
    w, mask = ring.width, (1 << ring.width) - 1
    pivset = set(piv)
    free = {mons[c]: c for c in range(D) if c not in pivset}
    # K is an ideal, so the free monomials are closed upward in the
    # staircase, and a lead is minimal unless one step down is free
    def minimal(ev: int) -> bool:
        return not any((ev >> (k * w)) & mask and ev - (1 << (k * w)) in free
                       for k in range(ring.nvars))

    pivot_terms = [(ring.key_of_evec(mons[c]), mons[c]) for c in piv]

    def element(lead: tuple, coeffs: np.ndarray) -> Polynomial:
        tail = tuple((k, ev, int(c)) for (k, ev), c in zip(pivot_terms[::-1], coeffs[::-1]) if c)
        return Polynomial(ring, (lead,) + tail)

    old = [g for g in basis.gens if minimal(g.terms[0][1])]
    T = np.zeros((D, len(old)), dtype=np.int64)
    for j, g in enumerate(old):
        for _, ev, c in g.terms[1:]:
            T[q.index[ev], j] = c
    tails = _matmul(R, T, p)
    gens = [element(g.terms[0], tails[:, j]) for j, g in enumerate(old)]
    gens += [element((ring.key_of_evec(ev), ev, 1), -R[:, c] % p)
             for ev, c in free.items() if minimal(ev)]
    gens.sort(key=lambda g: g.terms[0][0], reverse=True)
    return GroebnerBasis(ring, tuple(gens))


def extended(basis: GroebnerBasis, extra: Sequence[Polynomial]) -> GroebnerBasis:
    """Reduced basis of <basis> + <extra> for a zero-dimensional basis, in its quotient.

    The same basis as ``extend_basis``, since reduced bases are unique,
    and memoized under the same key, with no signature step.  The ideal
    <basis> + <extra> is the preimage of J, the ideal that the extras
    generate in A = R/<basis>, and J is the column space of their
    matrices: column j of M_h is the class of h * m_j.  The reduced
    echelon form R of those columns as rows, with the monomials in
    descending order (``_row_echelon``), has J's leads as its pivot
    columns, and the new staircase is the old one
    without them (the lead of a polynomial whose lead is standard is the
    lead of its class).  A lead u of J whose quotients u / x_k are not
    leads of J gives its echelon row, u plus a tail on the new
    staircase; an old generator u + t whose quotients u / x_k are not
    leads of J gives u + t', with t' = t - t[piv] R, t reduced modulo J.
    Those of minimal lead form the reduced basis; rank 0 is ``basis``
    itself and rank D is <1>.
    """
    extra = tuple(f for f in extra if not f.is_zero())
    if any(f.ring != basis.ring for f in extra):
        raise ContractViolation("polynomial and basis from different rings")
    if not extra or basis.is_unit:
        return basis
    return _memoized(("extend", basis, extra), lambda: _image_preimage(quotient(basis), basis, extra))


def _row_echelon(blocks: Sequence[np.ndarray], p: int) -> tuple[np.ndarray, list[int]]:
    """``_rref`` of the blocks' rows stacked, taken one block at a time.

    With R the echelon so far, pivots piv, a block B first loses its
    part in R's row space, B - B[:, piv] R, in one product; only what is
    left takes ``_rref`` pivot steps, and its rows F, pivots new, clear
    their columns from R with R - R[:, new] F.  The rows of both, sorted
    by pivot, are the reduced echelon form of everything so far, so the
    pivot steps number the rank, not the blocks times the rank.
    """
    R, piv = _rref(blocks[0], p)
    for B in blocks[1:]:
        if len(piv) == R.shape[1]:
            break
        B = np.asarray(B, dtype=np.int64)
        if piv:
            B = (B - _matmul(B[:, piv], R, p)) % p
        F, new = _rref(B, p)
        if new:
            R = np.concatenate(((R - _matmul(R[:, new], F, p)) % p, F))
            order = np.argsort(piv + new)
            R, piv = R[order], sorted(piv + new)
    return R, piv


def _image_preimage(q: QuotientStructure, basis: GroebnerBasis,
                    extra: tuple[Polynomial, ...]) -> GroebnerBasis:
    ring, p, D = q.ring, q.p, q.D
    desc = q.monomials[::-1]
    stack = q.matrices_of(extra)
    R, piv = _row_echelon([M.T[:, ::-1] for M in stack], p)
    if not piv:
        return basis
    if len(piv) == D:
        return GroebnerBasis(ring, (ring.one(),))
    w, mask = ring.width, (1 << ring.width) - 1
    leads = {desc[c]: i for i, c in enumerate(piv)}  # J's leads -> their rows of R
    pivset = set(piv)
    free = [c for c in range(D) if c not in pivset]
    free_terms = [(ring.key_of_evec(desc[c]), desc[c]) for c in free]

    def minimal(ev: int) -> bool:
        return not any((ev >> (k * w)) & mask and ev - (1 << (k * w)) in leads
                       for k in range(ring.nvars))

    def element(lead: tuple, coeffs: np.ndarray) -> Polynomial:
        tail = tuple((k, ev, int(c)) for (k, ev), c in zip(free_terms, coeffs) if c)
        return Polynomial(ring, (lead,) + tail)

    old = [g for g in basis.gens if minimal(g.terms[0][1])]
    T = np.zeros((len(old), D), dtype=np.int64)
    for j, g in enumerate(old):
        for _, ev, c in g.terms[1:]:
            T[j, D - 1 - q.index[ev]] = c
    T = (T - _matmul(T[:, piv], R, p)) % p
    gens = [element(g.terms[0], T[j, free]) for j, g in enumerate(old)]
    gens += [element((ring.key_of_evec(ev), ev, 1), R[i, free])
             for ev, i in leads.items() if minimal(ev)]
    gens.sort(key=lambda g: g.terms[0][0], reverse=True)
    return GroebnerBasis(ring, tuple(gens))


def radical_membership(basis: GroebnerBasis, f: Polynomial) -> bool:
    """f in rad <basis>: M_f is nilpotent, so the saturation is <1>.

    No package code calls it: cells read ``saturation`` directly.  It
    remains only because the benchmark's tracer and its
    ``zerodim.radical_membership.calls`` metric name it.
    """
    return saturation(basis, f).is_unit


def properness(basis: GroebnerBasis, f: Polynomial) -> bool:
    """<basis> + <f> = <1>: M_f is invertible, so the saturation is <basis>.

    No package code calls it: cells read ``saturation`` directly.  It
    remains only because the benchmark's tracer and its
    ``zerodim.properness.calls`` metric name it, like ``radical_membership``.
    """
    return saturation(basis, f) == basis
