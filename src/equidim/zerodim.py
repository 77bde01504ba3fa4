"""Linear algebra in zero-dimensional quotient rings R/<W>.

When a witness basis W is zero-dimensional, the quotient A = R/<W> is a
finite-dimensional GF(p) vector space on the standard monomials, and
the heavy ideal operations become matrix computations:

* radical membership  1 in (<W> : f^inf)  <=>  M_f is nilpotent;
* properness          <W> + <f> = <1>     <=>  M_f is invertible;
* saturation          (<W> : f^inf) is the preimage of ker(M_f^D).

The saturation is rebuilt as a reduced Groebner basis by scanning
monomials in increasing order against the quotient of A by the kernel,
so it agrees bit-for-bit with the elimination route (reduced bases are
unique).  Adding generators to W has no route here: ``extend_basis``
does it in every dimension.

The separator search ``low_degree_colon`` works for any basis, not only
zero-dimensional ones.  It looks for low-degree elements of the colon
ideals <W> : f^k (k <= 2) with a degree-by-degree Macaulay matrix whose
columns are the normal forms NF(m * f^k) of the monomials m of degree
<= 4; a kernel vector a has a * f^k in <W>, so NF(a) is a candidate
unless it is zero.  The column of m = x_i * m' is NF(x_i * NF(m' * f^k)),
the parent column's terms shifted by one variable (packed exponents and
order keys both add) and reduced once.  Columns enter a column echelon
form in order, so each is classified once, as independent or as a
kernel vector over the columns before it.  That vector is the one the
free column of a dense RREF of the whole matrix gives, since the RREF
of [A_old | A_new] restricted to A_old is the RREF of A_old; and the
kernel vectors of earlier degrees had zero normal forms, or the search
would have stopped there, so only the new ones are tried.  NF is linear
and unique for a reduced basis, so the candidates are exactly those of
the dense construction.

Matrix products run in float64 BLAS when every dot product is exactly
representable below 2^53, in int64 otherwise, and in exact object
arithmetic for characteristics too large for either envelope.
"""

from __future__ import annotations

from heapq import heappush, heappop
from typing import Sequence

import numpy as np

from .gf import ContractViolation
from .rings import DegreeOverflow, Polynomial
from .groebner import GroebnerBasis, _reduce_terms, extend_basis, normal_form, standard_monomials


def _matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    inner = A.shape[1]
    if inner * (p - 1) ** 2 < 2**53:
        return np.rint(A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64) % p
    if inner * (p - 1) ** 2 < 2**63:
        return (A @ B) % p
    return (A.astype(object) @ B.astype(object) % p).astype(np.int64)


def _matvec(A: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    return _matmul(A, v.reshape(-1, 1), p).reshape(-1)


def _rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p); returns (rref, pivot columns)."""
    m = mat.copy() % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = m[r] * inv % p
        col = m[:, c].copy()
        col[r] = 0
        nzr = np.nonzero(col)[0]
        if nzr.size:
            m[nzr] = (m[nzr] - np.outer(col[nzr], m[r])) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


class QuotientStructure:
    """A = R/<W> on the staircase, with multiplication matrices."""

    __slots__ = ("basis", "ring", "p", "monomials", "index", "D", "mul")

    def __init__(self, basis: GroebnerBasis):
        self.basis = basis
        self.ring = basis.ring
        self.p = basis.ring.field.p
        self.monomials = standard_monomials(basis)  # ascending evecs
        self.index = {ev: i for i, ev in enumerate(self.monomials)}
        self.D = len(self.monomials)
        self.mul = self._build_mul_matrices()

    def _build_mul_matrices(self) -> list[np.ndarray]:
        ring, p, D = self.ring, self.p, self.D
        n = ring.nvars
        w = ring.width
        key = ring.key_of_evec
        index = self.index
        lmmap = {g.terms[0][1]: g for g in self.basis.gens}
        mats = [np.zeros((D, D), dtype=np.int64) for _ in range(n)]
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
                vu = np.zeros(D, dtype=np.int64)
                vu[iu] = 1
            elif u in lmmap:
                vu = np.zeros(D, dtype=np.int64)
                for _, ev, c in lmmap[u].terms[1:]:
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
                    vu = _matvec(mats[k], vc, p)
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
        nf = normal_form(f, self.basis)
        v = np.zeros(self.D, dtype=np.int64)
        for _, ev, c in nf.terms:
            v[self.index[ev]] = c
        return v

    def matrix_of(self, f: Polynomial) -> np.ndarray:
        """Multiplication-by-f matrix, built column by column.

        Column j is vec(f * m_j); each staircase monomial is one
        variable away from an earlier one, so columns follow by a
        single matrix-vector product.
        """
        ring, p, D = self.ring, self.p, self.D
        w = ring.width
        M = np.zeros((D, D), dtype=np.int64)
        M[:, 0] = self.vector_of(f)
        for j in range(1, D):
            ev = self.monomials[j]
            for k in range(ring.nvars):
                if (ev >> (k * w)) & ((1 << w) - 1):
                    prev = self.index[ev - (1 << (k * w))]
                    M[:, j] = _matvec(self.mul[k], M[:, prev], p)
                    break
        return M

    # -- predicates --------------------------------------------------------

    def is_nilpotent(self, f: Polynomial) -> bool:
        """f in rad <W>: some power of M_f vanishes."""
        M = self.matrix_of(f)
        steps = max(1, (self.D - 1).bit_length())
        for _ in range(steps + 1):
            if not M.any():
                return True
            M = _matmul(M, M, self.p)
        return not M.any()

    def is_invertible(self, f: Polynomial) -> bool:
        """f a unit mod <W>: multiplication matrix has full rank."""
        M = self.matrix_of(f)
        _, pivots = _rref(M, self.p)
        return len(pivots) == self.D

    # -- ideal reconstructions ---------------------------------------------

    def saturation_ideal_subspace(self, f: Polynomial) -> np.ndarray:
        """Basis rows of (sat <W> f)/<W> inside A: the stable kernel of M_f."""
        M = self.matrix_of(f)
        for _ in range(max(1, (self.D - 1).bit_length())):
            M = _matmul(M, M, self.p)
        # kernel of M: free columns of its rref
        R, pivots = _rref(M, self.p)
        free = [c for c in range(self.D) if c not in pivots]
        rows = np.zeros((len(free), self.D), dtype=np.int64)
        for r, c in enumerate(free):
            rows[r, c] = 1
            for i, pc in enumerate(pivots):
                rows[r, pc] = -R[i, c] % self.p
        return rows

    def ideal_from_subspace(self, K: np.ndarray) -> GroebnerBasis:
        """Reduced basis of the preimage ideal of the subspace K of A.

        K must be an ideal of A (closed under multiplication).  Scans
        monomials in increasing order: staircase monomials of the new
        ideal are collected while dependencies yield basis elements.
        """
        ring, p, D = self.ring, self.p, self.D
        w = ring.width
        Krref, kpiv = _rref(K, p) if K.size else (np.zeros((0, D), dtype=np.int64), [])
        kpiv_arr = np.array(kpiv, dtype=np.intp)

        def reduce_mod_K(v: np.ndarray) -> np.ndarray:
            v = v % p
            if kpiv_arr.size:
                coords = v[kpiv_arr]
                if coords.any():
                    v = (v - _matmul(coords.reshape(1, -1), Krref, p).reshape(-1)) % p
            return v

        # accepted new-standard monomials and their reduced vectors in
        # row-echelon form, with combination tracking for dependencies
        acc_evecs: list[int] = []
        ech_rows: list[np.ndarray] = []     # echelon vectors (not normalized)
        ech_piv: list[int] = []             # pivot coordinate per row
        ech_comb: list[np.ndarray] = []     # row = combination over acc_evecs
        gens_out: list[Polynomial] = []
        found_lms: list[int] = []
        key = ring.key_of_evec
        divides = ring.divides

        heap: list[tuple[int, int, int, int]] = []  # (key, evec, parent_idx, var)
        heappush(heap, (0, 0, -1, -1))
        seen = {0}
        while heap:
            _, ev, parent, var = heappop(heap)
            if any(divides(lm, ev) for lm in found_lms):
                continue
            if parent < 0:
                vA = np.zeros(D, dtype=np.int64)
                vA[self.index[0]] = 1
            else:
                col = np.zeros(D, dtype=np.int64)
                col[self.index[acc_evecs[parent]]] = 1
                vA = _matvec(self.mul[var], col, p)
            wv = reduce_mod_K(vA)
            comb = np.zeros(len(acc_evecs) + 1, dtype=np.int64)
            for row, piv, rc in zip(ech_rows, ech_piv, ech_comb):
                coef = wv[piv]
                if coef:
                    factor = coef * pow(int(row[piv]), p - 2, p) % p
                    wv = (wv - factor * row) % p
                    comb[: len(rc)] = (comb[: len(rc)] - factor * rc) % p
            nz = np.nonzero(wv)[0]
            if nz.size == 0:
                # dependency: phi(ev) = -sum comb_k phi(m_k), so the
                # element ev + sum comb_k m_k lies in the preimage ideal
                poly_terms = {ev: 1}
                for k, m_ev in enumerate(acc_evecs):
                    if comb[k]:
                        poly_terms[m_ev] = int(comb[k]) % p
                gens_out.append(ring._from_dict(poly_terms))
                found_lms.append(ev)
                if ev == 0:
                    break  # unit ideal
                continue
            # independent: ev is standard for the new ideal; the stored
            # row equals phi(ev) + sum comb_k phi(m_k)
            idx = len(acc_evecs)
            acc_evecs.append(ev)
            comb_full = comb.copy()
            comb_full[idx] = 1
            ech_rows.append(wv)
            ech_piv.append(int(nz[0]))
            ech_comb.append(comb_full)
            for i in range(ring.nvars):
                child = ev + (1 << (i * w))
                if child not in seen:
                    seen.add(child)
                    heappush(heap, (key(child), child, idx, i))
        if len(gens_out) == 1 and gens_out[0].is_one():
            return GroebnerBasis(ring, (ring.one(),))
        gens_out.sort(key=lambda f: f.terms[0][0], reverse=True)
        return GroebnerBasis(ring, tuple(g.monic() for g in gens_out))


def low_degree_colon(
    basis: GroebnerBasis,
    f: Polynomial,
    max_deg: int = 4,
    max_power: int = 2,
) -> list[Polynomial]:
    """Low-degree elements of (<basis> : f^k), by bounded linear algebra.

    For each power k and degree bound, solves NF(a * f^k) = 0 over the
    coefficients of a; every solution lies in the saturation of the
    ideal by f.  Returns the first nonempty batch (smallest power and
    degree), reduced modulo the basis and de-duplicated (first
    occurrence kept); empty if no candidate exists within the bounds.
    This is a sound candidate source, never a complete saturation.
    """
    ring = basis.ring
    p = ring.field.p
    if basis.is_unit or f.is_zero():
        return []
    if f.ring != ring:
        raise ContractViolation("polynomials from different rings")
    if basis.is_zero_ideal:
        return []  # R is a domain: a * f^k = 0 forces a = 0
    reducers = basis.reducers()
    w = ring.width
    shifts = [(ring.key_of_evec(1 << (i * w)), 1 << (i * w)) for i in range(ring.nvars)]
    fk = f
    for k in range(1, max_power + 1):
        fdeg = fk.total_degree()
        # a-monomials (key, evec) in degree-by-degree order; the frontier
        # keeps the Macaulay columns NF(m * f^k) of the last degree, as
        # {evec: (key, coeff)}, for the next degree's shifts
        monos = [(0, 0)]
        frontier = [(0, 0, _reduce_terms(ring, fk.terms, reducers))]
        new = [frontier[0][2]]  # columns not yet in the echelon
        seen = {0}
        # column echelon: row r of E is [reduced column vector | its
        # combination of the monomial columns], with E[:, piv] = I
        support: dict[int, int] = {}  # evec -> row of the Macaulay matrix
        E = np.zeros((0, 0), dtype=np.int64)
        piv: list[int] = []
        for d in range(1, max_deg + 1):
            if d + fdeg > ring.cap:
                raise DegreeOverflow(f"product degree {d + fdeg} exceeds cap {ring.cap}")
            nxt = []
            for mk, mev, col in frontier:
                for dk, dev in shifts:
                    ev = mev + dev
                    if ev in seen:
                        continue
                    seen.add(ev)
                    monos.append((mk + dk, ev))
                    # NF(x_i * m' * f^k) = NF(x_i * NF(m' * f^k))
                    nxt.append((mk + dk, ev, _reduce_terms(
                        ring, [(tk + dk, tev + dev, c) for tev, (tk, c) in col.items()],
                        reducers)))
            frontier = nxt
            new += [col for _, _, col in nxt]
            checked = len(monos) - len(new)  # columns already classified
            S0 = E.shape[1] - checked
            for col in new:
                for tev in col:
                    if tev not in support:
                        support[tev] = len(support)
            S, r = len(support), len(piv)
            # the rank is at most S, the row count of the Macaulay matrix
            grown = np.zeros((min(r + len(new), S), S + len(monos)), dtype=np.int64)
            grown[:r, :S0] = E[:r, :S0]
            grown[:r, S:S + checked] = E[:r, S0:]
            E = grown
            N = np.zeros((len(new), S + len(monos)), dtype=np.int64)
            for j, col in enumerate(new):
                N[j, S + checked + j] = 1
                for tev, (_, c) in col.items():
                    N[j, support[tev]] = c
            if piv:
                N = (N - _matmul(N[:, piv], E[:r], p)) % p
            out: list[Polynomial] = []
            for j in range(len(new)):
                nz = np.flatnonzero(N[j, :S])
                if nz.size == 0:
                    # a dependent column: its combination is a kernel vector
                    stream = [(*monos[i], int(N[j, S + i])) for i in np.flatnonzero(N[j, S:])]
                    nf = _reduce_terms(ring, stream, reducers)
                    if nf:
                        h = ring._from_keyed(nf).monic()
                        if h not in out:
                            out.append(h)
                    continue
                pc = int(nz[0])
                row = N[j] * pow(int(N[j, pc]), p - 2, p) % p
                r = len(piv)
                fac = N[j + 1:, pc].copy()
                N[j + 1:] = (N[j + 1:] - np.outer(fac, row)) % p
                fac = E[:r, pc].copy()
                E[:r] = (E[:r] - np.outer(fac, row)) % p
                E[r] = row
                piv.append(pc)
            if out:
                return out
            new = []
        fk = fk * f
    return []


def quotient(basis: GroebnerBasis) -> QuotientStructure:
    """Build (or fetch the cached) quotient structure of a basis."""
    q = getattr(basis, "_quotient", None)
    if q is None:
        q = QuotientStructure(basis)
        basis._quotient = q
    return q


def saturation(basis: GroebnerBasis, f: Polynomial) -> GroebnerBasis:
    """Reduced basis of (<basis> : f^inf) for zero-dimensional ideals.

    Kept beside the signature-based elimination of
    ``groebner.saturate``: routing zero-dimensional saturations through
    it instead took sos(3,4) from 0.58 to 1.08 s and ps(5) from 25.6 to
    58.7 s (witness backend, in-process runs on a 2-vCPU host).
    """
    q = quotient(basis)
    K = q.saturation_ideal_subspace(f)
    if K.shape[0] == 0:
        return basis
    return q.ideal_from_subspace(K)


def extended(basis: GroebnerBasis, extra: Sequence[Polynomial]) -> GroebnerBasis:
    """Reduced basis of <basis> + <extra>; the same as ``extend_basis``.

    No package code calls it.  It remains only because the benchmark's
    tracer and its ``zerodim.extended.calls`` metric name it, and it
    goes in the benchmark change that drops the ``fastred`` layer.
    """
    return extend_basis(basis, extra)


def radical_membership(basis: GroebnerBasis, f: Polynomial) -> bool:
    return quotient(basis).is_nilpotent(f)


def properness(basis: GroebnerBasis, f: Polynomial) -> bool:
    return quotient(basis).is_invertible(f)
