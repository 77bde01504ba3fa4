"""Vectorized polynomial reduction for machine-word monomial packings.

When every monomial of a computation fits one int64 (narrow exponent
fields times few enough variables), polynomials become triples of
parallel numpy arrays (key, exponent-vector, coefficient) sorted by
key, and a reduction step is a handful of array operations: the popped
lead is located at the end, the divisor test over all reducer leads is
one vectorized mask, and the tail subtraction is a stable merge of
sorted arrays.  This replaces per-term dict traffic with memcpy-speed
kernels and typically runs an order of magnitude faster.

The packing width is chosen per computation; any overflow of the packed
fields raises, and callers fall back to the exact big-int path.

Nothing in the package calls this module any more: on the benchmark
families, packing every new reducer cost more than the array branch
saved, so Buchberger reduces with ``groebner._reduce_terms`` only.  It
stays importable until the benchmark stops tracing its functions.
"""

from __future__ import annotations

import numpy as np

from .gf import ContractViolation
from .rings import PolyRing, Polynomial


class PackOverflow(ContractViolation):
    """The computation left the narrow packed-field envelope."""


class Packer:
    """Narrow int64 packing of a ring's monomials and order keys."""

    __slots__ = ("ring", "width", "cap", "nvars", "guard", "key_guard", "groups",
                 "_shifts", "_key_shifts")

    def __init__(self, ring: PolyRing, cap: int):
        width = cap.bit_length() + 1
        if ring.nvars * width > 63:
            raise PackOverflow("ring does not fit an int64 packing at this cap")
        self.ring = ring
        self.width = width
        self.cap = cap
        self.nvars = ring.nvars
        self.guard = sum(1 << (i * width + width - 1) for i in range(ring.nvars))
        self.key_guard = self.guard
        self.groups = ring._key_groups
        self._shifts = [i * width for i in range(ring.nvars)]
        # key fields: concatenated partial sums per group, most
        # significant group first (same layout as the wide packing)
        shifts = []
        pos = ring.nvars * width
        for group in self.groups:
            pos -= width * len(group)
            shifts.append(pos)
        self._key_shifts = shifts

    def pack(self, exps) -> tuple[int, int]:
        """(key, evec) of an exponent tuple; raises on overflow."""
        if sum(exps) > self.cap:
            raise PackOverflow(f"degree {sum(exps)} exceeds packing cap {self.cap}")
        w = self.width
        ev = 0
        for i, e in enumerate(exps):
            ev |= e << self._shifts[i]
        key = 0
        for base, group in zip(self._key_shifts, self.groups):
            acc = 0
            for j, i in enumerate(group):
                acc += exps[i]
                key |= acc << (base + j * w)
        return key, ev

    def unpack_evec(self, ev: int) -> tuple[int, ...]:
        w = self.width
        mask = (1 << w) - 1
        return tuple((int(ev) >> s) & mask for s in self._shifts)

    def poly_in(self, f: Polynomial) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays (keys, evecs, coeffs) ascending by key."""
        ring = self.ring
        ks, es, cs = [], [], []
        for _, ev, c in reversed(f.terms):
            k2, e2 = self.pack(ring.unpack_evec(ev))
            ks.append(k2)
            es.append(e2)
            cs.append(c)
        return (np.array(ks, dtype=np.int64),
                np.array(es, dtype=np.int64),
                np.array(cs, dtype=np.int64))

    def poly_out(self, ks: np.ndarray, es: np.ndarray, cs: np.ndarray) -> Polynomial:
        ring = self.ring
        out = []
        for e, c in zip(es.tolist(), cs.tolist()):
            out.append((ring.pack_evec(self.unpack_evec(e)), c))
        return ring.from_terms(out)

    def stream_in(self, terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pack a wide (key, evec, coeff) stream: sorted, merged, clean."""
        ring = self.ring
        ks, es, cs = [], [], []
        for _, ev, c in terms:
            k2, e2 = self.pack(ring.unpack_evec(ev))
            ks.append(k2)
            es.append(e2)
            cs.append(c)
        empty = np.empty(0, dtype=np.int64)
        return _merge(
            empty, empty, empty,
            np.array(ks, dtype=np.int64),
            np.array(es, dtype=np.int64),
            np.array(cs, dtype=np.int64),
            ring.field.p,
        )


def _merge(ka, ea, ca, kb, eb, cb, p):
    """Merge two key-ascending term streams, combining coefficients."""
    k = np.concatenate([ka, kb])
    e = np.concatenate([ea, eb])
    c = np.concatenate([ca, cb])
    order = np.argsort(k, kind="stable")
    k = k[order]
    e = e[order]
    c = c[order]
    if k.size > 1:
        starts = np.empty(k.size, dtype=bool)
        starts[0] = True
        np.not_equal(k[1:], k[:-1], out=starts[1:])
        idx = np.flatnonzero(starts)
        c = np.add.reduceat(c, idx) % p
        k = k[idx]
        e = e[idx]
    else:
        c = c % p
    keep = np.flatnonzero(c)
    if keep.size != k.size:
        k = k[keep]
        e = e[keep]
        c = c[keep]
    return k, e, c


class ArrayReducers:
    """Monic reducers stored as packed arrays, ascending by lead key."""

    __slots__ = ("packer", "p", "lead_keys", "lead_evecs", "tails")

    def __init__(self, packer: Packer):
        self.packer = packer
        self.p = packer.ring.field.p
        self.lead_keys = np.empty(0, dtype=np.int64)
        self.lead_evecs = np.empty(0, dtype=np.int64)
        self.tails: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def insert(self, f: Polynomial):
        ks, es, cs = self.packer.poly_in(f)
        lk = int(ks[-1])
        le = int(es[-1])
        pos = int(np.searchsorted(self.lead_keys, lk))
        self.lead_keys = np.insert(self.lead_keys, pos, lk)
        self.lead_evecs = np.insert(self.lead_evecs, pos, le)
        self.tails.insert(pos, (ks[:-1], es[:-1], cs[:-1]))

    def reduce(self, ks, es, cs):
        """Full normal form of a packed term stream (arrays ascending).

        The shifted-tail additions are checked against the per-field
        guard bits; leaving the envelope raises so the caller can fall
        back to the wide exact path.
        """
        p = self.p
        guard = self.packer.guard
        kguard = self.packer.key_guard
        lead_keys = self.lead_keys
        lead_evecs = self.lead_evecs
        out_k: list[int] = []
        out_e: list[int] = []
        out_c: list[int] = []
        while ks.size:
            klead = int(ks[-1])
            elead = int(es[-1])
            clead = int(cs[-1])
            cut = int(np.searchsorted(lead_keys, klead, side="right"))
            if cut:
                d = elead - lead_evecs[:cut]
                hits = np.flatnonzero((d >= 0) & ((d & guard) == 0))
            else:
                hits = ()
            if len(hits) == 0:
                out_k.append(klead)
                out_e.append(elead)
                out_c.append(clead)
                ks, es, cs = ks[:-1], es[:-1], cs[:-1]
                continue
            r = int(hits[0])
            dk = klead - int(lead_keys[r])
            de = elead - int(lead_evecs[r])
            tk, te, tc = self.tails[r]
            sk = tk + dk
            se = te + de
            if sk.size and (
                np.bitwise_and(sk, kguard).any() or np.bitwise_and(se, guard).any()
            ):
                raise PackOverflow("reduction left the packed envelope")
            ks, es, cs = _merge(
                ks[:-1], es[:-1], cs[:-1],
                sk, se, (-clead % p) * tc % p, p,
            )
        out_k.reverse()
        out_e.reverse()
        out_c.reverse()
        return (np.array(out_k, dtype=np.int64),
                np.array(out_e, dtype=np.int64),
                np.array(out_c, dtype=np.int64))
