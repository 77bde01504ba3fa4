import heapq
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

from equidim import (
    AffineCell,
    ContractViolation,
    DecompConfig,
    GroebnerBasis,
    PolyRing,
    Polynomial,
    PrimeField,
    buchberger,
    dimension,
    equidim,
    gen_ps,
    gen_sos,
    groebner_of,
    ideal_member,
    make_witness,
    normal_form,
    parse_system,
    quotient_degree,
    radical_member,
    saturate,
    saturate_seq,
    standard_monomials,
)
from equidim import groebner, zerodim
from equidim.groebner import (
    _block_reduce,
    _interreduce,
    _reduce_terms,
    _regular_at_infinity,
    _row_terms,
    _saturation,
    _sig_step,
    extend_basis,
    hilbert_dim_degree,
    is_zero_dim,
    memo_scope,
)

from conftest import (assert_saturation, is_saturation, one_dimensional_cases, product_cases,
                      random_poly)


def _is_reduced_gb(gb):
    """Check the Buchberger criterion and reducedness directly."""
    ring = gb.ring
    gens = gb.gens
    for g in gens:
        assert g.lead_coeff() == 1
        for k, ev, c in g.terms[1:]:
            for h in gens:
                assert not ring.divides(h.terms[0][1], ev)
        for h in gens:
            if h is not g:
                assert not ring.divides(h.terms[0][1], g.terms[0][1])
    for f, g in itertools.combinations(gens, 2):
        lcm = ring.lcm_evec(f.terms[0][1], g.terms[0][1])
        s = Polynomial(ring, tuple(
            _reduce_terms(ring, _spoly_terms(ring, f, g, lcm), gb.reducers())))
        assert s.is_zero()
    return True


def _spoly_terms(ring, f, g, lcm_ev):
    """Term stream of the S-polynomial of two monic polynomials."""
    kl = ring.key_of_evec(lcm_ev)
    fk, fe, _ = f.terms[0]
    gk, ge, _ = g.terms[0]
    p = ring.field.p
    stream = [(k + kl - fk, ev + lcm_ev - fe, c) for k, ev, c in f.terms[1:]]
    stream += [(k + kl - gk, ev + lcm_ev - ge, (-c) % p) for k, ev, c in g.terms[1:]]
    return stream


# -- normal form ---------------------------------------------------------------

def test_normal_form_examples(ring_xy):
    x, y = ring_xy.gens()
    assert normal_form(x**2, buchberger([x])).is_zero()
    assert normal_form(y, buchberger([x])) == y
    assert normal_form(x * y + y, buchberger([x - 1])) == 2 * y


def test_normal_form_subtracts_ideal_member(ring_xyz, rng):
    x, y, z = ring_xyz.gens()
    G = buchberger([x * y - z, y**2 + z])
    for _ in range(30):
        f = random_poly(ring_xyz, rng)
        r = normal_form(f, G)
        assert ideal_member(f - r, G)


# -- reduction kernel --------------------------------------------------------------

def _reduce_terms_reference(ring, terms, reducers, divisors=None, extra=(), bound=None, log=None):
    """The kernel as it was before its heap held plain keys: (-key, evec)
    heap entries, sums kept by evec, and the remainder returned as
    {evec: (key, coeff)}."""
    p = ring.field.p
    guard = ring._evec_guard
    acc: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    out: dict[int, tuple[int, int]] = {}
    memo = {} if divisors is None else divisors
    memo_get = memo.get
    acc_get = acc.get
    acc_pop = acc.pop
    push = heapq.heappush
    pop = heapq.heappop
    for k, ev, c in terms:
        v = acc_get(ev)
        if v is None:
            acc[ev] = c
            push(heap, (-k, ev))
        else:
            acc[ev] = v + c
    while heap:
        nk, ev = pop(heap)
        c = acc_pop(ev) % p
        if not c:
            continue
        k = -nk
        hit = memo_get(ev, groebner._UNSEEN)
        if hit is groebner._UNSEEN:
            hit = groebner._first_divisor(reducers, guard, k, ev)
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
            out[ev] = (k, c)
            continue
        dk = k - hit[0]
        dev = ev - hit[1]
        m = p - c
        for tk, tev, tc in hit[2]:
            nev = tev + dev
            v = acc_get(nev)
            if v is None:
                acc[nev] = m * tc
                push(heap, (-(tk + dk), nev))
            else:
                acc[nev] = v + m * tc
    return out


def _random_stream(ring, rng, count):
    """Unsorted terms with repeated monomials and coefficients up to p^2."""
    p = ring.field.p
    monos = [random_poly(ring, rng, 1, 5).terms for _ in range(count)]
    monos = [t[0][:2] for t in monos if t]
    return [(k, ev, rng.randrange(p * p)) for k, ev in monos + rng.sample(monos, len(monos) // 2)]


@pytest.mark.parametrize("p", [5, 65521, 2**31 - 1])
def test_reduce_terms_matches_reference(p):
    """The int-keyed kernel against the evec-keyed one it replaced: the same
    remainder, now as terms in strictly descending order, the same rewrite
    log and the same divisor memo, with and without signed extra reducers."""
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    rng = random.Random(p)
    rewrites = remainders = 0
    for trial in range(60):
        basis = groebner_of(ring, [random_poly(ring, rng, 3, 3) for _ in range(2 + trial % 2)])
        if basis.is_unit:
            continue
        reducers = basis.reducers()
        stream = _random_stream(ring, rng, 12)
        extra, bound = (), None
        if trial % 2:
            # monic extra reducers with signature keys, ascending by lead key
            extra = []
            for index in range(3):
                h = random_poly(ring, rng, 3, 3)
                if h.is_zero() or h.is_constant():
                    continue
                h = h.monic()
                sig = random_poly(ring, rng, 1, 2).terms
                sig_key = sig[0][0] if sig else 0
                extra.append((h.terms[0][0], h.terms[0][1], h.terms[1:], sig_key, index))
            extra.sort(key=lambda red: red[0])
            bound = ring.key_of_evec(ring.pack_evec((2, 1, 1)))
        memo, memo_ref = ({}, {}) if trial % 3 else (None, None)
        log, log_ref = ([], []) if trial % 4 == 1 else (None, None)
        got = _reduce_terms(ring, stream, reducers, memo, extra, bound, log)
        want = _reduce_terms_reference(ring, stream, reducers, memo_ref, extra, bound, log_ref)
        assert got == sorted(((k, ev, c) for ev, (k, c) in want.items()), reverse=True)
        assert all(k > k2 for (k, _, _), (k2, _, _) in zip(got, got[1:]))
        assert all(0 < c < p for _, _, c in got)
        assert log == log_ref
        assert memo == memo_ref
        rewrites += bool(log)
        remainders += bool(got)
    assert rewrites > 0 and remainders > 0


# -- buchberger ------------------------------------------------------------------

def test_buchberger_spec_examples(ring_xy):
    x, y = ring_xy.gens()
    assert [str(g) for g in buchberger([x + y, x - y])] == ["x", "y"]
    assert [str(g) for g in buchberger([x])] == ["x"]
    gb = buchberger([x**2 + y**2, x * y])
    assert sorted(map(str, gb)) == ["x*y", "x^2 + y^2", "y^3"]
    assert _is_reduced_gb(gb)


def test_unit_ideal_shortcircuit(ring_xy):
    x, y = ring_xy.gens()
    gb = buchberger([x, x + 1])
    assert gb.is_unit
    assert [str(g) for g in gb] == ["1"]


def test_empty_and_zero_inputs(ring_xy):
    assert groebner_of(ring_xy, []).is_zero_ideal
    assert groebner_of(ring_xy, [ring_xy.zero()]).is_zero_ideal


def test_inputs_reduce_to_zero(ring_xyz, rng):
    for _ in range(25):
        polys = [random_poly(ring_xyz, rng) for _ in range(3)]
        gb = groebner_of(ring_xyz, [f for f in polys if not f.is_zero()])
        for f in polys:
            assert ideal_member(f, gb)


def test_reduced_gb_random(ring_xyz, rng):
    for _ in range(20):
        polys = [random_poly(ring_xyz, rng, terms=3, max_deg=2) for _ in range(3)]
        gb = groebner_of(ring_xyz, [f for f in polys if not f.is_zero()])
        if not gb.is_unit and not gb.is_zero_ideal:
            assert _is_reduced_gb(gb)


def test_gb_unique_under_permutation(ring_xyz, rng):
    for _ in range(15):
        polys = [random_poly(ring_xyz, rng, terms=3, max_deg=2) for _ in range(3)]
        polys = [f for f in polys if not f.is_zero()]
        if not polys:
            continue
        gb1 = groebner_of(ring_xyz, polys)
        perm = polys[::-1]
        gb2 = groebner_of(ring_xyz, perm)
        assert gb1 == gb2


def _count_rounds(monkeypatch):
    """Count F4 rounds, those of one pair, and rounds that produced a constant."""
    counts = {"single": 0, "matrix": 0, "matrix_unit": 0}
    f4_round = groebner._f4_round

    def counting_round(ring, gens, reducers, batch):
        out = f4_round(ring, gens, reducers, batch)
        counts["matrix"] += 1
        counts["single"] += len(batch) == 1
        counts["matrix_unit"] += any(h.is_constant() for h in out)
        return out

    monkeypatch.setattr(groebner, "_f4_round", counting_round)
    return counts


@pytest.mark.parametrize("p", [5, 7, 101, 65521, 2147483647])
def test_f4_matches_signature_route(p, monkeypatch):
    """buchberger against extend_basis from the zero ideal, an independent engine."""
    ring = PolyRing(PrimeField(p), ("w", "x", "y", "z"))
    rng = random.Random(p)
    counts = _count_rounds(monkeypatch)
    for trial in range(15):
        polys = [random_poly(ring, rng, 3 + trial % 2, 2 + trial % 2)
                 for _ in range(2 + trial % 3)]
        polys = [f for f in polys if not f.is_zero()]
        if not polys:
            continue
        gb = buchberger(polys, ring=ring)
        assert gb == extend_basis(GroebnerBasis(ring, ()), polys)
    # one-pair degrees are matrix rounds too, beside rounds of many pairs
    assert 0 < counts["single"] < counts["matrix"]


def test_f4_unit_inside_matrix_round(monkeypatch):
    # z*(x*y) - x*(y*z + 1) = -x lies in the ideal, so y = (x*z + y) - z*x
    # and 1 = (y*z + 1) - z*y do; the constant comes out of the degree-3
    # round, whose four pairs are reduced together
    ring = PolyRing(PrimeField(7), ("x", "y", "z"))
    x, y, z = ring.gens()
    counts = _count_rounds(monkeypatch)
    polys = [x * y, x * z + y, y * z + 1]
    assert buchberger(polys).is_unit
    assert counts["matrix_unit"] == 1
    assert extend_basis(GroebnerBasis(ring, ()), polys).is_unit


def _f4_round_reference(ring, gens, reducers, batch):
    """One F4 round reduced one pivot column at a time: the loop that the
    block elimination of _f4_round replaces, with the same rows."""
    p = ring.field.p
    guard = ring._evec_guard
    by_lead = {g.terms[0][1]: g for g in gens}
    pivot_of, rest, seen = {}, [], set()
    for _, lk, i, j, le in batch:
        for g in (gens[i], gens[j]):
            gk, ge, _ = g.terms[0]
            if (ge, le) in seen:
                continue
            seen.add((ge, le))
            row = (g, le - ge, lk - gk)
            if le in pivot_of:
                rest.append(row)
            else:
                pivot_of[le] = row
    key_of = {}
    queue = list(pivot_of.values()) + rest
    while queue:
        g, dev, dk = queue.pop()
        for k, ev, _ in g.terms:
            ev += dev
            if ev in key_of:
                continue
            k += dk
            key_of[ev] = k
            if ev in pivot_of:
                continue
            for rk, re, _ in reducers:
                if rk > k:
                    break
                diff = ev - re
                if diff >= 0 and not (diff & guard):
                    row = (by_lead[re], diff, k - rk)
                    pivot_of[ev] = row
                    queue.append(row)
                    break
    evecs = sorted(key_of, key=key_of.__getitem__, reverse=True)
    col = {ev: c for c, ev in enumerate(evecs)}

    def place(row):
        g, dev, _ = row
        return ([col[ev + dev] for _, ev, _ in g.terms],
                np.array([c for _, _, c in g.terms], dtype=np.int64))

    rest_t = np.zeros((len(evecs), len(rest)), dtype=np.int64)
    for r, row in enumerate(rest):
        idx, coeffs = place(row)
        rest_t[idx, r] = coeffs
    pivots = sorted(col[ev] for ev in pivot_of)
    for c in pivots:
        f = rest_t[c]
        hit = np.flatnonzero(f)
        if hit.size:
            idx, coeffs = place(pivot_of[evecs[c]])
            idx = np.array(idx)[:, None]
            rest_t[idx, hit] = (rest_t[idx, hit] - coeffs[:, None] * f[hit]) % p
    pivset = set(pivots)
    free_cols = [c for c in range(len(evecs)) if c not in pivset]
    R, _ = _rref_reference(rest_t[free_cols].T.tolist(), p)
    return [Polynomial(ring, tuple((key_of[evecs[free_cols[c]]], evecs[free_cols[c]], v)
                                   for c, v in enumerate(row) if v))
            for row in R]


@pytest.mark.parametrize("p", [5, 7, 65521, 2**31 - 1])
def test_f4_round_matches_per_pivot_reference(p, monkeypatch):
    f4_round = groebner._f4_round
    seen = {"rounds": 0, "zero": 0, "deep": 0}

    def checked_round(ring, gens, reducers, batch):
        out = f4_round(ring, gens, reducers, batch)
        assert out == _f4_round_reference(ring, gens, reducers, batch)
        seen["rounds"] += 1
        seen["zero"] += not out
        seen["deep"] += len(batch) >= 8
        return out

    monkeypatch.setattr(groebner, "_f4_round", checked_round)
    rng = random.Random(p)
    systems = [gen_ps(4, rng, p), gen_sos(2, 4, rng, p)]
    for system in systems:
        ring = system.ring()
        F = system.polynomials(ring)
        buchberger(F)
        # a witness slice: the inputs and a random affine form
        buchberger(F + [sum((rng.randrange(p) * x for x in ring.gens()), ring.const(1))])
    ring = PolyRing(PrimeField(p), ("w", "x", "y", "z"))
    for trial in range(10):
        polys = [random_poly(ring, rng, 4, 2 + trial % 2) for _ in range(3 + trial % 2)]
        buchberger([f for f in polys if not f.is_zero()] or [ring.one()])
    # rounds that leave new elements and rounds that reduce to zero,
    # some of them with many pairs
    assert seen["rounds"] > seen["zero"] > 0 and seen["deep"] > 0, seen


@pytest.mark.parametrize("p", [5, 65521, 2**31 - 1])
def test_block_reduce_rows_are_normal_forms(p):
    """With no pivot rows given, each row _block_reduce returns is the
    normal form of its input row on the free columns, the monomials no
    lead divides.  The rows are random polynomials at random shifts, so
    many rows share monomials; some are repeated, some are zero and some
    are already reduced."""
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    rng = random.Random(p)
    seen = {"zero": 0, "unchanged": 0, "reduced": 0}
    for trial in range(40):
        basis = groebner_of(ring, [random_poly(ring, rng, 4, 3) for _ in range(1 + trial % 3)])
        if basis.is_unit:
            continue
        fresh = GroebnerBasis(ring, basis.gens)  # the reference's own memo
        polys = [random_poly(ring, rng, 5, 3) for _ in range(6)]
        polys += [normal_form(f, fresh) for f in polys[:2]] + [ring.zero()]
        rows = []
        for f in polys:
            for _ in range(2):
                ev = ring.pack_evec([rng.randrange(2) for _ in range(3)])
                rows.append((f.terms, ev, ring.key_of_evec(ev)))
        rows += rows[:3]
        E, mons = _block_reduce(ring, rows, basis.reducers())
        assert E.shape == (len(rows), len(mons))
        assert all(k > k2 for (k, _), (k2, _) in zip(mons, mons[1:]))
        assert not any(ring.divides(lead, ev) for _, ev in mons for lead in basis.lead_evecs())
        for (terms, dev, dk), row in zip(rows, E):
            f = Polynomial(ring, tuple((k + dk, ev + dev, c) for k, ev, c in terms))
            nf = Polynomial(ring, _row_terms(row, mons))
            assert nf == normal_form(f, fresh), (basis, f)
            seen["zero"] += nf.is_zero()
            seen["unchanged"] += not f.is_zero() and nf == f
            seen["reduced"] += nf != f
    assert all(seen.values()), seen


def _block_reduce_reference(ring, rows, reducers, pivots=()):
    """_block_reduce as it was with a Python loop per term: every monomial
    met is numbered in a dict, and its first dividing reducer found by
    _first_divisor."""
    p = ring.field.p
    guard = ring._evec_guard
    split: dict[int, tuple] = {}
    table = []
    for t, dev, dk in (*rows, *pivots):
        hit = split.get(id(t))
        if hit is None:
            hit = split[id(t)] = (t, 0, [ev for _, ev, _ in t], [c for _, _, c in t])
        table.append((hit, dev, dk))
    nrest = len(rows)
    leads = {t[0][1] + dev for t, dev, _ in pivots}
    found: list[tuple[int, int]] = []
    number: dict[int, int] = {}
    terms: list[int] = []
    coeffs: list[int] = []
    for (kt, off, evecs, cs), dev, dk in table:
        evs = [ev + dev for ev in evecs]
        ts = list(map(number.get, evs))
        i = -1
        for _ in range(ts.count(None)):
            i = ts.index(None, i + 1)
            ev, k = evs[i], kt[i - off][0] + dk
            ts[i] = number[ev] = len(found)
            found.append((k, ev))
            if ev not in leads:
                red = groebner._first_divisor(reducers, guard, k, ev)
                if red is not None:
                    leads.add(ev)
                    hit = split.get(id(red))
                    if hit is None:
                        tail = red[2]
                        hit = split[id(red)] = (tail, 1, [red[1]] + [e for _, e, _ in tail],
                                                [1] + [c for _, _, c in tail])
                    table.append((hit, ev - red[1], k - red[0]))
        terms += ts
        coeffs += cs
    npiv, ncols = len(table) - nrest, len(found)
    order = sorted(range(ncols), key=lambda t: found[t][0], reverse=True)
    col_of = np.empty(ncols, dtype=np.intp)
    col_of[order] = np.arange(ncols)
    lengths = np.array([len(t[2]) for t, _, _ in table], dtype=np.intp)
    pivot_of = np.repeat(np.arange(-nrest, npiv), lengths)
    cols = col_of[np.array(terms, dtype=np.intp)]
    lead_cols = cols[(np.cumsum(lengths) - lengths)[nrest:]]
    slot = np.full(ncols, -1, dtype=np.intp)
    slot[lead_cols] = np.arange(npiv)
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
    row_at = np.empty(nrest + npiv, dtype=np.intp)
    row_at[nrest + by_level] = np.arange(npiv)
    row_at[:nrest] = np.arange(npiv, npiv + nrest)
    col_at = np.empty(ncols, dtype=np.intp)
    col_at[lead_cols[by_level]] = np.arange(npiv)
    col_at[free] = np.arange(npiv, ncols)
    M = np.zeros((npiv + nrest, ncols), dtype=np.int64)
    M[row_at[pivot_of + nrest], col_at[cols]] = coeffs
    A, B, C, D = M[:npiv, :npiv], M[:npiv, npiv:], M[npiv:, :npiv], M[npiv:, npiv:]
    ends = np.cumsum(np.bincount(level)).tolist()
    for a, b in zip(ends, ends[1:]):
        C[:, a:b] = (C[:, a:b] - groebner._matmul(C[:, :a], A[:a, a:b], p)) % p
    return (D - groebner._matmul(C, B, p)) % p, [found[order[c]] for c in free.tolist()]


def _shift(ring, rng, lift):
    """A random monomial of degree 0 to 2 times the first variable to the power ``lift``."""
    exps = [0] * ring.nvars
    exps[0] = lift
    for _ in range(rng.randrange(3)):
        exps[rng.randrange(ring.nvars)] += 1
    ev = ring.pack_evec(exps)
    return ev, ring.key_of_evec(ev)


# (variables, lift, packing): 3 and 7 variables fit int64 as they are;
# 8 and 10 are repacked into 7- and 6-bit fields; a lift of 30 takes 10
# variables past the degree 31 that 6-bit fields hold, and 32 variables
# leave 63 // 32 = 1 bit a field, no room for a guard bit, so both run
# on object arrays
_PACKING_CASES = [
    (3, 0, "int64"),
    (7, 0, "int64"),
    (8, 0, "repacked"),
    (10, 0, "repacked"),
    (10, 30, "object"),
    (32, 0, "object"),
]


@pytest.mark.parametrize("p", [5, 65521, 2**31 - 1])
@pytest.mark.parametrize("nvars, lift, kind", _PACKING_CASES)
def test_block_reduce_matches_reference(p, nvars, lift, kind):
    """The array preprocessing against the per-term loop it replaced: equal
    matrices and free columns on random rows, pivot rows and reducers,
    in every packing."""
    ring = PolyRing(PrimeField(p), [f"x{i}" for i in range(nvars)])
    width = {"int64": ring.width, "repacked": 63 // ring.nvars, "object": ring.width}[kind]
    rng = random.Random(p + 100 * nvars + lift)
    reduced = 0
    for trial in range(12):
        # monic reducers with distinct leads of degree 1 to 3, so that
        # many monomials met have a divisor and the closure takes waves
        gens, leads = [], set()
        for _ in range(2 + trial % 4):
            f = random_poly(ring, rng, 3, 3)
            if f.is_constant() or f.terms[0][1] in leads:
                continue
            leads.add(f.terms[0][1])
            gens.append(f.monic())
        if not gens:
            continue
        reducers = groebner._prep_reducers(gens)
        polys = [random_poly(ring, rng, 4, 3) for _ in range(5)] + [ring.zero()]
        rows = []
        for f in polys:
            for _ in range(2):
                ev, k = _shift(ring, rng, lift)
                rows.append((f.terms, ev, k))
        rows += rows[:2]
        pivots, lead_evs = [], set()
        for g in gens + [random_poly(ring, rng, 3, 3).monic() for _ in range(2)]:
            if g.is_zero():
                continue
            ev, k = _shift(ring, rng, lift)
            if g.terms[0][1] + ev not in lead_evs:
                lead_evs.add(g.terms[0][1] + ev)
                pivots.append((g.terms, ev, k))
        if trial % 2:
            pivots = []
        E, mons = _block_reduce(ring, rows, reducers, pivots)
        E_ref, mons_ref = _block_reduce_reference(ring, rows, list(reducers), pivots)
        assert np.array_equal(E, E_ref) and E.dtype == E_ref.dtype
        assert mons == mons_ref
        assert mons.packing[:2] == (width, object if kind == "object" else np.int64)
        guard = ring._evec_guard
        reduced += any(groebner._first_divisor(reducers, guard, k + dk, ev + dev) is not None
                       for t, dev, dk in rows for k, ev, _ in t)
    assert reduced


@pytest.mark.parametrize("nvars", [3, 8, 32])
def test_block_reduce_refuses_a_matrix_past_its_bound(nvars, monkeypatch):
    """x0^2 * z^3 modulo x0 - 1, z the last variable, brings the pivot
    rows x0 * z^3 * (x0 - 1) and z^3 * (x0 - 1): a 3 x 3 matrix with
    its top monomial in degree 5, in a ring that fits int64, one that
    is repacked and one on Python ints."""
    ring = PolyRing(PrimeField(65521), tuple(f"x{i}" for i in range(nvars)))
    x = ring.gens()
    basis = groebner_of(ring, [x[0] - 1, x[1] - 2])
    z3 = ring.pack_evec([0] * (nvars - 1) + [3])
    rows = [((x[0] ** 2).terms, z3, ring.key_of_evec(z3))]
    monkeypatch.setattr(groebner, "MAX_MATRIX_ENTRIES", 8)
    with pytest.raises(ContractViolation) as exc:
        _block_reduce(ring, rows, basis.reducers())
    assert str(exc.value) == f"Macaulay matrix 3 x 3 over {ring} up to degree 5 exceeds 8 entries"
    monkeypatch.setattr(groebner, "MAX_MATRIX_ENTRIES", 9)
    E, mons = _block_reduce(ring, rows, basis.reducers())
    assert Polynomial(ring, _row_terms(E[0], mons)) == x[-1] ** 3


def _rref_reference(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Gaussian elimination on Python integers: the loop that _rref vectorises."""
    m = [[v % p for v in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


@pytest.mark.parametrize("p", [5, 65521, 2147483647])
def test_rref_matches_reference(p):
    rng = random.Random(p)
    shapes = [(0, 4), (3, 0), (1, 1)] + [(rng.randrange(1, 9), rng.randrange(1, 12))
                                          for _ in range(40)]
    shapes += [(rng.randrange(10, 30), rng.randrange(10, 30)) for _ in range(10)]
    for nrows, ncols in shapes:
        rows = [[rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        if nrows > 2:
            rows[1] = [0] * ncols  # a zero row
            # a combination of two rows: rank deficient
            rows[2] = [(3 * a + (p - 1) * b) % p for a, b in zip(rows[0], rows[-1])]
        if nrows >= 10:
            # rank at most 3: every row a combination of the first three
            for i in range(3, nrows):
                cs = [rng.randrange(p) for _ in range(3)]
                rows[i] = [sum(c * rows[k][j] for k, c in enumerate(cs)) % p
                           for j in range(ncols)]
        if ncols > 3:
            for row in rows:
                row[0] = 0  # leading zero column, crossed in one scan
                row[ncols // 2] = 0  # and zero columns inside and at the end
                row[-1] = 0
        mat = np.array(rows, dtype=np.int64).reshape(nrows, ncols)
        R, pivots = groebner._rref(mat, p)
        ref, ref_pivots = _rref_reference(rows, p)
        assert pivots == ref_pivots
        assert R.shape == (len(ref_pivots), ncols)
        assert R.tolist() == ref
        assert mat.tolist() == rows  # the input is not modified


@pytest.mark.parametrize("p", [65521, 2**31 - 1])
def test_matmul_matches_object_arithmetic(p):
    rng = np.random.default_rng(p)
    shapes = [(1, 1, 1), (5, 7, 3), (30, 40, 20), (3, 200, 4), (1, 2**21 + 5, 2)]
    for rows, inner, cols in shapes:
        A = rng.integers(0, p, size=(rows, inner), dtype=np.int64)
        B = rng.integers(0, p, size=(inner, cols), dtype=np.int64)
        A[0, :3] = B[:3, 0] = p - 1  # the largest entries
        want = (A.astype(object) @ B.astype(object)) % p
        got = groebner._matmul(A, B, p)
        assert got.dtype == np.int64
        assert (got == want).all(), (p, rows, inner, cols)
    v = rng.integers(0, p, size=9, dtype=np.int64)
    M = rng.integers(0, p, size=(4, 9), dtype=np.int64)
    assert groebner._matvec(M, v, p).tolist() == [
        sum(int(a) * int(b) for a, b in zip(row, v)) % p for row in M]


def test_extend_basis_agrees_with_full_run(ring_xyz, rng):
    x, y, z = ring_xyz.gens()
    zero = GroebnerBasis(ring_xyz, ())
    cases = [
        (zero, [3 * x * y + 2 * z**2 + x + 4]),  # a principal basis, made monic
        (zero, [ring_xyz.const(2)]),  # the unit ideal
        (zero, [x**2 + 2 * y * z, y**2 + x * z + 1]),  # one principal step, one signature step
    ]
    for _ in range(15):
        base = groebner_of(ring_xyz, [random_poly(ring_xyz, rng, 3, 2) for _ in range(2)])
        if base.is_unit or base.is_zero_ideal:
            continue
        extra = random_poly(ring_xyz, rng, 2, 2)
        if extra.is_zero():
            continue
        cases.append((base, [extra]))
    for base, extra in cases:
        fast = extend_basis(base, extra)
        slow = groebner_of(ring_xyz, list(base.gens) + extra)
        assert fast == slow


def _count_calls(monkeypatch, *names):
    """Count the calls of each named function of the groebner module."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(groebner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(groebner, name, counting)
    return counts


def test_extend_zero_ideal_takes_no_signature_step(ring_xyz, monkeypatch):
    """{f / lc(f)} is already the reduced basis of <f>: nothing is reduced."""
    x, y, z = ring_xyz.gens()
    counts = _count_calls(monkeypatch, "_sig_step", "_reduce_terms")
    f = 2 * x**2 * y + 3 * y * z + x + 1
    ext = extend_basis(GroebnerBasis(ring_xyz, ()), [f])
    assert ext.gens == (f.monic(),)
    assert counts == {"_sig_step": 0, "_reduce_terms": 0}


def _interreduce_reference(ring, gens):
    """Minimalize, then tail-reduce every minimal generator."""
    order = sorted(range(len(gens)), key=lambda i: gens[i].terms[0][0])
    minimal = []
    for i in order:
        lm = gens[i].terms[0][1]
        if not any(ring.divides(g.terms[0][1], lm) for g in minimal):
            minimal.append(gens[i])
    reducers = groebner._prep_reducers(minimal)
    reduced = [Polynomial(ring, g.terms[:1] + tuple(
        _reduce_terms(ring, g.terms[1:], reducers))) for g in minimal]
    reduced.sort(key=lambda f: f.terms[0][0], reverse=True)
    return tuple(reduced)


@pytest.mark.parametrize("p", [7, 65521])
def test_interreduce_matches_full_tail_reduction(p):
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    rng = random.Random(p)
    kept = rewritten = 0
    for trial in range(60):
        gens = [random_poly(ring, rng, 4, 3).monic() for _ in range(2 + trial % 4)]
        gens = [g for g in gens if not g.is_constant()]
        if not gens:
            continue
        if trial % 2:
            # a reduced basis and a new element whose lead divides a tail
            # term of one of its generators, which alone needs reducing
            basis = groebner_of(ring, gens)
            tails = [ev for g in basis for _, ev, _ in g.terms[1:] if ev]
            if basis.is_unit or not tails:
                continue
            ev = rng.choice(tails)
            mask = (1 << ring.width) - 1
            var = rng.choice([j for j in range(ring.nvars) if (ev >> (j * ring.width)) & mask])
            if trial % 4 == 3:
                ev -= 1 << (var * ring.width)  # a proper divisor of the tail term
            if not ev:
                continue
            new = Polynomial(ring, ((ring.key_of_evec(ev), ev, 1), (0, 0, rng.randrange(1, p))))
            gens = list(basis.gens) + [new]
        fast = _interreduce(ring, list(gens))
        assert fast == _interreduce_reference(ring, list(gens))
        kept += sum(g in gens for g in fast)
        rewritten += sum(g not in gens for g in fast)
    assert kept > 0 and rewritten > 0


def test_interreduce_leaves_a_reduced_basis_unreduced(monkeypatch):
    ring = PolyRing(PrimeField(65521), ("x", "y", "z"))
    rng = random.Random(5)
    bases = [groebner_of(ring, [random_poly(ring, rng, 4, 2) for _ in range(3)])
             for _ in range(10)]
    counts = _count_calls(monkeypatch, "_reduce_terms")
    for basis in bases:
        assert _interreduce(ring, list(basis.gens)) == basis.gens
    assert counts["_reduce_terms"] == 0


def _count_regular_reductions(monkeypatch):
    """Count the signature-bounded reductions and those that give zero.

    Also keeps the signed reducer list of every extension step (the
    step grows one list in place) under the key "steps", the signature
    key of every regular reduction, one per processed pair signature,
    under "sigs", and that of every reduction to zero under "zero_sigs".
    """
    counts = {"regular": 0, "zero": 0, "steps": {}, "sigs": [], "zero_sigs": []}
    original = groebner._reduce_terms

    def counting(ring, terms, reducers, divisors=None, extra=(), bound=None, log=None):
        out = original(ring, terms, reducers, divisors, extra, bound, log)
        if bound is not None:
            counts["regular"] += 1
            counts["zero"] += not out
            counts["steps"][id(extra)] = (ring, extra)
            counts["sigs"].append(bound)
            if not out:
                counts["zero_sigs"].append(bound)
        return out

    monkeypatch.setattr(groebner, "_reduce_terms", counting)
    return counts


def _assert_no_singular_element(ring, reducers):
    """No new element is a multiple of another with the same signature.

    Entries are (lead key, lead evec, tail, signature key, index).
    """
    signed = [red for red in reducers if red[3] >= 0]
    for lk, le, _, sk, _ in signed:
        for lk2, le2, _, sk2, _ in signed:
            if le2 != le and ring.divides(le, le2):
                assert lk2 - lk + sk != sk2


@pytest.mark.parametrize("p", [5, 7, 101, 65521])
def test_signature_extension_matches_scratch(p, monkeypatch):
    """extend_basis against from-scratch bases, and saturate and
    radical_member against the saturation oracle."""
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    x, y, z = ring.gens()
    rng = random.Random(p)
    counts = _count_regular_reductions(monkeypatch)
    units = multi = rejected = 0
    for trial in range(24):
        a, b = (random_poly(ring, rng, 3, 2) for _ in range(2))
        if a.is_zero() or b.is_zero():
            continue
        gens = [a * b, random_poly(ring, rng, 3, 2)][: 1 + trial % 2]
        base = groebner_of(ring, [f for f in gens if not f.is_zero()])
        if base.is_unit:
            continue
        c = rng.randrange(p)
        extra_lists = [
            [a],  # a zero divisor modulo <a*b> unless b is in the ideal
            [random_poly(ring, rng, 3, 2), random_poly(ring, rng, 2, 2)],
            [x - c, y + b, x - c - 1],  # the unit ideal
            [x - c, y * z - 1],
        ]
        for extra in extra_lists:
            ext = extend_basis(base, extra)
            assert ext == groebner_of(ring, list(base.gens) + extra)
            units += ext.is_unit
            multi += len(extra) > 1 and not ext.is_unit
        for g in (a, b, x + y + c, random_poly(ring, rng, 3, 2)):
            if g.is_zero():
                continue
            sat = saturate(base, g)
            rejected += assert_saturation(base, g, sat)
            assert radical_member(g, base) == sat.is_unit
    assert counts["zero"] > 0  # some extras were zero divisors
    assert units > 0 and multi > 0 and rejected > 0
    for step_ring, reducers in counts["steps"].values():
        _assert_no_singular_element(step_ring, reducers)


def test_colon_cofactors_are_syzygies_at_their_signatures(monkeypatch):
    """Each cofactor u of a colon step has u * g in <P>, is a normal form
    modulo P, and has its syzygy's signature as its leading monomial."""
    ring = PolyRing(PrimeField(101), ("x", "y", "z", "w"))
    rng = random.Random(2024)
    done = found = 0
    while done < 20:
        a, b = (random_poly(ring, rng, 3, 2) for _ in range(2))
        base = groebner_of(ring, [a * b, random_poly(ring, rng, 4, 2)])
        if base.is_unit or a.is_constant() or dimension(base) == 0:
            continue
        counts = _count_regular_reductions(monkeypatch)
        cofactors = _sig_step(base, a, colon=True)
        monkeypatch.undo()
        done += 1
        if cofactors == [ring.one()]:
            assert ideal_member(a, base)
            continue
        assert [u.terms[0][0] for u in cofactors] == counts["zero_sigs"]
        leads = [u.terms[0][1] for u in cofactors]
        for u in cofactors:
            assert u.lead_coeff() == 1
            assert normal_form(u * a, base).is_zero()
            assert normal_form(u, base) == u
        for e, e2 in itertools.permutations(leads, 2):
            assert not ring.divides(e, e2)
        found += len(cofactors)
    assert found > 0


@pytest.mark.parametrize("colon", [False, True], ids=["extension", "colon"])
def test_pair_pruning_keeps_every_processed_signature(colon, monkeypatch):
    """Two fixed signature steps process the same pair signatures, in the
    same order, with the same reductions to zero, as they did before the
    Koszul criterion moved from the pop to pair creation; the keys were
    recorded then."""
    ring = PolyRing(PrimeField(101), ("x", "y", "z", "w"))
    x, y, z, w = ring.gens()
    q1, q2, q4 = x * y - z**2 + w, y * z - w**2 + x, z * w - x**2 + 2 * y + 1
    c1, c2 = x**2 * y + z**3 - w, y**2 * w - x * z + 2
    if colon:
        gens, f = [q1 * q4, q2, c1], q4
        sigs = [134480384, 268959744, 268960768, 268960769, 402915328, 403439616,
                403440129, 403441152, 537395713, 537396226, 671351297, 671613952,
                805830656, 939786240, 939786752, 1073741824, 1208221696]
    else:
        gens, f = [q1 * c2, q2, c1], c2
        sigs = [134479872, 268959744, 268960769, 268960770, 402915841, 403439616,
                403440129, 403440642, 537395713, 537396226, 671350784, 671351297,
                805306368, 805830656, 939786752]
    base = groebner_of(ring, gens)
    counts = _count_regular_reductions(monkeypatch)
    _sig_step(base, f, colon=colon)
    assert (counts["regular"], counts["zero"]) == (len(sigs), 8)
    assert counts["sigs"] == sigs
    assert counts["zero_sigs"] == [268960769, 403439616, 403440129, 537395713,
                                   537396226, 671351297, 805830656, 939786752]


# -- saturation ------------------------------------------------------------------

def test_saturate_spec_examples(ring_xy):
    x, y = ring_xy.gens()
    assert [str(g) for g in saturate([x * y], x)] == ["y"]
    assert saturate([x**2], x).is_unit
    assert [str(g) for g in saturate([x], y)] == ["x"]


def test_saturate_by_zero_rejected(ring_xy):
    x, _ = ring_xy.gens()
    with pytest.raises(ContractViolation):
        saturate([x], ring_xy.zero())


@pytest.mark.parametrize("p", [5, 7, 65521, 2**31 - 1])
def test_certificate_accepts_only_unchanged_saturations(p):
    """Whenever the certificate accepts (basis, g), the saturation is the basis."""
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    rng = random.Random(p)
    accepted = declined = rejected = 0
    for trial in range(40):
        a, b = (random_poly(ring, rng, 3, 2) for _ in range(2))
        gens = [a * b, random_poly(ring, rng, 3, 2)][: 1 + trial % 2]
        base = groebner_of(ring, [f for f in gens if not f.is_zero()])
        if base.is_unit or base.is_zero_ideal:
            continue
        for g in (a, b, random_poly(ring, rng, 3, 2)):
            if g.is_zero() or g.is_constant():
                continue
            sat = saturate(base, g)
            rejected += assert_saturation(base, g, sat)
            if _regular_at_infinity(base, g):
                accepted += 1
                assert sat == base
            else:
                declined += 1
    assert accepted > 0 and declined > 0 and rejected > 0


def _regular_at_infinity_hilbert(basis, g):
    """The certificate as a Hilbert-series identity: g* is a nonzerodivisor
    modulo I* iff N(I* + g*) = (1 - t^e) N(I*), e = deg g*, with the basis
    of I* + g* from one signature step that stops at its first syzygy."""
    ring = basis.ring
    top = GroebnerBasis(ring, tuple(groebner._top_form(h) for h in basis.gens))
    gstar = groebner._top_form(g)
    new = _sig_step(top, gstar, stop_at_syzygy=True)
    if not new:
        return False  # a syzygy, or g* in I*
    base = groebner._hilbert_numerator(ring, top.gens)
    e = ring.degree_of_key(gstar.terms[0][0])
    shifted = base + [0] * e  # (1 - t^e) N(I*)
    for i, c in enumerate(base):
        shifted[i + e] -= c
    return groebner._hilbert_numerator(ring, list(top.gens) + new) == shifted


@pytest.mark.parametrize("p", [5, 7, 65521, 2**31 - 1])
def test_certificate_matches_hilbert_identity(p):
    """A signature step with no regular reduction to zero accepts exactly
    where the Hilbert numerators say g* is a nonzerodivisor modulo I*."""
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    rng = random.Random(1000 + p)
    verdicts = []
    for trial in range(40):
        a, b = (random_poly(ring, rng, 3, 2) for _ in range(2))
        # a * b makes a and b zero divisors unless the other is in the ideal
        gens = [a * b, random_poly(ring, rng, 3, 2), random_poly(ring, rng, 2, 3)]
        base = groebner_of(ring, [f for f in gens[: 1 + trial % 3] if not f.is_zero()])
        if base.is_unit or base.is_zero_ideal:
            continue
        for g in (a, b, random_poly(ring, rng, 3, 2), random_poly(ring, rng, 2, 1)):
            if g.is_zero() or g.is_constant():
                continue
            verdict = _regular_at_infinity(base, g)
            assert verdict == _regular_at_infinity_hilbert(base, g)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_certificate_declines_a_zero_divisor_at_infinity():
    # x is a unit modulo <x*y - 1>, but its top form x is a zero divisor
    # modulo <x*y>: the certificate declines, and the colon step reaches
    # a constant, which proves x a unit
    ring = PolyRing(PrimeField(101), ("x", "y"))
    x, y = ring.gens()
    base = groebner_of(ring, [x * y - 1])
    assert not _regular_at_infinity(base, x)
    assert saturate(base, x) == base


def test_certificate_declines_a_zero_divisor():
    ring = PolyRing(PrimeField(101), ("x", "y"))
    x, y = ring.gens()
    base = groebner_of(ring, [x * y])
    assert not _regular_at_infinity(base, x)
    assert [str(g) for g in saturate(base, x)] == ["y"]


def test_certified_saturation_returns_the_basis_itself(monkeypatch):
    ring = PolyRing(PrimeField(101), ("x", "y", "z"))
    x, y, z = ring.gens()
    base = groebner_of(ring, [x**2 + y * z - 1, y**2 - x * z + 2])
    counts = _count_calls(monkeypatch, "_sig_step")
    assert saturate(base, x + y + z + 3) is base
    assert counts == {"_sig_step": 1}  # the certificate's own, no colon step


def _infinity_applies(base):
    """The rule of ``zerodim.at_infinity`` on a grevlex ring: dimension
    d >= 1 and the last d variables in no lead."""
    if base.is_unit or is_zero_dim(base):
        return False
    ring = base.ring
    shift = (ring.nvars - dimension(base)) * ring.width
    return not any(ev >> shift for ev in base.lead_evecs())


@pytest.mark.parametrize("p", [5, 7, 65521, 2**31 - 1])
def test_points_at_infinity_decide_the_certificate(p):
    """W_inf is a reduced basis of deg I points; top(g) a unit modulo it
    certifies g as the signature step and the Hilbert identity do, exactly
    on one-dimensional bases and one-sidedly above, and top(f) not
    nilpotent modulo it refutes f in the radical."""
    seen = {"built": 0, "refused": 0, True: 0, False: 0, "refuted": 0, "nilpotent": 0,
            "rejected": 0}
    for nvars in (3, 4):
        for base, asks in one_dimensional_cases(p, nvars, p + nvars, 14):
            ring = base.ring
            W = zerodim.at_infinity(base)
            if not _infinity_applies(base):
                assert W is None
                seen["refused"] += 1
                continue
            seen["built"] += 1
            assert W == groebner_of(ring, W.gens)
            assert quotient_degree(W) == hilbert_dim_degree(base)[1]
            exact = dimension(base) == 1
            for g in asks:
                top = zerodim.saturation(W, groebner._top_form(g))
                verdict = top is W
                if exact or verdict:
                    assert verdict == _regular_at_infinity(base, g)
                    assert verdict == _regular_at_infinity_hilbert(base, g)
                seen[verdict] += 1
                if top.is_unit:
                    seen["nilpotent"] += 1
                else:
                    sat = saturate(base, g)
                    seen["rejected"] += assert_saturation(base, g, sat)
                    assert not sat.is_unit
                    seen["refuted"] += 1
    if p > 7:
        del seen["refused"]  # only a small p puts a last variable in a lead
    assert all(seen.values()), seen


@pytest.mark.parametrize("p", [5, 7, 65521, 2**31 - 1])
def test_points_at_infinity_by_dimension(p):
    """On bases of dimension 2 and 3, W_inf is its own reduced basis with
    deg I standard monomials, an accept leaves the saturation the basis
    itself, and a refutation agrees with ``radical_member``."""
    seen = {d: dict.fromkeys(("built", "accept", "decline", "refuted"), 0) for d in (2, 3)}
    rejected = 0
    for nvars, dim in ((3, 2), (4, 2), (4, 3)):
        for base, asks in product_cases(p, nvars, dim, 31 * p + 5 * nvars + dim, 8):
            W = zerodim.at_infinity(base)
            if not _infinity_applies(base):
                assert W is None
                continue
            d = dimension(base)
            if d not in seen:
                continue
            seen[d]["built"] += 1
            assert W == groebner_of(base.ring, W.gens)
            assert quotient_degree(W) == hilbert_dim_degree(base)[1]
            for g in asks:
                top = zerodim.saturation(W, groebner._top_form(g))
                if top is W:
                    seen[d]["accept"] += 1
                    assert _regular_at_infinity(base, g)
                    assert is_saturation(base, g, base)
                else:
                    seen[d]["decline"] += 1
                    rejected += assert_saturation(base, g, saturate(base, g))
                if not top.is_unit:
                    seen[d]["refuted"] += 1
                    assert not radical_member(g, base)
    assert all(all(counts.values()) for counts in seen.values()), seen
    assert rejected > 0


def test_points_at_infinity_refused_where_the_rule_fails(monkeypatch):
    ring = PolyRing(PrimeField(101), ("x", "y", "z"))
    x, y, z = ring.gens()
    # dimension 2, but y, one of the last two variables, divides the lead x*y
    assert zerodim.at_infinity(groebner_of(ring, [x * y + z**2 - 1])) is None
    assert zerodim.at_infinity(groebner_of(ring, [x**2 - 1, y**2 - 2, z**2 - 3])) is None
    assert zerodim.at_infinity(groebner_of(ring, [ring.one()])) is None
    # dimension 1, but the last variable divides the lead z^2
    zlead = groebner_of(ring, [z**2 - x, y - 1])
    assert dimension(zlead) == 1 and zerodim.at_infinity(zlead) is None
    # a refusal is memoized like any other answer
    calls = []
    points = zerodim._points_at_infinity

    def counting(basis):
        calls.append(basis)
        return points(basis)

    monkeypatch.setattr(zerodim, "_points_at_infinity", counting)
    with memo_scope():
        assert zerodim.at_infinity(zlead) is None
        assert zerodim.at_infinity(groebner_of(ring, [z**2 - x, y - 1])) is None
    assert calls == [zlead]
    line = groebner_of(ring, [x - 2 * z, y + z + 1])
    W = zerodim.at_infinity(line)
    assert [str(g) for g in W] == ["x + 99", "y + 1", "z + 100"]  # x - 2, y + 1, z - 1
    # dimension 2: the decline is one-sided, z is regular modulo <x^2>
    # but 0 modulo its points at infinity, so the certificate decides
    double = groebner_of(ring, [x**2])
    W = zerodim.at_infinity(double)
    assert [str(g) for g in W] == ["x^2", "y + 100", "z"]
    assert zerodim.saturation(W, z) is not W
    assert _regular_at_infinity(double, z) and saturate(double, z) is double


def test_saturation_soundness(ring_xyz, rng):
    """h * g^k lands in the original ideal for a small k, and <F> grows."""
    x, y, z = ring_xyz.gens()
    cases = [
        ([x * y, y * z], x),
        ([x**2 * y - z * x], x),
        ([x * (x + y), y * (x + y)], x + y),
    ]
    K_MAX = 50
    for F, g in cases:
        base = groebner_of(ring_xyz, F)
        sat = saturate(F, g)
        for f in F:
            assert ideal_member(f, sat)
        for h in sat.gens:
            ok = False
            power = ring_xyz.one()
            for _ in range(K_MAX):
                if ideal_member(h * power, base):
                    ok = True
                    break
                power = power * g
            assert ok, f"{h} * {g}^k never entered the ideal"


def test_saturation_idempotent(ring_xyz, rng):
    x, y, z = ring_xyz.gens()
    for F, g in [([x * y, y * z], x), ([x * y**2], y), ([x**2 - y, x * z], x)]:
        s1 = saturate(F, g)
        s2 = saturate(s1, g)
        assert s1 == s2


def test_saturate_seq_factors(ring_xyz):
    x, y, z = ring_xyz.gens()
    # saturating by x then y equals saturating by x*y
    F = [x * y * z]
    assert saturate_seq(groebner_of(ring_xyz, F), [x, y]) == saturate(F, x * y)


def test_saturate_seq_ring_from_first_input(ring_xyz):
    x, y, z = ring_xyz.gens()
    # no factors: the ring comes from F, and the basis is returned as is
    assert saturate_seq([x * y], []) == groebner_of(ring_xyz, [x * y])
    with pytest.raises(ContractViolation, match="empty input"):
        saturate_seq([], [])


def test_saturate_output_needs_no_interreduction(ring_xyz, rng):
    """The saturation comes back as a reduced basis."""
    proper = 0
    for _ in range(20):
        F = [random_poly(ring_xyz, rng) for _ in range(rng.randrange(1, 3))]
        g = random_poly(ring_xyz, rng)
        if g.is_zero():
            continue
        for source in (F, groebner_of(ring_xyz, F)):
            sat = saturate(source, g)
            assert sat.gens == _interreduce(ring_xyz, list(sat.gens))
            proper += len(sat.gens) > 1
    assert proper


def test_colon_saturation_leaves_normal_forms_memo_free(rng):
    """normal_form through a divisor memo that colon steps filled equals a
    memo-free reduction, and so does the saturation after normal forms
    filled the memo first."""
    ring = PolyRing(PrimeField(7), ("x", "y", "z"))
    cases = rejected = 0
    for _ in range(30):
        a, b = (random_poly(ring, rng) for _ in range(2))
        gens = tuple(groebner_of(ring, [a * b, random_poly(ring, rng)]))
        if not gens or gens[0].is_one() or a.is_constant():
            continue
        fs = [random_poly(ring, rng, terms=6, max_deg=4) for _ in range(6)]
        plain = GroebnerBasis(ring, gens)
        expected = [Polynomial(ring, tuple(_reduce_terms(ring, f.terms, plain.reducers())))
                    for f in fs]
        assert not plain._divisors  # a plain reduction leaves no memo
        if _regular_at_infinity(plain, a):
            continue  # no colon step would run
        sat = _saturation(GroebnerBasis(ring, gens), a)
        rejected += assert_saturation(plain, a, sat)

        first = GroebnerBasis(ring, gens)
        assert _saturation(first, a) == sat
        assert first._divisors
        assert [normal_form(f, first) for f in fs] == expected

        second = GroebnerBasis(ring, gens)
        assert [normal_form(f, second) for f in fs] == expected
        assert second._divisors
        assert _saturation(second, a) == sat
        cases += 1
    assert cases > 10 and rejected > 0


def _count_colon_steps(monkeypatch):
    """Count the colon-mode signature steps."""
    counts = {"colon": 0}
    original = groebner._sig_step

    def counting(basis, f, stop_at_syzygy=False, colon=False):
        counts["colon"] += colon
        return original(basis, f, stop_at_syzygy, colon)

    monkeypatch.setattr(groebner, "_sig_step", counting)
    return counts


@pytest.mark.parametrize("p", [5, 7, 65521, 2**31 - 1])
def test_colon_saturation_matches_scratch(p, monkeypatch):
    """The colon chain alone, with the certificate switched off, against
    the saturation oracle, which runs Buchberger on <base, t*g - 1> from
    scratch."""
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    x, y, z = ring.gens()
    monkeypatch.setattr(groebner, "_regular_at_infinity", lambda basis, g: False)
    counts = _count_colon_steps(monkeypatch)
    rng = random.Random(p)
    longest = rejected = 0
    for trial in range(30):
        a, b = (random_poly(ring, rng, 3, 2) for _ in range(2))
        gens = [a * a * b, random_poly(ring, rng, 3, 2)][: 1 + trial % 2]
        base = groebner_of(ring, [f for f in gens if not f.is_zero()])
        if base.is_unit or base.is_zero_ideal:
            continue
        for g in (a, b, random_poly(ring, rng, 3, 2)):
            if g.is_zero() or g.is_constant():
                continue
            counts["colon"] = 0
            sat = _saturation(base, g)
            longest = max(longest, counts["colon"])
            rejected += assert_saturation(base, g, sat)
    assert longest >= 3  # two colon ideals that grew, then one step with no syzygy
    assert rejected > 0

    zero = GroebnerBasis(ring, ())
    cases = [
        (groebner_of(ring, [x**2 * y]), x, [y], 3),  # <x^2*y> : x = <x*y>, then <y>
        (groebner_of(ring, [x**2 - y, y * z]), x**2 - y, [ring.one()], 1),  # g in I
        (groebner_of(ring, [x * y - 1]), x, [x * y - 1], 1),  # g a unit modulo I
        (zero, x + y + 1, [], 1),
    ]
    for base, g, expected, steps in cases:
        counts["colon"] = 0
        assert list(_saturation(base, g).gens) == expected
        assert counts["colon"] == steps


@pytest.mark.parametrize("p", [5, 7, 65521, 2**31 - 1])
def test_saturation_starts_with_a_colon_step(p, monkeypatch):
    """The certificate is never asked of the basis being saturated, only of
    the colon ideals the chain has grown, by ``saturate`` and by a gb cell
    whose points at infinity decline."""
    asked = []
    certificate = groebner._regular_at_infinity

    def recorded(basis, g):
        asked.append(basis)
        return certificate(basis, g)

    monkeypatch.setattr(groebner, "_regular_at_infinity", recorded)
    inputs = []
    cases = itertools.chain(*(one_dimensional_cases(p, nvars, 3 * p + nvars, 4)
                              for nvars in (3, 4)),
                            *(product_cases(p, nvars, dim, 5 * p + nvars + dim, 4)
                              for nvars, dim in ((3, 2), (4, 2), (4, 3))))
    for base, asks in cases:
        for g in asks:
            if g.is_constant():
                continue
            inputs.append(base)
            assert_saturation(base, g, saturate(base, g))
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    x, y, z = ring.gens()
    double = groebner_of(ring, [x**2])
    W = zerodim.at_infinity(double)
    X = AffineCell(ring, "gb", double, ())
    for g in (x + z, z):
        assert zerodim.saturation(W, groebner._top_form(g)) is not W  # W_inf declines
        inputs.append(double)
        assert_saturation(double, g, X.subtract(g).W)
    assert asked
    assert not any(basis == base for basis in asked for base in inputs)


# -- membership -------------------------------------------------------------------

def test_ideal_member_examples(ring_xy):
    x, y = ring_xy.gens()
    G = buchberger([x])
    assert ideal_member(x * y, G)
    assert not ideal_member(y, G)
    assert ideal_member(ring_xy.zero(), G)


def test_radical_member_examples(ring_xy):
    x, y = ring_xy.gens()
    assert radical_member(x, buchberger([x**2]))
    assert not radical_member(y, buchberger([x]))
    assert radical_member(x + y, buchberger([x**2, y**2]))
    # the first colon step decides these: a nonzero constant gives no
    # syzygy, and a member of the ideal gives the cofactor 1
    zero = GroebnerBasis(ring_xy, ())
    three = ring_xy.one() * 3
    assert not radical_member(three, buchberger([x]))
    assert not radical_member(three, zero)
    assert not radical_member(x, zero)
    assert radical_member(x * y, buchberger([x]))


@pytest.mark.parametrize("shortcut, member", [
    *itertools.product(["zero polynomial", "unit basis"], [ideal_member, radical_member]),
    ("sequence basis", normal_form),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_membership_rejects_another_ring(member, shortcut, ring_xy, ring_xyz):
    # both shortcuts once answered True before the rings were compared,
    # and a basis given as a plain sequence once reduced f unchanged
    if shortcut == "sequence basis":
        x, y = PolyRing(PrimeField(7), ("x", "y")).gens()
        a = PolyRing(PrimeField(11), ("a", "b", "c")).gens()[0]
        with pytest.raises(ContractViolation, match="different rings"):
            member(x * y + x, [a + 1])
        return
    x, y = ring_xy.gens()
    basis = buchberger([x * y] if shortcut == "zero polynomial" else [x, x + 1])
    f = ring_xyz.zero() if shortcut == "zero polynomial" else ring_xyz.gens()[0]
    with pytest.raises(ContractViolation, match="different rings"):
        member(f, basis)


def test_ideal_member_implies_radical_member(ring_xyz, rng):
    x, y, z = ring_xyz.gens()
    G = buchberger([x * y - z**2, y**2])
    for _ in range(20):
        f = random_poly(ring_xyz, rng)
        if ideal_member(f, G):
            assert radical_member(f, G)


def test_memo_scope_keeps_saturate_and_radical_member(ring_xyz, rng):
    cases = []
    for _ in range(20):
        G = groebner_of(ring_xyz, [random_poly(ring_xyz, rng) for _ in range(2)])
        f = random_poly(ring_xyz, rng)
        if not (G.is_unit or f.is_zero()):
            cases.append((G, f))
    outside = [(saturate(G, f), radical_member(f, G)) for G, f in cases]
    assert any(not sat.is_unit for sat, _ in outside)
    with memo_scope():
        # the saturation is shared, so ask in both orders; the second
        # round is answered from the memo
        first = [(radical_member(f, G), saturate(G, f)) for G, f in cases]
        assert [(sat, rm) for rm, sat in first] == outside
        assert [(saturate(G, f), radical_member(f, G)) for G, f in cases] == outside


# -- dimension and degree ------------------------------------------------------------

def test_dimension_examples(ring_xy, ring_xyz):
    x3, y3, z3 = ring_xyz.gens()
    assert dimension(groebner_of(ring_xyz, [])) == 3
    x, y = ring_xy.gens()
    assert dimension(buchberger([x])) == 1
    assert dimension(buchberger([x3 * y3, x3 * z3])) == 2


def test_dimension_unit_raises(ring_xy):
    with pytest.raises(ContractViolation):
        dimension(buchberger([ring_xy.one()]))


def test_dimension_matches_bruteforce(ring_xyz, rng):
    """Exhaustive independent-subset search on ideals with <= 3 vars."""
    ring = ring_xyz
    for _ in range(20):
        polys = [random_poly(ring, rng, 2, 2) for _ in range(2)]
        polys = [f for f in polys if not f.is_zero()]
        if not polys:
            continue
        gb = groebner_of(ring, polys)
        if gb.is_unit:
            continue
        lead_supports = []
        w = ring.width
        for g in gb.gens:
            ev = g.terms[0][1]
            lead_supports.append({i for i in range(3) if (ev >> (i * w)) & ((1 << w) - 1)})
        best = -1
        for r in range(4):
            for S in itertools.combinations(range(3), r):
                S = set(S)
                if all(not supp <= S for supp in lead_supports):
                    best = max(best, len(S))
        assert dimension(gb) == best


def test_hilbert_dim_degree_examples():
    ring = PolyRing(PrimeField(65521), ("x", "y", "z"))
    x, y, z = ring.gens()
    assert hilbert_dim_degree(groebner_of(ring, [y - x**2, z - x**3])) == (1, 3)  # twisted cubic
    assert hilbert_dim_degree(groebner_of(ring, [x * y, x * z])) == (2, 1)  # V(x) union V(y, z)
    assert hilbert_dim_degree(groebner_of(ring, [])) == (3, 1)
    assert hilbert_dim_degree(groebner_of(ring, [x**2])) == (2, 2)  # double plane
    with pytest.raises(ContractViolation):
        hilbert_dim_degree(groebner_of(ring, [ring.one()]))


def test_hilbert_degree_matches_generic_slice():
    """Positive-dimensional ideals: a generic slice of complementary dimension
    is zero-dimensional with as many points, counted with multiplicity."""
    rng = random.Random(2024)
    checked = set()
    for trial in range(30):
        ring = PolyRing(PrimeField(65521), ("x", "y", "z", "w")[:3 + trial % 2])
        polys = [random_poly(ring, rng, 3, 3) for _ in range(1 + trial % 3)]
        basis = groebner_of(ring, [f for f in polys if not f.is_zero()])
        if basis.is_unit or is_zero_dim(basis):
            continue
        d, degree = hilbert_dim_degree(basis)
        W, _ = make_witness(ring, basis.gens, (), d, rng)
        assert is_zero_dim(W)
        assert quotient_degree(W) == degree, [str(g) for g in basis]
        checked.add(d)
    assert {1, 2} <= checked


def test_hilbert_dim_degree_is_kept_per_basis(ring_xyz):
    x, y, z = ring_xyz.gens()
    polys = [y - x**2, z - x**3]  # twisted cubic
    a, b = buchberger(list(polys)), buchberger(list(polys))
    assert a is not b and a == b
    assert hilbert_dim_degree(a) == hilbert_dim_degree(b)
    assert hilbert_dim_degree(a) is hilbert_dim_degree(a)  # read once, then kept
    unit = buchberger([ring_xyz.one()])
    for _ in range(2):
        with pytest.raises(ContractViolation):
            hilbert_dim_degree(unit)
    with memo_scope():
        kept = groebner_of(ring_xyz, polys)
        cached = hilbert_dim_degree(kept)
    fresh = groebner_of(ring_xyz, polys)
    assert fresh is not kept
    assert hilbert_dim_degree(kept) == cached == hilbert_dim_degree(fresh) == (1, 3)


@pytest.mark.parametrize("nvars, dim", [(3, 0), (3, 1), (4, 0), (4, 2)])
def test_is_zero_dim_is_kept_per_basis(nvars, dim):
    """The kept verdict is the pure-power scan's, on a basis built as
    another object too, and a second call reads it back."""
    seen = set()
    for basis, _ in product_cases(7, nvars, dim, 11 * nvars + dim, 8):
        ring = basis.ring
        supports = [[i for i, e in enumerate(ring.unpack_evec(ev)) if e]
                    for ev in basis.lead_evecs()]
        pure = {s[0] for s in supports if len(s) == 1}
        scan = not basis.is_unit and len(pure) == ring.nvars
        assert basis._zero_dim is None
        assert is_zero_dim(basis) == scan == is_zero_dim(GroebnerBasis(ring, basis.gens))
        assert basis._zero_dim == scan and is_zero_dim(basis) == scan
        seen.add(scan)
    assert seen == ({True, False} if dim == 0 else {False})
    assert not is_zero_dim(buchberger([ring.one()]))


@pytest.mark.parametrize("p", [5, 7, 101, 65521])
def test_pure_power_test_agrees_with_hilbert_dimension(p):
    rng = random.Random(p)
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    seen = set()
    for trial in range(40):
        polys = [random_poly(ring, rng, 3, 2) for _ in range(1 + trial % 4)]
        basis = groebner_of(ring, [f for f in polys if not f.is_zero()])
        if basis.is_unit:
            assert not is_zero_dim(basis)
            continue
        d, degree = hilbert_dim_degree(basis)
        assert is_zero_dim(basis) == (d == 0)
        if d == 0:
            assert degree == quotient_degree(basis)
        seen.add(d == 0)
    assert seen == {True, False}


def test_quotient_degree_examples(ring_xy):
    x, y = ring_xy.gens()
    assert quotient_degree(buchberger([x, y])) == 1
    assert quotient_degree(buchberger([x**2, y])) == 2
    assert quotient_degree(buchberger([x**2 - 1, y**2 - 1])) == 4


def test_quotient_degree_rejects_positive_dimension(ring_xy):
    x, _ = ring_xy.gens()
    with pytest.raises(ContractViolation):
        quotient_degree(buchberger([x]))


def test_standard_monomials_staircase(ring_xy):
    x, y = ring_xy.gens()
    gb = buchberger([x**2, x * y, y**3])
    monos = standard_monomials(gb)
    assert len(monos) == 4  # 1, x, y, y^2


# -- Hilbert numerator and staircase against brute force -----------------------------

def _oracle_numerator(monos: list[tuple[int, ...]]) -> list[int]:
    """N(t) of R/<monos> on unpacked exponents, by pivoting on a whole generator:
    N(M + <m>) = N(M) - t^deg(m) * N(M : m); a product of (1 - t^deg) once
    the minimal generators are pairwise coprime."""
    def minus_shifted(a, b, shift):
        out = a + [0] * max(0, shift + len(b) - len(a))
        for i, c in enumerate(b):
            out[shift + i] -= c
        return out

    minimal: list[tuple[int, ...]] = []
    for m in sorted(set(monos), key=sum):
        if not any(all(a <= b for a, b in zip(k, m)) for k in minimal):
            minimal.append(m)
    if all(not (a and b) for i, m in enumerate(minimal) for k in minimal[:i]
           for a, b in zip(m, k)):
        num = [1]
        for m in minimal:
            num = minus_shifted(num, num, sum(m))
        return num
    pivot, rest = minimal[-1], minimal[:-1]
    colon = [tuple(max(a - b, 0) for a, b in zip(m, pivot)) for m in rest]
    return minus_shifted(_oracle_numerator(rest), _oracle_numerator(colon), sum(pivot))


def _packed_numerator(ring, evecs) -> list[int]:
    leads = [(sum(ring.unpack_evec(ev)), ev) for ev in evecs]
    return groebner._numerator(groebner._minimal(leads, ring._evec_guard),
                               ring._evec_guard, ring.width)


def _trim(num: list[int]) -> list[int]:
    num = list(num)
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num


def _monomials_of_degree(n: int, d: int):
    for cut in itertools.combinations(range(d + n - 1), n - 1):
        edges = (-1,) + cut + (d + n - 1,)
        yield tuple(edges[i + 1] - edges[i] - 1 for i in range(n))


def _random_monomial_ideal(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """Up to 10 generators, exponents <= 4, with duplicates, non-minimal
    generators and pure powers mixed in."""
    gens: list[tuple[int, ...]] = []
    for _ in range(rng.randint(1, 10)):
        kind = rng.random()
        if gens and kind < 0.15:
            gens.append(rng.choice(gens))  # duplicate
        elif gens and kind < 0.3:
            base = rng.choice(gens)  # a multiple: not minimal
            gens.append(tuple(min(4, e + rng.randint(0, 1)) for e in base))
        elif kind < 0.5:
            e = [0] * n
            e[rng.randrange(n)] = rng.randint(1, 4)  # pure power
            gens.append(tuple(e))
        else:
            gens.append(tuple(rng.randint(0, 4) * (rng.random() < 0.6) for _ in range(n)))
    return [g for g in gens if any(g)] or [tuple([1] + [0] * (n - 1))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_numerator_counts_standard_monomials_by_degree(n):
    """The coefficients of N(t) / (1 - t)^n count the monomials outside the
    ideal in each degree."""
    rng = random.Random(700 + n)
    ring = PolyRing(PrimeField(7), tuple(f"x{i}" for i in range(n)))
    bound = 9 if n <= 3 else 7
    for _ in range(60):
        gens = _random_monomial_ideal(rng, n)
        num = _packed_numerator(ring, [ring.pack_evec(g) for g in gens])
        assert _trim(num) == _trim(_oracle_numerator(gens))
        for d in range(bound + 1):
            standard = sum(
                not any(all(a <= b for a, b in zip(g, m)) for g in gens)
                for m in _monomials_of_degree(n, d))
            series = sum(c * math.comb(d - k + n - 1, n - 1)
                         for k, c in enumerate(num) if k <= d)
            assert series == standard, (gens, d)


def test_numerator_of_many_leads_counts_without_overflow():
    """A count field holds up to 2^w - 1 leads; past that the pivot is chosen
    among the first ones and the numerator stays exact."""
    ring = PolyRing(PrimeField(7), ("x", "y", "z"), cap=7)  # 4-bit fields
    gens = [(a, b, 7 - a - b) for a in range(8) for b in range(8 - a)]  # 36 leads
    num = _packed_numerator(ring, [ring.pack_evec(g) for g in gens])
    assert _trim(num) == _trim(_oracle_numerator(gens))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_standard_monomials_match_brute_force_staircase(n):
    rng = random.Random(800 + n)
    ring = PolyRing(PrimeField(7), tuple(f"x{i}" for i in range(n)))
    for _ in range(40):
        gens = _random_monomial_ideal(rng, n)
        for i in range(n):  # zero-dimensional: a pure power of every variable
            if not any(g[i] and sum(g) == g[i] for g in gens):
                e = [0] * n
                e[i] = rng.randint(1, 4)
                gens.append(tuple(e))
        basis = groebner_of(ring, [ring.monomial(g) for g in gens])
        brute = [
            ring.pack_evec(m)
            for m in itertools.product(range(5), repeat=n)
            if not any(all(a <= b for a, b in zip(g, m)) for g in gens)
        ]
        brute.sort(key=ring.key_of_evec)
        monos = standard_monomials(basis)
        assert set(monos) == set(brute)
        assert monos == brute
        assert hilbert_dim_degree(basis) == (0, len(brute))


def _decomposition_bases(monkeypatch, runs):
    """Every Groebner basis built while running each (text or system, backend)."""
    seen = []
    init = GroebnerBasis.__init__

    def record(self, ring, gens):
        init(self, ring, gens)
        seen.append(self)

    monkeypatch.setattr(GroebnerBasis, "__init__", record)
    for system, backend in runs:
        if isinstance(system, str):
            system = parse_system(system)
        ring = system.ring()
        equidim(system.polynomials(ring), ring, DecompConfig(backend=backend))
    monkeypatch.undo()
    return seen


def test_numerator_matches_oracle_on_decomposition_bases(monkeypatch):
    data = Path(__file__).parent / "data"
    runs = [((data / f"tiny_gf{p}.txt").read_text(), "witness") for p in (5, 7, 11)]
    runs += [(gen_ps(3, random.Random(0)), "gb"), (gen_sos(2, 3, random.Random(0)), "gb")]
    checked = set()
    dims = set()
    for basis in _decomposition_bases(monkeypatch, runs):
        ring = basis.ring
        key = (ring, tuple(basis.lead_evecs()))
        if basis.is_unit or key in checked:
            continue
        checked.add(key)
        evecs = basis.lead_evecs()
        num = _packed_numerator(ring, evecs)
        assert _trim(num) == _trim(_oracle_numerator([ring.unpack_evec(e) for e in evecs]))
        dim, degree = hilbert_dim_degree(basis)
        assert sum(num) == (degree if dim == ring.nvars else 0)
        if is_zero_dim(basis):
            assert (dim, degree) == (0, len(standard_monomials(basis)))
        dims.add(dim)
    assert len(checked) >= 30 and {0, 1, 2} <= dims
