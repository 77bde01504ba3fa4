"""Differential tests: the linear-algebra zero-dimensional toolkit must
agree bit-for-bit with the colon-ideal saturation and Buchberger routes
(reduced bases are unique), and its predicates with ``radical_member``
and ``extend_basis``.
``low_degree_colon`` is checked against a reference written from its
definition: one dense Macaulay matrix per power and degree."""

import gc
import itertools
import random

import numpy as np
import pytest

from equidim import (
    DecompConfig,
    PolyRing,
    PrimeField,
    buchberger,
    equidim,
    gen_sos,
    groebner_of,
    quotient_degree,
    radical_member,
    saturate,
    standard_monomials,
)
from equidim import ContractViolation, dimension, ideal_member
from equidim.groebner import GroebnerBasis, _rref, extend_basis, memo_scope, normal_form
from equidim.rings import DegreeOverflow
from equidim import zerodim

from conftest import random_poly


@pytest.fixture
def ring():
    return PolyRing(PrimeField(65521), ("x", "y", "z"))


def zero_dim_cases(ring, rng):
    x, y, z = ring.gens()
    fixed = [
        [x, y, z],
        [x**2 - 1, y - 3, z],
        [x**2 + y, y**2 - z, z**2 - 2],
        [x**3 - x, y**2 - y, z - 5],
    ]
    for F in fixed:
        yield buchberger(F)
    for _ in range(6):
        F = [
            x**2 + rng.randrange(7) * y + rng.randrange(7),
            y**2 + rng.randrange(7) * z + rng.randrange(7),
            z**2 + rng.randrange(7) * x + rng.randrange(7),
        ]
        yield buchberger(F)


def test_staircase_and_degree(ring):
    x, y, z = ring.gens()
    gb = buchberger([x**2, y**2, z])
    q = zerodim.quotient(gb)
    assert q.D == quotient_degree(gb) == 4
    assert q.monomials == standard_monomials(gb)


def test_multiplication_matrices_act_correctly(ring):
    rng = random.Random(5)
    from equidim.groebner import normal_form
    for gb in zero_dim_cases(ring, rng):
        q = zerodim.quotient(gb)
        for i in range(3):
            xi = ring.var(i)
            for j, mono_ev in enumerate(q.monomials):
                exps = ring.unpack_evec(mono_ev)
                mono = ring.monomial(exps)
                expected = normal_form(xi * mono, gb)
                col = q.mul[i][:, j]
                vec = q.vector_of(expected)
                assert (col == vec).all()


def test_nilpotency_matches_radical_member(ring):
    rng = random.Random(7)
    x, y, z = ring.gens()
    probes = [x, y, x + y, x * y - 1, x + 2 * y - z, z**2]
    for gb in zero_dim_cases(ring, rng):
        for f in probes:
            assert zerodim.radical_membership(gb, f) == radical_member(f, gb), (gb, f)


def test_invertibility_matches_unit_extension(ring):
    rng = random.Random(9)
    x, y, z = ring.gens()
    probes = [x, y - 1, x + y + z, x * y + 3]
    for gb in zero_dim_cases(ring, rng):
        for f in probes:
            direct = extend_basis(gb, [f]).is_unit
            assert zerodim.properness(gb, f) == direct, (gb, f)


def test_saturation_matches_saturate(ring):
    rng = random.Random(11)
    x, y, z = ring.gens()
    probes = [x, y, x - 1, x + y]
    for gb in zero_dim_cases(ring, rng):
        for f in probes:
            assert zerodim.saturation(gb, f) == saturate(gb, f), (gb, f)


def test_saturation_nonreduced_points(ring):
    x, y, z = ring.gens()
    # fat point at origin union simple point at x=1
    gb = buchberger([x**2 * (x - 1), y, z])
    assert zerodim.saturation(gb, x) == saturate(gb, x)
    assert zerodim.saturation(gb, x - 1) == saturate(gb, x - 1)


@pytest.mark.parametrize("p", [5, 7, 11, 65521, 2147483647])
def test_saturation_kernel_read_matches_saturate(p):
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    x, y, z = ring.gens()
    # invertible f: the basis itself comes back
    gb = buchberger([x**2 - 1, y - 3, z])
    assert zerodim.saturation(gb, y) is gb
    assert saturate(gb, y) == gb
    # nilpotent f: the saturation is the unit ideal
    gb = buchberger([x**2, y, z**3])
    assert zerodim.saturation(gb, x + z).is_unit
    assert saturate(gb, x + z).is_unit
    # fat point at the origin beside a simple point at x = 1
    gb = buchberger([x**2 * (x - 1), y, z])
    for f in (x, x - 1, x + y):
        assert zerodim.saturation(gb, f) == saturate(gb, f), f
    # a large staircase with points of several multiplicities
    gb = buchberger([x**3 * (x - 1)**2, y**3 - x * y, z**3 - z + x * y])
    assert zerodim.quotient(gb).D >= 40
    for f in (x, x - 1, y, x * y - z, z + 2):
        assert zerodim.saturation(gb, f) == saturate(gb, f), f


@pytest.mark.parametrize("first", ["properness", "radical_membership", "saturation"])
def test_properness_memo_keyed_by_value(ring, first, monkeypatch):
    # all three queries read one memoized saturation, so whichever runs
    # first, M_f is built once per basis and value of f
    built = []
    matrix_of = zerodim.QuotientStructure.matrix_of

    def counted(q, f):
        built.append((q, f))
        return matrix_of(q, f)

    monkeypatch.setattr(zerodim.QuotientStructure, "matrix_of", counted)
    rng = random.Random(17)
    x, y, z = ring.gens()
    for case in zero_dim_cases(ring, rng):
        for f, g in ((x - 1, -1 + x), (x * y + 3, 3 + y * x), (y, y * 1)):
            assert f is not g and f == g
            gb = GroebnerBasis(ring, case.gens)  # a fresh object: no quotient yet
            built.clear()
            getattr(zerodim, first)(gb, f)
            assert zerodim.properness(gb, g) == extend_basis(gb, [g]).is_unit, (gb, g)
            assert zerodim.radical_membership(gb, g) == radical_member(g, gb), (gb, g)
            assert zerodim.saturation(gb, g) == saturate(gb, g), (gb, g)
            assert len(zerodim.quotient(gb).saturated) == 1
            assert built == [(zerodim.quotient(gb), f)], (gb, f, built)


def test_equal_bases_share_one_quotient_in_a_memo_scope(ring, monkeypatch):
    # inside one decomposition, a basis value gets one quotient and one
    # saturation memo, whichever object asks; outside, each builds its own
    built = []
    matrix_of = zerodim.QuotientStructure.matrix_of

    def counted(q, f):
        built.append((q, f))
        return matrix_of(q, f)

    monkeypatch.setattr(zerodim.QuotientStructure, "matrix_of", counted)
    x, y, z = ring.gens()
    gens = buchberger([x**2 * (x - 1), y - x, z**2 - 1]).gens
    f, g = x - 1, -1 + x
    assert f is not g and f == g
    with memo_scope():
        a, b = GroebnerBasis(ring, gens), GroebnerBasis(ring, gens)
        q = zerodim.quotient(a)
        assert zerodim.quotient(b) is q
        sat = zerodim.saturation(a, f)
        assert sat != a and not sat.is_unit
        assert zerodim.saturation(b, g) is sat
        assert built == [(q, f)]
    built.clear()
    c, d = GroebnerBasis(ring, gens), GroebnerBasis(ring, gens)
    assert zerodim.quotient(c) is not zerodim.quotient(d)
    assert zerodim.saturation(c, f) == zerodim.saturation(d, g) == sat
    assert [h for _, h in built] == [f, g]


@pytest.mark.parametrize("backend", ["gb", "witness"])
def test_decomposition_leaves_no_reference_cycles(backend):
    # a quotient keeps its basis's reducers, not the basis, so every
    # basis and quotient is freed by reference counting alone
    sf = gen_sos(2, 3, random.Random(0))
    ring = sf.ring()
    F = sf.polynomials(ring)
    gc.collect()
    gc.disable()
    try:
        equidim(F, ring, DecompConfig(backend=backend, seed=1))
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0


def test_extension_matches_buchberger(ring):
    # zero-dimensional bases grow through the signature step like any other
    rng = random.Random(13)
    x, y, z = ring.gens()
    for gb in zero_dim_cases(ring, rng):
        for extra in ([x - 1], [x, y], [x * y - 2, z - 1], [x, x - 1]):
            ext = extend_basis(gb, extra)
            assert ext == groebner_of(ring, list(gb.gens) + extra), (gb, extra)
        assert extend_basis(gb, [x, x - 1]).is_unit


def _colon_reference(basis, f, max_deg=4, max_power=2):
    """(result, candidates before de-duplication) of low_degree_colon,
    computed from its definition: for each power k and degree d, the
    kernel of a -> NF(a * f^k) on the monomials of degree <= d, read off
    the free columns of a dense RREF."""
    ring = basis.ring
    p = ring.field.p
    n = ring.nvars
    if basis.is_unit or f.is_zero():
        return [], 0
    for k in range(1, max_power + 1):
        fk = f**k
        for d in range(1, max_deg + 1):
            monos = [ring.monomial([c.count(i) for i in range(n)])
                     for e in range(d + 1)
                     for c in itertools.combinations_with_replacement(range(n), e)]
            cols = [normal_form(m * fk, basis) for m in monos]
            rows = sorted({ev for col in cols for _, ev, _ in col.terms})
            mat = np.zeros((max(len(rows), 1), len(monos)), dtype=np.int64)
            for j, col in enumerate(cols):
                for _, ev, c in col.terms:
                    mat[rows.index(ev), j] = c
            R, pivots = _rref(mat, p)
            found = []
            for c in range(len(monos)):
                if c in pivots:
                    continue
                a = monos[c]
                for i, pc in enumerate(pivots):
                    a = a - monos[pc] * int(R[i, c])
                h = normal_form(a, basis)
                if not h.is_zero():
                    found.append(h.monic())
            if found:
                out = []
                for h in found:
                    if h not in out:
                        out.append(h)
                return out, len(found)
    return [], 0


def _colon_cases(ring, rng):
    """(basis, f): the zero ideal, principal, positive- and
    zero-dimensional bases, with f a zero divisor and a nonzerodivisor."""
    p = ring.field.p
    x, y, z = ring.gens()

    def quad():
        square = [0, 0, 0]
        square[rng.randrange(3)] = 2
        return random_poly(ring, rng, terms=5, max_deg=2) + ring.monomial(
            square, rng.randrange(1, p))

    def lin():
        return ring.linear_form([rng.randrange(1, p) for _ in range(3)], rng.randrange(p))

    a, b, c = (rng.randrange(1, p) for _ in range(3))
    g, h, q1, q2, q3 = lin(), quad(), quad(), quad(), quad()
    yield GroebnerBasis(ring, ()), quad()
    yield buchberger([g * h]), g
    yield buchberger([g * h]), lin()
    yield buchberger([x * q1, x * q2]), x
    yield buchberger([q1, q2]), lin()
    yield buchberger([x * (x - a), y - b * x, z * (z - c)]), x + z
    yield buchberger([q1, q2, q3]), lin()
    yield buchberger([x**2, y**2, z**2]), x + y


@pytest.mark.parametrize("p", [5, 7, 101, 65521, 2**31 - 1])
def test_low_degree_colon_matches_reference(p):
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    rng = random.Random(p)
    dims, empty, found, repeats = set(), 0, 0, 0
    for _ in range(4):
        for basis, f in _colon_cases(ring, rng):
            want, raw = _colon_reference(basis, f)
            assert zerodim.low_degree_colon(basis, f) == want, (basis, f)
            if not basis.is_unit:
                dims.add(dimension(basis))
            empty += not want
            found += bool(want)
            repeats += raw - len(want)
    # every kind of basis, both outcomes and the de-duplication occurred
    assert dims == {0, 1, 2, 3}
    assert empty and found and repeats


@pytest.mark.parametrize("p", [5, 7, 101, 65521, 2**31 - 1])
def test_low_degree_colon_is_sound(p):
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    rng = random.Random(1000 + p)
    for _ in range(4):
        for basis, f in _colon_cases(ring, rng):
            out = zerodim.low_degree_colon(basis, f)
            assert len(set(out)) == len(out)
            for h in out:
                assert not ideal_member(h, basis)
                assert any(ideal_member(h * f**k, basis) for k in (1, 2)), (basis, f, h)


def test_low_degree_colon_empty_when_f_is_a_nonzerodivisor():
    # (<x> : y^k) = <x>: every candidate reduces to zero
    ring = PolyRing(PrimeField(65521), ("x", "y"))
    x, y = ring.gens()
    assert zerodim.low_degree_colon(buchberger([x]), y) == []


def test_low_degree_colon_errors():
    small = PolyRing(PrimeField(7), ("x", "y"), cap=4)
    x, y = small.gens()
    # a prime ideal: f is a nonzerodivisor, so the search runs until
    # degree 3, where 3 + deg f exceeds the cap
    basis = buchberger([x**2 + y**2 + 1])
    with pytest.raises(DegreeOverflow):
        zerodim.low_degree_colon(basis, x * y + 1)
    other = PolyRing(PrimeField(7), ("u", "v"))
    with pytest.raises(ContractViolation):
        zerodim.low_degree_colon(basis, other.var(0))
    # the ring is compared before the unit basis answers
    u = PolyRing(PrimeField(11), ("u", "v")).var(0)
    with pytest.raises(ContractViolation):
        zerodim.low_degree_colon(buchberger([small.one()]), u)


def test_extended_rejects_another_ring():
    ring = PolyRing(PrimeField(7), ("x", "y"))
    x, y = ring.gens()
    u = PolyRing(PrimeField(11), ("u", "v")).var(0)
    for basis in (buchberger([x**2 - 1, y - 2]), buchberger([ring.one()])):
        with pytest.raises(ContractViolation, match="different rings"):
            zerodim.extended(basis, [u])
