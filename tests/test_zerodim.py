"""Differential tests: the linear-algebra zero-dimensional toolkit must
agree bit-for-bit with the elimination/Buchberger routes (reduced bases
are unique), and its predicates with the Rabinowitsch tests."""

import random

import pytest

from equidim import (
    PolyRing,
    PrimeField,
    buchberger,
    groebner_of,
    quotient_degree,
    radical_member,
    saturate,
    standard_monomials,
)
from equidim.groebner import extend_basis
from equidim import zerodim


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


def test_nilpotency_matches_rabinowitsch(ring):
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


def test_saturation_matches_elimination(ring):
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


def test_extension_matches_buchberger(ring):
    rng = random.Random(13)
    x, y, z = ring.gens()
    for gb in zero_dim_cases(ring, rng):
        for extra in ([x - 1], [x, y], [x * y - 2, z - 1]):
            fast = zerodim.extended(gb, extra)
            slow = groebner_of(ring, list(gb.gens) + extra)
            assert fast == slow, (gb, extra)
