import itertools
import random

import pytest

from equidim import PolyRing, PrimeField, groebner_of


@pytest.fixture
def gf5():
    return PrimeField(5)


@pytest.fixture
def big_field():
    return PrimeField(65521)


@pytest.fixture
def ring_xy(gf5):
    return PolyRing(gf5, ("x", "y"))


@pytest.fixture
def ring_xyz(gf5):
    return PolyRing(gf5, ("x", "y", "z"))


@pytest.fixture
def rng():
    return random.Random(12345)


def random_poly(ring, rng, terms=4, max_deg=3):
    """Small random polynomial for property loops."""
    p = ring.field.p
    out = ring.zero()
    for _ in range(terms):
        exps = [0] * ring.nvars
        for _ in range(rng.randrange(max_deg + 1)):
            exps[rng.randrange(ring.nvars)] += 1
        out = out + ring.monomial(exps, rng.randrange(p))
    return out


def dense_poly(ring, rng, deg):
    """A random polynomial on every monomial of degree <= deg."""
    out = ring.zero()
    for e in itertools.product(range(deg + 1), repeat=ring.nvars):
        if sum(e) <= deg:
            out = out + ring.monomial(list(e), rng.randrange(ring.field.p))
    return out


def product_cases(p, nvars, dim, seed, trials):
    """(basis, polynomials to ask about), mostly on bases of dimension dim.

    A product a * b or a * c^2 of dense linear forms and n - dim - 1 dense
    quadrics: a and b are zero divisors unless the other is in the ideal,
    and a * c lies in the radical of a * c^2.  Every fourth basis keeps
    the product alone, of dimension n - 1, and small p puts one of the
    last dim variables in some leads, so some bases have no W_inf.
    """
    ring = PolyRing(PrimeField(p), ("x", "y", "z", "w")[:nvars])
    rng = random.Random(seed)
    for trial in range(trials):
        a, b, c = (dense_poly(ring, rng, 1) for _ in range(3))
        rest = [dense_poly(ring, rng, 2) for _ in range(nvars - dim - 1)]
        first = a * b if trial % 2 else a * c * c
        base = groebner_of(ring, [first] + (rest if trial % 4 != 3 else []))
        yield base, [a, b, a * c, dense_poly(ring, rng, 2)]


def one_dimensional_cases(p, nvars, seed, trials):
    """``product_cases`` of dimension 1."""
    return product_cases(p, nvars, 1, seed, trials)
