import itertools
import random

import pytest

from equidim import PolyRing, PrimeField, buchberger, groebner_of, normal_form
from equidim.groebner import _hilbert_numerator


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


def _lift(ext, f, top=None):
    """f as a polynomial of ``ext``, one variable more; with ``top``, homogenised
    to degree ``top`` by that last variable."""
    shift = (ext.nvars - 1) * ext.width
    degree = f.ring.degree_of_key
    return ext.from_terms((ev if top is None else ev + ((top - degree(k)) << shift), c)
                          for k, ev, c in f.terms)


def is_saturation(I, g, S):
    """True iff the reduced basis S is that of (<I> : g^inf), by a test in grevlex alone.

    With t a new last variable and J = <I, t*g - 1>, (<I> : g^inf) is
    the t-free part of J, so S is <1> exactly when J is.  A proper S is
    the saturation exactly when:

    (a) every element of S lies in J, by normal forms modulo J's grevlex
        basis, so that S lies in the saturation;
    (b) I lies in S;
    (c) g is a nonzerodivisor modulo S, so that (<I> : g^inf) lies in
        (S : g^inf) = S.

    (c) is read on homogenisations by the last variable h.  A reduced
    grevlex basis of S, homogenised, is a basis of S^h with the same
    leads (Bayer and Stillman, Invent. Math. 87, 1987), and g is a
    nonzerodivisor modulo S iff g^h is one modulo S^h.  For homogeneous
    ideals that holds iff the Hilbert numerators satisfy
    N(S^h + g^h) = (1 - t^e) N(S^h), with e = deg g.
    """
    ring = I.ring
    name = "t"
    while name in ring.names:
        name += "_"
    ext = PolyRing(ring.field, ring.names + (name,), cap=ring.cap)
    t = ext.var(ring.nvars)
    J = buchberger([_lift(ext, f) for f in I.gens] + [t * _lift(ext, g) - 1], ring=ext)
    if J.is_unit or S.is_unit:
        return J.is_unit and S.is_unit
    if buchberger(S.gens, ring=ring) != S:
        return False
    if any(not normal_form(_lift(ext, s), J).is_zero() for s in S.gens):
        return False
    if any(not normal_form(f, S).is_zero() for f in I.gens):
        return False
    Sh = [_lift(ext, s, s.total_degree()) for s in S.gens]
    N = _hilbert_numerator(ext, Sh)
    e = g.total_degree()
    expected = N + [0] * e
    for i, c in enumerate(N):
        expected[i + e] -= c
    while expected and not expected[-1]:
        expected.pop()
    with_g = buchberger(Sh + [_lift(ext, g, e)], ring=ext)
    return _hilbert_numerator(ext, with_g.gens) == expected


def assert_saturation(I, g, S):
    """Assert that the oracle accepts S as (<I> : g^inf) and, where S is not
    I, rejects I as a wrong candidate; True when it rejected one."""
    assert is_saturation(I, g, S)
    if S == I:
        return False
    assert not is_saturation(I, g, I)
    return True
