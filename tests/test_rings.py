import itertools
import random

import pytest

from equidim import (
    ContractViolation,
    MonomialOrder,
    ParseError,
    PolyRing,
    PrimeField,
    mono_cmp,
    parse_polynomial,
    poly_to_string,
    random_affine_forms,
)
from equidim.rings import DegreeOverflow, Polynomial

from conftest import random_poly


# -- monomial orders ---------------------------------------------------------

def test_grevlex_spec_examples(ring_xy):
    # equal degree: tie broken on the last variable
    assert mono_cmp(ring_xy, (2, 0), (1, 1)) > 0          # x^2 > xy
    assert mono_cmp(ring_xy, (1, 0), (0, 2)) < 0          # x < y^2
    assert mono_cmp(ring_xy, (2, 1), (2, 1)) == 0


def test_grevlex_refines_degree(ring_xyz, rng):
    for _ in range(200):
        a = tuple(rng.randrange(4) for _ in range(3))
        b = tuple(rng.randrange(4) for _ in range(3))
        if sum(a) < sum(b):
            assert mono_cmp(ring_xyz, a, b) < 0


def test_order_is_total_and_multiplicative(ring_xyz, rng):
    for _ in range(300):
        a = tuple(rng.randrange(3) for _ in range(3))
        b = tuple(rng.randrange(3) for _ in range(3))
        c = tuple(rng.randrange(3) for _ in range(3))
        cab = mono_cmp(ring_xyz, a, b)
        assert cab == -mono_cmp(ring_xyz, b, a)
        if cab == 0:
            assert a == b
        # multiplicative: m*a vs m*b keeps the comparison
        ma = tuple(x + y for x, y in zip(a, c))
        mb = tuple(x + y for x, y in zip(b, c))
        assert mono_cmp(ring_xyz, ma, mb) == cab
        # 1 is minimal
        assert mono_cmp(ring_xyz, a, (0, 0, 0)) >= 0


def test_transitivity_random(ring_xyz, rng):
    for _ in range(200):
        trip = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(3)]
        trip.sort(key=lambda e: ring_xyz.key_of_evec(ring_xyz.pack_evec(e)))
        assert mono_cmp(ring_xyz, trip[0], trip[1]) <= 0
        assert mono_cmp(ring_xyz, trip[1], trip[2]) <= 0
        assert mono_cmp(ring_xyz, trip[0], trip[2]) <= 0


def test_elim_block_eliminates(gf5):
    ring = PolyRing(gf5, ("x", "y")).extend_elim()
    # any monomial with positive t beats any t-free one
    assert mono_cmp(ring, (0, 0, 1), (3, 3, 0)) > 0
    assert mono_cmp(ring, (0, 0, 2), (5, 5, 1)) > 0
    # within t-free monomials the order is grevlex on the rest
    assert mono_cmp(ring, (2, 0, 0), (1, 1, 0)) > 0
    assert mono_cmp(ring, (1, 0, 0), (0, 2, 0)) < 0


def test_order_repr_names_each_kind():
    assert repr(MonomialOrder.grevlex()) == "grevlex"
    assert repr(MonomialOrder.elim_block()) == "elim_block()"
    ring = PolyRing(PrimeField(5), ("x", "y")).extend_elim()
    assert repr(ring) == "GF(5)[x, y, @t; elim_block()]"


def test_extend_elim_keeps_tfree_terms(rng):
    # elimination code moves polynomials between the two rings by their
    # terms alone, which is valid only because of this
    ring = PolyRing(PrimeField(65521), ("x", "y", "z"))
    ext = ring.extend_elim()
    for _ in range(200):
        f = random_poly(ring, rng, terms=6, max_deg=5)
        for k, ev, _ in Polynomial(ext, f.terms).terms:
            assert ext.key_of_evec(ev) == k
    with pytest.raises(ContractViolation):
        ext.extend_elim()


def _reference_key(ring, evec):
    """The order key by its definition, one field per entry, most
    significant first.  Grevlex: the front partial sums of the exponents,
    the total degree on top.  Elim: the last variable's exponent on top,
    then the grevlex fields of the other variables."""
    exps = ring.unpack_evec(evec)
    if ring.order == MonomialOrder.grevlex():
        fields = list(itertools.accumulate(exps))
    else:
        fields = list(itertools.accumulate(exps[:-1])) + [exps[-1]]
    key = 0
    for s in reversed(fields):
        key = (key << ring.width) | s
    return key


def _random_exps(rng, n, cap):
    """An exponent vector of total degree at most cap, often at the cap."""
    budget = cap if rng.random() < 0.3 else rng.randrange(cap + 1)
    exps = [0] * n
    for i in rng.sample(range(n), n):
        exps[i] = rng.randrange(budget + 1)
        budget -= exps[i]
    return exps


@pytest.mark.parametrize("order", ["grevlex", "extend_elim"])
@pytest.mark.parametrize("cap", [1, 7, 255])
def test_closed_form_key_and_lcm_match_reference(order, cap, rng):
    for names in (("a",), ("a", "b", "c")):
        ring = PolyRing(PrimeField(7), names, cap=cap)
        if order == "extend_elim":
            ring = ring.extend_elim()
        _check_key_and_lcm(ring, rng)


def _check_key_and_lcm(ring, rng):
    n, cap = ring.nvars, ring.cap
    for _ in range(400):
        exps = _random_exps(rng, n, cap)
        ev = ring.pack_evec(exps)
        key = ring.key_of_evec(ev)
        assert key == _reference_key(ring, ev)
        assert ring.degree_of_key(key) == sum(exps)
        # a and b lie under a common bound, so their lcm is within the cap
        bound = _random_exps(rng, n, cap)
        a = [rng.randrange(e + 1) for e in bound]
        b = [e if rng.random() < 0.5 else rng.randrange(e + 1) for e in bound]
        ea, eb = ring.pack_evec(a), ring.pack_evec(b)
        expected = ring.pack_evec(tuple(map(max, ring.unpack_evec(ea), ring.unpack_evec(eb))))
        assert ring.lcm_evec(ea, eb) == ring.lcm_evec(eb, ea) == expected


def test_mono_cmp_length_mismatch(ring_xy):
    with pytest.raises(ContractViolation):
        mono_cmp(ring_xy, (1,), (1, 0))


# -- polynomial arithmetic ----------------------------------------------------

def test_hash_agrees_with_equality_across_field_objects():
    # equal polynomials over separately built but equal fields
    a = PolyRing(PrimeField(7), ("x", "y")).gens()[0] + 1
    b = PolyRing(PrimeField(7), ("x", "y")).gens()[0] + 1
    assert a == b
    assert len({a, b}) == 1


def test_add_sub_examples(ring_xy):
    x, y = ring_xy.gens()
    assert (x + y) + (x - y) == 2 * x
    assert (x + y) * ring_xy.zero() == ring_xy.zero()
    assert (x + 1) * (x - 1) == x**2 + 4  # -1 is 4 over GF(5)


def test_leading_terms(ring_xy):
    x, y = ring_xy.gens()
    assert (x**2 + x * y).lead_exponents() == (2, 0)
    assert (3 * y).lead_term()[2] == 3
    assert (x + y**2).lead_exponents() == (0, 2)


def test_zero_has_no_leading_term(ring_xy):
    with pytest.raises(ContractViolation):
        ring_xy.zero().lead_term()


def test_ring_mismatch_rejected(gf5):
    r1 = PolyRing(gf5, ("x", "y"))
    r2 = PolyRing(gf5, ("x", "z"))
    with pytest.raises(ContractViolation):
        r1.var(0) + r2.var(0)


def test_mul_properties_random(ring_xyz, rng):
    z = ring_xyz.zero()
    for _ in range(60):
        f = random_poly(ring_xyz, rng)
        g = random_poly(ring_xyz, rng)
        h = random_poly(ring_xyz, rng)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + (-f) == z


def test_canonical_invariants_random(ring_xyz, rng):
    for _ in range(80):
        f = random_poly(ring_xyz, rng)
        keys = [k for k, _, _ in f.terms]
        assert keys == sorted(keys, reverse=True)
        assert len(set(ev for _, ev, _ in f.terms)) == len(f.terms)
        assert all(c % 5 != 0 for _, _, c in f.terms)


def test_degree_cap_overflow():
    ring = PolyRing(PrimeField(5), ("x",), cap=7)
    x = ring.var(0)
    f = x**7
    with pytest.raises(DegreeOverflow):
        f * x


def test_partial_derivative(ring_xy):
    x, y = ring_xy.gens()
    f = x**3 + 2 * x * y + 4
    assert f.partial(0) == 3 * x**2 + 2 * y
    assert f.partial(1) == 2 * x
    # char divides exponent: derivative term drops
    g = x**5
    assert g.partial(0) == ring_xy.zero()


def test_evaluate(ring_xy):
    x, y = ring_xy.gens()
    f = x**2 + y + 3
    assert f.evaluate((1, 1)) == (1 + 1 + 3) % 5


def test_subst_rename(ring_xyz):
    x, y, z = ring_xyz.gens()
    f = x**2 + x * z
    g = f.subst({0: y})
    assert g == y**2 + y * z


# -- parsing and printing -----------------------------------------------------

def test_parse_examples(ring_xy):
    x, y = ring_xy.gens()
    assert parse_polynomial(ring_xy, "x*y") == x * y
    assert parse_polynomial(ring_xy, "x^2 + 1") == x**2 + 1
    assert parse_polynomial(ring_xy, "2*x - 3*y + 7") == 2 * x - 3 * y + 2


def test_parse_unknown_identifier(ring_xy):
    with pytest.raises(ParseError):
        parse_polynomial(ring_xy, "q + 1")


def test_parse_rejects_implicit_multiplication(ring_xy):
    with pytest.raises(ParseError):
        parse_polynomial(ring_xy, "2x")
    with pytest.raises(ParseError):
        parse_polynomial(ring_xy, "x y")


def test_print_parse_roundtrip(ring_xyz, rng):
    for _ in range(60):
        f = random_poly(ring_xyz, rng)
        assert parse_polynomial(ring_xyz, poly_to_string(f)) == f


# -- random affine forms -------------------------------------------------------

def test_random_affine_forms_shape(ring_xyz):
    rng = random.Random(3)
    forms = random_affine_forms(ring_xyz, 5, rng)
    assert len(forms) == 5
    for ell in forms:
        assert ell.total_degree() == 1


def test_random_affine_forms_deterministic(ring_xyz):
    a = random_affine_forms(ring_xyz, 4, random.Random(99))
    b = random_affine_forms(ring_xyz, 4, random.Random(99))
    assert a == b


def test_random_affine_forms_empty(ring_xyz, rng):
    assert random_affine_forms(ring_xyz, 0, rng) == []


def test_random_affine_forms_have_constants_sometimes(ring_xyz):
    rng = random.Random(1)
    forms = random_affine_forms(ring_xyz, 30, rng)
    consts = [f.coeff_of((0, 0, 0)) for f in forms]
    assert any(c != 0 for c in consts)
