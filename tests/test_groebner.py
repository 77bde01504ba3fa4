import itertools
import random

import pytest

from equidim import (
    ContractViolation,
    GroebnerBasis,
    MonomialOrder,
    PolyRing,
    PrimeField,
    buchberger,
    dimension,
    groebner_of,
    ideal_intersect,
    ideal_member,
    make_witness,
    normal_form,
    quotient_degree,
    radical_member,
    saturate,
    saturate_seq,
    standard_monomials,
)
from equidim import groebner
from equidim.groebner import (
    _embed,
    _interreduce,
    _reduce_terms,
    _restrict_tfree,
    _spoly_terms,
    extend_basis,
    hilbert_dim_degree,
    is_zero_dim,
    memo_scope,
)

from conftest import random_poly


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
        s = ring._from_keyed(_reduce_terms(ring, _spoly_terms(ring, f, g, lcm), gb.reducers()))
        assert s.is_zero()
    return True


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


def test_extend_basis_agrees_with_full_run(ring_xyz, rng):
    x, y, z = ring_xyz.gens()
    for _ in range(15):
        base = groebner_of(ring_xyz, [random_poly(ring_xyz, rng, 3, 2) for _ in range(2)])
        if base.is_unit or base.is_zero_ideal:
            continue
        extra = random_poly(ring_xyz, rng, 2, 2)
        if extra.is_zero():
            continue
        fast = extend_basis(base, [extra])
        slow = groebner_of(ring_xyz, list(base.gens) + [extra])
        assert fast == slow


def _count_regular_reductions(monkeypatch):
    """Count the signature-bounded reductions and those that give zero.

    Also keeps the reducer list of every extension step (the step grows
    one list in place) under the key "steps".
    """
    counts = {"regular": 0, "zero": 0, "steps": {}}
    original = groebner._reduce_terms

    def counting(ring, terms, reducers, bound=None):
        out = original(ring, terms, reducers, bound)
        if bound is not None:
            counts["regular"] += 1
            counts["zero"] += not out
            counts["steps"][id(reducers)] = (ring, reducers)
        return out

    monkeypatch.setattr(groebner, "_reduce_terms", counting)
    return counts


def _assert_no_singular_element(ring, reducers):
    """No new element is a multiple of another with the same signature.

    Entries are (lead key, lead evec, tail, signature key); the basis
    being extended carries a negative signature key.
    """
    signed = [red for red in reducers if red[3] >= 0]
    for lk, le, _, sk in signed:
        for lk2, le2, _, sk2 in signed:
            if le2 != le and ring.divides(le, le2):
                assert lk2 - lk + sk != sk2


def _scratch_saturation(base, g):
    """sat(<base>, g) by Buchberger from scratch on <base, t*g - 1>."""
    ring = base.ring
    ext = ring.extend_elim()
    t = ext.var(ext.nvars - 1)
    rab = t * _embed(ext, [g])[0] - 1
    eb = buchberger(_embed(ext, base.gens) + [rab], ring=ext)
    if eb.is_unit:
        return GroebnerBasis(ring, (ring.one(),))
    return _restrict_tfree(ring, ext, eb)


@pytest.mark.parametrize("p", [5, 7, 101, 65521])
def test_signature_extension_matches_scratch(p, monkeypatch):
    """extend_basis, saturate and radical_member against from-scratch bases."""
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    x, y, z = ring.gens()
    rng = random.Random(p)
    counts = _count_regular_reductions(monkeypatch)
    units = multi = 0
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
            scratch = _scratch_saturation(base, g)
            if not g.is_constant():
                assert saturate(base, g) == scratch
            assert radical_member(g, base) == scratch.is_unit
    assert counts["zero"] > 0  # some extras were zero divisors
    assert units > 0 and multi > 0
    for step_ring, reducers in counts["steps"].values():
        _assert_no_singular_element(step_ring, reducers)


def test_saturation_reduces_no_pair_to_zero(monkeypatch):
    """t*g - 1 is a nonzerodivisor modulo <P>: the Koszul criterion finds every syzygy."""
    ring = PolyRing(PrimeField(101), ("x", "y", "z", "w"))
    rng = random.Random(2024)
    counts = _count_regular_reductions(monkeypatch)
    done = 0
    while done < 20:
        base = groebner_of(ring, [random_poly(ring, rng, 4, 2) for _ in range(2)])
        g = random_poly(ring, rng, 3, 2)
        if base.is_unit or g.is_zero() or g.is_constant() or dimension(base) == 0:
            continue
        saturate(base, g)
        done += 1
    assert counts["regular"] > 0
    assert counts["zero"] == 0


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


def test_saturate_over_elimination_order_rejected():
    # the elimination seeds its basis assuming grevlex on the source
    # ring; over another order the output would not be a basis
    R = PolyRing(PrimeField(101), ("x", "y", "z"), MonomialOrder.elim_block(1))
    x, y, z = R.gens()
    basis = buchberger([x**2 + y * z + 3, x * y - z**2 + 1], ring=R)
    with pytest.raises(ContractViolation):
        saturate(basis, x + y + 1)


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
    """The t-free part of the reduced elimination basis is already reduced."""
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
        # the elimination is shared, so ask in both orders; the second
        # round is answered from the memo
        first = [(radical_member(f, G), saturate(G, f)) for G, f in cases]
        assert [(sat, rm) for rm, sat in first] == outside
        assert [(saturate(G, f), radical_member(f, G)) for G, f in cases] == outside


# -- intersection ------------------------------------------------------------------

def test_ideal_intersect_examples(ring_xy):
    x, y = ring_xy.gens()
    gx, gy = buchberger([x]), buchberger([y])
    assert [str(g) for g in ideal_intersect(gx, gy)] == ["x*y"]
    assert ideal_intersect(gx, gx) == gx
    unit = buchberger([ring_xy.one()])
    assert ideal_intersect(unit, gx) == gx


def test_intersect_contains_products(ring_xyz, rng):
    x, y, z = ring_xyz.gens()
    G1 = buchberger([x - y])
    G2 = buchberger([x * z - 1, y])
    meet = ideal_intersect(G1, G2)
    for f in G1.gens:
        for g in G2.gens:
            assert ideal_member(f * g, meet)
    for h in meet.gens:
        assert ideal_member(h, G1)
        assert ideal_member(h, G2)


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
