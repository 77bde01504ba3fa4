import itertools
import random
from collections import Counter

import pytest

from equidim import (
    AffineCell,
    ContractViolation,
    DecompConfig,
    NonGenericSlice,
    PolyRing,
    PrimeField,
    buchberger,
    dimension,
    equidim,
    gen_ps,
    gen_sos,
    groebner_of,
    ideal_member,
    make_witness,
    parse_polynomial,
    quotient_degree,
    radical_member,
    saturate,
    saturate_seq,
)
from equidim import cells, groebner, zerodim
from equidim.groebner import extend_basis, is_zero_dim
from equidim.rings import random_affine_forms

from conftest import one_dimensional_cases, product_cases


def gb_cell(ring, F, G=()):
    return AffineCell(ring, "gb", groebner_of(ring, list(F)), tuple(G))


def wit_cell(ring, F, G, d, rng):
    W, forms = make_witness(ring, tuple(F), tuple(G), d, rng)
    return AffineCell(ring, "witness", tuple(F), tuple(G), W, d, forms)


@pytest.fixture
def R4():
    return PolyRing(PrimeField(65521), ("x", "y", "z", "w"))


@pytest.fixture
def R2():
    return PolyRing(PrimeField(65521), ("x", "y"))


@pytest.fixture
def R3():
    return PolyRing(PrimeField(65521), ("x", "y", "z"))


# -- full space ----------------------------------------------------------------

def test_full_space_gb(R2):
    X = AffineCell.full_space(R2, "gb")
    assert X.basis().is_zero_ideal
    assert X.G == ()
    assert not X.is_empty()


def test_full_space_witness(R3):
    X = AffineCell.full_space(R3, "witness", random.Random(5))
    assert X.d == 3
    assert dimension(X.W) == 0
    assert quotient_degree(X.W) == 1


def test_full_space_witness_deterministic(R3):
    a = AffineCell.full_space(R3, "witness", random.Random(9))
    b = AffineCell.full_space(R3, "witness", random.Random(9))
    assert a.witness_forms == b.witness_forms
    assert a.W == b.W


# -- intersect_proper ------------------------------------------------------------

def test_intersect_proper_gb(R2):
    x, y = R2.gens()
    X = AffineCell.full_space(R2, "gb")
    Y = X.intersect_proper(x)
    assert [str(g) for g in Y.basis()] == ["x"]
    assert Y.G == ()


def test_intersect_proper_witness_structure(R2):
    rng = random.Random(3)
    x, y = R2.gens()
    X = AffineCell.full_space(R2, "witness", rng)
    Y = X.intersect_proper(x, rng)
    assert Y.d == 1
    assert dimension(Y.W) == 0


def test_intersect_proper_zero_dim_witness_rejected(R2):
    rng = random.Random(3)
    x, y = R2.gens()
    X = AffineCell.full_space(R2, "witness", rng)
    Y = X.intersect_proper(x, rng).intersect_proper(y, rng)
    assert Y.d == 0
    with pytest.raises(ContractViolation):
        Y.intersect_proper(x + y, rng)


def test_intersect_proper_saturates_away_removed_part(R2):
    # V({y}; {x}) meet V(x+y): the candidate point is the origin, which
    # lies in V(x); the saturation empties the cell
    x, y = R2.gens()
    X = gb_cell(R2, [x * y], [x]).subtract(x)  # hmm: build V(y) \ V(x) directly below
    X = AffineCell(R2, "gb", buchberger([y]), (x,))
    Y = X.intersect_proper(x + y)
    assert Y.is_empty()
    assert Y.basis().is_unit


# -- intersect_components ----------------------------------------------------------

def test_intersect_components_example(R4):
    x, y, z, w = R4.gens()
    X = gb_cell(R4, [x * y, z * w])
    Y = X.intersect_components([x, z * w])
    assert sorted(map(str, Y.basis())) == ["x", "z*w"]


def test_intersect_components_empty_H(R4):
    X = gb_cell(R4, [R4.var(0)])
    assert X.intersect_components([]) is X


def test_intersect_components_zero_dim_witness(R3):
    # a zero-dimensional slice takes H as plain generators, with no
    # second saturation by G
    x, y, z = R3.gens()
    cells = [
        wit_cell(R3, [x * (x - 1) * (x - 2), y**2 - x, z - x * y], [x - 2], 0, random.Random(7)),
        wit_cell(R3, [x * y - z, x**2 - y], [], 1, random.Random(8)),
    ]
    for X in cells:
        assert is_zero_dim(X.W)
        for H in ([x - 1], [y * (y - 1)], [x, y - 3]):
            Y = X.intersect_components(H)
            assert Y.W == groebner_of(R3, list(X.W.gens) + H)
            assert Y.F == X.F + tuple(H) and Y.G == X.G and Y.d == X.d
    assert cells[0].intersect_components([x, y - 3]).is_empty()


def test_intersect_components_unit(R2):
    rng = random.Random(1)
    X = AffineCell.full_space(R2, "witness", rng)
    Y = X.intersect_components([R2.one()])
    assert Y.is_empty()


# -- subtract ------------------------------------------------------------------------

def test_subtract_examples(R2):
    x, y = R2.gens()
    X = gb_cell(R2, [x * y])
    Y = X.subtract(x)
    assert [str(g) for g in Y.basis()] == ["y"]
    assert Y.G == (x,)


def test_subtract_constant_keeps_points(R2):
    X = gb_cell(R2, [R2.var(0)])
    c = R2.const(7)
    Y = X.subtract(c)
    assert Y.G == (c,)
    assert Y.basis() == X.basis()


def test_subtract_whole_set_is_empty(R2):
    x, _ = R2.gens()
    X = gb_cell(R2, [x])
    Y = X.subtract(x)
    assert Y.is_empty()


def test_subtract_zero_rejected(R2):
    X = gb_cell(R2, [R2.var(0)])
    with pytest.raises(ContractViolation):
        X.subtract(R2.zero())


def test_subtract_witness_is_lazy(R3):
    rng = random.Random(11)
    x, y, z = R3.gens()
    X = wit_cell(R3, [x * y], [], 2, rng)
    Y = X.subtract(x)
    # the stored equations are untouched; only the witness is saturated
    assert Y.F == X.F
    assert Y.G == (x,)
    assert [str(g) for g in Y.basis()] == ["y"]


# -- rad_member -------------------------------------------------------------------------

def test_rad_member_examples(R2):
    x, y = R2.gens()
    assert gb_cell(R2, [x**2]).rad_member(x)
    assert not AffineCell.full_space(R2, "gb").rad_member(x)
    X = AffineCell(R2, "gb", saturate([x * y], x), (x,))
    assert X.rad_member(y)


def test_rad_member_witness_matches_gb(R3):
    # the witness answer tracks the deterministic one on
    # EQUIDIMENSIONAL cells (the algorithm's invariant)
    rng = random.Random(23)
    x, y, z = R3.gens()
    cases = [
        ([x * y], [], 2),
        ([x * y * z], [], 2),
        ([x**2], [], 2),
        ([y, x * z], [], 1),  # two disjoint lines
    ]
    probes = [x, y, z, x + y, x * y, z**2]
    for F, G, d in cases:
        cg = gb_cell(R3, F, G)
        cw = wit_cell(R3, F, G, d, rng)
        for f in probes:
            assert cg.rad_member(f) == cw.rad_member(f), (F, str(f))


@pytest.mark.parametrize("p", [7, 65521, 2**31 - 1])
def test_gb_queries_on_zero_dim_ideal_read_the_quotient(p, monkeypatch):
    # a gb cell with a zero-dimensional I(X) answers rad_member and
    # subtract from zerodim.saturation, in agreement with groebner.saturate
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    x, y, z = ring.gens()
    basis = buchberger([x**2 * (x - 1) * (x - 2), y**2 - x, z**3 - y * z])
    assert is_zero_dim(basis)
    seen = []
    saturation = zerodim.saturation

    def counted(b, f):
        seen.append(f)
        return saturation(b, f)

    monkeypatch.setattr(zerodim, "saturation", counted)
    X = AffineCell(ring, "gb", basis, ())
    answers = set()
    for f in (x, x - 1, y, x * y - z, z + 2, x * (x - 1) * (x - 2), y * z):
        seen.clear()
        member = X.rad_member(f)
        assert member == radical_member(f, basis), f
        answers.add(member)
        assert X.subtract(f).basis() == saturate(basis, f), f
        assert seen == [f, f], f
    assert answers == {True, False}


@pytest.mark.parametrize("p", [5, 7, 65521, 2**31 - 1])
def test_gb_queries_at_infinity_agree_with_sat0(p):
    """subtract, rad_member and the saturations of intersect_components on
    a gb cell, routed through the points at infinity where they apply,
    give the answers of ``_sat0``, which saturates every basis."""
    routed = Counter()
    cases = itertools.chain(*(one_dimensional_cases(p, nvars, 7 * p + nvars, 10)
                              for nvars in (3, 4)), product_cases(p, 4, 2, 11 * p, 6))
    for base, asks in cases:
        if base.is_unit:
            continue
        ring = base.ring
        if zerodim.at_infinity(base) is not None:
            routed[dimension(base)] += 1
        X = AffineCell(ring, "gb", base, ())
        for f in asks:
            sat = cells._sat0(base, f)
            assert X.subtract(f).W == sat
            assert X.rad_member(f) == sat.is_unit
        a, b = asks[:2]
        Y = AffineCell(ring, "gb", base, (a,))
        assert Y.intersect_components([b]).F == cells._sat0(extend_basis(base, [b]), a)
    assert routed[1] > 10 and routed[2] > 3 and routed[3] > 0, routed


def _count_sig_steps(monkeypatch):
    steps = []
    sig_step = groebner._sig_step

    def counted(*args, **kwargs):
        steps.append(args)
        return sig_step(*args, **kwargs)

    monkeypatch.setattr(groebner, "_sig_step", counted)
    return steps


def test_gb_subtract_certified_at_infinity_takes_no_signature_step(monkeypatch):
    ring = PolyRing(PrimeField(101), ("x", "y", "z"))
    x, y, z = ring.gens()
    base = groebner_of(ring, [x**2 + y * z - 1, y**2 - x * z + 2])
    steps = _count_sig_steps(monkeypatch)
    X = AffineCell(ring, "gb", base, ())
    assert X.subtract(x + y + z + 3).W is base  # x + y + z + 3 is regular
    assert not X.rad_member(x + y + z + 3)
    assert steps == []


def test_gb_dimension_two_cell_certified_at_infinity_takes_no_signature_step(monkeypatch):
    ring = PolyRing(PrimeField(101), ("x", "y", "z", "w"))
    x, y, z, w = ring.gens()
    base = groebner_of(ring, [x**2 + y * z - 1, y**2 - x * w + 2])
    assert dimension(base) == 2
    assert str(zerodim.at_infinity(base)) == "GB{x^2 + y, y^2, z + 100, w}"
    steps = _count_sig_steps(monkeypatch)
    X = AffineCell(ring, "gb", base, ())
    assert X.subtract(x + y + z + w + 3).W is base  # its top form is 1 + x + y, a unit, modulo W_inf
    assert not X.rad_member(x + y + z + w + 3)
    assert steps == []


# -- basis ---------------------------------------------------------------------------------

def test_cell_basis_examples(R2):
    x, y = R2.gens()
    assert [str(g) for g in AffineCell(R2, "gb", buchberger([y]), (x,)).basis()] == ["y"]
    rng = random.Random(2)
    Xw = wit_cell(R2, [x * y], [x], 1, rng)
    assert [str(g) for g in Xw.basis()] == ["y"]
    Xw2 = wit_cell(R2, [x * y], [], 1, rng)
    assert [str(g) for g in Xw2.basis()] == ["x*y"]


def test_cell_basis_cached(R2):
    rng = random.Random(2)
    x, y = R2.gens()
    X = wit_cell(R2, [x * y], [x], 1, rng)
    assert X.basis() is X.basis()


# -- make_witness -----------------------------------------------------------------------------

def test_make_witness_shapes(R2):
    rng = random.Random(17)
    x, y = R2.gens()
    W, forms = make_witness(R2, (), (), 2, rng)
    assert quotient_degree(W) == 1 and len(forms) == 2
    W, forms = make_witness(R2, (x,), (), 1, rng)
    assert quotient_degree(W) == 1
    W, forms = make_witness(R2, (x * y,), (x,), 1, rng)
    assert quotient_degree(W) == 1  # the line V(y) has degree 1


def test_make_witness_deterministic(R3):
    x, y, z = R3.gens()
    W1, f1 = make_witness(R3, (x * y - z,), (), 2, random.Random(4))
    W2, f2 = make_witness(R3, (x * y - z,), (), 2, random.Random(4))
    assert W1 == W2 and f1 == f2


def test_make_witness_degree_matches_bezout(R3):
    rng = random.Random(31)
    x, y, z = R3.gens()
    W, _ = make_witness(R3, (x**2 + y * z + 3, x * y - z**2 + 1), (), 1, rng)
    assert quotient_degree(W) == 4  # two generic quadrics: degree 4 curve


class ScriptedRng:
    """Fixed draws for ``random_affine_forms``: per form, n coefficients, then the constant."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, p):
        return self.values.pop(0) % p


@pytest.mark.parametrize("draws, G, expected", [
    # dependent but consistent: x + y + 1 and 2x + 2y + 2 cut one plane
    ([1, 1, 0, 1, 2, 2, 0, 2], (), ["x*y - z", "x + y + 1"]),
    # inconsistent: x + y + 1 and x + y + 2 are parallel planes
    ([1, 1, 0, 1, 1, 1, 0, 2], (), ["1"]),
    # x - 1, y - 2, z - 2 meet at (1, 2, 2), which lies on V(x*y - z)
    ([1, 0, 0, -1, 0, 1, 0, -2, 0, 0, 1, -2], (), ["x - 1", "y - 2", "z - 2"]),
    # ... and a factor vanishing at that point removes it
    ([1, 0, 0, -1, 0, 1, 0, -2, 0, 0, 1, -2], ("y - z",), ["1"]),
    # x - 1, y - 2, z - 3 meet at (1, 2, 3), off V(x*y - z)
    ([1, 0, 0, -1, 0, 1, 0, -2, 0, 0, 1, -3], (), ["1"]),
])
def test_make_witness_degenerate_slices(draws, G, expected):
    ring = PolyRing(PrimeField(101), ("x", "y", "z"))
    x, y, z = ring.gens()
    F = (x * y - z,)
    G = tuple(parse_polynomial(ring, g) for g in G)
    d = len(draws) // (ring.nvars + 1)
    W, forms = make_witness(ring, F, G, d, ScriptedRng(draws))
    want = groebner_of(ring, [parse_polynomial(ring, e) for e in expected])
    assert W == want
    assert W == saturate_seq(groebner_of(ring, F + forms), G)
    assert len(forms) == d


def test_non_generic_slice_is_rejected():
    ring = PolyRing(PrimeField(101), ("x", "y", "z"))
    # x + y + 1 and 2x + 2y + 2 are one plane, so with z they cut a line
    rng = ScriptedRng([1, 1, 0, 1, 2, 2, 0, 2, 0, 0, 1, 0])
    with pytest.raises(NonGenericSlice):
        AffineCell.full_space(ring, "witness", rng)


def test_forced_non_generic_slice_raises_in_decomposition(monkeypatch):
    # the slice after the first proper cut gets two equal forms, so it
    # is a curve on the surface; the decomposition stops there with the
    # typed error instead of querying a positive-dimensional slice
    sf = gen_sos(2, 3, random.Random(0))
    ring = sf.ring()

    def dependent_forms(ring, d, rng):
        forms = random_affine_forms(ring, d, rng)
        return forms if d != ring.nvars - 1 else [forms[0]] * d

    monkeypatch.setattr(cells, "random_affine_forms", dependent_forms)
    with pytest.raises(NonGenericSlice):
        equidim(sf.polynomials(ring), ring, DecompConfig(backend="witness"))


# -- is_proper ------------------------------------------------------------------------------------

def test_is_proper_examples_both_backends(R2, R4):
    rng = random.Random(8)
    x2, y2 = R2.gens()
    # full plane vs x: proper
    assert AffineCell.full_space(R2, "gb").is_proper(x2)
    assert AffineCell.full_space(R2, "witness", rng).is_proper(x2)
    # V(xy) vs x: improper (x vanishes on a component)
    x, y, z, w = R4.gens()
    assert not gb_cell(R4, [x * y]).is_proper(x)
    assert not wit_cell(R4, [x * y], [], 3, rng).is_proper(x)
    # V(x) vs x: f vanishes identically; improper for nonempty X
    assert not gb_cell(R4, [x]).is_proper(x)
    assert not wit_cell(R4, [x], [], 3, rng).is_proper(x)


def test_is_proper_agreement_random_quadrics(R3):
    rng = random.Random(77)
    x, y, z = R3.gens()
    agree = 0
    total = 0
    for trial in range(20):
        # cells are equidimensional: four lines, or two planes
        F = [x * y, z * (z - 1)] if trial % 2 else [x * y]
        d = 1 if trial % 2 else 2
        cg = gb_cell(R3, F)
        cw = wit_cell(R3, F, [], d, rng)
        for f in (x, y, z, x + z, y - 3):
            total += 1
            agree += cg.is_proper(f) == cw.is_proper(f)
    assert agree == total


def test_is_proper_gb_answers_by_dimension(R3):
    # V(xy, yz) is a plane and a line, so not a cell decomp makes; the
    # dimension test still gives the documented answer, X meet V(f)
    # empty or of dimension dim X - 1 = 1
    x, y, z = R3.gens()
    X = gb_cell(R3, [x * y, y * z])
    assert [X.is_proper(f) for f in (x, y, z, x + z, y - 3)] == [True, False, True, True, True]


def _saturation_proper(X, f):
    """The former gb criterion: sat(I(X), f) is contained in rad I(X)."""
    if f.is_zero():
        return X.is_empty()
    sat = saturate(X.F, f)
    return sat.is_zero_ideal or all(radical_member(h, X.F) for h in sat.gens)


def _dense_quadric(ring, rng):
    f = ring.zero()
    while f.total_degree() < 2:
        f = sum((ring.monomial(e, rng.randrange(ring.field.p))
                 for e in itertools.product(range(3), repeat=ring.nvars) if sum(e) <= 2),
                ring.zero())
    return f


def test_is_proper_gb_agrees_with_saturation_in_decompositions(monkeypatch):
    systems = []
    rng = random.Random(13)
    for p in (5, 7, 11):
        ring = PolyRing(PrimeField(p), ("x0", "x1", "x2"))
        for count in (1, 2, 2, 3) * 4:
            systems.append((ring, [_dense_quadric(ring, rng) for _ in range(count)]))
    for seed in range(3):
        for sf in (gen_ps(3, random.Random(seed)), gen_sos(2, 3, random.Random(seed))):
            systems.append((sf.ring(), sf.polynomials()))
    answers = []
    is_proper = AffineCell.is_proper

    def checked(X, f):
        got = is_proper(X, f)
        if X.backend == "gb":
            assert got == _saturation_proper(X, f), (X, f)
            answers.append(got)
        return got

    monkeypatch.setattr(AffineCell, "is_proper", checked)
    for ring, F in systems:
        equidim(F, ring, DecompConfig(backend="gb"))
    assert True in answers and False in answers


# -- dim_degree -------------------------------------------------------------------------------------

def test_dim_degree_examples(R3, R2):
    rng = random.Random(5)
    X = AffineCell.full_space(R3, "witness", rng)
    assert X.dim_degree() == (3, 1)
    x, y = R2.gens()
    # scheme-theoretic degree: the double line V(x^2) has degree 2
    Xg = gb_cell(R2, [x**2])
    assert Xg.dim_degree() == (1, 2)
    R3b = PolyRing(PrimeField(65521), ("x", "y", "z"))
    xb, yb, zb = R3b.gens()
    line = AffineCell(R3b, "gb", buchberger([yb, zb]), (xb,))
    assert line.dim_degree() == (1, 1)


def test_dim_degree_empty_rejected(R2):
    X = gb_cell(R2, [R2.one()])
    with pytest.raises(ContractViolation):
        X.dim_degree()


# -- set semantics on tiny fields ----------------------------------------------------------------------

def test_point_semantics_small_field():
    from equidim import cell_points, enumerate_points
    ring = PolyRing(PrimeField(5), ("x", "y"))
    x, y = ring.gens()
    X = AffineCell(ring, "gb", buchberger([x * y]), ())
    sub = X.subtract(x)
    pts_direct = enumerate_points(ring, [x * y], [x])
    assert cell_points(sub) == pts_direct
    # closure of the subtraction: x-axis only
    closure = enumerate_points(ring, list(sub.basis().gens))
    assert closure == enumerate_points(ring, [y])


def test_ideal_growth_under_subtract(R2):
    x, y = R2.gens()
    X = gb_cell(R2, [x * y])
    Y = X.subtract(x)
    for f in X.basis():
        assert ideal_member(f, Y.basis())


def test_witness_leaf_basis_matches_gb_after_a_chain(R3):
    # the same chain of operations on both backends; only the leaf's
    # basis is ever requested
    x, y, z = R3.gens()
    F, G = [x * y * (z - 1)], []
    leaves = []
    for X in (gb_cell(R3, F, G), wit_cell(R3, F, G, 2, random.Random(41))):
        X = X.intersect_components([x * (z - 1)])  # the planes x = 0 and z = 1
        X = X.subtract(x)
        X = X.subtract(R3.const(3))
        X = X.intersect_proper(x * (y - 1), random.Random(43))
        leaves.append(X)
    gb_leaf, wit_leaf = leaves
    assert wit_leaf.backend == "witness" and wit_leaf.d == 1
    assert wit_leaf.G == gb_leaf.G == (x, R3.const(3))
    assert wit_leaf.basis() == gb_leaf.basis()
    assert wit_leaf.basis() == groebner_of(R3, [y - 1, z - 1])
