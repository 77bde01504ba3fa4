import random
from pathlib import Path

import pytest

from equidim import (
    AffineCell,
    ContractViolation,
    CostGuardExceeded,
    DecompConfig,
    PolyRing,
    PrimeField,
    buchberger,
    check_partition,
    check_top_dimension,
    enumerate_points,
    equidim,
    groebner_of,
    monomial_facets_oracle,
    parse_system,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture
def R2():
    return PolyRing(PrimeField(3), ("x", "y"))


@pytest.fixture
def R4big():
    return PolyRing(PrimeField(65521), ("x", "y", "z", "w"))


# -- enumerate_points -----------------------------------------------------------

def test_enumerate_examples():
    R1 = PolyRing(PrimeField(3), ("x",))
    x = R1.var(0)
    assert sorted(enumerate_points(R1, [x])) == [(0,)]
    assert sorted(enumerate_points(R1, [], [x])) == [(1,), (2,)]
    R2 = PolyRing(PrimeField(3), ("x", "y"))
    a, b = R2.gens()
    assert len(enumerate_points(R2, [a * b])) == 5


def test_enumerate_cost_guard():
    R = PolyRing(PrimeField(13), ("x", "y"))
    with pytest.raises(CostGuardExceeded):
        enumerate_points(R, [])
    R5 = PolyRing(PrimeField(5), tuple("abcde"))
    with pytest.raises(CostGuardExceeded):
        enumerate_points(R5, [])


def test_enumerate_respects_set_algebra(R2):
    x, y = R2.gens()
    lhs = enumerate_points(R2, [x * y, x + y])
    rhs = enumerate_points(R2, [x * y]) & enumerate_points(R2, [x + y])
    assert lhs == rhs


# -- monomial facets oracle --------------------------------------------------------

def test_facets_examples(R4big):
    x, y, z, w = R4big.gens()
    R2b = PolyRing(PrimeField(65521), ("x", "y"))
    a, b = R2b.gens()
    out = monomial_facets_oracle(R2b, [a * b])
    assert out.by_dimension == {1: frozenset({frozenset({0}), frozenset({1})})}

    out = monomial_facets_oracle(R4big, [x * y, z * w, x * z])
    assert out.by_dimension == {
        2: frozenset({frozenset({0, 2}), frozenset({0, 3}), frozenset({1, 2})})
    }

    R3b = PolyRing(PrimeField(65521), ("x", "y", "z"))
    xb = R3b.var(0)
    out = monomial_facets_oracle(R3b, [xb])
    assert out.by_dimension == {2: frozenset({frozenset({0})})}


def test_facets_rejects_non_monomial(R4big):
    x, y, _, _ = R4big.gens()
    with pytest.raises(ContractViolation):
        monomial_facets_oracle(R4big, [x + y])
    with pytest.raises(ContractViolation):
        monomial_facets_oracle(R4big, [x**2])


def test_facets_zero_ideal_full_space(R4big):
    out = monomial_facets_oracle(R4big, [])
    assert out.by_dimension == {4: frozenset({frozenset()})}


def test_facets_unit_ideal_empty(R4big):
    out = monomial_facets_oracle(R4big, [R4big.one()])
    assert out.by_dimension == {}


# -- check_partition -------------------------------------------------------------------

def test_check_partition_example_system(R4big):
    x, y, z, w = R4big.gens()
    F = [x * y, z * w, x * z]
    out = equidim(F, R4big, DecompConfig(backend="gb", seed=1))
    rep = check_partition(out.cells, F, R4big)
    assert rep.passed
    assert not rep.points_checked  # big field: guard skips enumeration


def test_check_partition_small_field_points():
    ring = PolyRing(PrimeField(5), ("x", "y", "z"))
    x, y, z = ring.gens()
    F = [x * y]
    out = equidim(F, ring, DecompConfig(backend="gb", seed=1))
    rep = check_partition(out.cells, F, ring)
    assert rep.points_checked and rep.passed


def test_check_partition_detects_duplicates(R4big):
    x = R4big.var(0)
    cell = AffineCell(R4big, "gb", buchberger([x]), ())
    rep = check_partition([cell, cell], [x], R4big)
    assert not rep.disjoint
    assert rep.disjoint_failures == [(0, 1)]
    assert not rep.passed


def test_check_partition_detects_bad_membership(R4big):
    x, y, _, _ = R4big.gens()
    cell = AffineCell(R4big, "gb", buchberger([x]), ())
    rep = check_partition([cell], [y], R4big)
    assert not rep.membership


def test_check_partition_full_space_trivial(R4big):
    cell = AffineCell.full_space(R4big, "gb")
    rep = check_partition([cell], [], R4big)
    assert rep.passed


# -- check_top_dimension ------------------------------------------------------------------

def test_top_dimension_full_plane():
    ring = PolyRing(PrimeField(65521), ("x", "y"))
    X = AffineCell.full_space(ring, "gb")
    rep = check_top_dimension(X, 2, random.Random(3))
    assert rep.passed


def test_top_dimension_wrong_claim():
    ring = PolyRing(PrimeField(65521), ("x", "y", "z"))
    x, y, z = ring.gens()
    X = AffineCell(ring, "gb", buchberger([x * y]), ())
    assert not check_top_dimension(X, 0, random.Random(3)).passed
    assert check_top_dimension(X, 2, random.Random(3)).passed


def test_top_dimension_line_off_hyperplane():
    ring = PolyRing(PrimeField(65521), ("x", "y", "z"))
    x, y, z = ring.gens()
    X = AffineCell(ring, "gb", buchberger([y, z]), (x,))
    rep = check_top_dimension(X, 1, random.Random(17))
    assert rep.passed


def test_top_dimension_is_exact_at_small_p():
    # one random form often meets a rational point over GF(7); the exact
    # dimension of the (0, 8) cell decides instead
    system = parse_system((DATA / "tiny_gf7.txt").read_text())
    ring = system.ring()
    out = equidim(system.polynomials(ring), ring, DecompConfig(backend="gb"))
    assert out.annotations == ((0, 8),)
    (X,) = out.cells
    for seed in range(20):
        assert check_top_dimension(X, 0, random.Random(seed)).passed
    assert not check_top_dimension(X, 1, random.Random(0)).passed
    empty = AffineCell(ring, "gb", groebner_of(ring, [ring.one()]), ())
    assert not check_top_dimension(empty, 0, random.Random(0)).passed
