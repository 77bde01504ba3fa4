import random

import pytest

from equidim import ContractViolation, PrimeField


def test_default_char_is_65521():
    assert PrimeField().p == 65521


def test_rejects_non_prime_and_even():
    for bad in (0, 1, 2, 4, 9, 65520, 2**31):
        with pytest.raises(ContractViolation):
            PrimeField(bad)


def test_inv_examples():
    F = PrimeField(5)
    assert F.inv(1) == 1
    assert F.inv(2) == 3
    assert F.inv(-3) == 3  # a residue is read mod p first
    G = PrimeField(65521)
    assert G.inv(65520) == 65520


def test_inv_of_zero_raises():
    F = PrimeField(5)
    for zero in (0, 5, -10):
        with pytest.raises(ZeroDivisionError):
            F.inv(zero)


def test_field_properties_random():
    # the inverse against its definition, at the largest characteristic too
    rng = random.Random(7)
    for p in (65521, 2**31 - 1):
        F = PrimeField(p)
        for _ in range(200):
            a = rng.randrange(1, p)
            b = F.inv(a)
            assert 0 < b < p and a * b % p == 1
            assert F.inv(b) == a
