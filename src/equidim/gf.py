"""The prime field GF(p) for a runtime-chosen odd word-size prime.

Field elements are raw residues, plain ints in [0, p); the immutable
``PrimeField`` context carries the modulus and the one inverse,
``PrimeField.inv``.  The default characteristic is 65521, the largest
prime below 2^16.
"""

from __future__ import annotations

DEFAULT_CHAR = 65521

MAX_CHAR = 2**31  # products of two residues must fit in 64-bit intermediates


class ContractViolation(Exception):
    """An operation was called outside its stated precondition."""


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3_215_031_751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field GF(p), p an odd prime below 2^31."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_CHAR):
        if not isinstance(p, int) or p < 3 or p >= MAX_CHAR:
            raise ContractViolation(f"characteristic must be an odd prime in [3, 2^31): {p}")
        if not _is_prime(p):
            raise ContractViolation(f"characteristic must be prime: {p}")
        self.p = p

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def inv(self, value: int) -> int:
        """Inverse of a raw residue."""
        value %= self.p
        if value == 0:
            raise ZeroDivisionError("0 has no inverse in GF(p)")
        return pow(value, -1, self.p)

