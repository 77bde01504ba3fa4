"""Arithmetic in the prime field GF(p) for a runtime-chosen odd word-size prime.

The modulus is carried by a shared, immutable ``PrimeField`` context.  All
elements created from the same context can be combined freely; mixing
contexts is a contract violation.  The default characteristic is 65521,
the largest prime below 2^16.
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


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b == g == gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    return old_r, old_u, old_v


class PrimeField:
    """The field GF(p), p an odd prime below 2^31."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_CHAR):
        if not isinstance(p, int) or p < 3 or p >= MAX_CHAR:
            raise ContractViolation(f"characteristic must be an odd prime in [3, 2^31): {p}")
        if not _is_prime(p):
            raise ContractViolation(f"characteristic must be prime: {p}")
        self.p = p

    def __call__(self, value: int) -> "FieldElement":
        return FieldElement(value % self.p, self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    def inv(self, value: int) -> int:
        """Inverse of a raw residue, by extended Euclid."""
        value %= self.p
        if value == 0:
            raise ZeroDivisionError("0 has no inverse in GF(p)")
        g, u, _ = xgcd(value, self.p)
        assert g == 1
        return u % self.p


class FieldElement:
    """A residue in [0, p), tied to its ``PrimeField`` context."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        self.value = value % field.p
        self.field = field

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ContractViolation("mixed field contexts")
            return other
        if isinstance(other, int):
            return FieldElement(other % self.field.p, self.field)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement((self.value + other.value) % self.field.p, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement((self.value - other.value) % self.field.p, self.field)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.value * other.value % self.field.p, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value % self.field.p, self.field)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        return FieldElement(pow(self.value, e, self.field.p), self.field)

    def inv(self) -> "FieldElement":
        return FieldElement(self.field.inv(self.value), self.field)

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.field.p))

    def __repr__(self) -> str:
        return f"{self.value}"
