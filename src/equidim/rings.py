"""Sparse multivariate polynomials over GF(p) with packed-integer monomials.

Monomials are stored as two plain integers:

* ``evec`` packs the raw exponent vector, one fixed-width field per
  variable (variable 0 in the lowest bits).  Products are integer
  additions; divisibility is a subtraction plus a guard-bit mask test.
* ``key`` packs the comparison key of the ambient monomial order so that
  ``key(a) < key(b)`` iff ``a < b``.  Keys are additive as well: the key
  of a product is the sum of keys.

For grevlex the key fields are the front partial sums of the exponent
vector (total degree first); for a block elimination order the fields
are the partial sums of the leading block followed by those of the
remaining block.  Both layouts make comparison a single int comparison.

Exponents are capped (default 255 per monomial degree); overflow is a
hard error rather than silent wraparound.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .gf import ContractViolation, PrimeField


class DegreeOverflow(ContractViolation):
    """A monomial product exceeded the ring's degree cap."""


class MonomialOrder:
    """Total multiplicative well-order on monomials.

    ``grevlex()`` is the graded reverse lexicographic order.
    ``elim_block(k, block=None)`` compares first on the leading block
    (grevlex restricted to it), breaking ties by grevlex on the rest;
    the block defaults to the first ``k`` variables but may be any set
    of ``k`` variable slots.
    """

    __slots__ = ("kind", "block_size", "block")

    def __init__(self, kind: str, block_size: int = 0, block: tuple[int, ...] | None = None):
        self.kind = kind
        self.block_size = block_size
        self.block = block

    @staticmethod
    def grevlex() -> "MonomialOrder":
        return MonomialOrder("grevlex")

    @staticmethod
    def elim_block(k: int, block: Sequence[int] | None = None) -> "MonomialOrder":
        if k < 1:
            raise ContractViolation("elimination block must have at least one variable")
        blk = tuple(block) if block is not None else tuple(range(k))
        if len(blk) != k:
            raise ContractViolation("block size mismatch")
        return MonomialOrder("elim", k, blk)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.block_size == other.block_size
            and self.block == other.block
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.block_size, self.block))

    def __repr__(self) -> str:
        if self.kind == "grevlex":
            return "grevlex"
        return f"elim_block({self.block_size}, block={self.block})"


DEFAULT_DEGREE_CAP = 255


class PolyRing:
    """GF(p)[x_1, ..., x_n] with a fixed monomial order and degree cap."""

    __slots__ = (
        "field", "names", "order", "nvars", "cap", "width",
        "_evec_guard", "_key_groups", "_key_parts",
    )

    def __init__(
        self,
        field: PrimeField,
        names: Sequence[str],
        order: MonomialOrder | None = None,
        cap: int = DEFAULT_DEGREE_CAP,
    ):
        names = tuple(names)
        if len(names) != len(set(names)):
            raise ContractViolation("variable names must be distinct")
        if not names:
            raise ContractViolation("need at least one variable")
        self.field = field
        self.names = names
        self.order = order if order is not None else MonomialOrder.grevlex()
        self.nvars = len(names)
        self.cap = cap
        width = cap.bit_length() + 1  # one guard bit per field
        self.width = width
        n = self.nvars
        self._evec_guard = sum(1 << (i * width + width - 1) for i in range(n))
        # key field groups: a list of variable-index sequences; the key is the
        # concatenation of front partial sums within each group, most
        # significant group first.
        if self.order.kind == "grevlex":
            groups = [tuple(range(n))]
        elif self.order.kind == "elim":
            blk = self.order.block
            if any(i < 0 or i >= n for i in blk):
                raise ContractViolation("elimination block out of range")
            rest = tuple(i for i in range(n) if i not in blk)
            if not rest:
                raise ContractViolation("elimination block must be proper")
            groups = [blk, rest]
        else:
            raise ContractViolation(f"unknown order kind {self.order.kind!r}")
        self._key_groups = groups
        # per group: (slots to gather or None, input shift, field mask,
        # prefix-sum multiplier, output shift); see key_of_evec
        parts = []
        out_shift = n * width
        for group in groups:
            m = len(group)
            out_shift -= m * width
            contiguous = group == tuple(range(group[0], group[0] + m))
            parts.append((
                None if contiguous else tuple(i * width for i in group),
                group[0] * width,
                (1 << (m * width)) - 1,
                sum(1 << (j * width) for j in range(m)),
                out_shift,
            ))
        self._key_parts = tuple(parts)

    # -- packing ---------------------------------------------------------

    def pack_evec(self, exps: Sequence[int]) -> int:
        if len(exps) != self.nvars:
            raise ContractViolation("exponent vector length mismatch")
        ev = 0
        w = self.width
        for i, e in enumerate(exps):
            if e < 0 or e > self.cap:
                raise DegreeOverflow(f"exponent {e} outside [0, {self.cap}]")
            ev |= e << (i * w)
        if sum(exps) > self.cap:
            raise DegreeOverflow(f"total degree {sum(exps)} exceeds cap {self.cap}")
        return ev

    def unpack_evec(self, evec: int) -> tuple[int, ...]:
        w = self.width
        mask = (1 << w) - 1
        return tuple((evec >> (i * w)) & mask for i in range(self.nvars))

    def key_of_evec(self, evec: int) -> int:
        """Order key of a packed monomial: one int, compared as an int.

        Each key group (all variables for grevlex; the block, then the
        rest, for an elimination order) contributes the front partial
        sums s_j = e_0 + ... + e_j of its exponents, in its slot order,
        one ``width``-bit field each, with the full sum s_(m-1) in the
        most significant field; earlier groups sit above later ones.

        With the group's exponents packed as X = sum_j e_j 2^(j*w),
        the product X * (1 + 2^w + ... + 2^((m-1)w)) holds in field j
        the sum of the e_l with l <= j, so masking it to m fields gives
        the prefix sums in one multiply.  The multiply is exact: a
        field of the product holds a sum of exponents of one monomial,
        at most its total degree, which stays below the guard bit, so
        no field carries into the next.  A group whose slots are not
        consecutive and ascending is first gathered into X field by
        field.
        """
        key = 0
        w = self.width
        for slots, shift, mask, mult, out_shift in self._key_parts:
            if slots is None:
                x = (evec >> shift) & mask
            else:
                x = 0
                f = (1 << w) - 1
                for j, s in enumerate(slots):
                    x |= ((evec >> s) & f) << (j * w)
            key |= ((x * mult) & mask) << out_shift
        return key

    def degree_of_key(self, key: int) -> int:
        """Total degree is the sum of the top field of every group."""
        w = self.width
        mask = (1 << w) - 1
        deg = 0
        shift = self.nvars * self.width
        for group in self._key_groups:
            shift -= w  # top field of this group
            deg += (key >> shift) & mask
            shift -= w * (len(group) - 1)
        return deg

    def divides(self, evec_a: int, evec_b: int) -> bool:
        """True when monomial a divides monomial b."""
        d = evec_b - evec_a
        return d >= 0 and not (d & self._evec_guard)

    def lcm_evec(self, ea: int, eb: int) -> int:
        """Fieldwise maximum of two packed monomials, without unpacking.

        Setting every guard bit of a and subtracting b leaves a field's
        guard bit set exactly where a_i >= b_i, and no field borrows from
        the next; that bit is spread into a mask of the field's low bits.
        """
        g = self._evec_guard
        w1 = self.width - 1
        ge = (((ea | g) - eb) & g) >> w1
        m = (ge << w1) - ge
        return (ea & m) | (eb & ~m)

    # -- construction ----------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: int) -> "Polynomial":
        c %= self.field.p
        if c == 0:
            return Polynomial(self, ())
        return Polynomial(self, ((0, 0, c),))

    def var(self, i: int) -> "Polynomial":
        ev = self.pack_evec(tuple(1 if j == i else 0 for j in range(self.nvars)))
        return Polynomial(self, ((self.key_of_evec(ev), ev, 1),))

    def gens(self) -> list["Polynomial"]:
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, exps: Sequence[int], coeff: int = 1) -> "Polynomial":
        c = coeff % self.field.p
        if c == 0:
            return self.zero()
        ev = self.pack_evec(exps)
        return Polynomial(self, ((self.key_of_evec(ev), ev, c),))

    def from_terms(self, terms: Iterable[tuple[int, int]]) -> "Polynomial":
        """Build from (evec, coeff) pairs, merging and sorting."""
        acc: dict[int, int] = {}
        p = self.field.p
        for ev, c in terms:
            acc[ev] = (acc.get(ev, 0) + c) % p
        return self._from_dict(acc)

    def _from_dict(self, acc: dict[int, int]) -> "Polynomial":
        items = [(self.key_of_evec(ev), ev, c) for ev, c in acc.items() if c]
        items.sort(reverse=True)
        return Polynomial(self, tuple(items))

    def _from_keyed(self, acc: dict[int, tuple[int, int]]) -> "Polynomial":
        """Build from evec -> (key, coeff) with keys already computed."""
        items = [(k, ev, c) for ev, (k, c) in acc.items() if c]
        items.sort(reverse=True)
        return Polynomial(self, tuple(items))

    def linear_form(self, coeffs: Sequence[int], const: int = 0) -> "Polynomial":
        """c_1*x_1 + ... + c_n*x_n + const."""
        if len(coeffs) != self.nvars:
            raise ContractViolation("coefficient count mismatch")
        terms = []
        for i, c in enumerate(coeffs):
            if c % self.field.p:
                terms.append((self.pack_evec(tuple(1 if j == i else 0 for j in range(self.nvars))), c))
        if const % self.field.p:
            terms.append((0, const))
        return self.from_terms(terms)

    # -- ring derivations --------------------------------------------------

    def with_order(self, order: MonomialOrder) -> "PolyRing":
        return PolyRing(self.field, self.names, order, self.cap)

    def extend_elim(self, tname: str = "@t") -> "PolyRing":
        """Append an auxiliary variable as the last slot, ranked first.

        The returned ring carries the block elimination order whose
        leading block is the new variable, with ties broken by grevlex
        on the original variables; user variables keep their slots.
        Only a grevlex ring may be extended: then the order restricted
        to monomials free of the new variable is this ring's own order,
        and such a monomial has the same packed exponents and key in
        both rings.
        """
        if self.order.kind != "grevlex":
            raise ContractViolation("elimination extension needs a grevlex ring")
        name = tname
        while name in self.names:
            name += "_"
        order = MonomialOrder.elim_block(1, block=(self.nvars,))
        return PolyRing(self.field, self.names + (name,), order, self.cap)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
            and self.order == other.order
            and self.cap == other.cap
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.names, self.order, self.cap))

    def __repr__(self) -> str:
        return f"{self.field}[{', '.join(self.names)}; {self.order}]"


def mono_cmp(ring: PolyRing, exps_a: Sequence[int], exps_b: Sequence[int],
             order: MonomialOrder | None = None) -> int:
    """Compare two exponent vectors; returns negative/zero/positive."""
    if len(exps_a) != len(exps_b) or len(exps_a) != ring.nvars:
        raise ContractViolation("exponent vector length mismatch")
    r = ring if order is None or order == ring.order else ring.with_order(order)
    ka = r.key_of_evec(r.pack_evec(exps_a))
    kb = r.key_of_evec(r.pack_evec(exps_b))
    return (ka > kb) - (ka < kb)


class Polynomial:
    """Immutable sparse polynomial; terms sorted strictly descending."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: tuple[tuple[int, int, int], ...]):
        self.ring = ring
        self.terms = terms  # ((key, evec, coeff), ...) descending by key

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][1] == 0)

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms[0][1] == 0 and self.terms[0][2] == 1

    def __len__(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        r = self.ring
        if r.order.kind == "grevlex":
            return r.degree_of_key(self.terms[0][0])
        return max(r.degree_of_key(k) for k, _, _ in self.terms)

    def lead_term(self) -> tuple[int, int, int]:
        if not self.terms:
            raise ContractViolation("zero polynomial has no leading term")
        return self.terms[0]

    def lead_exponents(self) -> tuple[int, ...]:
        return self.ring.unpack_evec(self.lead_term()[1])

    def lead_coeff(self) -> int:
        return self.lead_term()[2]

    def coeff_of(self, exps: Sequence[int]) -> int:
        ev = self.ring.pack_evec(exps)
        for _, e, c in self.terms:
            if e == ev:
                return c
        return 0

    def monomials(self) -> list[tuple[int, ...]]:
        return [self.ring.unpack_evec(ev) for _, ev, _ in self.terms]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise ContractViolation("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        p = self.ring.field.p
        # order keys are per monomial, so both operands' keys carry over
        acc = {ev: (k, c) for k, ev, c in self.terms}
        for k, ev, c in other.terms:
            old = acc.get(ev)
            v = (c if old is None else old[1] + c) % p
            if v:
                acc[ev] = (k, v)
            elif old is not None:
                del acc[ev]
        return self.ring._from_keyed(acc)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.field.p
        return Polynomial(self.ring, tuple((k, ev, (-c) % p) for k, ev, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.field.p
            if c == 0:
                return self.ring.zero()
            p = self.ring.field.p
            return Polynomial(self.ring, tuple((k, ev, cc * c % p) for k, ev, cc in self.terms))
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        ring = self.ring
        p = ring.field.p
        if not self.terms or not other.terms:
            return ring.zero()
        # degree-cap check on the product of the leading terms is enough
        # for grevlex; for block orders check the max degree pair.
        maxdeg = self.total_degree() + other.total_degree()
        if maxdeg > ring.cap:
            raise DegreeOverflow(f"product degree {maxdeg} exceeds cap {ring.cap}")
        acc: dict[int, int] = {}
        keys: dict[int, int] = {}
        for ka, ea, ca in self.terms:
            for kb, eb, cb in other.terms:
                ev = ea + eb
                v = acc.get(ev)
                if v is None:
                    acc[ev] = ca * cb % p
                    keys[ev] = ka + kb
                else:
                    acc[ev] = (v + ca * cb) % p
        items = [(keys[ev], ev, c) for ev, c in acc.items() if c]
        items.sort(reverse=True)
        return Polynomial(ring, tuple(items))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ContractViolation("negative power of a polynomial")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base_needed = e > 1
            e >>= 1
            if base_needed and e:
                base = base * base
        return result

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        c = self.terms[0][2]
        if c == 1:
            return self
        inv = self.ring.field.inv(c)
        p = self.ring.field.p
        return Polynomial(self.ring, tuple((k, ev, cc * inv % p) for k, ev, cc in self.terms))

    # -- structural --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self == self.ring.const(other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring.field.p, self.ring.names, self.terms))

    # -- calculus / maps ----------------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative; exponent-times-coefficient rule mod p."""
        ring = self.ring
        p = ring.field.p
        w = ring.width
        mask = (1 << w) - 1
        out: dict[int, int] = {}
        for _, ev, c in self.terms:
            e = (ev >> (i * w)) & mask
            if e == 0:
                continue
            nc = c * (e % p) % p
            if nc == 0:
                continue
            nev = ev - (1 << (i * w))
            out[nev] = (out.get(nev, 0) + nc) % p
        return ring._from_dict(out)

    def evaluate(self, point: Sequence[int]) -> int:
        """Value at a rational point, as a raw residue."""
        ring = self.ring
        p = ring.field.p
        if len(point) != ring.nvars:
            raise ContractViolation("point length mismatch")
        total = 0
        w = ring.width
        mask = (1 << w) - 1
        for _, ev, c in self.terms:
            v = c
            e = ev
            for i in range(ring.nvars):
                ei = e & mask
                if ei:
                    v = v * pow(point[i] % p, ei, p) % p
                e >>= w
                if not e:
                    break
            total = (total + v) % p
        return total

    def subst(self, assignments: dict[int, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials for the given variable slots."""
        ring = self.ring
        if not assignments:
            return self
        out = ring.zero()
        w = ring.width
        mask = (1 << w) - 1
        pw_cache: dict[tuple[int, int], Polynomial] = {}
        for _, ev, c in self.terms:
            rest = []
            factor = None
            for i in range(ring.nvars):
                e = (ev >> (i * w)) & mask
                if i in assignments:
                    rest.append(0)
                    if e:
                        key = (i, e)
                        pw = pw_cache.get(key)
                        if pw is None:
                            pw = assignments[i] ** e
                            pw_cache[key] = pw
                        factor = pw if factor is None else factor * pw
                else:
                    rest.append(e)
            term = ring.monomial(rest, c)
            out = out + (term if factor is None else term * factor)
        return out

    # -- printing ------------------------------------------------------------

    def __repr__(self) -> str:
        return poly_to_string(self)

    __str__ = __repr__


def poly_to_string(f: Polynomial) -> str:
    """Canonical text form: terms in descending order, '+'-separated."""
    if not f.terms:
        return "0"
    ring = f.ring
    parts = []
    for _, ev, c in f.terms:
        exps = ring.unpack_evec(ev)
        factors = []
        for name, e in zip(ring.names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts)


class ParseError(ValueError):
    """Syntax or validation error in polynomial/system text."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.line = line
        self.col = col


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*^()]))")


def parse_polynomial(ring: PolyRing, text: str, line: int = 0) -> Polynomial:
    """Parse ``+ - * ^`` expressions over the ring's variables.

    Integer literals are reduced mod p; implicit multiplication is
    rejected; parentheses are allowed for grouping.
    """
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", line, pos + 1)
            break
        pos = m.end()
        if m.group(1):
            tokens.append(("int", m.group(1), m.start(1) + 1))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2) + 1))
        else:
            op = "^" if m.group(3) == "**" else m.group(3)
            tokens.append(("op", op, m.start(3) + 1))
    tokens.append(("end", "", len(text) + 1))
    idx = [0]
    p = ring.field.p
    w = ring.width
    cap = ring.cap
    slot = {name: i for i, name in enumerate(ring.names)}

    # A product of atoms stays one term (coeff, evec, degree), with the
    # coefficient reduced mod p, and sums gather terms in one dict.  A
    # parenthesised sum is a Polynomial, and so is every product it
    # enters; a term whose degree would pass the cap is turned into a
    # Polynomial too, so that the operation raises as it always has.

    def as_poly(f) -> Polynomial:
        if isinstance(f, Polynomial):
            return f
        c, ev, _ = f
        if not c:
            return ring.zero()
        return Polynomial(ring, ((ring.key_of_evec(ev), ev, c),))

    def peek():
        return tokens[idx[0]]

    def advance():
        t = tokens[idx[0]]
        idx[0] += 1
        return t

    def parse_atom():
        kind, val, col = peek()
        if kind == "int":
            advance()
            return (int(val) % p, 0, 0)
        if kind == "name":
            advance()
            i = slot.get(val)
            if i is None:
                raise ParseError(f"unknown identifier {val!r}", line, col)
            return (1, 1 << (i * w), 1)
        if kind == "op" and val == "(":
            advance()
            e = parse_expr()
            k2, v2, c2 = peek()
            if k2 != "op" or v2 != ")":
                raise ParseError("expected ')'", line, c2)
            advance()
            return e
        raise ParseError(f"expected a term, found {val or 'end of input'!r}", line, col)

    def parse_power():
        base = parse_atom()
        kind, val, col = peek()
        if kind == "op" and val == "^":
            advance()
            k2, v2, c2 = peek()
            if k2 != "int":
                raise ParseError("exponent must be an integer literal", line, c2)
            advance()
            e = int(v2)
            if not isinstance(base, Polynomial):
                c, ev, deg = base
                if e == 0:
                    return (1, 0, 0)
                if not c:
                    return base
                if deg * e <= cap:
                    return (pow(c, e, p), ev * e, deg * e)
            return as_poly(base) ** e
        return base

    def parse_factor():
        f = parse_power()
        while True:
            kind, val, col = peek()
            if kind == "op" and val == "*":
                advance()
                g = parse_power()
                if isinstance(f, Polynomial) or isinstance(g, Polynomial):
                    f = as_poly(f) * as_poly(g)
                    continue
                c = f[0] * g[0] % p
                if not c:
                    f = (0, 0, 0)
                elif f[2] + g[2] <= cap:
                    f = (c, f[1] + g[1], f[2] + g[2])
                else:
                    f = as_poly(f) * as_poly(g)
            elif kind in ("int", "name") or (kind == "op" and val == "("):
                raise ParseError("implicit multiplication is not accepted", line, col)
            else:
                return f

    def parse_expr() -> Polynomial:
        acc: dict[int, int] = {}

        def add(f, sign: int) -> None:
            if isinstance(f, Polynomial):
                for _, ev, c in f.terms:
                    acc[ev] = acc.get(ev, 0) + sign * c
            else:
                acc[f[1]] = acc.get(f[1], 0) + sign * f[0]

        sign = 1
        kind, val, _ = peek()
        while True:
            if kind == "op" and val in "+-":
                advance()
                sign = 1 if val == "+" else -1
            add(parse_factor(), sign)
            kind, val, _ = peek()
            if kind != "op" or val not in "+-":
                return ring._from_dict({ev: c % p for ev, c in acc.items()})

    result = parse_expr()
    kind, val, col = peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", line, col)
    return result


def random_affine_forms(ring: PolyRing, count: int, rng) -> list[Polynomial]:
    """``count`` affine forms with uniform coefficients, constant included.

    Each form is genuinely of total degree 1: an all-zero linear part is
    redrawn, so the forms always cut generic affine hyperplanes.
    """
    if count < 0:
        raise ContractViolation("count must be nonnegative")
    p = ring.field.p
    out = []
    for _ in range(count):
        while True:
            coeffs = [rng.randrange(p) for _ in range(ring.nvars)]
            if any(coeffs):
                break
        out.append(ring.linear_form(coeffs, rng.randrange(p)))
    return out
