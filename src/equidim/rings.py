"""Sparse multivariate polynomials over GF(p) with packed-integer monomials.

Monomials are stored as two plain integers:

* ``evec`` packs the raw exponent vector, one fixed-width field per
  variable (variable 0 in the lowest bits).  Products are integer
  additions; divisibility is a subtraction plus a guard-bit mask test.
* ``key`` packs the comparison key of the ambient monomial order so that
  ``key(a) < key(b)`` iff ``a < b``.  Keys are additive as well: the key
  of a product is the sum of keys.

For grevlex the key fields are the front partial sums of the exponent
vector, total degree in the top field.  The one elimination order,
which ``PolyRing.extend_elim`` builds, ranks the last variable first
and breaks ties by grevlex on the others: its key is the grevlex key of
the other variables with the last variable's exponent in the top field.
Both layouts make comparison a single int comparison.

Exponents are capped (default 255 per monomial degree); overflow is a
hard error rather than silent wraparound.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .gf import ContractViolation, PrimeField


class _Located:
    """An error that may name the 1-based line and column of its text."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.line = line
        self.col = col


class DegreeOverflow(_Located, ContractViolation):
    """A monomial product exceeded the ring's degree cap.

    Raised while reading text, it names the line and column of the
    operator that passes the cap (see ``parse_polynomial``).
    """


class MonomialOrder:
    """Total multiplicative well-order on monomials.

    ``grevlex()`` is the graded reverse lexicographic order.
    ``elim_block()`` ranks the last variable first and breaks ties by
    grevlex on the other variables; ``PolyRing.extend_elim`` builds it.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in ("grevlex", "elim"):
            raise ContractViolation(f"unknown order kind {kind!r}")
        self.kind = kind

    @staticmethod
    def grevlex() -> "MonomialOrder":
        return MonomialOrder("grevlex")

    @staticmethod
    def elim_block() -> "MonomialOrder":
        return MonomialOrder("elim")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MonomialOrder) and self.kind == other.kind

    def __hash__(self) -> int:
        return hash(self.kind)

    def __repr__(self) -> str:
        return "grevlex" if self.kind == "grevlex" else "elim_block()"


DEFAULT_DEGREE_CAP = 255


class PolyRing:
    """GF(p)[x_1, ..., x_n] with a fixed monomial order and degree cap."""

    __slots__ = (
        "field", "names", "order", "nvars", "cap", "width",
        "_evec_guard", "_key_mult", "_key_mask",
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
        self._key_mult = sum(1 << (i * width) for i in range(n))
        # the key fields kept from the prefix-sum product: all of them
        # for grevlex, all but the top one under elim; see key_of_evec
        kept = n if self.order.kind == "grevlex" else n - 1
        if kept < 1:
            raise ContractViolation("elimination order needs a variable besides the last")
        self._key_mask = (1 << (kept * width)) - 1

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

        Under grevlex, field j holds the front partial sum
        s_j = e_0 + ... + e_j, so the top field is the total degree.
        Multiplying the evec by 1 + 2^w + ... + 2^((n-1)w) puts s_j in
        field j, and masking to n fields gives the key in one multiply.
        The multiply is exact: a field of the product holds a sum of
        exponents of one monomial, at most its total degree, which stays
        below the guard bit, so no field carries into the next.

        Under elim the top field holds the last variable's exponent
        instead of s_(n-1); that exponent already sits in the evec's top
        field, so it is kept from the evec and the rest from the product.
        """
        mask = self._key_mask
        return ((evec * self._key_mult) & mask) | (evec & ~mask)

    def degree_of_key(self, key: int) -> int:
        """Total degree: the top field, plus the next one under elim."""
        w = self.width
        f = (1 << w) - 1
        shift = (self.nvars - 1) * w
        deg = (key >> shift) & f
        if self.order.kind == "elim":
            deg += (key >> (shift - w)) & f
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

    def extend_elim(self, tname: str = "@t") -> "PolyRing":
        """Append an auxiliary variable as the last slot, ranked first.

        The returned ring carries the elimination order: the new
        variable ranks first, with ties broken by grevlex on the
        original variables; user variables keep their slots.
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
        return PolyRing(self.field, self.names + (name,), MonomialOrder.elim_block(), self.cap)

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


def mono_cmp(ring: PolyRing, exps_a: Sequence[int], exps_b: Sequence[int]) -> int:
    """Compare two exponent vectors in the ring's order; returns negative/zero/positive."""
    if len(exps_a) != len(exps_b) or len(exps_a) != ring.nvars:
        raise ContractViolation("exponent vector length mismatch")
    ka = ring.key_of_evec(ring.pack_evec(exps_a))
    kb = ring.key_of_evec(ring.pack_evec(exps_b))
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
        # the product's degree is the sum of the factors' degrees; under
        # grevlex that is the lead terms', under elim total_degree scans.
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


class ParseError(_Located, ValueError):
    """Syntax or validation error in polynomial/system text."""


# One token per match: an integer literal, a name, an operator, or any
# other non-blank character, which no grammar rule takes; findall skips
# only blanks, so every character of a line is read.
_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*^()]|\S")
# a character the tokenizer's last alternative takes
_STRAY = re.compile(r"[^\s\dA-Za-z_*^()+-]")
_OPERATORS = frozenset(("+", "-", "*", "**", "^", "(", ")"))


class _Unread(Exception):
    """The token index where reading stopped, and why."""

    error = ParseError


class _TooHigh(_Unread):
    """The token index of an operator whose result passes the cap, and why."""

    error = DegreeOverflow


def _shown(token: str) -> str:
    return "^" if token == "**" else token


def _degree(f) -> int:
    """Degree of a read term or Polynomial; 0 for zero, which no product raises."""
    if isinstance(f, Polynomial):
        return max(f.total_degree(), 0)
    return f[2]


def _as_poly(ring: PolyRing, f) -> Polynomial:
    if isinstance(f, Polynomial):
        return f
    c, ev, _ = f
    if not c:
        return ring.zero()
    return Polynomial(ring, ((ring.key_of_evec(ev), ev, c),))


def parse_polynomial(ring: PolyRing, text: str, line: int = 0, indent: int = 0) -> Polynomial:
    """Parse one polynomial over the ring's variables.

    Grammar, with blanks allowed between tokens::

        sum     := [+|-] product { (+|-) product }
        product := power { * power }
        power   := atom [ (^|**) integer ]
        atom    := integer | name | ( sum )

    ``**`` is a synonym for ``^``.  A sign may only start a sum, so
    ``x - -1`` and ``x*-1`` are rejected.  Integer literals are reduced
    mod p, exponents are integer literals, and a name must be one of the
    ring's variables.  Implicit multiplication
    (``2x``, ``x y``, ``(x)(y)``) is rejected.  A power or product of
    degree above the ring's cap raises ``DegreeOverflow``; its message
    names the degree the text asks for, and its column is that of the
    ``^`` (or ``**``) or ``*`` whose result would pass the cap, so
    ``x^200*y^100`` names 300 at the ``*``.  A zero factor counts as
    degree 0, so ``0*x^200*y^200`` is zero.

    Other errors are ``ParseError``.  Both carry ``line`` and a 1-based
    ``col``; a character outside the grammar is reported before any
    other error on the line.  ``indent`` is the width of the text cut
    from the front of the raw line, so that columns count from the raw
    line.
    """
    toks = _TOKEN.findall(text)
    toks.append("")  # end of input
    p = ring.field.p
    cap = ring.cap
    w = ring.width
    slot = {name: 1 << (i * w) for i, name in enumerate(ring.names)}

    # A product of atoms stays one term (coeff, evec, degree), with the
    # coefficient reduced mod p, and a sum gathers terms in one dict.  A
    # parenthesised sum is a Polynomial, and so is every product it
    # enters.  Degrees are checked against the cap before each power
    # and product, so no Polynomial operation passes it.

    def read_sum(i: int) -> tuple[Polynomial, int]:
        """The sum that starts at toks[i], and the index after it."""
        acc: dict[int, int] = {}
        sign = 1
        t = toks[i]
        while True:
            if t == "+" or t == "-":
                sign = 1 if t == "+" else -1
                i += 1
            f = None
            while True:
                t = toks[i]
                i += 1
                ev = slot.get(t)
                if ev is not None:
                    a = (1, ev, 1)
                elif t.isdecimal():
                    a = (int(t) % p, 0, 0)
                elif t == "(":
                    a, i = read_sum(i)
                    if toks[i] != ")":
                        raise _Unread(i, "expected ')'")
                    i += 1
                elif t and t not in _OPERATORS:
                    raise _Unread(i - 1, f"unknown identifier {t!r}")
                else:
                    raise _Unread(i - 1, f"expected a term, found {_shown(t) or 'end of input'!r}")
                t = toks[i]
                if t == "^" or t == "**":
                    e = toks[i + 1]
                    if not e.isdecimal():
                        raise _Unread(i + 1, "exponent must be an integer literal")
                    e = int(e)
                    degree = _degree(a) * e
                    if degree > cap:
                        raise _TooHigh(i, f"degree {degree} exceeds cap {cap}")
                    i += 2
                    if isinstance(a, Polynomial):
                        a = a ** e
                    elif e == 0:
                        a = (1, 0, 0)
                    elif a[0]:
                        a = (pow(a[0], e, p), a[1] * e, a[2] * e)
                    t = toks[i]
                if f is None:
                    f = a
                elif isinstance(f, tuple) and isinstance(a, tuple) and f[2] + a[2] <= cap:
                    c = f[0] * a[0] % p
                    f = (c, f[1] + a[1], f[2] + a[2]) if c else (0, 0, 0)
                else:
                    degree = _degree(f) + _degree(a)
                    if degree > cap:
                        raise _TooHigh(star, f"degree {degree} exceeds cap {cap}")
                    f = _as_poly(ring, f) * _as_poly(ring, a)
                if t != "*":
                    break
                star = i
                i += 1
            if isinstance(f, Polynomial):
                for _, ev, c in f.terms:
                    acc[ev] = acc.get(ev, 0) + sign * c
            else:
                acc[f[1]] = acc.get(f[1], 0) + sign * f[0]
            if t != "+" and t != "-":
                if t == "(" or (t and t not in _OPERATORS):
                    raise _Unread(i, "implicit multiplication is not accepted")
                return ring._from_dict({ev: c % p for ev, c in acc.items()}), i

    try:
        f, i = read_sum(0)
        if toks[i]:
            raise _Unread(i, f"trailing input {_shown(toks[i])!r}")
        return f
    except (_Unread, ValueError) as exc:
        # a stray character is the line's error, whatever stopped the
        # read (an int() of too many digits raises ValueError)
        stray = _STRAY.search(text)
        if stray:
            raise ParseError(f"unexpected character {stray.group()!r}", line,
                             indent + stray.start() + 1) from None
        if not isinstance(exc, _Unread):
            raise
        index, message = exc.args
        col = next((m.start() for j, m in enumerate(_TOKEN.finditer(text)) if j == index),
                   len(text))
        raise exc.error(message, line, indent + col + 1) from None


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
