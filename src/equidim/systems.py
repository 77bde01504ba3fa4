"""System files: the textual input format and benchmark generators.

Format (UTF-8, ``#`` comments)::

    vars x, y, z
    char 65521
    x*y - z^2
    x + y

Everything after a ``#`` is a comment, and blank lines are skipped.  The
first line left is the ``vars`` header: distinct names
``[A-Za-z_][A-Za-z_0-9]*`` separated by commas.  An optional ``char``
line may follow before any polynomial; p defaults to 65521.  Every
other line is one polynomial, in this grammar, with blanks allowed
between tokens::

    sum     := [+|-] product { (+|-) product }
    product := power { * power }
    power   := atom [ (^|**) integer ]
    atom    := integer | name | ( sum )

``**`` is a synonym for ``^``.  A sign may only start a sum, so
``x - -1`` is rejected; write ``x + 1``.  Integer literals are reduced
mod p, and exponents are integer literals.  Implicit multiplication
(``2x``, ``x y``, ``(x)(y)``) is rejected.  A power or product of degree
above the ring's cap (255) raises ``DegreeOverflow``, at the column of
its ``^`` or ``*``.

Other errors are ``ParseError``.  Both carry a 1-based line and column.  Lines
count as ``str.splitlines`` does, so CRLF endings are one line break.
Columns count characters from the start of the raw line, indentation
included, and a character outside the grammar is reported before any
other error on its line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from .gf import ContractViolation, PrimeField, DEFAULT_CHAR
from .rings import ParseError, PolyRing, Polynomial, parse_polynomial, poly_to_string


_IDENT = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
# the header keywords as whole words: "charge*y" and "char7" are
# polynomials, and "varsx, y" is not a header
_VARS_HEADER = re.compile(r"vars(?![A-Za-z_0-9])")
_CHAR_HEADER = re.compile(r"char(?![A-Za-z_0-9])")


@dataclass(frozen=True)
class SystemFile:
    """A parsed polynomial system: variables, characteristic, sources."""

    variables: tuple[str, ...]
    characteristic: int
    sources: tuple[str, ...]
    # the polynomials parse_system validated, with the ring they were
    # parsed over; the sources are parsed again only for another ring
    _parsed: tuple[PolyRing, tuple[Polynomial, ...]] | None = field(
        default=None, compare=False, repr=False)

    def ring(self) -> PolyRing:
        return PolyRing(PrimeField(self.characteristic), self.variables)

    def polynomials(self, ring: PolyRing | None = None) -> list[Polynomial]:
        r = ring if ring is not None else self.ring()
        if self._parsed is not None and r == self._parsed[0]:
            return [Polynomial(r, f.terms) for f in self._parsed[1]]
        return [parse_polynomial(r, s) for s in self.sources]

    def to_text(self) -> str:
        lines = [f"vars {', '.join(self.variables)}", f"char {self.characteristic}"]
        lines += list(self.sources)
        return "\n".join(lines) + "\n"


def parse_system(text: str) -> SystemFile:
    """Parse and validate a system file; errors carry line/column."""
    variables: tuple[str, ...] | None = None
    characteristic: int | None = None
    sources: list[str] = []
    polys: list[Polynomial] = []
    ring: PolyRing | None = None  # built at the first polynomial line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        indent = len(code) - len(code.lstrip())
        if variables is None:
            if not _VARS_HEADER.match(line):
                raise ParseError("expected a 'vars' header line", lineno, indent + 1)
            names = [v.strip() for v in line[4:].split(",") if v.strip()]
            if not names:
                raise ParseError("no variables declared", lineno, indent + 5)
            for v in names:
                if not _IDENT.match(v):
                    raise ParseError(f"bad variable name {v!r}", lineno,
                                     indent + line.find(v) + 1)
            if len(names) != len(set(names)):
                raise ParseError("duplicate variable names", lineno, indent + 5)
            variables = tuple(names)
            continue
        if _CHAR_HEADER.match(line) and ring is None and characteristic is None:
            body = line[4:].strip()
            if not body.isdigit():
                raise ParseError("characteristic must be an integer", lineno, indent + 6)
            characteristic = int(body)
            try:
                PrimeField(characteristic)
            except ContractViolation as exc:
                raise ParseError(str(exc), lineno, indent + 6) from None
            continue
        if ring is None:
            ring = PolyRing(PrimeField(characteristic or DEFAULT_CHAR), variables)
        sources.append(line)
        polys.append(parse_polynomial(ring, line, lineno, indent))
    if variables is None:
        raise ParseError("empty input: missing 'vars' header", 1, 1)
    characteristic = characteristic or DEFAULT_CHAR
    if ring is None:
        ring = PolyRing(PrimeField(characteristic), variables)
    return SystemFile(variables, characteristic, tuple(sources), (ring, tuple(polys)))


def _dense_poly_of_degree(ring: PolyRing, var_slots: Sequence[int], deg: int, rng) -> Polynomial:
    """Random dense polynomial of exact total degree in chosen variables."""
    monos: list[tuple[int, ...]] = []
    n = ring.nvars

    def rec(slots: list[int], remaining: int, current: list[int]):
        if not slots:
            exps = [0] * n
            for s, e in zip(var_slots, current):
                exps[s] = e
            monos.append(tuple(exps))
            return
        for e in range(remaining + 1):
            rec(slots[1:], remaining - e, current + [e])

    rec(list(var_slots), deg, [])
    p = ring.field.p
    while True:
        coeffs = [rng.randrange(p) for _ in monos]
        f = ring.from_terms(
            (ring.pack_evec(m), c) for m, c in zip(monos, coeffs) if c
        )
        if f.total_degree() == deg:
            return f


def gen_ps(n: int, rng, char: int = DEFAULT_CHAR) -> SystemFile:
    """Pseudo-singular family: 2n-2 quadrics in 2(n-2)+2 variables.

    f_1..f_{n-1} are random dense quadrics in the x-block and z1, z2;
    each g_i reuses f_i's coefficient array over the y-block and z1, z2.
    """
    if n < 3:
        raise ContractViolation("ps family needs n >= 3")
    m = n - 2
    names = tuple(f"x{i}" for i in range(1, m + 1)) + tuple(
        f"y{i}" for i in range(1, m + 1)
    ) + ("z1", "z2")
    ring = PolyRing(PrimeField(char), names)
    x_slots = list(range(m)) + [2 * m, 2 * m + 1]
    y_slots = list(range(m, 2 * m)) + [2 * m, 2 * m + 1]
    swap = {i: ring.var(j) for i, j in zip(x_slots, y_slots)}
    sources_f: list[str] = []
    sources_g: list[str] = []
    for _ in range(n - 1):
        f = _dense_poly_of_degree(ring, x_slots, 2, rng)
        g = f.subst(swap)
        sources_f.append(poly_to_string(f))
        sources_g.append(poly_to_string(g))
    return SystemFile(names, char, tuple(sources_f + sources_g))


def gen_sos(s: int, n: int, rng, char: int = DEFAULT_CHAR) -> SystemFile:
    """Critical-point family: a sum of s squared quadrics and its partials.

    Returns n polynomials in n variables: f = g_1^2 + ... + g_s^2 of
    degree 4, followed by df/dx_2, ..., df/dx_n of degree 3.
    """
    if s < 1 or n < 2:
        raise ContractViolation("sos family needs s >= 1 and n >= 2")
    names = tuple(f"x{i}" for i in range(1, n + 1))
    ring = PolyRing(PrimeField(char), names)
    while True:
        quads = [_dense_poly_of_degree(ring, range(n), 2, rng) for _ in range(s)]
        f = ring.zero()
        for q in quads:
            f = f + q * q
        partials = [f.partial(i) for i in range(1, n)]
        if f.total_degree() == 4 and all(g.total_degree() == 3 for g in partials):
            break
    sources = [poly_to_string(f)] + [poly_to_string(g) for g in partials]
    return SystemFile(names, char, tuple(sources))
