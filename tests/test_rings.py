import itertools
import random
import re

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


# -- parser against the recursive-descent reference ---------------------------

_REFERENCE_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*^()]))")


def _parse_reference(ring, text, line=0):
    """The token-tuple recursive-descent parser that the flat reader replaced.

    Its terms, messages, lines and columns are the ones the reader must
    keep, except the column of an unexpected character after a blank: it
    names the blank.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
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

    def as_poly(f):
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

    def parse_expr():
        acc = {}

        def add(f, sign):
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


_PARSE_PRIMES = (5, 65521, 2**31 - 1)
_BLANKS = ("", "", " ", " ", "  ", "\t")


def _random_expression(rng, names, p, depth=0):
    """A random sum in the parser's grammar, with uneven spacing."""
    def gap():
        return rng.choice(_BLANKS)

    parts = []
    for k in range(rng.randint(1, 4)):
        if k:
            parts.append(gap() + rng.choice("+-") + gap())
        elif rng.random() < 0.3:
            parts.append(rng.choice("+-") + gap())
        factors = []
        for _ in range(rng.randint(1, 3)):
            r = rng.random()
            if r < 0.35:
                atom = rng.choice(names)
            elif r < 0.7:
                # literals below p, at p and multiples, and far above
                atom = str(rng.choice([rng.randrange(p), p, 2 * p + rng.randrange(p),
                                       rng.randrange(10**12)]))
            elif depth < 2:
                atom = "(" + gap() + _random_expression(rng, names, p, depth + 1) + gap() + ")"
            else:
                atom = rng.choice(names)
            if rng.random() < 0.35:
                atom += gap() + rng.choice(("^", "**")) + gap() + str(rng.randrange(4))
            factors.append(atom)
        parts.append((gap() + "*" + gap()).join(factors))
    return "".join(parts)


@pytest.mark.parametrize("p", _PARSE_PRIMES)
def test_parse_matches_reference_on_random_expressions(p):
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    rng = random.Random(p)
    for _ in range(300):
        text = rng.choice(_BLANKS) + _random_expression(rng, ring.names, p) + rng.choice(_BLANKS)
        assert parse_polynomial(ring, text).terms == _parse_reference(ring, text).terms, text


def test_parse_matches_reference_on_fixed_shapes():
    ring = PolyRing(PrimeField(7), ("x", "y"))
    for text in ["x^0", "(x + y)^0", "(x + 1)^3", "(x - y)**2*(x + 1)", "((x))", "-(x - 1)",
                 "+x", "0*x^200*y^200", "0^0", "7*x + 14", "x**2",
                 "(0)^0", "(x^100)^2*y^55", "x^255"]:
        assert parse_polynomial(ring, text).terms == _parse_reference(ring, text).terms, text


def _outcome(parse, ring, text):
    try:
        parse(ring, text, 7)
    except (ParseError, DegreeOverflow) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)
    raise AssertionError(f"{text!r} parsed")


@pytest.mark.parametrize("text", [
    "2x", "x y", "(x)(y)", "x (y)", "2 3", "x^", "x^y", "x^-1", "x^(2)", "(x + 1", "x )",
    "x - -1", "x*-1", "", "   ", "q + 1", "x + q^y", "x**", "x**2**3", "x^2^3", "x + **2",
    "x +", "*x", "()",
    "x$", "(x$", "x^300+$", "x^y$", "q+$", "é", "x²",
    # int() refuses a literal this long on Python >= 3.11; the stray wins
    pytest.param("9" * 5000 + "$", id="long-literal-then-stray"),
])
def test_parse_errors_match_reference(text):
    ring = PolyRing(PrimeField(65521), ("x", "y"))
    assert _outcome(parse_polynomial, ring, text) == _outcome(_parse_reference, ring, text)


@pytest.mark.parametrize("text, col, degree", [
    ("x^300", 2, 300), ("x^200*y^100", 6, 300), ("(x + 1)^300", 8, 300),
    ("(x + y)^200*x^100", 12, 300), ("x**150 * y**106", 8, 256), ("(x^100)^3", 8, 300),
])
def test_parse_degree_overflow_names_line_column_and_degree(text, col, degree):
    # these differ from the reference by design: it raised with no line
    # or column, naming the degree of a partial product of its repeated
    # squaring; the reader names the operator that passes the cap and
    # the degree the text asks for
    ring = PolyRing(PrimeField(65521), ("x", "y"))
    kind, message, line, at = _outcome(parse_polynomial, ring, text)
    assert kind is DegreeOverflow and (line, at) == (7, col)
    assert message == f"line 7, col {col}: degree {degree} exceeds cap 255"


@pytest.mark.parametrize("blank", [" ", "\t"])
def test_parse_error_names_the_unexpected_character(blank):
    ring = PolyRing(PrimeField(7), ("x0", "x1"))
    text = f"x0 +{blank}$"
    # the reference reported the blank before the character
    assert _outcome(_parse_reference, ring, text)[1:] == (
        f"line 7, col 5: unexpected character {blank!r}", 7, 5)
    assert _outcome(parse_polynomial, ring, text)[1:] == (
        "line 7, col 6: unexpected character '$'", 7, 6)


def test_parse_columns_add_the_indentation(ring_xy):
    with pytest.raises(ParseError) as exc:
        parse_polynomial(ring_xy, "x + q", line=2, indent=3)
    assert (exc.value.line, exc.value.col) == (2, 8)
    assert str(exc.value) == "line 2, col 8: unknown identifier 'q'"


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
