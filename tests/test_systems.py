import random

import pytest

from equidim import ContractViolation, ParseError, gen_ps, gen_sos, parse_system
from equidim.rings import parse_polynomial


def test_parse_minimal():
    sf = parse_system("vars x, y\nx*y\n")
    assert sf.variables == ("x", "y")
    assert sf.characteristic == 65521
    assert sf.sources == ("x*y",)


def test_parse_char_and_comments():
    text = """# demo system
vars x, y  # two variables
char 7
x^2 + 1
x - y
"""
    sf = parse_system(text)
    assert sf.characteristic == 7
    assert len(sf.sources) == 2
    polys = sf.polynomials()
    assert polys[0].total_degree() == 2


def test_char_header_is_a_whole_word():
    sf = parse_system("vars charge, y\ncharge*y - 1\n")
    assert sf.characteristic == 65521
    assert sf.sources == ("charge*y - 1",)
    assert len(sf.polynomials()[0]) == 2
    sf = parse_system("vars chart, x\nchart^2 - x\n")
    assert sf.sources == ("chart^2 - x",)
    assert parse_system("vars x\nchar 7\nx\n").characteristic == 7
    # "char7" is an identifier, so it is a polynomial line, not a header
    sf = parse_system("vars char7\nchar7\n")
    assert sf.characteristic == 65521 and sf.sources == ("char7",)
    with pytest.raises(ParseError) as exc:
        parse_system("vars x\nchar7\nx\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("header", ["varsx, y", "vars_a, b"])
def test_vars_header_is_a_whole_word(header):
    with pytest.raises(ParseError, match="expected a 'vars' header line") as exc:
        parse_system(header + "\nx\n")
    assert (exc.value.line, exc.value.col) == (1, 1)
    assert parse_system("vars x, y\nx*y\n").variables == ("x", "y")


def test_parse_unknown_identifier_is_error():
    with pytest.raises(ParseError):
        parse_system("vars x\ny\n")


def test_parse_nonprime_char_rejected():
    with pytest.raises(ParseError):
        parse_system("vars x\nchar 6\nx\n")


def test_parse_missing_header():
    with pytest.raises(ParseError):
        parse_system("x + y\n")


def test_parse_duplicate_vars():
    with pytest.raises(ParseError):
        parse_system("vars x, x\nx\n")


def test_roundtrip():
    sf = parse_system("vars x, y\nchar 11\nx^2 + 10*y\n")
    assert parse_system(sf.to_text()) == sf


def test_error_carries_line_number():
    try:
        parse_system("vars x\nx\nq + 1\n")
    except ParseError as exc:
        assert exc.line == 3
    else:
        raise AssertionError("expected a parse error")


@pytest.mark.parametrize("indented, col", [
    ("   x + q", 8),           # three blanks before the source
    ("\tx + q  # note", 6),   # a tab, and a trailing comment
    ("x + q", 5),
])
def test_error_column_counts_from_the_raw_line(indented, col):
    with pytest.raises(ParseError) as exc:
        parse_system(f"vars x\n{indented}\n")
    assert (exc.value.line, exc.value.col) == (2, col)
    assert str(exc.value) == f"line 2, col {col}: unknown identifier 'q'"


def test_header_error_columns_count_from_the_raw_line():
    with pytest.raises(ParseError) as exc:
        parse_system("  vars x, 1y\n")
    assert (exc.value.line, exc.value.col) == (1, 11)
    with pytest.raises(ParseError) as exc:
        parse_system("vars x\n\tchar 6\nx\n")
    assert (exc.value.line, exc.value.col) == (2, 7)


# blank lines, comment-only lines, CRLF endings and a duplicated
# polynomial line; each "@" marks a slot for a bad source
_LINE_TEMPLATE = [
    "# a system with gaps",
    "",
    "vars x, y",
    "   # comment only",
    "char 7",
    "",
    "@x + y",
    "@x + y",
    "# between",
    "  @x*y - 1   # trailing comment",
    "",
    "@y^2",
]


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_error_line_numbers(eol):
    slots = [k for k, ln in enumerate(_LINE_TEMPLATE) if "@" in ln]
    good = eol.join(ln.replace("@", "") for ln in _LINE_TEMPLATE) + eol
    assert parse_system(good).sources == ("x + y", "x + y", "x*y - 1", "y^2")
    for k in slots:
        lines = [ln.replace("@", "q + " if j == k else "") for j, ln in enumerate(_LINE_TEMPLATE)]
        with pytest.raises(ParseError) as exc:
            parse_system(eol.join(lines) + eol)
        assert exc.value.line == k + 1
        assert exc.value.col == _LINE_TEMPLATE[k].index("@") + 1


# -- gen_ps -------------------------------------------------------------------------

def test_gen_ps_shape():
    sf = gen_ps(6, random.Random(0))
    assert len(sf.variables) == 10
    assert len(sf.sources) == 10
    ring = sf.ring()
    for src in sf.sources:
        assert parse_polynomial(ring, src).total_degree() == 2


def test_gen_ps_copies_coefficients():
    sf = gen_ps(4, random.Random(1))
    ring = sf.ring()
    polys = sf.polynomials(ring)
    half = len(polys) // 2
    for f, g in zip(polys[:half], polys[half:]):
        fc = sorted(c for _, _, c in f.terms)
        gc = sorted(c for _, _, c in g.terms)
        assert fc == gc


def test_gen_ps_variable_split():
    sf = gen_ps(5, random.Random(2))
    ring = sf.ring()
    polys = sf.polynomials(ring)
    names = ring.names
    x_slots = {i for i, n in enumerate(names) if n.startswith("x")}
    y_slots = {i for i, n in enumerate(names) if n.startswith("y")}
    half = len(polys) // 2
    w = ring.width
    mask = (1 << w) - 1
    for f in polys[:half]:
        used = set()
        for _, ev, _ in f.terms:
            used |= {i for i in range(ring.nvars) if (ev >> (i * w)) & mask}
        assert not (used & y_slots)
    for g in polys[half:]:
        used = set()
        for _, ev, _ in g.terms:
            used |= {i for i in range(ring.nvars) if (ev >> (i * w)) & mask}
        assert not (used & x_slots)


def test_gen_ps_deterministic():
    assert gen_ps(4, random.Random(5)) == gen_ps(4, random.Random(5))


def test_gen_ps_rejects_small_n():
    with pytest.raises(ContractViolation):
        gen_ps(2, random.Random(0))


# -- gen_sos ------------------------------------------------------------------------

def test_gen_sos_shape():
    sf = gen_sos(4, 2, random.Random(0))
    assert len(sf.variables) == 2
    assert len(sf.sources) == 2
    ring = sf.ring()
    degs = [parse_polynomial(ring, s).total_degree() for s in sf.sources]
    assert degs == [4, 3]


def test_gen_sos_partials_match_f():
    sf = gen_sos(3, 3, random.Random(4))
    ring = sf.ring()
    polys = sf.polynomials(ring)
    f = polys[0]
    assert polys[1] == f.partial(1)
    assert polys[2] == f.partial(2)


def test_gen_sos_deterministic():
    assert gen_sos(4, 3, random.Random(9)) == gen_sos(4, 3, random.Random(9))


def test_gen_sos_rejects_bad_params():
    with pytest.raises(ContractViolation):
        gen_sos(0, 2, random.Random(0))
    with pytest.raises(ContractViolation):
        gen_sos(1, 1, random.Random(0))


def test_modular_derivative_rule():
    # p divides the exponent: that term's derivative vanishes
    ring = parse_system("vars x, y\nchar 5\nx\n").ring()
    x, y = ring.gens()
    f = x**5 + x * y
    assert f.partial(0) == y
