import itertools
import random
from pathlib import Path

import pytest

from equidim import (
    AffineCell,
    ContractViolation,
    DecompConfig,
    DecompTrace,
    GCache,
    PolyRing,
    PrimeField,
    buchberger,
    cell_points,
    check_partition,
    enumerate_points,
    equidim,
    gen_ps,
    groebner_of,
    ideal_member,
    order_input,
    radical_member,
    remove,
    remove_prime,
    saturate_seq,
    parse_system,
    split,
)
from equidim import decomp, groebner
from equidim.cells import make_witness, slices_generic
from equidim.groebner import hilbert_dim_degree
from equidim.rings import DegreeOverflow

DATA = Path(__file__).parent / "data"


@pytest.fixture
def R4():
    return PolyRing(PrimeField(65521), ("x", "y", "z", "w"))


@pytest.fixture
def R3():
    return PolyRing(PrimeField(65521), ("x", "y", "z"))


def gb_cell(ring, F, G=()):
    return AffineCell(ring, "gb", groebner_of(ring, list(F)), tuple(G))


def wit_cell(ring, F, G, d, rng):
    W, forms = make_witness(ring, tuple(F), tuple(G), d, rng)
    return AffineCell(ring, "witness", tuple(F), tuple(G), W, d, forms)


def cells_signature(cells):
    return sorted(
        (tuple(sorted(str(g) for g in c.basis().gens)),
         tuple(sorted(str(g) for g in c.G)))
        for c in cells
    )


def assert_disjoint(cells, ring):
    for a, b in itertools.combinations(cells, 2):
        merged = groebner_of(ring, list(a.basis().gens) + list(b.basis().gens))
        merged = saturate_seq(merged, a.G + b.G)
        assert merged.is_unit, f"cells overlap: {a} vs {b}"


# -- split goldens ------------------------------------------------------------

def test_split_golden_two_quadric_monomials(R4):
    x, y, z, w = R4.gens()
    for backend in ("gb", "witness"):
        rng = random.Random(7)
        if backend == "gb":
            X = gb_cell(R4, [x * y, z * w])
        else:
            X = wit_cell(R4, [x * y, z * w], [], 2, rng)
        cells = split(X, x * z, rng=rng)
        assert cells_signature(cells) == [
            (("x", "z*w"), ()),
            (("y", "z"), ("x",)),
        ], backend


def test_split_golden_single_quadric(R3):
    x, y, z = R3.gens()
    for backend in ("gb", "witness"):
        rng = random.Random(11)
        if backend == "gb":
            X = gb_cell(R3, [x * y])
        else:
            X = wit_cell(R3, [x * y], [], 2, rng)
        cells = split(X, x * z, rng=rng)
        assert cells_signature(cells) == [
            (("x",), ()),
            (("y", "z"), ("x",)),
        ], backend


def test_split_proper_hyperplane(R3):
    x, _, _ = R3.gens()
    X = AffineCell.full_space(R3, "gb")
    cells = split(X, x, rng=random.Random(0))
    assert cells_signature(cells) == [(("x",), ())]


def test_split_f_in_ideal_returns_cell(R3):
    x, _, _ = R3.gens()
    X = gb_cell(R3, [x])
    cells = split(X, x, rng=random.Random(0))
    assert cells_signature(cells) == [(("x",), ())]


def test_split_empty_cell_gives_nothing(R3):
    X = gb_cell(R3, [R3.one()])
    assert split(X, R3.var(0), rng=random.Random(0)) == []


def test_split_partition_properties(R4):
    """Disjointness, covering over a tiny field, and ideal growth."""
    ring = PolyRing(PrimeField(5), ("x", "y", "z"))
    x, y, z = ring.gens()
    X = gb_cell(ring, [x * y])
    f = x * z
    cells = split(X, f, rng=random.Random(1))
    assert_disjoint(cells, ring)
    target = enumerate_points(ring, [x * y, x * z])
    seen = set()
    for c in cells:
        pts = cell_points(c).points
        assert not (seen & pts)
        seen |= pts
    assert seen == target.points
    for c in cells:
        for g in X.basis():
            assert ideal_member(g, c.basis())
        assert radical_member(f, c.basis())


# -- remove / remove_prime ------------------------------------------------------

def test_remove_empty_H(R3):
    X = AffineCell.full_space(R3, "gb")
    assert remove(X, []) == []
    assert remove_prime(X, []) == []


def test_remove_single_hypersurface(R3):
    x, _, _ = R3.gens()
    X = AffineCell.full_space(R3, "gb")
    out = remove(X, [x])
    assert len(out) == 1
    assert out[0].basis().is_zero_ideal
    assert out[0].G == (x,)
    out2 = remove_prime(X, [x])
    assert cells_signature(out) == cells_signature(out2)


def test_remove_two_hyperplanes_golden():
    ring = PolyRing(PrimeField(65521), ("x", "y"))
    x, y = ring.gens()
    X = AffineCell.full_space(ring, "gb")
    out = remove(X, [x, y])
    assert cells_signature(out) == [((), ("x",)), (("x",), ("y",))]


def test_remove_prime_partitions_complement():
    ring = PolyRing(PrimeField(5), ("x", "y"))
    x, y = ring.gens()
    X = AffineCell.full_space(ring, "gb")
    for variant in (remove, remove_prime):
        out = variant(X, [x, y], rng=random.Random(3))
        assert_disjoint(out, ring)
        target = enumerate_points(ring, [], [])  # all points
        hole = enumerate_points(ring, [x, y])
        covered = set()
        for c in out:
            covered |= cell_points(c).points
        assert covered == target.points - hole.points


def test_remove_variants_agree_setwise():
    ring = PolyRing(PrimeField(7), ("x", "y", "z"))
    x, y, z = ring.gens()
    X = gb_cell(ring, [x * y * z])
    H = [x - 1, y]
    pts = set()
    for variant in (remove, remove_prime):
        covered = set()
        out = variant(X, H, rng=random.Random(5))
        assert_disjoint(out, ring)
        for c in out:
            covered |= cell_points(c).points
        pts.add(frozenset(covered))
    assert len(pts) == 1


# -- order_input -------------------------------------------------------------------

def test_order_input_examples(R3):
    x, y, z = R3.gens()
    ordered, perm = order_input([x**2 + y, x], "degree")
    assert ordered == [x, x**2 + y] and perm == (1, 0)
    ordered, perm = order_input([x + y + z, x * y], "support")
    assert ordered == [x * y, x + y + z] and perm == (1, 0)
    F = [x * y, x, y + z]
    ordered, perm = order_input(F, "asis")
    assert ordered == F and perm == (0, 1, 2)


def test_order_input_stable(R3):
    x, y, z = R3.gens()
    F = [x, y, z]  # all degree 1: stability keeps the original order
    ordered, perm = order_input(F, "degree")
    assert ordered == F and perm == (0, 1, 2)


# -- equidim -----------------------------------------------------------------------

def test_equidim_empty_system(R3):
    out = equidim([], R3, DecompConfig(backend="gb"))
    assert len(out) == 1
    assert out.annotations == ((3, 1),)


def test_equidim_single_hypersurface(R4):
    x, y, _, _ = R4.gens()
    out = equidim([x * y], R4, DecompConfig(backend="witness", seed=2))
    assert len(out) == 1
    assert out.annotations == ((3, 2),)


def test_equidim_example_system_both_backends(R4):
    x, y, z, w = R4.gens()
    F = [x * y, z * w, x * z]
    for backend in ("gb", "witness"):
        out = equidim(F, R4, DecompConfig(backend=backend, seed=3))
        assert len(out) == 2
        assert out.annotations == ((2, 2), (2, 1))
        assert out.backend == backend
        sig = cells_signature(out.cells)
        assert sig == [(("x", "z*w"), ()), (("y", "z"), ("x",))]


def test_equidim_monomial_dimensions(R4):
    # minimal primes of <xy, zw, xz>: dimension 2 with total degree 3
    x, y, z, w = R4.gens()
    out = equidim([x * y, z * w, x * z], R4, DecompConfig(backend="gb", seed=1))
    assert out.degrees_by_dimension() == {2: 3}


def test_equidim_every_input_vanishes_on_cells(R4):
    x, y, z, w = R4.gens()
    F = [x * y - z * w, x * z]
    out = equidim(F, R4, DecompConfig(backend="witness", seed=9))
    for cell in out:
        for f in F:
            assert radical_member(f, cell.basis())


def test_equidim_deterministic(R4):
    x, y, z, w = R4.gens()
    F = [x * y, z * w, x * z]
    a = equidim(F, R4, DecompConfig(backend="witness", seed=5))
    b = equidim(F, R4, DecompConfig(backend="witness", seed=5))
    assert cells_signature(a.cells) == cells_signature(b.cells)
    assert a.annotations == b.annotations
    assert [c.witness_forms for c in a.cells] == [c.witness_forms for c in b.cells]


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(groebner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(groebner, name, counting)
    return calls


@pytest.mark.parametrize("backend", ["gb", "witness"])
def test_equidim_memo_lives_for_one_call(R4, monkeypatch, backend):
    x, y, z, w = R4.gens()
    F = [x * y + z, z * w - x, x * z + y * w]
    # the gb backend builds every basis by extension and never calls buchberger
    calls = _count_calls(monkeypatch, "_sig_step" if backend == "gb" else "buchberger")
    counts = []
    for _ in range(2):
        before = len(calls)
        equidim(F, R4, DecompConfig(backend=backend, seed=5))
        counts.append(len(calls) - before)
    assert counts[0] > 0 and counts[0] == counts[1]
    assert groebner._MEMO.get() is None


def test_equidim_drops_memo_when_it_raises():
    # a degree cap of 3 is passed by an S-pair of degree 4 mid-decomposition
    ring = PolyRing(PrimeField(65521), ("x", "y"), cap=3)
    x, y = ring.gens()
    with pytest.raises(DegreeOverflow):
        equidim([x**2 + y**2 - 1, x * y - 2], ring, DecompConfig(seed=117))
    assert groebner._MEMO.get() is None


# tiny-field systems on which a random degree slice lost points and raised
@pytest.mark.parametrize("name, seed", [
    ("tiny_gb_gf5_220", 220), ("tiny_gb_gf5_224", 224), ("tiny_gb_gf7_228", 228),
])
def test_gb_degree_is_exact_on_tiny_fields(name, seed):
    system = parse_system((DATA / f"{name}.txt").read_text())
    ring = system.ring()
    F = system.polynomials(ring)
    out = equidim(F, ring, DecompConfig(backend="gb", seed=seed))
    assert check_partition(out.cells, F, ring, with_points=True).passed
    assert out.annotations == tuple(hilbert_dim_degree(c.basis()) for c in out.cells)
    assert out.annotations == ((2, 2),)  # one quadric surface


def test_gb_backend_ignores_the_seed():
    # two quadrics over GF(5) whose degree slices disagreed between seeds
    system = parse_system(
        "vars x0, x1, x2\nchar 5\n"
        "4 + x2 + 3*x1*x2 + 3*x1^2 + x0*x2 + 4*x0^2\n"
        "3 + 4*x2^2 + x1*x2 + 4*x1^2 + 4*x0*x2 + 4*x0*x1 + 3*x0^2\n"
    )
    ring = system.ring()
    F = system.polynomials(ring)
    a, b = (equidim(F, ring, DecompConfig(backend="gb", seed=s)) for s in (0, 1))
    assert [c.basis() for c in a.cells] == [c.basis() for c in b.cells]
    assert a.annotations == b.annotations == ((1, 4),)


@pytest.mark.parametrize("entry", ["gb", "witness", "split", "remove", "remove_prime"])
def test_gb_backend_builds_no_random_generator(entry, monkeypatch):
    # a witness request at p = 7 runs gb too (32 * B > p), and the public
    # wrappers give a gb cell no default generator
    system = parse_system(
        "vars x0, x1, x2\nchar 7\n"
        "x0^2 + x1*x2 + 3*x0 + 1\n"
        "x1^2 + 2*x0*x2 + x2 + 5\n"
    )
    ring = system.ring()
    F = system.polynomials(ring)

    def no_generator(*args):
        raise AssertionError("the gb backend built a random generator")

    monkeypatch.setattr(decomp.random, "Random", no_generator)
    if entry in ("gb", "witness"):
        out = equidim(F, ring, DecompConfig(backend=entry))
        assert out.backend == "gb"
        assert out.annotations == ((1, 4),)
        return
    X = AffineCell.full_space(ring, "gb")
    if entry == "split":
        cells, want = split(X, F[0]), enumerate_points(ring, F[:1]).points
    else:
        cells = getattr(decomp, entry)(X, F)
        want = enumerate_points(ring, []).points - enumerate_points(ring, F).points
    assert cells
    assert_disjoint(cells, ring)
    assert set().union(*(cell_points(c).points for c in cells)) == want


def _quadrics(ring, count):
    xs = ring.gens()
    return [xs[i % ring.nvars] ** 2 + xs[(i + 1) % ring.nvars] for i in range(count)]


def test_slices_generic_rule_boundaries():
    R11 = PolyRing(PrimeField(11), ("x", "y", "z"))
    assert not slices_generic(_quadrics(R11, 3), R11)  # 32 * 8 > 11
    R10 = PolyRing(PrimeField(65521), tuple(f"x{i}" for i in range(10)))
    assert slices_generic(_quadrics(R10, 10), R10)  # 32 * 1024 <= 65521
    R11v = PolyRing(PrimeField(65521), tuple(f"x{i}" for i in range(11)))
    assert not slices_generic(_quadrics(R11v, 11), R11v)  # 32 * 2048 > 65521
    # surplus equations: only the n largest degrees count, zeros not at all
    R2 = PolyRing(PrimeField(65521), ("x", "y"))
    assert slices_generic(_quadrics(R2, 20) + [R2.zero()], R2)  # B = 4
    x, y = PolyRing(PrimeField(97), ("x", "y")).gens()
    assert slices_generic([x, y, x**3], x.ring)  # B = 3 * 1
    assert not slices_generic([x, y**3, x**3], x.ring)  # B = 3 * 3


# the tiny golden systems, and a GF(5) quadric on which the witness
# backend once raised from dim_degree
ROUTE_CASES = [("tiny_gf5", 0), ("tiny_gf7", 0), ("tiny_gf11", 0), ("reproducer", 117)]
REPRODUCER = (
    "vars x0, x1, x2\nchar 5\n"
    "x0^2 + x1^2 + 2*x0*x2 + x1*x2 + x2^2 + 4*x0 + 2*x1 + 3*x2 + 3\n"
)


@pytest.mark.parametrize("name, seed", ROUTE_CASES)
def test_witness_request_runs_gb_at_small_p(name, seed):
    text = REPRODUCER if name == "reproducer" else (DATA / f"{name}.txt").read_text()
    system = parse_system(text)
    ring = system.ring()
    F = system.polynomials(ring)
    out = equidim(F, ring, DecompConfig(backend="witness", seed=seed))
    ref = equidim(F, ring, DecompConfig(backend="gb", seed=seed))
    assert out.backend == "gb"
    assert [(c.basis(), c.G) for c in out.cells] == [(c.basis(), c.G) for c in ref.cells]
    assert out.annotations == ref.annotations
    assert check_partition(out.cells, F, ring, with_points=True).passed


def test_witness_request_keeps_witness_on_ps3():
    system = gen_ps(3, random.Random(0))
    ring = system.ring()
    out = equidim(system.polynomials(ring), ring, DecompConfig(backend="witness"))
    assert out.backend == "witness"
    assert all(c.backend == "witness" for c in out.cells)


def test_equidim_classic_remove_agrees(R4):
    x, y, z, w = R4.gens()
    F = [x * y, z * w, x * z]
    fast = equidim(F, R4, DecompConfig(backend="gb", seed=1))
    classic = equidim(F, R4, DecompConfig(backend="gb", seed=1, use_classic_remove=True))
    # same variety, both partitions; compare per-dimension degrees
    assert fast.degrees_by_dimension() == classic.degrees_by_dimension()


def test_equidim_nonreduced_input(R3):
    x, y, z = R3.gens()
    out = equidim([x**2], R3, DecompConfig(backend="gb", seed=1))
    assert len(out) == 1
    assert out.annotations == ((2, 2),)  # scheme-theoretic degree of the double plane


def test_equidim_inconsistent_system(R3):
    out = equidim([R3.one()], R3, DecompConfig(backend="gb"))
    assert len(out) == 0


@pytest.mark.parametrize("backend", ["gb", "witness"])
def test_equidim_names_an_input_from_another_ring(backend):
    # at p = 65521 both backends run as requested
    ring = PolyRing(PrimeField(65521), ("x", "y"))
    x, y = ring.gens()
    other_field = PolyRing(PrimeField(7), ("x", "y"))
    other_vars = PolyRing(PrimeField(65521), ("x", "z"))
    for bad, wanted in ((other_field.var(1), "GF(7)[x, y"), (other_vars.zero(), "GF(65521)[x, z")):
        with pytest.raises(ContractViolation) as exc:
            equidim([x * y - 1, bad, x], ring, DecompConfig(backend=backend))
        msg = str(exc.value)
        assert msg.startswith("input 1 lies in ") and wanted in msg, msg
        assert msg.endswith("not in GF(65521)[x, y; grevlex]"), msg
    assert equidim([x * y - 1, x - 1], ring, DecompConfig(backend=backend)).backend == backend


def test_trace_events_dimension_law(R4):
    """Proper cuts drop the dimension by exactly one (witness tags)."""
    x, y, z, w = R4.gens()
    trace = DecompTrace()
    equidim([x * y, z * w, x * z], R4,
            DecompConfig(backend="witness", seed=3), trace=trace)
    assert trace.proper, "expected at least one proper branch"
    for parent, child, f in trace.proper:
        if child is not None:
            assert child.d == parent.d - 1
    assert trace.improper, "expected at least one improper branch"
    for parent, g, pretend in trace.improper:
        assert not parent.rad_member(g)


def test_gcache_snapshot_semantics(R3):
    x, y, z = R3.gens()
    base = GCache()
    ext = base.extended([x, y])
    assert base.candidates() == []
    assert [str(f) for f in ext.candidates()] == ["x", "y"]
    ext2 = ext.extended([z])
    assert [str(f) for f in ext.candidates()] == ["x", "y"]
    assert len(ext2.candidates()) == 3


def test_gcache_selection_order(R3):
    x, y, z = R3.gens()
    cache = GCache().extended([x * y + z, x, z**2])
    cands = cache.candidates()
    # smallest degree first, then fewer terms, then insertion position
    assert [str(f) for f in cands] == ["x", "z^2", "x*y + z"]


def test_config_has_no_char_field():
    # the field comes from the ring; a separate characteristic knob
    # could only disagree with it
    with pytest.raises(TypeError):
        DecompConfig(char=65521)
