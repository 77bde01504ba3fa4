"""Stacked quotient linear algebra: multiplication matrices built for
several polynomials at once, extensions read in the quotient, and the
batched unit test of ``zerodim.saturations``.

Each route is checked against the one it replaces: the per-column
``matrix_of`` body (kept here as the reference), ``extend_basis`` and
per-polynomial ``zerodim.saturation``.  Reduced bases are unique, so
equal ideals give equal bases."""

import random

import numpy as np
import pytest

from equidim import (
    DecompConfig,
    PolyRing,
    PrimeField,
    buchberger,
    equidim,
    gen_ps,
    gen_sos,
)
from equidim import cells, groebner, zerodim
from equidim.cells import AffineCell
from equidim.groebner import GroebnerBasis, _matvec, extend_basis, is_zero_dim
from equidim.rings import random_affine_forms

from conftest import dense_poly, random_poly

PRIMES = [5, 7, 65521, 2147483647]


def reference_matrix_of(q, f):
    """M_f column by column, one matrix-vector product per column, in int64."""
    ring, p, D = q.ring, q.p, q.D
    w = ring.width
    mul = [m.astype(np.int64) for m in q.mul]
    M = np.zeros((D, D), dtype=np.int64)
    M[:, 0] = q.vector_of(f)
    for j in range(1, D):
        ev = q.monomials[j]
        for k in range(ring.nvars):
            if (ev >> (k * w)) & ((1 << w) - 1):
                prev = q.index[ev - (1 << (k * w))]
                M[:, j] = _matvec(mul[k], M[:, prev], p)
                break
    return M


def slices(p, seed, count):
    """Zero-dimensional bases: random slices of small systems, and fixed ones.

    A slice is n - 1 dense quadrics in n variables cut by one random
    affine form; the fixed bases have rational points, points of
    several multiplicities, and a staircase of over 40 monomials.
    """
    rng = random.Random(seed)
    out = []
    for n in (3, 4):
        ring = PolyRing(PrimeField(p), ("x", "y", "z", "w")[:n])
        while len(out) < count * (n - 2):
            F = [dense_poly(ring, rng, 2) for _ in range(n - 1)]
            W = buchberger(F + random_affine_forms(ring, 1, rng))
            if is_zero_dim(W):
                out.append(W)
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    x, y, z = ring.gens()
    out += [buchberger(F) for F in (
        [x**3 - x, y**2 - y, z - 5],
        [x**2 * (x - 1), y, z],
        [x**2, y**2, z],
        [x**3 * (x - 1)**2, y**3 - x * y, z**3 - z + x * y],
    )]
    return out


def probes(W, rng):
    """Polynomials to ask about W: random ones, linear ones through a
    rational point or not, a member, a unit and a constant."""
    ring = W.ring
    x = ring.gens()
    g = W.gens[0]
    return [
        random_poly(ring, rng, terms=3, max_deg=2),
        dense_poly(ring, rng, 1),
        x[0] - 1,
        x[0] * x[1],
        g * x[-1],  # a member: the zero matrix
        1 + g * x[0],  # 1 modulo W: the identity
        ring.const(3),
    ]


def fresh(W):
    """An equal basis with no quotient yet."""
    return GroebnerBasis(W.ring, W.gens)


@pytest.mark.parametrize("p", PRIMES)
def test_stacked_matrices_match_the_per_column_reference(p):
    rng = random.Random(p)
    for W in slices(p, p, 3):
        q = zerodim.quotient(W)
        # float64 exactly where one BLAS product cannot round
        assert (q.dtype is np.float64) == (q.D * (p - 1) ** 2 < 2**53)
        assert (q.dtype is np.int64) == (p == 2147483647)
        polys = probes(W, rng)
        stack = q.matrices_of(polys)
        assert stack.shape == (len(polys), q.D, q.D) and stack.dtype == q.dtype
        for f, M in zip(polys, stack):
            ref = reference_matrix_of(q, f)
            assert np.array_equal(M, ref), (W, f)
            assert np.array_equal(q.matrix_of(f), ref), (W, f)
        for k in range(W.ring.nvars):
            assert np.array_equal(q.mul[k], reference_matrix_of(q, W.ring.var(k)))


def test_int64_stack_takes_the_limb_path(monkeypatch):
    # D * (p - 1)^2 >= 2^53: every product runs groebner._matmul's limbs
    p = 2147483647
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    x, y, z = ring.gens()
    W = buchberger([x**3 * (x - 1)**2, y**3 - x * y, z**3 - z + x * y])
    q = zerodim.quotient(W)
    assert q.D * (p - 1) ** 2 >= 2**53 and q.dtype is np.int64
    products = []
    matmul = zerodim._matmul

    def counted(A, B, p):
        products.append((A.dtype, B.dtype))
        return matmul(A, B, p)

    monkeypatch.setattr(zerodim, "_matmul", counted)
    f = x * y - z + 2
    M = q.matrix_of(f)
    assert len(products) == q.D - 1
    assert all(a == b == np.int64 for a, b in products)
    assert np.array_equal(M, reference_matrix_of(q, f))


def extension_cases(W, rng):
    ring = W.ring
    x = ring.gens()
    single = probes(W, rng)
    sat = zerodim.saturation(fresh(W), x[0] - 1)
    return [[f] for f in single] + [
        [ring.zero()],
        [ring.zero(), x[0] - 1],
        single[:3],  # several at once
        list(sat.gens),  # as the decomposition asks: <W> + (W : f^inf)
        [x[0] - 1, x[1], x[0] * x[1] - 1],
    ]


@pytest.mark.parametrize("p", PRIMES)
def test_quotient_extension_matches_extend_basis(p):
    rng = random.Random(p + 1)
    kinds = set()
    for W in slices(p, p + 1, 3):
        for extra in extension_cases(W, rng):
            base = fresh(W)
            got = zerodim.extended(base, extra)
            want = extend_basis(fresh(W), extra)
            assert got == want, (W, extra)
            if got == W:
                assert got is base  # W itself, as extend_basis returns it
                kinds.add("same")
            else:
                kinds.add("unit" if got.is_unit else "proper")
    assert kinds == {"same", "unit", "proper"}


@pytest.mark.parametrize("p", PRIMES)
def test_batched_unit_verdicts_match_saturation(p):
    rng = random.Random(p + 2)
    verdicts = set()
    for W in slices(p, p + 2, 3):
        polys = probes(W, rng) + [dense_poly(W.ring, rng, 1) for _ in range(3)]
        q = zerodim.quotient(W)
        units = zerodim._units(q.matrices_of(polys), p)
        single = [zerodim.saturation(fresh(W), f) for f in polys]
        assert units.tolist() == [s == W for s in single], (W, polys)
        verdicts.update(units.tolist())
        assert zerodim.saturations(W, polys) == single
        # the batch fills the memo: a unit is recorded as W itself
        assert [zerodim.saturation(W, f) is W for f in polys] == units.tolist()
        ref = fresh(W)
        for stack, known in bisection_cases(polys, units.tolist(), rng):
            assert [zerodim.saturation(ref, f) == W for f in stack] == known, (W, stack)
            assert zerodim._units(q.matrices_of(stack), p).tolist() == known, (W, stack)
    assert verdicts == {True, False}


def bisection_cases(polys, units, rng):
    """Stacks that take ``_units``'s bisection to its ends: every matrix
    singular; one non-unit among 8 units, so the split goes at least 3
    levels deep; and one matrix alone, a unit or not.  Products of units
    are units and multiples of non-units are non-units, so each stack
    comes with its verdicts, known from those of ``polys``."""
    unit = [f for f, u in zip(polys, units) if u]
    other = [f for f, u in zip(polys, units) if not u]
    mixed = [rng.choice(unit) * rng.choice(unit) for _ in range(8)]
    at = rng.randrange(9)
    mixed.insert(at, rng.choice(other))
    return [
        ([rng.choice(other) * rng.choice(polys) for _ in range(6)], [False] * 6),
        (mixed, [i != at for i in range(9)]),
        ([rng.choice(unit)], [True]),
        ([rng.choice(other)], [False]),
    ]


def family_systems(seed=1):
    """The families-witness benchmark workload's five systems at a seed.

    ps(4) three times and sos(3,4) twice, each from its own generator
    seed, decomposed with that seed mod 10^4 as its ``DecompConfig.seed``.
    """
    rng = random.Random(seed)
    out = []
    for gen, args, count in ((gen_ps, (4,), 3), (gen_sos, (3, 4), 2)):
        for _ in range(count):
            gen_seed = rng.randrange(2**32)
            system = gen(*args, random.Random(gen_seed))
            ring = system.ring()
            out.append((system.polynomials(ring), ring, gen_seed % 10_000))
    return out


def test_family_pass_reads_slices_in_their_quotients(monkeypatch):
    # on one families-witness pass, extending a zero-dimensional slice
    # takes no signature step, and remove' sends its units through one
    # batched unit test, a rank test of their matrices' product, instead
    # of a kernel read each (118 reads when every subtraction took one)
    steps = []
    in_slices = []
    reads = []
    sig_step = groebner._sig_step
    kernel = zerodim._kernel_preimage
    intersect = AffineCell.intersect_components

    def counted_step(*args, **kwargs):
        steps.append(args)
        return sig_step(*args, **kwargs)

    def counted_read(*args):
        reads.append(args)
        return kernel(*args)

    def watched(self, H):
        if self.backend != cells.WITNESS_BACKEND or not is_zero_dim(self.W):
            return intersect(self, H)
        before = len(steps)
        out = intersect(self, H)
        in_slices.append(len(steps) - before)
        return out

    monkeypatch.setattr(groebner, "_sig_step", counted_step)
    monkeypatch.setattr(zerodim, "_kernel_preimage", counted_read)
    monkeypatch.setattr(AffineCell, "intersect_components", watched)
    for F, ring, seed in family_systems():
        equidim(F, ring, DecompConfig(seed=seed))
    assert steps and len(in_slices) == 10 and not any(in_slices), in_slices
    assert len(reads) <= 85, len(reads)


def one_at_a_time(self, H):
    return [self.subtract(h) for h in H]


@pytest.mark.parametrize("name,backend", [
    ("ps(4)", "witness"), ("sos(3,4)", "witness"), ("sos(2,4)", "gb")])
def test_batched_subtractions_leave_the_output_unchanged(name, backend, monkeypatch):
    gen = gen_ps if name.startswith("ps") else gen_sos
    args = [int(a) for a in name[name.index("(") + 1:-1].split(",")]
    system = gen(*args, random.Random(0))
    ring = system.ring()
    F = system.polynomials(ring)
    config = DecompConfig(backend=backend)
    batched = equidim(F, ring, config)
    monkeypatch.setattr(AffineCell, "subtract_each", one_at_a_time)
    single = equidim(F, ring, config)
    assert batched.backend == single.backend == backend
    assert batched.annotations == single.annotations
    assert list(map(repr, batched.cells)) == list(map(repr, single.cells))
