"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (run with ``pytest -s -v``);
a failed assertion is the FAIL line.  The random-system corpora are
seeded and shared across criteria through module fixtures.
"""

import itertools
import random
import time

import pytest

from equidim import (
    AffineCell,
    DecompConfig,
    DecompTrace,
    PolyRing,
    PrimeField,
    buchberger,
    cell_points,
    check_partition,
    check_top_dimension,
    enumerate_points,
    equidim,
    gen_ps,
    gen_sos,
    groebner_of,
    make_witness,
    monomial_facets_oracle,
    split,
)
from equidim.groebner import dimension


def _sig(cells):
    return sorted(
        (tuple(sorted(str(g) for g in c.basis().gens)),
         tuple(sorted(str(g) for g in c.G)))
        for c in cells
    )


def _gb_cell(ring, F):
    return AffineCell(ring, "gb", groebner_of(ring, list(F)), ())


def _wit_cell(ring, F, d, rng):
    W, forms = make_witness(ring, tuple(F), (), d, rng)
    return AffineCell(ring, "witness", tuple(F), (), W, d, forms)


# -- criterion 1: golden split of V(xy, zw) by xz -----------------------------

def test_criterion_1_golden_example():
    ring = PolyRing(PrimeField(65521), ("x", "y", "z", "w"))
    x, y, z, w = ring.gens()
    expected = [(("x", "z*w"), ()), (("y", "z"), ("x",))]
    start = time.time()
    for backend in ("gb", "witness"):
        rng = random.Random(41)
        if backend == "gb":
            X = _gb_cell(ring, [x * y, z * w])
        else:
            X = _wit_cell(ring, [x * y, z * w], 2, rng)
        cells = split(X, x * z, rng=rng)
        assert _sig(cells) == expected, f"backend {backend}"
    elapsed = time.time() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1: PASS - golden split V(xy,zw)/xz on both backends [{elapsed:.2f}s]")


# -- criterion 2: golden split of V(xy) by xz -----------------------------------

def test_criterion_2_intro_example():
    ring = PolyRing(PrimeField(65521), ("x", "y", "z"))
    x, y, z = ring.gens()
    expected = [(("x",), ()), (("y", "z"), ("x",))]
    start = time.time()
    for backend in ("gb", "witness"):
        rng = random.Random(43)
        if backend == "gb":
            X = _gb_cell(ring, [x * y])
        else:
            X = _wit_cell(ring, [x * y], 2, rng)
        cells = split(X, x * z, rng=rng)
        assert _sig(cells) == expected, f"backend {backend}"
    elapsed = time.time() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 2: PASS - golden split V(xy)/xz on both backends [{elapsed:.2f}s]")


# -- criterion 3: monomial oracle agreement on 100 systems -----------------------

def _random_squarefree_system(ring, rng, max_gens=6):
    n = ring.nvars
    k = rng.randrange(1, max_gens + 1)
    gens = []
    for _ in range(k):
        while True:
            exps = [rng.randrange(2) for _ in range(n)]
            if any(exps):
                break
        gens.append(ring.monomial(exps))
    return gens


MONOMIAL_TRACES = []


def _component_degrees(out):
    """Per-dimension degrees of the decomposed set's components.

    A partition may legitimately contain lower-dimensional "sliver"
    cells whose closure lies inside a higher-dimensional cell's closure
    (the algorithm never merges pieces).  Those are redundant embedded
    components from the point of view of the decomposed set, so they
    are removed before degrees are aggregated, exactly like the
    reference degree reports do.  Containment is decided exactly via
    radical membership of the bigger cell's basis in the smaller one's.
    """
    from equidim import radical_member

    cells = list(zip(out.cells, out.annotations))
    kept: dict[int, int] = {}
    for i, (cell, (d, deg)) in enumerate(cells):
        redundant = False
        for j, (other, (d2, _)) in enumerate(cells):
            if d2 <= d:
                continue
            if all(radical_member(g, cell.basis()) for g in other.basis().gens):
                redundant = True
                break
        if not redundant:
            kept[d] = kept.get(d, 0) + deg
    return kept


def test_criterion_3_monomial_oracle_agreement():
    start = time.time()
    master = random.Random(2024)
    field = PrimeField(65521)
    mismatches = []
    for idx in range(100):
        n = master.randrange(2, 7)
        ring = PolyRing(field, tuple(f"x{i}" for i in range(1, n + 1)))
        F = _random_squarefree_system(ring, master)
        trace = DecompTrace()
        out = equidim(F, ring, DecompConfig(seed=idx), trace=trace)
        MONOMIAL_TRACES.append((ring, trace))
        rep = check_partition(out.cells, F, ring, with_points=False)
        if not rep.passed:
            mismatches.append((idx, "partition", rep.as_dict()))
            continue
        got = _component_degrees(out)
        oracle = monomial_facets_oracle(ring, F)
        want = {d: oracle.count(d) for d in oracle.dimensions()}
        if got != want:
            mismatches.append((idx, [str(f) for f in F], got, want))
    elapsed = time.time() - start
    assert not mismatches, f"{len(mismatches)} mismatches: {mismatches[:3]}"
    assert elapsed < 60, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3: PASS - 100/100 monomial systems match the facet oracle "
          f"(sliver cells excluded from aggregation) [{elapsed:.1f}s]")


# -- criterion 4: partition suite ---------------------------------------------------

def _random_dense_quadric(ring, rng):
    p = ring.field.p
    n = ring.nvars
    f = ring.zero()
    for exps in itertools.combinations_with_replacement(range(n + 1), 2):
        e = [0] * n
        for s in exps:
            if s < n:
                e[s] += 1
        f = f + ring.monomial(e, rng.randrange(p))
    return f


PARTITION_RUNS = []  # (ring, F, DecompositionOutput, trace) for criteria 6-7


@pytest.fixture(scope="module")
def partition_suite():
    if PARTITION_RUNS:
        return PARTITION_RUNS
    master = random.Random(777)
    field = PrimeField(65521)
    for idx in range(50):
        n = master.randrange(2, 5)
        ring = PolyRing(field, tuple(f"x{i}" for i in range(1, n + 1)))
        F = [_random_dense_quadric(ring, master)
             for _ in range(master.randrange(1, 4))]
        F = [f for f in F if not f.is_zero()]
        trace = DecompTrace()
        out = equidim(F, ring, DecompConfig(seed=idx), trace=trace)
        PARTITION_RUNS.append((ring, F, out, trace))
    return PARTITION_RUNS


def test_criterion_4_partition_suite(partition_suite):
    start = time.time()
    failures = []
    for idx, (ring, F, out, _) in enumerate(partition_suite):
        rep = check_partition(out.cells, F, ring, with_points=False)
        if not rep.passed:
            failures.append((idx, rep.as_dict()))
    # exhaustive rational-point miniatures over tiny fields
    mini = random.Random(555)
    for p in (5, 7):
        field = PrimeField(p)
        for n in (2, 3):
            ring = PolyRing(field, tuple(f"x{i}" for i in range(1, n + 1)))
            for _ in range(5):
                F = [_random_dense_quadric(ring, mini)
                     for _ in range(mini.randrange(1, 3))]
                F = [f for f in F if not f.is_zero()]
                out = equidim(F, ring, DecompConfig(backend="gb", seed=1))
                rep = check_partition(out.cells, F, ring, with_points=True)
                if not (rep.passed and rep.points_checked):
                    failures.append((f"mini p={p} n={n}", rep.as_dict()))
    elapsed = time.time() - start
    assert not failures, f"{len(failures)} failures: {failures[:2]}"
    assert elapsed < 120, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 4: PASS - 50 partition checks + tiny-field point equality [{elapsed:.1f}s]")


# -- criterion 5: benchmark families on both backends -------------------------------

BENCH_TRACES = []  # (ring, trace) of every benchmark-family run, for criterion 7
BENCH_RUNS = []  # (label, ring, F, DecompositionOutput)
BENCH_TOP = (1, 4)  # (top dimension, degree there) of ps(3) and sos(2,3)


@pytest.fixture(scope="module")
def bench_suite():
    if BENCH_RUNS:
        return BENCH_RUNS
    for seed in range(3):
        for label, make in (("ps(3)", lambda rng: gen_ps(3, rng)),
                            ("sos(2,3)", lambda rng: gen_sos(2, 3, rng))):
            system = make(random.Random(seed))
            ring = system.ring()
            F = system.polynomials(ring)
            for backend in ("gb", "witness"):
                trace = DecompTrace()
                out = equidim(F, ring, DecompConfig(backend=backend, seed=seed), trace=trace)
                BENCH_TRACES.append((ring, trace))
                BENCH_RUNS.append((f"{label} seed={seed} {backend}", ring, F, out))
    return BENCH_RUNS


def test_criterion_5_benchmark_families(bench_suite):
    start = time.time()
    failures = []
    for label, ring, F, out in bench_suite:
        rep = check_partition(out.cells, F, ring, with_points=False)
        if not rep.passed:
            failures.append((label, rep.as_dict()))
            continue
        degrees = out.degrees_by_dimension()
        top = max(degrees)
        if (top, degrees[top]) != BENCH_TOP:
            failures.append((label, (top, degrees[top])))
    elapsed = time.time() - start
    assert not failures, f"{len(failures)} failures: {failures[:2]}"
    print(f"\nACCEPTANCE 5: PASS - {len(bench_suite)} ps(3)/sos(2,3) runs partition V(F) "
          f"with top (dimension, degree) = {BENCH_TOP} [{elapsed:.1f}s]")


# -- criterion 6: probabilistic/deterministic properness agreement -------------------

def test_criterion_6_properness_agreement(partition_suite):
    start = time.time()
    master = random.Random(909)
    agree = 0
    total = 0
    instances = []
    for ring, F, out, _ in partition_suite:
        for cell in out.cells:
            instances.append((ring, cell))
    idx = 0
    while total < 200:
        ring, cell = instances[idx % len(instances)]
        idx += 1
        probe = _random_dense_quadric(ring, master)
        if probe.is_zero() or probe.is_constant():
            continue
        basis = cell.basis()
        if basis.is_unit:
            continue
        gb_twin = AffineCell(ring, "gb", basis, cell.G)
        d = dimension(basis)
        W, forms = make_witness(
            ring,
            tuple(basis.gens),
            cell.G,
            d,
            master,
        )
        if W.is_unit:
            continue
        wit_twin = AffineCell(ring, "witness", tuple(basis.gens), cell.G, W, d, forms)
        total += 1
        if gb_twin.is_proper(probe) == wit_twin.is_proper(probe):
            agree += 1
    elapsed = time.time() - start
    assert agree >= 198, f"only {agree}/200 agreed"
    print(f"\nACCEPTANCE 6: PASS - properness agreement {agree}/200 [{elapsed:.1f}s]")


# -- criterion 7: lemma checks on every branch of criteria 3-5 ------------------------

def _check_trace(ring, trace, rng, verify_dims=True):
    proper_fail = []
    improper_fail = []
    for parent, child, f in trace.proper:
        if child is None:
            continue
        if parent.backend == "witness":
            if child.d != parent.d - 1:
                proper_fail.append((str(parent), str(f), "d-tag"))
                continue
        if verify_dims:
            claimed = child.d if child.backend == "witness" else dimension(child.basis())
            rep = check_top_dimension(child, claimed, rng)
            if not rep.passed:
                proper_fail.append((str(parent), str(f), "witness-cut"))
    for parent, g, pretend in trace.improper:
        # strict ideal growth: g joins I(X meet V(g)) but is not even in rad I(X)
        if parent.rad_member(g):
            improper_fail.append((str(parent), str(g)))
    return proper_fail, improper_fail


def test_criterion_7_lemma_checks(partition_suite, bench_suite):
    start = time.time()
    rng = random.Random(1313)
    assert BENCH_TRACES, "criterion 5's benchmark runs left no traces"
    proper_fail = []
    improper_fail = []
    n_proper = n_improper = 0
    for ring, trace in MONOMIAL_TRACES:
        pf, imf = _check_trace(ring, trace, rng)
        proper_fail += pf
        improper_fail += imf
        n_proper += len(trace.proper)
        n_improper += len(trace.improper)
    for ring, F, out, trace in partition_suite:
        pf, imf = _check_trace(ring, trace, rng)
        proper_fail += pf
        improper_fail += imf
        n_proper += len(trace.proper)
        n_improper += len(trace.improper)
    for ring, trace in BENCH_TRACES:
        pf, imf = _check_trace(ring, trace, rng)
        proper_fail += pf
        improper_fail += imf
        n_proper += len(trace.proper)
        n_improper += len(trace.improper)
    elapsed = time.time() - start
    assert not proper_fail, f"dimension law violated: {proper_fail[:3]}"
    assert not improper_fail, f"strict descent violated: {improper_fail[:3]}"
    print(f"\nACCEPTANCE 7: PASS - dimension law on {n_proper} proper branches, "
          f"strict descent on {n_improper} improper branches [{elapsed:.1f}s]")


# -- criterion 8: out-of-scope statement -------------------------------------------------

def test_criterion_8_stated_exclusion():
    # The wall-clock comparison table against external CAS systems is
    # explicitly out of scope at desk scale; criteria 3 and 4 form the
    # property-based acceptance floor.  Nothing to execute.
    print("\nACCEPTANCE 8: PASS - external CAS timing comparisons excluded by design; "
          "criteria 3-4 are the acceptance floor")
