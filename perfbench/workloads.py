"""Benchmark inputs: every workload's systems, derived from one seed.

A workload is a list of ``Case`` objects.  Each case carries the system
as text (the ``SystemFile`` format), the backend and decomposition seed
to run it with, and the reference its output is checked against.  The
text is what the program receives: the timed code parses nothing and
generates nothing.

Generators are looked up on ``equidim.systems`` at call time, so that a
traced build of the inputs records them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import equidim.systems

WORKLOADS = ("families-witness", "families-gb", "tiny-field")
SIZES = ("full", "toy")

# Top dimension and total degree in that dimension of each benchmark
# family.  Recorded with the gb backend over GF(65521) and confirmed on
# generator seeds 0-9 with both backends; a generic instance always has
# this shape, so every seed shares one reference.
FAMILY_REFERENCE = {
    "ps(3)": (1, 4),
    "ps(4)": (1, 8),
    "sos(2,3)": (1, 4),
    "sos(2,4)": (2, 4),
    "sos(3,4)": (1, 8),
}

# (family, count) per workload and size.  Five systems, so that the
# median system is one of a family and not a mean of two families.
FAMILY_MIX = {
    ("families-witness", "full"): (("ps(4)", 3), ("sos(3,4)", 2)),
    ("families-witness", "toy"): (("ps(3)", 1), ("sos(2,3)", 1)),
    ("families-gb", "full"): (("sos(2,3)", 1), ("sos(2,4)", 3), ("ps(4)", 1)),
    ("families-gb", "toy"): (("sos(2,3)", 1), ("ps(3)", 1)),
}

TINY_PRIMES = (5, 7, 11)
TINY_PER_PRIME = {"full": 300, "toy": 8}
# Equation counts cycle through this list, so every seed has the same
# mix.  Call times jump between the 1- and 2-equation groups; with half
# the systems at 2 equations the median system sits inside that group,
# not on the jump.
TINY_EQUATIONS = (1, 2, 2, 3)
TINY_VARS = ("x0", "x1", "x2")

# A GF(5) system on which the witness backend raises ContractViolation
# from dim_degree (the gb backend gives ((2, 2),)).  It is part of every
# tiny-field run so that the failure is always counted.
REPRODUCER = (
    "vars x0, x1, x2\nchar 5\n"
    "x0^2 + x1^2 + 2*x0*x2 + x1*x2 + x2^2 + 4*x0 + 2*x1 + 3*x2 + 3\n",
    117,
)


@dataclass(frozen=True)
class Case:
    """One system to decompose, with how to run and check it."""

    label: str
    text: str
    backend: str
    config_seed: int
    # (top dimension, total degree there) from FAMILY_REFERENCE, or None
    # where only the exact top dimension and the point oracle apply
    reference: tuple[int, int] | None


def _family(name: str, rng: random.Random) -> "equidim.systems.SystemFile":
    kind, args = name.split("(")
    params = [int(a) for a in args.rstrip(")").split(",")]
    if kind == "ps":
        return equidim.systems.gen_ps(*params, rng)
    return equidim.systems.gen_sos(*params, rng)


def _family_cases(workload: str, size: str, seed: int) -> list[Case]:
    backend = "gb" if workload == "families-gb" else "witness"
    rng = random.Random(seed)
    cases = []
    for name, count in FAMILY_MIX[(workload, size)]:
        for i in range(count):
            gen_seed = rng.randrange(2**32)
            text = _family(name, random.Random(gen_seed)).to_text()
            cases.append(Case(f"{name}#{i}", text, backend, gen_seed % 10_000,
                              FAMILY_REFERENCE[name]))
    return cases


def _dense_quadric(p: int, rng: random.Random) -> str:
    """A random polynomial of degree exactly 2 on all monomials of degree <= 2."""
    monos = [e for e in itertools.product(range(3), repeat=len(TINY_VARS)) if sum(e) <= 2]
    while True:
        coeffs = [rng.randrange(p) for _ in monos]
        if any(c and sum(e) == 2 for e, c in zip(monos, coeffs)):
            break
    terms = []
    for e, c in zip(monos, coeffs):
        if not c:
            continue
        factors = [f"{v}^{k}" if k > 1 else v for v, k in zip(TINY_VARS, e) if k]
        terms.append("*".join(([str(c)] if c != 1 or not factors else []) + factors))
    return " + ".join(terms)


def _tiny_cases(size: str, seed: int) -> list[Case]:
    rng = random.Random(seed)
    header = f"vars {', '.join(TINY_VARS)}\n"
    cases = []
    for p in TINY_PRIMES:
        for i in range(TINY_PER_PRIME[size]):
            count = TINY_EQUATIONS[i % len(TINY_EQUATIONS)]
            eqs = [_dense_quadric(p, rng) for _ in range(count)]
            text = header + f"char {p}\n" + "".join(f + "\n" for f in eqs)
            cases.append(Case(f"GF({p})#{i}", text, "witness", i, None))
    text, config_seed = REPRODUCER
    cases.append(Case("GF(5)#reproducer", text, "witness", config_seed, None))
    return cases


def build_cases(workload: str, seed: int, size: str = "full") -> list[Case]:
    """The workload's systems for this seed; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {', '.join(SIZES)}")
    if workload == "tiny-field":
        return _tiny_cases(size, seed)
    return _family_cases(workload, size, seed)


def warmup_text() -> str:
    """A small system outside every workload, decomposed once before timing."""
    return equidim.systems.gen_ps(3, random.Random("warm-up")).to_text()
