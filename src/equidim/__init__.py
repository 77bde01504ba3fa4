"""Equidimensional decomposition of affine algebraic sets over GF(p).

The package decomposes the zero set of a polynomial system over a prime
field into pairwise-disjoint, equidimensional, locally closed "affine
cells", each of the form V(F) minus V(g1*...*gr).  Cells come in two
interchangeable representations: a deterministic one backed by Groebner
bases of the distinguished ideal, and a probabilistic one backed by
witness sets (Groebner bases of a generic zero-dimensional slice).

A random slice misses genericity with probability about B/p, where B is
the Bezout bound of the input, so the witness representation is used
only where 32 * B <= p (``cells.slices_generic``), which no p <= 31
meets once B >= 1.  Otherwise ``equidim`` runs the Groebner representation,
whose output does not depend on the seed, and reports it in
``DecompositionOutput.backend``.
"""

from .gf import ContractViolation, FieldElement, PrimeField, DEFAULT_CHAR
from .rings import (
    MonomialOrder,
    ParseError,
    PolyRing,
    Polynomial,
    mono_cmp,
    parse_polynomial,
    poly_to_string,
    random_affine_forms,
)
from .groebner import (
    GroebnerBasis,
    buchberger,
    dimension,
    groebner_of,
    ideal_intersect,
    ideal_member,
    normal_form,
    quotient_degree,
    radical_member,
    saturate,
    saturate_seq,
    standard_monomials,
)
from .cells import AffineCell, NonGenericSlice, make_witness, GB_BACKEND, WITNESS_BACKEND
from .decomp import (
    DecompConfig,
    DecompTrace,
    DecompositionOutput,
    GCache,
    equidim,
    order_input,
    remove,
    remove_prime,
    split,
)
from .verify import (
    CostGuardExceeded,
    FacetDecomposition,
    PartitionReport,
    PointSet,
    cell_points,
    check_partition,
    check_top_dimension,
    enumerate_points,
    monomial_facets_oracle,
)
from .systems import SystemFile, gen_ps, gen_sos, parse_system
# stubs that only raise; loaded only because perfbench still traces their layer
from . import fastred  # noqa: F401

__all__ = [
    "AffineCell",
    "ContractViolation",
    "CostGuardExceeded",
    "DecompConfig",
    "DecompTrace",
    "DecompositionOutput",
    "DEFAULT_CHAR",
    "FacetDecomposition",
    "FieldElement",
    "GB_BACKEND",
    "GCache",
    "GroebnerBasis",
    "MonomialOrder",
    "NonGenericSlice",
    "ParseError",
    "PartitionReport",
    "PointSet",
    "PolyRing",
    "Polynomial",
    "PrimeField",
    "SystemFile",
    "WITNESS_BACKEND",
    "buchberger",
    "cell_points",
    "check_partition",
    "check_top_dimension",
    "dimension",
    "enumerate_points",
    "equidim",
    "gen_ps",
    "gen_sos",
    "groebner_of",
    "ideal_intersect",
    "ideal_member",
    "make_witness",
    "mono_cmp",
    "monomial_facets_oracle",
    "normal_form",
    "order_input",
    "parse_polynomial",
    "parse_system",
    "poly_to_string",
    "quotient_degree",
    "radical_member",
    "random_affine_forms",
    "remove",
    "remove_prime",
    "saturate",
    "saturate_seq",
    "split",
    "standard_monomials",
]
