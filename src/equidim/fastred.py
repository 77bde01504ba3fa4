"""Stubs of a deleted vectorized reducer, kept only as names.

Nothing in the package calls them: Buchberger reduces with
``groebner._reduce_terms``.  They remain because the benchmark's tracer
wraps these five methods and reports their ``fastred.*`` metrics; they
go in the benchmark change that drops the ``fastred`` layer.
"""

from __future__ import annotations

from .gf import ContractViolation


def _deleted(*_args, **_kwargs):
    raise ContractViolation("the fastred reducer was deleted; use groebner")


class Packer:
    poly_in = stream_in = poly_out = _deleted


class ArrayReducers:
    reduce = insert = _deleted
