"""Command-line driver: decompose a system file, generate benchmark families.

Subcommands::

    equidim run SYSTEM.txt [--backend witness|gb] [--order degree|support|asis]
                           [--seed N] [--char P] [--verify none|fast|full]
                           [--classic-remove]
    equidim gen-ps N [--seed N] [--char P]
    equidim gen-sos S N [--seed N] [--char P]

``run`` emits a single JSON document on stdout with the input echo, the
configuration, the backend that ran, every cell (basis generators,
inequation factors, dimension, degree) and the optional verification
report.  ``"config.backend"`` echoes ``--backend``; the top-level
``"backend"`` differs from it when a witness request runs the exact gb
backend, which happens when 32 * B > p for the Bezout bound B of the
input (a random slice misses genericity with probability about B/p;
see ``cells.slices_generic``).  gb output ignores ``--seed``.  Exit codes:
0 success, 1 input error, 2 internal error; an internal error also
prints its traceback to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import traceback

from .gf import ContractViolation, PrimeField
from .rings import ParseError, poly_to_string
from .decomp import DecompConfig, equidim
from .verify import check_partition, check_top_dimension
from .systems import SystemFile, gen_ps, gen_sos, parse_system


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="equidim",
                                 description="equidimensional decomposition over GF(p)")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="decompose a polynomial system file")
    run.add_argument("file", help="system file path, or '-' for stdin")
    run.add_argument("--char", type=int, default=None,
                     help="override the field characteristic")
    run.add_argument("--backend", choices=("gb", "witness"), default="witness")
    run.add_argument("--order", choices=("degree", "support", "asis"), default="degree")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--verify", choices=("none", "fast", "full"), default="none")
    run.add_argument("--classic-remove", action="store_true",
                     help="use the plain remove recursion instead of remove'")

    ps = sub.add_parser("gen-ps", help="emit a pseudo-singularity system")
    ps.add_argument("n", type=int)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--char", type=int, default=None)

    sos = sub.add_parser("gen-sos", help="emit a sum-of-squares critical-point system")
    sos.add_argument("s", type=int)
    sos.add_argument("n", type=int)
    sos.add_argument("--seed", type=int, default=0)
    sos.add_argument("--char", type=int, default=None)
    return ap


def _run(args) -> int:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    system = parse_system(text)
    if args.char is not None:
        PrimeField(args.char)  # validate before rebuilding
        system = SystemFile(system.variables, args.char, system.sources)
    ring = system.ring()
    polys = system.polynomials(ring)
    config = DecompConfig(
        backend=args.backend,
        order_strategy=args.order,
        seed=args.seed,
        use_classic_remove=args.classic_remove,
    )
    result = equidim(polys, ring, config)
    cells_doc = []
    for cell, (dim, deg) in zip(result.cells, result.annotations):
        cells_doc.append({
            "basis": [poly_to_string(g) for g in cell.basis().gens],
            "inequations": [poly_to_string(g) for g in cell.G],
            "dimension": dim,
            "degree": deg,
        })
    doc = {
        "input": {
            "variables": list(system.variables),
            "characteristic": system.characteristic,
            "polynomials": list(system.sources),
        },
        "config": {
            "backend": config.backend,
            "order": config.order_strategy,
            "seed": config.seed,
            "classic_remove": config.use_classic_remove,
        },
        "backend": result.backend,
        "input_order_used": list(result.input_order_used),
        "cells": cells_doc,
        "cell_count": len(result.cells),
        "verification": None,
    }
    if args.verify != "none":
        rng = random.Random(config.seed + 1)
        with_points = None
        if args.verify == "fast":
            with_points = False
        report = check_partition(result.cells, polys, ring, with_points=with_points)
        vdoc = report.as_dict()
        if args.verify == "full":
            dims_ok = []
            for cell, (dim, _) in zip(result.cells, result.annotations):
                dims_ok.append(check_top_dimension(cell, dim, rng).passed)
            vdoc["top_dimension_ok"] = dims_ok
        doc["verification"] = vdoc
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        rng = random.Random(args.seed)
        char = args.char if args.char is not None else 65521
        if args.command == "gen-ps":
            sys.stdout.write(gen_ps(args.n, rng, char).to_text())
            return 0
        if args.command == "gen-sos":
            sys.stdout.write(gen_sos(args.s, args.n, rng, char).to_text())
            return 0
        return 2
    except (ParseError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
