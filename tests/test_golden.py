"""Byte-exact CLI JSON for fixed-seed benchmark family instances.

The expected documents under ``tests/data`` fix the reduced bases,
inequations and annotations of every cell, so any change to the
reduction or slicing machinery that alters an output fails here.
``gen-ps 4`` on the witness backend is included because its slice
bases involve reductions of streams with 150 or more terms.  The three
``tiny_gf*`` systems (stored under ``tests/data``) are small quadric
systems over GF(5), GF(7) and GF(11) that request the witness backend;
at p this small ``slices_generic`` rejects them, so their files pin the
gb cells that run instead and the top-level ``"backend": "gb"`` that
reports it.  The files pin output bytes, not correctness.
"""

import contextlib
import io
from pathlib import Path

import pytest

from equidim.cli import main

DATA = Path(__file__).parent / "data"

CASES = [
    ("ps3", ["gen-ps", "3"], "witness"),
    ("ps3", ["gen-ps", "3"], "gb"),
    ("sos23", ["gen-sos", "2", "3"], "witness"),
    ("sos23", ["gen-sos", "2", "3"], "gb"),
    ("ps4", ["gen-ps", "4"], "witness"),
    ("tiny_gf5", None, "witness"),
    ("tiny_gf7", None, "witness"),
    ("tiny_gf11", None, "witness"),
]


def _cli(args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("name,gen,backend", CASES,
                         ids=[f"{n}-{b}" for n, _, b in CASES])
def test_run_json_bytes_unchanged(tmp_path, name, gen, backend):
    if gen is None:
        path = DATA / f"{name}.txt"
    else:
        path = tmp_path / f"{name}.txt"
        path.write_text(_cli(gen + ["--seed", "0"]))
    got = _cli(["run", str(path), "--backend", backend, "--seed", "0"])
    expected = (DATA / f"golden_{name}_{backend}.json").read_text()
    assert got == expected
