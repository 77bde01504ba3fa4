import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equidim
from equidim import cli
from equidim.cli import main


def run_cli(args, stdin=None, capsys=None):
    """Invoke main() in-process, capturing stdout."""
    import io
    import contextlib

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


EXAMPLE = """vars x, y, z, w
x*y
z*w
x*z
"""


def test_run_example_system(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text(EXAMPLE)
    code, out, err = run_cli(["run", str(path), "--seed", "3"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["cell_count"] == 2
    dims = sorted(c["dimension"] for c in doc["cells"])
    degs = sorted(c["degree"] for c in doc["cells"])
    assert dims == [2, 2] and degs == [1, 2]
    assert doc["input"]["characteristic"] == 65521


def test_run_empty_system(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("vars x, y, z\n")
    code, out, _ = run_cli(["run", str(path)])
    doc = json.loads(out)
    assert doc["cell_count"] == 1
    assert doc["cells"][0]["dimension"] == 3
    assert doc["cells"][0]["degree"] == 1


def test_run_single_hyperplane(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("vars a, b, c, d, e\na\n")
    code, out, _ = run_cli(["run", str(path), "--backend", "gb"])
    doc = json.loads(out)
    assert doc["cell_count"] == 1
    assert doc["cells"][0]["dimension"] == 4
    assert doc["cells"][0]["degree"] == 1


def test_run_deterministic_bytes(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text(EXAMPLE)
    _, out1, _ = run_cli(["run", str(path), "--seed", "11"])
    _, out2, _ = run_cli(["run", str(path), "--seed", "11"])
    assert out1 == out2


def test_run_with_verification(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text(EXAMPLE)
    code, out, _ = run_cli(["run", str(path), "--verify", "fast", "--seed", "3"])
    doc = json.loads(out)
    assert doc["verification"]["passed"] is True
    code, out, _ = run_cli(["run", str(path), "--verify", "full", "--seed", "3"])
    doc = json.loads(out)
    assert doc["verification"]["passed"] is True
    assert all(doc["verification"]["top_dimension_ok"])


def test_run_reports_the_backend_that_ran():
    path = Path(__file__).parent / "data" / "tiny_gf5.txt"
    code, out, _ = run_cli(["run", str(path), "--verify", "full"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc)[:3] == ["input", "config", "backend"]
    assert doc["backend"] == "gb"
    assert doc["config"]["backend"] == "witness"
    assert doc["verification"]["passed"] is True
    assert all(doc["verification"]["top_dimension_ok"])


def test_run_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vars x\nq + 1\n")
    code, out, err = run_cli(["run", str(path)])
    assert code == 1
    assert "error" in err


def test_run_bad_char_flag(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("vars x\nx\n")
    code, _, err = run_cli(["run", str(path), "--char", "10"])
    assert code == 1


def test_run_char_override(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("vars x, y\nx^2 - y\n")
    code, out, _ = run_cli(["run", str(path), "--char", "7"])
    doc = json.loads(out)
    assert doc["input"]["characteristic"] == 7


def test_run_char_override_parses_coefficients_mod_new_char(tmp_path):
    # the file is parsed over GF(65521) first; -9 must be read again mod 7
    path = tmp_path / "sys.txt"
    path.write_text("vars x, y\nx^2 - 9*y\n")
    code, out, err = run_cli(["run", str(path), "--char", "7"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["cells"][0]["basis"] == ["x^2 + 5*y"]


def test_gen_ps_roundtrips_through_run(tmp_path):
    code, out, _ = run_cli(["gen-ps", "3", "--seed", "4"])
    assert code == 0
    path = tmp_path / "ps3.txt"
    path.write_text(out)
    code, out2, err = run_cli(["run", str(path), "--seed", "1"])
    assert code == 0, err
    doc = json.loads(out2)
    assert doc["cell_count"] >= 1


def test_gen_sos_output_shape():
    code, out, _ = run_cli(["gen-sos", "2", "3", "--seed", "5"])
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert lines[0].startswith("vars ")
    assert lines[1] == "char 65521"
    assert len(lines) == 2 + 3  # header + char + n polynomials


def test_classic_remove_flag(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text(EXAMPLE)
    code, out, _ = run_cli(["run", str(path), "--classic-remove", "--backend", "gb"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["classic_remove"] is True
    assert doc["cell_count"] == 2


def test_internal_error_exit_code_and_traceback(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "equidim", boom)
    path = tmp_path / "sys.txt"
    path.write_text(EXAMPLE)
    code, out, err = run_cli(["run", str(path)])
    assert code == 2 and out == ""
    assert "internal error: boom" in err
    assert "Traceback (most recent call last)" in err
    assert "RuntimeError: boom" in err


def test_console_script_entry_point():
    # the package need not be installed: point the child at the imported copy
    src = str(Path(equidim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "equidim.cli", "gen-ps", "3"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("vars ")
