"""Tests of the benchmark itself, at toy size.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import equidim  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def toy(workload: str, trace: int, *extra: str) -> dict:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--size", "toy", *extra)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def record(workload: str, trace: int) -> dict:
    return json.loads((ROOT / ".perfbench" / f"{workload}-seed3-trace{trace}.json").read_text())


def test_spec_lists_every_workload():
    assert WORKLOADS == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_spec(workload, trace):
    result = toy(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if workload != "tiny-field":
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    runs = [toy(workload, 1) for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] in ("count", "ratio") or k == "wrong_frac"} for r in runs]
    assert counts[0] and counts[0] == counts[1]
    assert runs[0]["failed"] == runs[1]["failed"]


def test_injected_raise_is_a_counted_failure():
    clean = toy("families-witness", 0)
    result = toy("families-witness", 0, "--inject-raise")
    assert result["attempted"] == clean["attempted"] + 1
    assert result["failed"] == 1
    assert result["correct"] is False  # the families must decompose without failures
    ok = result["metrics"]["ok_frac"]["value"]
    assert ok == pytest.approx(1 - 1 / result["attempted"])
    (failure,) = record("families-witness", 0)["failed"].values()
    assert failure["label"] == "injected-raise"
    assert failure["reasons"] == ["equidim raised ContractViolation: unknown backend "
                                  "'no-such-backend'"]


def test_reproducer_is_one_failure_in_tiny_field():
    result = toy("tiny-field", 0)
    assert result["correct"] is True
    assert result["failed"] >= 1
    failed = record("tiny-field", 0)["failed"].values()
    raised = [f for f in failed if f["reasons"][0].startswith("equidim raised")]
    assert [f["label"] for f in raised] == ["GF(5)#reproducer"]
    assert "degree is defined for zero-dimensional ideals only" in raised[0]["reasons"][0]


def test_tracer_restores_every_name():
    names = {}
    for mod in tracer_mod._equidim_modules():
        names[mod.__name__] = dict(vars(mod))
    classes = {c: dict(vars(c)) for c in (equidim.AffineCell, equidim.GCache)}
    t = tracer_mod.Tracer()
    t.install()
    assert equidim.saturate is not names["equidim"]["saturate"]
    assert equidim.cells.saturate is equidim.groebner.saturate is equidim.saturate
    t.restore()
    for mod in tracer_mod._equidim_modules():
        assert dict(vars(mod)) == names[mod.__name__]
    for cls, attrs in classes.items():
        assert dict(vars(cls)) == attrs


def test_tracer_records_nested_self_time():
    t = tracer_mod.Tracer()
    t.install()
    try:
        t.start_pass()
        system = equidim.gen_sos(2, 3, random.Random(0))
        ring = system.ring()
        equidim.equidim(system.polynomials(ring), ring)
    finally:
        t.restore()
    calls, self_s, total_s = t.pass_profile(0)
    assert calls["decomp.equidim"] == 1 and calls["systems.gen_sos"] == 1
    assert calls["groebner.buchberger"] > 0
    assert sum(self_s.values()) == pytest.approx(
        total_s["decomp.equidim"] + total_s["systems.gen_sos"], rel=1e-6)


def test_inputs_depend_only_on_seed():
    for w in WORKLOADS:
        assert workloads.build_cases(w, 5) == workloads.build_cases(w, 5)
        assert workloads.build_cases(w, 5) != workloads.build_cases(w, 6)


def test_digest_diff_reports_changed_systems():
    a = {"labels": ["s0", "s1", "s2"], "digests": ["x", "y", "z"]}
    b = {"labels": ["s0", "s1", "s2"], "digests": ["x", "Y", "z"]}
    assert compare.digest_diff(a, a) == []
    assert compare.digest_diff(a, b) == ["s1"]
    with pytest.raises(ValueError):
        compare.digest_diff(a, {"labels": ["t0"], "digests": ["x"]})


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
