"""Benchmark of equidim: decomposition time, correctness, set-up and memory.

Usage (from the repository root):

    python3 perfbench/run.py --workload families-witness --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  Each workload runs in fresh worker processes; see
perfbench/README.md for the workloads and what every metric means.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, with
per-system digests, are also written under ``.perfbench/`` for
``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150

# Pinned so that runs compare: one BLAS thread (the matrices are small
# and the machine is shared) and a fixed string-hash seed.
WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def spawn(args: argparse.Namespace, mode: str, extra: list[str]) -> tuple[float, dict]:
    """Run one worker; return (set-up seconds from its start, its final JSON line)."""
    env = dict(os.environ, **WORKER_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size] + extra
    t_start = time.time()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return lines[0]["ready"] - t_start, lines[-1]


def metric_specs(trace: bool) -> list[dict]:
    spec = json.loads(SPEC.read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="equidim benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", choices=("full", "toy"),
                    help="toy: a few small systems, for the benchmark's own tests")
    ap.add_argument("--inject-raise", action="store_true",
                    help="add a system on which equidim() raises (tests only)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "equidim" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no equidim sources under {ROOT / 'src'} (or no BENCHMARK.json);"
              " run from a full checkout", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--inject-raise"] if args.inject_raise else []
    if args.trace:
        extra += ["--spans", str(OUT_DIR / f"{tag}.spans.jsonl")]
    # set-up in reference seconds, one sample per fresh process
    setup_samples = []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        seconds, probe = spawn(args, "setup", extra)
        setup_samples.append(seconds * probe["notes"]["setup_scale"])
    seconds, result = spawn(args, "trace" if args.trace else "measure", extra)

    raw = dict(result["metrics"])
    notes = result["notes"]
    attempted = result["systems"]
    failed = len(result["failed"])
    raw["wrong_frac"] = failed / attempted
    if not args.trace:
        setup_samples.append(seconds * notes["setup_scale"])
        raw["ok_frac"] = 1.0 - raw["wrong_frac"]
        raw["setup_s"] = statistics.median(setup_samples)
        notes["setup_samples"] = setup_samples

    metrics = {}
    for m in metric_specs(bool(args.trace)):
        metrics[m["name"]] = {"value": raw[m["name"]], "unit": m["unit"]}
    problems = result["problems"]

    print(f"workload {args.workload}  seed {args.seed}  systems {attempted}  trace {args.trace}")
    print("  " + "  ".join(f"{k} {_fmt(v)}" for k, v in notes.items()))
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    for name in sorted(set(raw) - set(metrics)):
        print(f"  {name:<48} {raw[name]:>14.6g} (not in BENCHMARK.json)")
    for sid, f in sorted(result["failed"].items(), key=lambda kv: int(kv[0])):
        print(f"  FAILED system {sid} ({f['label']}): " + "; ".join(f["reasons"]))
    for p in problems:
        print(f"  PROBLEM: {p}")

    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, metrics=raw, workload=args.workload, seed=args.seed)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not problems and _families_clean(args.workload, failed),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_fmt(v)}" for k, v in value.items()) + "}"
    return str(value)


def _families_clean(workload: str, failed: int) -> bool:
    """The gb backend and GF(65521) witness runs must be exact.

    Tiny-field failures are the witness backend's known error rate over
    GF(5..11); they are counted in ``failed`` and the fractions instead.
    """
    return workload == "tiny-field" or failed == 0


if __name__ == "__main__":
    sys.exit(main())
