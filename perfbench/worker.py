"""One benchmark process: set up, time passes, optionally trace, check.

``run.py`` starts this file in a fresh interpreter.  The process prints
one JSON line ``{"ready": <time.time()>}`` when set-up ends, so that the
parent can time set-up from process start, and one JSON line with its
results at the end.  Modes:

* ``setup``: set up and exit (an extra set-up sample);
* ``measure``: untraced timed passes, then the checks;
* ``trace``: untraced passes, then traced passes with every layer
  wrapped, then the checks and the traced-equals-untraced digest check.

A pass decomposes every system of the workload once.  Passes repeat
until the time budget would be exceeded, with a floor on their number.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import equidim  # noqa: E402
import equidim.systems  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED, Tracer, span_name  # noqa: E402

MIN_PASSES = {"measure": 3, "trace": 2}
CHUNK_S = 0.25


@dataclass
class Input:
    case: workloads.Case
    ring: object
    polys: list
    config: equidim.DecompConfig


def prepare(cases) -> list[Input]:
    """Parse every case's text into the ring, polynomials and config."""
    out = []
    for case in cases:
        system = equidim.systems.parse_system(case.text)
        ring = system.ring()
        config = equidim.DecompConfig(backend=case.backend, seed=case.config_seed)
        out.append(Input(case, ring, system.polynomials(ring), config))
    return out


def build_inputs(args) -> list[Input]:
    cases = workloads.build_cases(args.workload, args.seed, args.size)
    if args.inject_raise:
        # an unknown backend makes equidim() raise ContractViolation
        cases.append(workloads.Case("injected-raise", cases[0].text, "no-such-backend", 0,
                                    cases[0].reference))
    return prepare(cases)


def warm_up(inputs: list[Input]) -> None:
    system = equidim.systems.parse_system(workloads.warmup_text())
    ring = system.ring()
    for backend in sorted({i.config.backend for i in inputs} & {"gb", "witness"}):
        equidim.equidim(system.polynomials(ring), ring, equidim.DecompConfig(backend=backend))


def signature(out) -> object:
    if isinstance(out, BaseException):
        return checks.describe(out)
    return out.annotations


@dataclass
class Passes:
    """What a series of timed passes measured.

    Times are in reference seconds (see calibration.py): calls run in
    chunks of about ``CHUNK_S`` seconds, and each chunk is scaled by the
    calibration kernel timed just before and just after it.
    """

    walls: list[float] = field(default_factory=list)
    calls: list[list[float]] = field(default_factory=list)  # per system
    raw_walls: list[float] = field(default_factory=list)  # measured seconds
    kernel: list[float] = field(default_factory=list)  # calibration samples
    first: list = field(default_factory=list)  # outputs of the first pass
    counts: dict = field(default_factory=dict)  # DecompTrace counts, first pass
    deterministic: bool = True

    @property
    def wall(self) -> float:
        return statistics.median(self.walls)


def run_passes(inputs, budget_s, min_passes, tracer=None) -> Passes:
    """Timed passes over all inputs until the budget is spent."""
    res = Passes(calls=[[] for _ in inputs])
    res.counts = {"decomp.proper_cuts": 0, "decomp.improper_splits": 0}
    clock = time.perf_counter
    start = clock()
    res.kernel.append(calibration.kernel_time())
    while True:
        if tracer is not None:
            tracer.start_pass()
        outputs, chunk, wall, raw = [], [], 0.0, 0.0
        t_chunk = clock()
        for sid, inp in enumerate(inputs):
            trace = None
            if tracer is not None:
                tracer.system_id = sid
                trace = equidim.DecompTrace()
            t0 = clock()
            try:
                out = equidim.equidim(inp.polys, inp.ring, inp.config, trace=trace)
            except Exception as exc:  # a raising system is a failed result, not a crash
                out = exc
            t1 = clock()
            raw += t1 - t0
            chunk.append((sid, t1 - t0))
            outputs.append(out)
            if trace is not None and not res.first:
                res.counts["decomp.proper_cuts"] += len(trace.proper)
                res.counts["decomp.improper_splits"] += len(trace.improper)
            if t1 - t_chunk >= CHUNK_S or sid == len(inputs) - 1:
                res.kernel.append(calibration.kernel_time())
                k = calibration.scale(res.kernel[-2:])
                for i, dt in chunk:
                    res.calls[i].append(dt * k)
                    wall += dt * k
                chunk = []
                t_chunk = clock()
        res.walls.append(wall)
        res.raw_walls.append(raw)
        if not res.first:
            res.first = outputs
        elif [signature(o) for o in outputs] != [signature(o) for o in res.first]:
            res.deterministic = False
        elapsed = clock() - start
        if len(res.walls) >= min_passes and elapsed + statistics.median(res.raw_walls) > budget_s:
            return res


def tail(xs: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples above it.

    With fewer than 21 samples no percentile above the median has ten
    samples above it, and the largest sample is reported instead.
    """
    xs = sorted(xs)
    rank = len(xs) - 11 if len(xs) > 20 else len(xs) - 1
    return xs[rank], 100.0 * (rank + 1) / len(xs)


def failures(inputs, outputs) -> dict:
    failed = {}
    for sid, (inp, out) in enumerate(zip(inputs, outputs)):
        reasons = checks.failures(inp.case, inp.ring, inp.polys, out)
        if reasons:
            failed[sid] = {"label": inp.case.label, "reasons": reasons}
    return failed


def digests(outputs) -> list[str]:
    return [checks.describe(out) if isinstance(out, BaseException) else checks.digest(out)
            for out in outputs]


def end_to_end(res: Passes) -> tuple[dict, dict]:
    """(metrics, notes with sample counts and the measured seconds).

    Each system's call time is its median over the passes, which keeps
    a slow chunk from moving any one system; the metrics are taken over
    those per-system times.
    """
    per_system = [statistics.median(ts) for ts in res.calls]
    value, pct = tail(per_system)
    metrics = {
        "wall_s": sum(per_system),
        "solve_p50_s": statistics.median(per_system),
        "solve_tail_s": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"systems": len(per_system), "passes": len(res.walls),
             "tail_percentile": pct, "pass_wall_s": res.wall,
             "raw_pass_wall_s": statistics.median(res.raw_walls),
             "kernel_ms": 1000 * statistics.median(res.kernel)}
    return metrics, notes


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, counts: dict) -> tuple[dict, bool]:
    """Per-layer metrics and whether every traced pass made the same calls.

    Pass 0 built the inputs, so the systems layer is read from it; the
    other layers from the timed passes: counts from the first, times as
    medians over all of them.
    """
    build = tracer.pass_profile(0)
    timed = [tracer.pass_profile(k) for k in range(1, len(tracer.passes))]
    calls, counters = timed[0][0], tracer.counters[1]
    stable = all(p[0] == calls for p in timed) and all(
        c == counters for c in tracer.counters[1:])
    metrics = dict(counts)
    for layer, targets in TRACED.items():
        profiles = [build] if layer == "systems" else timed
        names = [span_name(module, path) for module, path in targets]
        for name in names:
            metrics[f"{name}.calls"] = profiles[0][0][name]
            metrics[f"{name}.self_s"] = statistics.median(p[1][name] for p in profiles)
        metrics[f"{layer}.self_s"] = statistics.median(
            sum(p[1][name] for name in names) for p in profiles)
    metrics["decomp.equidim.total_s"] = statistics.median(p[2]["decomp.equidim"] for p in timed)
    metrics["cells.AffineCell.basis.compute_ratio"] = _ratio(
        counters["cells.AffineCell.basis.computed"], calls["cells.AffineCell.basis"])
    metrics["groebner.buchberger.unit_ratio"] = _ratio(
        counters["groebner.buchberger.unit"], calls["groebner.buchberger"])
    metrics["groebner.buchberger.out_gens"] = counters["groebner.buchberger.out_gens"]
    metrics["zerodim.quotient.build_ratio"] = _ratio(
        calls["zerodim.QuotientStructure.__init__"], calls["zerodim.quotient"])
    metrics["zerodim.quotient.dim_max"] = counters["zerodim.quotient.dim_max"]
    metrics["zerodim.low_degree_colon.hit_ratio"] = _ratio(
        counters["zerodim.low_degree_colon.hits"], calls["zerodim.low_degree_colon"])
    return metrics, stable


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--size", default="full", choices=workloads.SIZES)
    ap.add_argument("--inject-raise", action="store_true")
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)

    inputs = build_inputs(args)
    warm_up(inputs)
    print(json.dumps({"ready": time.time()}), flush=True)
    if args.mode == "setup":
        samples = [calibration.kernel_time() for _ in range(3)]
        print(json.dumps({"notes": {"setup_scale": calibration.scale(samples)}}), flush=True)
        return 0

    budget = args.seconds if args.mode == "measure" else args.seconds / 2
    min_passes = MIN_PASSES[args.mode]
    res = run_passes(inputs, budget, min_passes)
    result = {"systems": len(inputs), "problems": []}
    if args.mode == "measure":
        result["metrics"], result["notes"] = end_to_end(res)
        result["call_times"] = res.calls
        traced = None
    else:
        tracer = Tracer()
        tracer.install()
        try:
            tracer.start_pass()
            traced_inputs = build_inputs(args)
            traced = run_passes(traced_inputs, budget, min_passes, tracer)
        finally:
            tracer.restore()
        metrics, stable = per_layer(tracer, traced.counts)
        if not stable:
            result["problems"].append("traced passes disagree on call counts")
        metrics["trace_overhead_frac"] = (traced.wall - res.wall) / res.wall
        result["metrics"] = metrics
        result["notes"] = {"passes": len(res.walls), "traced_passes": len(traced.walls)}
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            with args.spans.open("w") as fh:
                tracer.dump(fh)
    result["notes"]["setup_scale"] = calibration.scale(res.kernel[:1])
    result["digests"] = digests(res.first)
    if traced is not None:
        diff = [inp.case.label for inp, a, b in
                zip(inputs, result["digests"], digests(traced.first)) if a != b]
        if diff:
            result["problems"].append("traced output differs from untraced on " + ", ".join(diff))
    if not (res.deterministic and (traced is None or traced.deterministic)):
        result["problems"].append("outputs differ between passes")
    result["failed"] = failures(inputs, res.first)
    result["labels"] = [i.case.label for i in inputs]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
