"""Runs one workload in a fresh process; prints its measurements as one JSON line.

Usage: python3 worker.py <workload> <seed> <seconds> <trace 0|1>

A closed loop: one client, one thread, the operations of a pass in order,
passes repeated until ``seconds`` have gone by. With trace 0 every pass
is untraced. With trace 1 untraced and traced passes alternate, so the
per-layer numbers and the tracing overhead come from the same run.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import metrics  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "aisco.ofn"


def run_pass(ops: list[workloads.Op], tracer: tracing.Tracer | None) -> dict:
    """Run every operation once; ``scale`` is the machine speed during the pass."""
    meter = speed.Meter()
    seconds, failures = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        meter.tick()
        outcome = workloads.run_op(op, tracer)
        seconds.append(outcome.seconds)
        if not outcome.ok:
            failures.append(outcome.detail)
    meter.tick()
    return {"seconds": seconds, "failures": failures, "scale": meter.scale()}


def typical_pass(ops: list[workloads.Op], passes: list[dict], rescale: bool = False) -> list[float]:
    """Each operation's median time over the passes, in reference seconds if ``rescale``.

    Per operation, so that a burst of load from elsewhere on the machine
    that slows part of one pass is discarded rather than added to it.
    """
    return [statistics.median(p["seconds"][i] * (p["scale"] if rescale else 1.0) for p in passes)
            for i in range(len(ops))]


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100)[p - 1] if len(values) > 1 else values[0]


def main(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workloads.check_aisco(GOLDEN)
        ops = workloads.build(workload, seed, work)
        plain: list[dict] = []
        traced_passes: list[tuple[dict, list[tracing.Span]]] = []
        if traced:
            # the first pass pays for first-time costs; here it would count
            # only against the untraced side and hide the tracing overhead
            run_pass(ops, None)
        deadline = time.perf_counter() + seconds
        while True:
            plain.append(run_pass(ops, None))
            if traced:
                tracer = tracing.Tracer()
                traced_passes.append((run_pass(ops, tracer), tracer.spans))
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = plain + [p for p, _ in traced_passes]
    failures = [f for p in every for f in p["failures"]]
    typical = typical_pass(ops, plain)
    latencies = [p["seconds"][i] * 1000 for p in plain for i, op in enumerate(ops) if op.kind == "validate"]
    out = {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "passes": len(plain), "traced_passes": len(traced_passes),
        "attempted": len(ops) * len(every),
        "failed": len(failures), "failures": failures[:5],
        "wall_s": sum(typical),
        "wall_ref_s": sum(typical_pass(ops, plain, rescale=True)),
        "loop_ms": statistics.median(speed.REFERENCE_S / p["scale"] for p in plain) * 1000,
        "kinds": {k: sum(t for t, op in zip(typical, ops) if op.kind == k) for k in metrics.OPERATION_KINDS},
        "validate_samples": len(latencies),
        "validate_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "validate_p95_ms": percentile(latencies, 95) if latencies else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        per_pass = [tracing.layer_metrics(spans) for _, spans in traced_passes]
        out["layers"] = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        # in reference seconds: raw times drift between the two kinds of pass
        out["layers"]["trace.overhead_s"] = (
            sum(typical_pass(ops, [p for p, _ in traced_passes], rescale=True)) - out["wall_ref_s"])
        spans = traced_passes[-1][1]
        out["span_names"] = sorted({s.name for s in spans})
        out["spans"] = [[s.name, s.start, s.end, s.parent, s.op, s.info, s.error] for s in spans]
    return out


if __name__ == "__main__":
    name, seed_arg, seconds_arg, trace_arg = sys.argv[1:5]
    print(json.dumps(main(name, int(seed_arg), float(seconds_arg), trace_arg == "1")))
