"""fmc benchmark: seeded workloads through the CLI, checked outputs, named metrics.

Usage (from the repository root):

    python3 benchmark/run.py --workload analyze|ontology|consume --seed N \\
        --seconds S --trace 0|1

The workload runs in a fresh child process (``worker.py``). With
``--trace 0`` the command reports the end-to-end metrics, with
``--trace 1`` the per-layer ones (see ``metrics.py``) and writes every
span of the last traced pass to ``.bench_trace/``. Every metric is
printed by name with its unit; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 15
# A fresh interpreter imports the CLI and builds its parser; input
# generation is not part of it.
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
              "import fmc.cli; fmc.cli.build_parser(); print(time.perf_counter() - t)")
DEADLINE_S = 175


def setup_seconds() -> float:
    """Median over fresh interpreters, in reference seconds (see ``speed.py``).

    The first interpreter may write bytecode caches and is not counted.
    """
    times = []
    for _ in range(SETUP_PROBES + 1):
        meter = speed.Meter()
        meter.tick()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src")],
                             cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
        meter.tick()
        times.append(float(out.stdout) * meter.scale())
    return statistics.median(times[1:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "fmc" / "cli.py", ROOT / "tests" / "data" / "aisco.ofn"]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not an fmc checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    started = time.monotonic()
    setup = setup_seconds() if not args.trace else None
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
             str(args.seconds), str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"error: workload process exited with {child.returncode}", file=sys.stderr)
        return 1
    run = json.loads(child.stdout.splitlines()[-1])

    print(f"# fmc benchmark: workload {run['workload']}, seed {run['seed']}, "
          f"python {run['python']}, nproc {run['nproc']}, "
          f"{run['passes']} untraced and {run['traced_passes']} traced passes, "
          f"{run['attempted']} operations")
    for detail in run["failures"]:
        print(f"# failed: {detail}")
    kinds = {f"{k}_s": v for k, v in run["kinds"].items()}
    kinds["validate_p50_ms"] = run["validate_p50_ms"]
    kinds["validate_p95_ms"] = run["validate_p95_ms"]
    kinds["failed_ratio"] = run["failed"] / run["attempted"]
    kinds["wall_s"] = run["wall_s"]
    kinds["machine.loop_ms"] = run["loop_ms"]
    if args.trace:
        values = {**kinds, **run["layers"]}
        specs = {name: spec[:2] for name, spec in metrics.PER_LAYER.items()}
        write_spans(args, run, values)
    else:
        values = {"wall_ref_s": run["wall_ref_s"], "setup_s": setup, "peak_rss_mb": run["peak_rss_mb"]}
        specs = metrics.END_TO_END
        # the raw times, also reported as per-layer metrics on a traced run
        for name, value in kinds.items():
            print(f"# {name} {value:.6g} {metrics.PER_LAYER[name][0]}")
    print(f"# validate latency over {run['validate_samples']} commands")
    if args.trace:
        print("# spans seen: " + ", ".join(run["span_names"]))
    for name, (unit, _) in specs.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, (unit, _) in specs.items()},
    }))
    return 0


def write_spans(args, run: dict, values: dict) -> None:
    out = ROOT / ".bench_trace"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}.json"
    report = {key: run[key] for key in ("workload", "seed", "python", "nproc", "passes",
                                        "traced_passes", "span_names")}
    report["metrics"] = values
    report["spans"] = {"fields": ["name", "start", "end", "parent", "op", "info", "error"],
                       "rows": run["spans"]}
    path.write_text(json.dumps(report), encoding="utf-8")
    print(f"# spans of the last traced pass written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
