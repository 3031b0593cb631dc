"""bcsim benchmark: one workload, timed as a user runs the bcsim CLI.

Usage (from the repository root):
    python3 perfbench/run.py --workload trace-bc --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from --seed, then runs the bcsim command in
one fresh process after another, sequentially, until --seconds have
passed. Each process's data output is checked against the SHA-256 recorded
in expected.json. The last stdout line is a JSON object with the end-to-end
metrics (--trace 0, medians over the processes) or the per-layer metrics
(--trace 1, from alternating untraced and traced processes). Metric names
and units come from BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench_out"
CHILD_TIMEOUT_S = 120
# Host times are scaled to a host on which child.py's reference loop takes
# this long; see "Noise and bounds" in NOTES.md.
REFERENCE_NOMINAL_S = 0.3
# Largest tolerated |root span by child.py's clock - sum of self times|,
# as a share of the root span.
ACCOUNTING_TOLERANCE = 1e-3


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def host_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine()}


def run_child(mode: str, argv: list[str], spans: Path):
    """Run one bcsim command in a fresh process; return (spawn stamp, child report) or None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = now()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), mode, str(spans), "--", *argv],
                            stdout=subprocess.PIPE, env=env, cwd=REPO)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: {mode} process timed out", file=sys.stderr)
        return None
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {mode} process exited with {proc.returncode}", file=sys.stderr)
        return None
    report = json.loads(lines[-1])
    if report["exit_code"] != 0:
        print(f"perfbench: bcsim exited with {report['exit_code']}", file=sys.stderr)
        return None
    return start, report


def speed_scale(report: dict) -> float:
    """Nominal over measured reference-loop time; above 1 while the host runs fast."""
    return 2 * REFERENCE_NOMINAL_S / (report["reference_before_s"] + report["reference_after_s"])


def end_to_end(start: float, report: dict) -> dict:
    """End-to-end metrics of one process, in host time scaled to the nominal host speed.

    The reference loop before the command runs inside [spawn, simulate
    start], so its duration is taken out of wall_s and setup_s.
    """
    scale = speed_scale(report)
    reference = report["reference_before_s"]
    return {
        "accesses_per_s": report["accesses"] / ((report["sim_end"] - report["sim_start"]) * scale),
        "wall_s": (report["done"] - start - reference) * scale,
        "setup_s": (report["sim_start"] - start - reference) * scale,
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
    }


def traced_layers(dump: dict, report: dict):
    """Per-layer values of one traced process, or None if its spans do not add up.

    The self times of all spans must sum to the root span as child.py's own
    clock measured it around the tracer. This catches spans outside the
    root and a tracer that loses or double-counts time. Time inside the
    root that no wrapper covers is not caught: it is counted in the self
    time of the nearest wrapped caller, such as cli.self_s.
    """
    agg = dump["agg"]
    root = report["root_end"] - report["root_start"]
    residual = root - sum(entry["self_s"] for entry in agg.values())
    if abs(residual) > ACCOUNTING_TOLERANCE * root:
        print(f"perfbench: span self times miss the root by {residual:.3g} s", file=sys.stderr)
        return None
    values = dict(dump["counts"])
    for name, entry in agg.items():
        for field in ("calls", "s", "self_s"):
            values[f"{name}.{field}"] = entry[field]
    accesses = agg.get("simulator.access", {}).get("calls", 0)
    values["simulator.avg_latency_cycles"] = (
        values.get("latency_cycles", 0) / accesses if accesses else 0.0)
    lookups = agg.get("core.l1d.lookup", {}).get("calls", 0)
    values["core.l1d.hit_ratio"] = values.get("l1d_hits", 0) / lookups if lookups else 0.0
    values["bench.accounting_residual_s"] = residual
    return values


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "bcsim" / "cli.py").is_file():
        print(f"perfbench: no bcsim sources under {SRC}", file=sys.stderr)
        return 2
    with open(REPO / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    index = workloads.pool_index(args.seed)
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)[args.workload][str(index)]
    work = WORK / args.workload
    argv, out_path = workloads.prepare(args.workload, index, work)
    spans = work / "spans.json"

    plain, traced, scales, attempted_procs, failed_procs = [], [], [], 0, 0
    deadline = now() + args.seconds
    while True:
        for mode in ("plain", "traced") if args.trace else ("plain",):
            attempted_procs += 1
            out_path.unlink(missing_ok=True)
            ran = run_child(mode, argv, spans)
            if ran is None or not out_path.exists():
                failed_procs += 1
            elif sha256(out_path) != expected["sha256"]:
                print(f"perfbench: {mode} output digest differs from expected.json",
                      file=sys.stderr)
                failed_procs += 1
            elif mode == "plain":
                plain.append(end_to_end(*ran))
                scales.append(speed_scale(ran[1]))
            else:
                layers = traced_layers(json.loads(spans.read_text()), ran[1])
                if layers is None:
                    failed_procs += 1
                else:
                    traced.append((end_to_end(*ran)["wall_s"], layers))
        if now() >= deadline:
            break

    if not plain or (args.trace and not traced):
        print("perfbench: no process completed correctly", file=sys.stderr)
        return 1
    if args.trace:
        names = {name for _, layers in traced for name in layers}
        values = {name: statistics.median(layers.get(name, 0) for _, layers in traced)
                  for name in names}
        values["bench.tracing_overhead_s"] = (
            statistics.median(wall for wall, _ in traced)
            - statistics.median(row["wall_s"] for row in plain))
    else:
        values = {name: statistics.median(row[name] for row in plain) for name in plain[0]}

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in metric_specs}
    host = host_facts()
    print(f"perfbench {args.workload} seed={args.seed} pool_index={index} "
          f"processes={attempted_procs} host nproc={host['nproc']} python={host['python']} "
          f"speed_scale={statistics.median(scales):.4f}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed_procs == 0,
        "attempted": attempted_procs * expected["accesses"],
        "failed": failed_procs * expected["accesses"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
