"""Run every workload over several seeds and report medians and spreads.

Usage (from the repository root):
    python3 perfbench/sweep.py [--first-seed 1] [--traced] [--trajectory LABEL]

Each workload gets ten runs, each one `perfbench/run.py` invocation with
its own seed and the BENCHMARK.json run_seconds. For each end-to-end metric
the table shows the median and the spread: the distance between the first
and third quartiles (statistics.quantiles, n=4) as a share of the median,
next to the metric's bound. --traced adds one traced run per workload.
--trajectory appends the result, with host facts, as a new entry of
trajectory.json. The exit code is 0 only if every run was correct and
every spread is within its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from datetime import datetime, timezone

import workloads
from run import HERE, REPO, host_facts

RUNS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=REPO, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trajectory", metavar="LABEL")
    args = parser.parse_args()
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    entry = {"label": args.trajectory,
             "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
             "host": host_facts(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    passed = True
    for workload in workloads.WORKLOADS:
        results = [bench(workload, seed, seconds, 0) for seed in seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{workload}: attempted={attempted} failed={failed} correct={correct}")
        summary = {"attempted": attempted, "failed": failed, "correct": correct, "metrics": {}}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < metric["bound"] / 3 else "  <-- above bound/3"
            passed = passed and spread <= metric["bound"]
            print(f"  {name:<16} median={med:<12.6g} {metric['unit']:<4} "
                  f"spread={spread:.4f} bound={metric['bound']}{flag}")
            print("    values: " + " ".join(f"{v:.6g}" for v in values))
            summary["metrics"][name] = {"unit": metric["unit"], "median": med, "q1": q1,
                                        "q3": q3, "values": values}
        if args.traced:
            traced = bench(workload, seeds[0], seconds, 1)
            summary["per_layer_seed"] = seeds[0]
            summary["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            summary["correct"] = summary["correct"] and traced["correct"]
        passed = passed and summary["correct"]
        entry["workloads"][workload] = summary
    if args.trajectory:
        path = HERE / "trajectory.json"
        history = json.loads(path.read_text()) if path.exists() else []
        history.append(entry)
        path.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
