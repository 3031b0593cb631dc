"""Paired timing of a git revision of bcsim against the work tree, in one process.

Usage (from the repository root):
    python tests/ab.py REV

Loads src/bcsim of `git archive REV` as the package bcsim_rev and the work
tree's src/bcsim as bcsim_work, side by side in this process. The inputs of
the benchmark's workloads (trace-bc, trace-baseline, attack-aes) come from
perfbench/workloads.py, imported as it is, for the pool index of seed 1;
their command lines are read with the work tree's parser. Each workload
first runs once on both trees, which must give equal stats and state
digests (the trace workloads) or equal latencies and plaintexts
(attack-aes). Then the two trees alternate for 21 rounds, the first
to run swapping every round, timing the phases the benchmark's
accesses_per_s covers: parse_trace and Simulator.run for a trace,
run_aes_attack for the attack.

Per workload and phase it prints the median time of each tree, the median
of the per-round ratios REV time / work-tree time (above 1: the work tree
is faster), their interquartile range and the rounds the work tree won.
Host noise hits both trees of a round alike, so the ratio is meant to
resolve a few percent where separate processes cannot; it does not yet
agree with fresh-process pairs of perfbench/run.py on every workload, so
its figures back no performance claim on their own. The file name has no test_
prefix, so Tier-1 never collects it.
"""

import gc
import importlib
import importlib.util
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))
import workloads  # noqa: E402  (perfbench/workloads.py)

ROUNDS = 21
SEED = 1


def load_tree(name: str, package_dir: Path) -> dict:
    """Import the bcsim package in package_dir as name; return its modules by short name."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {sub: importlib.import_module(f"{name}.{sub}")
            for sub in ("cli", "trace", "simulator", "attacks")}


def extract_rev(rev: str, dest: Path) -> Path:
    """Write src/bcsim of git revision rev under dest; return the package directory."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src/bcsim"], cwd=REPO,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:  # Python before 3.10.12 has no extraction filters
            archive.extractall(dest)
    return dest / "src" / "bcsim"


def timed(fn, *args):
    """(seconds, result) of fn(*args), after a full collection so that no
    garbage from the other tree's run is collected inside it."""
    gc.collect()
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def trace_round(tree: dict, args) -> tuple[dict, tuple]:
    """Parse the trace and run it on a fresh simulator: phase times and the comparable result."""
    config = tree["cli"].load_config(args.config_path, args.seed)
    with open(args.trace_path, encoding="utf-8") as fh:
        parse_s, records = timed(tree["trace"].parse_trace, fh)
    sim = tree["simulator"].Simulator(config)
    run_s, stats = timed(sim.run, records)
    return {"parse": parse_s, "run": run_s}, (stats.as_dict(), sim.state_digest())


def aes_round(tree: dict, args) -> tuple[dict, tuple]:
    """Run the AES attack: its time and the comparable result."""
    config = tree["cli"].load_config(args.config_path, args.seed)
    run_s, result = timed(tree["attacks"].run_aes_attack, config, args.samples,
                          bytes.fromhex(args.key_hex))
    return {"run": run_s}, (result.latencies.tolist(), result.plaintexts)


def compare(workload: str, trees: dict, args) -> list[tuple]:
    """Check that both trees agree, then alternate them; one report row per phase."""
    one_round = aes_round if workload == "attack-aes" else trace_round
    outputs = {side: one_round(tree, args)[1] for side, tree in trees.items()}
    if outputs["rev"] != outputs["work"]:
        raise SystemExit(f"ab: {workload}: the two trees give different results")
    times: dict[str, dict[str, list[float]]] = {"rev": {}, "work": {}}
    for i in range(ROUNDS):
        for side in ("rev", "work") if i % 2 == 0 else ("work", "rev"):
            for phase, seconds in one_round(trees[side], args)[0].items():
                times[side].setdefault(phase, []).append(seconds)
    rows = []
    for phase, rev_s in times["rev"].items():
        work_s = times["work"][phase]
        ratios = [r / w for r, w in zip(rev_s, work_s)]
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        rows.append((workload, phase, statistics.median(rev_s), statistics.median(work_s),
                     statistics.median(ratios), q1, q3, sum(r > 1 for r in ratios)))
    return rows


def main() -> int:
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    rev = sys.argv[1]
    index = workloads.pool_index(SEED)
    with tempfile.TemporaryDirectory(prefix="bcsim-ab-") as tmp:
        trees = {"rev": load_tree("bcsim_rev", extract_rev(rev, Path(tmp) / "rev")),
                 "work": load_tree("bcsim_work", REPO / "src" / "bcsim")}
        print(f"ab: {rev} against the work tree, pool index {index}, "
              f"{ROUNDS} rounds, Python {sys.version.split()[0]}")
        print(f"{'workload':15s} {'phase':6s} {'rev ms':>8s} {'work ms':>8s} "
              f"{'ratio':>7s} {'IQR':>15s} {'wins':>6s}")
        for workload in workloads.WORKLOADS:
            argv, _ = workloads.prepare(workload, index, Path(tmp) / workload)
            args = trees["work"]["cli"]._parser().parse_args(argv)
            for name, phase, rev_s, work_s, ratio, q1, q3, wins in compare(
                    workload, trees, args):
                print(f"{name:15s} {phase:6s} {rev_s * 1e3:8.1f} {work_s * 1e3:8.1f} "
                      f"{ratio:7.3f} {q1:7.3f}-{q3:<7.3f} {wins:3d}/{ROUNDS}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
