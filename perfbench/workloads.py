"""Benchmark workloads: seeded input generation and the bcsim command each one runs.

Every workload is a pure function of a pool index derived from the
benchmark seed, so the expected output digests recorded in expected.json
cover every seed the benchmark can be given.
"""

import random
from pathlib import Path

# Seeds are folded into this many distinct inputs, each with a recorded digest.
POOL_SIZE = 32

# Trace shape (64-byte lines): 70% of accesses go to a hot set that fits
# the 16KB L1D, 25% to a warm set that fits the 1MB L2 but exceeds
# L1D + backup (32KB), 5% stream through a region larger than the L2.
TRACE_RECORDS = 100_000
LINE = 64
HOT_LINES = 192            # 12KB
WARM_LINES = 2048          # 128KB
COLD_LINES = 1 << 18       # 16MB, never wraps within one trace
P_HOT, P_WARM = 0.70, 0.95
P_STORE = 0.20
P_CTXSWITCH = 1 / 2500
P_INVALIDATE = 0.005

AES_SAMPLES = 300
AES_SEED_BASE = 1000

# baseline_config() expressed as a CLI config file.
BASELINE_YAML = "mode: baseline\nl1d: {line_bytes: 64, sets: 128, ways: 4, hit_cycles: 2}\n"

WORKLOADS = ("trace-bc", "trace-baseline", "attack-aes")


def pool_index(seed: int) -> int:
    return seed % POOL_SIZE


def trace_text(index: int) -> str:
    """Synthetic load/store/CS/INV trace for one pool index."""
    rng = random.Random(index)
    hot = 0x10000000 + rng.randrange(64) * LINE
    warm = 0x40000000 + rng.randrange(2048) * LINE
    cold = 0x80000000 + rng.randrange(2048) * LINE
    next_cold = 0
    out = [f"# perfbench synthetic trace, pool index {index}"]
    for _ in range(TRACE_RECORDS):
        r = rng.random()
        if r < P_CTXSWITCH:
            out.append("CS")
            continue
        if r < P_CTXSWITCH + P_INVALIDATE:
            if rng.random() < P_HOT:
                addr = hot + rng.randrange(HOT_LINES) * LINE
            else:
                addr = warm + rng.randrange(WARM_LINES) * LINE
            out.append(f"INV {addr:#x}")
            continue
        region = rng.random()
        if region < P_HOT:
            line = hot + rng.randrange(HOT_LINES) * LINE
        elif region < P_WARM:
            line = warm + rng.randrange(WARM_LINES) * LINE
        else:
            line = cold + (next_cold % COLD_LINES) * LINE
            next_cold += 1
        op = "W" if rng.random() < P_STORE else "R"
        out.append(f"{op} {line + rng.randrange(8) * 8:#x}")
    return "\n".join(out) + "\n"


def prepare(workload: str, index: int, work: Path) -> tuple[list[str], Path]:
    """Write the inputs for one run into work/; return (bcsim argv, data output path)."""
    work.mkdir(parents=True, exist_ok=True)
    out = work / f"{workload}.out"
    if workload == "attack-aes":
        seed = str(AES_SEED_BASE + index)
        argv = ["attack", "aes", "--samples", str(AES_SAMPLES), "--seed", seed, "--out", str(out)]
        return argv, out
    trace = work / "input.trace"
    trace.write_text(trace_text(index))
    argv = ["sim", "--trace", str(trace), "--out", str(out)]
    if workload == "trace-baseline":
        config = work / "baseline.yaml"
        config.write_text(BASELINE_YAML)
        argv += ["--config", str(config)]
    return argv, out
