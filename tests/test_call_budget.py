"""Python function calls per simulated access stay within a budget.

Host timing on a small, shared machine cannot resolve a few percent, but
the number of Python-level calls the simulator makes per access is exact
and deterministic. Each test counts the "call" events that sys.setprofile
sees while a fixed, seeded workload runs, and divides by the number of
Simulator.access calls among them. A change that puts a helper call back
on the per-access path moves these counts by a whole call or more.
"""

import random
import sys

import pytest

from bcsim.attacks import run_aes_attack
from bcsim.simulator import Simulator, backup_config, baseline_config
from bcsim.trace import KIND_CTXSWITCH, KIND_INVALIDATE, KIND_LOAD, KIND_STORE, run_trace


def _records(n=20_000, seed=3):
    """70% of lines from a set that fits the L1D, 25% from one that fits the
    L2 but not the L1D plus the BC, 5% streaming; 20% stores, with rare
    context switches and invalidations."""
    rng = random.Random(seed)
    records = []
    cold = 0
    for _ in range(n):
        r = rng.random()
        if r < 0.0004:
            records.append((KIND_CTXSWITCH, 0))
            continue
        region = rng.random()
        if region < 0.70:
            line = 0x1000_0000 + rng.randrange(192) * 64
        elif region < 0.95:
            line = 0x4000_0000 + rng.randrange(2048) * 64
        else:
            line = 0x8000_0000 + cold * 64
            cold += 1
        if r < 0.0054:
            records.append((KIND_INVALIDATE, line))
        else:
            records.append((KIND_STORE if rng.random() < 0.2 else KIND_LOAD, line))
    return records


def count_calls(run) -> tuple[int, int]:
    """Run run() under a profiler; return (Python calls, Simulator.access calls)."""
    access_code = Simulator.access.__code__
    counts = [0, 0]

    def profile(frame, event, arg):
        if event == "call":
            counts[0] += 1
            if frame.f_code is access_code:
                counts[1] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts[0], counts[1]


def trace_calls_per_access(make_config) -> float:
    """Python calls per access of run_trace over _records() on make_config()."""
    sim = Simulator(make_config())
    records = _records()
    calls, accesses = count_calls(lambda: run_trace(sim, records))
    assert accesses == sum(kind in (KIND_LOAD, KIND_STORE) for kind, _ in records)
    return calls / accesses


def aes_calls_per_access() -> float:
    """The second sample's calls per access of run_aes_attack, so the setup
    that a 1- and a 2-sample run share (eviction set, simulator) drops out."""
    def run(samples):
        return count_calls(lambda: run_aes_attack(backup_config(), samples, bytes(range(16)),
                                                  seed=1))
    (calls1, accesses1), (calls2, accesses2) = run(1), run(2)
    # Prime and probe 64 sets of 4 ways, plus 16 victim loads.
    assert accesses2 - accesses1 == 2 * 64 * 4 + 16
    return (calls2 - calls1) / (accesses2 - accesses1)


# Each ceiling sits a small margin above the figure measured on Python
# 3.11.7 (3.35, 1.18 and 2.35 per access); comprehension frames, which
# Python 3.12 inlines, only lower them.
@pytest.mark.parametrize("make_config, ceiling", [
    (backup_config, 3.5),
    (baseline_config, 1.25),
], ids=["backup", "baseline"])
def test_trace_calls_per_access(make_config, ceiling):
    assert trace_calls_per_access(make_config) <= ceiling


def test_aes_attack_calls_per_access():
    assert aes_calls_per_access() <= 2.45


if __name__ == "__main__":
    # Prints the three figures the tests bound, e.g. for a CI log:
    #   PYTHONPATH=src python tests/test_call_budget.py
    print(f"trace-bc       {trace_calls_per_access(backup_config):.4f} calls per access")
    print(f"trace-baseline {trace_calls_per_access(baseline_config):.4f} calls per access")
    print(f"attack-aes     {aes_calls_per_access():.4f} calls per access")
