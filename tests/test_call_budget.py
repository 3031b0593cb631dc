"""Python function calls and bytecodes per simulated access, and per line of
a parsed trace file, stay within a budget, as do the bytes a parse holds per
line.

Host timing on a small, shared machine cannot resolve a few percent, but
the number of Python-level calls and of bytecodes the simulator executes
per access is exact and deterministic. Each test runs a fixed, seeded
workload under sys.settrace, counts its "call" events and (with
f_trace_opcodes) its "opcode" events, and divides each by the number of
simulated accesses the workload's result reports. A change that puts a
helper call back on the per-access path moves the call count by a whole
call or more; the opcode count tracks the work done in Python frames, which
the call count stops seeing once the access path is one loop. Neither sees
work inside C calls, so report them next to time, not instead of it.
"""

import functools
import random
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest

from bcsim.attacks import run_aes_attack
from bcsim.simulator import Simulator, backup_config, baseline_config
from bcsim.trace import (
    KIND_CTXSWITCH,
    KIND_INVALIDATE,
    KIND_LOAD,
    KIND_STORE,
    parse_trace,
    run_trace,
)


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


def count_events(run):
    """Run run() under a tracer; return (Python calls, opcodes executed, run()'s result)."""
    counts = [0, 0]

    def trace(frame, event, arg):
        if event == "opcode":
            counts[1] += 1
        elif event == "call":
            counts[0] += 1
            frame.f_trace_opcodes = True
        return trace

    sys.settrace(trace)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return counts[0], counts[1], result


# Cached: the call and the opcode test of a workload share one traced run.
@functools.cache
def trace_costs(make_config) -> tuple[float, float]:
    """(calls, opcodes) per access of run_trace over _records() on make_config()."""
    sim = Simulator(make_config())
    records = _records()
    calls, opcodes, stats = count_events(lambda: run_trace(sim, records))
    assert stats.accesses == sum(kind in (KIND_LOAD, KIND_STORE) for kind, _ in records)
    return calls / stats.accesses, opcodes / stats.accesses


@functools.cache
def aes_costs(seed: int | None) -> tuple[float, float]:
    """Mean (calls, opcodes) per access of samples 2-9 of run_aes_attack on
    the defended config with this seed (None: the default seed), as a
    9-sample run minus a 1-sample run, so that their shared setup (eviction
    set, simulator) and the first sample's cold misses drop out."""
    config = backup_config() if seed is None else backup_config(seed=seed)

    def run(samples):
        calls, opcodes, result = count_events(
            lambda: run_aes_attack(config, samples, bytes(range(16))))
        # Per sample: prime and probe every way of the 64 T-table sets, plus 16 victim loads.
        return calls, opcodes, len(result.latencies) * (2 * 64 * config.l1d.ways + 16)

    (calls1, opcodes1, accesses1), (calls9, opcodes9, accesses9) = run(1), run(9)
    accesses = accesses9 - accesses1
    return (calls9 - calls1) / accesses, (opcodes9 - opcodes1) / accesses


def write_trace_file(path: Path) -> Path:
    """_records(100_000) as a trace file shaped like the benchmark's: a comment
    line, then one canonical line per record."""
    lines = ["# perfbench-shaped trace"]
    lines += ["CS" if kind == KIND_CTXSWITCH else f"{kind} {addr:#x}"
              for kind, addr in _records(100_000)]
    path.write_text("\n".join(lines) + "\n")
    return path


def parse_costs(path: Path) -> tuple[float, float]:
    """(calls, opcodes) per line of parse_trace over the trace file at path."""
    with open(path) as fh:
        calls, opcodes, records = count_events(lambda: parse_trace(fh))
    lines = len(records) + 1  # the comment line
    return calls / lines, opcodes / lines


def parse_bytes(path: Path) -> float:
    """tracemalloc peak of parse_trace over the trace file at path, in bytes
    per line: the records it keeps plus its transient block buffers."""
    with open(path) as fh:
        tracemalloc.start()
        try:
            records = parse_trace(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak / (len(records) + 1)  # the comment line


@pytest.fixture(scope="module")
def bench_trace(tmp_path_factory):
    return write_trace_file(tmp_path_factory.mktemp("parse") / "bench.trace")


@pytest.fixture(scope="module")
def parse_figures(bench_trace):
    return parse_costs(bench_trace)


# Each ceiling sits a small margin above the figure measured on Python
# 3.11.7 (calls 0.118, 0.026 and, the largest over the AES seeds, 0.121;
# opcodes 133.0, 76.0 and 95.7 per access). Comprehension frames, which
# Python 3.12 inlines, only lower the call counts. Bytecode differs between
# CPython minor versions, so the opcode ceilings hold on 3.11, the version
# CI runs, only.
OPCODES_3_11 = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                                  reason="opcode ceilings are measured on CPython 3.11")
TRACE_CEILINGS = [
    (backup_config, 0.145, 136),
    (baseline_config, 0.04, 78),
]
# bcsim attack aes seeds its attacker from the config: these config seeds.
AES_SEEDS = (1, 2, 3, None)


@pytest.mark.parametrize("make_config, calls, opcodes", TRACE_CEILINGS, ids=["backup", "baseline"])
def test_trace_calls_per_access(make_config, calls, opcodes):
    assert trace_costs(make_config)[0] <= calls


@OPCODES_3_11
@pytest.mark.parametrize("make_config, calls, opcodes", TRACE_CEILINGS, ids=["backup", "baseline"])
def test_trace_opcodes_per_access(make_config, calls, opcodes):
    assert trace_costs(make_config)[1] <= opcodes


def test_aes_attack_calls_per_access():
    for seed in AES_SEEDS:
        assert aes_costs(seed)[0] <= 0.14, seed


@OPCODES_3_11
def test_aes_attack_opcodes_per_access():
    for seed in AES_SEEDS:
        assert aes_costs(seed)[1] <= 97.5, seed


# Per line of a parsed trace file, read in blocks of about 4 KB: a canonical
# block costs a few Python calls in all, so the block of the comment line,
# parsed line by line, makes most of them (0.0064 calls and 0.51 opcodes per
# line on 3.11.7; 0.59 opcodes when a canonical block was parsed one run
# between `CS` lines at a time, and 1.0016 calls and 61.0 opcodes when every
# line went through parse_line).
PARSE_CALLS, PARSE_OPCODES = 0.02, 0.55


def test_parse_calls_per_line(parse_figures):
    assert parse_figures[0] <= PARSE_CALLS


@OPCODES_3_11
def test_parse_opcodes_per_line(parse_figures):
    assert parse_figures[1] <= PARSE_OPCODES


# A parsed trace is two columns, kinds and addresses: per line, 8 bytes for
# each list slot and 32 for the address's int. A kind is the line's opcode
# token, so each INV and CS record also keeps its own string (R and W are
# CPython's cached one-character strings), and on this trace the kinds list,
# grown a block at a time, happens to end with about 1 spare byte per line:
# 49.3 bytes kept and 49.8 at the peak on 3.11.7, against 48.0 and 49.5 when
# kinds were shared constants (96.2 at the peak when each record was a tuple).
PARSE_BYTES = 56


def test_parse_bytes_per_line(bench_trace):
    assert parse_bytes(bench_trace) <= PARSE_BYTES


if __name__ == "__main__":
    # Prints the figures the tests bound, e.g. for a CI log:
    #   PYTHONPATH=src python tests/test_call_budget.py
    for name, (calls, opcodes) in (("trace-bc", trace_costs(backup_config)),
                                   ("trace-baseline", trace_costs(baseline_config)),
                                   *((f"attack-aes seed={seed}", aes_costs(seed))
                                     for seed in AES_SEEDS)):
        print(f"{name:20s} {calls:.4f} calls, {opcodes:.2f} opcodes per access")
    with tempfile.TemporaryDirectory() as tmp:
        path = write_trace_file(Path(tmp) / "bench.trace")
        (calls, opcodes), peak = parse_costs(path), parse_bytes(path)
    print(f"{'parse_trace file':20s} {calls:.4f} calls, {opcodes:.2f} opcodes per line")
    print(f"{'parse_trace file':20s} {peak:.1f} bytes per line at the tracemalloc peak")
