"""Acceptance suite: one test per headline claim, one verdict line each.

The per-criterion PASS/FAIL lines are emitted in the terminal summary by
tests/conftest.py so they survive pytest's output capture. Every numeric
bound here is either a closed-form value recomputed independently in
tests/test_analysis.py or an empirical bound with the tolerance stated
inline.
"""

import csv
import random
import sys

import pytest

from conftest import CRITERIA, aes_max_set_deviation, aes_set_mean_gap

from bcsim.analysis import monte_carlo_single_set, p_avg, p_correct
from bcsim.attacks import (
    run_aes_attack,
    run_single_set_attack,
)
from bcsim.cli import main
from bcsim.core import SetAssociativeCache, compose
from bcsim.simulator import (
    KIND_CTXSWITCH,
    KIND_INVALIDATE,
    KIND_LOAD,
    KIND_STORE,
    SimConfig,
    Simulator,
    backup_config,
    baseline_config,
)


class criterion:
    """Labels the enclosed assertions with their criterion number."""

    def __init__(self, num):
        self.num = num

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "FAIL" if exc_type else "PASS"
        print(f"[criterion {self.num}] {status}: {CRITERIA[self.num]}")
        return False


def test_criterion_1_closed_form_success_probability():
    with criterion(1):
        assert abs(p_avg(192, 256) - 0.5077) < 5e-5
        assert abs(p_avg(128, 256) - 0.5039) < 5e-5
        assert abs(p_avg(64, 256) - 0.5026) < 5e-5


def test_criterion_2_monte_carlo_agrees_with_closed_form():
    with criterion(2):
        for b_min, b_max in ((192, 256), (128, 256), (64, 256)):
            for p in (0.25, 0.5, 0.75):
                sizes = range(b_min, b_max + 1)
                expect = sum(p_correct(b_min, b_max, b, p) for b in sizes) / len(sizes)
                res = monte_carlo_single_set(b_min, b_max, p, trials=10**6,
                                             seed=0xACCE)
                assert abs(res.estimate - expect) < 3 * res.stderr + 1e-9


def test_criterion_3_baseline_single_set_attack_succeeds():
    with criterion(3):
        secret = [0] * 50 + [1] * 50
        result = run_single_set_attack(baseline_config(seed=11), secret)
        assert result.accuracy == 1.0
        lat0 = [l for b, l in zip(secret, result.probe_latencies) if b == 0]
        lat1 = [l for b, l in zip(secret, result.probe_latencies) if b == 1]
        assert max(lat0) < min(lat1)


def test_criterion_4_defended_single_set_attack_fails():
    with criterion(4):
        secret = [0] * 10 + [1] * 10
        for filler_kb in (0, 4, 8, 12, 16):
            for seed in range(20):
                result = run_single_set_attack(
                    backup_config(12, 16, seed=seed), secret,
                    filler_bytes=filler_kb * 1024)
                assert result.accuracy <= 0.60, (filler_kb, seed, result.accuracy)


def test_criterion_5_aes_ttable_attack():
    with criterion(5):
        base = run_aes_attack(baseline_config(seed=21), 1000, bytes(range(16)))
        gap = aes_set_mean_gap(base, bytes(range(16)))
        assert gap > 20 - 2  # exceeds the L2-hit minus L1-hit latency delta
        for lo, hi in ((12, 16), (8, 16), (4, 16)):
            res = run_aes_attack(backup_config(lo, hi, seed=21), 1000, bytes(range(16)))
            assert aes_max_set_deviation(res) < 0.25 * gap, (lo, hi)


def _overflow_probe_misses(n_victim, seed):
    """Whole-cache prime, victim touches n fresh lines (at most one per way),
    then a full probe; returns how many probes miss both L1 and backup."""
    cfg = SimConfig(backup_min=192, backup_max=192, seed=seed)
    sim = Simulator(cfg)
    geo = cfg.l1d
    prime = [(KIND_LOAD, compose(100 + w, s, geo))
             for s in range(geo.num_sets) for w in range(geo.ways)]
    victim = [(KIND_LOAD, compose((1 << 24) + i, i % geo.num_sets, geo))
              for i in range(n_victim)]
    sim.run([*prime, (KIND_CTXSWITCH, None), *victim, (KIND_CTXSWITCH, None)])
    probes = []
    sim.run(prime, events=probes)
    return sum(1 for out in probes if out.case == "00")


def test_criterion_6_overflow_bound_is_exact():
    with criterion(6):
        for seed in (1, 2, 3):
            assert _overflow_probe_misses(0, seed) == 0
            assert _overflow_probe_misses(96, seed) == 0
            assert _overflow_probe_misses(192, seed) == 0
            assert _overflow_probe_misses(193, seed) >= 1


def test_criterion_7_hit_latency_indistinguishable():
    with criterion(7):
        cfg = backup_config(12, 16, seed=31)
        sim = Simulator(cfg)
        rng = random.Random(31)
        footprint = [i * 64 for i in range(2048)]
        seen = {"00": 0, "01": 0, "10": 0, "11": 0}
        # One batch per 5,000 accesses, each ended by its context switch, so
        # that only one period's records and events are held at a time.
        for _ in range(200):
            records = []
            for _ in range(5000):
                addr = rng.choice(footprint)
                records.append((KIND_STORE if rng.random() < 0.2 else KIND_LOAD, addr))
            records.append((KIND_CTXSWITCH, None))
            events = []
            sim.run(records, events=events)
            for out in events[:-1]:
                seen[out.case] += 1
                if out.case != "00":
                    assert out.latency_cycles == cfg.l1d.hit_cycles
        assert seen["01"] > 0 and seen["10"] > 0 and seen["11"] > 0


def test_criterion_8_randomized_state_machine():
    with criterion(8):
        cfg = backup_config(12, 16, seed=41)
        sim = Simulator(cfg)
        # A standalone L2, keyed by line number as the simulator's own is.
        twin_l2 = SetAssociativeCache(cfg.l2)
        shift = cfg.l2.offset_bits
        rng = random.Random(41)
        footprint = [i * 64 for i in range(3000)]
        accesses = last_resize_at = 0
        size_in_effect = sim.backup.current_size
        tiers_seen = set()
        ops = []
        # One batch per 20 operations, each preceded by the state checks.
        for _ in range(120_000 // 20):
            state = sim.backup.state_tuple()
            used = sum(1 for valid, _, u, _, _ in state if valid and u)
            invalid = sum(1 for valid, _, _, enabled, _ in state if enabled and not valid)
            tiers_seen.add((invalid > 0, used > 0))
            for valid, _, _, enabled, _ in state:
                if not enabled:
                    assert not valid
            assert sum(enabled for _, _, _, enabled, _ in state) == sim.backup.current_size
            batch = []
            for _ in range(20):
                r = rng.random()
                if r < 0.005:
                    batch.append((KIND_CTXSWITCH, None))
                elif r < 0.01:
                    batch.append((KIND_INVALIDATE, rng.choice(footprint)))
                else:
                    batch.append((KIND_STORE if r > 0.8 else KIND_LOAD, rng.choice(footprint)))
            events = []
            sim.run(batch, events=events)
            ops += batch
            for (kind, addr), out in zip(batch, events, strict=True):
                if kind == KIND_CTXSWITCH:
                    continue
                if kind == KIND_INVALIDATE:
                    twin_l2.invalidate(addr >> shift)
                    continue
                accesses += 1
                assert len(set(out.writebacks)) == len(out.writebacks)
                for wb in out.writebacks:
                    twin_l2.mark_dirty(wb >> shift)
                if out.case == "00":
                    if out.l2_hit:
                        twin_l2.lookup(addr >> shift)
                    else:
                        twin_l2.insert(addr >> shift)
                if out.resized is not None:
                    old, new = out.resized
                    assert cfg.backup_min <= new <= cfg.backup_max
                    assert accesses - last_resize_at == size_in_effect
                    last_resize_at = accesses
                    size_in_effect = new
        # All three replacement situations occurred: free slot available,
        # only recently-used lines, and only not-recently-used lines.
        assert (True, True) in tiers_seen or (True, False) in tiers_seen
        assert (False, True) in tiers_seen
        assert (False, False) in tiers_seen
        # L2 saw exactly the traffic a backup-less protocol would produce.
        assert sim.l2.state_tuple() == twin_l2.state_tuple()
        # Replaying the identical operation sequence reproduces the state.
        replay = Simulator(cfg)
        replay.run(ops)
        assert replay.state_digest() == sim.state_digest()


def test_criterion_9_resize_threshold_sweep(tmp_path):
    with criterion(9):
        n = 60_000
        rng = random.Random(51)
        trace = tmp_path / "sweep.trace"
        with trace.open("w") as fh:
            for _ in range(n):
                fh.write(f"R 0x{rng.randrange(4096) * 64:x}\n")
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--trace", str(trace), "--out", str(out),
                   "--thresholds", "10,50,100,200,500,1000"])
        assert rc == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))[1:]
        fixed = [(int(r[0]), int(r[1])) for r in rows[:-1]]
        for threshold, resizes in fixed:
            assert resizes == n // threshold
        counts = [c for _, c in fixed]
        assert counts == sorted(counts, reverse=True)
        assert rows[-1][0] == "dynamic"
        assert int(rows[-1][1]) > 0


def test_criterion_10_resizing_defeats_overflow_attack():
    """With 28 KB of filler the prime overflows the BC as well as the L1D.

    A fixed 256-line BC then leaks the secret to the attack's own midpoint
    classifier, while the default 12-16 KB range, on the same seeds and
    secrets, holds that classifier near chance. So resizing is what defeats
    this classifier. This does not show that the dynamic BC leaks nothing: a
    classifier fit to the probe miss counts does better (ROADMAP item 8).
    """
    with criterion(10):
        for seed in range(1, 6):
            rng = random.Random(1000 + seed)
            secret = [rng.getrandbits(1) for _ in range(200)]
            fixed = run_single_set_attack(backup_config(16, 16, seed=seed), secret, 28 * 1024)
            dynamic = run_single_set_attack(backup_config(12, 16, seed=seed), secret, 28 * 1024)
            assert fixed.accuracy >= 0.85, (seed, fixed.accuracy)
            assert dynamic.accuracy <= 0.70, (seed, dynamic.accuracy)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
