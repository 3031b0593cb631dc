import math
import random

import pytest
from reference import RefSimulator

from bcsim.core import ADDR_LIMIT, CacheError, CacheGeometry, SetAssociativeCache, compose
from bcsim.simulator import (
    MODE_BACKUP,
    MODE_BASELINE,
    ConfigError,
    SimConfig,
    Simulator,
    backup_config,
    baseline_config,
)

GEO = SimConfig().l1d


def pinned_config(size=192, seed=0):
    return SimConfig(mode=MODE_BACKUP, backup_min=size, backup_max=size, seed=seed)


def test_config_rejects_bad_backup_range():
    with pytest.raises(ConfigError):
        SimConfig(mode=MODE_BACKUP, backup_min=300, backup_max=200)


def test_config_rejects_mismatched_line_sizes():
    with pytest.raises(ConfigError):
        SimConfig(l2=CacheGeometry(line_bytes=128, num_sets=1024, ways=8, hit_cycles=20))


def test_config_fixed_mode_needs_threshold():
    for threshold in (0, -5):
        with pytest.raises(ConfigError, match="fixed_threshold must be positive"):
            SimConfig(fixed_threshold=threshold)


def test_init_degenerate_range():
    for seed in range(20):
        sim = Simulator(pinned_config(size=256, seed=seed))
        assert sim.backup.current_size == 256
        assert sim.mem_access_count == 256


def test_init_size_uniform_over_range():
    lo, hi = 192, 256
    n = hi - lo + 1
    draws = 10_000
    counts = {v: 0 for v in range(lo, hi + 1)}
    small = SimConfig(
        l1d=CacheGeometry(line_bytes=64, num_sets=2, ways=1, hit_cycles=3),
        l2=CacheGeometry(line_bytes=64, num_sets=4, ways=1, hit_cycles=20))
    for seed in range(draws):
        cfg = SimConfig(mode=MODE_BACKUP, l1d=small.l1d, l2=small.l2,
                        backup_min=lo, backup_max=hi, seed=seed)
        counts[Simulator(cfg).backup.current_size] += 1
    expect = draws / n
    sigma = math.sqrt(draws * (1 / n) * (1 - 1 / n))
    for c in counts.values():
        assert abs(c - expect) <= 3.5 * sigma


def test_init_fixed_threshold_counter():
    cfg = SimConfig(fixed_threshold=200)
    sim = Simulator(cfg)
    assert sim.mem_access_count == 200


def test_baseline_has_no_backup():
    sim = Simulator(baseline_config())
    assert sim.backup is None
    out = sim.access(0x1000)
    assert out.case == "00"
    assert sim.access(0x1000).case == "10"


def test_cold_load_is_case_00_memory_path():
    sim = Simulator(pinned_config())
    out = sim.access(0x2000)
    assert out.case == "00"
    assert not out.l2_hit
    assert out.latency_cycles == 20 + 100


def test_repeat_load_is_l1_hit_3_cycles():
    sim = Simulator(pinned_config())
    sim.access(0x2000)
    out = sim.access(0x2000)
    assert out.case == "10"
    assert out.latency_cycles == 3


def test_hidden_eviction_served_from_backup():
    sim = Simulator(pinned_config())
    addrs = [compose(t, 7, GEO) for t in range(5)]
    for a in addrs:
        sim.access(a)
    # A was evicted by E but lives in the backup now
    out = sim.access(addrs[0])
    assert out.case == "01"
    assert out.latency_cycles == 3


def test_case_11_both_copies():
    sim = Simulator(pinned_config())
    addrs = [compose(t, 7, GEO) for t in range(5)]
    for a in addrs:
        sim.access(a)
    sim.access(addrs[0])          # case 01: now in both
    out = sim.access(addrs[0])
    assert out.case == "11"
    assert out.latency_cycles == 3


def test_l2_hit_latency_on_miss_path():
    sim = Simulator(baseline_config())
    geo = sim.config.l1d
    a = compose(1, 4, geo)
    assert sim.access(a).latency_cycles == 120   # memory fill
    for t in range(2, 6):
        sim.access(compose(t, 4, geo))           # conflict A out of L1
    out = sim.access(a)
    assert out.case == "00"
    assert out.l2_hit
    assert out.latency_cycles == 20


def test_store_dirties_and_writes_back_once():
    sim = Simulator(pinned_config())
    target = compose(0, 9, GEO)
    sim.access(target, store=True)
    conflicts = [compose(t, 9, GEO) for t in range(1, 5)]
    writebacks = []
    for a in conflicts:
        writebacks.extend(sim.access(a).writebacks)
    assert writebacks.count(target) == 1
    # the backup copy was installed clean: its eviction must not write back again
    assert sim.backup.contains(target)
    slot = sim.backup._where[target]
    assert not sim.backup.lines[slot].dirty


@pytest.mark.xfail(strict=True, reason="a case-11 store leaves the line dirty in both "
                   "the L1D and the backup, so it is written back twice (ROADMAP item 3)")
def test_case_11_store_written_back_once():
    sim = Simulator(pinned_config(seed=1))
    target = compose(0, 9, GEO)
    sim.access(target, store=True)
    for t in range(1, 5):
        sim.access(compose(t, 9, GEO))        # first write-back; clean copy to the backup
    assert sim.access(target).case == "01"
    assert sim.access(target, store=True).case == "11"
    writebacks = []
    for t in range(5, 5_000):
        if not (sim.l1d.contains(target) or sim.backup.contains(target)):
            break
        writebacks.extend(sim.access(compose(t, 9, GEO)).writebacks)
    assert not (sim.l1d.contains(target) or sim.backup.contains(target))
    assert writebacks.count(target) == 1


def test_external_invalidate_hits_both_levels():
    sim = Simulator(pinned_config())
    addrs = [compose(t, 3, GEO) for t in range(5)]
    for a in addrs:
        sim.access(a)
    sim.access(addrs[0])  # both L1 and backup now
    assert sim.external_invalidate(addrs[0])
    assert not sim.l1d.contains(addrs[0])
    assert not sim.backup.contains(addrs[0])
    assert not sim.l2.contains(addrs[0])
    assert sim.access(addrs[0]).case == "00"
    assert not sim.external_invalidate(0xDEAD000)


def test_context_switch_clears_used_bits():
    sim = Simulator(pinned_config())
    addrs = [compose(t, 3, GEO) for t in range(5)]
    for a in addrs:
        sim.access(a)
    sim.access(addrs[0])  # backup hit sets used
    assert sim.context_switch() == 1
    assert sim.context_switch() == 0


def test_context_switch_baseline_noop():
    sim = Simulator(baseline_config())
    assert sim.context_switch() == 0


def test_context_switch_not_counted_as_access():
    sim = Simulator(pinned_config())
    before = sim.mem_access_count
    sim.context_switch()
    assert sim.mem_access_count == before


def test_resize_cadence_dynamic():
    cfg = SimConfig(mode=MODE_BACKUP, seed=11)
    sim = Simulator(cfg)
    expected_interval = sim.mem_access_count
    intervals = []
    count = 0
    addr = 0
    while len(intervals) < 10:
        out = sim.access(addr)
        addr += 64
        count += 1
        if out.resized is not None:
            intervals.append((count, expected_interval, out.resized[1]))
            assert count == expected_interval
            expected_interval = out.resized[1]
            assert sim.mem_access_count == out.resized[1]
            count = 0
    for count, expected, _ in intervals:
        assert count == expected
        assert 192 <= expected <= 256


def test_resize_cadence_fixed():
    cfg = SimConfig(mode=MODE_BACKUP, fixed_threshold=200, seed=5)
    sim = Simulator(cfg)
    resizes = 0
    for i in range(1000):
        if sim.access(i * 64).resized is not None:
            resizes += 1
    assert resizes == 5


@pytest.mark.parametrize("case, ops", [
    # A is stored into the BC copy only (case 01), then C hits the L1D alone.
    ("10", "WA WB RC WA RC RC RC RC RC"),
    # A is re-fetched from the BC (case 01), then hits both copies.
    ("11", "WA WB RC RA WA RA RA RA RA"),
], ids=["case10", "case11"])
def test_resizing_l1_hit_carries_its_resize(case, ops):
    """The L1 hit that runs the countdown out reports the resize and the
    shrink's write-backs as the reference does; the next, resize-free hit
    (a shared outcome) reports neither."""
    lines = {"A": 0, "B": 64, "C": 128}
    seen_writeback = False
    for seed in range(16):
        # One 2-way L1D set, a BC of 1-2 lines and a resize every 8 accesses.
        cfg = SimConfig(mode=MODE_BACKUP, l1d=CacheGeometry(64, 1, 2, 3),
                        l2=CacheGeometry(64, 4, 4, 20), backup_min=1, backup_max=2,
                        fixed_threshold=8, seed=seed)
        sim, ref = Simulator(cfg), RefSimulator(cfg)
        outcomes = []
        for op in ops.split():
            addr, store = lines[op[1]], op[0] == "W"
            outcomes.append(sim.access(addr, store))
            assert tuple(outcomes[-1]) == ref.access(addr, store)
        resizing, after = outcomes[7], outcomes[8]
        assert resizing.case in ("10", "11") and resizing.resized is not None
        assert after.case in ("10", "11")
        assert after.resized is None and after.writebacks == ()
        if resizing.case == case and resizing.writebacks:
            seen_writeback = True
            assert resizing.writebacks == (lines["A"],)
    assert seen_writeback


def test_pinned_size_never_changes():
    sim = Simulator(pinned_config(size=200, seed=3))
    for i in range(500):
        out = sim.access(i * 64)
        if out.resized is not None:
            assert out.resized == (200, 200)
    assert sim.backup.current_size == 200


def test_latency_by_case_invariant():
    sim = Simulator(SimConfig(seed=21))
    rng = random.Random(1)
    pool = [compose(t, s, GEO) for t in range(16) for s in range(64)]
    for _ in range(20_000):
        out = sim.access(rng.choice(pool), store=rng.random() < 0.3)
        if out.case == "00":
            assert out.latency_cycles > 3
        else:
            assert out.latency_cycles == 3


def test_no_duplicate_residency():
    sim = Simulator(SimConfig(seed=22))
    rng = random.Random(2)
    # 384 lines in 8 sets: more than the L1D's 32 ways there plus the
    # backup's 256 lines, so the backup evicts valid lines.
    pool = [compose(t, s, GEO) for t in range(48) for s in range(8)]
    for i in range(5_000):
        sim.access(rng.choice(pool), store=rng.random() < 0.3)
        if i % 250 == 0:
            for ways in sim.l1d.state_tuple():
                tags = [tag for tag, _ in ways]
                assert len(tags) == len(set(tags))
            valid = [(line.addr, slot) for slot, line in enumerate(sim.backup.lines)
                     if line.valid]
            assert len(valid) == len(sim.backup._where)
            assert dict(valid) == sim.backup._where


@pytest.mark.parametrize("config", [baseline_config(), SimConfig()], ids=["baseline", "backup"])
@pytest.mark.parametrize("bad", [-64, ADDR_LIMIT])
@pytest.mark.parametrize("call", ["access", "store", "external_invalidate"])
def test_out_of_range_address_rejected_before_any_change(config, bad, call):
    sim = Simulator(config)
    for i in range(600):
        sim.access(i * 64 % 40_000, store=i % 3 == 0)
    digest, rng_state = sim.state_digest(), sim.rng.getstate()
    with pytest.raises(CacheError, match="outside 48-bit"):
        if call == "external_invalidate":
            sim.external_invalidate(bad)
        else:
            sim.access(bad, store=call == "store")
    assert sim.state_digest() == digest
    assert sim.rng.getstate() == rng_state


def test_l2_untouched_by_backup_churn():
    """With no stores, the L2 state is a pure function of the case-00 fetch
    sequence; backup inserts and resizes never leak into it."""
    cfg = SimConfig(seed=33)
    sim = Simulator(cfg)
    twin = SetAssociativeCache(cfg.l2)
    rng = random.Random(3)
    pool = [compose(t, s, GEO) for t in range(10) for s in range(64)]
    for _ in range(30_000):
        a = rng.choice(pool)
        out = sim.access(a)
        if out.case == "00":
            # mirror the observed fetch into a standalone L2 model
            if not twin.lookup(a):
                twin.insert(a)
    assert twin.state_tuple() == sim.l2.state_tuple()


def test_determinism_digest():
    def run(seed):
        sim = Simulator(SimConfig(seed=seed))
        rng = random.Random(4)
        outcomes = []
        for _ in range(3000):
            outcomes.append(sim.access(rng.randrange(1 << 20) * 64, store=rng.random() < 0.5))
        return outcomes, sim.state_digest()

    a = run(9)
    b = run(9)
    assert a == b
    assert run(9)[1] != run(10)[1]
