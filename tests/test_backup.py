import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import RefBackup

from bcsim.backup import BackupCache
from bcsim.core import CacheError


def make_backup(min_size=4, max_size=16, size=None, seed=0):
    size = max_size if size is None else size
    return BackupCache(min_size, max_size, size, random.Random(seed))


def addr(i):
    return i * 64


def fill(bc, n, start=0):
    for i in range(start, start + n):
        bc.insert(addr(i))


def check_discipline(bc):
    """Disabled, invalid and resident partition the slots in ascending order,
    used1 is the sorted list of resident slots whose used bit is set, the size
    is the enabled slot count, and a disabled slot holds no line."""
    lists = (bc.disabled, bc.invalid, bc.resident)
    for slots in lists:
        assert slots == sorted(slots)
    assert sorted(slot for slots in lists for slot in slots) == list(range(bc.max_size))
    assert bc.used1 == [slot for slot in bc.resident if bc.lines[slot].used]
    assert bc.current_size == bc.max_size - len(bc.disabled)
    state = bc.state_tuple()
    for valid, dirty, used, enabled, _ in state:
        if not enabled:
            assert not (valid or dirty or used)
    assert sum(enabled for _, _, _, enabled, _ in state) == bc.current_size
    assert sum(valid for valid, *_ in state) == len(bc._where)


def test_empty_lookup_misses():
    bc = make_backup()
    assert not bc.lookup(addr(1))


def test_lookup_sets_used_bit():
    bc = make_backup()
    bc.insert(addr(1))
    slot = bc._where[addr(1)]
    assert not bc.lines[slot].used
    assert bc.lookup(addr(1))
    assert bc.lines[slot].used


def test_disabled_line_invisible():
    bc = make_backup(min_size=1, max_size=8, size=8)
    fill(bc, 8)
    bc.resize(1)
    survivors = [a for a in (addr(i) for i in range(8)) if bc.lookup(a)]
    assert len(survivors) == 1
    assert len(bc.disabled) == 7 and bc._where[survivors[0]] not in bc.disabled
    check_discipline(bc)


def test_victim_prefers_invalid_line():
    bc = make_backup(min_size=4, max_size=4)
    fill(bc, 3)
    for a in (addr(0), addr(1), addr(2)):
        bc.lookup(a)  # used=1 everywhere valid
    slot = bc.select_victim()
    assert not bc.lines[slot].valid


def test_victim_prefers_single_used_line():
    bc = make_backup(min_size=4, max_size=4)
    fill(bc, 4)
    bc.lookup(addr(2))
    for seed in range(20):
        bc.rng = random.Random(seed)
        assert bc.lines[bc.select_victim()].addr == addr(2)


def test_victim_uniform_over_unused_lines():
    n = 8
    draws = 10_000
    bc = make_backup(min_size=n, max_size=n, seed=123)
    fill(bc, n)
    counts = [0] * n
    for _ in range(draws):
        counts[bc.select_victim()] += 1
    expect = draws / n
    sigma = math.sqrt(draws * (1 / n) * (1 - 1 / n))
    for c in counts:
        assert abs(c - expect) <= 3 * sigma


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 5])
def test_victim_draw_matches_random_choice(seed):
    """select_victim draws the slot rng.choice would, and leaves the same RNG state."""
    for n in range(1, 257):
        bc = make_backup(min_size=n, max_size=n, seed=seed)  # every slot invalid
        ref = random.Random(seed)
        for _ in range(3):
            assert bc.select_victim() == ref.choice(bc.invalid)
            assert bc.rng.getstate() == ref.getstate()


def test_insert_uses_invalid_slot_first():
    bc = make_backup(min_size=4, max_size=4)
    fill(bc, 3)
    assert bc.insert(addr(9)) is None


def test_insert_full_evicts_used_line():
    bc = make_backup(min_size=4, max_size=4)
    fill(bc, 4)
    bc.lookup(addr(1))
    evicted = bc.insert(addr(9))
    assert evicted == (addr(1), False)


def test_insert_with_no_enabled_lines_faults():
    with pytest.raises(CacheError):
        BackupCache(0, 4, 0, random.Random(0))


def test_clear_used_counts():
    bc = make_backup()
    fill(bc, 6)
    for i in range(4):
        bc.lookup(addr(i))
    assert bc.clear_used() == 4
    assert bc.clear_used() == 0
    assert all(not line.used for line in bc.lines)


def test_clear_used_empty():
    assert make_backup().clear_used() == 0


def test_resize_same_size_no_change():
    bc = make_backup(size=8)
    fill(bc, 5)
    before = bc.state_tuple()
    assert bc.resize(8) == []
    assert bc.state_tuple() == before


def test_resize_grow_enables_invalid_lines():
    bc = BackupCache(192, 256, 192, random.Random(1))
    # Growing enables the lowest disabled slots first.
    assert bc.resize(200) == []
    assert bc.invalid == list(range(200)) and bc.disabled == list(range(200, 256))
    check_discipline(bc)
    assert bc.resize(256) == []
    assert bc.current_size == 256
    assert bc.invalid == list(range(256)) and bc.disabled == []
    check_discipline(bc)


def test_resize_shrink_writes_back_dirty_victims():
    bc = BackupCache(192, 256, 256, random.Random(2))
    fill(bc, 256)
    dirty = {addr(i) for i in (3, 50, 99, 180, 255)}
    for a in dirty:
        bc.lookup(a, True)
    bc.clear_used()
    before = dict(bc._where)
    wbs = bc.resize(192)
    victims = set(before) - set(bc._where)
    assert len(victims) == 64
    # state-diff oracle: write-backs are exactly the dirty victims
    assert set(wbs) == dirty & victims
    # and the victims' slots are exactly the disabled ones
    assert bc.disabled == sorted(before[a] for a in victims)
    check_discipline(bc)


def test_resize_out_of_bounds_faults():
    bc = make_backup(min_size=4, max_size=12, size=8)
    with pytest.raises(CacheError):
        bc.resize(3)
    with pytest.raises(CacheError):
        bc.resize(13)


def test_invalidate_semantics():
    bc = make_backup()
    assert not bc.invalidate(addr(1))
    bc.insert(addr(1))
    assert bc.invalidate(addr(1))
    assert not bc.lookup(addr(1))


def test_invalidate_then_insert_reuses_slot():
    bc = make_backup(min_size=4, max_size=4)
    fill(bc, 4)
    slot = bc._where[addr(2)]
    bc.invalidate(addr(2))
    bc.insert(addr(9))
    assert bc._where[addr(9)] == slot


def test_write_touch_semantics():
    bc = make_backup()
    assert not bc.write_touch(addr(1))
    bc.insert(addr(1))
    slot = bc._where[addr(1)]
    assert not bc.lines[slot].dirty
    assert bc.lookup(addr(1))
    assert not bc.lines[slot].dirty and bc.lines[slot].used
    assert bc.write_touch(addr(1))
    assert bc.lines[slot].dirty and bc.lines[slot].used


def test_determinism_identical_seeds():
    def run(seed):
        bc = make_backup(seed=seed)
        events = []
        for i in range(200):
            events.append(bc.insert(addr(1000 + i)))
        return events, bc.state_tuple()

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_protection_property_randomized():
    """A used=0 line is never evicted while a used=1 line exists (no invalid slots)."""
    rng = random.Random(99)
    bc = make_backup(min_size=8, max_size=8, seed=5)
    fill(bc, 8)
    next_addr = 100
    for _ in range(2000):
        op = rng.random()
        if op < 0.5:
            resident = list(bc._where)
            bc.lookup(rng.choice(resident))
        elif op < 0.9:
            state = bc.state_tuple()
            used1 = {a for valid, _, used, _, a in state if valid and used}
            has_invalid = any(enabled and not valid for valid, _, _, enabled, _ in state)
            evicted = bc.insert(addr(next_addr))
            next_addr += 1
            if used1 and not has_invalid:
                assert evicted is not None and evicted[0] in used1
        else:
            bc.clear_used()
        check_discipline(bc)


def test_full_associativity_slot_independent():
    """Hit behavior does not depend on which physical slot holds a line."""
    base = None
    for seed in range(5):
        # different seeds scatter lines over different slots
        bc = make_backup(min_size=8, max_size=8, seed=seed)
        for i in range(8):
            bc.insert(addr(i))
        assert len({bc._where[addr(i)] for i in range(8)}) == 8
        hits = [bc.lookup(addr(i)) for i in range(12)]
        if base is None:
            base = hits
        assert hits == base


def scan_tiers(bc):
    """Reference slot lists rebuilt from the enabled slots' line bits, each in
    slot order: (invalid, used1, resident), where resident holds every valid
    slot and used1 those among them with used=1."""
    invalid, used1, resident = [], [], []
    for slot, (valid, _, used, enabled, _) in enumerate(bc.state_tuple()):
        if enabled:
            (resident if valid else invalid).append(slot)
            if valid and used:
                used1.append(slot)
    return invalid, used1, resident


OPS = st.sampled_from(["lookup", "store", "insert", "invalidate", "clear_used", "resize"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       ops=st.lists(st.tuples(OPS, st.integers(0, 31)), max_size=80))
# A full cache with two used=1 lines: each victim draw must come from that tier.
@example(seed=0, ops=[("insert", i) for i in range(7)]
         + [("lookup", 1), ("lookup", 2), ("insert", 3), ("insert", 20)])
# Inserting a resident line leaves the state and the RNG untouched.
@example(seed=0, ops=[("insert", 1), ("lookup", 1), ("insert", 1)])
def test_tier_lists_track_line_bits(seed, ops):
    """Op by op, the backup cache matches the reference RefBackup on the same
    RNG seed: return values, state, RNG state and a victim draw after every
    operation. The slot lists partition the slots and fix the size
    (check_discipline), and the tier lists equal a scan of the lines."""
    bc = make_backup(min_size=2, max_size=12, size=7, seed=seed)
    ref = RefBackup(7, 12, random.Random(seed))
    for op, arg in ops:
        a = addr(arg)
        if op == "resize":
            size = bc.min_size + arg % (bc.max_size - bc.min_size + 1)
            assert bc.resize(size) == ref.resize(size)
        elif op == "clear_used":
            assert bc.clear_used() == ref.clear_used()
        elif op == "insert":
            # A resident line is not installed again, and no victim is drawn.
            assert bc.insert(a) == (None if ref.find(a) else ref.insert(a))
        elif op == "store":
            # Dirty lines come only from store probes, as in the simulator.
            assert bc.lookup(a, True) == ref.lookup(a, True)
        else:
            assert getattr(bc, op)(a) == getattr(ref, op)(a)
        assert bc.state_tuple() == ref.state_tuple()
        assert bc.rng.getstate() == ref.rng.getstate()
        assert (bc.invalid, bc.used1, bc.resident) == scan_tiers(bc)
        check_discipline(bc)
        assert bc.select_victim() == ref.victim()
