import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import RefSetCache, bit_slice

from bcsim.core import (
    ADDR_LIMIT,
    CacheError,
    CacheGeometry,
    GeometryError,
    SetAssociativeCache,
    compose,
)
from bcsim.simulator import KIND_INVALIDATE, KIND_LOAD, KIND_STORE, Simulator, backup_config

GEO = CacheGeometry(line_bytes=64, num_sets=64, ways=4, hit_cycles=3)


def test_geometry_capacity():
    assert GEO.offset_bits == 6
    assert GEO.index_bits == 6


@pytest.mark.parametrize("kwargs", [
    dict(line_bytes=48, num_sets=64, ways=4, hit_cycles=3),
    dict(line_bytes=64, num_sets=63, ways=4, hit_cycles=3),
    dict(line_bytes=64, num_sets=64, ways=0, hit_cycles=3),
    dict(line_bytes=64, num_sets=64, ways=4, hit_cycles=0),
    # offset and index bits must fit the 48-bit address: 2**40 * 2**9 bytes do not.
    dict(line_bytes=2**40, num_sets=2**9, ways=4, hit_cycles=3),
    dict(line_bytes=2**60, num_sets=1, ways=4, hit_cycles=3),
])
def test_geometry_rejects_bad_shapes(kwargs):
    with pytest.raises(GeometryError):
        CacheGeometry(**kwargs)


@pytest.mark.parametrize("parts, addr", [
    ((0, 0, 0), 0x0),
    ((1, 1, 0), 0x1040),
    ((0xFFFFFFFFF, 63, 63), 0xFFFFFFFFFFFF),
], ids=["zero", "simple", "max"])
def test_compose_known_addresses(parts, addr):
    tag, set_index, offset = parts
    assert compose(tag, set_index, GEO, offset) == addr
    assert bit_slice(addr, GEO) == parts


@given(tag=st.integers(min_value=0, max_value=(1 << 36) - 1),
       set_index=st.integers(min_value=0, max_value=63),
       offset=st.integers(min_value=0, max_value=63))
def test_address_round_trip(tag, set_index, offset):
    addr = compose(tag, set_index, GEO, offset)
    assert bit_slice(addr, GEO) == (tag, set_index, offset)


def test_compose_rejects_out_of_range():
    with pytest.raises(CacheError):
        compose(1 << 36, 0, GEO)
    with pytest.raises(CacheError):
        compose(0, GEO.num_sets, GEO)


def test_line_addr_clears_offset():
    tag, set_index, _ = bit_slice(0x1043, GEO)
    assert compose(tag, set_index, GEO) == 0x1040


SMALL_GEO = CacheGeometry(line_bytes=64, num_sets=4, ways=4, hit_cycles=1)


def line_at(tag, set_index, offset=0):
    """The line number, the key of every cache level, of a SMALL_GEO address."""
    return compose(tag, set_index, SMALL_GEO, offset) >> SMALL_GEO.offset_bits


ops_strategy = st.lists(
    st.tuples(st.sampled_from(["lookup", "insert", "insert_dirty", "write", "invalidate",
                               "mark_dirty"]),
              st.integers(min_value=0, max_value=31)),
    max_size=1000)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ops=ops_strategy)
# Five lines of set 0: mark_dirty leaves line 0 least recently used, so it is the victim.
@example(ops=[("insert", 0), ("insert", 4), ("mark_dirty", 0), ("insert", 8), ("insert", 12),
              ("insert", 16)])
# A store hit dirties a clean line.
@example(ops=[("insert", 0), ("write", 0)])
def test_lru_matches_brute_force_oracle(ops):
    """The cache takes line numbers and the oracle byte addresses, line * line_bytes."""
    cache = SetAssociativeCache(SMALL_GEO)
    oracle = RefSetCache(SMALL_GEO)
    for op, line in ops:
        addr = line * SMALL_GEO.line_bytes
        if op == "lookup":
            assert cache.lookup(line) == (oracle.touch(addr) is not None)
        elif op in ("insert", "insert_dirty"):
            dirty = op == "insert_dirty"
            if oracle.find(addr) is not None:
                with pytest.raises(CacheError):
                    cache.insert(line, dirty=dirty)
            else:
                evicted = oracle.insert(addr, dirty)
                assert cache.insert(line, dirty=dirty) == (
                    None if evicted is None else (evicted[0] // SMALL_GEO.line_bytes, evicted[1]))
        elif op == "write":
            # A store hit is a recency touch plus a dirty mark.
            assert cache.lookup(line, True) == (oracle.touch(addr) is not None
                                                and oracle.mark_dirty(addr))
        elif op == "invalidate":
            assert cache.invalidate(line) == oracle.invalidate(addr)
        else:
            assert cache.mark_dirty(line) == oracle.mark_dirty(addr)
        assert cache.state_tuple() == oracle.state_tuple()
        for ways in cache.state_tuple():
            assert len(ways) <= SMALL_GEO.ways


ENTRY_POINTS = {
    "run-load": lambda sim, addr: sim.run([(KIND_LOAD, addr)]),
    "run-store": lambda sim, addr: sim.run([(KIND_STORE, addr)]),
    "run-invalidate": lambda sim, addr: sim.run([(KIND_INVALIDATE, addr)]),
    "access": Simulator.access,
    "external_invalidate": Simulator.external_invalidate,
}


@pytest.mark.parametrize("method", list(ENTRY_POINTS))
@pytest.mark.parametrize("addr", [ADDR_LIMIT, -64])
def test_public_methods_reject_out_of_range_addresses(method, addr):
    """The caches take line numbers; a byte address is checked where it enters the simulator."""
    sim = Simulator(backup_config(seed=5))
    sim.run([(KIND_STORE if i % 3 else KIND_LOAD, i * 64 % 40_000) for i in range(600)])
    digest = sim.state_digest()
    with pytest.raises(CacheError):
        ENTRY_POINTS[method](sim, addr)
    assert sim.state_digest() == digest


def test_empty_cache_misses():
    cache = SetAssociativeCache(GEO)
    assert not cache.lookup(0x1000)


def test_insert_then_hit():
    cache = SetAssociativeCache(GEO)
    cache.insert(0x1000)
    assert cache.lookup(0x1000)


def test_lru_victim_after_overflow():
    cache = SetAssociativeCache(SMALL_GEO)
    lines = [line_at(t, 2) for t in range(5)]
    for line in lines:
        cache.insert(line)
    # A (tag 0) was the LRU victim of E
    assert not cache.lookup(lines[0])
    assert cache.lookup(lines[1])


def test_insert_prefers_invalid_way():
    cache = SetAssociativeCache(SMALL_GEO)
    for t in range(3):
        cache.insert(line_at(t, 0))
    assert cache.insert(line_at(3, 0)) is None


def test_eviction_reports_dirty_line_aligned_addr():
    """The victim comes back as its line number, whatever the offset of the address it came
    from; test_reference.py holds the simulator's byte address of it against the model."""
    cache = SetAssociativeCache(SMALL_GEO)
    lines = [line_at(t, 1, offset=7) for t in range(4)]
    for line in lines:
        cache.insert(line)
    cache.write_touch(lines[0])
    cache.lookup(lines[1])
    cache.lookup(lines[2])
    cache.lookup(lines[3])
    evicted = cache.insert(line_at(9, 1))
    assert evicted == (line_at(0, 1), True)


def test_duplicate_insert_rejected():
    cache = SetAssociativeCache(GEO)
    cache.insert(0x40)
    with pytest.raises(CacheError):
        cache.insert(0x40)


def test_invalidate_semantics():
    cache = SetAssociativeCache(GEO)
    assert not cache.invalidate(0x80)
    cache.insert(0x80)
    assert cache.invalidate(0x80)
    assert not cache.lookup(0x80)
    assert not cache.invalidate(0x80)


def test_write_touch_semantics():
    cache = SetAssociativeCache(SMALL_GEO)
    assert not cache.write_touch(0x40)
    a = line_at(0, 0)
    cache.insert(a)
    assert cache.write_touch(a)
    for t in range(1, 4):
        cache.insert(line_at(t, 0))
    evicted = cache.insert(line_at(4, 0))
    assert evicted == (a, True)
