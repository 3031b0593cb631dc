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
    cache = SetAssociativeCache(SMALL_GEO)
    oracle = RefSetCache(SMALL_GEO)
    for op, slot in ops:
        addr = slot * SMALL_GEO.line_bytes
        if op == "lookup":
            assert cache.lookup(addr) == (oracle.touch(addr) is not None)
        elif op in ("insert", "insert_dirty"):
            dirty = op == "insert_dirty"
            if oracle.find(addr) is not None:
                with pytest.raises(CacheError):
                    cache.insert(addr, dirty=dirty)
            else:
                assert cache.insert(addr, dirty=dirty) == oracle.insert(addr, dirty)
        elif op == "write":
            # A store hit is a recency touch plus a dirty mark.
            assert cache.lookup(addr, True) == (oracle.touch(addr) is not None
                                                and oracle.mark_dirty(addr))
        elif op == "invalidate":
            assert cache.invalidate(addr) == oracle.invalidate(addr)
        else:
            assert cache.mark_dirty(addr) == oracle.mark_dirty(addr)
        assert cache.state_tuple() == oracle.state_tuple()
        for ways in cache.state_tuple():
            assert len(ways) <= SMALL_GEO.ways


@pytest.mark.parametrize("method", ["lookup", "insert", "invalidate", "write_touch",
                                    "mark_dirty"])
@pytest.mark.parametrize("addr", [ADDR_LIMIT, -64])
def test_public_methods_reject_out_of_range_addresses(method, addr):
    cache = SetAssociativeCache(GEO)
    with pytest.raises(CacheError):
        getattr(cache, method)(addr)


def test_empty_cache_misses():
    cache = SetAssociativeCache(GEO)
    assert not cache.lookup(0x1000)


def test_insert_then_hit():
    cache = SetAssociativeCache(GEO)
    cache.insert(0x1000)
    assert cache.lookup(0x1000)


def test_lru_victim_after_overflow():
    cache = SetAssociativeCache(SMALL_GEO)
    addrs = [compose(t, 2, SMALL_GEO) for t in range(5)]
    for a in addrs:
        cache.insert(a)
    # A (tag 0) was the LRU victim of E
    assert not cache.lookup(addrs[0])
    assert cache.lookup(addrs[1])


def test_insert_prefers_invalid_way():
    cache = SetAssociativeCache(SMALL_GEO)
    for t in range(3):
        cache.insert(compose(t, 0, SMALL_GEO))
    assert cache.insert(compose(3, 0, SMALL_GEO)) is None


def test_eviction_reports_dirty_line_aligned_addr():
    cache = SetAssociativeCache(SMALL_GEO)
    addrs = [compose(t, 1, SMALL_GEO, offset=7) for t in range(4)]
    for a in addrs:
        cache.insert(a)
    cache.write_touch(addrs[0])
    cache.lookup(addrs[1])
    cache.lookup(addrs[2])
    cache.lookup(addrs[3])
    evicted = cache.insert(compose(9, 1, SMALL_GEO))
    assert evicted == (compose(0, 1, SMALL_GEO), True)


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
    a = compose(0, 0, SMALL_GEO)
    cache.insert(a)
    assert cache.write_touch(a)
    for t in range(1, 4):
        cache.insert(compose(t, 0, SMALL_GEO))
    evicted = cache.insert(compose(4, 0, SMALL_GEO))
    assert evicted == (a, True)
