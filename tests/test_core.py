import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import RefSetCache

from bcsim.core import (
    ADDR_LIMIT,
    CacheError,
    CacheGeometry,
    GeometryError,
    SetAssociativeCache,
    compose,
    decompose,
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
])
def test_geometry_rejects_bad_shapes(kwargs):
    with pytest.raises(GeometryError):
        CacheGeometry(**kwargs)


def test_decompose_zero():
    assert decompose(0x0, GEO) == (0, 0, 0)


def test_decompose_simple():
    assert decompose(0x1040, GEO) == (1, 1, 0)


def _bit_slice_oracle(addr, geo):
    # Independent route: textual binary slicing instead of shifts.
    bits = format(addr, "048b")
    off_bits = geo.offset_bits
    idx_bits = geo.index_bits
    tag = int(bits[: 48 - off_bits - idx_bits], 2)
    idx = int(bits[48 - off_bits - idx_bits: 48 - off_bits], 2)
    off = int(bits[48 - off_bits:], 2)
    return tag, idx, off


def test_decompose_max_address_against_bit_slicing():
    addr = 0xFFFFFFFFFFFF
    assert _bit_slice_oracle(addr, GEO) == (0xFFFFFFFFF, 63, 63)
    assert decompose(addr, GEO) == _bit_slice_oracle(addr, GEO)


@given(addr=st.integers(min_value=0, max_value=ADDR_LIMIT - 1))
def test_decompose_matches_bit_slicing(addr):
    assert decompose(addr, GEO) == _bit_slice_oracle(addr, GEO)


@given(tag=st.integers(min_value=0, max_value=(1 << 36) - 1),
       set_index=st.integers(min_value=0, max_value=63))
def test_address_round_trip(tag, set_index):
    addr = compose(tag, set_index, GEO)
    got_tag, got_idx, got_off = decompose(addr, GEO)
    assert (got_tag, got_idx, got_off) == (tag, set_index, 0)


def test_decompose_rejects_out_of_range():
    with pytest.raises(CacheError):
        decompose(ADDR_LIMIT, GEO)


def test_line_addr_clears_offset():
    tag, set_index, _ = decompose(0x1043, GEO)
    assert compose(tag, set_index, GEO) == 0x1040


SMALL_GEO = CacheGeometry(line_bytes=64, num_sets=4, ways=4, hit_cycles=1)

ops_strategy = st.lists(
    st.tuples(st.sampled_from(["lookup", "insert", "insert_dirty", "write", "invalidate",
                               "mark_dirty", "contains"]),
              st.integers(min_value=0, max_value=31)),
    max_size=1000)


@settings(max_examples=200, deadline=None)
@given(ops=ops_strategy)
# Five lines of set 0: mark_dirty leaves line 0 least recently used, so it is the victim.
@example(ops=[("insert", 0), ("insert", 4), ("mark_dirty", 0), ("insert", 8), ("insert", 12),
              ("insert", 16)])
def test_lru_matches_brute_force_oracle(ops):
    cache = SetAssociativeCache(SMALL_GEO)
    oracle = RefSetCache(SMALL_GEO)
    for op, slot in ops:
        addr = slot * SMALL_GEO.line_bytes
        if op == "lookup":
            assert cache.lookup(addr) == (oracle.touch(addr) is not None)
        elif op in ("insert", "insert_dirty"):
            dirty = op == "insert_dirty"
            if cache.contains(addr):
                with pytest.raises(CacheError):
                    cache.insert(addr, dirty=dirty)
            else:
                assert cache.insert(addr, dirty=dirty) == oracle.insert(addr, dirty)
        elif op == "write":
            # A write hit is a recency touch plus a dirty mark.
            assert cache.write_touch(addr) == (oracle.touch(addr) is not None
                                               and oracle.mark_dirty(addr))
        elif op == "invalidate":
            assert cache.invalidate(addr) == oracle.invalidate(addr)
        elif op == "mark_dirty":
            assert cache.mark_dirty(addr) == oracle.mark_dirty(addr)
        else:
            assert cache.contains(addr) == (oracle.find(addr) is not None)
        assert cache.state_tuple() == oracle.state_tuple()
        for ways in cache.state_tuple():
            assert len(ways) <= SMALL_GEO.ways


@pytest.mark.parametrize("method", ["lookup", "contains", "insert", "invalidate",
                                    "write_touch", "mark_dirty"])
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
