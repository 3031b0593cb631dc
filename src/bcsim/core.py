"""Address arithmetic and a generic set-associative cache with LRU replacement."""

from dataclasses import dataclass
from typing import Optional

ADDR_BITS = 48
ADDR_LIMIT = 1 << ADDR_BITS


class CacheError(Exception):
    """Internal cache invariant or precondition violation."""


class GeometryError(CacheError):
    """Invalid cache geometry."""


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Shape and hit latency of one cache level.

    line_bytes and num_sets must be powers of two so that address
    decomposition is pure bit slicing.
    """

    line_bytes: int
    num_sets: int
    ways: int
    hit_cycles: int

    def __post_init__(self):
        if not _is_pow2(self.line_bytes):
            raise GeometryError(f"line_bytes must be a power of two, got {self.line_bytes}")
        if not _is_pow2(self.num_sets):
            raise GeometryError(f"num_sets must be a power of two, got {self.num_sets}")
        if self.ways < 1:
            raise GeometryError(f"ways must be positive, got {self.ways}")
        if self.hit_cycles < 1:
            raise GeometryError(f"hit_cycles must be positive, got {self.hit_cycles}")

    @property
    def offset_bits(self) -> int:
        return self.line_bytes.bit_length() - 1

    @property
    def index_bits(self) -> int:
        return self.num_sets.bit_length() - 1


def check_addr(addr: int) -> int:
    if not 0 <= addr < ADDR_LIMIT:
        raise CacheError(f"address {addr:#x} outside 48-bit physical address space")
    return addr


def decompose(addr: int, geo: CacheGeometry) -> tuple[int, int, int]:
    """Split a physical address into (tag, set_index, offset)."""
    check_addr(addr)
    offset = addr & (geo.line_bytes - 1)
    set_index = (addr >> geo.offset_bits) & (geo.num_sets - 1)
    tag = addr >> (geo.offset_bits + geo.index_bits)
    return tag, set_index, offset


def compose(tag: int, set_index: int, geo: CacheGeometry, offset: int = 0) -> int:
    """Rebuild a physical address from its (tag, set_index, offset) parts."""
    if not 0 <= set_index < geo.num_sets:
        raise CacheError(f"set index {set_index} out of range")
    addr = (tag << (geo.offset_bits + geo.index_bits)) | (set_index << geo.offset_bits) | offset
    return check_addr(addr)


class SetAssociativeCache:
    """Tag-array-only set-associative cache with true LRU replacement.

    Data payloads are not modeled; hit/miss, dirtiness, and evicted
    line addresses are the only observables the simulator needs.
    A set evicts only when all of its ways are valid.

    Each public method checks its address. The simulator, which checks an
    address once per access, instead indexes sets directly: addr's set is
    sets[(addr >> offset_bits) & index_mask] and its tag is addr >> tag_shift.
    """

    def __init__(self, geometry: CacheGeometry):
        self.num_ways = geometry.ways
        self.offset_bits = geometry.offset_bits
        self.index_mask = geometry.num_sets - 1
        self.tag_shift = geometry.offset_bits + geometry.index_bits
        # Address bits that select the set, kept when rebuilding a victim's address.
        self.index_field = self.index_mask << self.offset_bits
        # Each set maps tag -> dirty in recency order, least recently used first.
        self.sets: list[dict[int, bool]] = [{} for _ in range(geometry.num_sets)]

    def _locate(self, addr: int) -> tuple[dict[int, bool], int]:
        """The set holding addr and addr's tag."""
        if not 0 <= addr < ADDR_LIMIT:
            check_addr(addr)
        return self.sets[(addr >> self.offset_bits) & self.index_mask], addr >> self.tag_shift

    def lookup(self, addr: int) -> bool:
        """Probe for addr; on hit the line becomes most recently used."""
        ways, tag = self._locate(addr)
        if tag not in ways:
            return False
        ways[tag] = ways.pop(tag)
        return True

    def contains(self, addr: int) -> bool:
        """Residency check with no side effects."""
        ways, tag = self._locate(addr)
        return tag in ways

    def insert(self, addr: int, dirty: bool = False) -> Optional[tuple[int, bool]]:
        """Install addr as MRU; returns (line address, dirty) of the LRU victim if the set was full.

        The caller must have checked that addr is not already resident.
        """
        ways, tag = self._locate(addr)
        if tag in ways:
            raise CacheError(f"insert of already-resident address {addr:#x}")
        evicted = None
        if len(ways) == self.num_ways:
            victim = next(iter(ways))
            evicted = ((victim << self.tag_shift) | (addr & self.index_field), ways.pop(victim))
        ways[tag] = dirty
        return evicted

    def invalidate(self, addr: int) -> bool:
        """Drop the matching line if present; dirty contents are discarded."""
        ways, tag = self._locate(addr)
        return ways.pop(tag, None) is not None

    def write_touch(self, addr: int) -> bool:
        """On hit, mark the line dirty and most recently used."""
        ways, tag = self._locate(addr)
        if ways.pop(tag, None) is None:
            return False
        ways[tag] = True
        return True

    def mark_dirty(self, addr: int) -> bool:
        """Write-back sink: set the dirty bit if addr is resident, else report a miss.

        Non-allocating: a write-back of a line the cache does not hold goes
        straight to memory. Recency is deliberately left untouched.
        """
        ways, tag = self._locate(addr)
        if tag not in ways:
            return False
        ways[tag] = True
        return True

    def state_tuple(self) -> tuple:
        """Canonical tag-array state: per set, (tag, dirty) of each valid way, oldest first."""
        return tuple(tuple(ways.items()) for ways in self.sets)
