"""Address arithmetic and a generic set-associative cache with LRU replacement."""

from typing import NamedTuple, Optional

ADDR_BITS = 48
ADDR_LIMIT = 1 << ADDR_BITS
MAX_LINES = 1 << 22  # per cache level; the paper's largest, the L2, holds 16k lines


class CacheError(Exception):
    """Internal cache invariant or precondition violation."""


class GeometryError(CacheError):
    """Invalid cache geometry."""


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def checked_replace(self, /, **changes):
    """_replace and copy.replace of a checked named tuple: the copy goes through __new__."""
    return type(self)(**{**self._asdict(), **changes})


class _GeometryFields(NamedTuple):
    line_bytes: int
    num_sets: int
    ways: int
    hit_cycles: int


class CacheGeometry(_GeometryFields):
    """Shape and hit latency of one cache level, checked when built or replaced.

    line_bytes and num_sets must be powers of two so that address
    decomposition is pure bit slicing.
    """

    __slots__ = ()
    _replace = __replace__ = checked_replace  # namedtuple's own skips __new__

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not _is_pow2(self.line_bytes):
            raise GeometryError(f"line_bytes must be a power of two, got {self.line_bytes}")
        if not _is_pow2(self.num_sets):
            raise GeometryError(f"num_sets must be a power of two, got {self.num_sets}")
        if self.ways < 1:
            raise GeometryError(f"ways must be positive, got {self.ways}")
        if self.num_sets * self.ways > MAX_LINES:
            raise GeometryError(f"num_sets * ways is capped at {MAX_LINES} lines, "
                                f"got {self.num_sets * self.ways}")
        if self.hit_cycles < 1:
            raise GeometryError(f"hit_cycles must be positive, got {self.hit_cycles}")
        if self.offset_bits + self.index_bits > ADDR_BITS:
            raise GeometryError(f"line_bytes * num_sets exceeds the {ADDR_BITS}-bit address space")
        return self

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


def compose(tag: int, set_index: int, geo: CacheGeometry, offset: int = 0) -> int:
    """Rebuild a physical address from its (tag, set_index, offset) parts."""
    if not 0 <= set_index < geo.num_sets:
        raise CacheError(f"set index {set_index} out of range")
    addr = (tag << (geo.offset_bits + geo.index_bits)) | (set_index << geo.offset_bits) | offset
    return check_addr(addr)


class SetAssociativeCache:
    """Tag-array-only set-associative cache with true LRU replacement.

    Data payloads are not modeled; hits, dirtiness and evicted lines are the
    only observables. A set evicts only when all of its ways are valid.

    Every method takes a line number, as BackupCache does. A line's set is
    sets[line & index_mask]; its tag, line >> index_bits, appears only in
    state_tuple(). Only the simulator turns byte addresses into lines.
    """

    def __init__(self, geometry: CacheGeometry):
        self.num_ways = geometry.ways
        self.index_bits = geometry.index_bits
        self.index_mask = geometry.num_sets - 1
        # Each set maps line number -> dirty in recency order, least recently used first.
        self.sets: list[dict[int, bool]] = [{} for _ in range(geometry.num_sets)]

    def lookup(self, line: int, store: bool = False) -> bool:
        """Probe a line; a hit makes it most recently used, a store hit also dirty."""
        ways = self.sets[line & self.index_mask]
        dirty = ways.pop(line, None)
        if dirty is None:
            return False
        ways[line] = True if store else dirty
        return True

    def insert(self, line: int, dirty: bool = False) -> Optional[tuple[int, bool]]:
        """Install a line, which must not be resident, as MRU; returns (line, dirty) of the
        LRU victim if the set was full."""
        ways = self.sets[line & self.index_mask]
        if line in ways:
            raise CacheError(f"insert of already-resident line {line:#x}")
        evicted = None
        if len(ways) == self.num_ways:
            victim = next(iter(ways))
            evicted = (victim, ways.pop(victim))
        ways[line] = dirty
        return evicted

    def invalidate(self, line: int) -> bool:
        """Drop the line if present; dirty contents are discarded."""
        return self.sets[line & self.index_mask].pop(line, None) is not None

    def write_touch(self, line: int) -> bool:
        """A store probe, kept only for perfbench/tracer.py, which patches it (ROADMAP item 1)."""
        return self.lookup(line, True)

    def mark_dirty(self, line: int) -> bool:
        """Write-back sink: set the dirty bit if the line is resident, else report a miss.

        Non-allocating: a write-back of a line the cache does not hold goes
        straight to memory. Recency is deliberately left untouched.
        """
        ways = self.sets[line & self.index_mask]
        if line not in ways:
            return False
        ways[line] = True
        return True

    def state_tuple(self) -> tuple:
        """Canonical tag-array state: per set, (tag, dirty) of each valid way, oldest first."""
        shift = self.index_bits
        return tuple(tuple([(line >> shift, d) for line, d in ways.items()]) for ways in self.sets)
