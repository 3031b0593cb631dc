"""Memory hierarchy controller: L1D + backup cache + L2, latency accounting, resizing."""

import random
from bisect import insort
from itertools import islice
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

from .backup import BackupCache
from .core import (ADDR_BITS, CacheError, CacheGeometry, SetAssociativeCache, check_addr,
                   checked_replace)

DEFAULT_SEED = 0xB4C4E
MAX_BACKUP_LINES = 1 << 16  # the paper's backup caches hold at most 256 lines

MODE_BASELINE = "baseline"
MODE_BACKUP = "backup"

# Record kinds, which are the trace file's opcodes: a record is (kind, address),
# and a context switch ignores its address.
KIND_LOAD = "R"
KIND_STORE = "W"
KIND_CTXSWITCH = "CS"
KIND_INVALIDATE = "INV"


class ConfigError(CacheError):
    """Invalid simulator configuration."""


class _ConfigFields(NamedTuple):
    mode: str = MODE_BACKUP
    l1d: CacheGeometry = CacheGeometry(line_bytes=64, num_sets=64, ways=4, hit_cycles=3)
    l2: CacheGeometry = CacheGeometry(line_bytes=64, num_sets=2048, ways=8, hit_cycles=20)
    backup_min: int = 192
    backup_max: int = 256
    memory_penalty_cycles: int = 100
    seed: int = DEFAULT_SEED
    fixed_threshold: Optional[int] = None


class SimConfig(_ConfigFields):
    """Full simulator parameterization, checked when built or replaced.

    In baseline mode the backup_* and resize fields are ignored. The miss
    path costs l2.hit_cycles on an L2 hit and additionally
    memory_penalty_cycles on an L2 miss. backup_max is also the backup
    cache's physical size in lines; a fixed_threshold selects fixed resizing.
    """

    __slots__ = ()
    _replace = __replace__ = checked_replace  # namedtuple's own skips __new__

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mode not in (MODE_BASELINE, MODE_BACKUP):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.l1d.line_bytes != self.l2.line_bytes:
            raise ConfigError("L1D and L2 must share one line size")
        if self.memory_penalty_cycles < 1:
            raise ConfigError("memory_penalty_cycles must be positive")
        if self.seed < 0:  # random.Random(-s) replays Random(s)
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.mode == MODE_BACKUP:
            if not 1 <= self.backup_min <= self.backup_max:
                raise ConfigError(
                    f"need 1 <= backup_min <= backup_max, "
                    f"got {self.backup_min}/{self.backup_max}")
            if self.backup_max > MAX_BACKUP_LINES:
                raise ConfigError(f"backup_max is capped at {MAX_BACKUP_LINES} lines, "
                                  f"got {self.backup_max}")
            if self.fixed_threshold is not None and self.fixed_threshold < 1:
                raise ConfigError("fixed_threshold must be positive")
        return self


def baseline_config(seed: int = DEFAULT_SEED) -> SimConfig:
    """Undefended reference system: 4-way 32KB L1D at 2 cycles, 8-way 1MB L2."""
    return SimConfig(
        mode=MODE_BASELINE,
        l1d=CacheGeometry(line_bytes=64, num_sets=128, ways=4, hit_cycles=2),
        seed=seed,
    )


def backup_config(min_kb: int = 12, max_kb: int = 16, seed: int = DEFAULT_SEED) -> SimConfig:
    """Defended system: 4-way 16KB L1D at 3 cycles plus a 16KB backup cache.

    min_kb/max_kb bound the enabled backup size (12-16, 8-16, or 4-16 are
    the studied ranges).
    """
    line = 64
    return SimConfig(
        mode=MODE_BACKUP,
        backup_min=min_kb * 1024 // line,
        backup_max=max_kb * 1024 // line,
        seed=seed,
    )


class AccessOutcome(NamedTuple):
    """Per-access record of hit case, latency, and side effects.

    case is "00"/"01"/"10"/"11" for (L1D hit?, backup hit?); baseline mode
    only produces "10" and "00". l2_hit is set on the "00" path only.
    """

    case: str
    latency_cycles: int
    l1_eviction: Optional[int] = None
    writebacks: tuple[int, ...] = ()
    resized: Optional[tuple[int, int]] = None
    l2_hit: Optional[bool] = None


class SimStats(NamedTuple):
    """Aggregate counters of one Simulator.run. The default case_counts is shared, so read-only."""

    accesses: int = 0
    case_counts: Mapping[str, int] = MappingProxyType({"00": 0, "01": 0, "10": 0, "11": 0})
    l1d_hits: int = 0
    l1d_misses: int = 0
    backup_hits: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    writebacks: int = 0
    resizes: int = 0
    ctx_switches: int = 0
    invalidations: int = 0
    total_latency_cycles: int = 0

    @property
    def avg_access_latency(self) -> float:
        return self.total_latency_cycles / self.accesses if self.accesses else 0.0

    def as_dict(self) -> dict:
        return {**self._asdict(), "case_counts": dict(self.case_counts),
                "avg_access_latency": self.avg_access_latency}

    def as_text(self) -> str:
        lines = []
        for key, value in self.as_dict().items():
            if key == "case_counts":
                for case, count in sorted(value.items()):
                    lines.append(f"case_{case}={count}")
            elif key == "avg_access_latency":
                lines.append(f"{key}={value:.6f}")
            else:
                lines.append(f"{key}={value}")
        return "\n".join(lines) + "\n"


class Simulator:
    """Deterministic state machine over one L1D (+ optional backup) and one L2.

    All randomness (initial backup size, resize draws, victim selection)
    comes from a single generator seeded from the config, so identical
    (config, trace) pairs replay identically.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        # Every level is keyed by line number, addr >> offset_bits: one line size for all.
        self.offset_bits = config.l1d.offset_bits
        self.rng = random.Random(config.seed)
        try:
            self.l1d = SetAssociativeCache(config.l1d)
            self.l2 = SetAssociativeCache(config.l2)
        except MemoryError:  # a level near core.MAX_LINES holds millions of set dicts
            raise ConfigError("out of memory building the caches: " + ", ".join(
                f"{name} {geo.num_sets} sets x {geo.ways} ways"
                for name, geo in (("l1d", config.l1d), ("l2", config.l2)))) from None
        self.backup: Optional[BackupCache] = None
        # The countdown register: accesses left until the next resize, reloaded
        # with fixed_threshold in fixed mode and with the new size otherwise.
        self.mem_access_count: Optional[int] = None
        if config.mode == MODE_BACKUP:
            size = self.rng.randint(config.backup_min, config.backup_max)
            self.backup = BackupCache(min_size=config.backup_min, max_size=config.backup_max,
                                      initial_size=size, rng=self.rng)
            self.mem_access_count = config.fixed_threshold or size

    # -- memory access ------------------------------------------------

    def access(self, addr: int, store: bool = False) -> AccessOutcome:
        """Run one load (store=False) or store through the hierarchy: a
        one-record run whose outcome comes from its events sink."""
        events: list = []
        self.run(((KIND_STORE if store else KIND_LOAD, addr),), None, events)
        return events[0]

    def run(self, records: Iterable[tuple[str, Optional[int]]], latencies: Optional[list] = None,
            events: Optional[list] = None) -> SimStats:
        """Apply (kind, address) records in order and return their statistics.

        The one implementation of an access. In backup mode every access
        probes the BC exactly once, in parallel with the L1D: a hit marks
        the line re-used, and a store hit also dirties it. The L2 fetch, the
        L1 install, the BC install with its victim draw and the L2 write-backs
        are inline too; resizes, context switches and invalidations are method
        calls. Backup-mode records come in chunks that end where the resize
        countdown runs out (context switches and invalidations do not count), and
        the resize runs between chunks, patched into the last access's event.
        latencies gets each access's latency; events gets each record's
        result, as access, context_switch or external_invalidate returns it.
        A record of any other kind raises CacheError; the records before it
        stay applied.
        """
        l1d, l2, backup, config = self.l1d, self.l2, self.backup, self.config
        l1_sets, l1_mask, l1_ways = l1d.sets, l1d.index_mask, l1d.num_ways
        l2_sets, l2_mask, l2_ways = l2.sets, l2.index_mask, l2.num_ways
        offset = self.offset_bits
        l1_cycles, l2_cycles = config.l1d.hit_cycles, config.l2.hit_cycles
        miss_cycles = l2_cycles + config.memory_penalty_cycles
        # Locals: on CPython 3.11 a string compare that feeds a jump is specialised.
        load_kind, store_kind = KIND_LOAD, KIND_STORE
        where = None
        if backup is not None:
            # clear_used, invalidate and resize mutate the slot lists in place,
            # so they may be held across those calls.
            where, lines, invalid = backup._where, backup.lines, backup.invalid
            resident, used1, getrandbits = backup.resident, backup.used1, backup.rng.getrandbits
        # The countdown, None in baseline mode: each chunk asks for count records,
        # and an access is due for a resize when it ends a chunk of count accesses.
        count, records = self.mem_access_count, iter(records)
        n00 = n01 = n10 = n11 = l2_hits = l2_misses = writebacks = resizes = switches = 0
        invalidations = chunk_start = 0
        try:
            while True:
                chunk_start, specials = n00 + n01 + n10 + n11, switches + invalidations
                for kind, addr in records if count is None else islice(records, count):
                    if kind == load_kind:
                        store = False
                    elif kind == store_kind:
                        store = True
                    else:
                        if kind == KIND_CTXSWITCH:
                            switches += 1
                            result = self.context_switch()
                        elif kind == KIND_INVALIDATE:
                            invalidations += 1
                            result = self.external_invalidate(addr)
                        else:
                            raise CacheError(f"unknown record kind {kind!r}")
                        if events is not None:
                            events.append(result)
                        continue
                    # The one address check of an access: the paths below index
                    # the L1D, BC and L2 directly by its line number.
                    if addr >> ADDR_BITS:  # nonzero unless 0 <= addr < 2**48
                        check_addr(addr)
                    line = addr >> offset
                    ways = l1_sets[line & l1_mask]
                    dirty = ways.pop(line, None)
                    slot = None  # stays None unless the BC holds the line
                    if where is not None:
                        slot = where.get(line)
                        if slot is not None:
                            entry = lines[slot]
                            if store:
                                entry.dirty = True
                            if not entry.used:
                                entry.used = True
                                insort(used1, slot)
                    if dirty is not None:
                        # An L1D hit makes the line most recently used, and a
                        # store dirties it.
                        ways[line] = True if store else dirty
                        if slot is not None:
                            n11 += 1
                        else:
                            n10 += 1
                        if latencies is not None:
                            latencies.append(l1_cycles)
                        if events is not None:
                            events.append(tuple.__new__(AccessOutcome, (
                                "11" if slot is not None else "10", l1_cycles, None, (), None, None)))
                        continue
                    # An L1D miss. On a BC hit the line fill happens after the response,
                    # and the BC keeps its copy, so the L1 copy is installed clean.
                    # Otherwise the line comes from the L2, which allocates it clean on
                    # a miss and drops its LRU victim (memory traffic is not modeled).
                    if slot is not None:
                        case, latency, l2_hit = "01", l1_cycles, None
                        n01 += 1
                        store = False
                    else:
                        case = "00"
                        n00 += 1
                        l2_set = l2_sets[line & l2_mask]
                        l2_dirty = l2_set.pop(line, None)
                        l2_hit = l2_dirty is not None
                        if l2_hit:
                            l2_set[line] = l2_dirty
                            latency = l2_cycles
                            l2_hits += 1
                        else:
                            if len(l2_set) == l2_ways:
                                del l2_set[next(iter(l2_set))]
                            l2_set[line] = False
                            latency = miss_cycles
                            l2_misses += 1
                    # Install the line as MRU. A displaced dirty line is written back:
                    # the L2 sets its dirty bit if it holds the line, and leaves its
                    # recency alone (mark_dirty). With a BC the displaced line is then
                    # placed there clean, with used=0, unless it is already resident.
                    wbs, eviction = (), None
                    if len(ways) == l1_ways:
                        eviction = next(iter(ways))
                        if ways.pop(eviction):
                            wb_set = l2_sets[eviction & l2_mask]
                            if eviction in wb_set:
                                wb_set[eviction] = True
                            wbs = (eviction,)
                            writebacks += 1
                        if where is not None and eviction not in where:
                            # select_victim's draw, getrandbits(k) below n, from the first non-empty
                            # of invalid, used1 and resident, reached only when no line has used=1.
                            tier = invalid or used1 or resident
                            n = len(tier)
                            if not n:
                                raise CacheError("no enabled line to select a victim from")
                            k = n.bit_length()
                            r = getrandbits(k)
                            while r >= n:
                                r = getrandbits(k)
                            slot = tier[r]
                            entry = lines[slot]
                            if entry.valid:  # the slot stays resident, with used=0
                                if tier is used1:
                                    del used1[r]
                                displaced = entry.addr
                                del where[displaced]
                                if entry.dirty:
                                    wb_set = l2_sets[displaced & l2_mask]
                                    if displaced in wb_set:
                                        wb_set[displaced] = True
                                    wbs += (displaced,)
                                    writebacks += 1
                                entry.dirty = entry.used = False
                            else:  # an invalid line's dirty and used bits are clear
                                del invalid[r]
                                insort(resident, slot)
                                entry.valid = True
                            entry.addr = eviction
                            where[eviction] = slot
                    ways[line] = store
                    if latencies is not None:
                        latencies.append(latency)
                    if events is not None:
                        # In byte addresses, by the namedtuple's generated __new__ without its frame.
                        events.append(tuple.__new__(AccessOutcome, (
                            case, latency, None if eviction is None else eviction << offset,
                            tuple([wb << offset for wb in wbs]), None, l2_hit)))
                if count is None:
                    break
                accessed = n00 + n01 + n10 + n11 - chunk_start
                if accessed < count:
                    if accessed + switches + invalidations - specials < count:
                        break  # the records ran out
                    count -= accessed
                    continue
                # The chunk's last access ran the countdown out: the resize is its event's.
                resized, written_back = self._resize()
                count = self.mem_access_count
                resizes += 1
                writebacks += len(written_back)
                if events is not None:
                    event = events[-1]
                    events[-1] = event._replace(resized=resized, writebacks=event.writebacks + tuple(
                        [wb << offset for wb in written_back]))
        finally:
            # Also when a record raises: the accesses before it keep their countdown.
            if backup is not None:
                self.mem_access_count = count - (n00 + n01 + n10 + n11 - chunk_start)
        # Positional, in field order: twelve keywords would cost a one-access run a quarter
        # of its time.
        return SimStats(n00 + n01 + n10 + n11, {"00": n00, "01": n01, "10": n10, "11": n11},
                        n10 + n11, n00 + n01, n01 + n11, l2_hits, l2_misses, writebacks, resizes,
                        switches, invalidations, (n01 + n10 + n11) * l1_cycles
                        + l2_hits * l2_cycles + l2_misses * miss_cycles)

    def _resize(self) -> tuple[tuple[int, int], tuple[int, ...]]:
        """Resize the BC once the countdown runs out: ((old, new), write-backs as line numbers)."""
        old = self.backup.current_size
        new = self.rng.randint(self.config.backup_min, self.config.backup_max)
        self.mem_access_count = self.config.fixed_threshold or new
        written_back = tuple(self.backup.resize(new))
        for wb in written_back:
            self.l2.mark_dirty(wb)
        return (old, new), written_back

    # -- other events -------------------------------------------------

    def context_switch(self) -> int:
        """Clear every backup used bit; does not count as a memory access."""
        if self.backup is None:
            return 0
        return self.backup.clear_used()

    def external_invalidate(self, addr: int) -> bool:
        """Coherence invalidation from below: drop the line everywhere."""
        line = check_addr(addr) >> self.offset_bits
        in_l1 = self.l1d.invalidate(line)
        in_bu = self.backup is not None and self.backup.invalidate(line)
        in_l2 = self.l2.invalidate(line)
        return in_l1 or in_bu or in_l2

    # -- introspection ------------------------------------------------

    def backup_state(self) -> tuple:
        """The BC's state_tuple() with each slot's line number as a byte address."""
        shift = self.offset_bits
        return tuple(slot[:4] + (slot[4] << shift,) for slot in self.backup.state_tuple())

    def state_digest(self) -> str:
        """SHA-256 over all tag arrays, the backup size and the countdown (hex string)."""
        import hashlib  # imported here: only sim hashes, and OpenSSL costs ~4 MB of RSS
        parts = [self.config.mode, repr(self.l1d.state_tuple()), repr(self.l2.state_tuple())]
        if self.backup is not None:
            parts.append(repr(self.backup_state()))
            parts.append(f"{self.backup.current_size},{self.mem_access_count}")
        return hashlib.sha256("|".join(parts).encode()).hexdigest()
