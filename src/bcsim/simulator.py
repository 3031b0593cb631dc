"""Memory hierarchy controller: L1D + backup cache + L2, latency accounting, resizing."""

import hashlib
import random
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .backup import BackupCache
from .core import ADDR_LIMIT, CacheError, CacheGeometry, SetAssociativeCache, check_addr

DEFAULT_SEED = 0xB4C4E

MODE_BASELINE = "baseline"
MODE_BACKUP = "backup"


class ConfigError(CacheError):
    """Invalid simulator configuration."""


@dataclass(frozen=True)
class SimConfig:
    """Full simulator parameterization.

    In baseline mode the backup_* and resize fields are ignored. The miss
    path costs l2.hit_cycles on an L2 hit and additionally
    memory_penalty_cycles on an L2 miss. backup_max is also the backup
    cache's physical size in lines; a fixed_threshold selects fixed resizing.
    """

    mode: str = MODE_BACKUP
    l1d: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(line_bytes=64, num_sets=64, ways=4, hit_cycles=3))
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(line_bytes=64, num_sets=2048, ways=8, hit_cycles=20))
    backup_min: int = 192
    backup_max: int = 256
    memory_penalty_cycles: int = 100
    seed: int = DEFAULT_SEED
    fixed_threshold: Optional[int] = None

    def __post_init__(self):
        if self.mode not in (MODE_BASELINE, MODE_BACKUP):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.l1d.line_bytes != self.l2.line_bytes:
            raise ConfigError("L1D and L2 must share one line size")
        if self.memory_penalty_cycles < 1:
            raise ConfigError("memory_penalty_cycles must be positive")
        if self.mode == MODE_BACKUP:
            if not 1 <= self.backup_min <= self.backup_max:
                raise ConfigError(
                    f"need 1 <= backup_min <= backup_max, "
                    f"got {self.backup_min}/{self.backup_max}")
            if self.fixed_threshold is not None and self.fixed_threshold < 1:
                raise ConfigError("fixed_threshold must be positive")


def baseline_config(seed: int = DEFAULT_SEED) -> SimConfig:
    """Undefended reference system: 4-way 32KB L1D at 2 cycles, 8-way 1MB L2."""
    return SimConfig(
        mode=MODE_BASELINE,
        l1d=CacheGeometry(line_bytes=64, num_sets=128, ways=4, hit_cycles=2),
        seed=seed,
    )


def backup_config(min_kb: int = 12, max_kb: int = 16, seed: int = DEFAULT_SEED,
                  fixed_threshold: Optional[int] = None) -> SimConfig:
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
        fixed_threshold=fixed_threshold,
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


class Simulator:
    """Deterministic state machine over one L1D (+ optional backup) and one L2.

    All randomness (initial backup size, resize draws, victim selection)
    comes from a single generator seeded from the config, so identical
    (config, trace) pairs replay identically.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self.l1d = SetAssociativeCache(config.l1d)
        self.l2 = SetAssociativeCache(config.l2)
        self.backup: Optional[BackupCache] = None
        # The countdown register: memory accesses left until the next resize.
        self.mem_access_count: Optional[int] = None
        self._l1_hit_cycles = config.l1d.hit_cycles
        self._l2_hit_cycles = config.l2.hit_cycles
        self._l2_miss_cycles = config.l2.hit_cycles + config.memory_penalty_cycles
        # Outcomes are immutable, so every resize-free L1 hit shares the
        # one for its case, indexed by the BC probe's result.
        self._hit_outcomes = (AccessOutcome("10", config.l1d.hit_cycles),
                              AccessOutcome("11", config.l1d.hit_cycles))
        self._line_mask = ~(config.l1d.line_bytes - 1)
        if config.mode == MODE_BACKUP:
            size = self.rng.randint(config.backup_min, config.backup_max)
            self.backup = BackupCache(
                min_size=config.backup_min,
                max_size=config.backup_max,
                initial_size=size,
                rng=self.rng,
            )
            self.mem_access_count = self._countdown(size)

    # -- memory access ------------------------------------------------

    def access(self, addr: int, store: bool = False) -> AccessOutcome:
        """Run one load (store=False) or store through the hierarchy.

        In backup mode every access probes the BC exactly once: lookup for a
        load, write_touch for a store. Outcomes are immutable and may be
        shared between accesses: every L1 hit that does not resize returns
        the same outcome object for its case.
        """
        # The one address check of an access: the paths below index the
        # L1D and L2 sets directly.
        if not 0 <= addr < ADDR_LIMIT:
            check_addr(addr)
        l1d = self.l1d
        ways = l1d.sets[(addr >> l1d.offset_bits) & l1d.index_mask]
        tag = addr >> l1d.tag_shift
        # An L1D hit makes the line most recently used, and a store dirties it.
        dirty = ways.pop(tag, None)
        if dirty is not None:
            ways[tag] = True if store else dirty
        backup = self.backup
        if backup is None:
            if dirty is not None:
                return self._hit_outcomes[False]
            bu_hit = False
        else:
            la = addr & self._line_mask
            # One BC probe: a hit marks the line re-used, and a store dirties it.
            bu_hit = backup.write_touch(la) if store else backup.lookup(la)
            if dirty is not None:
                count = self.mem_access_count = self.mem_access_count - 1
                if count > 0:
                    return self._hit_outcomes[bu_hit]
                writebacks: list[int] = []
                resized = self._resize(writebacks)
                return self._hit_outcomes[bu_hit]._replace(writebacks=tuple(writebacks),
                                                           resized=resized)
        # An L1D miss. On a BC hit the line fill happens after the response,
        # and the BC keeps its copy, so the L1 copy is installed clean.
        # Otherwise the line comes from the L2, which allocates it clean on a
        # miss and drops its LRU victim (memory traffic is not modeled).
        if bu_hit:
            case, latency, l2_hit = "01", self._l1_hit_cycles, None
            store = False
        else:
            case = "00"
            l2 = self.l2
            l2_ways = l2.sets[(addr >> l2.offset_bits) & l2.index_mask]
            l2_tag = addr >> l2.tag_shift
            l2_dirty = l2_ways.pop(l2_tag, None)
            l2_hit = l2_dirty is not None
            if l2_hit:
                l2_ways[l2_tag] = l2_dirty
                latency = self._l2_hit_cycles
            else:
                if len(l2_ways) == l2.num_ways:
                    del l2_ways[next(iter(l2_ways))]
                l2_ways[l2_tag] = False
                latency = self._l2_miss_cycles
        # Install the line as MRU. A displaced dirty line is written back,
        # and with a BC the displaced line is then placed there clean.
        writebacks = []
        eviction = None
        if len(ways) == l1d.num_ways:
            victim = next(iter(ways))
            eviction = (victim << l1d.tag_shift) | (addr & l1d.index_field)
            if ways.pop(victim):
                self.l2.mark_dirty(eviction)
                writebacks.append(eviction)
            if backup is not None:
                displaced = backup.absorb(eviction)
                if displaced is not None and displaced[1]:
                    self.l2.mark_dirty(displaced[0])
                    writebacks.append(displaced[0])
        ways[tag] = store
        resized = None
        if backup is not None:
            self.mem_access_count -= 1
            if self.mem_access_count <= 0:
                resized = self._resize(writebacks)
        return AccessOutcome(case, latency, eviction, tuple(writebacks), resized, l2_hit)

    def _countdown(self, size: int) -> int:
        """The counter reload after sizing the backup to size: the size
        itself in dynamic mode, fixed_threshold in fixed mode."""
        threshold = self.config.fixed_threshold
        return size if threshold is None else threshold

    def _resize(self, writebacks: list[int]) -> tuple[int, int]:
        """Resize the backup once the access counter runs out.

        Returns (old size, new size), appending the lines the shrink wrote
        back to writebacks.
        """
        old = self.backup.current_size
        new = self.rng.randint(self.config.backup_min, self.config.backup_max)
        self.mem_access_count = self._countdown(new)
        for wb in self.backup.resize(new):
            self.l2.mark_dirty(wb)
            writebacks.append(wb)
        return old, new

    # -- other events -------------------------------------------------

    def context_switch(self) -> int:
        """Clear every backup used bit; does not count as a memory access."""
        if self.backup is None:
            return 0
        return self.backup.clear_used()

    def external_invalidate(self, addr: int) -> bool:
        """Coherence invalidation from below: drop the line everywhere."""
        la = addr & self._line_mask
        in_l1 = self.l1d.invalidate(addr)
        in_bu = self.backup.invalidate(la) if self.backup is not None else False
        in_l2 = self.l2.invalidate(addr)
        return in_l1 or in_bu or in_l2

    # -- introspection ------------------------------------------------

    def state_digest(self) -> str:
        """SHA-256 over all tag arrays, the backup size and the countdown (hex string)."""
        parts = [self.config.mode, repr(self.l1d.state_tuple()), repr(self.l2.state_tuple())]
        if self.backup is not None:
            parts.append(repr(self.backup.state_tuple()))
            parts.append(f"{self.backup.current_size},{self.mem_access_count}")
        return hashlib.sha256("|".join(parts).encode()).hexdigest()
