"""Fully associative, resizable backup cache with used bits and randomized victim selection."""

import random
from bisect import bisect_left, insort
from typing import Optional

from .core import CacheError


class _BackupLine:
    __slots__ = ("valid", "dirty", "used", "addr")

    def __init__(self):
        self.valid = False
        self.dirty = False
        self.used = False
        self.addr = 0


class BackupCache:
    """Eviction-hiding cache at L1 level.

    A line, named by any int key (Simulator.run passes line numbers), enters
    clean with used=0 when the L1D evicts it (insert). Every access probes it
    once (lookup): a hit sets the used bit, and a store hit also sets dirty.
    Used bits are cleared in bulk at context switches.

    Every physical slot sits in exactly one of four slot lists, each kept
    in ascending slot order. A state change moves the slot where it
    happens, by one bisect_left deletion and one insort:
      * disabled -- slots outside the enabled size; they never hold data
                    and are invisible to lookups;
      * invalid  -- enabled slots holding no line;
      * used1    -- enabled slots holding a line with used=1;
      * used0    -- enabled slots holding a line with used=0.

    Victim selection is tiered: an invalid slot first, then a uniform
    random draw among used1, then among used0; a draw indexes a list
    instead of scanning the lines. The enabled size, max_size minus the
    disabled slots, can be resized between min_size and max_size, the
    physical number of lines. Every method changes the lists in place, so
    Simulator.run may hold them across its calls.
    """

    def __init__(self, min_size: int, max_size: int, initial_size: int,
                 rng: random.Random):
        if not 1 <= min_size <= max_size:
            raise CacheError(f"need 1 <= min_size <= max_size, got {min_size}/{max_size}")
        if not min_size <= initial_size <= max_size:
            raise CacheError(f"initial size {initial_size} outside [{min_size}, {max_size}]")
        self.min_size = min_size
        self.max_size = max_size
        self.rng = rng
        self.lines = [_BackupLine() for _ in range(max_size)]
        self._where: dict[int, int] = {}
        self.disabled = list(range(initial_size, max_size))
        self.invalid = list(range(initial_size))
        self.used1: list[int] = []
        self.used0: list[int] = []

    @property
    def current_size(self) -> int:
        """The number of enabled lines."""
        return self.max_size - len(self.disabled)

    def contains(self, addr: int) -> bool:
        return addr in self._where

    def lookup(self, addr: int, store: bool = False) -> bool:
        """Probe a line by its key; a hit marks the line re-used, a store hit also dirty.
        Simulator.run inlines it; kept for perfbench/tracer.py, which patches it (ROADMAP 3)."""
        slot = self._where.get(addr)
        if slot is None:
            return False
        line = self.lines[slot]
        if store:
            line.dirty = True
        if not line.used:
            line.used = True
            used0 = self.used0
            del used0[bisect_left(used0, slot)]
            insort(self.used1, slot)
        return True

    def write_touch(self, addr: int) -> bool:
        """A store probe, kept only for perfbench/tracer.py, which patches it (ROADMAP item 1)."""
        return self.lookup(addr, True)

    def select_victim(self) -> int:
        """Tiered random victim choice among enabled lines."""
        for tier in (self.invalid, self.used1, self.used0):
            if tier:
                # Random.choice's own draw, without its two Python frames:
                # getrandbits(k), redrawn until it falls below n.
                n = len(tier)
                k = n.bit_length()
                r = self.rng.getrandbits(k)
                while r >= n:
                    r = self.rng.getrandbits(k)
                return tier[r]
        raise CacheError("no enabled line to select a victim from")

    def insert(self, addr: int) -> Optional[tuple[int, bool]]:
        """Take in an L1D victim clean, with used=0, unless it is resident; returns the displaced
        (key, dirty) pair, if any. select_victim draws the slot and _empty moves it to used0.
        Simulator.run inlines it; kept for perfbench/tracer.py, which patches it (ROADMAP 1/3)."""
        if addr in self._where:
            return None
        slot = self.select_victim()
        line = self.lines[slot]
        evicted = (line.addr, line.dirty) if line.valid else None
        self._empty(slot, self.used0)
        line.valid = True
        line.addr = addr
        self._where[addr] = slot
        return evicted

    def _empty(self, slot: int, dst: list[int]) -> Optional[int]:
        """Clear an enabled slot's line and move the slot to dst (invalid, or
        used0 when insert refills it); returns the line's key if it held
        dirty data."""
        line = self.lines[slot]
        src = self.invalid if not line.valid else self.used1 if line.used else self.used0
        del src[bisect_left(src, slot)]
        insort(dst, slot)
        dirty_addr = None
        if line.valid:
            del self._where[line.addr]
            if line.dirty:
                dirty_addr = line.addr
        line.valid = line.dirty = line.used = False
        return dirty_addr

    def invalidate(self, addr: int) -> bool:
        """Drop the line if resident; dirty contents are discarded."""
        slot = self._where.get(addr)
        if slot is None:
            return False
        self._empty(slot, self.invalid)
        return True

    def clear_used(self) -> int:
        """Clear every used bit; returns how many were set."""
        for slot in self.used1:
            self.lines[slot].used = False
        count = len(self.used1)
        self.used0[:] = sorted(self.used0 + self.used1)
        self.used1.clear()
        return count

    def resize(self, new_size: int) -> list[int]:
        """Change the enabled-line count; returns dirty victims needing write-back.

        Growing enables the lowest disabled (hence invalid) slots. Shrinking
        picks victims with the normal tiered policy, one select_victim call
        each, clears each one's slot in place, and disables them all at once.
        """
        if not self.min_size <= new_size <= self.max_size:
            raise CacheError(f"new size {new_size} outside [{self.min_size}, {self.max_size}]")
        writebacks: list[int] = []
        change = new_size - self.current_size
        if change > 0:
            self.invalid[:] = sorted(self.invalid + self.disabled[:change])
            del self.disabled[:change]
        victims = []
        for _ in range(-change):
            slot = self.select_victim()
            line = self.lines[slot]
            src = self.invalid if not line.valid else self.used1 if line.used else self.used0
            del src[bisect_left(src, slot)]
            if line.valid:
                del self._where[line.addr]
                if line.dirty:
                    writebacks.append(line.addr)
            line.valid = line.dirty = line.used = False
            victims.append(slot)
        self.disabled[:] = sorted(self.disabled + victims)
        return writebacks

    def state_tuple(self) -> tuple:
        disabled = set(self.disabled)
        return tuple(
            (line.valid, line.dirty, line.used, slot not in disabled, line.addr)
            for slot, line in enumerate(self.lines)
        )
