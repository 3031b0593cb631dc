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

    Every physical slot sits in exactly one of three slot lists, each kept
    in ascending slot order:
      * disabled -- slots outside the enabled size; they never hold data
                    and are invisible to lookups;
      * invalid  -- enabled slots holding no line;
      * resident -- enabled slots holding a line.
    A fourth list, used1, holds the resident slots whose line has used=1,
    also in slot order. A line's first hit insorts its slot there, and
    clear_used empties it; neither moves a slot in or out of resident.

    Victim selection is tiered: an invalid slot first, then a uniform
    random draw among used1, then among resident, which equals the used=0
    lines whenever used1 is empty; a draw indexes a list instead of
    scanning the lines. The enabled size, max_size minus the disabled
    slots, can be resized between min_size and max_size, the physical
    number of lines. Every method changes the lists in place, so
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
        self.resident: list[int] = []
        self.used1: list[int] = []

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
            insort(self.used1, slot)
        return True

    def write_touch(self, addr: int) -> bool:
        """A store probe, kept only for perfbench/tracer.py, which patches it (ROADMAP item 1)."""
        return self.lookup(addr, True)

    def select_victim(self) -> int:
        """Tiered random victim choice among enabled lines, picked as Simulator.run picks it."""
        tier = self.invalid or self.used1 or self.resident
        n = len(tier)
        if not n:
            raise CacheError("no enabled line to select a victim from")
        # Random.choice's own draw, without its two Python frames:
        # getrandbits(k), redrawn until it falls below n.
        k = n.bit_length()
        r = self.rng.getrandbits(k)
        while r >= n:
            r = self.rng.getrandbits(k)
        return tier[r]

    def insert(self, addr: int) -> Optional[tuple[int, bool]]:
        """Take in an L1D victim clean, with used=0, unless it is resident; returns the displaced
        (key, dirty) pair, if any. select_victim draws the slot: an invalid one joins resident,
        and a used one leaves used1. Simulator.run inlines it; kept for perfbench/tracer.py,
        which patches it (ROADMAP 1/3)."""
        if addr in self._where:
            return None
        slot = self.select_victim()
        line = self.lines[slot]
        evicted = None
        if line.valid:
            evicted = (line.addr, line.dirty)
            del self._where[line.addr]
            if line.used:
                del self.used1[bisect_left(self.used1, slot)]
        else:
            del self.invalid[bisect_left(self.invalid, slot)]
            insort(self.resident, slot)
        line.valid, line.dirty, line.used, line.addr = True, False, False, addr
        self._where[addr] = slot
        return evicted

    def invalidate(self, addr: int) -> bool:
        """Drop the line if resident; dirty contents are discarded."""
        slot = self._where.pop(addr, None)
        if slot is None:
            return False
        line = self.lines[slot]
        del self.resident[bisect_left(self.resident, slot)]
        if line.used:
            del self.used1[bisect_left(self.used1, slot)]
        insort(self.invalid, slot)
        line.valid = line.dirty = line.used = False
        return True

    def clear_used(self) -> int:
        """Clear every used bit; returns how many were set."""
        used1, lines = self.used1, self.lines
        for slot in used1:
            lines[slot].used = False
        count = len(used1)
        used1.clear()
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
        victims, invalid, resident, used1 = [], self.invalid, self.resident, self.used1
        for _ in range(-change):
            slot = self.select_victim()
            line = self.lines[slot]
            if not line.valid:
                del invalid[bisect_left(invalid, slot)]
            else:
                del resident[bisect_left(resident, slot)]
                if line.used:
                    del used1[bisect_left(used1, slot)]
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
