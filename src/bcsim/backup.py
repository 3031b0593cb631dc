"""Fully associative backup cache with used/enabled bits and randomized victim selection."""

import random
from bisect import bisect_left, insort
from typing import Optional

from .core import CacheError


class _BackupLine:
    __slots__ = ("valid", "dirty", "used", "enabled", "addr")

    def __init__(self):
        self.valid = False
        self.dirty = False
        self.used = False
        self.enabled = False
        self.addr = 0


class BackupCache:
    """Eviction-absorbing cache at L1 level.

    Per line, beyond valid/dirty:
      * used    -- set when the line is accessed again after installation;
                   cleared in bulk at context switches.
      * enabled -- gates participation; disabled lines never hold data and
                   are invisible to lookups.

    Victim selection is tiered: enabled invalid lines first, then a uniform
    random draw among enabled lines with used=1, then among those with
    used=0. The number of enabled lines can be resized between min_size
    and max_size, the physical number of lines.

    Each enabled slot sits in exactly one of the tier lists invalid, used1
    and used0, kept in ascending slot order and updated on every state
    change, so a victim draw indexes a list instead of scanning the lines.
    """

    def __init__(self, min_size: int, max_size: int, initial_size: int,
                 rng: random.Random):
        if not 1 <= min_size <= max_size:
            raise CacheError(
                f"need 1 <= min_size <= max_size, "
                f"got {min_size}/{max_size}")
        if not min_size <= initial_size <= max_size:
            raise CacheError(f"initial size {initial_size} outside [{min_size}, {max_size}]")
        self.min_size = min_size
        self.max_size = max_size
        self.rng = rng
        self.lines = [_BackupLine() for _ in range(max_size)]
        for line in self.lines[:initial_size]:
            line.enabled = True
        self.current_size = initial_size
        self._where: dict[int, int] = {}
        self.invalid = list(range(initial_size))
        self.used1: list[int] = []
        self.used0: list[int] = []

    def _tier(self, line: _BackupLine) -> list[int]:
        """The tier list holding an enabled line's slot."""
        if not line.valid:
            return self.invalid
        return self.used1 if line.used else self.used0

    @staticmethod
    def _move(slot: int, src: list[int], dst: list[int]) -> None:
        del src[bisect_left(src, slot)]
        insort(dst, slot)

    def contains(self, addr: int) -> bool:
        return addr in self._where

    def lookup(self, addr: int) -> bool:
        """Probe for a line-aligned address; a hit marks the line as re-used."""
        slot = self._where.get(addr)
        if slot is None:
            return False
        line = self.lines[slot]
        if not line.used:
            line.used = True
            self._move(slot, self.used0, self.used1)
        return True

    def write_touch(self, addr: int) -> bool:
        """On hit, mark the line dirty and re-used."""
        slot = self._where.get(addr)
        if slot is None:
            return False
        line = self.lines[slot]
        line.dirty = True
        if not line.used:
            line.used = True
            self._move(slot, self.used0, self.used1)
        return True

    def select_victim(self) -> int:
        """Tiered random victim choice among enabled lines."""
        for tier in (self.invalid, self.used1, self.used0):
            if tier:
                # choice(tier) draws the same slot as tier[randrange(len(tier))].
                return self.rng.choice(tier)
        raise CacheError("no enabled line to select a victim from")

    def insert(self, addr: int, dirty: bool = False) -> Optional[tuple[int, bool]]:
        """Install a line, returning the displaced (address, dirty) pair if any.

        The address must not already be resident; new lines start with used=0.
        """
        if addr in self._where:
            raise CacheError(f"insert of already-resident address {addr:#x}")
        return self._place(addr, dirty)

    def absorb(self, addr: int) -> Optional[tuple[int, bool]]:
        """Take in a line the L1D evicted: install it clean unless it is
        already resident. Returns the displaced (address, dirty) pair, if any."""
        if addr in self._where:
            return None
        return self._place(addr, False)

    def _place(self, addr: int, dirty: bool) -> Optional[tuple[int, bool]]:
        slot = self.select_victim()
        line = self.lines[slot]
        tier = self._tier(line)
        if tier is not self.used0:
            self._move(slot, tier, self.used0)
        evicted = None
        if line.valid:
            evicted = (line.addr, line.dirty)
            del self._where[line.addr]
        line.valid = True
        line.dirty = dirty
        line.used = False
        line.addr = addr
        self._where[addr] = slot
        return evicted

    def invalidate(self, addr: int) -> bool:
        slot = self._where.pop(addr, None)
        if slot is None:
            return False
        line = self.lines[slot]
        self._move(slot, self._tier(line), self.invalid)
        line.valid = False
        line.dirty = False
        line.used = False
        return True

    def clear_used(self) -> int:
        """Clear every used bit; returns how many were set."""
        for slot in self.used1:
            self.lines[slot].used = False
        count = len(self.used1)
        self.used0 = sorted(self.used0 + self.used1)
        self.used1 = []
        return count

    def resize(self, new_size: int) -> list[int]:
        """Change the enabled-line count; returns dirty victims needing write-back.

        Growing enables currently disabled (hence invalid) lines. Shrinking
        picks victims with the normal tiered policy, invalidates them, and
        disables their slots.
        """
        if not self.min_size <= new_size <= self.max_size:
            raise CacheError(f"new size {new_size} outside [{self.min_size}, {self.max_size}]")
        writebacks: list[int] = []
        if new_size > self.current_size:
            needed = new_size - self.current_size
            for slot, line in enumerate(self.lines):
                if needed == 0:
                    break
                if not line.enabled:
                    line.enabled = True
                    insort(self.invalid, slot)
                    needed -= 1
        elif new_size < self.current_size:
            for _ in range(self.current_size - new_size):
                slot = self.select_victim()
                line = self.lines[slot]
                tier = self._tier(line)
                del tier[bisect_left(tier, slot)]
                if line.valid:
                    if line.dirty:
                        writebacks.append(line.addr)
                    del self._where[line.addr]
                line.valid = False
                line.dirty = False
                line.used = False
                line.enabled = False
        self.current_size = new_size
        return writebacks

    def state_tuple(self) -> tuple:
        return tuple(
            (line.valid, line.dirty, line.used, line.enabled, line.addr)
            for line in self.lines
        )
