"""A reference model of the bcsim memory hierarchy, written for clarity, not speed.

RefSimulator implements the same rules as bcsim.simulator.Simulator with
the plainest data structures: each L1D/L2 set is a list scanned for its
tag, and the backup cache is a list of slot records scanned for each
replacement tier. It shares no cache code with bcsim, so the differential
test in test_reference.py can compare the two op by op, and test_core.py
and test_backup.py compare RefSetCache and RefBackup with the fast caches.
It draws from its RNG in the same order as the simulator: one randint for
the initial backup size, one randrange per victim, one randint per resize.
"""

import random


class RefSetCache:
    """Set-associative LRU cache: each set is a list of [tag, dirty], oldest first."""

    def __init__(self, geo):
        self.line_bytes = geo.line_bytes
        self.num_sets = geo.num_sets
        self.ways = geo.ways
        self.sets = [[] for _ in range(geo.num_sets)]

    def _where(self, addr):
        line = addr // self.line_bytes
        return self.sets[line % self.num_sets], line // self.num_sets

    def find(self, addr):
        """The [tag, dirty] entry holding addr, or None."""
        entries, tag = self._where(addr)
        for entry in entries:
            if entry[0] == tag:
                return entry
        return None

    def touch(self, addr):
        """Make addr's entry the most recently used; returns it, or None on a miss."""
        entries, _ = self._where(addr)
        entry = self.find(addr)
        if entry is not None:
            entries.remove(entry)
            entries.append(entry)
        return entry

    def insert(self, addr, dirty):
        """Install addr as most recently used; returns the (line address, dirty) evicted, if any."""
        entries, tag = self._where(addr)
        evicted = None
        if len(entries) == self.ways:
            old_tag, old_dirty = entries.pop(0)
            set_index = (addr // self.line_bytes) % self.num_sets
            evicted = ((old_tag * self.num_sets + set_index) * self.line_bytes, old_dirty)
        entries.append([tag, dirty])
        return evicted

    def mark_dirty(self, addr):
        """Set addr's dirty bit without changing its recency; returns whether it was resident."""
        entry = self.find(addr)
        if entry is not None:
            entry[1] = True
        return entry is not None

    def invalidate(self, addr):
        entries, _ = self._where(addr)
        entry = self.find(addr)
        if entry is None:
            return False
        entries.remove(entry)
        return True

    def state_tuple(self):
        return tuple(tuple((tag, dirty) for tag, dirty in entries) for entries in self.sets)


class RefSlot:
    def __init__(self, enabled):
        self.valid = self.dirty = self.used = False
        self.enabled = enabled
        self.addr = 0


class RefBackup:
    """Fully associative backup cache as a list of slot records."""

    def __init__(self, size, max_size, rng):
        self.rng = rng
        self.slots = [RefSlot(enabled=i < size) for i in range(max_size)]

    def find(self, addr):
        for slot in self.slots:
            if slot.valid and slot.addr == addr:
                return slot
        return None

    def lookup(self, addr):
        """A hit marks the line re-used; returns whether it hit."""
        slot = self.find(addr)
        if slot is not None:
            slot.used = True
        return slot is not None

    def write_touch(self, addr):
        """A hit marks the line re-used and dirty; returns whether it hit."""
        slot = self.find(addr)
        if slot is not None:
            slot.used = slot.dirty = True
        return slot is not None

    def invalidate(self, addr):
        """Drop the line if resident, discarding dirty contents; returns whether it was."""
        slot = self.find(addr)
        if slot is not None:
            slot.valid = slot.dirty = slot.used = False
        return slot is not None

    def clear_used(self):
        """Clear every used bit; returns how many were set."""
        cleared = sum(s.used for s in self.slots)
        for slot in self.slots:
            slot.used = False
        return cleared

    def victim(self):
        """Tiered choice of a slot index: invalid, then used=1, then used=0,
        uniform within a tier."""
        tiers = (lambda s: not s.valid, lambda s: s.valid and s.used,
                 lambda s: s.valid and not s.used)
        for in_tier in tiers:
            candidates = [i for i, s in enumerate(self.slots) if s.enabled and in_tier(s)]
            if candidates:
                return candidates[self.rng.randrange(len(candidates))]
        raise AssertionError("no enabled slot")

    def insert(self, addr, dirty=False):
        """Place addr, which is not resident, with used=0; returns the
        (address, dirty) displaced, if any."""
        slot = self.slots[self.victim()]
        displaced = (slot.addr, slot.dirty) if slot.valid else None
        slot.valid, slot.dirty, slot.used, slot.addr = True, dirty, False, addr
        return displaced

    def resize(self, new_size):
        """Returns the dirty lines a shrink drops, in victim order."""
        enabled = [s for s in self.slots if s.enabled]
        dropped = []
        if new_size > len(enabled):
            for slot in [s for s in self.slots if not s.enabled][:new_size - len(enabled)]:
                slot.enabled = True
        for _ in range(len(enabled) - new_size):
            slot = self.slots[self.victim()]
            if slot.valid and slot.dirty:
                dropped.append(slot.addr)
            slot.valid = slot.dirty = slot.used = slot.enabled = False
        return dropped

    def state_tuple(self):
        return tuple((s.valid, s.dirty, s.used, s.enabled, s.addr) for s in self.slots)


class RefSimulator:
    """Baseline (backup is None) or defended hierarchy; access returns the
    AccessOutcome fields as a plain tuple."""

    def __init__(self, config):
        self.config = config
        self.rng = random.Random(config.seed)
        self.l1d = RefSetCache(config.l1d)
        self.l2 = RefSetCache(config.l2)
        self.backup = None
        if config.mode == "backup":
            size = self.rng.randint(config.backup_min, config.backup_max)
            self.backup = RefBackup(size, config.backup_max, self.rng)
            self.countdown = self.reload(size)

    def reload(self, size):
        return size if self.config.fixed_threshold is None else self.config.fixed_threshold

    def write_back(self, addr, writebacks):
        self.l2.mark_dirty(addr)
        writebacks.append(addr)

    def install_l1(self, line, dirty, writebacks):
        evicted = self.l1d.insert(line, dirty)
        if evicted is None:
            return None
        ev_line, ev_dirty = evicted
        if ev_dirty:
            self.write_back(ev_line, writebacks)
        if self.backup is not None and self.backup.find(ev_line) is None:
            displaced = self.backup.insert(ev_line)
            if displaced is not None and displaced[1]:
                self.write_back(displaced[0], writebacks)
        return ev_line

    def fetch_l2(self, line):
        hit_cycles = self.config.l2.hit_cycles
        if self.l2.touch(line) is not None:
            return hit_cycles, True
        self.l2.insert(line, False)
        return hit_cycles + self.config.memory_penalty_cycles, False

    def access(self, addr, store):
        line = addr - addr % self.config.l1d.line_bytes
        l1_cycles = self.config.l1d.hit_cycles
        writebacks = []
        eviction = l2_hit = resized = None
        l1_hit = self.l1d.touch(line) is not None
        bu_hit = False
        if self.backup is not None:
            bu_hit = self.backup.write_touch(line) if store else self.backup.lookup(line)
        if l1_hit:
            case, latency = ("11" if bu_hit else "10"), l1_cycles
            if store:
                self.l1d.mark_dirty(line)
        elif bu_hit:
            case, latency = "01", l1_cycles
            eviction = self.install_l1(line, False, writebacks)
        else:
            case = "00"
            latency, l2_hit = self.fetch_l2(line)
            eviction = self.install_l1(line, store, writebacks)
        if self.backup is not None:
            self.countdown -= 1
            if self.countdown == 0:
                old = sum(s.enabled for s in self.backup.slots)
                new = self.rng.randint(self.config.backup_min, self.config.backup_max)
                self.countdown = self.reload(new)
                for dropped in self.backup.resize(new):
                    self.write_back(dropped, writebacks)
                resized = (old, new)
        return case, latency, eviction, tuple(writebacks), resized, l2_hit

    def context_switch(self):
        if self.backup is None:
            return 0
        return self.backup.clear_used()

    def external_invalidate(self, addr):
        line = addr - addr % self.config.l1d.line_bytes
        in_l1 = self.l1d.invalidate(line)
        in_bu = self.backup is not None and self.backup.invalidate(line)
        in_l2 = self.l2.invalidate(line)
        return in_l1 or in_bu or in_l2
