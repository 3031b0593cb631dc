"""Per-layer tracing of bcsim from outside its source tree.

install() replaces the public functions and methods of each layer with
wrappers that time every call and read (never modify) arguments, return
values and object state. Class attributes are patched so that internal
self.method() calls are caught, and module-level names are patched where
the caller looks them up.

Per-access calls are aggregated in memory as (calls, total seconds, self
seconds); spans that occur once per run are kept whole with start, end and
parent. dump() returns both for writing out at the end of the run.
"""

import time
from collections import Counter

import bcsim.backup
import bcsim.cli
import bcsim.core
import bcsim.simulator
import bcsim.trace

ROOT = "cli"

# Spans kept whole (with start, end and parent) rather than only aggregated.
WHOLE = {ROOT, "cli.load_config", "trace.parse_trace", "trace.run_trace", "simulator.init",
         "simulator.state_digest", "attacks.run_aes_attack"}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        # Each frame is [whole-span index or None, seconds spent in wrapped children].
        self.stack = [[None, 0.0]]
        self.agg: dict[str, list] = {}
        self.spans: list[dict] = []
        self.counts = Counter()
        self.cache_names: dict[int, str] = {}

    def _open_whole(self, label: str) -> int:
        parent = next((f[0] for f in reversed(self.stack) if f[0] is not None), None)
        self.spans.append({"name": label, "parent": parent,
                           "start": self.clock() - self.origin, "end": None})
        return len(self.spans) - 1

    def wrap(self, fn, label, before=None, after=None):
        """Return fn wrapped in a span; label is a name or a function of the call's args."""
        clock, stack, agg = self.clock, self.stack, self.agg

        def wrapper(*args, **kwargs):
            name = label(args) if callable(label) else label
            seen = before(args) if before is not None else None
            frame = [self._open_whole(name) if name in WHOLE else None, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][1] += dt
                entry = agg.get(name)
                if entry is None:
                    entry = agg[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[1]
                if frame[0] is not None:
                    self.spans[frame[0]]["end"] = self.clock() - self.origin
            if after is not None:
                after(result, args, seen)
            return result

        return wrapper

    def patch(self, owner, attr, label, before=None, after=None):
        # A missing target raises, so a renamed method fails the traced
        # process instead of reading as a zero count.
        setattr(owner, attr, self.wrap(getattr(owner, attr), label, before, after))

    # -- state readers ----------------------------------------------

    def _cache_label(self, method):
        names = self.cache_names
        return lambda args: f"core.{names.get(id(args[0]), 'other')}.{method}"

    def _after_sim_init(self, result, args, seen):
        sim = args[0]
        self.cache_names[id(sim.l1d)] = "l1d"
        self.cache_names[id(sim.l2)] = "l2"

    def _after_access(self, outcome, args, seen):
        c = self.counts
        c["simulator.case_" + outcome.case] += 1
        c["latency_cycles"] += outcome.latency_cycles
        c["simulator.writebacks"] += len(outcome.writebacks)
        if outcome.resized is not None:
            c["simulator.resizes"] += 1
        if outcome.l2_hit is True:
            c["simulator.l2_hits"] += 1
        elif outcome.l2_hit is False:
            c["simulator.l2_misses"] += 1

    def _after_lookup(self, hit, args, seen):
        if hit and self.cache_names.get(id(args[0])) == "l1d":
            self.counts["l1d_hits"] += 1

    def _after_select_victim(self, slot, args, seen):
        # select_victim does not modify lines, so the chosen line still
        # shows the tier it was drawn from.
        line = args[0].lines[slot]
        tier = "invalid" if not line.valid else "used1" if line.used else "used0"
        self.counts["backup.victim." + tier] += 1

    def _after_resize(self, result, args, old_size):
        self.counts["backup.resize.victims"] += max(0, old_size - args[0].current_size)

    def _after_clear_used(self, cleared, args, seen):
        self.counts["backup.clear_used.bits"] += cleared

    def _after_aes(self, result, args, seen):
        self.counts["attacks.samples"] += len(result.latencies)

    def install(self) -> None:
        cli, trace = bcsim.cli, bcsim.trace
        Sim = bcsim.simulator.Simulator
        Cache = bcsim.core.SetAssociativeCache
        Backup = bcsim.backup.BackupCache
        self.patch(cli, "load_config", "cli.load_config")
        self.patch(cli, "parse_trace", "trace.parse_trace")
        self.patch(trace, "parse_line", "trace.parse_line")
        self.patch(cli, "run_trace", "trace.run_trace")
        self.patch(cli, "run_aes_attack", "attacks.run_aes_attack", after=self._after_aes)
        self.patch(Sim, "__init__", "simulator.init", after=self._after_sim_init)
        self.patch(Sim, "access", "simulator.access", after=self._after_access)
        self.patch(Sim, "context_switch", "simulator.context_switch")
        self.patch(Sim, "external_invalidate", "simulator.external_invalidate")
        self.patch(Sim, "state_digest", "simulator.state_digest")
        for method in ("lookup", "insert", "write_touch", "invalidate", "mark_dirty"):
            after = self._after_lookup if method == "lookup" else None
            self.patch(Cache, method, self._cache_label(method), after=after)
        self.patch(Backup, "select_victim", "backup.select_victim",
                   after=self._after_select_victim)
        self.patch(Backup, "resize", "backup.resize",
                   before=lambda args: args[0].current_size, after=self._after_resize)
        self.patch(Backup, "clear_used", "backup.clear_used", after=self._after_clear_used)
        for method in ("insert", "lookup", "contains", "write_touch", "invalidate"):
            self.patch(Backup, method, "backup." + method)

    def run_root(self, fn, *args):
        return self.wrap(fn, ROOT)(*args)

    def dump(self) -> dict:
        return {"agg": {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in self.agg.items()},
                "counts": dict(self.counts), "spans": self.spans}

