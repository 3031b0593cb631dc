"""Trace parsing, trace-driven simulation, and statistics accumulation."""

import re
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional

from .simulator import Simulator

KIND_LOAD = "load"
KIND_STORE = "store"
KIND_CTXSWITCH = "ctxswitch"
KIND_INVALIDATE = "invalidate"

# Leading zeros, then at most 12 hex digits: every address fits 48 bits.
_HEXADDR = re.compile(r"0x0*[0-9a-fA-F]{1,12}\Z")
_OPCODES = {"R": KIND_LOAD, "W": KIND_STORE, "INV": KIND_INVALIDATE}
_CTXSWITCH = (KIND_CTXSWITCH, None)

# One parsed record: (kind, address), with address None for a context switch.
Record = tuple[str, Optional[int]]


class TraceError(Exception):
    """Malformed trace input."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_line(lineno: int, line: str) -> Optional[Record]:
    """Parse one trace line into a (kind, addr) pair; returns None for
    comments and blanks.

    Fields are separated by any run of whitespace, and a `#` starts a
    comment that runs to the end of the line.
    """
    fields = (line.split("#", 1)[0] if "#" in line else line).split()
    if len(fields) == 2:
        op, text = fields
        kind = _OPCODES.get(op)
        if kind is None:
            raise TraceError(lineno, f"unrecognized record {line.strip()!r}")
        if not _HEXADDR.match(text):
            raise TraceError(lineno, f"bad address {text!r}")
        return kind, int(text, 16)
    if not fields:
        return None
    if fields == ["CS"]:
        return _CTXSWITCH
    raise TraceError(lineno, f"unrecognized record {line.strip()!r}")


def parse_trace(lines: Iterable[str]) -> list[Record]:
    records = []
    for lineno, line in enumerate(lines, start=1):
        rec = parse_line(lineno, line)
        if rec is not None:
            records.append(rec)
    return records


@dataclass
class SimStats:
    """Aggregate counters for one trace run."""

    accesses: int = 0
    case_counts: dict = field(default_factory=lambda: {"00": 0, "01": 0, "10": 0, "11": 0})
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
        return {**asdict(self), "avg_access_latency": self.avg_access_latency}

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


def run_trace(sim: Simulator, records: Iterable[Record]) -> SimStats:
    """Apply every record in order and accumulate statistics.

    A resize-free L1 hit, one of sim.hit_outcomes, is only counted (by
    identity); every other outcome is unpacked in full.
    """
    access = sim.access
    hit10, hit11 = sim.hit_outcomes
    cases = {"00": 0, "01": 0, "10": 0, "11": 0}
    l2_hits = l2_misses = writebacks = resizes = ctx_switches = invalidations = latency = 0
    n10 = n11 = 0
    for kind, addr in records:
        if kind == KIND_CTXSWITCH:
            sim.context_switch()
            ctx_switches += 1
        elif kind == KIND_INVALIDATE:
            sim.external_invalidate(addr)
            invalidations += 1
        else:
            outcome = access(addr, kind == KIND_STORE)
            if outcome is hit10:
                n10 += 1
                continue
            if outcome is hit11:
                n11 += 1
                continue
            case, cycles, _, wbs, resized, l2_hit = outcome
            cases[case] += 1
            latency += cycles
            if l2_hit is not None:
                if l2_hit:
                    l2_hits += 1
                else:
                    l2_misses += 1
            writebacks += len(wbs)
            if resized is not None:
                resizes += 1
    cases["10"] += n10
    cases["11"] += n11
    latency += (n10 + n11) * hit10.latency_cycles
    return SimStats(
        accesses=sum(cases.values()),
        case_counts=cases,
        l1d_hits=cases["10"] + cases["11"],
        l1d_misses=cases["00"] + cases["01"],
        backup_hits=cases["01"] + cases["11"],
        l2_hits=l2_hits,
        l2_misses=l2_misses,
        writebacks=writebacks,
        resizes=resizes,
        ctx_switches=ctx_switches,
        invalidations=invalidations,
        total_latency_cycles=latency,
    )
