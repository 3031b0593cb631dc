"""Trace parsing and trace-driven simulation."""

import re
from typing import Iterable, Optional

from .simulator import KIND_CTXSWITCH, KIND_INVALIDATE, KIND_LOAD, KIND_STORE, SimStats, Simulator

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


def run_trace(sim: Simulator, records: Iterable[Record]) -> SimStats:
    """Apply every record in order and accumulate statistics."""
    return sim.run(records)
