"""Trace parsing and trace-driven simulation."""

import re
from itertools import repeat
from typing import Iterable, Optional, TextIO

from .simulator import KIND_CTXSWITCH, KIND_INVALIDATE, KIND_LOAD, KIND_STORE, SimStats, Simulator

# Leading zeros, then at most 12 hex digits: every address fits 48 bits.
# Written so that a string matches in one way only, which keeps a failed
# match of a whole block (_CANONICAL) linear in its length.
_ADDR = r"0x(?:0*[1-9a-fA-F][0-9a-fA-F]{0,11}|0+)"
_HEXADDR = re.compile(_ADDR + r"\Z")
_OPCODES = {"R": KIND_LOAD, "W": KIND_STORE, "INV": KIND_INVALIDATE}
_CTXSWITCH = (KIND_CTXSWITCH, None)
# Whole lines in canonical form only: an access as `OP 0xHEX` with one
# space, `CS`, or an empty line, each ending in "\n". Such a block holds
# no comment, and no `S` outside a `CS` line.
_CANONICAL = re.compile(rf"(?:(?:R|W|INV) {_ADDR}\n|CS\n|\n)*")
# Characters read at a time; a block is then completed to a whole line.
BLOCK_CHARS = 4096

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


def parse_trace(source: TextIO) -> list[Record]:
    """Parse a text stream of trace lines into records, skipping comments
    and blanks.

    The stream is read in blocks of about BLOCK_CHARS characters, each
    completed to a whole line. A canonical block becomes records in C
    calls, one run of lines between `CS` lines at a time. Any other block
    goes line by line through parse_line, which owns the grammar and its
    errors.
    """
    records: list[Record] = []
    lineno = 1
    while block := source.read(BLOCK_CHARS):
        if block[-1] != "\n":
            block += source.readline()
        if _CANONICAL.fullmatch(block):
            for i, seg in enumerate(block.split("CS\n")):
                if i:
                    records.append(_CTXSWITCH)
                toks = seg.split()
                records.extend(zip(map(_OPCODES.__getitem__, toks[::2]),
                                   map(int, toks[1::2], repeat(16))))
        else:
            for n, line in enumerate(block.split("\n"), lineno):
                rec = parse_line(n, line)
                if rec is not None:
                    records.append(rec)
        lineno += block.count("\n")
    return records


def run_trace(sim: Simulator, records: Iterable[Record]) -> SimStats:
    """Apply every record in order and accumulate statistics."""
    return sim.run(records)
