"""Trace parsing and trace-driven simulation."""

import re
from itertools import repeat
from typing import Iterable, Iterator, Optional, TextIO

from .simulator import KIND_CTXSWITCH, KIND_INVALIDATE, KIND_LOAD, KIND_STORE, SimStats, Simulator

# Leading zeros, then at most 12 hex digits: every address fits 48 bits.
# Written so that a string matches in one way only, which keeps a failed
# match of a whole block (_CANONICAL) linear in its length.
_ADDR = r"0x(?:0*[1-9a-fA-F][0-9a-fA-F]{0,11}|0+)"
_HEXADDR = re.compile(_ADDR + r"\Z")
_CTXSWITCH = (KIND_CTXSWITCH, 0)
# Whole lines in canonical form only: an access as `OP 0xHEX` with one
# space, `CS`, or an empty line, each ending in "\n". Such a block holds
# no comment, and no `S` outside a `CS` line.
_CANONICAL = re.compile(rf"(?:(?:R|W|INV) {_ADDR}\n|CS\n|\n)*")
# Characters read at a time; a block is then completed to a whole line.
BLOCK_CHARS = 4096

# One parsed record: (kind, address), the kind being the line's opcode and
# the address 0 for a context switch.
Record = tuple[str, int]


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
        if op not in (KIND_LOAD, KIND_STORE, KIND_INVALIDATE):
            raise TraceError(lineno, f"unrecognized record {line.strip()!r}")
        if not _HEXADDR.match(text):
            raise TraceError(lineno, f"bad address {text!r}")
        return op, int(text, 16)
    if not fields:
        return None
    if fields == ["CS"]:
        return _CTXSWITCH
    raise TraceError(lineno, f"unrecognized record {line.strip()!r}")


class Trace:
    """Records in two columns, kinds and addresses; each pass is fresh."""

    def __init__(self, kinds: list[str], addrs: list[int]):
        self.kinds, self.addrs = kinds, addrs

    def __iter__(self) -> Iterator[Record]:
        return zip(self.kinds, self.addrs)

    def __len__(self) -> int:
        return len(self.kinds)


def parse_trace(source: TextIO) -> Trace:
    """Parse a text stream of trace lines into a Trace, skipping comments
    and blanks.

    The stream is read in blocks of about BLOCK_CHARS characters, each
    completed to a whole line. A canonical block fills both columns in C
    calls, its opcodes as the kinds. Any other block goes line by line
    through parse_line, which owns the grammar and its errors.
    """
    kinds, addrs = [], []
    lineno = 1
    while block := source.read(BLOCK_CHARS):
        if block[-1] != "\n":
            block += source.readline()
        if _CANONICAL.fullmatch(block):
            # A `CS` line, given its address 0, splits like any other record.
            toks = block.replace("CS\n", "CS 0x0\n").split()
            kinds.extend(toks[::2])
            addrs.extend(map(int, toks[1::2], repeat(16)))
        else:
            for n, line in enumerate(block.split("\n"), lineno):
                if rec := parse_line(n, line):
                    kinds.append(rec[0])
                    addrs.append(rec[1])
        lineno += block.count("\n")
    return Trace(kinds, addrs)


def run_trace(sim: Simulator, records: Iterable[Record]) -> SimStats:
    """Apply every record in order and accumulate statistics."""
    return sim.run(records)
