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
# Characters a file is read in at a time; a block ends at the last newline.
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


def _parse_lines(records: list[Record], lines: Iterable[str], lineno: int) -> None:
    """Append the records of lines, numbered from lineno, through parse_line."""
    for lineno, line in enumerate(lines, lineno):
        rec = parse_line(lineno, line)
        if rec is not None:
            records.append(rec)


def _parse_block(records: list[Record], block: str, lineno: int) -> None:
    """Append the records of block, whole lines each ending in a newline and
    numbered from lineno.

    A canonical block becomes records in C calls, one run of lines between
    `CS` lines at a time. Any other block goes line by line through
    parse_line, which owns the grammar and its errors.
    """
    if not _CANONICAL.fullmatch(block):
        _parse_lines(records, block[:-1].split("\n"), lineno)
        return
    for i, seg in enumerate(block.split("CS\n")):
        if i:
            records.append(_CTXSWITCH)
        toks = seg.split()
        records.extend(zip(map(_OPCODES.__getitem__, toks[::2]), map(int, toks[1::2], repeat(16))))


def parse_trace(source: Iterable[str] | TextIO) -> list[Record]:
    """Parse trace lines into records, skipping comments and blanks.

    source is an iterable of lines, or a text file, which is read in blocks
    of whole lines of about BLOCK_CHARS characters.
    """
    records: list[Record] = []
    read = getattr(source, "read", None)
    if read is None:
        _parse_lines(records, source, 1)
        return records
    lineno, pending = 1, []  # pending: the start of a line not yet ended
    while chunk := read(BLOCK_CHARS):
        cut = chunk.rfind("\n") + 1
        if cut:
            pending.append(chunk[:cut])
            block = "".join(pending)
            _parse_block(records, block, lineno)
            lineno += block.count("\n")
            pending.clear()
        pending.append(chunk[cut:])
    tail = "".join(pending)
    if tail:  # a last line with no newline
        _parse_lines(records, (tail,), lineno)
    return records


def run_trace(sim: Simulator, records: Iterable[Record]) -> SimStats:
    """Apply every record in order and accumulate statistics."""
    return sim.run(records)
