import io
import re
import string
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from reference import RefSimulator, assert_same_state, run_trace_unpacked

from bcsim import trace
from bcsim.core import CacheGeometry
from bcsim.simulator import MODE_BACKUP, MODE_BASELINE, SimConfig, Simulator, baseline_config
from bcsim.trace import (
    KIND_CTXSWITCH,
    KIND_INVALIDATE,
    KIND_LOAD,
    KIND_STORE,
    TraceError,
    parse_line,
    parse_trace,
    run_trace,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_parse_basic_records():
    records = list(parse_trace(io.StringIO("R 0x1040\nW 0x2000\nINV 0xff\nCS\n")))
    assert [kind for kind, _ in records] == [KIND_LOAD, KIND_STORE, KIND_INVALIDATE,
                                             KIND_CTXSWITCH]
    assert records[0][1] == 0x1040
    assert records[3][1] == 0


def test_parse_skips_comments_and_blanks():
    records = parse_trace(io.StringIO("# header\n\n   \nR 0x0\n"))
    assert len(records) == 1


LOAD_1040 = (KIND_LOAD, 0x1040)
CTXSWITCH = (KIND_CTXSWITCH, 0)


@pytest.mark.parametrize("line, expected", [
    ("R 0x1040", LOAD_1040),
    ("R 0x1040\n", LOAD_1040),
    ("R 0x1040\r\n", LOAD_1040),
    ("R\t0x1040", LOAD_1040),
    ("R   0x1040", LOAD_1040),
    ("  R 0x1040  ", LOAD_1040),
    ("R 0x1040    # load", LOAD_1040),
    ("R 0x1040# load", LOAD_1040),
    ("CS   # context switch", CTXSWITCH),
    (" CS\r\n", CTXSWITCH),
    ("  # indented comment", None),
    ("\t#", None),
    # Fields split on any Unicode whitespace, as str.split() does.
    ("R\x0c0x1040", LOAD_1040),
    ("R\xa00x1040", LOAD_1040),
])
def test_parse_tolerates_whitespace_and_comments(line, expected):
    assert parse_line(1, line) == expected


def test_readme_trace_example_parses():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"### Trace format.*?```\n(.*?)```", text, re.S).group(1)
    records = list(parse_trace(io.StringIO(block)))
    assert [kind for kind, _ in records] == [KIND_LOAD, KIND_STORE, KIND_INVALIDATE,
                                             KIND_CTXSWITCH]
    assert records[0][1] == 0x7F001040


def _reference_parse_line(lineno, line):
    """The trace grammar written plainly: strip the comment, split on
    whitespace, then match the fields, the opcode being the record's kind.
    parse_line must agree with it."""
    fields = line.split("#", 1)[0].split()
    if not fields:
        return None
    if fields == ["CS"]:
        return ("CS", 0)
    if len(fields) != 2 or fields[0] not in ("R", "W", "INV"):
        raise TraceError(lineno, f"unrecognized record {line.strip()!r}")
    text = fields[1]
    digits = text[2:]
    # Leading zeros are free; at most 12 significant digits.
    if not (text.startswith("0x") and 1 <= len(digits) and len(digits.lstrip("0")) <= 12
            and all(c in string.hexdigits for c in digits)):
        raise TraceError(lineno, f"bad address {text!r}")
    return (fields[0], int(digits, 16))


# Whitespace that str.split() separates on, ASCII and Unicode alike, and one
# character (zero-width space) that it does not.
_SPACE = st.text(alphabet=" \t\r\x0b\x0c\x1c\x85\xa0\u2003\u2028\u3000\u200b", max_size=2)
# Lines shaped like records: opcode, address of 0 to 14 hex digits and maybe
# one other character, comment.
_RECORD_LINES = st.tuples(
    _SPACE, st.sampled_from(["R", "W", "INV", "CS", "r", "X", ""]), _SPACE,
    st.sampled_from(["0x", "0X", "x", ""]), st.text(alphabet=string.hexdigits, max_size=14),
    st.sampled_from(["", "_", "g", "\u0663"]),
    _SPACE, st.sampled_from(["", "#", "# R 0x10", "\n", "\r\n"]),
).map("".join)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(line=st.one_of(st.text(), _RECORD_LINES),
       lineno=st.integers(min_value=1, max_value=10**6))
@example(line="W 0xffffffffffff\r\n", lineno=1)
@example(line="R 0x1000000000000", lineno=1)  # 13 hex digits
@example(line="R 0x00000000001040", lineno=1)  # 14 digits, 4 significant
@example(line="W 0x0000000000000000", lineno=1)
@example(line="CS 0x10 0x20", lineno=2)
@example(line="R 0x40", lineno=3)
@example(line="INV 0x40 # drop", lineno=4)
def test_parse_line_matches_reference_grammar(line, lineno):
    try:
        expected = _reference_parse_line(lineno, line)
    except TraceError as exc:
        with pytest.raises(TraceError) as got:
            parse_line(lineno, line)
        assert (str(got.value), got.value.lineno) == (str(exc), exc.lineno)
    else:
        assert parse_line(lineno, line) == expected


# Lines in the canonical form a file block is parsed in bulk from, with
# addresses of 1 to 14 digits, so some are too wide.
_CANONICAL_LINES = st.one_of(
    st.just("CS"), st.just(""),
    st.tuples(st.sampled_from(["R", "W", "INV"]),
              st.text(alphabet=string.hexdigits, min_size=1, max_size=14),
              ).map("{0[0]} 0x{0[1]}".format),
)


def _parse_lines(fh):
    """The records of fh's lines, each parsed on its own by parse_line."""
    records = []
    for lineno, line in enumerate(fh, 1):
        rec = parse_line(lineno, line)
        if rec is not None:
            records.append(rec)
    return records


def _parse_file(path: Path):
    """parse_trace over the file at path read in blocks, then parse_line over
    the same file's lines one by one: (records or TraceError text and line)
    each."""
    results = []
    for parse in (parse_trace, _parse_lines):
        with open(path, encoding="utf-8") as fh:
            try:
                results.append(list(parse(fh)))
            except TraceError as exc:
                results.append((str(exc), exc.lineno))
    return results


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(st.tuples(st.one_of(_RECORD_LINES, _CANONICAL_LINES),
                                st.sampled_from(["\n", "\r\n", ""])), max_size=40))
@example(lines=[("R 0x10", "\n"), ("CS", "\n"), ("W 0x20", "\n"), ("CS", "\n"), ("CS", "\n"),
                ("INV 0x30", "")])
@example(lines=[("R 0x10", "\n"), ("W 0x1000000000000", "\n"), ("R 0x20", "\n")])
@example(lines=[("R 0x10", "\n"), ("# c", "\r\n"), ("", "\n"), ("W 0x20", "\n"), ("X 0x1", "\n")])
# Canonical blocks with a `CS` line where the bulk parse gives it address 0:
# first in a block, twice in a row, next to blank lines, last in a block
# ("R 0x1000\nW 0x2\nC" is 16 characters), and a block of its own after a
# 16-digit zero-padded address.
@example(lines=[("CS", "\n"), ("R 0x10", "\n"), ("W 0x20", "\n")])
@example(lines=[("R 0x10", "\n"), ("CS", "\n"), ("CS", "\n"), ("W 0x20", "\n")])
@example(lines=[("R 0x10", "\n"), ("", "\n"), ("CS", "\n"), ("", "\n"), ("W 0x20", "\n")])
@example(lines=[("R 0x1000", "\n"), ("W 0x2", "\n"), ("CS", "\n"), ("R 0x30", "\n")])
@example(lines=[("R 0x10", "\n"), ("W 0x0000000000001040", "\n"), ("CS", "\n")])
def test_file_blocks_parse_as_lines(tmp_path, monkeypatch, lines):
    """A file read in blocks gives the records, or the TraceError text and
    line number, that its lines parsed one by one give. 16-character blocks
    put most lines of a file in a block of their own, or across two."""
    monkeypatch.setattr(trace, "BLOCK_CHARS", 16)
    path = tmp_path / "t.trace"
    path.write_text("".join(line + end for line, end in lines), encoding="utf-8", newline="")
    by_block, by_line = _parse_file(path)
    assert by_block == by_line


def test_file_blocks_bulk_and_per_line(tmp_path, monkeypatch):
    """Canonical blocks, a commented block and a bad line after them: the
    records, CS records between runs of accesses and the error's line number
    match the per-line parse."""
    monkeypatch.setattr(trace, "BLOCK_CHARS", 32)
    lines = ["R 0x40", "CS", "W 0x80", "CS", "CS", "INV 0x0040", "", "R 0xc0  # hot"] * 5
    path = tmp_path / "t.trace"
    path.write_text("\n".join(lines) + "\n")
    by_block, by_line = _parse_file(path)
    assert by_block == by_line and len(by_block) == 35
    path.write_text("\n".join([*lines, "W 0x0001000000000000", "R 0x40"]) + "\n")
    by_block, by_line = _parse_file(path)
    assert by_block == by_line == ("line 41: bad address '0x0001000000000000'", 41)


def test_failed_block_match_is_linear(tmp_path):
    """A canonical run of addresses with leading zeros, then a comment: the
    block regex fails in linear time. An address pattern that can split its
    zeros two ways took 8 s for these 13 lines, and about four times as
    long for each line more."""
    path = tmp_path / "t.trace"
    path.write_text("R 0x0001\n" * 13 + "# end\n")
    start = time.perf_counter()
    with open(path) as fh:
        assert list(parse_trace(fh)) == [(KIND_LOAD, 1)] * 13
    assert time.perf_counter() - start < 1.0


def test_parse_bad_hex_cites_line():
    with pytest.raises(TraceError) as exc:
        parse_trace(io.StringIO("R 0x10\nW 0xZZ\n"))
    assert exc.value.lineno == 2


def test_parse_unknown_opcode_is_error():
    with pytest.raises(TraceError):
        parse_trace(io.StringIO("X 0x10\n"))


def test_parse_rejects_address_too_wide():
    assert list(parse_trace(io.StringIO("R 0xffffffffffff\n"))) == [(KIND_LOAD, (1 << 48) - 1)]
    with pytest.raises(TraceError, match=r"^line 2: bad address '0x1000000000000'$"):
        parse_trace(io.StringIO("R 0x10\nR 0x1000000000000\n"))  # 13 hex digits


def test_parse_accepts_leading_zeros():
    assert list(parse_trace(io.StringIO("R 0x00000000001040\n"))) == [(KIND_LOAD, 0x1040)]
    assert list(parse_trace(io.StringIO("W 0x000ffffffffffff\n"))) == [(KIND_STORE, (1 << 48) - 1)]
    with pytest.raises(TraceError, match=r"^line 1: bad address '0x0001000000000000'$"):
        parse_trace(io.StringIO("R 0x0001000000000000\n"))  # 13 significant hex digits


def test_parse_rejects_missing_operand():
    with pytest.raises(TraceError):
        parse_trace(io.StringIO("R\n"))


def test_empty_trace_zero_stats():
    stats = run_trace(Simulator(SimConfig()), [])
    assert stats.accesses == 0
    assert stats.total_latency_cycles == 0
    assert stats.avg_access_latency == 0.0


def test_distinct_cold_loads_all_case_00():
    records = parse_trace(io.StringIO("".join(f"R {hex(i * 64)}\n" for i in range(50))))
    stats = run_trace(Simulator(SimConfig()), records)
    assert stats.case_counts["00"] == 50
    assert stats.l1d_misses == 50


def test_load_twice_latency_table():
    records = parse_trace(io.StringIO("R 0x1000\nR 0x1000\n"))
    stats = run_trace(Simulator(SimConfig()), records)
    assert stats.total_latency_cycles == 120 + 3


def test_stats_identities_hold():
    lines = []
    for i in range(2000):
        op = ("R", "W", "CS", "INV")[i % 4]
        lines.append("CS\n" if op == "CS" else f"{op} {hex((i * 37 % 500) * 64)}\n")
    records = parse_trace(io.StringIO("".join(lines)))
    stats = run_trace(Simulator(SimConfig(seed=3)), records)
    assert stats.accesses == sum(stats.case_counts.values())
    assert stats.backup_hits == stats.case_counts["01"] + stats.case_counts["11"]
    assert stats.l1d_hits + stats.l1d_misses == stats.accesses
    assert stats.avg_access_latency == stats.total_latency_cycles / stats.accesses


def test_replay_determinism():
    lines = [f"R {hex((i * 7 % 300) * 64)}\n" for i in range(3000)]
    records = parse_trace(io.StringIO("".join(lines)))

    def run():
        sim = Simulator(SimConfig(seed=8))
        return run_trace(sim, records).as_dict(), sim.state_digest()

    assert run() == run()


def test_parsed_trace_replays():
    """A parsed trace is iterated afresh each time, as sweep's runs over one
    trace need: equal records and length on each pass, and equal stats and
    digests from two simulators."""
    lines = [f"{'RW'[i % 2]} {hex((i * 37 % 400) * 64)}\n" for i in range(3000)]
    lines[::97] = ["CS\n"] * len(lines[::97])
    lines[5::211] = ["INV 0x40  # drop\n"] * len(lines[5::211])
    records = parse_trace(io.StringIO("".join(lines)))
    first, second = list(records), list(records)
    assert first == second and len(first) == len(records) == 3000
    assert (KIND_CTXSWITCH, 0) in first and (KIND_INVALIDATE, 0x40) in first

    def run():
        sim = Simulator(SimConfig(seed=8))
        return run_trace(sim, records).as_dict(), sim.state_digest()

    assert run() == run()


def test_fitting_working_set_equal_misses_in_both_modes():
    # 100 distinct lines, re-walked: fits a 16KB L1D easily
    lines = [f"R {hex(i * 64)}\n" for i in range(100)] * 5
    records = parse_trace(io.StringIO("".join(lines)))
    backup_cfg = SimConfig(seed=1)
    base_cfg = SimConfig(mode="baseline", l1d=backup_cfg.l1d, seed=1)
    s1 = run_trace(Simulator(backup_cfg), records)
    s2 = run_trace(Simulator(base_cfg), records)
    assert s1.case_counts["00"] == s2.case_counts["00"] == 100


_RECORD_KINDS = (KIND_LOAD, KIND_LOAD, KIND_LOAD, KIND_STORE, KIND_STORE, KIND_CTXSWITCH,
                 KIND_INVALIDATE)


def _decode_records(raw):
    """One record per byte: a kind, and for an access or an INV one of ten
    lines at one of four offsets."""
    records = []
    for b in raw:
        kind = _RECORD_KINDS[b % len(_RECORD_KINDS)]
        records.append((kind, None if kind == KIND_CTXSWITCH else b // 7 * 16))
    return records


@pytest.mark.parametrize("mode, threshold", [
    (MODE_BASELINE, None),
    (MODE_BACKUP, None),
    (MODE_BACKUP, 1),
    (MODE_BACKUP, 7),
], ids=["baseline", "dynamic", "fixed1", "fixed7"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), raw=st.binary(max_size=300))
def test_run_trace_counts_what_the_full_unpack_counts(mode, threshold, seed, raw):
    """run_trace's stats and final state equal those of the reference model
    applied record by record, with every outcome unpacked. A 4-line L1D and
    a 1-4 line BC over ten lines make hits, BC hits and misses all common,
    and the fixed thresholds put resizes on L1 hits."""
    config = SimConfig(mode=mode, l1d=CacheGeometry(64, 2, 2, 3), l2=CacheGeometry(64, 2, 4, 20),
                       backup_min=1, backup_max=4, fixed_threshold=threshold, seed=seed)
    records = _decode_records(raw)
    sim, ref = Simulator(config), RefSimulator(config)
    assert run_trace(sim, records).as_dict() == run_trace_unpacked(ref, records).as_dict()
    assert_same_state(sim, ref)
