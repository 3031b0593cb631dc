import re
import string
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcsim.simulator import SimConfig, Simulator, baseline_config
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
    records = parse_trace(["R 0x1040\n", "W 0x2000\n", "INV 0xff\n", "CS\n"])
    assert [kind for kind, _ in records] == [KIND_LOAD, KIND_STORE, KIND_INVALIDATE,
                                             KIND_CTXSWITCH]
    assert records[0][1] == 0x1040
    assert records[3][1] is None


def test_parse_skips_comments_and_blanks():
    records = parse_trace(["# header\n", "\n", "   \n", "R 0x0\n"])
    assert len(records) == 1


LOAD_1040 = (KIND_LOAD, 0x1040)
CTXSWITCH = (KIND_CTXSWITCH, None)


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
])
def test_parse_tolerates_whitespace_and_comments(line, expected):
    assert parse_line(1, line) == expected


def test_readme_trace_example_parses():
    text = README.read_text()
    block = re.search(r"### Trace format.*?```\n(.*?)```", text, re.S).group(1)
    records = parse_trace(block.splitlines())
    assert [kind for kind, _ in records] == [KIND_LOAD, KIND_STORE, KIND_INVALIDATE,
                                             KIND_CTXSWITCH]
    assert records[0][1] == 0x7F001040


def _reference_parse_line(lineno, line):
    """The trace grammar written plainly: strip the comment, split on
    whitespace, then match the fields. parse_line must agree with it."""
    fields = line.split("#", 1)[0].split()
    if not fields:
        return None
    if fields == ["CS"]:
        return (KIND_CTXSWITCH, None)
    kinds = {"R": KIND_LOAD, "W": KIND_STORE, "INV": KIND_INVALIDATE}
    if len(fields) != 2 or fields[0] not in kinds:
        raise TraceError(lineno, f"unrecognized record {line.strip()!r}")
    text = fields[1]
    digits = text[2:]
    if not (text.startswith("0x") and 1 <= len(digits) <= 12
            and all(c in string.hexdigits for c in digits)):
        raise TraceError(lineno, f"bad address {text!r}")
    return (kinds[fields[0]], int(digits, 16))


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


@settings(max_examples=500, deadline=None)
@given(line=st.one_of(st.text(), _RECORD_LINES),
       lineno=st.integers(min_value=1, max_value=10**6))
@example(line="W 0xffffffffffff\r\n", lineno=1)
@example(line="R 0x1000000000000", lineno=1)  # 13 hex digits
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


def test_parse_bad_hex_cites_line():
    with pytest.raises(TraceError) as exc:
        parse_trace(["R 0x10\n", "W 0xZZ\n"])
    assert exc.value.lineno == 2


def test_parse_unknown_opcode_is_error():
    with pytest.raises(TraceError):
        parse_trace(["X 0x10\n"])


def test_parse_rejects_address_too_wide():
    assert parse_trace(["R 0xffffffffffff\n"])[0][1] == (1 << 48) - 1
    with pytest.raises(TraceError, match=r"^line 2: bad address '0x1000000000000'$"):
        parse_trace(["R 0x10\n", "R 0x1000000000000\n"])  # 13 hex digits


def test_parse_rejects_missing_operand():
    with pytest.raises(TraceError):
        parse_trace(["R\n"])


def test_empty_trace_zero_stats():
    stats = run_trace(Simulator(SimConfig()), [])
    assert stats.accesses == 0
    assert stats.total_latency_cycles == 0
    assert stats.avg_access_latency == 0.0


def test_distinct_cold_loads_all_case_00():
    records = parse_trace([f"R {hex(i * 64)}\n" for i in range(50)])
    stats = run_trace(Simulator(SimConfig()), records)
    assert stats.case_counts["00"] == 50
    assert stats.l1d_misses == 50


def test_load_twice_latency_table():
    records = parse_trace(["R 0x1000\n", "R 0x1000\n"])
    stats = run_trace(Simulator(SimConfig()), records)
    assert stats.total_latency_cycles == 120 + 3


def test_stats_identities_hold():
    lines = []
    for i in range(2000):
        op = ("R", "W", "CS", "INV")[i % 4]
        lines.append("CS\n" if op == "CS" else f"{op} {hex((i * 37 % 500) * 64)}\n")
    records = parse_trace(lines)
    stats = run_trace(Simulator(SimConfig(seed=3)), records)
    assert stats.accesses == sum(stats.case_counts.values())
    assert stats.backup_hits == stats.case_counts["01"] + stats.case_counts["11"]
    assert stats.l1d_hits + stats.l1d_misses == stats.accesses
    assert stats.avg_access_latency == stats.total_latency_cycles / stats.accesses


def test_replay_determinism():
    records = parse_trace([f"R {hex((i * 7 % 300) * 64)}\n" for i in range(3000)])

    def run():
        sim = Simulator(SimConfig(seed=8))
        return run_trace(sim, records).as_dict(), sim.state_digest()

    assert run() == run()


def test_fitting_working_set_equal_misses_in_both_modes():
    # 100 distinct lines, re-walked: fits a 16KB L1D easily
    lines = [f"R {hex(i * 64)}\n" for i in range(100)] * 5
    records = parse_trace(lines)
    backup_cfg = SimConfig(seed=1)
    base_cfg = SimConfig(mode="baseline", l1d=backup_cfg.l1d, seed=1)
    s1 = run_trace(Simulator(backup_cfg), records)
    s2 = run_trace(Simulator(base_cfg), records)
    assert s1.case_counts["00"] == s2.case_counts["00"] == 100
