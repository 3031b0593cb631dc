"""Property gates for the input files of `bcsim sim`: every YAML mapping
of the config keys, whatever its values, given as --config, and every
trace text, whatever its characters, given as --trace, make sim exit with
a documented code (0-4), and no exception escapes main.

The runs share one worker process whose address space is capped at
512 MiB, set in the worker only, so a size that slipped past its cap
fails the test instead of filling the host.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcsim.cli import _SCHEMA

SRC = Path(__file__).resolve().parents[1] / "src"

# Reads one JSON-encoded [option, text] pair per stdin line, writes the
# text to a file (a lone surrogate as the invalid UTF-8 it encodes to) and
# runs sim with that file as --config (and the fixed trace) or as --trace.
# Answers one JSON line: the exit code, or the exception that escaped main.
_WORKER = """
import contextlib, io, json, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
from bcsim.cli import main
trace, path, out = sys.argv[1:]
for line in sys.stdin:
    option, text = json.loads(line)
    with open(path, "w", encoding="utf-8", errors="surrogatepass", newline="") as fh:
        fh.write(text)
    argv = ["sim", option, path, *(["--trace", trace] if option == "--config" else [])]
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            report = {"rc": main([*argv, "--out", out])}
    except Exception:
        report = {"escaped": traceback.format_exc(limit=-3)}
    print(json.dumps(report), flush=True)
"""


@pytest.fixture(scope="module")
def run_sim(tmp_path_factory):
    """A function of (option, file text) to the report of one sim run in the worker."""
    work = tmp_path_factory.mktemp("config-gate")
    trace = work / "t.trace"
    trace.write_text("R 0x40\nW 0x80\nCS\nINV 0x40\n" + "".join(
        f"{'RW'[i % 2]} {i * 64:#x}\n" for i in range(300)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    procs = []

    def run(option: str, text: str) -> dict:
        if not procs or procs[-1].poll() is not None:  # a worker that died is replaced
            procs.append(subprocess.Popen(
                [sys.executable, "-c", _WORKER, str(trace), str(work / "input"),
                 str(work / "o.txt")], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True, env=env))
        proc = procs[-1]
        proc.stdin.write(json.dumps([option, text]) + "\n")
        proc.stdin.flush()
        answer = proc.stdout.readline()
        return json.loads(answer) if answer else {"escaped": f"worker died, {proc.wait()}"}

    yield run
    for proc in procs:
        proc.stdin.close()
        proc.wait(timeout=60)


class _Digits(str):
    """An integer literal written as these decimal digits: past 4,300 of
    them, int() refuses it."""

    def __repr__(self):
        return f"_Digits(<{len(self)} digits>)"


class _Huge(int):
    """An integer written in hex: past 4,300 decimal digits, str() and
    repr() of an int refuse it, so this repr gives only its size."""

    def __repr__(self):
        return f"_Huge(<{self.bit_length()} bits, {'-' if self < 0 else '+'}>)"


class _Dumper(yaml.SafeDumper):
    pass


_Dumper.add_representer(_Digits, lambda dumper, value: dumper.represent_scalar(
    "tag:yaml.org,2002:int", str(value)))
_Dumper.add_representer(_Huge, lambda dumper, value: dumper.represent_scalar(
    "tag:yaml.org,2002:int", hex(value)))

HUGE = _Huge(2 ** 20000)
DIGITS = _Digits("9" * 5000)

_SCALARS = st.one_of(
    st.integers(-4, 300),
    st.sampled_from([-(2 ** 63), 2 ** 22 + 1, 2 ** 31, 2 ** 48, 2 ** 63 - 1, 2 ** 63, 2 ** 64,
                     10 ** 30, HUGE, _Huge(-HUGE), DIGITS]),
    st.booleans(),
    st.none(),
    st.floats(),
    st.text(max_size=8),
)
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=4)


# Values that some key takes, so that about one run in ten gets past the checks.
_FITTING = st.sampled_from([1, 4, 64, 128, 192, 256, 2048, "baseline", "backup"])


def _value(name):
    """A value for one _SCHEMA entry: a section gets a mapping of its own
    keys, or any value."""
    if not isinstance(name, dict):
        return _FITTING | _VALUES
    keys = st.sampled_from(sorted(name))
    return st.dictionaries(keys, _FITTING | _VALUES, max_size=len(name)) | _VALUES


_CONFIGS = st.fixed_dictionaries({}, optional={key: _value(name) for key, name in _SCHEMA.items()})


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
# The two over-cap sizes of the caps' own test, and integers too long to print.
@example(mapping={"l2": {"sets": 1 << 30}})
@example(mapping={"backup": {"min_lines": 1, "max_lines": 10 ** 9}})
@example(mapping={"seed": HUGE})
@example(mapping={"mode": "baseline", "backup": {"min_lines": _Huge(-HUGE)}})
@example(mapping={"seed": DIGITS})
@example(mapping={"seed": [HUGE]})
@example(mapping={"mode": HUGE})
@example(mapping={"l1d": {"ways": HUGE}})
# Both levels at the line cap: building them takes more memory than the worker's limit.
@example(mapping={"l1d": {"sets": 4194304, "ways": 1}, "l2": {"sets": 4194304, "ways": 1}})
@given(mapping=_CONFIGS)
def test_any_config_mapping_exits_with_a_documented_code(run_sim, mapping):
    report = run_sim("--config", yaml.dump(mapping, Dumper=_Dumper))
    assert "escaped" not in report, report["escaped"]
    assert report["rc"] in range(5)


# Trace lines: any code points (lone surrogates included), lines near the
# grammar with any separator and hex digits past 12, and long runs.
_HEX_DIGITS = "0123456789abcdefABCDEF"
_NEAR_LINES = st.builds(
    lambda op, sep, prefix, digits, tail: f"{op}{sep}{prefix}{digits}{tail}",
    st.sampled_from(["R", "W", "INV", "CS", "r", "", "R W"]),
    st.sampled_from([" ", "  ", "\t", "\x00", "\r", "\x0b", "\x1c", "\x85", "\u3000", ""]),
    st.sampled_from(["0x", "0X", "", "-0x", "0x0x"]),
    st.text(_HEX_DIGITS, max_size=20) | st.integers(13, 400).map(lambda n: "f" * n),
    st.sampled_from(["", " # note", "#", " 0x40", "\x00", "\ufeff"]))
_LONG_LINES = st.builds(lambda unit, n: unit * n, st.text(min_size=1, max_size=3),
                        st.integers(1000, 30_000))
_TRACE_LINES = (st.text(st.characters(blacklist_categories=()), max_size=30) | _NEAR_LINES
                | _LONG_LINES | st.sampled_from(["CS", "", "R 0x40", "W 0xfffffffffffc", "# c"]))
_TRACES = st.builds(lambda lines, newline: newline.join(lines),
                    st.lists(_TRACE_LINES, max_size=12), st.sampled_from(["\n", "\r\n", "\r"]))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@example(text="R\x000x40\n\x00\n")
@example(text="R 0x" + "0" * 100_000 + "40\n")
@example(text="W 0x" + "f" * 5000 + "\n")
@example(text="R 0x40\rCS\r\nINV 0x40\r")
@example(text="R 0x\udc80\n")
@example(text="R 0x1" + "0" * 12 + "\n")
@given(text=_TRACES)
def test_any_trace_text_exits_with_a_documented_code(run_sim, text):
    report = run_sim("--trace", text)
    assert "escaped" not in report, report["escaped"]
    assert report["rc"] in range(5)
