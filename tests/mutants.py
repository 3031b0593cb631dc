"""Mutation check: every named mutation of src/ must make one of its tests fail.

Usage (from the repository root):
    python tests/mutants.py [NAME ...]

Each mutant is one exact text replacement in one file under src/bcsim,
with the tests expected to kill it. For each mutant this copies src/,
tests/ and pyproject.toml to a temporary directory, applies the
replacement there and runs the tests with `pytest -x`. A test failure
kills the mutant; a clean pass means it survived. An old text that is
missing, or found more than once, is an error, as is a pytest run that
ends neither way (a mutant that does not import, say). The same tests
first run once on the unmutated copy, which must pass. The exit code is 0
only if every mutant was killed.

The file name has no test_ prefix, so Tier-1 never collects it. The
anchors are the text of Simulator.run (its line-number key, its countdown
chunks and the conversion of its events back to byte addresses among
them) and of the cache methods it and its cold paths (resize, context
switch) call, of the attacks' prime, victim and probe steps, of the
trace file's block parse and its read, of cli.dump_config, of the
module-level imports of cli, simulator and core, of the cache size cap,
of the config file's integer bound and of the checked _replace of
CacheGeometry: a change to that text must update this table, not drop a
row.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent

BATCH = "tests/test_reference.py::test_batch_run_matches_reference"
BAD_RECORD = "tests/test_reference.py::test_bad_record_keeps_the_countdown_of_the_records_before_it"
TRACE = "tests/test_trace.py::test_run_trace_counts_what_the_full_unpack_counts"
STREAMS = "tests/test_golden.py::test_outcome_stream"
GOLDEN = "tests/test_golden.py::test_golden"
TOUCH_MODEL = "tests/test_attacks.py::test_aes_first_round_touch_model"
OVERFLOW_ATTACK = "tests/test_acceptance.py::test_criterion_10_resizing_defeats_overflow_attack"
FILE_BLOCKS = ("tests/test_trace.py::test_file_blocks_bulk_and_per_line",
               "tests/test_trace.py::test_file_blocks_parse_as_lines")
CONFIG_ROUND_TRIP = ("tests/test_cli.py::test_dump_config_loads_back",
                     "tests/test_cli.py::test_manifest_config_reruns_the_output")
IMPORT_SETS = ("tests/test_cli.py::test_importing_cli_loads_no_command_only_module",
               "tests/test_cli.py::test_only_numeric_commands_import_numpy")
STDLIB_ONLY = "tests/test_cli.py::test_commands_run_without_numpy"
SIZE_CAPS = "tests/test_cli.py::test_oversized_request_exits_naming_its_cap"
VALUE_TYPES = "tests/test_value_types.py"
WIDE = ("tests/test_reference.py::test_simulator_matches_reference_across_the_address_space",
        "tests/test_reference.py::test_batch_run_matches_reference_across_the_address_space")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant("swapped-used-tiers", "backup.py",
           "tier = self.invalid or self.used1 or self.resident",
           "tier = self.invalid or self.resident or self.used1",
           (BATCH, STREAMS)),
    Mutant("invalid-tier-skipped", "backup.py",
           "tier = self.invalid or self.used1 or self.resident",
           "tier = self.used1 or self.resident or self.invalid",
           (BATCH, STREAMS)),
    Mutant("l1-lru-off-by-one", "simulator.py",
           "eviction = next(iter(ways))",
           "eviction = list(ways)[min(1, len(ways) - 1)]",
           (BATCH, STREAMS)),
    Mutant("l2-lru-off-by-one", "simulator.py",
           "del l2_set[next(iter(l2_set))]",
           "del l2_set[list(l2_set)[min(1, len(l2_set) - 1)]]",
           (BATCH, STREAMS)),
    Mutant("cache-insert-lru-off-by-one", "core.py",
           "victim = next(iter(ways))",
           "victim = list(ways)[min(1, len(ways) - 1)]",
           ("tests/test_core.py",)),
    Mutant("kernel-swapped-used-tiers", "simulator.py",
           "tier = invalid or used1 or resident",
           "tier = invalid or resident or used1",
           (BATCH, STREAMS)),
    # A draw indexes used1, so it must stay in slot order, as the reference's scan is.
    Mutant("bc-hit-unsorted-used1", "simulator.py",
           "insort(used1, slot)",
           "used1.append(slot)",
           (GOLDEN, BATCH)),
    Mutant("kernel-empty-tier-guard-dropped", "simulator.py",
           "if not n:\n",
           "if False:\n",
           ("tests/test_simulator.py",)),
    Mutant("skipped-bc-install", "simulator.py",
           "if where is not None and eviction not in where:",
           "if False:",
           (BATCH, STREAMS)),
    Mutant("resident-insert-draws-victim", "simulator.py",
           "if where is not None and eviction not in where:",
           "if where is not None:",
           (BATCH, STREAMS)),
    Mutant("l1-victim-writeback-not-dirty", "simulator.py",
           "if eviction in wb_set:\n"
           "                                wb_set[eviction] = True",
           "if eviction in wb_set:\n"
           "                                pass",
           (BATCH, STREAMS)),
    Mutant("bc-victim-writeback-not-dirty", "simulator.py",
           "if displaced in wb_set:\n"
           "                                        wb_set[displaced] = True",
           "if displaced in wb_set:\n"
           "                                        pass",
           (BATCH, STREAMS)),
    Mutant("bc-store-probe-not-dirty", "simulator.py",
           "if store:\n                                entry.dirty = True",
           "if store:\n                                pass",
           (BATCH, STREAMS)),
    Mutant("l1-store-probe-not-dirty", "simulator.py",
           "ways[line] = True if store else dirty",
           "ways[line] = dirty",
           (BATCH, STREAMS)),
    Mutant("mark-dirty-promotes", "core.py",
           "        ways[line] = True\n        return True",
           "        del ways[line]\n        ways[line] = True\n        return True",
           (BATCH, STREAMS)),
    Mutant("l1-eviction-reported-as-line-number", "simulator.py",
           "None if eviction is None else eviction << offset",
           "eviction",
           (STREAMS,)),
    Mutant("line-number-truncated-to-32-bits", "simulator.py",
           "line = addr >> offset\n",
           "line = (addr >> offset) & 0xFFFFFFFF\n",
           WIDE),
    # Every hit takes the fast path; the resize of a chunk that ends on one
    # must still reach that hit's event.
    Mutant("fast-path-takes-every-hit", "simulator.py",
           "if events is not None:\n                    event = events[-1]",
           "if events is not None and dirty is None:\n                    event = events[-1]",
           (BATCH, STREAMS,
            "tests/test_simulator.py::test_resizing_l1_hit_carries_its_resize")),
    Mutant("resize-event-not-patched", "simulator.py",
           "events[-1] = event._replace(",
           "event._replace(",
           (BATCH, STREAMS)),
    Mutant("countdown-counts-specials", "simulator.py",
           "count -= accessed\n",
           "count -= accessed + switches + invalidations - specials\n",
           (BATCH, TRACE, STREAMS)),
    Mutant("countdown-lost-on-raise", "simulator.py",
           "self.mem_access_count = count - (n00 + n01 + n10 + n11 - chunk_start)",
           "self.mem_access_count = count",
           (BAD_RECORD,)),
    Mutant("hit-event-case-swapped", "simulator.py",
           'AccessOutcome, (\n                                "11" if slot is not None else "10",',
           'AccessOutcome, (\n                                "10" if slot is not None else "11",',
           (BATCH, STREAMS)),
    Mutant("unknown-kind-runs-as-load", "simulator.py",
           "if kind == load_kind:",
           "if kind == load_kind or kind not in (store_kind, KIND_CTXSWITCH, KIND_INVALIDATE):",
           ("tests/test_simulator.py::test_run_rejects_unknown_record_kind",)),
    Mutant("dropped-hit-latency", "simulator.py",
           "(n01 + n10 + n11) * l1_cycles",
           "(n01 + n11) * l1_cycles",
           (TRACE, GOLDEN)),
    Mutant("dropped-probe-latency", "simulator.py",
           "latencies.append(l1_cycles)",
           "latencies.append(0)",
           (BATCH, "tests/test_attacks.py")),
    # The size draw and the countdown stay; only the size never changes. With
    # filler that overflows the BC, the overflow attack then leaks.
    Mutant("resize-keeps-size", "simulator.py",
           "self.backup.resize(new)",
           "self.backup.resize(old)",
           (OVERFLOW_ATTACK, GOLDEN)),
    Mutant("resize-grows-one-short", "backup.py",
           "        if change > 0:\n",
           "        if change > 0:\n            change -= 1\n",
           (BATCH, "tests/test_backup.py")),
    Mutant("context-switch-leaves-one-used-bit", "backup.py",
           "        for slot in used1:\n"
           "            lines[slot].used = False\n"
           "        count = len(used1)\n"
           "        used1.clear()\n",
           "        for slot in used1[1:]:\n"
           "            lines[slot].used = False\n"
           "        count = len(used1)\n"
           "        del used1[1:]\n",
           (BATCH, STREAMS)),
    Mutant("probe-window-off-by-one", "attacks.py",
           "zip(*[iter(latencies)] * group_len)",
           "zip(*[iter([0] + latencies)] * group_len)",
           (TOUCH_MODEL, GOLDEN)),
    Mutant("aes-line-ignores-key", "attacks.py",
           "((plaintext[i] ^ key[i]) >> 4)",
           "(plaintext[i] >> 4)",
           (TOUCH_MODEL,)),
    Mutant("single-set-prime-drops-filler", "attacks.py",
           "for addr in lines + filler]",
           "for addr in lines]",
           ("tests/test_attacks.py::test_single_set_probe_sums_lines_and_filler", GOLDEN)),
    Mutant("victim-loads-dropped", "attacks.py",
           "[(KIND_LOAD, addr) for addr in victim]",
           "[]",
           ("tests/test_attacks.py::test_baseline_single_set_fully_distinguishable",
            TOUCH_MODEL, GOLDEN)),
    Mutant("bulk-address-width-unbounded", "trace.py",
           "(?:R|W|INV) {_ADDR}",
           "(?:R|W|INV) 0x[0-9a-fA-F]+",
           FILE_BLOCKS),
    # The bulk parse gives each `CS` line the address 0 that parse_line returns.
    Mutant("bulk-cs-record-dropped", "trace.py",
           'block.replace("CS\\n", "CS 0x0\\n")',
           'block.replace("CS\\n", "")',
           FILE_BLOCKS),
    Mutant("cs-address-not-appended", "trace.py",
           '"CS 0x0\\n"',
           '"CS 0x40\\n"',
           FILE_BLOCKS),
    Mutant("fallback-lineno-off-by-one", "trace.py",
           'enumerate(block.split("\\n"), lineno)',
           'enumerate(block.split("\\n"), lineno + 1)',
           FILE_BLOCKS),
    Mutant("block-not-completed", "trace.py",
           "block += source.readline()",
           "pass",
           FILE_BLOCKS),
    Mutant("ambiguous-address-pattern", "trace.py",
           '_ADDR = r"0x(?:0*[1-9a-fA-F][0-9a-fA-F]{0,11}|0+)"',
           '_ADDR = r"0x0*[0-9a-fA-F]{1,12}"',
           ("tests/test_trace.py::test_failed_block_match_is_linear",)),
    Mutant("dump-keeps-unset-threshold", "cli.py",
           "if value not in (None, {})",
           "if value != {}",
           CONFIG_ROUND_TRIP),
    Mutant("hashlib-at-module-level", "simulator.py",
           "import random\n",
           "import hashlib\nimport random\n",
           IMPORT_SETS),
    Mutant("analysis-at-module-level", "cli.py",
           "from .attacks import run_aes_attack, run_single_set_attack\n",
           "from .analysis import ModelError, monte_carlo_single_set, p_avg\n"
           "from .attacks import run_aes_attack, run_single_set_attack\n",
           IMPORT_SETS),
    Mutant("click-at-module-level", "cli.py",
           "import argparse\n",
           "import argparse\nimport click\n",
           (STDLIB_ONLY,)),
    Mutant("geometry-line-cap-dropped", "core.py",
           "if self.num_sets * self.ways > MAX_LINES:",
           "if False:",
           (SIZE_CAPS,)),
    Mutant("replace-skips-validation", "core.py",
           "    _replace = __replace__ = checked_replace  # namedtuple's own skips __new__\n",
           "",
           (VALUE_TYPES,)),
    Mutant("config-int-bound-dropped", "cli.py",
           "elif type(value) is int and value.bit_length() > 63:",
           "elif False:",
           ("tests/test_config_gate.py",)),
    Mutant("trace-decode-error-escapes", "cli.py",
           "            return parse_trace(fh)\n    except (OSError, UnicodeDecodeError) as exc:",
           "            return parse_trace(fh)\n    except OSError as exc:",
           ("tests/test_config_gate.py::test_any_trace_text_exits_with_a_documented_code",)),
    Mutant("dataclasses-at-module-level", "core.py",
           "from typing import NamedTuple, Optional\n",
           "import dataclasses\nfrom typing import NamedTuple, Optional\n",
           IMPORT_SETS),
]


def run_mutant(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant; with an empty
    old and new text, the unmutated copy's tests run."""
    with tempfile.TemporaryDirectory(prefix="bcsim-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(REPO / "src", work / "src", ignore=ignore)
        shutil.copytree(REPO / "tests", work / "tests", ignore=ignore)
        shutil.copy(REPO / "pyproject.toml", work)
        path = work / "src" / "bcsim" / mutant.file
        text = path.read_text()
        found = text.count(mutant.old) if mutant.old else 1
        if found != 1:
            return f"error: old text found {found} times in src/bcsim/{mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--rootdir", str(work), *mutant.tests],
            cwd=work, env={**os.environ, "PYTHONPATH": str(work / "src")},
            capture_output=True, text=True)
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
    return f"error: pytest exited {proc.returncode}: {' '.join(tail)}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    selected = [m for m in MUTANTS if not names or m.name in names]
    tests = tuple(dict.fromkeys(test for m in selected for test in m.tests))
    control = run_mutant(Mutant("unmutated", "simulator.py", "", "", tests))
    if control != "survived":
        print(f"the unmutated tests do not pass: {control}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in selected:
        start = time.perf_counter()
        verdict = run_mutant(mutant)
        failed += verdict != "killed"
        print(f"{mutant.name:36s} {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
    print("every mutant killed" if not failed else f"{failed} mutant(s) not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
