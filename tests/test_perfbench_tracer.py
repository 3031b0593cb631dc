"""The benchmark's per-layer tracer still runs against the simulator.

perfbench/child.py in traced mode wraps the public methods of every layer
and reads cache state, so a change to src/ can break traced benchmark runs
while every untraced output stays right. Each test runs one traced bcsim
command in a fresh process and holds its output and counters against an
untraced run.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bcsim.cli import EXIT_OK, main

REPO = Path(__file__).resolve().parent.parent


def _bc_trace(path: Path) -> None:
    """3,000 records over 600 lines, more than the L1D and backup cache hold
    together, so the run has backup evictions, write-backs and resizes."""
    rng = random.Random(5)
    out = []
    for _ in range(3000):
        r = rng.random()
        if r < 0.002:
            out.append("CS")
        elif r < 0.01:
            out.append(f"INV {rng.randrange(600) * 64:#x}")
        else:
            out.append(f"{'W' if rng.random() < 0.2 else 'R'} {rng.randrange(600) * 64:#x}")
    path.write_text("\n".join(out) + "\n")


def _traced(argv: list[str], spans: Path) -> dict:
    """Run one bcsim command under the tracer; return the tracer's dump."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(REPO / "perfbench" / "child.py"), "traced",
                           str(spans), "--", *argv],
                          capture_output=True, text=True, env=env, cwd=REPO, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["exit_code"] == EXIT_OK
    return json.loads(spans.read_text())


@pytest.mark.parametrize("command", ["sim", "attack aes"])
def test_traced_run_matches_untraced(tmp_path, command):
    if command == "sim":
        trace = tmp_path / "bc.trace"
        _bc_trace(trace)
        argv = ["sim", "--trace", str(trace)]
    else:
        argv = ["attack", "aes", "--samples", "1"]
    traced_out, plain_out = tmp_path / "traced.out", tmp_path / "plain.out"
    dump = _traced([*argv, "--out", str(traced_out)], tmp_path / "spans.json")
    assert main([*argv, "--out", str(plain_out)]) == EXIT_OK
    assert traced_out.read_bytes() == plain_out.read_bytes()

    calls = {name: entry["calls"] for name, entry in dump["agg"].items()}
    counts = dump["counts"]
    cases = sum(n for name, n in counts.items() if name.startswith("simulator.case_"))
    assert cases == calls["simulator.access"] > 0
    # One backup probe per access: lookup for a load, write_touch for a store.
    probes = calls.get("backup.lookup", 0) + calls.get("backup.write_touch", 0)
    assert probes == calls["simulator.access"]
    victims = sum(n for name, n in counts.items() if name.startswith("backup.victim."))
    assert victims == calls["backup.select_victim"] > 0
    writebacks = counts.get("simulator.writebacks", 0)
    assert calls.get("core.l2.mark_dirty", 0) == writebacks
    if command == "sim":
        assert writebacks > 0 and counts["simulator.resizes"] > 0
