"""The benchmark's recorded outputs, recomputed in process.

perfbench/expected.json holds the SHA-256 of the data file each benchmark
workload writes, for every pool index. These tests build the inputs of two
pool indices with perfbench/workloads.py, run the same bcsim command through
`bcsim.cli.main`, and compare the hashes. They only read perfbench/.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from bcsim.cli import EXIT_OK, load_config, main
from bcsim.simulator import baseline_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())

_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("index", [0, 17])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_output_matches_expected(tmp_path, workload, index):
    argv, out = workloads.prepare(workload, index, tmp_path)
    assert main(argv) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPECTED[workload][str(index)]["sha256"]


def test_baseline_yaml_is_baseline_config(tmp_path):
    """The trace-baseline workload's config file is baseline_config()."""
    path = tmp_path / "baseline.yaml"
    path.write_text(workloads.BASELINE_YAML)
    assert load_config(str(path)) == baseline_config()
