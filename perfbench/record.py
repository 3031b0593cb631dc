"""Record the expected output of every workload input in expected.json.

Usage (from the repository root):
    python3 perfbench/record.py

Runs each workload once per pool index with the current bcsim sources and
stores the SHA-256 of the command's data output (the `sim` stats text with
its state_digest, or the `attack aes` latency CSV) and the number of
simulated accesses. The benchmark fails any process whose output differs,
so re-record only in a change that intends to alter simulated output, and
say so in that change.
"""

import json
import sys

import workloads
from run import HERE, WORK, run_child, sha256


def main() -> int:
    expected = {}
    for workload in workloads.WORKLOADS:
        expected[workload] = {}
        for index in range(workloads.POOL_SIZE):
            work = WORK / "record" / workload
            argv, out_path = workloads.prepare(workload, index, work)
            ran = run_child("plain", argv, work / "spans.json")
            if ran is None:
                print(f"{workload} pool index {index}: bcsim failed", file=sys.stderr)
                return 1
            expected[workload][str(index)] = {"sha256": sha256(out_path),
                                              "accesses": ran[1]["accesses"]}
            print(workload, index, expected[workload][str(index)], flush=True)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
