"""Prints one [criterion N] PASS/FAIL line per acceptance test after the run,
and holds the AES probe-map statistics the attack tests share."""

import re

import numpy as np

CRITERIA = {
    1: "closed-form average success probability matches the reference "
       "values for the three size ranges",
    2: "Monte Carlo single-set oracle agrees with the closed form within "
       "3 standard errors at 10^6 trials",
    3: "undefended Prime+Probe recovers a 100-bit secret with accuracy "
       "1.0 and disjoint latency classes",
    4: "defended Prime+Probe stays at chance level (accuracy <= 0.60) "
       "for every filler size and seed",
    5: "AES T-table probe map is bimodal undefended and flat (deviation "
       "< 25% of the undefended gap) in all three defended ranges",
    6: "a 192-line backup hides up to 192 victim lines and leaks at 193, "
       "the worst-case overflow count",
    7: "over 10^6 defended accesses every L1 hit, backup hit, and dual "
       "hit takes exactly the L1 latency",
    8: "10^5 randomized operations keep every structural invariant: "
       "backup discipline, replacement-tier coverage, resize cadence, "
       "L2 non-interference, and bitwise determinism",
    9: "fixed-threshold sweep resizes exactly floor(accesses/threshold) "
       "times, non-increasing in the threshold; runtime overhead itself "
       "is not modeled",
    10: "with 28 KB of filler a fixed 256-line backup leaks a 200-bit secret "
        "(accuracy >= 0.85) and the 12-16KB range does not (<= 0.70) on "
        "every seed: resizing defeats the attack's classifier",
}


def aes_touched_sets(plaintext: bytes, key: bytes) -> set[int]:
    """The T-table sets that the 16 first-round lookups read: byte i reads
    table i mod 4 at line (p_i xor k_i) >> 4, and table line j sits in set j."""
    return {(i % 4) * 16 + ((plaintext[i] ^ key[i]) >> 4) for i in range(16)}


def aes_set_mean_gap(result, key: bytes) -> float:
    """Mean probe latency over touched (sample, set) cells minus untouched ones."""
    latencies = np.asarray(result.latencies)
    touched = np.zeros(latencies.shape, dtype=bool)
    for sample, plaintext in enumerate(result.plaintexts):
        touched[sample, list(aes_touched_sets(plaintext, key))] = True
    touched_mean = float(latencies[touched].mean())
    untouched_mean = float(latencies[~touched].mean())
    return touched_mean - untouched_mean


def aes_max_set_deviation(result) -> float:
    """Largest absolute deviation of a per-set mean from the grand mean."""
    latencies = np.asarray(result.latencies)
    set_means = latencies.mean(axis=0)
    return float(abs(set_means - latencies.mean()).max())


_verdicts = {}


def pytest_runtest_logreport(report):
    match = re.search(r"test_criterion_(\d+)", report.nodeid)
    if match and report.when == "call":
        _verdicts[int(match.group(1))] = report.passed


def pytest_terminal_summary(terminalreporter):
    if not _verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_verdicts):
        verdict = "PASS" if _verdicts[num] else "FAIL"
        terminalreporter.write_line(f"[criterion {num}] {verdict}: {CRITERIA[num]}")
