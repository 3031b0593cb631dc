"""Prints one [criterion N] PASS/FAIL line per acceptance test after the run,
and holds the AES probe-map statistics the attack tests share."""

import re

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
}


def aes_set_mean_gap(result) -> float:
    """Mean probe latency over touched (sample, set) cells minus untouched ones."""
    touched_mean = float(result.latencies[result.touched].mean())
    untouched_mean = float(result.latencies[~result.touched].mean())
    return touched_mean - untouched_mean


def aes_max_set_deviation(result) -> float:
    """Largest absolute deviation of a per-set mean from the grand mean."""
    set_means = result.latencies.mean(axis=0)
    return float(abs(set_means - result.latencies.mean()).max())


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
