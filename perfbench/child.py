"""One bcsim CLI invocation in a fresh process, timed from outside src/.

Usage: python3 child.py {plain|traced} SPANS_PATH -- BCSIM_ARGS...

Runs bcsim.cli.main(BCSIM_ARGS) as the bcsim command would and prints, as
the last stdout line, a JSON object with CLOCK_MONOTONIC stamps (comparable
with the parent's) for the start and end of the simulate phase and for the
command being done; the simulated access count, the exit code and the peak
RSS; and the durations of a fixed reference loop run just before and just
after the command. In traced mode the per-layer tracer dump is written to
SPANS_PATH, and the report adds stamps taken just outside the tracer's
root span.
"""

import json
import random
import resource
import sys
import time

import bcsim.cli

REFERENCE_ITERATIONS = 200_000


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _Way:
    __slots__ = ("tag", "stamp")

    def __init__(self):
        self.tag = -1
        self.stamp = 0


def _stamp(way: _Way) -> int:
    return way.stamp


def _reference_seconds() -> float:
    """Time a fixed pure-Python LRU-probe loop, a gauge of the host's current speed.

    The loop does the same work on every call and in every version of bcsim,
    so its duration changes only with the speed of the host.
    """
    start = _now()
    rng = random.Random(1)
    sets = [[_Way() for _ in range(4)] for _ in range(64)]
    for tick in range(1, REFERENCE_ITERATIONS + 1):
        addr = rng.getrandbits(20)
        ways = sets[addr & 63]
        tag = addr >> 6
        for way in ways:
            if way.tag == tag:
                break
        else:
            way = min(ways, key=_stamp)
            way.tag = tag
        way.stamp = tick
    return _now() - start


def _aes_accesses(result, args) -> int:
    # Per sample: prime and probe every way of the 64 T-table sets, plus 16 victim loads.
    samples, sets = result.latencies.shape
    return samples * (2 * sets * args[0].l1d.ways + 16)


def _time_phase(fn, count, phase: dict):
    def wrapper(*args, **kwargs):
        phase["sim_start"] = _now()
        result = fn(*args, **kwargs)
        phase["sim_end"] = _now()
        phase["accesses"] = count(result, args)
        return result
    return wrapper


def main() -> None:
    mode, spans_path, sep, *argv = sys.argv[1:]
    if mode not in ("plain", "traced") or sep != "--":
        raise SystemExit("usage: child.py {plain|traced} SPANS_PATH -- BCSIM_ARGS...")
    phase = {"reference_before_s": _reference_seconds()}
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    # Patched after the tracer so that the phase bounds enclose its spans.
    cli = bcsim.cli
    cli.run_trace = _time_phase(cli.run_trace, lambda stats, args: stats.accesses, phase)
    cli.run_aes_attack = _time_phase(cli.run_aes_attack, _aes_accesses, phase)
    if tracer is None:
        code = cli.main(argv)
    else:
        # Stamps of this file's own clock, which the accounting check in
        # run.py holds the tracer's span times against.
        phase["root_start"] = _now()
        code = tracer.run_root(cli.main, argv)
        phase["root_end"] = _now()
    phase["done"] = _now()
    phase["exit_code"] = code
    phase["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    phase["reference_after_s"] = _reference_seconds()
    if tracer is not None:
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(phase))


if __name__ == "__main__":
    main()
