"""Prime+Probe attack scenarios against a simulator instance.

Two case studies: a single-set covert-channel style attack extracting a
bit string, and a first-round AES T-table attack producing a per-set
probe-latency matrix. Attacker and victim never share addresses; every
scenario is reproducible from its seed.
"""

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .core import CacheError, CacheGeometry, compose
from .simulator import ConfigError, SimConfig, Simulator

# Tag ranges keeping attacker, victim, and T-table addresses disjoint.
_ATTACKER_TAG_SPACE = 1 << 20
_VICTIM_TAG_BASE = 1 << 24
_TTABLE_TAG_BASE = 1 << 28

TARGET_SET = 5  # the one set the single-set attack primes and probes


@dataclass(frozen=True)
class EvictionSet:
    """Attacker working set: per-target-set conflict lines, in target order,
    plus backup filler."""

    set_lines: dict[int, list[int]]
    filler: list[int]

    def all_lines(self) -> list[int]:
        return [addr for lines in self.set_lines.values() for addr in lines] + self.filler


def build_eviction_set(geo: CacheGeometry, target_sets: list[int], rng: random.Random,
                       filler_bytes: int = 0) -> EvictionSet:
    """Construct conflict lines for each target set plus filler lines.

    The tag base is the first draw from rng. Filler is spread round-robin
    over sets disjoint from the targets; raises if filler is requested but
    no non-target set exists.
    """
    if filler_bytes % geo.line_bytes != 0:
        raise ConfigError("filler_bytes must be a multiple of the line size")
    for s in target_sets:
        if not 0 <= s < geo.num_sets:
            raise ConfigError(f"target set {s} out of range")
    tag_base = rng.randrange(1, _ATTACKER_TAG_SPACE)
    set_lines = {
        s: [compose(tag_base + w, s, geo) for w in range(geo.ways)]
        for s in target_sets
    }
    n_filler = filler_bytes // geo.line_bytes
    spare = [s for s in range(geo.num_sets) if s not in set_lines]
    if n_filler and not spare:
        raise CacheError("no non-target sets available for filler lines")
    filler = [compose(tag_base + geo.ways + i // len(spare), spare[i % len(spare)], geo)
              for i in range(n_filler)]
    return EvictionSet(set_lines=set_lines, filler=filler)


def _prime_probe(sim: Simulator, groups: list[list[int]], victim: list[int]) -> list[int]:
    """One round: prime each group, context switch, load the victim's
    addresses, context switch, and return each group's summed probe
    latency, probing in prime order."""
    load = sim.access
    for group in groups:
        for addr in group:
            load(addr)
    sim.context_switch()
    for addr in victim:
        load(addr)
    sim.context_switch()
    totals = []
    for group in groups:
        total = 0
        for addr in group:
            total += load(addr).latency_cycles
        totals.append(total)
    return totals


def classify_threshold(latencies_0: list[int], latencies_1: list[int],
                       test_latencies: list[int]) -> tuple[list[int], float, bool]:
    """Predict a bit per test latency: above the midpoint of the class means
    is the slow class. Degenerate when the classes are indistinguishable
    (means within one cycle): every prediction is then the majority class."""
    if not latencies_0 or not latencies_1:
        raise CacheError("need nonempty training samples for both classes")
    m0 = sum(latencies_0) / len(latencies_0)
    m1 = sum(latencies_1) / len(latencies_1)
    threshold = (m0 + m1) / 2
    if abs(m1 - m0) < 1.0:
        majority = 1 if len(latencies_1) > len(latencies_0) else 0
        return [majority] * len(test_latencies), threshold, True
    return [1 if lat > threshold else 0 for lat in test_latencies], threshold, False


@dataclass
class SingleSetAttackResult:
    probe_latencies: list[int]
    accuracy: float
    degenerate: bool


def run_single_set_attack(config: SimConfig, secret_bits: list[int],
                          filler_bytes: int = 0, seed: int = 0) -> SingleSetAttackResult:
    """Prime+Probe on cache set TARGET_SET, one trial per secret bit.

    Per bit: prime the target set (and filler), context switch, victim
    touches one way's worth of fresh conflicting lines iff the bit is 1,
    context switch, then probe the whole eviction set in prime order and
    record the summed latency. Victim lines are fresh every trial so there
    is never address reuse with the attacker.
    """
    if not secret_bits:
        raise CacheError("secret_bits must be nonempty")
    sim = Simulator(config)
    geo = config.l1d
    es = build_eviction_set(geo, [TARGET_SET], random.Random(seed), filler_bytes)
    groups = [es.all_lines()]
    latencies = []
    victim_tags = itertools.count(_VICTIM_TAG_BASE)
    for bit in secret_bits:
        victim = [compose(next(victim_tags), TARGET_SET, geo)
                  for _ in range(geo.ways)] if bit else []
        latencies.extend(_prime_probe(sim, groups, victim))
    lat0 = [lat for bit, lat in zip(secret_bits, latencies) if bit == 0]
    lat1 = [lat for bit, lat in zip(secret_bits, latencies) if bit == 1]
    predicted, _, degenerate = classify_threshold(lat0, lat1, latencies)
    accuracy = sum(p == b for p, b in zip(predicted, secret_bits)) / len(secret_bits)
    return SingleSetAttackResult(probe_latencies=latencies, accuracy=accuracy,
                                 degenerate=degenerate)


@dataclass
class AesAttackResult:
    """Per-sample, per-set probe latencies for the T-table attack.

    latencies and touched are (n_samples, 64) arrays; touched marks the
    sets the victim actually accessed in that sample.
    """

    latencies: np.ndarray
    touched: np.ndarray
    plaintexts: list[bytes] = field(repr=False)


N_TTABLE_SETS = 64
_LINES_PER_TABLE = 16


def run_aes_attack(config: SimConfig, n_samples: int, key: bytes,
                   seed: int = 0) -> AesAttackResult:
    """Prime+Probe over sets 0..63, which hold a 4KB T-table region.

    Per sample: prime every T-table set, context switch, victim performs
    the 16 first-round table lookups for a random plaintext (byte i reads
    table i mod 4 at line (p_i xor k_i) >> 4), context switch, then probe
    each set individually and record its summed latency.
    """
    if len(key) != 16:
        raise CacheError("key must be 16 bytes")
    geo = config.l1d
    rng = random.Random(seed)
    es = build_eviction_set(geo, list(range(N_TTABLE_SETS)), rng)
    groups = list(es.set_lines.values())
    sim = Simulator(config)
    # T-table line i sits in set i; a sample's victim list indexes this.
    table_lines = [compose(_TTABLE_TAG_BASE, i, geo) for i in range(N_TTABLE_SETS)]
    latencies = np.zeros((n_samples, N_TTABLE_SETS), dtype=np.int64)
    touched = np.zeros((n_samples, N_TTABLE_SETS), dtype=bool)
    plaintexts = []
    for sample in range(n_samples):
        plaintext = rng.randbytes(16)
        plaintexts.append(plaintext)
        indices = [(i % 4) * _LINES_PER_TABLE + ((plaintext[i] ^ key[i]) >> 4)
                   for i in range(16)]
        touched[sample, indices] = True
        latencies[sample] = _prime_probe(sim, groups, [table_lines[i] for i in indices])
    return AesAttackResult(latencies=latencies, touched=touched, plaintexts=plaintexts)
