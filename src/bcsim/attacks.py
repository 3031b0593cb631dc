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


@dataclass(frozen=True)
class EvictionSet:
    """Attacker working set: per-target-set conflict lines plus backup filler."""

    target_sets: tuple[int, ...]
    set_lines: dict[int, list[int]]
    filler: list[int]

    def all_lines(self) -> list[int]:
        out = []
        for s in self.target_sets:
            out.extend(self.set_lines[s])
        out.extend(self.filler)
        return out


def build_eviction_set(geo: CacheGeometry, target_sets: list[int],
                       filler_bytes: int = 0, seed: int = 0) -> EvictionSet:
    """Construct conflict lines for each target set plus filler lines.

    Filler is spread round-robin over sets disjoint from the targets;
    raises if filler is requested but no non-target set exists.
    """
    if filler_bytes % geo.line_bytes != 0:
        raise ConfigError("filler_bytes must be a multiple of the line size")
    targets = tuple(target_sets)
    for s in targets:
        if not 0 <= s < geo.num_sets:
            raise ConfigError(f"target set {s} out of range")
    rng = random.Random(seed)
    tag_base = rng.randrange(1, _ATTACKER_TAG_SPACE)
    set_lines = {
        s: [compose(tag_base + w, s, geo) for w in range(geo.ways)]
        for s in targets
    }
    n_filler = filler_bytes // geo.line_bytes
    filler: list[int] = []
    if n_filler:
        spare = [s for s in range(geo.num_sets) if s not in set(targets)]
        if not spare:
            raise CacheError("no non-target sets available for filler lines")
        for i in range(n_filler):
            tag = tag_base + geo.ways + i // len(spare)
            filler.append(compose(tag, spare[i % len(spare)], geo))
    return EvictionSet(target_sets=targets, set_lines=set_lines, filler=filler)


def _prime_probe(sim: Simulator, groups: list[list[int]], filler: list[int],
                 victim: list[int]) -> list[int]:
    """One round: prime each group and then the filler, context switch, load
    the victim's addresses, context switch, and return each group's summed
    probe latency, probing in prime order."""
    load = sim.load
    for group in groups:
        for addr in group:
            load(addr)
    for addr in filler:
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


@dataclass
class ThresholdClassifier:
    threshold: float
    degenerate: bool
    majority: int


def fit_threshold(latencies_0: list[int], latencies_1: list[int]) -> ThresholdClassifier:
    """Midpoint-of-means threshold; degenerate when the classes are
    indistinguishable (means within one cycle)."""
    if not latencies_0 or not latencies_1:
        raise CacheError("need nonempty training samples for both classes")
    m0 = sum(latencies_0) / len(latencies_0)
    m1 = sum(latencies_1) / len(latencies_1)
    if abs(m1 - m0) < 1.0:
        majority = 1 if len(latencies_1) > len(latencies_0) else 0
        return ThresholdClassifier(threshold=(m0 + m1) / 2, degenerate=True, majority=majority)
    return ThresholdClassifier(threshold=(m0 + m1) / 2, degenerate=False, majority=0)


def classify_threshold(latencies_0: list[int], latencies_1: list[int],
                       test_latencies: list[int]) -> tuple[list[int], ThresholdClassifier]:
    """Predict a bit per test latency: above threshold means the slow class."""
    clf = fit_threshold(latencies_0, latencies_1)
    if clf.degenerate:
        preds = [clf.majority] * len(test_latencies)
    else:
        preds = [1 if lat > clf.threshold else 0 for lat in test_latencies]
    return preds, clf


@dataclass
class SingleSetAttackResult:
    secret_bits: list[int]
    probe_latencies: list[int]
    predicted_bits: list[int]
    accuracy: float
    degenerate: bool
    target_set: int
    seed: int


def run_single_set_attack(config: SimConfig, secret_bits: list[int],
                          filler_bytes: int = 0, seed: int = 0,
                          target_set: int = 5,
                          victim_lines: int | None = None) -> SingleSetAttackResult:
    """Prime+Probe on one cache set, one trial per secret bit.

    Per bit: prime the target set (and filler), context switch, victim
    touches victim_lines fresh conflicting lines iff the bit is 1, context
    switch, then probe the whole eviction set in prime order and record the
    summed latency. Victim lines are fresh every trial so there is never
    address reuse with the attacker.
    """
    if not secret_bits:
        raise CacheError("secret_bits must be nonempty")
    sim = Simulator(config)
    geo = config.l1d
    if victim_lines is None:
        victim_lines = geo.ways
    es = build_eviction_set(geo, [target_set], filler_bytes, seed=seed)
    groups = [es.all_lines()]
    latencies = []
    victim_tags = itertools.count(_VICTIM_TAG_BASE)
    for bit in secret_bits:
        victim = [compose(next(victim_tags), target_set, geo)
                  for _ in range(victim_lines)] if bit else []
        latencies.extend(_prime_probe(sim, groups, [], victim))
    lat0 = [lat for bit, lat in zip(secret_bits, latencies) if bit == 0]
    lat1 = [lat for bit, lat in zip(secret_bits, latencies) if bit == 1]
    predicted, clf = classify_threshold(lat0, lat1, latencies)
    accuracy = sum(p == b for p, b in zip(predicted, secret_bits)) / len(secret_bits)
    return SingleSetAttackResult(
        secret_bits=list(secret_bits), probe_latencies=latencies,
        predicted_bits=predicted, accuracy=accuracy, degenerate=clf.degenerate,
        target_set=target_set, seed=seed)


@dataclass
class AesAttackResult:
    """Per-sample, per-set probe latencies for the T-table attack.

    latencies and touched are (n_samples, 64) arrays; touched marks the
    sets the victim actually accessed in that sample.
    """

    latencies: np.ndarray
    touched: np.ndarray
    key: bytes
    base_set: int
    seed: int
    plaintexts: list[bytes] = field(repr=False, default_factory=list)


N_TTABLE_SETS = 64
_LINES_PER_TABLE = 16


def _ttable_line_indices(rng: random.Random, plaintext: bytes, key: bytes,
                         full_rounds: bool) -> list[int]:
    """Global T-table line index (0..63) per lookup of the modeled victim.

    First round: byte i reads table i mod 4 at line (p_i xor k_i) >> 4.
    The optional later rounds touch uniformly random lines, standing in for
    the key-whitened state of a full encryption.
    """
    idx = []
    for i in range(16):
        table = i % 4
        idx.append(table * _LINES_PER_TABLE + ((plaintext[i] ^ key[i]) >> 4))
    if full_rounds:
        for r in range(9):
            for i in range(16):
                table = i % 4
                idx.append(table * _LINES_PER_TABLE + rng.randrange(_LINES_PER_TABLE))
    return idx


def run_aes_attack(config: SimConfig, n_samples: int, key: bytes, seed: int = 0,
                   filler_bytes: int = 0, base_set: int = 0,
                   full_rounds: bool = False) -> AesAttackResult:
    """Prime+Probe over the 64 consecutive sets holding a 4KB T-table region.

    Per sample: prime every T-table set (plus optional conflict-layer
    filler that pushes prime lines into the backup cache), context switch,
    victim performs its table lookups for a random plaintext, context
    switch, then probe each set individually and record its summed latency.
    """
    if len(key) != 16:
        raise CacheError("key must be 16 bytes")
    geo = config.l1d
    if base_set + N_TTABLE_SETS > geo.num_sets:
        raise ConfigError("T-table region does not fit the cache geometry")
    sim = Simulator(config)
    rng = random.Random(seed)
    tag_base = rng.randrange(1, _ATTACKER_TAG_SPACE)
    sets = list(range(base_set, base_set + N_TTABLE_SETS))
    prime_lines = [[compose(tag_base + w, s, geo) for w in range(geo.ways)] for s in sets]
    n_filler = filler_bytes // geo.line_bytes
    filler = [
        compose(tag_base + geo.ways + 1 + i // N_TTABLE_SETS, sets[i % N_TTABLE_SETS], geo)
        for i in range(n_filler)
    ]
    latencies = np.zeros((n_samples, N_TTABLE_SETS), dtype=np.int64)
    touched = np.zeros((n_samples, N_TTABLE_SETS), dtype=bool)
    plaintexts = []
    for sample in range(n_samples):
        plaintext = rng.randbytes(16)
        plaintexts.append(plaintext)
        indices = _ttable_line_indices(rng, plaintext, key, full_rounds)
        touched[sample, indices] = True
        victim = [compose(_TTABLE_TAG_BASE, base_set + i, geo) for i in indices]
        latencies[sample] = _prime_probe(sim, prime_lines, filler, victim)
    return AesAttackResult(latencies=latencies, touched=touched, key=bytes(key),
                           base_set=base_set, seed=seed, plaintexts=plaintexts)


def aes_set_mean_gap(result: AesAttackResult) -> float:
    """Mean probe latency over touched (sample, set) cells minus untouched ones."""
    touched_mean = float(result.latencies[result.touched].mean())
    untouched_mean = float(result.latencies[~result.touched].mean())
    return touched_mean - untouched_mean


def aes_max_set_deviation(result: AesAttackResult) -> float:
    """Largest absolute deviation of a per-set mean from the grand mean."""
    set_means = result.latencies.mean(axis=0)
    return float(np.abs(set_means - result.latencies.mean()).max())
