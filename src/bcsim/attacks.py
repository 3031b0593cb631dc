"""Prime+Probe attack scenarios against a simulator instance.

Two case studies: a single-set covert-channel style attack extracting a
bit string, and a first-round AES T-table attack producing a per-set
probe-latency matrix. Attacker and victim never share addresses; every
scenario is reproducible from its config's seed.
"""

import itertools
import random
from array import array
from typing import NamedTuple

from .core import ADDR_LIMIT, CacheError, CacheGeometry, check_addr, compose
from .simulator import KIND_CTXSWITCH, KIND_LOAD, ConfigError, SimConfig, Simulator

_CTXSWITCH = (KIND_CTXSWITCH, None)

# Tag ranges keeping attacker, victim, and T-table addresses disjoint, in rising order.
_ATTACKER_TAG_SPACE = 1 << 20
_VICTIM_TAG_BASE = 1 << 24
_TTABLE_TAG_BASE = 1 << 28

TARGET_SET = 5  # the one set the single-set attack primes and probes


def build_eviction_set(geo: CacheGeometry, target_sets: list[int], rng: random.Random,
                       filler_bytes: int = 0) -> tuple[list[list[int]], list[int]]:
    """The attacker's working set: (set_lines, filler), where set_lines
    holds one list of conflict lines per target set, in target order.

    The tag base is the first draw from rng. Filler is spread round-robin
    over sets disjoint from the targets; raises if filler is requested but
    no non-target set exists.
    """
    if filler_bytes % geo.line_bytes != 0:
        raise ConfigError("filler_bytes must be a multiple of the line size")
    for s in target_sets:
        if not 0 <= s < geo.num_sets:
            raise ConfigError(f"target set {s} out of range")
    if _TTABLE_TAG_BASE << (geo.offset_bits + geo.index_bits) >= ADDR_LIMIT:
        raise ConfigError("line_bytes * sets leaves too few tag bits for the attack")
    tag_base = rng.randrange(1, _ATTACKER_TAG_SPACE)
    # Addresses by arithmetic, as compose builds them. The check above keeps the
    # set lines' tags in range; filler tags rise, so only the highest is checked.
    shift, offset = geo.offset_bits + geo.index_bits, geo.offset_bits
    set_lines = [[tag << shift | s << offset for tag in range(tag_base, tag_base + geo.ways)]
                 for s in target_sets]
    n_filler = filler_bytes // geo.line_bytes
    targets = set(target_sets)
    spare = [s for s in range(geo.num_sets) if s not in targets]
    if n_filler and not spare:
        raise CacheError("no non-target sets available for filler lines")
    if n_filler and (tag_base + geo.ways + (n_filler - 1) // len(spare)) << shift >= ADDR_LIMIT:
        check_addr(ADDR_LIMIT | spare[0] << offset)  # the first filler line compose would refuse
    filler = [(tag_base + geo.ways + i // len(spare)) << shift | spare[i % len(spare)] << offset
              for i in range(n_filler)]
    return set_lines, filler


def _prime_probe(sim: Simulator, group_len: int, prime: list[tuple],
                 victim: list[int]) -> list[int]:
    """One round as two batches: prime (a load of each group's addresses,
    group after group, group_len loads each), context switch, load the
    victim's addresses and context switch, unrecorded; then probe in prime
    order. Returns each group's summed probe latency."""
    sim.run(prime + [_CTXSWITCH] + [(KIND_LOAD, addr) for addr in victim] + [_CTXSWITCH])
    latencies: list[int] = []
    sim.run(prime, latencies)
    # Deal the probes out into tuples of one group each, summed in C calls only.
    return list(map(sum, zip(*[iter(latencies)] * group_len)))


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


class SingleSetAttackResult(NamedTuple):
    probe_latencies: list[int]
    accuracy: float
    degenerate: bool


def run_single_set_attack(config: SimConfig, secret_bits: list[int],
                          filler_bytes: int = 0) -> SingleSetAttackResult:
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
    (lines,), filler = build_eviction_set(geo, [TARGET_SET], random.Random(config.seed),
                                          filler_bytes)
    prime = [(KIND_LOAD, addr) for addr in lines + filler]
    latencies = []
    victim_tags = itertools.count(_VICTIM_TAG_BASE)
    for bit in secret_bits:
        victim = [compose(next(victim_tags), TARGET_SET, geo)
                  for _ in range(geo.ways)] if bit else []
        latencies.extend(_prime_probe(sim, len(prime), prime, victim))
    lat0 = [lat for bit, lat in zip(secret_bits, latencies) if bit == 0]
    lat1 = [lat for bit, lat in zip(secret_bits, latencies) if bit == 1]
    predicted, _, degenerate = classify_threshold(lat0, lat1, latencies)
    accuracy = sum(p == b for p, b in zip(predicted, secret_bits)) / len(secret_bits)
    return SingleSetAttackResult(probe_latencies=latencies, accuracy=accuracy,
                                 degenerate=degenerate)


class AesAttackResult(NamedTuple):
    """Per-sample, per-set probe latencies for the T-table attack.

    latencies is a C-contiguous (n_samples, 64) memoryview of format "q"
    (int64) with .shape, len(), .tolist() and [sample, set] indexing;
    numpy.asarray() wraps it without a copy. With the key, each sample's
    plaintext gives the sets the victim touched.
    """

    latencies: memoryview
    plaintexts: list[bytes]


N_TTABLE_SETS = 64
_LINES_PER_TABLE = 16


def run_aes_attack(config: SimConfig, n_samples: int, key: bytes) -> AesAttackResult:
    """Prime+Probe over sets 0..63, which hold a 4KB T-table region.

    Per sample: prime every T-table set, context switch, victim performs
    the 16 first-round table lookups for a random plaintext (byte i reads
    table i mod 4 at line (p_i xor k_i) >> 4), context switch, then probe
    each set individually and record its summed latency.

    There is no filler: the prime is exactly the L1D, so a sample sends at
    most its 16 victim lines into the backup cache. A flat probe map
    (acceptance criterion 5) can show only that those lines are hidden.
    """
    if len(key) != 16:
        raise CacheError("key must be 16 bytes")
    geo = config.l1d
    rng = random.Random(config.seed)
    groups, _ = build_eviction_set(geo, list(range(N_TTABLE_SETS)), rng)
    prime = [(KIND_LOAD, addr) for group in groups for addr in group]
    sim = Simulator(config)
    # T-table line i sits in set i; a sample's victim list indexes this.
    table_lines = [compose(_TTABLE_TAG_BASE, i, geo) for i in range(N_TTABLE_SETS)]
    # memoryview.cast refuses a zero dimension, so zero samples slice one row away.
    shape = (max(n_samples, 1), N_TTABLE_SETS)
    latencies = array("q", [0]) * (shape[0] * N_TTABLE_SETS)
    plaintexts = []
    for sample in range(n_samples):
        plaintext = rng.randbytes(16)
        plaintexts.append(plaintext)
        victim = [table_lines[(i % 4) * _LINES_PER_TABLE + ((plaintext[i] ^ key[i]) >> 4)]
                  for i in range(16)]
        row = sample * N_TTABLE_SETS
        latencies[row:row + N_TTABLE_SETS] = array("q", _prime_probe(sim, geo.ways, prime, victim))
    return AesAttackResult(latencies=memoryview(latencies).cast("B").cast("q", shape)[:n_samples],
                           plaintexts=plaintexts)
