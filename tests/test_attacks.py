import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import aes_max_set_deviation, aes_set_mean_gap, aes_touched_sets
from reference import bit_slice, resident

from bcsim.attacks import (
    build_eviction_set,
    classify_threshold,
    run_aes_attack,
    run_single_set_attack,
)
from bcsim.core import ADDR_LIMIT, CacheError, CacheGeometry, compose
from bcsim.simulator import SimConfig, Simulator, backup_config, baseline_config

GEO = SimConfig().l1d
KEY = bytes(range(16))
# The FIPS-197 example key: unlike KEY, its high nibbles move the lookup lines.
FIPS_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def all_lines(eviction_set):
    """Every address of build_eviction_set's result, in prime order."""
    set_lines, filler = eviction_set
    return [addr for lines in set_lines for addr in lines] + filler


def test_eviction_set_maps_to_target_set():
    (lines,), filler = build_eviction_set(GEO, [5], filler_bytes=0, rng=random.Random(1))
    assert len(lines) == GEO.ways
    for addr in lines:
        assert bit_slice(addr, GEO)[1] == 5
    assert filler == []


def test_eviction_set_filler_count_and_disjointness():
    es = build_eviction_set(GEO, [5], filler_bytes=4096, rng=random.Random(1))
    _, filler = es
    assert len(filler) == 64
    for addr in filler:
        assert bit_slice(addr, GEO)[1] != 5
    assert len(set(all_lines(es))) == len(all_lines(es))


def test_eviction_set_deterministic_by_seed():
    a = build_eviction_set(GEO, [5], filler_bytes=8192, rng=random.Random(42))
    b = build_eviction_set(GEO, [5], filler_bytes=8192, rng=random.Random(42))
    c = build_eviction_set(GEO, [5], filler_bytes=8192, rng=random.Random(43))
    assert all_lines(a) == all_lines(b)
    assert all_lines(a) != all_lines(c)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(targets=st.lists(st.integers(0, GEO.num_sets - 1), min_size=1, unique=True),
       n_filler=st.integers(0, 300), seed=st.integers(0, 2**32))
def test_eviction_set_properties(targets, n_filler, seed):
    assume(n_filler == 0 or len(targets) < GEO.num_sets)
    filler_bytes = n_filler * GEO.line_bytes
    es = build_eviction_set(GEO, targets, filler_bytes=filler_bytes, rng=random.Random(seed))
    set_lines, filler = es
    assert len(set_lines) == len(targets)
    for s, lines in zip(targets, set_lines):
        assert len(lines) == GEO.ways
        assert all(bit_slice(addr, GEO)[1] == s for addr in lines)
    spare = [s for s in range(GEO.num_sets) if s not in targets]
    assert len(filler) == n_filler
    for i, addr in enumerate(filler):
        assert bit_slice(addr, GEO)[1] not in targets
        assert bit_slice(addr, GEO)[1] == spare[i % len(spare)]
    lines = all_lines(es)
    assert len(set(lines)) == len(lines)
    again = build_eviction_set(GEO, targets, filler_bytes=filler_bytes, rng=random.Random(seed))
    assert all_lines(again) == lines


def composed_eviction_set(geo, target_sets, rng, filler_bytes):
    """build_eviction_set's result built line by line through compose, which
    checks each line's set index and address."""
    tag_base = rng.randrange(1, 1 << 20)
    set_lines = [[compose(tag_base + w, s, geo) for w in range(geo.ways)] for s in target_sets]
    spare = [s for s in range(geo.num_sets) if s not in target_sets]
    filler = [compose(tag_base + geo.ways + i // len(spare), spare[i % len(spare)], geo)
              for i in range(filler_bytes // geo.line_bytes)]
    return set_lines, filler


@settings(max_examples=200, deadline=None, derandomize=True)
@given(line_bytes=st.sampled_from([1, 16, 64, 256]), num_sets=st.sampled_from([1, 2, 64, 1024]),
       ways=st.integers(1, 16), seed=st.integers(0, 2**32), data=st.data())
def test_eviction_set_lines_are_the_composed_ones(line_bytes, num_sets, ways, seed, data):
    geo = CacheGeometry(line_bytes, num_sets, ways, 3)
    targets = data.draw(st.lists(st.integers(0, num_sets - 1), min_size=1, max_size=8,
                                 unique=True))
    n_filler = data.draw(st.integers(0, 0 if len(targets) == num_sets else 200))
    assert (build_eviction_set(geo, targets, random.Random(seed), n_filler * line_bytes)
            == composed_eviction_set(geo, targets, random.Random(seed), n_filler * line_bytes))


@pytest.mark.parametrize("spare", [0, 300])
def test_eviction_set_refuses_filler_past_the_address_space_as_compose_does(spare):
    """With 19 offset and index bits, tag 2**29 is the first past the
    address space. Filler reaching it is refused, before any line is built,
    with compose's error for the first filler line that carries it."""
    geo = CacheGeometry(1024, 512, 4, 3)
    first_bad_tag = ADDR_LIMIT >> 19
    tag_base = random.Random(0).randrange(1, 1 << 20)
    n_filler = first_bad_tag - tag_base - geo.ways + 1  # one spare set: one line per tag
    with pytest.raises(CacheError) as want:
        compose(first_bad_tag, spare, geo)
    with pytest.raises(CacheError) as got:
        build_eviction_set(geo, [s for s in range(512) if s != spare], random.Random(0),
                           n_filler * geo.line_bytes)
    assert str(got.value) == str(want.value)


def test_eviction_set_filler_needs_spare_sets():
    tiny = CacheGeometry(line_bytes=64, num_sets=1, ways=4, hit_cycles=1)
    with pytest.raises(CacheError):
        build_eviction_set(tiny, [0], filler_bytes=64, rng=random.Random(0))


def test_eviction_set_rejects_unaligned_filler():
    with pytest.raises(CacheError):
        build_eviction_set(GEO, [5], filler_bytes=100, rng=random.Random(0))


def test_classifier_midpoint():
    preds, threshold, degenerate = classify_threshold([300, 300], [400, 400], [390, 310])
    assert not degenerate
    assert threshold == 350
    assert preds == [1, 0]


def test_classifier_degenerate_majority():
    preds, _, degenerate = classify_threshold([100, 100], [100], [100, 100])
    assert degenerate
    assert preds == [0, 0]


def test_classifier_needs_training_samples():
    with pytest.raises(CacheError):
        classify_threshold([], [1], [])


def test_baseline_single_set_fully_distinguishable():
    secret = [0] * 50 + [1] * 50
    result = run_single_set_attack(baseline_config(), secret)
    assert result.accuracy == 1.0
    lat0 = {l for b, l in zip(secret, result.probe_latencies) if b == 0}
    lat1 = {l for b, l in zip(secret, result.probe_latencies) if b == 1}
    assert max(lat0) < min(lat1)


def test_single_set_probe_sums_lines_and_filler():
    """Undefended, a bit-0 trial's probe hits every target line and filler line."""
    cfg = baseline_config()
    result = run_single_set_attack(cfg, [0, 1], filler_bytes=4096)
    geo = cfg.l1d
    assert result.probe_latencies[0] == (geo.ways + 4096 // geo.line_bytes) * geo.hit_cycles


def test_backup_mode_no_filler_all_hits():
    secret = [0] * 20 + [1] * 20
    result = run_single_set_attack(backup_config(12, 16, seed=2), secret)
    assert len(set(result.probe_latencies)) == 1
    assert result.degenerate


def test_eviction_set_soundness_baseline():
    """A fresh victim line in a primed set displaces exactly one attacker line."""
    cfg = baseline_config()
    sim = Simulator(cfg)
    geo = cfg.l1d
    (lines,), _ = build_eviction_set(geo, [5], rng=random.Random(3))
    for a in lines:
        sim.access(a)
    from bcsim.core import compose
    sim.access(compose(1 << 24, 5, geo))
    assert sum(resident(sim.l1d, geo, a) for a in lines) == geo.ways - 1


def test_attack_reproducible_by_seed():
    secret = [0, 1] * 10
    a = run_single_set_attack(backup_config(seed=5), secret, filler_bytes=4096)
    b = run_single_set_attack(backup_config(seed=5), secret, filler_bytes=4096)
    assert a.probe_latencies == b.probe_latencies


def test_aes_matrix_shape():
    result = run_aes_attack(backup_config(seed=1), 10, KEY)
    assert result.latencies.shape == (10, 64)
    assert len(result.plaintexts) == 10


def test_aes_empty_sample_count():
    result = run_aes_attack(backup_config(seed=1), 0, KEY)
    assert result.latencies.shape == (0, 64)


def test_aes_rejects_bad_key():
    with pytest.raises(CacheError):
        run_aes_attack(backup_config(seed=1), 1, b"short")


def test_aes_first_round_touch_model():
    """Undefended, the sets probed slower than a sample's minimum are exactly
    the 16 first-round lookups of its plaintext under the key."""
    for key in (KEY, FIPS_KEY):
        result = run_aes_attack(baseline_config(seed=9), 50, key)
        for row, plaintext in zip(result.latencies.tolist(), result.plaintexts):
            slow = {s for s, lat in enumerate(row) if lat > min(row)}
            assert slow == aes_touched_sets(plaintext, key)


def test_aes_baseline_bimodal():
    result = run_aes_attack(baseline_config(seed=2), 150, KEY)
    assert aes_set_mean_gap(result, KEY) > 20 - 2


def test_aes_backup_uniform():
    result = run_aes_attack(backup_config(12, 16, seed=2), 150, KEY)
    assert aes_max_set_deviation(result) < 5.0


def test_aes_reproducible():
    a = run_aes_attack(backup_config(seed=3), 20, KEY)
    b = run_aes_attack(backup_config(seed=3), 20, KEY)
    assert np.array_equal(np.asarray(a.latencies), np.asarray(b.latencies))
