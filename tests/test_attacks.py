import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import aes_max_set_deviation, aes_set_mean_gap

from bcsim.attacks import (
    build_eviction_set,
    classify_threshold,
    run_aes_attack,
    run_single_set_attack,
)
from bcsim.core import CacheError, CacheGeometry, decompose
from bcsim.simulator import SimConfig, Simulator, backup_config, baseline_config

GEO = SimConfig().l1d
KEY = bytes(range(16))


def test_eviction_set_maps_to_target_set():
    es = build_eviction_set(GEO, [5], filler_bytes=0, rng=random.Random(1))
    assert len(es.set_lines[5]) == GEO.ways
    for addr in es.set_lines[5]:
        assert decompose(addr, GEO)[1] == 5
    assert es.filler == []


def test_eviction_set_filler_count_and_disjointness():
    es = build_eviction_set(GEO, [5], filler_bytes=4096, rng=random.Random(1))
    assert len(es.filler) == 64
    for addr in es.filler:
        assert decompose(addr, GEO)[1] != 5
    assert len(set(es.all_lines())) == len(es.all_lines())


def test_eviction_set_deterministic_by_seed():
    a = build_eviction_set(GEO, [5], filler_bytes=8192, rng=random.Random(42))
    b = build_eviction_set(GEO, [5], filler_bytes=8192, rng=random.Random(42))
    c = build_eviction_set(GEO, [5], filler_bytes=8192, rng=random.Random(43))
    assert a.all_lines() == b.all_lines()
    assert a.all_lines() != c.all_lines()


@settings(max_examples=300, deadline=None)
@given(targets=st.lists(st.integers(0, GEO.num_sets - 1), min_size=1, unique=True),
       n_filler=st.integers(0, 300), seed=st.integers(0, 2**32))
def test_eviction_set_properties(targets, n_filler, seed):
    assume(n_filler == 0 or len(targets) < GEO.num_sets)
    filler_bytes = n_filler * GEO.line_bytes
    es = build_eviction_set(GEO, targets, filler_bytes=filler_bytes, rng=random.Random(seed))
    assert list(es.set_lines) == targets
    for s, lines in es.set_lines.items():
        assert len(lines) == GEO.ways
        assert all(decompose(addr, GEO)[1] == s for addr in lines)
    spare = [s for s in range(GEO.num_sets) if s not in targets]
    assert len(es.filler) == n_filler
    for i, addr in enumerate(es.filler):
        assert decompose(addr, GEO)[1] not in targets
        assert decompose(addr, GEO)[1] == spare[i % len(spare)]
    lines = es.all_lines()
    assert len(set(lines)) == len(lines)
    again = build_eviction_set(GEO, targets, filler_bytes=filler_bytes, rng=random.Random(seed))
    assert again.all_lines() == lines


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


def test_backup_mode_no_filler_all_hits():
    secret = [0] * 20 + [1] * 20
    result = run_single_set_attack(backup_config(12, 16, seed=2), secret, seed=2)
    assert len(set(result.probe_latencies)) == 1
    assert result.degenerate


def test_eviction_set_soundness_baseline():
    """A fresh victim line in a primed set displaces exactly one attacker line."""
    cfg = baseline_config()
    sim = Simulator(cfg)
    geo = cfg.l1d
    es = build_eviction_set(geo, [5], rng=random.Random(3))
    for a in es.set_lines[5]:
        sim.access(a)
    from bcsim.core import compose
    sim.access(compose(1 << 24, 5, geo))
    resident = [a for a in es.set_lines[5] if sim.l1d.contains(a)]
    assert len(resident) == geo.ways - 1


def test_attack_reproducible_by_seed():
    secret = [0, 1] * 10
    a = run_single_set_attack(backup_config(seed=5), secret, filler_bytes=4096, seed=5)
    b = run_single_set_attack(backup_config(seed=5), secret, filler_bytes=4096, seed=5)
    assert a.probe_latencies == b.probe_latencies


def test_aes_matrix_shape():
    result = run_aes_attack(backup_config(seed=1), 10, KEY, seed=1)
    assert result.latencies.shape == (10, 64)
    assert result.touched.shape == (10, 64)


def test_aes_empty_sample_count():
    result = run_aes_attack(backup_config(seed=1), 0, KEY, seed=1)
    assert result.latencies.shape == (0, 64)


def test_aes_rejects_bad_key():
    with pytest.raises(CacheError):
        run_aes_attack(backup_config(seed=1), 1, b"short", seed=1)


def test_aes_first_round_touch_model():
    result = run_aes_attack(backup_config(seed=1), 50, KEY, seed=9)
    for sample in range(50):
        p = result.plaintexts[sample]
        expect = {(i % 4) * 16 + ((p[i] ^ KEY[i]) >> 4) for i in range(16)}
        assert set(np.flatnonzero(result.touched[sample])) == expect


def test_aes_baseline_bimodal():
    result = run_aes_attack(baseline_config(seed=1), 150, KEY, seed=2)
    assert aes_set_mean_gap(result) > 20 - 2


def test_aes_backup_uniform():
    result = run_aes_attack(backup_config(12, 16, seed=1), 150, KEY, seed=2)
    assert aes_max_set_deviation(result) < 5.0


def test_aes_reproducible():
    a = run_aes_attack(backup_config(seed=3), 20, KEY, seed=3)
    b = run_aes_attack(backup_config(seed=3), 20, KEY, seed=3)
    assert np.array_equal(a.latencies, b.latencies)
