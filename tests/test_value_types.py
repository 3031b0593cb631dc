"""The value-type contract of the configs and stats.

CacheGeometry and SimConfig check their fields on every construction
path: by keyword, by position and through a copy with changes. Equal
configs are equal and hash equal, SimStats.as_dict() returns a fresh
copy in as_text order, and a config file may set a text field.
"""

import copy
import re

import pytest

from bcsim.cli import load_config
from bcsim.core import MAX_LINES, CacheGeometry, GeometryError
from bcsim.simulator import (
    DEFAULT_SEED,
    KIND_CTXSWITCH,
    KIND_LOAD,
    KIND_STORE,
    MAX_BACKUP_LINES,
    MODE_BACKUP,
    MODE_BASELINE,
    ConfigError,
    SimConfig,
    Simulator,
    backup_config,
)


def _replace(value, **changes):
    """value with changes, through its type's own copy: a named tuple's
    _replace, or dataclasses.replace for a dataclass."""
    if hasattr(value, "_replace"):
        return value._replace(**changes)
    import dataclasses
    return dataclasses.replace(value, **changes)


GEOMETRY_FIELDS = ("line_bytes", "num_sets", "ways", "hit_cycles")
CONFIG_FIELDS = ("mode", "l1d", "l2", "backup_min", "backup_max", "memory_penalty_cycles",
                 "seed", "fixed_threshold")

GEO = dict(line_bytes=64, num_sets=64, ways=4, hit_cycles=3)
L2 = CacheGeometry(line_bytes=64, num_sets=2048, ways=8, hit_cycles=20)
CONFIG = dict(mode=MODE_BACKUP, l1d=CacheGeometry(**GEO), l2=L2, backup_min=192,
              backup_max=256, memory_penalty_cycles=100, seed=DEFAULT_SEED, fixed_threshold=None)

BAD_GEOMETRIES = [
    (dict(line_bytes=48), "line_bytes must be a power of two, got 48"),
    (dict(line_bytes=0), "line_bytes must be a power of two, got 0"),
    (dict(num_sets=63), "num_sets must be a power of two, got 63"),
    (dict(num_sets=-64), "num_sets must be a power of two, got -64"),
    (dict(ways=0), "ways must be positive, got 0"),
    (dict(num_sets=1 << 20, ways=8),
     f"num_sets * ways is capped at {MAX_LINES} lines, got {8 << 20}"),
    (dict(hit_cycles=0), "hit_cycles must be positive, got 0"),
    (dict(line_bytes=1 << 40, num_sets=1 << 9),
     "line_bytes * num_sets exceeds the 48-bit address space"),
]

BAD_CONFIGS = [
    (dict(mode="bogus"), "unknown mode 'bogus'"),
    (dict(mode=3), "unknown mode 3"),
    (dict(l2=_replace(L2, line_bytes=128)), "L1D and L2 must share one line size"),
    (dict(memory_penalty_cycles=0), "memory_penalty_cycles must be positive"),
    (dict(seed=-1), "seed must be non-negative, got -1"),
    (dict(backup_min=0), "need 1 <= backup_min <= backup_max, got 0/256"),
    (dict(backup_min=300), "need 1 <= backup_min <= backup_max, got 300/256"),
    (dict(backup_max=MAX_BACKUP_LINES + 1),
     f"backup_max is capped at {MAX_BACKUP_LINES} lines, got {MAX_BACKUP_LINES + 1}"),
    (dict(fixed_threshold=0), "fixed_threshold must be positive"),
]

# copy.replace is new in Python 3.13.
PATHS = ["keyword", "position", "replace"] + (["copy.replace"] if hasattr(copy, "replace") else [])


def _build(cls, names, valid, changes, path):
    """cls built from valid with changes, along one construction path."""
    fields = {**valid, **changes}
    if path == "keyword":
        return cls(**fields)
    if path == "position":
        return cls(*(fields[name] for name in names))
    base = cls(**valid)
    return _replace(base, **changes) if path == "replace" else copy.replace(base, **changes)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("changes, message", BAD_GEOMETRIES)
def test_invalid_geometry_raises_on_every_path(changes, message, path):
    with pytest.raises(GeometryError, match=re.escape(message)):
        _build(CacheGeometry, GEOMETRY_FIELDS, GEO, changes, path)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("changes, message", BAD_CONFIGS)
def test_invalid_config_raises_on_every_path(changes, message, path):
    with pytest.raises(ConfigError, match=re.escape(message)):
        _build(SimConfig, CONFIG_FIELDS, CONFIG, changes, path)


@pytest.mark.parametrize("path", PATHS)
def test_valid_values_build_the_same_value_on_every_path(path):
    assert _build(CacheGeometry, GEOMETRY_FIELDS, GEO, {"ways": 8}, path) == CacheGeometry(
        line_bytes=64, num_sets=64, ways=8, hit_cycles=3)
    # Baseline mode ignores the backup fields, so out-of-range ones pass.
    changes = {"mode": MODE_BASELINE, "backup_min": 0, "fixed_threshold": 0}
    config = _build(SimConfig, CONFIG_FIELDS, CONFIG, changes, path)
    assert [getattr(config, name) for name in CONFIG_FIELDS] == [
        MODE_BASELINE, CONFIG["l1d"], L2, 0, 256, 100, DEFAULT_SEED, 0]


def test_defaults_and_field_order():
    assert SimConfig() == SimConfig(**CONFIG) == SimConfig(*CONFIG.values())
    assert SimConfig().l1d == CacheGeometry(*GEO.values())
    assert SimConfig().fixed_threshold is None


def test_equal_configs_are_equal_and_hash_equal():
    a = SimConfig(seed=7, l1d=CacheGeometry(64, 64, 4, 3))
    b = SimConfig(l1d=CacheGeometry(**GEO), seed=7)
    assert a == b and hash(a) == hash(b)
    assert backup_config() == SimConfig() and hash(backup_config()) == hash(SimConfig())
    assert len({a, b, SimConfig(seed=8), _replace(a, seed=8)}) == 2
    assert a != SimConfig() and a.l1d is not b.l1d and a.l1d == b.l1d
    assert hash(CacheGeometry(**GEO)) == hash(CacheGeometry(*GEO.values()))
    assert _replace(a, seed=8).seed == 8 and a.seed == 7  # a copy; a is unchanged


STATS_KEYS = ["accesses", "case_counts", "l1d_hits", "l1d_misses", "backup_hits", "l2_hits",
              "l2_misses", "writebacks", "resizes", "ctx_switches", "invalidations",
              "total_latency_cycles", "avg_access_latency"]


def test_stats_dict_is_a_copy_in_text_order():
    records = [(KIND_LOAD, i * 64) for i in range(400)] + [(KIND_CTXSWITCH, None)] + [
        (KIND_STORE, i * 64) for i in range(400)]
    stats = Simulator(SimConfig(seed=1)).run(records)
    data = stats.as_dict()
    assert list(data) == STATS_KEYS
    assert list(data["case_counts"]) == ["00", "01", "10", "11"]
    text_keys = [line.split("=")[0] for line in stats.as_text().splitlines()]
    assert text_keys == [
        name for key in STATS_KEYS
        for name in ([f"case_{c}" for c in sorted(data["case_counts"])]
                     if key == "case_counts" else [key])]
    before = stats.as_text()
    data["case_counts"]["00"] += 5
    data["case_counts"].clear()
    data["accesses"] = -1
    assert stats.as_text() == before
    assert sum(stats.case_counts.values()) == stats.accesses == 800


def test_load_config_sets_a_text_field(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("mode: baseline\n")
    assert load_config(str(path)) == SimConfig(mode=MODE_BASELINE)
    path.write_text("mode: 3\n")
    with pytest.raises(ConfigError, match="unknown mode 3"):
        load_config(str(path))
    path.write_text("l1d: {ways: 0}\n")
    with pytest.raises(ConfigError, match="ways must be positive, got 0"):
        load_config(str(path))
