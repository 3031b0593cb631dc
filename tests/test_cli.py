import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from bcsim.attacks import run_aes_attack
from bcsim.cli import (
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    dump_config,
    load_config,
    main,
)
from bcsim.simulator import (
    MODE_BACKUP,
    MODE_BASELINE,
    ConfigError,
    SimConfig,
    Simulator,
    backup_config,
    baseline_config,
)
from bcsim.trace import parse_trace, run_trace

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


@pytest.fixture
def trace_file(tmp_path):
    lines = ["# small trace"]
    for i in range(200):
        lines.append(f"R 0x{i * 64:x}")
    lines.append("CS")
    for i in range(200):
        lines.append(f"W 0x{i * 64:x}")
    path = tmp_path / "trace.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg.mode == MODE_BACKUP
    assert cfg.backup_max == 256
    assert cfg.backup_min == 192


def test_load_config_file(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(
        "mode: backup\nseed: 9\n"
        "backup:\n  min_lines: 128\n  max_lines: 256\n"
        "resize:\n  threshold: 100\n"
    )
    cfg = load_config(str(path))
    assert cfg.backup_min == 128
    assert cfg.seed == 9
    assert cfg.fixed_threshold == 100


# Each documented YAML key set to a valid non-default value, with any
# companion keys that value needs, and the SimConfig field it must reach.
@pytest.mark.parametrize("data, field, value", [
    ({"mode": "baseline"}, "mode", "baseline"),
    ({"seed": 9}, "seed", 9),
    ({"memory_penalty_cycles": 150}, "memory_penalty_cycles", 150),
    ({"l1d": {"line_bytes": 128}, "l2": {"line_bytes": 128}}, "l1d.line_bytes", 128),
    ({"l1d": {"sets": 32}}, "l1d.num_sets", 32),
    ({"l1d": {"ways": 8}}, "l1d.ways", 8),
    ({"l1d": {"hit_cycles": 4}}, "l1d.hit_cycles", 4),
    ({"l1d": {"line_bytes": 32}, "l2": {"line_bytes": 32}}, "l2.line_bytes", 32),
    ({"l2": {"sets": 1024}}, "l2.num_sets", 1024),
    ({"l2": {"ways": 16}}, "l2.ways", 16),
    ({"l2": {"hit_cycles": 30}}, "l2.hit_cycles", 30),
    ({"resize": {"threshold": 100}}, "fixed_threshold", 100),
    ({"backup": {"min_lines": 128}}, "backup_min", 128),
    ({"backup": {"max_lines": 224}}, "backup_max", 224),
])
def test_load_config_maps_each_key(tmp_path, data, field, value):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(data))
    got = load_config(str(path))
    for name in field.split("."):
        got = getattr(got, name)
    assert got == value


def test_readme_config_example_loads(tmp_path):
    block = re.search(r"### Configuration file.*?```yaml\n(.*?)```",
                      README.read_text(encoding="utf-8"), re.S).group(1)
    path = tmp_path / "c.yaml"
    path.write_text(block, encoding="utf-8")
    assert load_config(str(path)) == SimConfig()


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("mode: backup\nbogus: 1\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


@pytest.mark.parametrize("text, message", [
    ("l1d: {bogus: 1}\n", "unknown l1d key(s): bogus"),
    ("backup: {min_lines: 128, zz: 1, aa: 2}\n", "unknown backup key(s): aa, zz"),
    ("resize: {mode: fixed, extra: 2}\n", "unknown resize key(s): extra, mode"),
    ("backup: {capacity_lines: 256}\n", "unknown backup key(s): capacity_lines"),
    ("resize: {mode: fixed, threshold: 5}\n", "unknown resize key(s): mode"),
    ("l2: {ways: 2.0}\n", "l2.ways must be an integer, got 2.0"),
    ("backup: {max_lines: '256'}\n", "backup.max_lines must be an integer, got '256'"),
    ("resize: {threshold: true}\n", "resize.threshold must be an integer, got True"),
    ("seed: null\n", "seed must be an integer, got None"),
    ("seed: -1\n", "seed must be non-negative, got -1"),
])
def test_load_config_error_messages(tmp_path, text, message):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(str(path))


def test_sim_roundtrip(tmp_path, trace_file):
    out = tmp_path / "stats.json"
    rc = main(["sim", "--trace", str(trace_file), "--out", str(out),
               "--format", "structured"])
    assert rc == EXIT_OK
    data = json.loads(out.read_text())
    assert data["stats"]["accesses"] == 400
    assert data["stats"]["ctx_switches"] == 1
    manifest = json.loads((tmp_path / "stats.json.manifest.json").read_text())
    assert manifest["command"] == "sim"
    assert manifest["config"]["backup"]["max_lines"] == 256


@pytest.mark.parametrize("config", [
    SimConfig(),
    baseline_config(),
    backup_config(12, 16, seed=1),
    backup_config(8, 16, seed=3),
    backup_config(4, 16, seed=0),
    SimConfig(fixed_threshold=97),
], ids=["defaults", "baseline", "bc-12-16", "bc-8-16", "bc-4-16", "fixed-97"])
def test_dump_config_loads_back(tmp_path, config):
    """dump_config writes the keys load_config reads, as the manifest's JSON
    and as YAML; an unset resize threshold writes no resize section."""
    path = tmp_path / "c.yaml"
    data = dump_config(config)
    assert ("resize" in data) == (config.fixed_threshold is not None)
    for text in (json.dumps(data), yaml.safe_dump(data)):
        path.write_text(text)
        assert load_config(str(path)) == config


def test_sim_rerun_byte_identical(tmp_path, trace_file):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["sim", "--trace", str(trace_file), "--out", str(out1),
                 "--format", "structured"]) == EXIT_OK
    assert main(["sim", "--trace", str(trace_file), "--out", str(out2),
                 "--format", "structured"]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


_SIM_IN_FRESH_PROCESS = """
import json, sys
from bcsim.cli import main
rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "yaml_imported": "yaml" in sys.modules,
                  "numpy_imported": sys.modules.get("numpy") is not None,
                  "openssl_imported": "_hashlib" in sys.modules,
                  "analysis_imported": "bcsim.analysis" in sys.modules}))
"""


def _in_fresh_process(script: str, argv: list[str], stdlib_only: bool = False) -> dict:
    """Run script with argv in a new interpreter; its last stdout line is JSON.

    With stdlib_only the interpreter runs with -S and only src/ on its path,
    so it can import the standard library and bcsim but no installed package.
    """
    env = dict(os.environ)
    paths = (str(SRC),) if stdlib_only else (str(SRC), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run([sys.executable, *(["-S"] if stdlib_only else []), "-c", script, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _sim_in_fresh_process(argv: list[str]) -> dict:
    return _in_fresh_process(_SIM_IN_FRESH_PROCESS, argv)


def _expected_sim_text(config: SimConfig, trace_path: Path) -> str:
    sim = Simulator(config)
    with trace_path.open() as fh:
        stats = run_trace(sim, parse_trace(fh))
    return stats.as_text() + f"state_digest={sim.state_digest()}\n"


def test_sim_imports_yaml_only_for_a_config_file(tmp_path, trace_file):
    out = tmp_path / "plain.txt"
    report = _sim_in_fresh_process(["sim", "--trace", str(trace_file), "--out", str(out)])
    assert report == {"rc": EXIT_OK, "yaml_imported": False, "numpy_imported": False,
                      "openssl_imported": True, "analysis_imported": False}
    assert out.read_text() == _expected_sim_text(SimConfig(), trace_file)
    # With --config the file is still read: its baseline mode shows in the output.
    cfg, out = tmp_path / "c.yaml", tmp_path / "config.txt"
    cfg.write_text("mode: baseline\n")
    report = _sim_in_fresh_process(["sim", "--config", str(cfg), "--trace", str(trace_file),
                                    "--out", str(out)])
    assert report == {"rc": EXIT_OK, "yaml_imported": True, "numpy_imported": False,
                      "openssl_imported": True, "analysis_imported": False}
    assert out.read_text() == _expected_sim_text(SimConfig(mode=MODE_BASELINE), trace_file)
    assert out.read_text() != (tmp_path / "plain.txt").read_text()


@pytest.mark.parametrize("argv, numpy_imported", [
    (["sweep", "--trace", "TRACE", "--thresholds", "50", "--out", "OUT"], False),
    (["analyze", "--trials", "0", "--out", "OUT"], False),
    (["analyze", "--trials", "10", "--out", "OUT"], True),
    (["attack", "aes", "--samples", "1", "--out", "OUT"], False),
    (["attack", "single_set", "--bits", "8", "--filler-kb", "4", "--out", "OUT"], False),
], ids=["sweep", "analyze-closed-form", "analyze-monte-carlo", "attack-aes", "attack-single-set"])
def test_only_numeric_commands_import_numpy(tmp_path, trace_file, argv, numpy_imported):
    """Only analyze loads bcsim.analysis. None of these commands hashes, so
    OpenSSL's _hashlib comes in only with numpy, which imports it itself."""
    subs = {"TRACE": str(trace_file), "OUT": str(tmp_path / "o.csv")}
    report = _sim_in_fresh_process([subs.get(a, a) for a in argv])
    assert report == {"rc": EXIT_OK, "yaml_imported": False, "numpy_imported": numpy_imported,
                      "openssl_imported": numpy_imported,
                      "analysis_imported": argv[0] == "analyze"}


_IMPORT_CLI_IN_FRESH_PROCESS = """
import json, sys
import bcsim.cli
print(json.dumps({name: name in sys.modules for name in (
    "_hashlib", "bcsim.analysis", "numpy", "yaml", "dataclasses", "inspect")}))
"""


def test_importing_cli_loads_no_command_only_module():
    """Nor does it load dataclasses, about 11 ms with the inspect, ast and dis
    it pulls in: the configs, stats and results are named tuples."""
    report = _in_fresh_process(_IMPORT_CLI_IN_FRESH_PROCESS, [])
    assert report == {"_hashlib": False, "bcsim.analysis": False, "numpy": False, "yaml": False,
                      "dataclasses": False, "inspect": False}


@pytest.mark.parametrize("argv", [
    ["sim", "--trace", "TRACE", "--format", "structured"],
    ["sweep", "--trace", "TRACE", "--thresholds", "25,100"],
    ["attack", "aes", "--samples", "3"],
    ["attack", "single_set", "--bits", "8", "--filler-kb", "4"],
    ["analyze", "--trials", "0"],
], ids=["sim", "sweep", "attack-aes", "attack-single-set", "analyze-closed-form"])
def test_commands_run_without_numpy(tmp_path, trace_file, argv):
    """Under python -S with only src/ on the path, no installed package (numpy,
    yaml, or a command-line library) can be imported; these commands still
    run and write what they write here."""
    argv = [str(trace_file) if a == "TRACE" else a for a in argv]
    here, fresh = tmp_path / "here.out", tmp_path / "fresh.out"
    assert main([*argv, "--out", str(here)]) == EXIT_OK
    report = _in_fresh_process(_SIM_IN_FRESH_PROCESS, [*argv, "--out", str(fresh)],
                               stdlib_only=True)
    assert report == {"rc": EXIT_OK, "yaml_imported": False, "numpy_imported": False,
                      "openssl_imported": argv[0] == "sim",
                      "analysis_imported": argv[0] == "analyze"}
    assert fresh.read_bytes() == here.read_bytes()


# Runs bcsim.cli.main under a 512 MiB address-space limit, set in this child
# only, so a size that slips past its cap fails fast instead of filling the host.
_CAPPED_IN_FRESH_PROCESS = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
from bcsim.cli import main
err = io.StringIO()
with contextlib.redirect_stderr(err):
    rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "err": err.getvalue()}))
"""


@pytest.mark.parametrize("argv, config_text, code, cap", [
    (["attack", "aes", "--samples", "100000000000"], None, EXIT_USAGE, "in [0, 100000]"),
    (["attack", "single_set", "--filler-kb", "1000000000"], None, EXIT_USAGE, "in [0, 65536]"),
    (["analyze", "--trials", "100000000000"], None, EXIT_USAGE, "in [0, 10000000]"),
    (["sim", "--trace", "TRACE"], "l2: {sets: 1073741824}\n", EXIT_CONFIG,
     "capped at 4194304 lines"),
    (["sim", "--trace", "TRACE"], "backup: {max_lines: 1000000000}\n", EXIT_CONFIG,
     "capped at 65536 lines"),
    # Both levels at the line cap: about 300 MB each, more than the limit leaves.
    (["sim", "--trace", "TRACE"], "l1d: {sets: 4194304, ways: 1}\nl2: {sets: 4194304, ways: 1}\n",
     EXIT_CONFIG, "out of memory building the caches: l1d 4194304 sets x 1 ways, "
     "l2 4194304 sets x 1 ways"),
    # One past each option's cap.
    (["attack", "aes", "--samples", "100001"], None, EXIT_USAGE, "in [0, 100000]"),
    (["attack", "single_set", "--bits", "1000001"], None, EXIT_USAGE, "in [2, 1000000]"),
    (["attack", "single_set", "--filler-kb", "65537"], None, EXIT_USAGE, "in [0, 65536]"),
    (["analyze", "--trials", "10000001"], None, EXIT_USAGE, "in [0, 10000000]"),
    (["sweep", "--trace", "TRACE", "--thresholds", ",".join(map(str, range(1, 66)))], None,
     EXIT_USAGE, "up to 64 positive integers"),
], ids=["aes-samples", "filler-kb", "trials", "l2-sets", "backup-max-lines", "caches-at-line-cap",
        "samples-cap-1", "bits-cap-1", "filler-kb-cap-1", "trials-cap-1", "thresholds-cap-1"])
def test_oversized_request_exits_naming_its_cap(tmp_path, trace_file, argv, config_text, code,
                                                cap):
    argv = [str(trace_file) if a == "TRACE" else a for a in argv]
    if config_text is not None:
        (tmp_path / "c.yaml").write_text(config_text)
        argv += ["--config", str(tmp_path / "c.yaml")]
    out = tmp_path / "o.csv"
    report = _in_fresh_process(_CAPPED_IN_FRESH_PROCESS, [*argv, "--out", str(out)])
    assert report["rc"] == code
    assert cap in report["err"]
    assert not out.exists()


_AES_API_IN_FRESH_PROCESS = """
import json, sys
from bcsim.attacks import run_aes_attack
from bcsim.simulator import SimConfig
imported = "numpy" in sys.modules
result = run_aes_attack(SimConfig(seed=1), 2, bytes(range(16)))
print(json.dumps({"numpy_at_import": imported, "numpy_after_call": "numpy" in sys.modules,
                  "type": type(result.latencies).__name__, "format": result.latencies.format,
                  "shape": result.latencies.shape, "latencies": result.latencies.tolist()}))
"""


def test_run_aes_attack_never_imports_numpy():
    report = _in_fresh_process(_AES_API_IN_FRESH_PROCESS, [])
    expected = run_aes_attack(SimConfig(seed=1), 2, bytes(range(16))).latencies
    assert report == {"numpy_at_import": False, "numpy_after_call": False,
                      "type": "memoryview", "format": "q", "shape": [2, 64],
                      "latencies": expected.tolist()}


def test_sim_malformed_trace_exit_and_lineno(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("R 0x40\nR xyz\n")
    out = tmp_path / "stats.txt"
    rc = main(["sim", "--trace", str(bad), "--out", str(out)])
    assert rc == EXIT_INPUT
    assert "line 2" in capsys.readouterr().err


def test_sim_missing_trace_file(tmp_path):
    rc = main(["sim", "--trace", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "o.txt")])
    assert rc == EXIT_INPUT


def test_sim_bad_config_exit(tmp_path, trace_file):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("backup:\n  min_lines: 999\n")
    rc = main(["sim", "--config", str(cfg), "--trace", str(trace_file),
               "--out", str(tmp_path / "o.txt")])
    assert rc == EXIT_CONFIG


def test_attack_single_set(tmp_path, capsys):
    out = tmp_path / "attack.csv"
    rc = main(["attack", "single_set", "--bits", "10", "--out", str(out)])
    assert rc == EXIT_OK
    captured = capsys.readouterr().out
    assert "accuracy=" in captured
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "secret_bit", "probe_latency_cycles"]
    assert len(rows) == 11


def test_attack_unknown_scenario(tmp_path, capsys):
    rc = main(["attack", "frontdoor", "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_USAGE


def test_attack_aes(tmp_path):
    out = tmp_path / "aes.csv"
    rc = main(["attack", "aes", "--samples", "5", "--out", str(out)])
    assert rc == EXIT_OK
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "set_0"
    assert len(rows) == 6
    assert len(rows[1]) == 64


@pytest.mark.parametrize("config_text, samples", [
    ("mode: baseline\n", 40),
    (None, 40),
    (None, 0),
], ids=["baseline", "defended", "no-samples"])
def test_attack_aes_echoes_per_set_mean_spread(tmp_path, capsys, config_text, samples):
    """The echoed spread is the max minus min of the per-set mean latencies."""
    argv = ["attack", "aes", "--samples", str(samples), "--seed", "4"]
    config_path = None
    if config_text is not None:
        config_path = tmp_path / "c.yaml"
        config_path.write_text(config_text)
        argv += ["--config", str(config_path)]
    assert main([*argv, "--out", str(tmp_path / "aes.csv")]) == EXIT_OK
    result = run_aes_attack(load_config(config_path and str(config_path), 4), samples,
                            bytes(range(16)))
    means = np.asarray(result.latencies).mean(axis=0) if samples else np.zeros(1)
    spread = means.max() - means.min()
    assert capsys.readouterr().out.splitlines()[0] == f"per_set_mean_latency_spread={spread:.2f}"
    assert (spread > 0) == bool(samples)  # so a sampled run checks a non-zero value


def test_attack_bad_key(tmp_path):
    rc = main(["attack", "aes", "--key", "abcd", "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_USAGE


def test_analyze_default_rows(capsys):
    rc = main(["analyze", "--trials", "0"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "0.507692" in out
    assert "0.503876" in out
    assert "0.502591" in out


def test_analyze_csv_output(tmp_path):
    out = tmp_path / "a.csv"
    rc = main(["analyze", "--range", "12-16", "--trials", "1000",
               "--out", str(out), "--format", "csv"])
    assert rc == EXIT_OK
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["range_kb", "p_avg", "monte_carlo", "stderr", "trials"]
    assert rows[1][0] == "12-16"
    assert rows[1][4] == "1000"


ANALYZE_CSV = {
    "1000": ("range_kb,p_avg,monte_carlo,stderr,trials\r\n"
             "12-16,0.507692,0.493000,0.015810,1000\r\n"
             "8-16,0.503876,0.491000,0.015809,1000\r\n"
             "4-16,0.502591,0.487000,0.015806,1000\r\n"),
    "0": ("range_kb,p_avg,monte_carlo,stderr,trials\r\n"
          "12-16,0.507692,,,0\r\n"
          "8-16,0.503876,,,0\r\n"
          "4-16,0.502591,,,0\r\n"),
}
ANALYZE_TEXT = {
    "1000": ("range_kb      p_avg         monte_carlo   stderr        trials      \n"
             "12-16         0.507692      0.493000      0.015810      1000        \n"
             "8-16          0.503876      0.491000      0.015809      1000        \n"
             "4-16          0.502591      0.487000      0.015806      1000        \n"),
    "0": ("range_kb      p_avg         monte_carlo   stderr        trials      \n"
          "12-16         0.507692      -             -             0           \n"
          "8-16          0.503876      -             -             0           \n"
          "4-16          0.502591      -             -             0           \n"),
}


@pytest.mark.parametrize("trials", ["1000", "0"])
@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_analyze_exact_output(tmp_path, capsys, fmt, trials):
    out = tmp_path / "a.csv"
    assert main(["analyze", "--trials", trials, "--format", fmt, "--out", str(out)]) == EXIT_OK
    expected = ANALYZE_TEXT[trials] if fmt == "text" else ANALYZE_CSV[trials]
    assert capsys.readouterr().out == expected
    assert out.read_bytes() == ANALYZE_CSV[trials].encode()


def test_analyze_bad_range(capsys):
    assert main(["analyze", "--range", "banana"]) == EXIT_USAGE
    assert "--range" in capsys.readouterr().err
    # MIN_KB > MAX_KB is the user's range, not the line counts derived from it.
    assert main(["analyze", "--range", "16-12", "--trials", "0"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--range" in err and "16-12" in err and "256" not in err


@pytest.mark.parametrize("argv", [
    ["--range", "0-16", "--trials", "0"],
    ["--range", "1-2", "--line-bytes", "4096"],
])
def test_analyze_zero_line_minimum_is_config_error(capsys, argv):
    """A range whose MIN_KB holds no whole line is a 0-line backup cache,
    which SimConfig rejects too; no probability is printed for it."""
    assert main(["analyze", *argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "need 1 <= b_min" in captured.err
    assert captured.out == ""


def test_sweep(tmp_path, trace_file):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--trace", str(trace_file), "--out", str(out),
               "--thresholds", "50,100,200"])
    assert rc == EXIT_OK
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "threshold"
    labels = [r[0] for r in rows[1:]]
    assert labels == ["50", "100", "200", "dynamic"]
    # 400 accesses: resize counts follow floor(accesses / threshold).
    assert int(rows[1][1]) == 8
    assert int(rows[2][1]) == 4
    assert int(rows[3][1]) == 2


def test_sweep_rejects_nonpositive_threshold(tmp_path, trace_file):
    rc = main(["sweep", "--trace", str(trace_file),
               "--out", str(tmp_path / "s.csv"), "--thresholds", "0,10"])
    assert rc == EXIT_USAGE


def test_sweep_requires_backup_mode(tmp_path, trace_file):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("mode: baseline\n")
    rc = main(["sweep", "--config", str(cfg), "--trace", str(trace_file),
               "--out", str(tmp_path / "s.csv")])
    assert rc == EXIT_CONFIG


def test_unknown_subcommand():
    assert main(["no-such-command"]) == EXIT_USAGE


@pytest.mark.parametrize("argv, code, stream, names", [
    ([], EXIT_USAGE, None, ()),
    (["--help"], EXIT_OK, "out", ("sim", "attack", "analyze", "sweep")),
    (["sim", "--help"], EXIT_OK, "out", ("--trace",)),
    (["--version"], EXIT_OK, "out", ("0.1.0",)),
    (["sim"], EXIT_USAGE, "err", ("--trace",)),
    (["attack"], EXIT_USAGE, None, ()),
    # Complete command lines, so that only the unknown or abbreviated option is wrong.
    (["sim", "--trace", "TRACE", "--out", "OUT", "--no-such-option"], EXIT_USAGE, "err",
     ("--no-such-option",)),
    (["attack", "aes", "--samp", "2", "--out", "OUT"], EXIT_USAGE, "err", ("--samp",)),
], ids=["no-command", "help", "sim-help", "version", "sim-no-trace", "attack-no-scenario",
        "unknown-option", "abbreviated-option"])
def test_command_line_contract(tmp_path, trace_file, capsys, argv, code, stream, names):
    """main returns the documented exit code for help, version and usage
    errors, and never lets the parser's SystemExit escape."""
    subs = {"TRACE": str(trace_file), "OUT": str(tmp_path / "o.csv")}
    try:
        rc = main([subs.get(a, a) for a in argv])
    except SystemExit as exc:
        pytest.fail(f"main raised SystemExit({exc.code})")
    assert rc == code
    text = getattr(capsys.readouterr(), stream) if stream else ""
    for name in names:
        assert name in text
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("argv, code", [
    (["attack", "aes", "--samples", "-1"], EXIT_USAGE),
    (["attack", "single_set", "--filler-kb", "-1"], EXIT_USAGE),
    (["attack", "single_set", "--bits", "1"], EXIT_USAGE),
    (["analyze", "--line-bytes", "0", "--trials", "0"], EXIT_USAGE),
    (["analyze", "--trials", "-1"], EXIT_USAGE),
    (["analyze", "--seed", "-1", "--trials", "10"], EXIT_USAGE),
    (["analyze", "--p", "5", "--trials", "0"], EXIT_USAGE),
    (["analyze", "--p", "nan", "--trials", "0"], EXIT_USAGE),
    (["analyze", "--p", "-0.5", "--trials", "10"], EXIT_USAGE),
    (["analyze", "--p", "nan", "--trials", "10"], EXIT_USAGE),
    (["analyze", "--range", "16-12", "--trials", "10"], EXIT_USAGE),
    # A negative seed would replay its absolute value's random stream.
    (["sim", "--trace", "t.trace", "--seed", "-5"], EXIT_USAGE),
    (["attack", "aes", "--samples", "1", "--seed", "-5"], EXIT_USAGE),
    (["sweep", "--trace", "t.trace", "--seed", "-5"], EXIT_USAGE),
])
def test_bad_option_exit_code(tmp_path, argv, code):
    assert main([*argv, "--out", str(tmp_path / "o.csv")]) == code


@pytest.mark.parametrize("argv", [
    ["sim", "--trace", "TRACE"],
    ["attack", "single_set", "--bits", "4"],
    ["attack", "aes", "--samples", "1"],
    ["sweep", "--trace", "TRACE"],
    ["analyze", "--trials", "0"],
])
def test_out_in_missing_directory_exit_usage(tmp_path, trace_file, capsys, monkeypatch, argv):
    out = tmp_path / "missing" / "o.csv"
    argv = [str(trace_file) if a == "TRACE" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    assert str(out) in capsys.readouterr().err
    assert not out.exists()
    assert not out.with_name(out.name + ".manifest.json").exists()
    # An empty path is rejected the same way, and no file or manifest appears.
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main([*argv, "--out", ""]) == EXIT_USAGE
    assert "--out" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_out_naming_a_directory_exit_usage(tmp_path):
    assert main(["analyze", "--trials", "0", "--out", str(tmp_path)]) == EXIT_USAGE


@pytest.mark.parametrize("text", [
    'l1d: {ways: "4"}\n',
    "backup: [1, 2]\n",
    "l2: 5\n",
    "resize: {mode: fixed, threshold: 1.5}\n",
    "resize: {threshold: 1.5}\n",
    "backup: {capacity_lines: 256}\n",
    "l1d: {ways: true}\n",
    "seed: null\n",
    "seed: -1\n",
    "memory_penalty_cycles: '100'\n",
    "{1: 2}\n",
    # 2**60-byte lines leave no room in the 48-bit address space.
    "l1d: {line_bytes: 1152921504606846976}\nl2: {line_bytes: 1152921504606846976}\n",
])
def test_mistyped_config_exit_code(tmp_path, trace_file, text):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    assert main(["sim", "--config", str(cfg), "--trace", str(trace_file),
                 "--out", str(tmp_path / "o.txt")]) == EXIT_CONFIG


@pytest.mark.parametrize("argv, text", [
    (["attack", "aes", "--samples", "1"], "l1d: {sets: 32}\n"),
    (["attack", "single_set", "--bits", "4"], "l1d: {sets: 4}\n"),
    (["attack", "single_set", "--bits", "4", "--filler-kb", "1"],
     "l1d: {line_bytes: 2048}\nl2: {line_bytes: 2048}\n"),
    # 20 offset and 10 index bits leave 18 tag bits, too few for the attack's tags.
    (["attack", "aes", "--samples", "1"],
     "l1d: {line_bytes: 1048576, sets: 1024}\nl2: {line_bytes: 1048576}\n"),
    (["attack", "single_set", "--bits", "4"],
     "l1d: {line_bytes: 1048576, sets: 1024}\nl2: {line_bytes: 1048576}\n"),
])
def test_attack_geometry_unfit_exit_config(tmp_path, argv, text):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG


def test_non_utf8_trace_exit_input(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_bytes(b"R 0x40\n\xff\n")
    rc = main(["sim", "--trace", str(bad), "--out", str(tmp_path / "o.txt")])
    assert rc == EXIT_INPUT
    assert "cannot read trace" in capsys.readouterr().err


def test_non_utf8_config_exit_input(tmp_path, trace_file, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_bytes(b"seed: 1\n\xff\n")
    rc = main(["sim", "--config", str(cfg), "--trace", str(trace_file),
               "--out", str(tmp_path / "o.txt")])
    assert rc == EXIT_INPUT
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sim", "--format", "structured"],
    ["sweep", "--thresholds", "25,100"],
], ids=["sim", "sweep"])
def test_input_files_are_read_as_utf8_in_any_locale(tmp_path, argv):
    """In an ASCII locale with UTF-8 mode off, a trace with a no-break space
    separator and a non-ASCII comment, and a config with a non-ASCII comment,
    give the data a UTF-8 locale gives."""
    trace = tmp_path / "t.trace"
    trace.write_text("# é\nR\xa00x40\nW 0x80  # ü\nCS\nR 0x40\n", encoding="utf-8")
    cfg = tmp_path / "c.yaml"
    cfg.write_text("# größe\nseed: 5\n", encoding="utf-8")
    argv = [*argv, "--trace", str(trace), "--config", str(cfg)]
    utf8 = tmp_path / "utf8.out"
    assert main([*argv, "--out", str(utf8)]) == EXIT_OK
    ascii_out = tmp_path / "ascii.out"
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "bcsim.cli", *argv,
                           "--out", str(ascii_out)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert ascii_out.read_bytes() == utf8.read_bytes()


def _command_id(argv: list[str]) -> str:
    return "-".join(a for a in argv[:2] if not a.startswith("-"))


_WRITING_COMMANDS = [  # each writes a data file and a manifest
    ["sim", "--trace", "TRACE"],
    ["attack", "single_set", "--bits", "4"],
    ["attack", "aes", "--samples", "1"],
    ["sweep", "--trace", "TRACE", "--thresholds", "50"],
]


# A non-default config for each writing command; sweep rejects a baseline config.
_RERUN_CONFIGS = {
    "bc-4-16-fixed": ("backup: {min_lines: 64, max_lines: 256}\nresize: {threshold: 97}\n"
                      "memory_penalty_cycles: 150\nl2: {sets: 1024}\n"),
    "baseline": "mode: baseline\n",
}


@pytest.mark.parametrize("argv, config_text", [
    pytest.param(argv, text, id=f"{_command_id(argv)}-{name}")
    for name, text in _RERUN_CONFIGS.items() for argv in _WRITING_COMMANDS
    if not (argv[0] == "sweep" and name == "baseline")])
def test_manifest_config_reruns_the_output(tmp_path, trace_file, argv, config_text):
    """A manifest's config saved as the --config file reruns the command byte
    for byte, without the --seed the first run was given."""
    argv = [str(trace_file) if a == "TRACE" else a for a in argv]
    given, recorded = tmp_path / "given.yaml", tmp_path / "recorded.json"
    first, rerun = tmp_path / "first.out", tmp_path / "rerun.out"
    given.write_text(config_text)
    assert main([*argv, "--config", str(given), "--seed", "7", "--out", str(first)]) == EXIT_OK
    manifest = json.loads((tmp_path / "first.out.manifest.json").read_text())
    assert "seed" not in manifest and manifest["config"]["seed"] == 7
    recorded.write_text(json.dumps(manifest["config"], indent=2))
    assert main([*argv, "--config", str(recorded), "--out", str(rerun)]) == EXIT_OK
    assert rerun.read_bytes() == first.read_bytes()
    # The rerun records the same config, so its manifest reruns it in turn.
    assert json.loads((tmp_path / "rerun.out.manifest.json").read_text())["config"] == \
        manifest["config"]


def test_manifest_records_the_options(tmp_path):
    """Two attack aes runs that differ only in --samples write manifests
    that differ in that option, beside their output paths."""
    options = []
    for samples in (3, 5):
        out = tmp_path / f"aes{samples}.csv"
        assert main(["attack", "aes", "--samples", str(samples), "--out", str(out)]) == EXIT_OK
        options.append(json.loads((tmp_path / f"{out.name}.manifest.json").read_text())["options"])
    assert {key for key in options[0] if options[0][key] != options[1][key]} == \
        {"samples", "out_path"}
    assert options[1] == {"scenario": "aes", "config_path": None,
                          "out_path": str(tmp_path / "aes5.csv"), "seed": None, "bits": 100,
                          "filler_kb": 0, "samples": 5,
                          "key_hex": "000102030405060708090a0b0c0d0e0f"}


def test_manifest_records_the_input_paths(tmp_path, trace_file):
    out, config = tmp_path / "stats.txt", tmp_path / "c.yaml"
    config.write_text("seed: 3\n")
    argv = ["sim", "--trace", str(trace_file), "--config", str(config), "--out", str(out)]
    assert main(argv) == EXIT_OK
    options = json.loads((tmp_path / "stats.txt.manifest.json").read_text())["options"]
    assert (options["trace_path"], options["config_path"]) == (str(trace_file), str(config))


@pytest.mark.parametrize("argv", [*_WRITING_COMMANDS, ["analyze", "--trials", "0"]],
                         ids=_command_id)
def test_out_dangling_symlink_exit_input(tmp_path, trace_file, capsys, argv):
    """--out passes the directory check, yet the file cannot be created."""
    out = tmp_path / "o.csv"
    out.symlink_to(tmp_path / "missing" / "target.csv")
    argv = [str(trace_file) if a == "TRACE" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"output error: cannot write {out}: No such file or directory\n"


@pytest.mark.parametrize("argv", _WRITING_COMMANDS, ids=_command_id)
def test_manifest_path_is_a_directory_exit_input(tmp_path, trace_file, capsys, argv):
    out = tmp_path / "o.csv"
    manifest = tmp_path / "o.csv.manifest.json"
    manifest.mkdir()
    argv = [str(trace_file) if a == "TRACE" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"output error: cannot write {manifest}: Is a directory\n"
    # No data file is left without its manifest.
    assert not out.exists()


def test_manifest_error_reported_when_data_file_cannot_be_removed(tmp_path, trace_file, capsys,
                                                                   monkeypatch):
    """A data file that cannot be removed again leaves the manifest's error as
    the one reported, not a traceback."""
    out = tmp_path / "o.csv"
    manifest = tmp_path / "o.csv.manifest.json"
    manifest.mkdir()

    def unlink(self, missing_ok=False):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "unlink", unlink)
    assert main(["sim", "--trace", str(trace_file), "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"output error: cannot write {manifest}: Is a directory\n"
    assert out.exists()
