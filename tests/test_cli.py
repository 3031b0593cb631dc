import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from bcsim.cli import (
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    load_config,
    main,
)
from bcsim.simulator import MODE_BACKUP, MODE_BASELINE, ConfigError, SimConfig, Simulator
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
                      README.read_text(), re.S).group(1)
    path = tmp_path / "c.yaml"
    path.write_text(block)
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
    assert manifest["config"]["backup_max"] == 256


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
print(json.dumps({"rc": rc, "yaml_imported": "yaml" in sys.modules}))
"""


def _sim_in_fresh_process(argv: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SIM_IN_FRESH_PROCESS, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _expected_sim_text(config: SimConfig, trace_path: Path) -> str:
    sim = Simulator(config)
    with trace_path.open() as fh:
        stats = run_trace(sim, parse_trace(fh))
    return stats.as_text() + f"state_digest={sim.state_digest()}\n"


def test_sim_imports_yaml_only_for_a_config_file(tmp_path, trace_file):
    out = tmp_path / "plain.txt"
    report = _sim_in_fresh_process(["sim", "--trace", str(trace_file), "--out", str(out)])
    assert report == {"rc": EXIT_OK, "yaml_imported": False}
    assert out.read_text() == _expected_sim_text(SimConfig(), trace_file)
    # With --config the file is still read: its baseline mode shows in the output.
    cfg, out = tmp_path / "c.yaml", tmp_path / "config.txt"
    cfg.write_text("mode: baseline\n")
    report = _sim_in_fresh_process(["sim", "--config", str(cfg), "--trace", str(trace_file),
                                    "--out", str(out)])
    assert report == {"rc": EXIT_OK, "yaml_imported": True}
    assert out.read_text() == _expected_sim_text(SimConfig(mode=MODE_BASELINE), trace_file)
    assert out.read_text() != (tmp_path / "plain.txt").read_text()


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
    "memory_penalty_cycles: '100'\n",
    "{1: 2}\n",
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
