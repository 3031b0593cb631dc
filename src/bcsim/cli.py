"""Command-line entry point: sim, attack, analyze, and sweep subcommands.

Every command is a pure function of (config, inputs, seed); data outputs
are byte-identical across reruns and each output file gets a companion
run manifest recording the exact configuration.
"""

import contextlib
import functools
import io
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import click

from . import __version__
from .attacks import run_aes_attack, run_single_set_attack
from .core import CacheError
from .simulator import (
    DEFAULT_SEED,
    MODE_BACKUP,
    ConfigError,
    SimConfig,
    Simulator,
)
from .trace import TraceError, parse_trace, run_trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

_GEOMETRY_FIELDS = {"line_bytes": "line_bytes", "sets": "num_sets", "ways": "ways",
                    "hit_cycles": "hit_cycles"}
# YAML key -> SimConfig field, or a section's own table. The l1d and l2
# sections fill a CacheGeometry; the others set SimConfig fields directly.
# load_config reads these keys and dump_config writes them.
_SCHEMA = {
    "mode": "mode",
    "seed": "seed",
    "memory_penalty_cycles": "memory_penalty_cycles",
    "l1d": _GEOMETRY_FIELDS,
    "l2": _GEOMETRY_FIELDS,
    "backup": {"min_lines": "backup_min", "max_lines": "backup_max"},
    "resize": {"threshold": "fixed_threshold"},
}


class InputDataError(Exception):
    """Unreadable or malformed input file."""


class OutputError(Exception):
    """An output file that cannot be written."""


def _fields(mapping, schema: dict, where: str, prefix: str = "") -> dict:
    """The SimConfig fields one YAML mapping sets. A field whose default is
    text takes any value, for SimConfig to check; every other value must be
    an integer."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(map(str, mapping)) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(sorted(unknown))}")
    fields = {}
    for key, value in mapping.items():
        name = schema[key]
        if isinstance(name, dict):
            found = _fields(value, name, key, f"{key}.")
            if name is _GEOMETRY_FIELDS:
                fields[key] = replace(getattr(SimConfig(), key), **found)
            else:
                fields.update(found)
        elif (isinstance(getattr(SimConfig, name, None), str)
              or (isinstance(value, int) and not isinstance(value, bool))):
            fields[name] = value
        else:
            raise ConfigError(f"{prefix}{key} must be an integer, got {value!r}")
    return fields


def dump_config(config, schema: dict = _SCHEMA) -> dict:
    """config in the YAML keys load_config reads, _fields inverted. A None
    value is left out, so an unset resize threshold drops its section."""
    data = {key: getattr(config, name) if not isinstance(name, dict)
            else dump_config(getattr(config, key) if name is _GEOMETRY_FIELDS else config, name)
            for key, name in schema.items()}
    return {key: value for key, value in data.items() if value not in (None, {})}


def load_config(path: str | None, seed_override: int | None = None) -> SimConfig:
    """Build a SimConfig from a YAML file; unknown keys and mistyped values
    are hard errors, and absent keys keep SimConfig's defaults.

    Without a file the defaults reproduce the defended 12-16KB system.
    """
    data = {}
    if path is not None:
        import yaml  # imported here, so a run without a config file skips its cost

        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputDataError(f"cannot read config {path}: {exc}") from exc
        try:
            data = yaml.safe_load(text) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
    try:
        fields = _fields(data, _SCHEMA, "config")
        if seed_override is not None:
            fields["seed"] = seed_override
        return SimConfig(**fields)
    except CacheError as exc:
        raise ConfigError(str(exc)) from exc


def _write(path: Path, text: str) -> None:
    """Write one output file; any failure is an OutputError naming the path."""
    try:
        path.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _csv_text(rows) -> str:
    import csv
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _write_with_manifest(out_path: Path, text: str, command: str, config: SimConfig,
                         started: float) -> None:
    """Write a data file and its manifest; a failed manifest write removes the data file.

    The manifest records the running command's parameters as given, under
    their Python names: every option, input path and argument.
    """
    _write(out_path, text)
    manifest = {
        "command": command,
        "options": click.get_current_context().params,
        "tool_version": __version__,
        "config": dump_config(config),
        "outputs": [str(out_path)],
        "wall_clock_seconds": round(time.time() - started, 3),
    }
    try:
        _write(out_path.with_suffix(out_path.suffix + ".manifest.json"),
               json.dumps(manifest, indent=2) + "\n")
    except OutputError:
        with contextlib.suppress(OSError):  # the manifest's error is the one reported
            out_path.unlink()
        raise


def _read_trace(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_trace(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputDataError(f"cannot read trace {path}: {exc}") from exc


def _require(ok, message: str):
    """A click callback making a value that fails ok a usage error, before any work."""
    def check(ctx, param, value):
        if value is not None and not ok(value):
            raise click.BadParameter(message.format(value))
        return value
    return check


# Every command's --out option, one check of its path for all of them.
_out_option = functools.partial(
    click.option, "--out", "out_path", type=click.Path(dir_okay=False), required=True,
    callback=_require(lambda v: v and Path(v).parent.is_dir(),
                      "{!r} is not a file path in an existing directory"))


@click.group()
@click.version_option(version=__version__)
def cli():
    """Cache-hierarchy simulator with an eviction-hiding backup cache."""


@cli.command("sim")
@click.option("--config", "config_path", type=click.Path(), default=None, help="YAML config file.")
@click.option("--trace", "trace_path", type=click.Path(), required=True, help="Trace file.")
@_out_option(help="Stats output file.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Override the config seed.")
@click.option("--format", "fmt", type=click.Choice(["text", "structured"]), default="text")
def cmd_sim(config_path, trace_path, out_path, seed, fmt):
    """Run a trace through the simulator and write aggregate statistics."""
    started = time.time()
    config = load_config(config_path, seed)
    records = _read_trace(trace_path)
    sim = Simulator(config)
    stats = run_trace(sim, records)
    out = Path(out_path)
    if fmt == "structured":
        body = json.dumps({"stats": stats.as_dict(), "state_digest": sim.state_digest()},
                          indent=2, sort_keys=True) + "\n"
    else:
        body = stats.as_text() + f"state_digest={sim.state_digest()}\n"
    _write_with_manifest(out, body, "sim", config, started)
    click.echo(f"wrote {out}")


@cli.command("attack")
@click.argument("scenario", type=click.Choice(["single_set", "aes"]))
@click.option("--config", "config_path", type=click.Path(), default=None)
@_out_option(help="CSV output file.")
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--bits", type=click.IntRange(min=2), default=100,
              help="single_set: number of secret bits.")
@click.option("--filler-kb", type=click.IntRange(min=0), default=0,
              help="single_set: backup filler size in KB.")
@click.option("--samples", type=click.IntRange(min=0), default=1000,
              help="aes: number of samples.")
@click.option("--key", "key_hex", default="000102030405060708090a0b0c0d0e0f",
              help="aes: 16-byte key as hex.")
def cmd_attack(scenario, config_path, out_path, seed, bits, filler_kb, samples, key_hex):
    """Run a Prime+Probe case study and write per-probe latencies as CSV."""
    started = time.time()
    config = load_config(config_path, seed)
    out = Path(out_path)
    if scenario == "single_set":
        secret = [0] * (bits // 2) + [1] * (bits - bits // 2)
        result = run_single_set_attack(config, secret, filler_bytes=filler_kb * 1024)
        text = _csv_text([["trial", "secret_bit", "probe_latency_cycles"],
                          *([i, bit, lat] for i, (bit, lat)
                            in enumerate(zip(secret, result.probe_latencies)))])
        click.echo(f"accuracy={result.accuracy:.4f} degenerate={result.degenerate}")
    else:
        try:
            key = bytes.fromhex(key_hex)
        except ValueError as exc:
            raise click.UsageError(f"bad --key: {exc}") from exc
        if len(key) != 16:
            raise click.UsageError("--key must be 16 bytes of hex")
        result = run_aes_attack(config, samples, key)
        rows = result.latencies.tolist()
        text = _csv_text([[f"set_{j}" for j in range(result.latencies.shape[1])], *rows])
        # Each column sum is an exact integer (below 2**53): a mean is one rounded division.
        means = [sum(col) / samples for col in zip(*rows)]
        spread = max(means) - min(means) if samples else 0.0
        click.echo(f"per_set_mean_latency_spread={spread:.2f}")
    _write_with_manifest(out, text, f"attack {scenario}", config, started)
    click.echo(f"wrote {out}")


def _kb_ranges(ctx, param, texts):
    """Parse each --range as (text, MIN_KB, MAX_KB), a usage error before any work."""
    ranges = []
    for text in texts:
        try:
            lo, hi = map(int, text.split("-"))
        except ValueError:
            raise click.BadParameter(f"{text!r} is not MIN_KB-MAX_KB") from None
        if lo > hi:
            raise click.BadParameter(f"{text!r} has MIN_KB > MAX_KB")
        ranges.append((text, lo, hi))
    return ranges


@cli.command("analyze")
@click.option("--range", "ranges", multiple=True, default=("12-16", "8-16", "4-16"),
              callback=_kb_ranges, help="Backup size range in KB, e.g. 12-16. Repeatable.")
@click.option("--line-bytes", type=click.IntRange(min=1), default=64)
@click.option("--p", "p_bias", type=float, default=0.5,
              callback=_require(lambda p: 0 <= p <= 1, "{} is not in [0, 1]"),  # NaN fails too
              help="Guess bias on ambiguous observations, in [0, 1].")
@click.option("--trials", type=click.IntRange(min=0), default=10**6,
              help="Monte Carlo trials; 0 for closed form only.")
@click.option("--seed", type=click.IntRange(min=0), default=DEFAULT_SEED)
@_out_option(required=False, help="Optional CSV output file.")
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text")
def cmd_analyze(ranges, line_bytes, p_bias, trials, seed, out_path, fmt):
    """Closed-form attacker success probabilities with a Monte Carlo check."""
    from .analysis import ModelError, monte_carlo_single_set, p_avg

    rows = [["range_kb", "p_avg", "monte_carlo", "stderr", "trials"]]
    for r, lo_kb, hi_kb in ranges:
        b_min = lo_kb * 1024 // line_bytes
        b_max = hi_kb * 1024 // line_bytes
        try:
            closed = f"{p_avg(b_min, b_max):.6f}"
            if trials:
                mc = monte_carlo_single_set(b_min, b_max, p=p_bias, trials=trials, seed=seed)
                rows.append([r, closed, f"{mc.estimate:.6f}", f"{mc.stderr:.6f}", str(trials)])
            else:
                rows.append([r, closed, "", "", "0"])
        except ModelError as exc:
            raise ConfigError(str(exc)) from exc
    rendered = _csv_text(rows)
    if fmt == "text":
        for row in rows:
            click.echo("  ".join(f"{c or '-':<12}" for c in row))
    else:
        click.echo(rendered, nl=False)
    if out_path:
        _write(Path(out_path), rendered)


@cli.command("sweep")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--trace", "trace_path", type=click.Path(), required=True)
@_out_option(help="CSV output file.")
@click.option("--thresholds", default="10,50,100,200,500,1000",
              help="Comma-separated fixed resize thresholds.")
@click.option("--seed", type=click.IntRange(min=0), default=None)
def cmd_sweep(config_path, trace_path, out_path, thresholds, seed):
    """Replay one trace per fixed resize threshold plus once in dynamic mode."""
    started = time.time()
    base = load_config(config_path, seed)
    if base.mode != MODE_BACKUP:
        raise ConfigError("sweep requires a backup-mode config")
    try:
        values = [int(t) for t in thresholds.split(",") if t.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad --thresholds: {exc}") from exc
    if any(t < 1 for t in values):
        raise click.UsageError("thresholds must be positive")
    records = _read_trace(trace_path)
    rows = []
    for threshold in values:
        config = replace(base, fixed_threshold=threshold)
        rows.append((str(threshold), run_trace(Simulator(config), records)))
    dyn = replace(base, fixed_threshold=None)
    rows.append(("dynamic", run_trace(Simulator(dyn), records)))
    out = Path(out_path)
    text = _csv_text([["threshold", "resize_count", "avg_access_latency", "l1d_misses",
                       "l2_misses"],
                      *([label, stats.resizes, f"{stats.avg_access_latency:.6f}",
                         stats.l1d_misses, stats.l2_misses] for label, stats in rows)])
    _write_with_manifest(out, text, "sweep", base, started)
    click.echo(f"wrote {out}")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return EXIT_CONFIG
    except (TraceError, InputDataError) as exc:
        click.echo(f"input error: {exc}", err=True)
        return EXIT_INPUT
    except OutputError as exc:
        click.echo(f"output error: {exc}", err=True)
        return EXIT_INPUT
    except CacheError as exc:
        click.echo(f"internal error: {exc}", err=True)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
