"""Command-line entry point: sim, attack, analyze, and sweep subcommands.

Every command is a pure function of (config, inputs, seed); data outputs
are byte-identical across reruns and each output file gets a companion
run manifest recording the exact configuration.
"""

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

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
    an integer. No integer may reach 2**63 in magnitude: no size, latency or
    seed needs one, and past 4,300 digits one cannot even be printed."""
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
                fields[key] = SimConfig._field_defaults[key]._replace(**found)
            else:
                fields.update(found)
        elif type(value) is int and value.bit_length() > 63:
            raise ConfigError(f"{prefix}{key} must be below 2**63 in magnitude, "
                              f"got a {value.bit_length()}-bit integer")
        elif isinstance(SimConfig._field_defaults.get(name), str) or type(value) is int:
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
        except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int past 4,300 digits
            raise ConfigError(f"{path}: {exc}") from exc
    try:
        fields = _fields(data, _SCHEMA, "config")
        if seed_override is not None:
            fields["seed"] = seed_override
        return SimConfig(**fields)
    except (CacheError, ValueError) as exc:  # ValueError: a message that quotes such an int
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


def _write_with_manifest(text: str, command: str, config: SimConfig, started: float,
                         args: argparse.Namespace) -> None:
    """Write the --out data file and its manifest; a failed manifest write removes the data file.

    The manifest records the running command's parameters as given, under
    their Python names: every option, input path and argument.
    """
    out_path = Path(args.out_path)
    _write(out_path, text)
    manifest = {
        "command": command,
        "options": {name: value for name, value in vars(args).items() if name != "command"},
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
    print(f"wrote {out_path}")


def _read_trace(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_trace(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputDataError(f"cannot read trace {path}: {exc}") from exc


def _checked(convert, ok, message: str):
    """An argparse type: convert(text) if it passes ok, else a usage error before any work."""
    def parse(text):
        with contextlib.suppress(ValueError):
            value = convert(text)
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(message.format(text))
    return parse


def _int_in(low: int, high: float = float("inf")):
    """An argparse type for an integer in [low, high]."""
    return _checked(int, lambda v: low <= v <= high, f"{{!r}} is not an integer in [{low}, {high}]")


def _add_out(parser, help: str, required: bool = True) -> None:
    """Every command's --out option, one check of its path for all of them."""
    parser.add_argument("--out", dest="out_path", required=required, help=help, type=_checked(
        str, lambda v: v and Path(v).parent.is_dir() and not Path(v).is_dir(),
        "{!r} is not a file path in an existing directory"))


def _thresholds(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def cmd_sim(args):
    """Run a trace through the simulator and write aggregate statistics."""
    started = time.time()
    config = load_config(args.config_path, args.seed)
    records = _read_trace(args.trace_path)
    sim = Simulator(config)
    stats = run_trace(sim, records)
    if args.fmt == "structured":
        body = json.dumps({"stats": stats.as_dict(), "state_digest": sim.state_digest()},
                          indent=2, sort_keys=True) + "\n"
    else:
        body = stats.as_text() + f"state_digest={sim.state_digest()}\n"
    _write_with_manifest(body, "sim", config, started, args)


def cmd_attack(args):
    """Run a Prime+Probe case study and write per-probe latencies as CSV."""
    started = time.time()
    config = load_config(args.config_path, args.seed)
    if args.scenario == "single_set":
        secret = [0] * (args.bits // 2) + [1] * (args.bits - args.bits // 2)
        result = run_single_set_attack(config, secret, filler_bytes=args.filler_kb * 1024)
        text = _csv_text([["trial", "secret_bit", "probe_latency_cycles"],
                          *([i, bit, lat] for i, (bit, lat)
                            in enumerate(zip(secret, result.probe_latencies)))])
        print(f"accuracy={result.accuracy:.4f} degenerate={result.degenerate}")
    else:
        result = run_aes_attack(config, args.samples, bytes.fromhex(args.key_hex))
        rows = result.latencies.tolist()
        text = _csv_text([[f"set_{j}" for j in range(result.latencies.shape[1])], *rows])
        # Each column sum is an exact integer (below 2**53): a mean is one rounded division.
        means = [sum(col) / args.samples for col in zip(*rows)]
        spread = max(means) - min(means) if args.samples else 0.0
        print(f"per_set_mean_latency_spread={spread:.2f}")
    _write_with_manifest(text, f"attack {args.scenario}", config, started, args)


# One --range as (text, MIN_KB, MAX_KB).
_kb_range = _checked(lambda text: (text, *map(int, text.split("-"))),
                     lambda r: len(r) == 3 and r[1] <= r[2], "{!r} is not MIN_KB-MAX_KB")


def cmd_analyze(args):
    """Closed-form attacker success probabilities with a Monte Carlo check."""
    from .analysis import ModelError, monte_carlo_single_set, p_avg

    rows = [["range_kb", "p_avg", "monte_carlo", "stderr", "trials"]]
    # A repeated --range appends to None, so the default ranges apply only without one.
    for r, lo_kb, hi_kb in args.ranges or map(_kb_range, ("12-16", "8-16", "4-16")):
        b_min = lo_kb * 1024 // args.line_bytes
        b_max = hi_kb * 1024 // args.line_bytes
        try:
            closed = f"{p_avg(b_min, b_max):.6f}"
            if args.trials:
                mc = monte_carlo_single_set(b_min, b_max, p=args.p_bias, trials=args.trials,
                                            seed=args.seed)
                rows.append([r, closed, f"{mc.estimate:.6f}", f"{mc.stderr:.6f}", str(args.trials)])
            else:
                rows.append([r, closed, "", "", "0"])
        except ModelError as exc:
            raise ConfigError(str(exc)) from exc
    rendered = _csv_text(rows)
    if args.fmt == "text":
        for row in rows:
            print("  ".join(f"{c or '-':<12}" for c in row))
    else:
        print(rendered, end="")
    if args.out_path:
        _write(Path(args.out_path), rendered)


def cmd_sweep(args):
    """Replay one trace per fixed resize threshold plus once in dynamic mode."""
    started = time.time()
    base = load_config(args.config_path, args.seed)
    if base.mode != MODE_BACKUP:
        raise ConfigError("sweep requires a backup-mode config")
    records = _read_trace(args.trace_path)
    rows = []
    for threshold in _thresholds(args.thresholds):
        config = base._replace(fixed_threshold=threshold)
        rows.append((str(threshold), run_trace(Simulator(config), records)))
    dyn = base._replace(fixed_threshold=None)
    rows.append(("dynamic", run_trace(Simulator(dyn), records)))
    text = _csv_text([["threshold", "resize_count", "avg_access_latency", "l1d_misses",
                       "l2_misses"],
                      *([label, stats.resizes, f"{stats.avg_access_latency:.6f}",
                         stats.l1d_misses, stats.l2_misses] for label, stats in rows)])
    _write_with_manifest(text, "sweep", base, started, args)


_COMMANDS = {"sim": cmd_sim, "attack": cmd_attack, "analyze": cmd_analyze, "sweep": cmd_sweep}


def _parser() -> argparse.ArgumentParser:
    """The command line. Each option's dest is the name its command reads
    and the manifest records; the maxima bound what a run can allocate."""
    parser = argparse.ArgumentParser(prog="bcsim", allow_abbrev=False, description=(
        "Cache-hierarchy simulator with an eviction-hiding backup cache."))
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    sim, attack, analyze, sweep = (
        subparsers.add_parser(name, help=fn.__doc__, description=fn.__doc__, allow_abbrev=False)
        for name, fn in _COMMANDS.items())
    sim.add_argument("--config", dest="config_path", help="YAML config file.")
    sim.add_argument("--trace", dest="trace_path", required=True, help="Trace file.")
    _add_out(sim, "Stats output file.")
    sim.add_argument("--seed", type=_int_in(0), help="Override the config seed.")
    sim.add_argument("--format", dest="fmt", choices=["text", "structured"], default="text")

    attack.add_argument("scenario", choices=["single_set", "aes"])
    attack.add_argument("--config", dest="config_path")
    _add_out(attack, "CSV output file.")
    attack.add_argument("--seed", type=_int_in(0))
    attack.add_argument("--bits", type=_int_in(2, 1_000_000), default=100,
                        help="single_set: number of secret bits.")
    attack.add_argument("--filler-kb", type=_int_in(0, 65_536), default=0,
                        help="single_set: backup filler size in KB.")
    attack.add_argument("--samples", type=_int_in(0, 100_000), default=1000,
                        help="aes: number of samples.")
    # The check keeps the text, which the manifest records as given.
    attack.add_argument("--key", dest="key_hex", default="000102030405060708090a0b0c0d0e0f",
                        type=_checked(str, lambda v: len(bytes.fromhex(v)) == 16,
                                      "{!r} is not 16 bytes of hex"),
                        help="aes: 16-byte key as hex.")

    analyze.add_argument("--range", dest="ranges", action="append", type=_kb_range,
                         help="Backup size range in KB, e.g. 12-16. Repeatable.")
    analyze.add_argument("--line-bytes", type=_int_in(1), default=64)
    analyze.add_argument("--p", dest="p_bias", default=0.5,
                         type=_checked(float, lambda p: 0 <= p <= 1,  # NaN fails too
                                       "{!r} is not in [0, 1]"),
                         help="Guess bias on ambiguous observations, in [0, 1].")
    analyze.add_argument("--trials", type=_int_in(0, 10**7), default=10**6,
                         help="Monte Carlo trials; 0 for closed form only.")
    analyze.add_argument("--seed", type=_int_in(0), default=DEFAULT_SEED)
    _add_out(analyze, "Optional CSV output file.", required=False)
    analyze.add_argument("--format", dest="fmt", choices=["text", "csv"], default="text")

    sweep.add_argument("--config", dest="config_path")
    sweep.add_argument("--trace", dest="trace_path", required=True)
    _add_out(sweep, "CSV output file.")
    sweep.add_argument("--thresholds", default="10,50,100,200,500,1000",
                       type=_checked(str, lambda v: min(ts := _thresholds(v), default=1) > 0
                                     and len(ts) <= 64, "{!r} is not up to 64 positive integers"),
                       help="Comma-separated fixed resize thresholds.")
    sweep.add_argument("--seed", type=_int_in(0))
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help or --version, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        _COMMANDS[args.command](args)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TraceError, InputDataError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CacheError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
