"""Golden outputs: frozen stats, state digests, CLI data-file hashes and
per-access outcome streams.

Each case is a (config, trace, seed) triple. Its trace is generated here
from a fixed seed, so the frozen values pin the simulator's exact
behaviour, RNG stream included, across builds rather than only across
reruns of one build. The values must change only in a change that means
to alter outputs; re-record them with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json
import random
import tempfile
from pathlib import Path

import pytest

from bcsim.cli import EXIT_OK, load_config, main
from bcsim.simulator import Simulator
from bcsim.trace import KIND_CTXSWITCH, KIND_INVALIDATE, KIND_STORE, parse_trace, run_trace

CONFIGS = {
    "baseline": "mode: baseline\nl1d: {line_bytes: 64, sets: 128, ways: 4, hit_cycles: 2}\n",
    "bc_12_16": "",
    "bc_4_16": "backup: {min_lines: 64, max_lines: 256}\n",
    "fixed_97": "resize: {threshold: 97}\n",
}

# name: (config, trace seed, P(CS) per record, P(INV) per record, simulator seed)
CASES = {
    "baseline": ("baseline", 1, 0.002, 0.005, 11),
    "bc_12_16": ("bc_12_16", 2, 0.002, 0.005, 12),
    "bc_4_16": ("bc_4_16", 3, 0.002, 0.005, 13),
    "fixed_resize": ("fixed_97", 4, 0.002, 0.005, 14),
    "cs_heavy": ("bc_12_16", 5, 0.05, 0.005, 15),
    "inv_heavy": ("bc_4_16", 6, 0.002, 0.15, 16),
}

TRACE_RECORDS = 4000
HOT_LINES = 320    # 20KB: exceeds the 16KB defended L1D, fits L1D + backup
WARM_LINES = 1024


def trace_text(seed: int, p_cs: float, p_inv: float, records: int = TRACE_RECORDS) -> str:
    rng = random.Random(seed)
    out = []
    cold = 0
    for _ in range(records):
        r = rng.random()
        if r < p_cs:
            out.append("CS")
            continue
        region = rng.random()
        if region < 0.75:
            line = 0x100000 + rng.randrange(HOT_LINES) * 64
        elif region < 0.95:
            line = 0x4000000 + rng.randrange(WARM_LINES) * 64
        else:
            line = 0x8000000 + cold * 64
            cold += 1
        if r < p_cs + p_inv:
            out.append(f"INV {line:#x}")
        else:
            op = "W" if rng.random() < 0.2 else "R"
            out.append(f"{op} {line + rng.randrange(8) * 8:#x}")
    return "\n".join(out) + "\n"


def _cli_sha256(argv: list[str], out: Path) -> str:
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    return hashlib.sha256(out.read_bytes()).hexdigest()


def write_inputs(name: str, work: Path) -> tuple[Path, Path, int]:
    """Write one case's config and trace into work; return (config, trace, seed)."""
    config_name, trace_seed, p_cs, p_inv, seed = CASES[name]
    config_path = work / "config.yaml"
    config_path.write_text(CONFIGS[config_name])
    trace_path = work / "input.trace"
    trace_path.write_text(trace_text(trace_seed, p_cs, p_inv))
    return config_path, trace_path, seed


def observe(name: str, work: Path) -> dict:
    config_path, trace_path, seed = write_inputs(name, work)
    sim = Simulator(load_config(str(config_path), seed))
    with trace_path.open() as fh:
        stats = run_trace(sim, parse_trace(fh))
    common = ["--config", str(config_path), "--seed", str(seed)]
    return {
        "stats": stats.as_dict(),
        "state_digest": sim.state_digest(),
        "sim_sha256": _cli_sha256(["sim", "--trace", str(trace_path), *common],
                                  work / "stats.txt"),
        "single_set_sha256": _cli_sha256(
            ["attack", "single_set", "--bits", "8", "--filler-kb", "24", *common],
            work / "single_set.csv"),
        "aes_sha256": _cli_sha256(["attack", "aes", "--samples", "4", *common],
                                  work / "aes.csv"),
    }


GOLDEN = {
    "baseline": {
        "stats": {
            "accesses": 3981,
            "case_counts": {
                "00": 1523,
                "01": 0,
                "10": 2458,
                "11": 0
            },
            "l1d_hits": 2458,
            "l1d_misses": 1523,
            "backup_hits": 0,
            "l2_hits": 407,
            "l2_misses": 1116,
            "writebacks": 314,
            "resizes": 0,
            "ctx_switches": 6,
            "invalidations": 13,
            "total_latency_cycles": 146976,
            "avg_access_latency": 36.919366993217785
        },
        "state_digest": "7508fc3613cb2a3e3bce4ef5c696ba6052f6fd8da8efebac4d68923ce8f3cf92",
        "sim_sha256": "b21fea0ec14c98f5a6e697e01cd659ef68d46edd6791d589d8a3420c112d9724",
        "single_set_sha256": "063d510a05ec505f2800e0358fc0ae635adcde1ef061801a9f8acc22c74ac0f8",
        "aes_sha256": "953eda5cafb9b78f93362a8b781f40c3f68e8e4c30f58027632dae143978fc0d"
    },
    "bc_12_16": {
        "stats": {
            "accesses": 3963,
            "case_counts": {
                "00": 1566,
                "01": 744,
                "10": 1623,
                "11": 30
            },
            "l1d_hits": 1653,
            "l1d_misses": 2310,
            "backup_hits": 774,
            "l2_hits": 501,
            "l2_misses": 1065,
            "writebacks": 612,
            "resizes": 17,
            "ctx_switches": 10,
            "invalidations": 27,
            "total_latency_cycles": 145011,
            "avg_access_latency": 36.59121877365632
        },
        "state_digest": "378c0e1dce1bd040e47857ed2c7975a0ccfeffff891abd98fcdf57369f3c9da0",
        "sim_sha256": "589bdc9a1843b18f21e4516e322ac109f36ad035a4a64d28425822c1ae9799b3",
        "single_set_sha256": "6b5c9a9398b58300c46e7d294a70d9d36ed0c30c3b99de5f3d7069847b05fd6a",
        "aes_sha256": "4fce8a3ebebdc872eece99967ccc9d5627e233e077265dbe4f8f3a6cbcddce50"
    },
    "bc_4_16": {
        "stats": {
            "accesses": 3967,
            "case_counts": {
                "00": 1705,
                "01": 655,
                "10": 1504,
                "11": 103
            },
            "l1d_hits": 1607,
            "l1d_misses": 2360,
            "backup_hits": 758,
            "l2_hits": 621,
            "l2_misses": 1084,
            "writebacks": 623,
            "resizes": 22,
            "ctx_switches": 10,
            "invalidations": 23,
            "total_latency_cycles": 149286,
            "avg_access_latency": 37.63196370052937
        },
        "state_digest": "f23d967d2a9807b6e9db22546a738537b272b79646b707be9ad41a29e06751a6",
        "sim_sha256": "e59e09d47cee37a119d3e85958f0a70144b696c2f8759c9b3dc3ee4e581bed28",
        "single_set_sha256": "41962b322f5167ab77ce357c296d733bc2582326a535eae2a16a6e0d54e8c163",
        "aes_sha256": "4fce8a3ebebdc872eece99967ccc9d5627e233e077265dbe4f8f3a6cbcddce50"
    },
    "cs_heavy": {
        "stats": {
            "accesses": 3780,
            "case_counts": {
                "00": 1505,
                "01": 749,
                "10": 1488,
                "11": 38
            },
            "l1d_hits": 1526,
            "l1d_misses": 2254,
            "backup_hits": 787,
            "l2_hits": 445,
            "l2_misses": 1060,
            "writebacks": 642,
            "resizes": 16,
            "ctx_switches": 194,
            "invalidations": 26,
            "total_latency_cycles": 142925,
            "avg_access_latency": 37.810846560846564
        },
        "state_digest": "a051c6e52802eabb6f0fea7771030d8506271244a36b390e27d8f23676d0288b",
        "sim_sha256": "956ef5b2db1b0608783909d6e0c7f6be96334a005bf7e21218efcb5a15063ff6",
        "single_set_sha256": "06d36207090ad8ba6ed22cab62f617cf5898d86879a3c4d5c66fea3a93d5bd9f",
        "aes_sha256": "4fce8a3ebebdc872eece99967ccc9d5627e233e077265dbe4f8f3a6cbcddce50"
    },
    "fixed_resize": {
        "stats": {
            "accesses": 3965,
            "case_counts": {
                "00": 1500,
                "01": 815,
                "10": 1618,
                "11": 32
            },
            "l1d_hits": 1650,
            "l1d_misses": 2315,
            "backup_hits": 847,
            "l2_hits": 456,
            "l2_misses": 1044,
            "writebacks": 663,
            "resizes": 40,
            "ctx_switches": 11,
            "invalidations": 24,
            "total_latency_cycles": 141795,
            "avg_access_latency": 35.76166456494325
        },
        "state_digest": "013aaf075735826baa25ab86ae3ad59961cb9021052f99ceb7df874d00186a2e",
        "sim_sha256": "78bc71234089bbcada573d7671097445f998a0fe5796ed1a5b7836e5b285b533",
        "single_set_sha256": "f39c18fd59fe348c7ee420b744f55207787602d7b49d1d9c09f3bf3a3ad2a540",
        "aes_sha256": "4fce8a3ebebdc872eece99967ccc9d5627e233e077265dbe4f8f3a6cbcddce50"
    },
    "inv_heavy": {
        "stats": {
            "accesses": 3417,
            "case_counts": {
                "00": 1605,
                "01": 494,
                "10": 1237,
                "11": 81
            },
            "l1d_hits": 1318,
            "l1d_misses": 2099,
            "backup_hits": 575,
            "l2_hits": 353,
            "l2_misses": 1252,
            "writebacks": 497,
            "resizes": 20,
            "ctx_switches": 6,
            "invalidations": 577,
            "total_latency_cycles": 162736,
            "avg_access_latency": 47.625402399765875
        },
        "state_digest": "fe68d8e7e856b888a4887c0befe6051a1e77bbd988bf660e2265d8499eff2b41",
        "sim_sha256": "5b8885111706afc9864225c4ab11b1cbe6fa5ddf5ed2dc64efc41557d8eb23b7",
        "single_set_sha256": "fe9e61e28dda150ec36347d32bee3cecaf580ef7d4b0cd3b89f0916559b71a8e",
        "aes_sha256": "4fce8a3ebebdc872eece99967ccc9d5627e233e077265dbe4f8f3a6cbcddce50"
    }
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    assert observe(name, tmp_path) == GOLDEN[name]


def sweep_sha256(name: str, work: Path) -> str:
    config_path, trace_path, seed = write_inputs(name, work)
    return _cli_sha256(["sweep", "--trace", str(trace_path), "--thresholds", "50,97,500",
                        "--config", str(config_path), "--seed", str(seed)], work / "sweep.csv")


# `bcsim sweep` needs a backup-mode config, so the baseline case has no entry.
SWEEP_SHA256 = {
    "bc_12_16": "3aef75a675fca25665241c97e222817202e93f858630bdc170791a40f6fa6a1c",
    "bc_4_16": "9356ff9e0534f9c89be0a81e45339736f3ae155f5952157b2ce84e8a404cb1cc",
    "cs_heavy": "32fd785502cadba23da5524b85721a531e1a789225515c36d4c77d50b5da4090",
    "fixed_resize": "247aba1d237a599ef0c76dcc5abe282f052e36ec79105f3a16c8239e41254932",
    "inv_heavy": "3cd7c30725e1611659de61fb30e501a76ffc12e757846407fd12841f0b5f4912"
}


@pytest.mark.parametrize("name", sorted(SWEEP_SHA256))
def test_sweep_golden(name, tmp_path):
    assert sweep_sha256(name, tmp_path) == SWEEP_SHA256[name]


# Outcome streams: name: (config, trace seed, P(CS) per record, P(INV) per record, simulator seed)
STREAMS = {
    "baseline": ("baseline", 21, 0.002, 0.01, 31),
    "bc_12_16": ("bc_12_16", 22, 0.002, 0.01, 32),
    "bc_4_16": ("bc_4_16", 23, 0.002, 0.01, 33),
    "fixed_resize": ("fixed_97", 24, 0.002, 0.01, 34),
}

STREAM_RECORDS = 20_000


def outcome_stream_sha256(name: str, work: Path) -> str:
    """SHA-256 over the result of every trace event, in order.

    An access contributes its AccessOutcome fields as an explicit tuple, so
    the hash does not depend on how the outcome type prints itself. A
    context switch contributes the number of used bits it cleared, an
    invalidation whether the line was resident anywhere.
    """
    config_name, trace_seed, p_cs, p_inv, seed = STREAMS[name]
    config_path = work / "config.yaml"
    config_path.write_text(CONFIGS[config_name])
    sim = Simulator(load_config(str(config_path), seed))
    digest = hashlib.sha256()
    text = trace_text(trace_seed, p_cs, p_inv, STREAM_RECORDS)
    for kind, addr in parse_trace(text.splitlines()):
        if kind == KIND_CTXSWITCH:
            event = ("CS", sim.context_switch())
        elif kind == KIND_INVALIDATE:
            event = ("INV", sim.external_invalidate(addr))
        else:
            o = sim.access(addr, store=kind == KIND_STORE)
            event = (o.case, o.latency_cycles, o.l1_eviction, tuple(o.writebacks),
                     o.resized, o.l2_hit)
        digest.update(repr(event).encode() + b"\n")
    return digest.hexdigest()


STREAM_SHA256 = {
    "baseline": "ce3435b394222ba79391a94421915a697e6eefb6508d92c16c146ecd585ac904",
    "bc_12_16": "e1883ebc1c8d2dc064f983a0043d3160e1f6c9530475f15ddd034093567400cb",
    "bc_4_16": "a805f3a9a86ae73222af0341a4be5d83a5bc4c3b790a5f072d1e7e7ecff2d848",
    "fixed_resize": "6ef9ee438711b36df4085ee399cdfac02bcc3b64afdf966d2a9993cb420b6b62"
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_outcome_stream(name, tmp_path):
    assert outcome_stream_sha256(name, tmp_path) == STREAM_SHA256[name]


def render(name: str, value: dict) -> str:
    """The source text of one golden table, as the re-record prints it."""
    return f"{name} = {json.dumps(value, indent=4)}\n"


def test_golden_tables_in_printed_layout():
    """A re-record then changes only the lines whose values moved."""
    source = Path(__file__).read_text()
    for name, value in (("GOLDEN", GOLDEN), ("SWEEP_SHA256", SWEEP_SHA256),
                        ("STREAM_SHA256", STREAM_SHA256)):
        assert render(name, value) in source


if __name__ == "__main__":
    import contextlib
    import io

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        observed = {name: observe(name, Path(tmp)) for name in sorted(CASES)}
        sweeps = {name: sweep_sha256(name, Path(tmp)) for name in sorted(CASES)
                  if name != "baseline"}
        streams = {name: outcome_stream_sha256(name, Path(tmp)) for name in sorted(STREAMS)}
    print(render("GOLDEN", observed), end="")
    print(render("SWEEP_SHA256", sweeps), end="")
    print(render("STREAM_SHA256", streams), end="")
