"""Differential tests: the simulator against the reference model in reference.py,
op by op, as one batch and as batches cut anywhere (a bad record among them
included), over tiny configs where conflicts, resizes and BC evictions are
common, on addresses below 512 and across the whole 48-bit address space."""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from reference import RefSimulator, assert_same_state, run_trace_unpacked

from bcsim.core import ADDR_LIMIT, CacheError, CacheGeometry
from bcsim.simulator import (
    KIND_INVALIDATE,
    KIND_LOAD,
    KIND_STORE,
    MODE_BACKUP,
    MODE_BASELINE,
    SimConfig,
    SimStats,
    Simulator,
)

LINE = 64
POOL_LINES = 8


@st.composite
def tiny_configs(draw):
    backup_max = draw(st.integers(1, 8))
    return SimConfig(
        mode=draw(st.sampled_from([MODE_BASELINE, MODE_BACKUP])),
        l1d=CacheGeometry(LINE, draw(st.sampled_from([1, 2, 4])), draw(st.integers(1, 4)), 3),
        l2=CacheGeometry(LINE, draw(st.sampled_from([1, 2, 4])), draw(st.integers(1, 4)), 20),
        backup_min=draw(st.integers(1, backup_max)),
        backup_max=backup_max,
        fixed_threshold=draw(st.none() | st.integers(1, 5)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


# Each op is one byte, decoded to (op, address) so that drawing a sequence
# stays cheap. Addresses cover POOL_LINES lines at four offsets each.
OP_NAMES = ("R", "R", "R", "W", "W", "CS", "INV")
OPS = st.binary(min_size=20, max_size=60).map(lambda raw: [
    (OP_NAMES[b % len(OP_NAMES)], b // len(OP_NAMES) % (POOL_LINES * 4) * 16) for b in raw])


# Tags of 4-set groups of lines: tag t owns lines 4t..4t+3, which fall one in
# each set of every tiny config's L1D and L2. The last tag's last line starts
# at 2**48 - 64, the last line of the address space.
LAST_TAG = (ADDR_LIMIT // LINE - 1) >> 2
EDGE_TAGS = (0, 1, 2**28 - 1, 2**28, LAST_TAG - 1, LAST_TAG)


@st.composite
def wide_ops(draw):
    """Ops on the lines of 2-5 tags drawn from the whole address space, each
    at a nonzero offset: every set of every level sees lines that alias."""
    tags = draw(st.lists(st.sampled_from(EDGE_TAGS) | st.integers(0, LAST_TAG),
                         min_size=2, max_size=5, unique=True))
    lines = [(tag << 2 | s) * LINE for tag in tags for s in range(4)]
    raw = draw(st.binary(min_size=40, max_size=120))
    n = len(OP_NAMES)
    return [(OP_NAMES[a % n], lines[a // n % len(lines)] + 1 + b % (LINE - 1))
            for a, b in zip(raw[::2], raw[1::2])]


WIDE_OPS = wide_ops()


def apply(target, op, addr):
    if op == "CS":
        return target.context_switch()
    if op == "INV":
        return target.external_invalidate(addr)
    return tuple(target.access(addr, store=op == "W"))


def check_op_by_op(config, ops):
    sim, ref = Simulator(config), RefSimulator(config)
    for step, (op, addr) in enumerate(ops):
        assert apply(sim, op, addr) == apply(ref, op, addr), (step, op, addr)
        assert sim.l1d.state_tuple() == ref.l1d.state_tuple(), step
        assert sim.l2.state_tuple() == ref.l2.state_tuple(), step
        if config.mode == MODE_BACKUP:
            assert sim.backup_state() == ref.backup.state_tuple(), step
            assert sim.mem_access_count == ref.countdown, step
    assert sim.rng.getstate() == ref.rng.getstate()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(config=tiny_configs(), ops=OPS)
def test_simulator_matches_reference(config, ops):
    check_op_by_op(config, ops)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config=tiny_configs(), ops=WIDE_OPS)
def test_simulator_matches_reference_across_the_address_space(config, ops):
    check_op_by_op(config, ops)


def to_records(ops):
    """The ops as Simulator.run records: an op's name is its kind, and a
    context switch gets address None."""
    return [(op, None if op == "CS" else addr) for op, addr in ops]


def assert_same_results(ops, events, latencies, ref):
    """Simulator.run's events and latencies for ops equal the reference
    model's, which applies ops op by op."""
    expected = [apply(ref, op, addr) for op, addr in ops]
    assert len(events) == len(expected)
    for step, ((op, addr), event, want) in enumerate(zip(ops, events, expected)):
        assert (event if op in ("CS", "INV") else tuple(event)) == want, (step, op, addr)
    assert latencies == [want[1] for (op, _), want in zip(ops, expected) if op in ("R", "W")]


def summed(stats):
    """One SimStats holding the field sums of several."""
    return SimStats(**{name: sum(getattr(s, name) for s in stats)
                       for name in SimStats._fields if name != "case_counts"},
                    case_counts={case: sum(s.case_counts[case] for s in stats)
                                 for case in ("00", "01", "10", "11")})


def check_batch(config, ops, cuts=()):
    """The op list as Simulator.run batches, cut before each index in cuts
    (none: one batch), with both sinks: their events, latencies, summed
    stats and final state equal the reference model's, applied op by op."""
    records = to_records(ops)
    sim, ref = Simulator(config), RefSimulator(config)
    latencies, events = [], []
    bounds = [0, *cuts, len(records)]
    stats = summed([sim.run(records[start:end], latencies, events)
                    for start, end in zip(bounds, bounds[1:])])
    assert_same_results(ops, events, latencies, ref)
    assert stats.as_dict() == run_trace_unpacked(RefSimulator(config), records).as_dict()
    assert_same_state(sim, ref)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(config=tiny_configs(), ops=OPS)
def test_batch_run_matches_reference(config, ops):
    check_batch(config, ops)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config=tiny_configs(), ops=WIDE_OPS)
def test_batch_run_matches_reference_across_the_address_space(config, ops):
    check_batch(config, ops)


# fixed_threshold 1-5 ends the countdown's chunks every few records, so the
# cuts and the bad record below fall at every place relative to a chunk end.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(config=tiny_configs(), ops=OPS,
       cuts=st.lists(st.integers(0, 60), max_size=3).map(sorted))
def test_runs_cut_anywhere_match_reference(config, ops, cuts):
    """The op list split into 1-4 Simulator.run batches at drawn points: the
    countdown carries across batch ends as it does across chunk ends."""
    check_batch(config, ops, [min(cut, len(ops)) for cut in cuts])


# An unknown kind, and an address one past the 48-bit space under each kind that takes one.
BAD_RECORDS = [("bogus", 0x40), (KIND_LOAD, ADDR_LIMIT), (KIND_STORE, ADDR_LIMIT),
               (KIND_INVALIDATE, ADDR_LIMIT)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(config=tiny_configs(), ops=OPS, at=st.integers(0, 60), bad=st.sampled_from(BAD_RECORDS))
def test_bad_record_keeps_the_countdown_of_the_records_before_it(config, ops, at, bad):
    """A bad record inserted at a drawn index raises CacheError, and the
    simulator is left as the reference is after the ops before it, countdown
    included, wherever in its chunk the record falls."""
    at = min(at, len(ops))
    records = to_records(ops)
    sim, ref = Simulator(config), RefSimulator(config)
    latencies, events = [], []
    with pytest.raises(CacheError):
        sim.run(records[:at] + [bad] + records[at:], latencies, events)
    assert_same_results(ops[:at], events, latencies, ref)
    assert_same_state(sim, ref)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a case-11 store leaves the line dirty in both the L1D and "
                   "the backup, so it is written back twice (ROADMAP item 2)")
@settings(max_examples=400, deadline=None, derandomize=True, phases=[Phase.generate])
@given(config=tiny_configs(), ops=OPS)
def test_each_writeback_retires_one_pending_store(config, ops):
    """Ledger: a store makes its line's write-back pending, each write-back
    retires the pending store of its line, and an INV discards it."""
    sim = Simulator(config)
    pending = set()
    for op, addr in ops:
        line = addr & ~(LINE - 1)
        if op == "CS":
            sim.context_switch()
        elif op == "INV":
            sim.external_invalidate(addr)
            pending.discard(line)
        else:
            if op == "W":
                pending.add(line)
            for wb in sim.access(addr, store=op == "W").writebacks:
                assert wb in pending, f"write-back of {wb:#x} with no pending store"
                pending.remove(wb)
