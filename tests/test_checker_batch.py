"""Batched compliance checking on both engines ≡ the per-cycle engine.

In ``record`` severity both engines record the checked signals every
cycle and replay the rule catalogue over row blocks
(:mod:`repro.protocol.checker_batch`).  The oracle is a run kept on
the per-cycle :meth:`~repro.protocol.ComplianceEngine._on_clk` by a
no-op kernel observer; it must replay 0 rows.  These tests hold the
batch to it:

* one deterministic run per rule id trips that rule identically on
  the per-cycle oracle and on both batched engines, and two of the
  violation lists are pinned (``checker_pins.json``) to the values the
  per-cycle engine recorded before the batch existed;
* flush points (the row cap, checkpoint intervals cutting an open
  burst, a wait-state streak and a split episode) are invisible;
* a cycle the live rules raise on is diverted to the live method, and
  a per-rule ``raise`` override keeps the per-cycle path
  (``test_protocol_engine.py`` covers ``warn``, ``strict`` toggled
  between runs and custom rules on a compiled system).

Regenerate the pins (``PYTHONPATH=src python
tests/test_checker_batch.py``) only for an intended change to a rule.
"""

import copy
import json
import os

import numpy as np
import pytest

from repro.amba import AhbBus, AhbConfig
from repro.amba.types import next_burst_address
from repro.kernel import (
    Clock,
    FaultInjector,
    MHz,
    ProcessError,
    Simulator,
    rowbatch,
    us,
)
from repro.protocol import ComplianceEngine, advisory_rules, mandatory_rules
from repro.protocol.checker_batch import CheckerBatch
from repro.protocol.rules import (
    ADDR,
    BURST,
    OWNER,
    SIZE,
    TRANS,
    WRITE,
    BurstSequenceRule,
    RowStep,
    SplitReleaseRule,
    WaitLimitRule,
)
from repro.replay import FaultEntry, campaign_spec, execute
from repro.state import CheckpointPlan, run_with_checkpoints
from tests.conftest import per_cycle

PINS = os.path.join(os.path.dirname(__file__), "checker_pins.json")
PINNED = ("stall-stability", "burst-control")

BASE = campaign_spec("portable-audio-player", seed=1, duration_us=3.0)


def _signal(kind, signal, bit=0, value=0, probability=0.2):
    return FaultEntry.signal_fault(kind, signal, bit=bit, value=value,
                                   start_ps=500_000, end_ps=2_500_000,
                                   probability=probability)


def _slave(fault):
    return campaign_spec("portable-audio-player", fault=fault, seed=1,
                         duration_us=3.0)


def _stuck_high(port_signal):
    """An ``instrument`` hook holding one grant/select wire high."""
    def instrument(system):
        injector = FaultInjector(system.sim, system.clk, seed=5)
        injector.stuck_at(port_signal(system.bus), 0, stuck_value=1,
                          start=500_000, end=600_000)
    return instrument


#: rule id -> (spec, instrument hook): a deterministic run tripping it.
RULE_RUNS = {
    "hgrant-one-hot": (BASE, _stuck_high(
        lambda bus: bus.master_ports[0].hgrant)),
    "hsel-one-hot": (BASE, _stuck_high(
        lambda bus: bus.slave_ports[0].hsel)),
    "alignment": (BASE.replace(faults=[
        _signal("stuck-at", "hsize", value=1)]), None),
    "stall-stability": (_slave("hung-slave").replace(faults=list(
        _slave("hung-slave").faults) + [FaultEntry.signal_fault(
            "bit-flip", "haddr", bit=4, start_ps=0, end_ps=3_000_000,
            probability=0.2)]), None),
    "two-cycle-response": (BASE.replace(faults=[
        _signal("bit-flip", "hresp", bit=1)]), None),
    "idle-okay": (BASE.replace(faults=[
        _signal("bit-flip", "hready")]), None),
    "grant-handover": (BASE.replace(faults=[
        _signal("bit-flip", "htrans")]), None),
    "seq-without-nonseq": (BASE.replace(faults=[
        _signal("glitch", "htrans", value=3)]), None),
    "burst-address": (BASE.replace(faults=[
        _signal("bit-flip", "htrans", bit=1)]), None),
    "burst-control": (BASE.replace(faults=[
        _signal("bit-flip", "hburst")]), None),
    "busy-outside-burst": (BASE.replace(faults=[
        _signal("glitch", "htrans", value=1)]), None),
    "wait-limit": (_slave("hung-slave"), None),
    "retry-livelock": (_slave("always-retry"), None),
    "split-release": (_slave("unreleased-split"), None),
}


def _checker_batch(system):
    """The record/replay batch of the system's checker."""
    (batch,) = [batch for batch in system.sim.batches
                if isinstance(batch, CheckerBatch)]
    assert batch.owner is system.checker
    return batch


def observe(rule_id, engine="interpreted", live=False):
    """Everything the runs must agree on for *rule_id*'s run; *live*
    keeps the checker per-cycle (the oracle)."""
    spec, instrument = RULE_RUNS[rule_id]

    def setup(system):
        if instrument is not None:
            instrument(system)
        if live:
            per_cycle(system)

    system, outcome = execute(spec.replace(engine=engine),
                              instrument=setup)
    checker = system.checker
    return system, {
        "outcome": [outcome.outcome, outcome.detail],
        "violations": [v.to_dict() for v in checker.violations],
        "rule_counts": dict(checker.rule_counts),
        "cycles_checked": checker.cycles_checked,
        "state": checker.state_dict(),
    }


def _json(obj):
    return json.loads(json.dumps(obj))


class TestEveryRuleTripsIdentically:
    @pytest.mark.parametrize("rule_id", sorted(RULE_RUNS))
    def test_rule_trips_identically(self, rule_id):
        system, oracle = observe(rule_id, live=True)
        assert _checker_batch(system).rows_replayed == 0
        assert oracle["rule_counts"].get(rule_id, 0) >= 1
        for engine in ("interpreted", "compiled"):
            system, batched = observe(rule_id, engine)
            assert _checker_batch(system).rows_replayed > 0, engine
            assert batched == oracle, engine
        assert system.sim.scheduler.runs_compiled > 0

    @pytest.mark.parametrize("rule_id", PINNED)
    def test_pinned_violation_lists(self, rule_id):
        with open(PINS) as fh:
            pinned = json.load(fh)[rule_id]
        for engine in ("interpreted", "compiled"):
            _, observed = observe(rule_id, engine)
            assert _json(observed["violations"]) == pinned, engine


class TestFlushBoundariesInvisible:
    """Row caps and checkpoint intervals cut the batch anywhere; the
    per-interval state digests and checker states must not notice."""

    SPECS = (RULE_RUNS["burst-address"][0],
             RULE_RUNS["stall-stability"][0], _slave("unreleased-split"))

    @staticmethod
    def _chunked(spec, interval):
        system, _ = execute(spec.replace(duration_us=0.0))
        stream = []

        def on_interval(_snapshot, entry):
            stream.append((entry, _json(system.checker.state_dict())))

        run_with_checkpoints(system, us(spec.duration_us),
                             CheckpointPlan(interval_cycles=interval),
                             on_interval=on_interval)
        return system, stream

    @staticmethod
    def _cuts(system, stream):
        """Which open episodes some interval boundary cut."""
        kinds = [type(rule) for rule in system.checker.rules]
        cut = set()
        for _, state in stream:
            for kind, rule_state in zip(kinds, state["rules"]):
                if kind is BurstSequenceRule and rule_state["in_burst"]:
                    cut.add("burst")
                if kind is WaitLimitRule and rule_state["streak"]:
                    cut.add("wait")
                if kind is SplitReleaseRule and rule_state["ages"]:
                    cut.add("split")
        return cut

    @pytest.mark.parametrize("cap", [1, 7, 4096])
    def test_caps_and_checkpoints(self, monkeypatch, cap):
        monkeypatch.setattr(rowbatch, "_FLUSH_ROWS", cap)
        cut = set()
        for spec in self.SPECS:
            i_system, interpreted = self._chunked(spec, 7)
            system, compiled = self._chunked(
                spec.replace(engine="compiled"), 7)
            assert _checker_batch(system).rows_replayed > 0
            assert compiled == interpreted
            cut |= self._cuts(i_system, interpreted)
        assert cut == {"burst", "wait", "split"}


class TestDivertAndEligibility:
    def test_invalid_htrans_crashes_identically(self):
        # While the hung slave stalls the bus the arbiter ignores
        # HTRANS, so the checker is the process the glitch crashes.
        hung = _slave("hung-slave")
        spec = hung.replace(faults=list(hung.faults) + [
            FaultEntry.signal_fault("glitch", "htrans", value=7,
                                    cycles=1, start_ps=750_000)])

        def run(engine):
            system, outcome = execute(spec.replace(engine=engine))
            checker = system.checker
            return system, (outcome.outcome, outcome.detail,
                            [v.to_dict() for v in checker.violations],
                            checker.state_dict())

        _, interpreted = run("interpreted")
        assert interpreted[0] == "crashed"
        assert "checker.check" in interpreted[1]
        assert "7 is not a valid HTRANS" in interpreted[1]
        system, compiled = run("compiled")
        batch = _checker_batch(system)
        assert batch.live_diverts == 1
        assert batch.rows_replayed > 0
        assert compiled == interpreted

    def test_open_burst_with_invalid_control_stays_live(self):
        # A burst restored open with HBURST=9 makes the live burst rule
        # raise at the next accepted SEQ beat, so the batch must run
        # every row live until the burst closes.
        def run(engine):
            system, _ = execute(BASE.replace(duration_us=0.6,
                                             engine=engine))
            burst = [rule for rule in system.checker.rules
                     if isinstance(rule, BurstSequenceRule)][0]
            state = burst.state_dict()
            state.update(in_burst=True, burst_addr=0x100,
                         burst_ctrl=[0, 2, 9, 0])
            burst.load_state_dict(state)
            with pytest.raises(ProcessError) as info:
                system.run(us(2))
            return system, (str(info.value), system.sim.now,
                            system.checker.state_dict())

        _, interpreted = run("interpreted")
        assert "checker.check" in interpreted[0]
        assert "9 is not a valid HBURST" in interpreted[0]
        system, compiled = run("compiled")
        assert _checker_batch(system).live_diverts > 0
        assert compiled == interpreted

    def test_override_raise_dies_at_the_violating_cycle(self):
        # alignment raises while every other rule records
        spec = RULE_RUNS["alignment"][0].replace(
            protocol_kwargs={"severity_overrides": {"alignment": "raise"}})
        i_system, i_outcome = execute(spec)
        c_system, c_outcome = execute(spec.replace(engine="compiled"))
        assert i_outcome.outcome == "crashed"
        assert "ProtocolComplianceError" in i_outcome.detail
        assert (c_outcome.outcome, c_outcome.detail) == \
            (i_outcome.outcome, i_outcome.detail)
        assert (c_system.checker.state_dict()
                == i_system.checker.state_dict())
        assert _checker_batch(c_system).rows_replayed == 0

    def test_repr_says_which_checker_path(self):
        system, _ = observe("alignment", "compiled")
        assert _checker_batch(system).rows_replayed > 0



hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _engine():
    """A compliance engine on a 3-master, 2-slave bus that is never
    simulated, with advisory limits low enough to trip on short
    inputs.  Returns it and its record/replay batch."""
    sim = Simulator()
    clk = Clock.from_frequency(sim, "clk", MHz(100))
    config = AhbConfig.with_uniform_map(n_masters=3, n_slaves=2,
                                        region_size=0x1000,
                                        default_master=2)
    bus = AhbBus(sim, "ahb", clk, config)
    engine = ComplianceEngine(sim, "chk", bus, rules=mandatory_rules()
                              + advisory_rules(wait_limit=2,
                                               retry_limit=1,
                                               split_limit=3))
    (batch,) = [batch for batch in sim.batches
                if isinstance(batch, CheckerBatch)]
    return engine, batch


@st.composite
def recorded_rows(draw):
    """Rows as the recorder appends them, every code inside its guard
    ranges: bursts that continue legally or break, stalls that hold or
    change the address phase, and one-hot vectors that sometimes are
    not."""
    def bit(p_one=0.5):
        return int(draw(st.floats(0, 1)) < p_one)

    def vector(width):
        if draw(st.integers(0, 4)):
            hot = draw(st.integers(0, width - 1))
            return tuple(int(index == hot) for index in range(width))
        return tuple(draw(st.lists(st.integers(0, 1), min_size=width,
                                   max_size=width)))

    rows = []
    for index in range(draw(st.integers(1, 48))):
        last = rows[-1] if rows else None
        how = draw(st.sampled_from(("seq", "hold", "fresh", "fresh")))
        if last is not None and how == "seq" and last[TRANS] >= 2:
            trans = draw(st.sampled_from((3, 3, 1)))
            addr = next_burst_address(last[ADDR], last[BURST],
                                      last[SIZE]) \
                if draw(st.integers(0, 3)) else draw(st.integers(0, 255))
            control = (last[WRITE], last[SIZE], last[BURST]) \
                if draw(st.integers(0, 3)) else (
                    bit(), draw(st.integers(0, 2)),
                    draw(st.integers(0, 7)))
            owner = last[OWNER]
        elif last is not None and how == "hold":
            trans, addr = last[TRANS], last[ADDR]
            control = (last[WRITE], last[SIZE], last[BURST])
            owner = last[OWNER]
        else:
            trans = draw(st.integers(0, 3))
            addr = draw(st.integers(0, 255)) * 4 \
                + draw(st.sampled_from((0, 0, 0, 1, 2)))
            control = (bit(), draw(st.integers(0, 2)),
                       draw(st.integers(0, 7)))
            owner = draw(st.integers(0, 2))
        write, size, burst = control
        rows.append(
            (trans, addr, write, size, burst, bit(0.7),
             draw(st.sampled_from((0, 0, 0, 1, 2, 3))), owner,
             draw(st.integers(0, 2)),
             draw(st.sampled_from((0, 0, 0, 1, 2, 5))), bit(0.7))
            + vector(3) + vector(3) + (10_000 * index,))
    return rows


def _cut(rows, sizes):
    """*rows* as consecutive blocks of the given sizes (the last one
    takes the rest)."""
    blocks, start = [], 0
    for size in sizes:
        if start >= len(rows):
            break
        blocks.append(rows[start:start + size])
        start += size
    if start < len(rows):
        blocks.append(rows[start:])
    return blocks


class TestDriverEqualsRowByRowProperty:
    """The batch driver over arbitrary blocks ≡ ``_check`` row by row,
    with no simulator: every row a stateful rule's visit mask drops
    must leave that rule's state unchanged and emit nothing."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=recorded_rows(),
           sizes=st.lists(st.integers(1, 12), max_size=8))
    def test_blocks_match_rows(self, rows, sizes):
        reference, _ = _engine()
        engine, batch = _engine()
        for block in _cut(rows, sizes):
            self._visits_drop_nothing(reference, block)
            for row in block:
                reference._check(row)
            batch._rows.extend(block)
            batch.flush()
            assert engine.state_dict() == reference.state_dict()
            assert engine._prev == reference._prev
        assert batch.rows_replayed == len(rows)

    def test_first_cycle_has_no_previous_row(self):
        # An unaligned SEQ answered by a one-cycle ERROR: of the rules
        # that compare with the previous cycle, only the two-cycle
        # response fires when there is none.
        row = ((3, 0x11, 0, 2, 1, 1, 1, 1, 0, 0, 1)
               + (1, 0, 0) + (0, 1, 0) + (0,))
        reference, _ = _engine()
        reference._check(row)
        engine, batch = _engine()
        batch._rows.append(row)
        batch.flush()
        for checked in (reference, engine):
            assert [v.rule for v in checked.violations] == \
                ["alignment", "two-cycle-response"]
        assert engine.state_dict() == reference.state_dict()

    @staticmethod
    def _visits_drop_nothing(reference, block):
        """Step a copy of each stateful rule over *block* from the
        reference's state; rows outside its visit mask are no-ops."""
        prev = reference._prev
        first = block[0] if prev is None else prev
        arr = np.array([first] + block, dtype=np.int64).T
        has_prev = np.ones(len(block), dtype=bool)
        has_prev[0] = prev is not None
        for rule in reference.rules:
            if not isinstance(rule, RowStep):
                continue
            rule = copy.deepcopy(rule)
            visits = rule.visits(arr[:, 1:], arr[:, :-1], has_prev)
            for index, row in enumerate(block):
                before = rule.state_dict()
                found = list(rule.step(row, block[index - 1] if index
                                       else first,
                                       bool(index) or prev is not None))
                if not visits[index]:
                    assert found == [], (type(rule).__name__, index)
                    assert rule.state_dict() == before, \
                        (type(rule).__name__, index)


if __name__ == "__main__":
    pins = {rule_id: _json(observe(rule_id)[1]["violations"])
            for rule_id in PINNED}
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
