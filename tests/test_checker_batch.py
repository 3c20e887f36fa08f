"""Batched compliance checking on the compiled engine ≡ the per-cycle
engine.

In ``record`` severity the compiled engine records the checked signals
every cycle and evaluates the rule catalogue over row blocks
(:mod:`repro.compiled.checker_batch`); the interpreted kernel runs the
per-cycle :class:`~repro.protocol.ComplianceEngine` and is the oracle.
These tests hold the batch to it:

* one deterministic run per rule id trips that rule identically on
  both engines, and two of the violation lists are pinned
  (``checker_pins.json``) to the values the per-cycle engine recorded
  before the batch existed;
* flush points (the row cap, checkpoint intervals cutting an open
  burst, a wait-state streak and a split episode) are invisible;
* a cycle the live rules raise on is diverted to the live method, and
  a per-rule ``raise`` override keeps the per-cycle path
  (``test_protocol_engine.py`` covers ``warn``, ``strict`` toggled
  between runs and custom rules on a compiled system).

Regenerate the pins (``PYTHONPATH=src python
tests/test_checker_batch.py``) only for an intended change to a rule.
"""

import json
import os

import pytest

from repro.compiled import rowbatch
from repro.kernel import FaultInjector, ProcessError, us
from repro.protocol.rules import (
    BurstSequenceRule,
    SplitReleaseRule,
    WaitLimitRule,
)
from repro.replay import FaultEntry, campaign_spec, execute
from repro.state import CheckpointPlan, run_with_checkpoints

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
    """The compiled engine's batch for the system's checker."""
    (batch,) = system.sim.scheduler.checker_batches
    assert batch.owner is system.checker
    return batch


def observe(rule_id, engine="interpreted"):
    """Everything the two engines must agree on for *rule_id*'s run."""
    spec, instrument = RULE_RUNS[rule_id]
    system, outcome = execute(spec.replace(engine=engine),
                              instrument=instrument)
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
        _, interpreted = observe(rule_id)
        assert interpreted["rule_counts"].get(rule_id, 0) >= 1
        system, compiled = observe(rule_id, "compiled")
        assert system.sim.scheduler.runs_compiled > 0
        assert _checker_batch(system).rows_replayed > 0
        assert compiled == interpreted

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
        assert "batched_checker=True" in repr(system.sim.scheduler)


if __name__ == "__main__":
    pins = {rule_id: _json(observe(rule_id)[1]["violations"])
            for rule_id in PINNED}
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
