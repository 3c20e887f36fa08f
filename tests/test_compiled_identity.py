"""Bit-identity oracle for the compiled engine.

The compiled engine's whole value rests on one claim: for any run the
interpreted kernel can execute, compiling first changes *nothing* —
not the state digest, not the energy ledger down to the last bit, not
the outcome fingerprint.  These tests attack that claim from several
directions: the paper testbench directly, the monitor batch's NumPy
and pure-Python replay paths, flush-cap boundaries, the live-monitor
slot used when batching is ineligible, checkpointed digest streams,
and a Hypothesis sweep over scenarios, fault schedules and seeds that
also holds the batched compliance checker to the per-cycle one.
"""

import pytest

from repro.amba.transactions import reset_txn_ids
from repro.compiled import compile_system
from repro.kernel import us
from repro.replay import FaultEntry, campaign_spec, execute
from repro.state import CheckpointPlan
from repro.workloads import build_paper_testbench

DURATION_US = 20          # 2000 cycles at 100 MHz — enough to split,
                          # retry and hand the bus over many times


def _run_paper(setup=None, seed=1, duration_us=DURATION_US):
    """Build the paper testbench, optionally compile, run, and return
    ``(digest, ledger_state, engine)``.

    ``setup`` receives the elaborated testbench and returns the engine
    (or None for an interpreted run).  The process-global transaction
    id counter is reset first so back-to-back builds in one process
    stay comparable.
    """
    reset_txn_ids()
    testbench = build_paper_testbench(seed=seed, checker=False)
    engine = setup(testbench) if setup is not None else None
    testbench.sim.run(until=us(duration_us))
    return (testbench.snapshot().digest,
            testbench.ledger.state_dict(), engine)


class TestPaperTestbenchIdentity:
    def test_compiled_digest_and_ledger_match_interpreted(self):
        digest, ledger, _ = _run_paper()
        c_digest, c_ledger, engine = _run_paper(compile_system)
        assert engine.runs_compiled > 0, engine.fallback_reason
        assert c_digest == digest
        assert c_ledger == ledger

    def test_python_flush_fallback_matches_numpy(self, monkeypatch):
        # _flush_py is the reference replay; the OverflowError path
        # (values beyond int64) must land on identical state.
        digest, ledger, _ = _run_paper(compile_system)

        from repro.compiled.monitor_batch import MonitorBatch

        def _overflow(self, arr):
            raise OverflowError("forced: exercise the python replay")

        monkeypatch.setattr(MonitorBatch, "_flush_np", _overflow)
        p_digest, p_ledger, engine = _run_paper(compile_system)
        assert engine.runs_compiled > 0, engine.fallback_reason
        assert p_digest == digest
        assert p_ledger == ledger

    def test_flush_cap_boundaries_are_invisible(self, monkeypatch):
        # A tiny cap forces many mid-run flushes; replayed state must
        # not depend on where the batch was cut.
        digest, ledger, _ = _run_paper(compile_system)

        from repro.compiled import monitor_batch
        monkeypatch.setattr(monitor_batch, "_FLUSH_ROWS", 32)
        c_digest, c_ledger, engine = _run_paper(compile_system)
        assert engine.batch is not None
        assert c_digest == digest
        assert c_ledger == ledger

    def test_live_monitor_slot_when_not_batchable(self, monkeypatch):
        # Batch-ineligible monitors keep their live per-cycle method
        # inside the emitted edge function; results are identical,
        # just slower.
        digest, ledger, _ = _run_paper()

        from repro.compiled import engine as engine_mod
        monkeypatch.setattr(engine_mod, "batchable", lambda m: False)
        c_digest, c_ledger, engine = _run_paper(compile_system)
        assert engine.batch is None
        assert engine.runs_compiled > 0, engine.fallback_reason
        assert c_digest == digest
        assert c_ledger == ledger


class TestReplayEngineIdentity:
    def test_checkpoint_digest_streams_match(self):
        spec = campaign_spec("portable-audio-player",
                             fault="always-retry", seed=5,
                             duration_us=4.0)
        _, interpreted = execute(
            spec, checkpoint=CheckpointPlan(interval_cycles=100))
        _, compiled = execute(
            spec.replace(engine="compiled"),
            checkpoint=CheckpointPlan(interval_cycles=100))
        assert compiled.outcome == interpreted.outcome
        assert interpreted.digests["entries"]
        assert compiled.digests == interpreted.digests
        assert compiled.fingerprint() == interpreted.fingerprint()


class TestInvalidCycleIdentity:
    """A cycle the live monitor rejects crashes identically everywhere.

    A one-cycle glitch of ``hresp`` to 7 makes the monitor raise once
    the ledger holds 101 cycles.  The compiled recorder must flush and hand that
    cycle to the live step, so the outcome, its detail, the fingerprint
    and the torn monitor state equal the interpreted run's, whether the
    rows before it are replayed by NumPy or by the scalar step."""

    SPEC = campaign_spec("portable-audio-player", seed=3,
                         duration_us=3.0).replace(
        scenario_kwargs={"checker": False}, watchdog=False,
        faults=[FaultEntry.signal_fault("glitch", "hresp", value=7,
                                        cycles=1, start_ps=1_000_000)])

    def _observe(self, engine):
        system, outcome = execute(self.SPEC.replace(engine=engine))
        return (outcome.outcome, outcome.detail, outcome.fingerprint(),
                system.ledger.state_dict(), system.monitor.state_dict())

    def test_engines_and_replay_paths_agree(self, monkeypatch):
        interpreted = self._observe("interpreted")
        assert interpreted[0] == "crashed"
        assert "power_monitor.monitor" in interpreted[1]
        assert "7 is not a valid HRESP" in interpreted[1]
        assert interpreted[3]["cycles"] == 101
        assert self._observe("compiled") == interpreted

        from repro.compiled.monitor_batch import MonitorBatch

        def _overflow(self, arr):
            raise OverflowError("forced: exercise the scalar step")

        monkeypatch.setattr(MonitorBatch, "_flush_np", _overflow)
        assert self._observe("compiled") == interpreted


hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SCENARIOS = ("portable-audio-player", "wireless-modem",
             "portable-videogame")
BEHAVIOURAL = ("none", "always-retry", "hung-slave")


@st.composite
def run_specs(draw):
    spec = campaign_spec(
        draw(st.sampled_from(SCENARIOS)),
        fault=draw(st.sampled_from(BEHAVIOURAL)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        duration_us=draw(st.sampled_from((3.0, 4.0))),
    )
    if draw(st.booleans()):  # optional mid-run signal corruption
        start = draw(st.integers(min_value=0, max_value=2)) * 1_000_000
        kind = draw(st.sampled_from(("bit-flip", "stuck-at", "glitch")))
        signal = draw(st.sampled_from(("hrdata", "haddr", "htrans",
                                       "hburst", "hsize", "hresp")))
        # A beat moves 2**HSIZE bytes through the slaves' byte loops;
        # keep corrupted sizes within a word.
        wide = signal != "hsize"
        spec.faults = list(spec.faults) + [FaultEntry.signal_fault(
            kind, signal,
            bit=draw(st.integers(min_value=0, max_value=7 if wide else 1)),
            value=draw(st.integers(min_value=0,
                                   max_value=255 if wide else 3)),
            start_ps=start, end_ps=start + 2_000_000,
            probability=draw(st.sampled_from((0.1, 0.5, 1.0))),
        )]
    return spec


class TestCompiledEqualsInterpretedProperty:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow],
              derandomize=True)
    @given(spec=run_specs())
    def test_fingerprint_digest_and_ledger_match(self, spec):
        i_system, i_outcome = execute(spec)
        c_system, c_outcome = execute(spec.replace(engine="compiled"))

        assert c_outcome.fingerprint() == i_outcome.fingerprint()
        # The checker's full state — every violation with its snapshot,
        # counters and rule state — on crashed runs too.
        if i_system.checker is not None:
            assert (c_system.checker.state_dict()
                    == i_system.checker.state_dict())
        # Crashed/hung runs can stop mid-delta, where snapshot() is
        # not defined to be quiescent; the fingerprint (which embeds
        # exact energy totals) is the oracle there.
        if i_outcome.outcome == "ok":
            assert (c_system.snapshot().digest
                    == i_system.snapshot().digest)
        if i_system.ledger is not None and c_system.ledger is not None:
            assert (c_system.ledger.state_dict()
                    == i_system.ledger.state_dict())
