"""Bit-identity oracle for the compiled engine and for batching.

The compiled engine's whole value rests on one claim: for any run the
interpreted kernel can execute, compiling first changes *nothing* —
not the state digest, not the energy ledger down to the last bit, not
the outcome fingerprint.  The record/replay batches make the same
claim on both engines: a run whose power monitor and compliance
engine record rows and replay them in blocks ends in the state the
per-cycle methods reach (a kernel observer keeps them per-cycle).
These tests attack both claims from several directions: the paper
testbench directly, the monitor batch's NumPy and pure-Python replay
paths, flush-cap boundaries, the live-monitor slot used when batching
is ineligible, every exit path of an interpreted run, checkpointed
digest streams, and a Hypothesis sweep over scenarios, fault schedules
and seeds that holds interpreted-batched, interpreted-per-cycle and
compiled runs to one another.
"""

import itertools
import json
import os
import subprocess
import sys
import time
import types

import pytest

import repro
from repro.amba.transactions import reset_txn_ids
from repro.compiled import compile_simulator, compile_system
from repro.compiled.monitor_batch import MonitorBatch
from repro.kernel import Clock, Signal, ns, us
from repro.faults.campaign import CONTAINED_OUTCOMES
from repro.replay import FaultEntry, campaign_spec, execute
from repro.state import CheckpointPlan
from repro.workloads import build_paper_testbench

DURATION_US = 20          # 2000 cycles at 100 MHz — enough to split,
                          # retry and hand the bus over many times


def _monitor_batch(sim):
    """The power monitor's batch among *sim*'s batches, or None."""
    return next((batch for batch in sim.batches
                 if isinstance(batch, MonitorBatch)), None)


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
        # GlobalPowerMonitor._step is the reference replay; the
        # OverflowError path (values beyond int64) must land on
        # identical state.
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

        from repro.compiled import rowbatch
        monkeypatch.setattr(rowbatch, "_FLUSH_ROWS", 32)
        c_digest, c_ledger, engine = _run_paper(compile_system)
        assert _monitor_batch(engine.sim) is not None
        assert c_digest == digest
        assert c_ledger == ledger

    def test_stock_monitor_batches_without_being_named(self):
        # The engine finds the monitor by its live function, as it
        # finds compliance engines; compile_simulator takes no monitor.
        digest, ledger, _ = _run_paper()

        monitors = []

        def setup(testbench):
            monitors.append(testbench.monitor)
            return compile_simulator(testbench.sim, [testbench.clk])

        c_digest, c_ledger, engine = _run_paper(setup)
        batch = _monitor_batch(engine.sim)
        assert batch.owner is monitors[0]
        assert batch.rows_replayed > 0
        assert batch.live_diverts == 0
        assert c_digest == digest
        assert c_ledger == ledger

    def test_live_monitor_slot_when_not_batchable(self, monkeypatch):
        # Batch-ineligible monitors keep their live per-cycle method
        # inside the emitted edge function; results are identical,
        # just slower.
        digest, ledger, _ = _run_paper()

        from repro.compiled.rowbatch import RowBatch
        monkeypatch.setattr(RowBatch, "batchable",
                            classmethod(lambda cls, owner: False))
        c_digest, c_ledger, engine = _run_paper(compile_system)
        assert _monitor_batch(engine.sim) is None
        assert engine.runs_compiled > 0, engine.fallback_reason
        assert c_digest == digest
        assert c_ledger == ledger


class _NoOpObserver:
    """A kernel observer that records nothing.  Attaching one keeps
    every consumer on its per-cycle method on both engines."""

    def on_process(self, process, now, seconds):
        pass

    def on_settle(self, now, deltas):
        pass


def _per_cycle(system):
    """``execute`` instrument: force the live per-cycle path."""
    system.sim.attach_observer(_NoOpObserver())


def _rows(sim):
    """Rows each batch of *sim* replayed, by batch kind."""
    return {type(batch).__name__: batch.rows_replayed
            for batch in sim.batches}


def _consumer_state(testbench):
    return (testbench.monitor.state_dict(),
            testbench.checker.state_dict(),
            testbench.ledger.state_dict())


class TestInterpretedBatchIdentity:
    """The interpreted loop records and replays the power monitor and
    the compliance engine through the compiled engine's batches; every
    run must end where the per-cycle methods end."""

    def _paper(self, per_cycle):
        reset_txn_ids()
        testbench = build_paper_testbench(seed=1)   # checker: record
        if per_cycle:
            _per_cycle(testbench)
        return testbench

    @pytest.mark.parametrize("cap", (1, 7, 4096))
    def test_row_caps_are_invisible(self, monkeypatch, cap):
        live = self._paper(per_cycle=True)
        live.run(us(DURATION_US))

        from repro.compiled import rowbatch
        monkeypatch.setattr(rowbatch, "_FLUSH_ROWS", cap)
        batched = self._paper(per_cycle=False)
        batched.run(us(DURATION_US))

        cycles = batched.clk.cycles
        assert _rows(batched.sim) == {"MonitorBatch": cycles,
                                      "CheckerBatch": cycles}
        assert _rows(live.sim) == {"MonitorBatch": 0, "CheckerBatch": 0}
        assert _consumer_state(batched) == _consumer_state(live)
        assert batched.snapshot().digest == live.snapshot().digest

    @pytest.mark.parametrize("exit_path",
                             ("stop", "error", "interrupt", "deadline"))
    def test_every_exit_path_flushes_then_restores(self, monkeypatch,
                                                   exit_path):
        from repro.kernel import simulator

        observed = []
        for per_cycle in (True, False):
            testbench = self._paper(per_cycle)
            sim, clk = testbench.sim, testbench.clk

            def trip():
                if clk.cycles != 777:
                    return
                if exit_path == "stop":
                    sim.stop()
                elif exit_path == "error":
                    raise ValueError("tripped")
                elif exit_path == "interrupt":
                    raise KeyboardInterrupt

            sim.add_method(trip, [clk.posedge], name="trip",
                           initialize=False)
            budget = None
            if exit_path == "deadline":
                # a host clock that ticks once per read: the deadline
                # falls on the same time step in both runs
                ticks = itertools.count()
                clock = types.SimpleNamespace(
                    monotonic=lambda: next(ticks),
                    perf_counter=time.perf_counter)
                monkeypatch.setattr(simulator, "_time", clock)
                budget = 1500
            try:
                sim.run(until=us(DURATION_US), wall_clock_budget=budget)
                raised = None
            except (Exception, KeyboardInterrupt) as exc:
                raised = type(exc).__name__
            monkeypatch.undo()
            for batch in sim.batches:
                assert batch.process.fn is batch.live
                assert not batch._rows
            state = [raised, sim.now, clk.cycles,
                     _consumer_state(testbench)]
            if exit_path == "stop":
                sim.run(until=us(DURATION_US))
                state += [_consumer_state(testbench),
                          testbench.snapshot().digest]
            observed.append((state, _rows(sim)))

        (live, live_rows), (batched, batched_rows) = observed
        expected = {"stop": None, "error": "ProcessError",
                    "interrupt": "KeyboardInterrupt",
                    "deadline": "WallClockDeadlineError"}[exit_path]
        assert live[0] == expected
        assert 0 < live[2] < DURATION_US * 100
        assert batched == live
        assert live_rows == {"MonitorBatch": 0, "CheckerBatch": 0}
        assert set(batched_rows) == set(live_rows)
        assert 0 not in batched_rows.values()

    def test_checkpoint_digest_stream_matches_per_cycle(self):
        spec = campaign_spec("portable-audio-player",
                             fault="always-retry", seed=5,
                             duration_us=4.0)
        _, live = execute(spec, instrument=_per_cycle,
                          checkpoint=CheckpointPlan(interval_cycles=100))
        system, batched = execute(
            spec, checkpoint=CheckpointPlan(interval_cycles=100))
        rows = _rows(system.sim)
        assert set(rows) == {"MonitorBatch", "CheckerBatch"}
        assert 0 not in rows.values()
        assert batched.digests["entries"]
        assert batched.digests == live.digests
        assert batched.fingerprint() == live.fingerprint()


class TestCompiledBatchPaths:
    """On the compiled engine the recorders run wherever the process
    runs: in the emitted rising edge, in the multi-domain loop, on a
    generic edge and in the interpreted loop a run is handed to.  Each
    run below must batch both consumers and end where the per-cycle
    methods end, with every row replayed when ``run`` returns."""

    @staticmethod
    def _paper(per_cycle, extend=None):
        """The paper testbench (checker: record); *extend* adds to the
        design before it is compiled and returns the extra clocks."""
        reset_txn_ids()
        testbench = build_paper_testbench(seed=1)
        clocks = [testbench.clk]
        if extend is not None:
            clocks += extend(testbench)
        engine = None
        if per_cycle:
            _per_cycle(testbench)
        else:
            engine = compile_simulator(testbench.sim, clocks)
        testbench.run(us(DURATION_US))
        return testbench, engine

    @staticmethod
    def _observed(testbench):
        sim = testbench.sim
        return (_consumer_state(testbench), sim.delta_count, sim.now,
                testbench.clk.cycles, testbench.snapshot().digest)

    def _assert_batched_identity(self, extend):
        live, _ = self._paper(True, extend)
        batched, engine = self._paper(False, extend)
        assert engine.runs_compiled == 1, engine.fallback_reason
        assert engine.runs_declined == 0
        for batch in batched.sim.batches:
            assert batch.rows_replayed > 0
            assert batch.live_diverts == 0
            assert not batch._rows
            assert batch.process.fn is batch.live
        assert set(_rows(batched.sim)) == {"MonitorBatch",
                                           "CheckerBatch"}
        assert _rows(live.sim) == {"MonitorBatch": 0, "CheckerBatch": 0}
        assert self._observed(batched) == self._observed(live)
        return live, batched

    def test_multi_domain_run_batches(self):
        def second_domain(testbench):
            sim = testbench.sim
            clk2 = Clock(sim, "clk2", period=ns(27))
            count = Signal(sim, "count2", width=32)
            sim.add_method(lambda: count.write(count.value + 1),
                           [clk2.posedge], name="tick2",
                           initialize=False)
            testbench.count2 = count
            return [clk2]

        live, batched = self._assert_batched_identity(second_domain)
        assert batched.count2.value == live.count2.value > 0

    def test_hand_off_to_interpreted_loop_keeps_recording(self):
        def foreign_timer(testbench):
            sim, clk = testbench.sim, testbench.clk
            timer = sim.event("timer")

            def arm():
                if clk.cycles == 777:
                    timer.notify(ns(3))   # foreign timed activity
            sim.add_method(arm, [clk.posedge], name="arm",
                           initialize=False)
            handed = []
            run_interpreted = sim._run_interpreted

            def counted(*args):
                handed.append(sim.now)
                return run_interpreted(*args)
            sim._run_interpreted = counted
            testbench.handed = handed
            return []

        _, batched = self._assert_batched_identity(foreign_timer)
        # the compiled loop ran the first 777 cycles and handed the
        # rest to the interpreted loop; both recorded
        (at,) = batched.handed
        assert 0 < at < us(DURATION_US)

    def test_generic_edges_keep_recording(self):
        def clock_watcher(testbench):
            commits = []
            testbench.clk.signal.add_watcher(
                lambda signal, old, new: commits.append(new))
            testbench.commits = commits
            return []

        live, batched = self._assert_batched_identity(clock_watcher)
        # a watcher on the clock wire sends every edge to the generic
        # path, which commits the wire through the kernel
        assert len(batched.commits) == 2 * batched.clk.cycles
        assert batched.commits == live.commits


class TestBatchKindLoader:
    def test_first_interpreted_run_registers_both_kinds(self):
        # A fresh process: no other test has imported the batch
        # modules there, so only the loader that ``import repro``
        # installs can register their kinds.
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = (
            "import json, sys\n"
            "import repro\n"
            "system = repro.build_paper_testbench(seed=1)\n"
            "system.run(repro.us(2))\n"
            "print(json.dumps({\n"
            "    'rows': {type(batch).__name__: batch.rows_replayed\n"
            "             for batch in system.sim.batches},\n"
            "    'engine_imported': 'repro.compiled.engine' in sys.modules,\n"
            "}))\n")
        result = json.loads(subprocess.run(
            [sys.executable, "-c", child], env=env, check=True,
            capture_output=True, text=True, timeout=300).stdout)
        assert set(result["rows"]) == {"MonitorBatch", "CheckerBatch"}
        assert 0 not in result["rows"].values()
        # an interpreted run does not import the compiler
        assert result["engine_imported"] is False


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
    the ledger holds 101 cycles.  On either engine the recorder must
    flush and hand that cycle to the live step, so the outcome, its
    detail, the fingerprint and the torn monitor state equal the
    per-cycle run's, whether the rows before it are replayed by NumPy
    or by the scalar step."""

    SPEC = campaign_spec("portable-audio-player", seed=3,
                         duration_us=3.0).replace(
        scenario_kwargs={"checker": False}, watchdog=False,
        faults=[FaultEntry.signal_fault("glitch", "hresp", value=7,
                                        cycles=1, start_ps=1_000_000)])

    def _observe(self, engine, per_cycle=False):
        system, outcome = execute(self.SPEC.replace(engine=engine),
                                  instrument=_per_cycle if per_cycle
                                  else None)
        (batch,) = system.sim.batches
        assert isinstance(batch, MonitorBatch)
        if per_cycle:
            assert batch.rows_replayed == batch.live_diverts == 0
        else:
            # the glitched cycle ran live, the 100 before it replayed
            assert batch.live_diverts == 1
            assert batch.rows_replayed > 0
        return (outcome.outcome, outcome.detail, outcome.fingerprint(),
                system.ledger.state_dict(), system.monitor.state_dict())

    def test_engines_and_replay_paths_agree(self, monkeypatch):
        reference = self._observe("interpreted", per_cycle=True)
        assert reference[0] == "crashed"
        assert "power_monitor.monitor" in reference[1]
        assert "7 is not a valid HRESP" in reference[1]
        assert reference[3]["cycles"] == 101
        assert self._observe("interpreted") == reference
        assert self._observe("compiled") == reference

        def _overflow(self, arr):
            raise OverflowError("forced: exercise the scalar step")

        monkeypatch.setattr(MonitorBatch, "_flush_np", _overflow)
        assert self._observe("interpreted") == reference
        assert self._observe("compiled") == reference


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
        # The per-cycle reference: an observer keeps both consumers
        # live; interpreted-batched and compiled must both equal it.
        l_system, l_outcome = execute(spec, instrument=_per_cycle)
        assert set(_rows(l_system.sim).values()) <= {0}
        for engine in ("interpreted", "compiled"):
            system, outcome = execute(spec.replace(engine=engine))
            assert outcome.fingerprint() == l_outcome.fingerprint()
            # Every violation with its snapshot, counters and rule
            # state, and the monitor's full state — on crashed runs too.
            for part in ("checker", "monitor"):
                if getattr(l_system, part) is not None:
                    assert (getattr(system, part).state_dict()
                            == getattr(l_system, part).state_dict())
            # Crashed/hung runs can stop mid-delta, where snapshot() is
            # not defined to be quiescent; the fingerprint (which
            # embeds exact energy totals) is the oracle there.
            if l_outcome.outcome in CONTAINED_OUTCOMES:
                assert (system.snapshot().digest
                        == l_system.snapshot().digest)
            if l_system.ledger is not None:
                assert (system.ledger.state_dict()
                        == l_system.ledger.state_dict())
