"""The fuzz coverage probe on the record/replay batches.

A probed run on either engine records the power monitor and the bus
coverage monitor and replays them in blocks: the power hook takes each
replayed block's mode codes, the bus monitor is a batch kind of its
own.  The contract is identity with the per-cycle probe (kept live here
by a no-op kernel observer): the same coverage keys and the same
checkpointed probe state, on healthy runs, past the row cap, through
out-of-range codes the live methods must see, across a warm-start
restore, and for Hypothesis-generated specs.  A probe chained to a
telemetry tracer batches too.  With no simulator, the
bus monitor's block replay is held to ``_observe`` row by row on random
in-guard rows cut into random blocks.
"""

import gc
import weakref

import pytest

from repro.amba import AhbBus, AhbConfig
from repro.kernel import Clock, MHz, Simulator
from repro.protocol.checker_batch import CheckerBatch
from repro.power.monitor_batch import MonitorBatch
from repro.fuzz.coverage import (
    CoverageProbe,
    _BusCoverageBatch,
    _BusCoverageMonitor,
)
from repro.fuzz.warmstart import WarmStartCache
from repro.power.monitors import GlobalPowerMonitor
from repro.replay import FaultEntry, campaign_spec, execute
from repro.telemetry import Telemetry
from tests.conftest import NoOpObserver as _NoOpObserver

ENGINES = ("interpreted", "compiled")


def _batch(sim, kind):
    return next((batch for batch in sim.batches
                 if isinstance(batch, kind)), None)


@pytest.fixture
def live_calls(monkeypatch):
    """Counts the per-cycle bodies of both probes' consumers: the
    power monitor's step and the bus monitor's observation (each live
    ``_on_clk`` calls one, and so does a scalar replay)."""
    calls = {"power": 0, "bus": 0}

    def counting(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(GlobalPowerMonitor, "_step",
                        counting("power", GlobalPowerMonitor._step))
    monkeypatch.setattr(_BusCoverageMonitor, "_observe",
                        counting("bus", _BusCoverageMonitor._observe))
    return calls


def probed(spec, per_cycle=False, extra=None, warm=None):
    """Execute *spec* with a coverage probe; return the observation
    that must not depend on the path, and the system."""
    probe = CoverageProbe()

    def instrument(system):
        if extra is not None:
            extra(system)
        probe.install(system)
        if per_cycle:
            system.sim.attach_observer(_NoOpObserver())

    system, outcome = execute(spec, instrument=instrument,
                              warm_start=warm)
    observed = (outcome.outcome, outcome.detail, outcome.fingerprint(),
                probe.state_dict(), probe.coverage_keys(system, outcome))
    return observed, system


def assert_identity(spec, **kwargs):
    """Per-cycle and batched probes agree on both engines; return the
    batched systems."""
    reference, live = probed(spec, per_cycle=True, **kwargs)
    for batch in live.sim.batches:
        assert batch.rows_replayed == batch.live_diverts == 0
    systems = []
    for engine in ENGINES:
        observed, system = probed(spec.replace(engine=engine), **kwargs)
        assert observed == reference
        systems.append(system)
    return systems


class TestBatchedProbe:
    def test_healthy_run_runs_no_probe_code_per_cycle(self, live_calls):
        spec = campaign_spec("portable-audio-player", "none", seed=3,
                             duration_us=5.0)
        reference, live = probed(spec, per_cycle=True)
        cycles = live.clk.cycles
        assert live_calls == {"power": cycles, "bus": cycles}
        assert any(key.startswith("power:") for key in reference[4])
        assert any(key.startswith("bus:") for key in reference[4])
        for engine in ENGINES:
            live_calls.update(power=0, bus=0)
            observed, system = probed(spec.replace(engine=engine))
            assert observed == reference
            assert live_calls == {"power": 0, "bus": 0}
            for kind in (MonitorBatch, _BusCoverageBatch):
                batch = _batch(system.sim, kind)
                assert batch.rows_replayed == system.clk.cycles
                assert batch.live_diverts == 0

    def test_runs_longer_than_the_row_cap(self):
        spec = campaign_spec("portable-videogame", "always-retry",
                             seed=7, duration_us=50.0)
        for system in assert_identity(spec):
            assert system.clk.cycles > 4096
            for kind in (MonitorBatch, _BusCoverageBatch):
                batch = _batch(system.sim, kind)
                assert batch.rows_replayed == system.clk.cycles

    @pytest.mark.parametrize("signal, bit, kwargs, diverted", (
        # an HRESP of 4..7: the compliance engine raises first
        ("hresp", 2, {}, CheckerBatch),
        # ... or, alone on the bus, the coverage monitor
        ("hresp", 2, {"checker": False, "power_analysis": False},
         _BusCoverageBatch),
        # an HBURST of 8..15 on idle cycles runs live without raising
        ("hburst", 3, {}, _BusCoverageBatch),
        # an HTRANS of 4..7: the arbiter raises before any consumer
        ("htrans", 2, {}, None),
    ))
    def test_out_of_range_codes_run_live(self, signal, bit, kwargs,
                                         diverted):
        spec = campaign_spec("portable-audio-player", "none", seed=3,
                             duration_us=3.0).replace(
            scenario_kwargs=kwargs)
        spec.faults = [FaultEntry.signal_fault(
            "stuck-at", signal, bit=bit, value=1, start_ps=1_000_000,
            end_ps=1_500_000, probability=0.5)]
        for system in assert_identity(spec):
            assert _batch(system.sim, _BusCoverageBatch).rows_replayed > 0
            if diverted is not None:
                assert _batch(system.sim, diverted).live_diverts > 0

    def test_restored_out_of_range_state_runs_live(self):
        # A stored HTRANS the live method raises on at its next change
        # keeps every cycle live until then.
        spec = campaign_spec("portable-audio-player", "none", seed=3,
                             duration_us=1.0)
        reference = None
        for per_cycle in (True, False):
            probe = CoverageProbe()

            def instrument(system):
                probe.install(system)
                # as a snapshot holding such a code restores it
                probe._monitor._prev_htrans = 5
                if per_cycle:
                    system.sim.attach_observer(_NoOpObserver())

            system, outcome = execute(spec, instrument=instrument)
            observed = (outcome.outcome, outcome.detail,
                        probe.state_dict())
            if reference is None:
                reference = observed
                assert "5 is not a valid HTRANS" in outcome.detail
            else:
                assert observed == reference
                batch = _batch(system.sim, _BusCoverageBatch)
                assert batch.live_diverts == 1

    def test_warm_start_restore(self, tmp_path):
        cache = WarmStartCache(str(tmp_path))
        spec = campaign_spec("portable-audio-player", "none", seed=3,
                             duration_us=10.0)
        spec.faults = [FaultEntry.signal_fault(
            "bit-flip", "hrdata", bit=3, start_ps=6_000_000,
            end_ps=8_000_000, probability=0.4)]
        cold, _ = probed(spec, per_cycle=True)
        for engine in ENGINES:
            run = spec.replace(engine=engine)
            producer, _ = probed(run, warm=cache.plan(run))
            consumer, system = probed(run, warm=cache.plan(run))
            assert producer == cold
            assert consumer == cold
            # the consumer restored the shared prefix and replayed the
            # rest
            for kind in (MonitorBatch, _BusCoverageBatch):
                rows = _batch(system.sim, kind).rows_replayed
                assert 0 < rows < system.clk.cycles

    def test_probe_chained_to_telemetry_batches_the_monitor(self):
        spec = campaign_spec("portable-audio-player", "none", seed=3,
                             duration_us=3.0)

        def telemetry(system):
            Telemetry(trace_kernel=False, trace_bus=False) \
                .instrument(system)

        for system in assert_identity(spec, extra=telemetry):
            for kind in (MonitorBatch, _BusCoverageBatch):
                batch = _batch(system.sim, kind)
                assert batch.rows_replayed == system.clk.cycles
                assert batch.live_diverts == 0


class TestSimulatorClose:
    def test_closed_design_is_freed_by_reference_counting(self):
        spec = campaign_spec("portable-audio-player", "none", seed=3,
                             duration_us=2.0)
        system, _ = execute(spec, instrument=CoverageProbe().install)
        parts = ((system, system.monitor, system.checker)
                 + tuple(system.masters) + tuple(system.slaves))
        refs = [weakref.ref(part) for part in parts]
        del parts
        enabled = gc.isenabled()
        gc.disable()
        try:
            system.sim.close()
            del system
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_closed_design_leaves_nothing_to_the_collector(self, engine):
        spec = campaign_spec("portable-audio-player", "none", seed=3,
                             duration_us=2.0).replace(engine=engine)
        execute(spec)  # first-use imports and caches
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            system, outcome = execute(spec)
            system.sim.close()
            del system, outcome
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                assert gc.collect() == 0
                assert gc.garbage == []
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
        finally:
            if enabled:
                gc.enable()


hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def probed_specs(draw):
    spec = campaign_spec(
        draw(st.sampled_from(("portable-audio-player", "wireless-modem",
                              "portable-videogame"))),
        fault=draw(st.sampled_from(("none", "always-retry",
                                    "hung-slave"))),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        duration_us=draw(st.sampled_from((2.0, 3.0))),
    )
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=2)) * 1_000_000
        spec.faults = list(spec.faults) + [FaultEntry.signal_fault(
            draw(st.sampled_from(("bit-flip", "stuck-at", "glitch"))),
            draw(st.sampled_from(("htrans", "hburst", "hresp",
                                  "hrdata", "haddr"))),
            bit=draw(st.integers(min_value=0, max_value=3)),
            value=draw(st.integers(min_value=0, max_value=9)),
            start_ps=start, end_ps=start + 1_000_000,
            probability=draw(st.sampled_from((0.1, 0.5, 1.0))),
        )]
    return spec


class TestBatchedProbeProperty:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow],
              derandomize=True)
    @given(spec=probed_specs())
    def test_keys_and_state_match_per_cycle(self, spec):
        for system in assert_identity(spec):
            batch = _batch(system.sim, _BusCoverageBatch)
            assert batch.rows_replayed + batch.live_diverts > 0


def _bus_monitor():
    """A coverage bus monitor on a bus that is never simulated, and its
    record/replay batch."""
    sim = Simulator()
    clk = Clock.from_frequency(sim, "clk", MHz(100))
    bus = AhbBus(sim, "ahb", clk, AhbConfig.with_uniform_map(
        n_masters=2, n_slaves=2, region_size=0x1000))
    monitor = _BusCoverageMonitor(sim, "cover", clk, bus, set())
    (batch,) = [batch for batch in sim.batches
                if isinstance(batch, _BusCoverageBatch)]
    return monitor, batch


class TestBusBatchEqualsObserveProperty:
    """The bus monitor's block replay ≡ ``_observe`` row by row, with
    no simulator, on rows inside the recorder's guards."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7),
                                   st.integers(0, 3)),
                         min_size=1, max_size=40),
           sizes=st.lists(st.integers(1, 12), max_size=8),
           prev=st.sampled_from((None, 0, 1, 2, 3)))
    def test_blocks_match_rows(self, rows, sizes, prev):
        reference, _ = _bus_monitor()
        monitor, batch = _bus_monitor()
        reference._prev_htrans = monitor._prev_htrans = prev
        start = 0
        for size in sizes + [len(rows)]:
            block = rows[start:start + size]
            if not block:
                break
            start += size
            for row in block:
                reference._observe(*row)
            assert batch.eligible()
            batch._rows.extend(block)
            batch.flush()
            assert monitor.keys == reference.keys
            assert monitor._prev_htrans == reference._prev_htrans
        assert batch.rows_replayed == len(rows)
