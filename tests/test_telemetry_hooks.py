"""System instrumentation tests: hooks, behaviour neutrality, and the
disabled-telemetry overhead guard."""

import gc
import statistics
import time

import pytest

from repro.kernel import Clock, MHz, Signal, Simulator, ns, us
from repro.telemetry import (
    KernelTelemetry,
    MetricsRegistry,
    Telemetry,
    Tracer,
    validate_chrome_trace,
)
from repro.workloads import build_paper_testbench


def instrumented_testbench(duration_us=10, **kwargs):
    telemetry = Telemetry(**kwargs)
    system = build_paper_testbench(seed=3, telemetry=telemetry)
    system.run(us(duration_us))
    telemetry.finalize()
    return system, telemetry


class TestKernelObserver:
    def test_attach_detach(self):
        sim = Simulator()

        class Observer:
            def on_process(self, process, now, seconds):
                pass

            def on_settle(self, now, deltas):
                pass

        observer = Observer()
        sim.attach_observer(observer)
        assert sim.observer is observer
        with pytest.raises(Exception):
            sim.attach_observer(Observer())
        sim.detach_observer(observer)
        assert sim.observer is None
        sim.detach_observer(observer)  # idempotent

    def test_observer_sees_activations_and_settles(self):
        sim = Simulator()
        clk = Clock.from_frequency(sim, "clk", MHz(100))
        count = Signal(sim, "count", width=32)
        sim.add_method(lambda: count.write(count.value + 1),
                       [clk.posedge], initialize=False, name="counter")
        seen = {"processes": 0, "settles": 0, "deltas": 0}

        class Observer:
            def on_process(self, process, now, seconds):
                seen["processes"] += 1
                assert seconds >= 0

            def on_settle(self, now, deltas):
                seen["settles"] += 1
                seen["deltas"] += deltas

        sim.attach_observer(Observer())
        sim.run(until=us(1))
        assert seen["processes"] >= 100
        assert seen["settles"] >= 100
        assert seen["deltas"] >= seen["settles"]

    def test_detach_stops_counting_while_simulation_runs(self):
        sim = Simulator()
        clk = Clock.from_frequency(sim, "clk", MHz(100))
        count = Signal(sim, "count", width=32)
        sim.add_method(lambda: count.write(count.value + 1),
                       [clk.posedge], initialize=False, name="counter")
        registry = MetricsRegistry()
        observer = KernelTelemetry(Tracer(), registry)

        def activations():
            return registry.snapshot()["counters"][
                "sim_process_activations_total"]["series"][
                "process=counter"]

        sim.attach_observer(observer)
        sim.run(until=ns(100))
        sim.detach_observer(observer)
        assert activations() == 10
        sim.run(until=ns(200))
        assert activations() == 10
        assert count.value == 20  # still counting

    def test_power_monitor_among_costliest_processes(self):
        """Per-process kernel time singles out the power monitor on
        the paper testbench (the mechanics behind experiment E6)."""
        telemetry = Telemetry(trace_bus=False, trace_power=False)
        system = build_paper_testbench(seed=1, checker=False,
                                       telemetry=telemetry)
        system.run(us(10))
        seconds = telemetry.snapshot()["counters"][
            "sim_process_seconds_total"]["series"]
        hottest = sorted(seconds, key=seconds.get, reverse=True)[:5]
        assert any("power_monitor" in name for name in hottest)


class TestSystemInstrumentation:
    def test_tracks_cover_kernel_bus_and_power(self, tmp_path):
        _, telemetry = instrumented_testbench()
        pids = {event.pid for event in telemetry.tracer.events}
        assert {"kernel", "bus", "power"} <= pids
        path = str(tmp_path / "trace.json")
        telemetry.tracer.write_chrome(path)
        assert validate_chrome_trace(path) == []

    def test_metric_families_populated(self):
        system, telemetry = instrumented_testbench()
        snapshot = telemetry.snapshot()
        counters = snapshot["counters"]
        assert counters["sim_delta_cycles_total"]["series"][""] > 0
        assert sum(counters["bus_txns_total"]["series"].values()) \
            == system.transactions_completed()
        assert counters["power_cycles_total"]["series"][""] \
            == system.ledger.cycles
        energy = sum(
            counters["power_energy_j_total"]["series"].values())
        assert energy == pytest.approx(system.total_energy, rel=1e-9)
        gauges = snapshot["gauges"]
        assert gauges["run_txns_completed"]["series"][""] \
            == system.transactions_completed()

    def test_latency_histogram_counts_transactions(self):
        system, telemetry = instrumented_testbench()
        histogram = telemetry.snapshot()["histograms"][
            "bus_txn_latency_cycles"]
        observed = sum(series["count"]
                       for series in histogram["series"].values())
        assert observed == system.transactions_completed()

    def test_behaviour_not_modified_by_instrumentation(self):
        instrumented, _ = instrumented_testbench()
        plain = build_paper_testbench(seed=3)
        plain.run(us(10))
        assert instrumented.transactions_completed() \
            == plain.transactions_completed()
        assert instrumented.total_energy \
            == pytest.approx(plain.total_energy)
        assert instrumented.bus.arbiter.handover_count \
            == plain.bus.arbiter.handover_count

    def test_disabled_bundle_installs_nothing(self):
        telemetry = Telemetry.disabled()
        system = build_paper_testbench(seed=3, telemetry=telemetry)
        assert system.sim.observer is None
        assert system.monitor.fsm.tracer is None
        system.run(us(2))
        telemetry.finalize()
        assert len(telemetry.tracer) == 0
        assert telemetry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}

    def test_double_instrument_rejected(self):
        telemetry = Telemetry()
        build_paper_testbench(seed=3, telemetry=telemetry)
        with pytest.raises(RuntimeError):
            build_paper_testbench(seed=3, telemetry=telemetry)

    def test_signal_watching_counts_commits(self):
        telemetry = Telemetry(trace_signals=("htrans",),
                              trace_bus=False, trace_power=False)
        system = build_paper_testbench(seed=3, telemetry=telemetry)
        system.run(us(2))
        commits = telemetry.snapshot()["counters"][
            "sim_signal_commits_total"]["series"]
        assert commits.get("signal=ahb.HTRANS", 0) > 0


class TestOverheadGuard:
    def test_disabled_telemetry_under_5_percent(self):
        """A ``telemetry=None`` system must run within 5% of the PR-3
        baseline — the runtime POWERTEST claim (ISSUE 4 acceptance).

        Both arms run the identical code path (no hooks installed), so
        this guards against accidental always-on instrumentation costs
        leaking into the model.  A single run varies by 10-30 % on a
        shared host, whose cores switch between fast and slow spells,
        and the minimum of a few runs follows the rare fast ones; so
        the arms alternate over 40 rounds, each run starts from a
        collected heap, and the median of the rounds' disabled /
        baseline ratios is compared: a slow spell covering one round
        moves one ratio, not a total.
        """
        def run(telemetry):
            system = build_paper_testbench(seed=1, telemetry=telemetry)
            system.run(us(10))
            return system

        def timed(telemetry):
            gc.collect()
            start = time.perf_counter()
            run(telemetry)
            return time.perf_counter() - start

        run(None)  # warm caches
        ratios = []
        for index in range(40):
            # alternate which arm goes first so drift hits both alike
            if index % 2 == 0:
                baseline = timed(None)
                disabled = timed(Telemetry.disabled())
            else:
                disabled = timed(Telemetry.disabled())
                baseline = timed(None)
            ratios.append(disabled / baseline)
        ratio = statistics.median(ratios)
        assert ratio < 1.05, (
            "disabled telemetry costs %.1f%% (median of %d round "
            "ratios, quartiles %.3f-%.3f)"
            % (100 * (ratio - 1), len(ratios),
               *statistics.quantiles(ratios, n=4)[::2]))
