"""Campaign aggregation tests: per-run recording, merge determinism,
and serial vs parallel bit-identity."""

import json

import pytest

from repro.faults import FaultRunResult, run_fault_campaign
from repro.telemetry import (
    CampaignMetrics,
    campaign_metrics,
    metrics_for_result,
    metrics_table,
    record_run_metrics,
)
from repro.telemetry.registry import MetricsRegistry


def make_result(scenario="s", fault="f", outcome="completed", **kwargs):
    defaults = dict(completed=10, failed=1, watchdog_events=2,
                    recoveries=1, violations=3, total_energy=2e-9,
                    overhead_energy=5e-10)
    defaults.update(kwargs)
    result = FaultRunResult(scenario, fault, outcome)
    for name, value in defaults.items():
        setattr(result, name, value)
    return result


class TestRecording:
    def test_records_deterministic_quantities(self):
        snapshot = metrics_for_result(make_result())
        counters = snapshot["counters"]
        key = "scenario=s,fault=f"  # declared label order
        assert counters["campaign_runs_total"]["series"][
            key + ",outcome=completed"] == 1.0
        assert counters["campaign_txns_completed_total"]["series"][
            key] == 10.0
        assert counters["campaign_energy_j_total"]["series"][
            key] == pytest.approx(2e-9)
        histograms = snapshot["histograms"]
        assert histograms["campaign_run_energy_j"]["series"][
            key]["count"] == 1

    def test_wall_clock_excluded(self):
        fast = metrics_for_result(make_result(wall_time_s=0.01))
        slow = metrics_for_result(make_result(wall_time_s=99.0))
        assert fast == slow

    def test_same_recorder_for_synthesized_results(self):
        """Supervisor-made results (hard-kill timeout, quarantine)
        yield the same snapshot shape as worker-recorded ones."""
        registry = MetricsRegistry()
        record_run_metrics(registry, make_result(
            outcome="quarantined", completed=0, total_energy=0.0))
        snapshot = registry.snapshot()
        assert snapshot["counters"]["campaign_runs_total"]["series"][
            "scenario=s,fault=f,outcome=quarantined"] == 1.0


class TestCampaignMetrics:
    def _results(self):
        return [
            make_result("a", "none"),
            make_result("a", "retry", outcome="recovered"),
            make_result("b", "none", outcome="timeout"),
            make_result("b", "retry", outcome="quarantined"),
        ]

    def test_outcome_rates(self):
        metrics = campaign_metrics(self._results(), wall_time_s=2.0,
                                   jobs=2)
        assert metrics.runs_total == 4
        assert metrics.timeout_rate == 0.25
        assert metrics.quarantine_rate == 0.25
        assert metrics.throughput_runs_per_s == pytest.approx(2.0)

    def test_merge_order_independent_of_input_order(self):
        results = self._results()
        forward = campaign_metrics(results).merged
        backward = campaign_metrics(list(reversed(results))).merged
        assert forward == backward

    def test_attached_snapshots_preferred(self):
        result = make_result()
        result.metrics = metrics_for_result(result)
        # mutating the result after attaching must not change the
        # merged metrics: the snapshot is authoritative
        result.completed = 999
        merged = campaign_metrics([result]).merged
        assert merged["counters"]["campaign_txns_completed_total"][
            "series"]["scenario=s,fault=f"] == 10.0

    def test_to_dict_and_summary_table(self):
        metrics = campaign_metrics(self._results(), wall_time_s=1.0)
        data = metrics.to_dict()
        assert set(data) == {"merged", "summary"}
        assert data["summary"]["runs_total"] == 4
        assert isinstance(metrics, CampaignMetrics)
        rendered = metrics.summary_table().format()
        assert "Timeout rate" in rendered
        table = metrics_table(metrics.merged).format()
        assert "campaign_runs_total" in table


class TestSerialVsParallel:
    def test_jobs2_merged_metrics_bit_identical(self):
        """ISSUE 4 acceptance: a ``--jobs 2`` campaign's merged
        metrics equal the serial run's bit-for-bit."""
        kwargs = dict(
            scenarios=("portable-audio-player",),
            faults=("always-retry", "hung-slave"),
            seed=7, duration_us=5.0, timeout=120,
        )
        serial = run_fault_campaign(jobs=1, **kwargs)
        parallel = run_fault_campaign(jobs=2, **kwargs)
        serial_merged = serial.metrics().merged
        parallel_merged = parallel.metrics().merged
        assert json.dumps(serial_merged, sort_keys=True) \
            == json.dumps(parallel_merged, sort_keys=True)
        # and the per-run snapshots travelled through the worker
        # boundary (attached, not synthesized)
        assert all(run.metrics for run in parallel.runs)
