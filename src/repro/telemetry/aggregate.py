"""Campaign-level metric aggregation.

Per-run metrics are recorded by :func:`record_run_metrics` from the
**deterministic** quantities of a :class:`~repro.faults.FaultRunResult`
— simulated energy, transaction counts, outcomes — never host wall
time, so the snapshot a worker attaches to its result is a pure
function of the run's ``RunSpec``.  The supervisor folds worker
snapshots with :func:`campaign_metrics` in ``run_id`` order
(synthesizing snapshots for supervisor-made results such as hard-kill
timeouts via the same recorder), which makes serial and ``--jobs N``
campaign aggregates bit-for-bit identical.

Wall-clock-derived figures (throughput, campaign wall time) live in
the :class:`CampaignMetrics` *summary*, deliberately outside the
mergeable snapshot.
"""

from __future__ import annotations

from ..analysis.tables import TextTable, format_energy
from .registry import (
    COUNT_BUCKETS,
    ENERGY_BUCKETS,
    MetricsRegistry,
    merge_snapshots,
)

_RUN_LABELS = ("scenario", "fault")


def record_run_metrics(registry, result):
    """Record one run's deterministic metrics into *registry*.

    *result* is a :class:`~repro.faults.FaultRunResult` (or anything
    with the same attributes).  Only simulation-derived quantities are
    recorded; wall-clock fields are intentionally excluded so merged
    campaign metrics are reproducible across execution modes.
    """
    scenario, fault = result.scenario, result.fault
    registry.counter(
        "campaign_runs_total", "Campaign runs by outcome",
        labelnames=_RUN_LABELS + ("outcome",),
    ).labels(scenario=scenario, fault=fault,
             outcome=result.outcome).inc()
    # Additive tier counter: the per-run label set above is part of
    # the stable snapshot schema, so the execution tier is recorded as
    # its own series instead of widening every existing one.
    registry.counter(
        "campaign_tier_runs_total", "Campaign runs by execution tier",
        labelnames=_RUN_LABELS + ("tier",),
    ).labels(scenario=scenario, fault=fault, tier=result.tier).inc()
    for metric, help_text, value in (
        ("campaign_txns_completed_total",
         "Transactions completed", result.completed),
        ("campaign_txns_failed_total",
         "Transactions failed", result.failed),
        ("campaign_txns_aborted_total",
         "Transactions aborted by recovery", result.aborted),
        ("campaign_watchdog_events_total",
         "Watchdog hazard detections", result.watchdog_events),
        ("campaign_recoveries_total",
         "Successful watchdog recoveries", result.recoveries),
        ("campaign_violations_total",
         "Protocol-compliance violations", result.violations),
        ("campaign_energy_j_total",
         "Total simulated bus energy", result.total_energy),
        ("campaign_overhead_energy_j_total",
         "Energy of non-OKAY response cycles",
         result.overhead_energy),
    ):
        registry.counter(metric, help_text, labelnames=_RUN_LABELS) \
            .labels(scenario=scenario, fault=fault) \
            .inc(max(0.0, value))
    registry.histogram(
        "campaign_run_energy_j", "Per-run total energy",
        labelnames=_RUN_LABELS, buckets=ENERGY_BUCKETS,
    ).labels(scenario=scenario, fault=fault) \
        .observe(result.total_energy)
    registry.histogram(
        "campaign_violations_per_run",
        "Per-run compliance violations",
        labelnames=_RUN_LABELS, buckets=COUNT_BUCKETS,
    ).labels(scenario=scenario, fault=fault) \
        .observe(result.violations)
    return registry


def metrics_for_result(result):
    """A fresh per-run snapshot for *result*.

    The same recorder serves both sides of the process boundary: the
    exec worker attaches this snapshot to its result dict, and the
    supervisor synthesizes it for results the worker never produced
    (hard-kill timeouts, dead workers, quarantined runs).
    """
    return record_run_metrics(MetricsRegistry(), result).snapshot()


class CampaignMetrics:
    """Merged campaign metrics plus wall-clock summary figures."""

    def __init__(self, merged, outcomes, runs_total, wall_time_s=0.0,
                 jobs=1):
        #: The deterministic merged snapshot (bit-identical across
        #: serial / parallel / resumed execution of the same campaign).
        self.merged = merged
        #: ``outcome -> run count`` in sorted outcome order.
        self.outcomes = dict(sorted(outcomes.items()))
        self.runs_total = runs_total
        self.wall_time_s = wall_time_s
        self.jobs = jobs

    def _rate(self, outcome):
        if not self.runs_total:
            return 0.0
        return self.outcomes.get(outcome, 0) / self.runs_total

    @property
    def timeout_rate(self):
        return self._rate("timeout")

    @property
    def quarantine_rate(self):
        return self._rate("quarantined")

    @property
    def throughput_runs_per_s(self):
        """Campaign throughput (wall-clock; NOT part of ``merged``)."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.runs_total / self.wall_time_s

    def _counter_total(self, name):
        entry = self.merged.get("counters", {}).get(name)
        if entry is None:
            return 0.0
        return sum(entry["series"].values())

    def to_dict(self):
        return {
            "merged": self.merged,
            "summary": {
                "runs_total": self.runs_total,
                "outcomes": self.outcomes,
                "timeout_rate": self.timeout_rate,
                "quarantine_rate": self.quarantine_rate,
                "wall_time_s": self.wall_time_s,
                "jobs": self.jobs,
                "throughput_runs_per_s": self.throughput_runs_per_s,
            },
        }

    def summary_table(self):
        """Campaign-level headline figures as a renderable table."""
        table = TextTable(["Campaign metric", "Value"])
        table.add_row(["Runs", self.runs_total])
        table.add_row(["Outcomes", ", ".join(
            "%s=%d" % item for item in self.outcomes.items()) or "-"])
        table.add_row(["Timeout rate",
                       "%.1f %%" % (100.0 * self.timeout_rate)])
        table.add_row(["Quarantine rate",
                       "%.1f %%" % (100.0 * self.quarantine_rate)])
        table.add_row(["Throughput",
                       "%.2f runs/s (%d job%s)"
                       % (self.throughput_runs_per_s, self.jobs,
                          "" if self.jobs == 1 else "s")])
        table.add_row(["Total energy", format_energy(
            self._counter_total("campaign_energy_j_total"))])
        table.add_row(["Fault-cycle energy", format_energy(
            self._counter_total("campaign_overhead_energy_j_total"))])
        table.add_row(["Violations", "%d" % self._counter_total(
            "campaign_violations_total")])
        return table


def campaign_metrics(results, wall_time_s=0.0, jobs=1):
    """Fold per-run results into one :class:`CampaignMetrics`.

    Results are sorted by ``run_id`` before merging so the fold order —
    and therefore the merged snapshot — is independent of dispatch
    order, worker count and journal resume.
    """
    ordered = sorted(results, key=lambda result: result.run_id)
    snapshots = []
    outcomes = {}
    for result in ordered:
        snapshot = getattr(result, "metrics", None)
        if not snapshot:
            snapshot = metrics_for_result(result)
        snapshots.append(snapshot)
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
    return CampaignMetrics(
        merge_snapshots(snapshots), outcomes, len(ordered),
        wall_time_s=wall_time_s, jobs=jobs)


def metrics_table(snapshot):
    """Render a registry snapshot as a :class:`TextTable`.

    Histograms are condensed to ``count / mean``; counters and gauges
    print their raw series values.
    """
    table = TextTable(["Metric", "Kind", "Series", "Value"])
    for name, entry in snapshot.get("counters", {}).items():
        for key, value in entry["series"].items():
            table.add_row([name, "counter", key or "-",
                           _format_value(name, value)])
    for name, entry in snapshot.get("gauges", {}).items():
        for key, value in entry["series"].items():
            table.add_row([name, "gauge", key or "-",
                           _format_value(name, value)])
    for name, entry in snapshot.get("histograms", {}).items():
        for key, series in entry["series"].items():
            count = series["count"]
            mean = series["sum"] / count if count else 0.0
            table.add_row([
                name, "histogram", key or "-",
                "n=%d mean=%s" % (count, _format_value(name, mean)),
            ])
    return table


def _format_value(name, value):
    if "_j" in name or name.endswith("_j_total"):
        return format_energy(value)
    if "seconds" in name:
        return "%.6f s" % value
    if value == int(value):
        return "%d" % int(value)
    return "%.4g" % value
