"""Fault-injection campaign runner.

A campaign takes named SoC scenarios (from
:mod:`repro.workloads.scenarios`), runs each one fault-free to obtain
an energy/throughput baseline, then re-runs it under every requested
behavioural fault mode with the resilience stack armed (bounded-retry
masters plus a recovering :class:`~repro.amba.AhbWatchdog`).  Each run
is classified by outcome and annotated with the *energy cost of the
fault*: the ledger's non-OKAY response energy (direct retry/error cycle
cost) and the change in energy-per-completed-transaction against the
fault-free baseline — the system-level "price of resilience" that the
paper's methodology makes measurable.

Outcomes
--------
``completed``
    No failed transactions and no watchdog events: the fault never
    bit (or the mode was a no-op for this workload).
``recovered``
    The watchdog detected a hazard and its recovery action succeeded;
    the workload kept making progress afterwards.
``degraded``
    Transactions failed (bus errors / exhausted retry budgets) but the
    system needed no watchdog rescue and kept running.
``hung``
    A hazard was detected (or the bus ended the run stalled) and no
    recovery succeeded — what a system without the watchdog would be
    left with.
``crashed``
    The simulator raised; the exception text (plus full traceback and
    a replayable :class:`~repro.replay.RunSpec`) is captured in the
    result instead of propagating out of the campaign.
``timeout``
    The run exceeded its wall-clock deadline: the kernel's cooperative
    budget expired (in-process execution) or the supervisor killed a
    worker that blew through its deadline (parallel execution).
``worker-crashed``
    The worker process executing the run died unexpectedly (segfault,
    OOM-kill) and the executor could not or would not retry it.
``quarantined``
    The run killed its worker repeatedly; instead of retrying forever
    its shrink-ready ``RunSpec`` was written to disk and the run was
    set aside so the rest of the campaign could finish.

The last three outcomes are produced by the supervised executor in
:mod:`repro.exec`; plain serial campaigns can still yield ``timeout``
via the kernel's cooperative wall-clock budget.
"""

from __future__ import annotations

import hashlib

from ..analysis.tables import TextTable, format_energy
from .modes import AlwaysRetrySlave, HangSlave, UnreleasedSplitSlave

#: Outcomes that mean the resilience stack contained the fault.
CONTAINED_OUTCOMES = ("completed", "recovered", "degraded")

#: Outcomes that gate a campaign (CLI exits non-zero on any of them).
FAILURE_OUTCOMES = ("hung", "crashed", "timeout", "worker-crashed",
                    "quarantined")

#: Behavioural fault modes a campaign can inject, name → slave class.
#: Every class accepts ``trigger_after`` plus the stock
#: :class:`~repro.amba.MemorySlave` keyword arguments.
FAULT_MODES = {
    "always-retry": AlwaysRetrySlave,
    "hung-slave": HangSlave,
    "unreleased-split": UnreleasedSplitSlave,
}


def fault_slave_factory(mode, trigger_after=0):
    """A ``slave_overrides`` factory injecting fault *mode*.

    Returns a callable with the :class:`~repro.workloads.AhbSystem`
    override signature that builds the misbehaving slave.
    """
    try:
        cls = FAULT_MODES[mode]
    except KeyError:
        raise KeyError(
            "unknown fault mode %r (available: %s)"
            % (mode, ", ".join(sorted(FAULT_MODES)))
        ) from None

    def factory(sim, name, clk, port, bus, **kwargs):
        return cls(sim, name, clk, port, bus,
                   trigger_after=trigger_after, **kwargs)

    return factory


def derive_run_seed(base_seed, scenario, fault, slave_index=0):
    """Deterministic per-run seed for one campaign cell.

    Derived by hashing ``(base_seed, scenario, fault, slave_index)``
    (SHA-256, so it is stable across processes and interpreter
    ``PYTHONHASHSEED`` values) instead of sharing one seed positionally
    across the campaign: every run's stimulus is then a function of its
    own identity, and campaign results are invariant under parallel,
    reordered or resumed execution.
    """
    tag = "%r|%s|%s|%d" % (base_seed, scenario, fault, slave_index)
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFF_FFFF


class CampaignRun:
    """One enumerated campaign cell: identity plus its ``RunSpec``."""

    __slots__ = ("run_id", "scenario", "fault", "spec")

    def __init__(self, run_id, scenario, fault, spec):
        self.run_id = run_id
        self.scenario = scenario
        self.fault = fault
        self.spec = spec

    def __repr__(self):
        return "CampaignRun(%s)" % self.run_id


def _from_fingerprint(key, read=lambda value: value or 0):
    """A result attribute read through *read* from field *key* of the
    run's fingerprint (absent if the run never produced one).
    Assigning the attribute rewrites that field."""

    def set_(result, value):
        result.fingerprint = dict(result.fingerprint or {}, **{key: value})

    return property(
        lambda result: read((result.fingerprint or {}).get(key)), set_)


def _from_spec(key, default):
    """A result attribute read from field *key* of the run's spec."""
    return property(lambda result: (result.spec or {}).get(key, default))


class FaultRunResult:
    """Outcome and metrics of one (scenario, fault mode) run: the
    campaign fields plus the run's :class:`~repro.replay.RunOutcome`
    fingerprint, from which the counters and energies are read."""

    completed = _from_fingerprint("completed")
    failed = _from_fingerprint("failed")
    aborted = _from_fingerprint("aborted")
    watchdog_events = _from_fingerprint("watchdog_events")
    recoveries = _from_fingerprint("recoveries")
    violations = _from_fingerprint("violations")
    #: Compliance-rule ids that fired during the run, in
    #: first-occurrence order.
    rules_tripped = _from_fingerprint("rules_tripped",
                                      lambda value: tuple(value or ()))
    #: True when no *mandatory* rule fired — the injected fault and
    #: every watchdog recovery action stayed spec-legal traffic.
    recovery_compliant = _from_fingerprint(
        "recovery_compliant", lambda value: value is None or bool(value))
    total_energy = _from_fingerprint("total_energy_j",
                                     lambda value: value or 0.0)
    overhead_energy = _from_fingerprint("overhead_energy_j",
                                        lambda value: value or 0.0)
    #: Execution tier the run used (``"cycle"`` or ``"tlm"``).
    tier = _from_spec("tier", "cycle")
    #: Kernel engine a cycle-tier run requested.
    engine = _from_spec("engine", "interpreted")

    def __init__(self, scenario, fault, outcome, detail="",
                 traceback=None, spec=None, fingerprint=None,
                 attempts=1, wall_time_s=0.0, metrics=None,
                 coverage=None, baseline_energy_per_txn=0.0):
        self.scenario = scenario
        self.fault = fault
        self.outcome = outcome
        self.detail = detail
        #: Full traceback of a ``crashed`` run (None otherwise).
        self.traceback = traceback
        #: The run's :class:`~repro.replay.RunSpec` as a dict, so the
        #: result alone is enough to re-execute or shrink the run.
        self.spec = spec
        #: The run's :class:`~repro.replay.RunOutcome` fingerprint
        #: dict (None for runs that never produced one, e.g.
        #: ``quarantined``).
        self.fingerprint = fingerprint
        #: Dispatch attempts the supervised executor spent on the run.
        self.attempts = attempts
        #: Host wall-clock seconds the (final) attempt took.
        self.wall_time_s = wall_time_s
        #: Per-run telemetry registry snapshot (see
        #: :func:`repro.telemetry.metrics_for_result`); None for
        #: results produced before the telemetry layer existed.
        self.metrics = metrics
        #: Sorted coverage keys observed by the fuzz probe (see
        #: :mod:`repro.fuzz.coverage`); None unless the run executed
        #: with coverage collection enabled.
        self.coverage = list(coverage) if coverage is not None else None
        #: Set by the campaign assembly from the fault-free run.
        self.baseline_energy_per_txn = baseline_energy_per_txn

    @property
    def run_id(self):
        """Stable campaign-wide identity of this cell."""
        return "%s/%s" % (self.scenario, self.fault)

    @property
    def energy_per_txn(self):
        """Total energy per successfully completed transaction."""
        ok_txns = self.completed - self.failed
        return self.total_energy / ok_txns if ok_txns else 0.0

    @property
    def energy_overhead_ratio(self):
        """Relative growth of energy per completed transaction."""
        if self.baseline_energy_per_txn <= 0:
            return 0.0
        return (self.energy_per_txn / self.baseline_energy_per_txn) - 1.0

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "fault": self.fault,
            "tier": self.tier,
            "engine": self.engine,
            "outcome": self.outcome,
            "completed": self.completed,
            "failed": self.failed,
            "aborted": self.aborted,
            "watchdog_events": self.watchdog_events,
            "recoveries": self.recoveries,
            "violations": self.violations,
            "rules_tripped": list(self.rules_tripped),
            "recovery_compliant": self.recovery_compliant,
            "total_energy_j": self.total_energy,
            "overhead_energy_j": self.overhead_energy,
            "energy_per_txn_j": self.energy_per_txn,
            "baseline_energy_per_txn_j": self.baseline_energy_per_txn,
            "energy_overhead_ratio": self.energy_overhead_ratio,
            "detail": self.detail,
            "traceback": self.traceback,
            "spec": self.spec,
            "fingerprint": self.fingerprint,
            "attempts": self.attempts,
            "wall_time_s": self.wall_time_s,
            "metrics": self.metrics,
            "coverage": self.coverage,
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a result from :meth:`to_dict` output (journal
        resume path); derived keys are read from the fingerprint."""
        return cls(
            data["scenario"], data["fault"], data["outcome"],
            detail=data.get("detail", ""),
            traceback=data.get("traceback"), spec=data.get("spec"),
            fingerprint=data.get("fingerprint"),
            attempts=data.get("attempts", 1),
            wall_time_s=data.get("wall_time_s", 0.0),
            metrics=data.get("metrics"), coverage=data.get("coverage"),
            baseline_energy_per_txn=data.get(
                "baseline_energy_per_txn_j", 0.0),
        )

    def __repr__(self):
        return "FaultRunResult(%s/%s: %s)" % (
            self.scenario, self.fault, self.outcome,
        )


class CampaignResult:
    """All runs of one campaign, with a renderable report."""

    def __init__(self, runs, duration_us, jobs=1, wall_time_s=0.0,
                 interrupted=False, interrupt_signal=None, resumed=0,
                 degraded=False, journal=None):
        self.runs = list(runs)
        self.duration_us = duration_us
        #: Worker processes the campaign was dispatched across.
        self.jobs = jobs
        #: Host wall-clock seconds the whole campaign took.
        self.wall_time_s = wall_time_s
        #: True when the campaign was stopped early (SIGINT/SIGTERM
        #: drain); ``interrupt_signal`` is the stopping signal number.
        self.interrupted = interrupted
        self.interrupt_signal = interrupt_signal
        #: Runs restored from a journal instead of executed.
        self.resumed = resumed
        #: True when repeated pool failure forced the executor back to
        #: in-process serial execution.
        self.degraded = degraded
        #: Path of the campaign journal, if one was written.
        self.journal = journal

    @property
    def ok(self):
        """True when every run ended contained (no hang, crash,
        deadline blow-through or quarantine escaped the resilience
        stack) and the campaign was not interrupted."""
        return (not self.interrupted
                and all(run.outcome in CONTAINED_OUTCOMES
                        for run in self.runs))

    @property
    def failures(self):
        """Runs whose outcome gates the campaign."""
        return [run for run in self.runs
                if run.outcome in FAILURE_OUTCOMES]

    def metrics(self):
        """Campaign-level merged telemetry (see
        :func:`repro.telemetry.campaign_metrics`).

        The returned object's ``merged`` snapshot is the ``run_id``-
        ordered fold of every run's per-run snapshot — bit-identical
        whether the campaign ran serially, across ``--jobs N`` workers
        or resumed from a journal.  Wall-clock figures (throughput)
        live only in its summary.
        """
        from ..telemetry import campaign_metrics
        return campaign_metrics(self.runs, wall_time_s=self.wall_time_s,
                                jobs=self.jobs)

    def summary(self):
        """Human-readable campaign report table."""
        table = TextTable([
            "Scenario", "Fault", "Outcome", "OK txns", "Failed",
            "WD events", "Recoveries", "Rules tripped",
            "Fault-cycle energy", "Energy/txn vs baseline",
        ])
        for run in self.runs:
            rules = ", ".join(run.rules_tripped) or "-"
            if not run.recovery_compliant:
                rules += " [MANDATORY]"
            table.add_row([
                run.scenario,
                run.fault,
                run.outcome,
                run.completed - run.failed,
                run.failed,
                run.watchdog_events,
                run.recoveries,
                rules,
                format_energy(run.overhead_energy),
                "%+.1f %%" % (100.0 * run.energy_overhead_ratio),
            ])
        return table

    def to_dict(self):
        return {
            "duration_us": self.duration_us,
            "ok": self.ok,
            "jobs": self.jobs,
            "wall_time_s": self.wall_time_s,
            "interrupted": self.interrupted,
            "interrupt_signal": self.interrupt_signal,
            "resumed": self.resumed,
            "degraded": self.degraded,
            "runs": [run.to_dict() for run in self.runs],
            "campaign_metrics": self.metrics().to_dict(),
        }


def _classify(system, error_text, timed_out=False):
    """Map a finished (or dead) system to a campaign outcome."""
    if timed_out:
        return "timeout"
    if error_text is not None:
        return "crashed"
    watchdog = system.watchdog
    failed = system.transactions_failed()
    events = len(watchdog.events) if watchdog is not None else 0
    recoveries = watchdog.recoveries if watchdog is not None else 0
    if events:
        # A momentary HREADY-low end-of-run snapshot is normal (the
        # middle of a two-cycle response); the reliable hang signal is
        # the watchdog detecting hazards it could not recover from.
        return "recovered" if recoveries else "hung"
    if failed:
        return "degraded"
    return "completed"


def result_from_execution(scenario, fault, system, outcome, spec=None,
                          wall_time_s=0.0, attempts=1):
    """Condense one executed ``(system, RunOutcome)`` pair into a
    :class:`FaultRunResult` (``baseline_energy_per_txn`` is filled in
    by the campaign assembly once the scenario baseline is known)."""
    watchdog = system.watchdog if system is not None else None
    detail = outcome.detail or "; ".join(
        event.rule for event in (watchdog.events if watchdog else [])[:4]
    )
    return FaultRunResult(
        scenario, fault, outcome.outcome, detail=detail,
        traceback=outcome.traceback_text,
        spec=spec.to_dict() if spec is not None else None,
        fingerprint=outcome.fingerprint(),
        attempts=attempts, wall_time_s=wall_time_s,
    )


def enumerate_campaign(scenarios, faults, seed=1, duration_us=20.0,
                       slave_index=0, trigger_after=16, retry_limit=8,
                       retry_backoff=2, hready_timeout=16,
                       retry_budget=6, split_timeout=64, recover=True,
                       check_protocol="record", tier="cycle",
                       engine="interpreted"):
    """Enumerate every campaign cell as a :class:`CampaignRun`.

    Each cell (the per-scenario fault-free baseline plus one run per
    fault mode) gets its own :func:`derive_run_seed`-derived seed and a
    fully self-contained :class:`~repro.replay.RunSpec`, so any
    executor — serial, process pool, or a resumed journal — produces
    bit-identical per-run results in any dispatch order.
    """
    from ..replay import campaign_spec  # deferred: replay imports us
    from ..workloads.scenarios import SCENARIOS

    runs = []
    for scenario in scenarios:
        if scenario not in SCENARIOS:
            # fail at enumeration time, not as N "crashed" runs later
            raise KeyError(
                "unknown scenario %r (available: %s)"
                % (scenario, ", ".join(sorted(SCENARIOS))))
        for fault in ("none",) + tuple(fault for fault in faults
                                       if fault != "none"):
            spec = campaign_spec(
                scenario, fault=fault,
                seed=derive_run_seed(seed, scenario, fault, slave_index),
                duration_us=duration_us, slave_index=slave_index,
                trigger_after=trigger_after, retry_limit=retry_limit,
                retry_backoff=retry_backoff,
                hready_timeout=hready_timeout,
                retry_budget=retry_budget, split_timeout=split_timeout,
                recover=recover, check_protocol=check_protocol,
                tier=tier, engine=engine,
            )
            runs.append(CampaignRun("%s/%s" % (scenario, fault),
                                    scenario, fault, spec))
    return runs


def run_fault_campaign(scenarios=("portable-audio-player",
                                  "wireless-modem"),
                       faults=("always-retry", "hung-slave"),
                       seed=1, duration_us=20.0, slave_index=0,
                       trigger_after=16, retry_limit=8, retry_backoff=2,
                       hready_timeout=16, retry_budget=6,
                       split_timeout=64, recover=True,
                       check_protocol="record", tier="cycle",
                       engine="interpreted", jobs=1,
                       timeout=None, journal=None, resume=False,
                       checkpoint_dir=None, checkpoint_interval=1000,
                       executor_config=None):
    """Run every (scenario, fault) combination and report.

    Parameters
    ----------
    scenarios, faults:
        Names from the scenario registry and :data:`FAULT_MODES`.
    slave_index, trigger_after:
        Which slave misbehaves, and after how many healthy transfers.
    retry_limit, retry_backoff:
        Master-side resilience (per-transaction retry budget, idle
        backoff after each RETRY).
    hready_timeout, retry_budget, split_timeout, recover:
        Watchdog configuration.  The default watchdog ``retry_budget``
        sits below the master ``retry_limit`` so retry storms are cut
        by the watchdog while the master budget remains the backstop.
    check_protocol:
        Severity of the per-run compliance engine (default
        ``"record"``: each result reports which rules tripped and
        whether recovery stayed spec-compliant without aborting the
        campaign).
    tier:
        Execution tier for every run: ``"cycle"`` (signal-accurate
        kernel simulation) or ``"tlm"`` (the calibrated
        transaction-level model in :mod:`repro.tlm`).  Seeds derive
        identically on both tiers, so the same campaign can be
        surveyed fast at transaction level and confirmed
        cycle-accurately.
    engine:
        Kernel engine for cycle-tier runs (``"interpreted"`` or
        ``"compiled"`` — see :class:`repro.replay.RunSpec.ENGINES`).
        Both engines produce bit-identical trajectories; the journal
        records the engine so resumed campaigns stay self-describing.
    jobs, timeout, journal, resume:
        Supervised-executor knobs (see :mod:`repro.exec`): worker
        process count (1 = in-process serial), per-run wall-clock
        deadline in host seconds, append-only JSONL journal path, and
        whether to skip runs already journalled as complete.
    checkpoint_dir, checkpoint_interval:
        With ``checkpoint_dir`` set, every run periodically checkpoints
        its full simulation state (every ``checkpoint_interval`` bus
        cycles) under ``checkpoint_dir/<run-id>/`` and a killed or
        timed-out attempt resumes from its newest checkpoint — see
        :mod:`repro.state` and docs/RESILIENCE.md §7.
    executor_config:
        A pre-built :class:`repro.exec.ExecutorConfig`; overrides the
        executor knobs above.

    Returns a :class:`CampaignResult`; per-run failures (simulator
    exceptions, deadline blow-throughs, dead or hung workers) are
    captured as run outcomes, never raised.
    """
    from ..exec import ExecutorConfig, execute_campaign

    runs = enumerate_campaign(
        scenarios, faults, seed=seed, duration_us=duration_us,
        slave_index=slave_index, trigger_after=trigger_after,
        retry_limit=retry_limit, retry_backoff=retry_backoff,
        hready_timeout=hready_timeout, retry_budget=retry_budget,
        split_timeout=split_timeout, recover=recover,
        check_protocol=check_protocol, tier=tier, engine=engine,
    )
    config = executor_config
    if config is None:
        config = ExecutorConfig(jobs=jobs, timeout=timeout,
                                journal=journal, resume=resume,
                                checkpoint_dir=checkpoint_dir,
                                checkpoint_interval=checkpoint_interval)
    report = execute_campaign(runs, config)
    ordered = [report.results[run.run_id] for run in runs
               if run.run_id in report.results]
    baselines = {result.scenario: result for result in ordered
                 if result.fault == "none"}
    for result in ordered:
        baseline = baselines.get(result.scenario)
        if baseline is not None:
            result.baseline_energy_per_txn = baseline.energy_per_txn
    return CampaignResult(
        ordered, duration_us, jobs=config.jobs,
        wall_time_s=report.wall_time_s, interrupted=report.interrupted,
        interrupt_signal=report.interrupt_signal,
        resumed=report.resumed, degraded=report.degraded,
        journal=config.journal,
    )
