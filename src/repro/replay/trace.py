"""Deterministic run capture and bit-exact re-execution.

The kernel is a deterministic delta-cycle scheduler and every stimulus
source draws from a **seeded** RNG, so a run is fully determined by its
*provenance* — scenario name, seed, duration, resilience knobs and the
fault schedule — not by a signal log.  :class:`RunSpec` captures that
provenance as a JSON-able value; :func:`execute` rebuilds the system
from it and re-runs it on the kernel, reproducing every violation
cycle and every accumulated joule bit-exactly (Python floats
round-trip through JSON exactly, and energy accumulates in a fixed
order).

:class:`RunOutcome` condenses a finished run into a comparable
fingerprint; :class:`ReplayTrace` stores ``(spec, outcome)`` records in
a versioned JSON file so a failing campaign run can be shipped in a bug
report and replayed — or handed to :mod:`repro.replay.shrink` for
minimisation.
"""

from __future__ import annotations

import json
import traceback as _traceback

from ..amba.transactions import reset_txn_ids
from ..faults.campaign import _classify, fault_slave_factory
from ..kernel import FaultInjector, WallClockDeadlineError, us
from ..state import resume_latest, run_with_checkpoints
from ..workloads import build_scenario

#: Trace file format marker (bump on incompatible schema changes).
FORMAT = "repro-replay/1"

#: Signal-level fault kinds an entry may carry.
SIGNAL_KINDS = ("stuck-at", "bit-flip", "glitch")


class FaultEntry:
    """One schedulable fault: a behavioural mode or a signal corruption.

    Behavioural entries name a mode from
    :data:`repro.faults.FAULT_MODES`, the slave index it replaces and
    its ``trigger_after`` arming delay.  Signal entries name a bus
    signal by its :class:`~repro.amba.bus.AhbBus` attribute
    (``"htrans"``, ``"haddr"`` …) plus the kind-specific parameters of
    :mod:`repro.kernel.faults`.
    """

    __slots__ = ("kind", "mode", "slave", "trigger_after", "signal",
                 "bit", "value", "cycles", "start_ps", "end_ps",
                 "probability")

    def __init__(self, kind, mode=None, slave=0, trigger_after=0,
                 signal=None, bit=0, value=0, cycles=1, start_ps=0,
                 end_ps=None, probability=None):
        if kind != "behavioural" and kind not in SIGNAL_KINDS:
            raise ValueError("unknown fault kind %r" % kind)
        self.kind = kind
        self.mode = mode
        self.slave = slave
        self.trigger_after = trigger_after
        self.signal = signal
        self.bit = bit
        self.value = value
        self.cycles = cycles
        self.start_ps = start_ps
        self.end_ps = end_ps
        self.probability = probability

    @classmethod
    def behavioural(cls, mode, slave=0, trigger_after=0):
        """A broken-component fault (slave replacement)."""
        return cls("behavioural", mode=mode, slave=slave,
                   trigger_after=trigger_after)

    @classmethod
    def signal_fault(cls, kind, signal, bit=0, value=0, cycles=1,
                     start_ps=0, end_ps=None, probability=None):
        """A net-level corruption on bus signal attribute *signal*."""
        return cls(kind, signal=signal, bit=bit, value=value,
                   cycles=cycles, start_ps=start_ps, end_ps=end_ps,
                   probability=probability)

    def describe(self):
        """One-line human-readable label."""
        if self.kind == "behavioural":
            return "%s@slave%d(after=%d)" % (self.mode, self.slave,
                                             self.trigger_after)
        return "%s@%s[bit=%d]" % (self.kind, self.signal, self.bit)

    def to_dict(self):
        data = {"kind": self.kind}
        if self.kind == "behavioural":
            data.update(mode=self.mode, slave=self.slave,
                        trigger_after=self.trigger_after)
        else:
            data.update(signal=self.signal, bit=self.bit,
                        value=self.value, cycles=self.cycles,
                        start_ps=self.start_ps, end_ps=self.end_ps,
                        probability=self.probability)
        return data

    @classmethod
    def from_dict(cls, data):
        return cls(**data)

    def __repr__(self):
        return "FaultEntry(%s)" % self.describe()


class RunSpec:
    """The full provenance of one run — everything needed to rebuild
    and re-execute it bit-exactly on the kernel."""

    __slots__ = ("scenario", "seed", "duration_us", "faults",
                 "retry_limit", "retry_backoff", "watchdog",
                 "watchdog_kwargs", "check_protocol", "protocol_kwargs",
                 "injector_seed", "scenario_kwargs", "tier", "engine")

    #: Execution tiers a spec may name.
    TIERS = ("cycle", "tlm")

    #: Kernel engines a cycle-tier spec may request.  ``interpreted``
    #: is the delta-cycle kernel; ``compiled`` requires
    #: :mod:`repro.compiled` to accept the design (a
    #: ``CompileError`` becomes a ``crashed`` outcome).  Either engine
    #: produces the bit-identical trajectory, so the fingerprint
    #: contract is engine-independent.
    ENGINES = ("interpreted", "compiled")

    def __init__(self, scenario, seed=1, duration_us=20.0, faults=(),
                 retry_limit=8, retry_backoff=2, watchdog=True,
                 watchdog_kwargs=None, check_protocol="record",
                 protocol_kwargs=None, injector_seed=0,
                 scenario_kwargs=None, tier="cycle",
                 engine="interpreted"):
        if tier not in self.TIERS:
            raise ValueError("unknown execution tier %r (expected %s)"
                             % (tier, " or ".join(self.TIERS)))
        if engine not in self.ENGINES:
            raise ValueError("unknown engine %r (expected %s)"
                             % (engine, ", ".join(self.ENGINES)))
        self.tier = tier
        self.engine = engine
        self.scenario = scenario
        self.seed = seed
        self.duration_us = duration_us
        self.faults = [fault if isinstance(fault, FaultEntry)
                       else FaultEntry.from_dict(fault)
                       for fault in faults]
        self.retry_limit = retry_limit
        self.retry_backoff = retry_backoff
        self.watchdog = watchdog
        self.watchdog_kwargs = dict(watchdog_kwargs or {})
        self.check_protocol = check_protocol
        self.protocol_kwargs = dict(protocol_kwargs or {})
        self.injector_seed = injector_seed
        #: JSON-able scenario-builder overrides (wait states,
        #: arbitration, burst shape …) — the fuzz genome's traffic
        #: knobs.  Empty for classic campaign specs.
        self.scenario_kwargs = dict(scenario_kwargs or {})

    def replace(self, **changes):
        """A copy of this spec with *changes* applied (shrinker steps)."""
        data = self.to_dict()
        data.pop("format", None)
        data.update(changes)
        return RunSpec(**data)

    def key(self):
        """Canonical string identity (shrinker evaluation cache)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "duration_us": self.duration_us,
            "faults": [fault.to_dict() for fault in self.faults],
            "retry_limit": self.retry_limit,
            "retry_backoff": self.retry_backoff,
            "watchdog": self.watchdog,
            "watchdog_kwargs": dict(self.watchdog_kwargs),
            "check_protocol": self.check_protocol,
            "protocol_kwargs": dict(self.protocol_kwargs),
            "injector_seed": self.injector_seed,
            "scenario_kwargs": dict(self.scenario_kwargs),
            "tier": self.tier,
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, data):
        fields = {key: value for key, value in data.items()
                  if key in cls.__slots__}
        if fields.get("engine") == "auto":
            # Legacy engine: compiled unless the design did not
            # compile, and every scenario compiles.
            fields["engine"] = "compiled"
        return cls(**fields)

    def __repr__(self):
        return "RunSpec(%s, seed=%d, %.1fus, faults=[%s])" % (
            self.scenario, self.seed, self.duration_us,
            ", ".join(fault.describe() for fault in self.faults),
        )


class RunOutcome:
    """Comparable fingerprint of one executed run.

    Two runs of the same :class:`RunSpec` produce equal fingerprints —
    including the cycle index of the first protocol violation and the
    exact energy totals — which is the replay layer's bit-exactness
    contract.
    """

    FIELDS = ("outcome", "completed", "failed", "aborted",
              "watchdog_events", "recoveries", "violations",
              "first_violation_rule", "first_violation_cycle",
              "rules_tripped", "recovery_compliant", "total_energy_j",
              "overhead_energy_j", "detail")

    def __init__(self, **fields):
        for name in self.FIELDS:
            setattr(self, name, fields.get(name))
        self.rules_tripped = list(self.rules_tripped or [])

    #: Full traceback of a ``crashed`` run (outside the fingerprint so
    #: bit-exact comparisons stay path/line-number independent).
    traceback_text = None

    #: State-digest stream recorded when the run was executed with a
    #: checkpoint plan: ``{"interval_cycles": N, "entries": [...]}``.
    #: Outside the fingerprint (it is the *oracle* for the fingerprint,
    #: verified separately by :func:`repro.replay.verify_digests`).
    digests = None

    @classmethod
    def of(cls, system, error_text=None, timed_out=False):
        """Fingerprint a finished (or dead) system."""
        checker = system.checker
        watchdog = system.watchdog
        ledger = system.ledger
        first = checker.first_violation if checker else None
        return cls(
            outcome=_classify(system, error_text, timed_out=timed_out),
            completed=system.transactions_completed(),
            failed=system.transactions_failed(),
            aborted=sum(master.aborted_transactions
                        for master in system.masters),
            watchdog_events=len(watchdog.events) if watchdog else 0,
            recoveries=watchdog.recoveries if watchdog else 0,
            violations=len(checker.violations) if checker else 0,
            first_violation_rule=first.rule if first else None,
            first_violation_cycle=first.cycle if first else None,
            rules_tripped=list(checker.rules_tripped())
            if checker else [],
            recovery_compliant=checker.mandatory_ok
            if checker else True,
            total_energy_j=ledger.total_energy if ledger else 0.0,
            overhead_energy_j=ledger.overhead_energy if ledger else 0.0,
            detail=error_text or "",
        )

    @property
    def failing(self):
        """True when the run is worth reproducing: it violated the
        protocol, broke containment, or crashed the simulator."""
        return (self.violations > 0
                or not self.recovery_compliant
                or self.outcome in ("hung", "crashed"))

    def fingerprint(self):
        """The comparable dict (also the JSON representation)."""
        return {name: getattr(self, name) for name in self.FIELDS}

    def __eq__(self, other):
        if not isinstance(other, RunOutcome):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __repr__(self):
        return "RunOutcome(%s, violations=%d, first=%s@%s)" % (
            self.outcome, self.violations, self.first_violation_rule,
            self.first_violation_cycle,
        )


class Containment:
    """Contains one run's failure into its outcome, on either tier.

    Use as ``with Containment() as run:`` around a run's build and
    execution, setting ``run.system`` as soon as the system exists;
    afterwards :meth:`outcome` fingerprints it.  Entering resets the
    global transaction id counter, so runs executed in the same
    process stay bit-identical.  A :class:`WallClockDeadlineError`
    classifies the run ``timeout``; any other exception is kept with
    its traceback and classifies it ``crashed``.
    """

    def __init__(self):
        self.system = None
        self.error_text = None
        self.traceback_text = None
        self.timed_out = False

    def __enter__(self):
        reset_txn_ids()
        return self

    def __exit__(self, kind, exc, tb):
        if kind is None or not issubclass(kind, Exception):
            return False
        # contain — the fingerprint is the product
        self.error_text = "%s: %s" % (kind.__name__, exc)
        if issubclass(kind, WallClockDeadlineError):
            self.timed_out = True
        else:
            self.traceback_text = "".join(
                _traceback.format_exception(kind, exc, tb))
        return True

    def outcome(self):
        """The run's :class:`RunOutcome`, traceback attached."""
        if self.system is None:
            # Elaboration itself crashed: no system to fingerprint,
            # but the failure must still be contained and replayable.
            outcome = RunOutcome(
                outcome="crashed", completed=0, failed=0, aborted=0,
                watchdog_events=0, recoveries=0, violations=0,
                rules_tripped=[], recovery_compliant=True,
                total_energy_j=0.0, overhead_energy_j=0.0,
                detail=self.error_text or "")
        else:
            outcome = RunOutcome.of(self.system, self.error_text,
                                    timed_out=self.timed_out)
        outcome.traceback_text = self.traceback_text
        return outcome


#: Don't produce a shared warm-start checkpoint below this prefix
#: length — restore overhead would rival the simulation it saves.
#: (Defined here and re-exported by :mod:`repro.fuzz.warmstart`: the
#: fuzz layer imports replay, never the reverse.)
MIN_WARM_CYCLES = 64


def _run_warm(system, warm, duration_ps, wall_clock_budget):
    """Run *system* for *duration_ps*, restoring (or producing) a
    shared scenario-prefix checkpoint described by *warm*.

    ``warm`` is the dict built by
    :meth:`repro.fuzz.warmstart.WarmStartCache.plan`: the store
    directory shared by all sibling genomes with the same prefix
    signature, plus ``horizon_ps`` — the latest kernel time (exclusive)
    a checkpoint may be reused at for *this* spec (strictly before its
    earliest signal-fault window opens).  A usable checkpoint is
    restored and only the remainder simulated; otherwise the run cold
    starts, leaving a mid-prefix checkpoint behind for later siblings.
    Either way the simulated trajectory is bit-identical to a plain
    ``system.run(duration_ps)`` — the checkpoint layer's exactness
    contract, plus the conservative prefix signature, guarantee it.
    """
    from ..state import CheckpointStore
    store = CheckpointStore(warm["dir"], keep=1)
    horizon = min(int(warm["horizon_ps"]), duration_ps)
    snapshot = store.latest()
    if snapshot is not None:
        time_ps = int(snapshot.time_ps)
        if 0 < time_ps < horizon:
            system.restore(snapshot)
            system.run(duration_ps - time_ps,
                       wall_clock_budget=wall_clock_budget)
            return
    period = system.clk.period
    warm_cycles = horizon // 2 // period
    warm_ps = warm_cycles * period
    if warm_cycles < MIN_WARM_CYCLES or warm_ps >= duration_ps:
        system.run(duration_ps, wall_clock_budget=wall_clock_budget)
        return
    system.run(warm_ps, wall_clock_budget=wall_clock_budget)
    # No digest stream: streams are per-run records, and concurrent
    # producers of one signature would interleave a shared one.  The
    # write is atomic, so racing producers at worst store identical
    # bytes twice.
    store.put(system.snapshot(), record_stream=False)
    system.run(duration_ps - warm_ps,
               wall_clock_budget=wall_clock_budget)


def execute(spec, wall_clock_budget=None, instrument=None,
            checkpoint=None, resume=False, warm_start=None):
    """Re-execute *spec* on the kernel; return ``(system, outcome)``.

    Simulator exceptions are contained into the outcome (``crashed``,
    with the full traceback on ``outcome.traceback_text``), mirroring
    the campaign runner, so the shrinker can minimise crashes too.
    ``wall_clock_budget`` (host seconds) arms the kernel's cooperative
    deadline: exceeding it classifies the run ``timeout`` instead of
    crashing the hosting process.  ``instrument`` is an optional
    callable invoked with the assembled system before the run starts
    (the fuzz engine hooks its coverage probe in here); its hooks must
    be strictly observe-only or the bit-exactness contract breaks.

    ``checkpoint`` is an optional
    :class:`~repro.state.CheckpointPlan`: the run executes in chunks,
    recording a state digest at every interval boundary (and at the
    end), available afterwards on ``outcome.digests``.  With
    ``resume=True`` and a plan whose store holds a checkpoint, the run
    restores the newest one and executes only the remaining duration —
    intra-run crash recovery.  The global transaction id counter is
    reset at entry (and captured in snapshots) so runs executed in the
    same process stay bit-identical.

    ``warm_start`` is an optional shared-prefix instruction (see
    :func:`_run_warm` and :mod:`repro.fuzz.warmstart`); it is honoured
    only when ``checkpoint`` is ``None`` — periodic checkpointing
    already owns the run loop, and mixing the two would record digest
    streams with a skipped prefix.
    """
    if spec.tier == "tlm":
        # Transaction-level runs are cheap enough that re-execution is
        # the recovery strategy: instrumentation, checkpoint plans and
        # warm starts have no transaction-level equivalent and are
        # deliberately ignored.  Run-level journal resume still works
        # unchanged.
        from ..tlm import execute_tlm
        return execute_tlm(spec, wall_clock_budget=wall_clock_budget)
    digest_entries = []
    with Containment() as run:
        overrides = {}
        for fault in spec.faults:
            if fault.kind == "behavioural":
                overrides[fault.slave] = fault_slave_factory(
                    fault.mode, fault.trigger_after)
        system = run.system = build_scenario(
            spec.scenario, seed=spec.seed,
            retry_limit=spec.retry_limit,
            retry_backoff=spec.retry_backoff,
            slave_overrides=overrides or None,
            watchdog=spec.watchdog,
            watchdog_kwargs=dict(spec.watchdog_kwargs),
            check_protocol=spec.check_protocol,
            protocol_kwargs=dict(spec.protocol_kwargs),
            **spec.scenario_kwargs,
        )
        signal_faults = [fault for fault in spec.faults
                         if fault.kind != "behavioural"]
        if signal_faults:
            injector = FaultInjector(system.sim, system.clk,
                                     seed=spec.injector_seed)
            for fault in signal_faults:
                target = getattr(system.bus, fault.signal)
                window = {"start": fault.start_ps, "end": fault.end_ps,
                          "probability": fault.probability}
                if fault.kind == "stuck-at":
                    injector.stuck_at(target, fault.bit,
                                      stuck_value=fault.value,
                                      **window)
                elif fault.kind == "bit-flip":
                    injector.bit_flip(target, fault.bit, **window)
                else:
                    injector.glitch(target, fault.value,
                                    cycles=fault.cycles, **window)
            system.sim.register_state("fault_injector", injector)
        if instrument is not None:
            instrument(system)
        if spec.engine == "compiled":
            # Engine selection is additive: the compiled engine wraps
            # ``sim.run`` and reproduces the interpreted trajectory
            # bit-exactly (declining back to the interpreted loop when
            # a run uses features it does not model), so the outcome
            # fingerprint and digest stream are engine-independent.
            # A ``CompileError`` is contained as ``crashed``.
            from ..compiled import compile_system
            compile_system(system)
        if checkpoint is None:
            if warm_start is not None:
                _run_warm(system, warm_start, us(spec.duration_us),
                          wall_clock_budget)
            else:
                system.run(us(spec.duration_us),
                           wall_clock_budget=wall_clock_budget)
        else:
            if resume and checkpoint.store is not None:
                resume_latest(system, checkpoint.store)
            remaining = us(spec.duration_us) - system.sim.now
            if remaining > 0:
                run_with_checkpoints(
                    system, remaining, checkpoint,
                    wall_clock_budget=wall_clock_budget,
                    on_interval=lambda _snap, entry:
                    digest_entries.append(entry),
                )
    outcome = run.outcome()
    if checkpoint is not None:
        if checkpoint.store is not None:
            # The store's stream is authoritative: on a resumed run it
            # merges the pre-crash prefix with the re-recorded suffix.
            entries = checkpoint.store.digest_stream()
        else:
            entries = digest_entries
        outcome.digests = {
            "interval_cycles": checkpoint.interval_cycles,
            "entries": entries,
        }
    return run.system, outcome


def close_system(system):
    """Free a system :func:`execute` returned, once its caller is done
    with it (:meth:`repro.kernel.Simulator.close`).  A no-op for a
    transaction-level system or ``None``; callers that run design
    after design (pool workers, the shrinker) otherwise hold finished
    designs until a full garbage collection."""
    sim = getattr(system, "sim", None)
    if sim is not None:
        sim.close()


def campaign_spec(scenario, fault="none", seed=1, duration_us=20.0,
                  slave_index=0, trigger_after=16, retry_limit=8,
                  retry_backoff=2, hready_timeout=16, retry_budget=6,
                  split_timeout=64, recover=True,
                  check_protocol="record", tier="cycle",
                  engine="interpreted"):
    """The :class:`RunSpec` of one campaign run — same parameters and
    defaults as :func:`repro.faults.run_fault_campaign`, so a recorded
    campaign cell re-executes identically."""
    faults = []
    if fault != "none":
        faults.append(FaultEntry.behavioural(fault, slave_index,
                                             trigger_after))
    return RunSpec(
        scenario, seed=seed, duration_us=duration_us, faults=faults,
        retry_limit=retry_limit, retry_backoff=retry_backoff,
        watchdog=True,
        watchdog_kwargs={
            "hready_timeout": hready_timeout,
            "retry_budget": retry_budget,
            "split_timeout": split_timeout,
            "recover": recover,
        },
        check_protocol=check_protocol,
        tier=tier,
        engine=engine,
    )


class ReplayTrace:
    """A versioned JSON file of ``(spec, recorded outcome)`` records."""

    def __init__(self, records=None):
        self.records = list(records or [])

    def append(self, spec, outcome):
        """Record one executed run."""
        self.records.append((spec, outcome))

    def __len__(self):
        return len(self.records)

    def __getitem__(self, index):
        return self.records[index]

    def replay(self, index=0):
        """Re-execute record *index*; return
        ``(spec, recorded, actual, match)`` where *match* is the
        bit-exact fingerprint comparison."""
        spec, recorded = self.records[index]
        _, actual = execute(spec)
        return spec, recorded, actual, actual == recorded

    def to_dict(self):
        runs = []
        for spec, outcome in self.records:
            record = {"spec": spec.to_dict(),
                      "outcome": outcome.fingerprint()}
            if outcome.digests is not None:
                # Additive key (format stays repro-replay/1): loaders
                # ignore unknown keys, so traces with digest streams
                # remain readable by older code.
                record["digests"] = outcome.digests
            runs.append(record)
        return {"format": FORMAT, "runs": runs}

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data):
        if data.get("format") != FORMAT:
            raise ValueError("not a %s trace (format=%r)"
                             % (FORMAT, data.get("format")))
        records = []
        for record in data["runs"]:
            spec = RunSpec.from_dict(record["spec"])
            outcome = RunOutcome(**record["outcome"])
            outcome.digests = record.get("digests")
            records.append((spec, outcome))
        return cls(records)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
