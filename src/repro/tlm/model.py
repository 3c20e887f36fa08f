"""Cycle-approximate transaction-level AHB model.

The engine advances an integer bus-cycle counter in transaction steps:
each master pulls whole :class:`~repro.amba.AhbTransaction` objects
from the *same* seeded workload sources the cycle-accurate testbench
uses (the sources ignore pull time, so both tiers see identical
stimulus streams), the :class:`~repro.tlm.bus.TlmArbiter` picks a
tenure owner, and the transfer is costed as
``beats × (1 + wait_states)`` bus cycles — no signals, no delta
cycles.

Energy follows the paper's §5.2 behavioural decomposition: every
emitted cycle is classified into the four-mode alphabet
(:mod:`repro.power.instructions`) and accumulated as *mode runs*;
at the end of the run each ``(instruction, response)`` bucket is
charged in one :meth:`~repro.power.EnergyLedger.charge_bulk` call
using per-instruction energy coefficients from a
:class:`~repro.tlm.calibrate.CalibrationTable` fitted against the
cycle-accurate model.  All accumulation happens in a fixed order on
plain Python ints/floats, so a TLM run is byte-deterministic across
processes — the property the campaign journal machinery relies on.

Behavioural faults are modeled as integer cycle costs too: RETRY and
SPLIT are two-cycle responses, a hung slave is a stall of
``hready_timeout`` cycles before the watchdog's forced ERROR, an
unreleased SPLIT parks the master until the split timeout fires.
Signal-level faults have no transaction-level image and are rejected
up front by :func:`repro.tlm.execute_tlm`.
"""

from __future__ import annotations

import time as _time
from math import floor

from ..amba.watchdog import WatchdogEvent
from ..kernel import WallClockDeadlineError, clock_period
from ..power import EnergyLedger
from ..power.instructions import (
    ALL_INSTRUCTIONS,
    IDLE_CODE,
    IDLE_HO_CODE,
    READ_CODE,
    WRITE_CODE,
)
from .bus import TlmArbiter, TlmDecoder

#: Cycles a RETRY/SPLIT/ERROR response occupies the bus (AMBA's
#: mandatory two-cycle response).
RESPONSE_CYCLES = 2

#: Main-loop iterations between wall-clock deadline checks.
_DEADLINE_STRIDE = 4096

#: Response tags a mode run can carry (``None``: a plain transfer).
_RESPONSES = (None, "RETRY", "ERROR", "SPLIT", "STALL")
#: Index of each ``(instruction, response)`` bucket a mode run is
#: counted in: ``16 * response + 4 * previous + current``, so the emit
#: path counts in a flat list and formats no string.
_BUCKETS = tuple((name, response) for response in _RESPONSES
                 for name in ALL_INSTRUCTIONS)
_BUCKET_BASE = {response: 16 * index
                for index, response in enumerate(_RESPONSES)}


class TlmFidelityError(ValueError):
    """A request the transaction-level tier cannot model faithfully."""


class _TlmClock:
    """Just enough of :class:`repro.kernel.Clock` for consumers that
    read ``period`` (coverage keys, latency conversions)."""

    __slots__ = ("period", "cycles")

    def __init__(self, period):
        self.period = int(period)
        self.cycles = 0


class TlmWatchdog:
    """Bookkeeping twin of :class:`repro.amba.AhbWatchdog`.

    The TLM engine detects the hazards itself (it knows the fault it
    is executing); this object only carries the thresholds and records
    the same :class:`~repro.amba.watchdog.WatchdogEvent` stream and
    recovery count the outcome classifier reads.
    """

    def __init__(self, hready_timeout=16, retry_budget=16,
                 split_timeout=64, recover=True, **_ignored):
        self.hready_timeout = int(hready_timeout)
        self.retry_budget = int(retry_budget)
        self.split_timeout = int(split_timeout)
        self.recover = bool(recover)
        self.events = []
        self.recoveries = 0
        self._retry_counts = {}

    def record(self, time_ps, rule, message, recovered):
        self.events.append(WatchdogEvent(time_ps, rule, message,
                                         recovered))
        if recovered:
            self.recoveries += 1


class TlmMaster:
    """Per-master pull state: the pending transaction, when it becomes
    ready, and the completed-transaction log the outcome reads."""

    __slots__ = ("index", "source", "completed", "aborted_transactions",
                 "pending", "ready_cycle", "exhausted", "bias_acc",
                 "split_event_cycle", "split_blocked")

    def __init__(self, index, source):
        self.index = index
        self.source = source
        self.completed = []
        self.aborted_transactions = 0
        self.pending = None
        self.ready_cycle = 0
        self.exhausted = False
        #: Error-diffusion accumulator for the calibrated fractional
        #: latency bias (keeps reported latencies integral cycles).
        self.bias_acc = 0.0
        self.split_event_cycle = None
        self.split_blocked = False


class TlmSystem:
    """Transaction-level counterpart of
    :class:`repro.workloads.AhbSystem`.

    Duck-types the slice of the system surface the replay/campaign
    stack consumes: ``masters``, ``ledger``, ``watchdog``, ``checker``
    (always ``None`` — there are no signals to check), ``clk``,
    ``transactions_completed()`` / ``transactions_failed()``.

    Parameters
    ----------
    plan:
        A :class:`~repro.workloads.ScenarioPlan`; its sources are
        consumed directly.
    table:
        The :class:`~repro.tlm.calibrate.CalibrationTable` supplying
        energy coefficients and latency parameters.
    scenario:
        Scenario name used to select per-scenario table entries;
        unknown names fall back to the pooled coefficients.
    faults:
        ``{slave_index: FaultEntry}`` of behavioural faults.
    """

    def __init__(self, plan, table, scenario=None, faults=None,
                 retry_limit=8, retry_backoff=2, watchdog=False,
                 watchdog_kwargs=None):
        self.plan = plan
        self.period = clock_period(plan.frequency_hz)
        self.clk = _TlmClock(self.period)
        self.masters = [TlmMaster(index, source)
                        for index, source in enumerate(plan.sources)]
        n_masters = len(self.masters) + 1  # + default master
        self.arbiter = TlmArbiter(
            plan.arbitration, n_masters, default_master=n_masters - 1,
            tdma_slot_cycles=plan.system_kwargs.get(
                "tdma_slot_cycles", 8))
        self.decoder = TlmDecoder(plan.n_slaves, plan.region_size)
        self.wait_states = plan.wait_states
        self.retry_limit = retry_limit
        self.retry_backoff = int(retry_backoff or 0)
        self.watchdog = (TlmWatchdog(**dict(watchdog_kwargs or {}))
                         if watchdog else None)
        self.checker = None
        self.ledger = EnergyLedger()
        self.faults = dict(faults or {})
        self.handover_count = 0

        self._scenario = scenario
        self._table = table
        self._coeffs = table.coefficients_for(scenario)
        self._default_coeff = self._coeffs.default
        self._block_shares = table.block_share_items()
        self.handover_cycles = table.handover_cycles
        self.latency_bias = table.latency_bias_for(scenario)

        #: Cycle count per :data:`_BUCKETS` entry.
        self._counts = [0] * len(_BUCKETS)
        self._prev_mode = IDLE_CODE
        self._cycle = 0
        self._budget = 0
        self._beats_served = {}
        self._finalized = False

    # -- emission ----------------------------------------------------------

    def _emit(self, mode, count, response=None):
        """Account *count* cycles of *mode* (a mode code); returns
        cycles actually emitted (clipped to the run budget) and
        advances bus time."""
        available = self._budget - self._cycle
        if count > available:
            count = available
        if count <= 0:
            return 0
        counts = self._counts
        base = _BUCKET_BASE[response]
        counts[base + 4 * self._prev_mode + mode] += 1
        if count > 1:
            counts[base + 5 * mode] += count - 1
        self._prev_mode = mode
        self._cycle += count
        return count

    def _finalize_energy(self):
        """Charge every mode-run bucket in sorted order (fixed float
        accumulation order — the byte-determinism contract)."""
        if self._finalized:
            return
        self._finalized = True
        coeffs = self._coeffs
        shares = self._block_shares
        # The coefficients were fitted at the calibration horizon; the
        # warm-up ramp rescales them to this run's length (slave
        # memory fills with random data over time, so the reference
        # per-cycle energy is non-stationary — see CalibrationTable
        # .warmup_factor).
        factor = self._table.warmup_factor(self._scenario, self._cycle)
        stall_energy = self._table.stall_energy_j
        buckets = sorted(((_BUCKETS[index], count)
                          for index, count in enumerate(self._counts)
                          if count),
                         key=lambda item: (item[0][0], item[0][1] or ""))
        for (instruction, response), count in buckets:
            if response == "STALL":
                # Frozen-bus cycles sit at the clock-only floor; the
                # warm-up ramp is a data-toggle effect and does not
                # apply.
                energy = stall_energy
            else:
                energy = coeffs.get(instruction) * factor
            blocks = {block: energy * share for block, share in shares}
            self.ledger.charge_bulk(instruction, count, blocks,
                                    response)

    # -- sources -----------------------------------------------------------

    def _refill(self, master, cycle):
        """Pull *master*'s next transaction at bus cycle *cycle*."""
        master.pending = None
        if master.exhausted:
            return
        txn = master.source.next_transaction(cycle * self.period)
        if txn is None:
            master.exhausted = True
            return
        master.pending = txn
        master.ready_cycle = cycle + txn.idle_cycles_before

    def _complete(self, master, txn, error=False, aborted=False,
                  abort_reason=None):
        period = self.period
        acc = master.bias_acc + self.latency_bias
        shift = floor(acc)
        master.bias_acc = acc - shift
        complete_cycle = self._cycle + shift
        issue_next = txn.issue_time // period + 1
        if complete_cycle < issue_next:
            complete_cycle = issue_next
        txn.complete_time = complete_cycle * period
        txn.error = error
        txn.abort_reason = abort_reason
        txn.done = True
        master.completed.append(txn)
        if aborted:
            master.aborted_transactions += 1
        if self.watchdog is not None:
            # Any completion breaks this master's RETRY streak.
            self.watchdog._retry_counts[master.index] = 0
        self._refill(master, self._cycle)

    # -- faults ------------------------------------------------------------

    def _fault_for(self, slave):
        """The armed behavioural fault at *slave*, if any.

        Mirrors the broken-slave classes' arming rule: the fault kicks
        in once more than ``trigger_after`` beats were served."""
        fault = self.faults.get(slave)
        if fault is None:
            return None
        if self._beats_served.get(slave, 0) > fault.trigger_after:
            return fault
        return None

    def _count_beats(self, slave, beats):
        if self.faults:
            self._beats_served[slave] = (
                self._beats_served.get(slave, 0) + beats)

    def _fault_always_retry(self, master, txn, slave, mode):
        """RETRY every re-issue until a watchdog abort, the retry
        limit, or the budget ends the loop."""
        watchdog = self.watchdog
        while True:
            if self._emit(mode, RESPONSE_CYCLES,
                          response="RETRY") < RESPONSE_CYCLES:
                return
            txn.retries += 1
            if watchdog is not None:
                counts = watchdog._retry_counts
                count = counts.get(master.index, 0) + 1
                counts[master.index] = count
                if count > watchdog.retry_budget:
                    counts[master.index] = 0
                    recovered = watchdog.recover
                    watchdog.record(
                        self._cycle * self.period, "retry-storm",
                        "master M%d saw %d consecutive RETRY "
                        "completions" % (master.index, count),
                        recovered)
                    if recovered:
                        self._complete(
                            master, txn, error=True, aborted=True,
                            abort_reason="watchdog: %d consecutive "
                            "RETRYs" % count)
                        return
            if self.retry_limit is not None and \
                    txn.retries > self.retry_limit:
                self._complete(
                    master, txn, error=True, aborted=True,
                    abort_reason="retry limit %d exceeded"
                    % self.retry_limit)
                return
            if self.retry_backoff:
                master.ready_cycle = self._cycle + self.retry_backoff
                return  # re-arbitrate after the backoff window

    def _fault_hung_slave(self, master, txn, slave, mode):
        """Stall with the transfer active; the watchdog (when armed)
        periodically detects the stall and, when recovering, forces a
        two-cycle ERROR that completes the transfer.

        Stalled cycles are STALL-tagged: with HREADY held low every
        bus signal is frozen, so the reference tier's Hamming-driven
        energy collapses to the clock-only floor — the READ/WRITE
        coefficients (calibrated on *toggling* transfer cycles) would
        overcharge the stall by an order of magnitude.  The tag also
        books the stall as fault overhead in the ledger.
        """
        watchdog = self.watchdog
        self._emit(mode, 1)
        if watchdog is None:
            self._emit(IDLE_CODE, self._budget - self._cycle,
                       response="STALL")
            return
        while True:
            if self._emit(IDLE_CODE, watchdog.hready_timeout,
                          response="STALL") < watchdog.hready_timeout:
                return
            recovered = watchdog.recover
            watchdog.record(
                self._cycle * self.period, "hready-stall",
                "HREADY low for %d cycles (data-phase owner M%d)"
                % (watchdog.hready_timeout, master.index), recovered)
            if recovered:
                self._emit(mode, RESPONSE_CYCLES, response="ERROR")
                self._complete(master, txn, error=True)
                return

    def _fault_unreleased_split(self, master, txn, slave, mode):
        """Two-cycle SPLIT, then the master leaves arbitration until
        the split timeout aborts it (or forever without recovery)."""
        self._emit(mode, RESPONSE_CYCLES, response="SPLIT")
        master.split_blocked = True
        watchdog = self.watchdog
        if watchdog is None:
            master.split_event_cycle = None
            return
        master.split_event_cycle = self._cycle + watchdog.split_timeout

    def _service_split_timeouts(self):
        for master in self.masters:
            event_cycle = master.split_event_cycle
            if not master.split_blocked or event_cycle is None \
                    or event_cycle > self._cycle:
                continue
            watchdog = self.watchdog
            recovered = watchdog.recover
            watchdog.record(
                event_cycle * self.period, "split-unreleased",
                "master M%d split-masked for %d cycles"
                % (master.index, watchdog.split_timeout), recovered)
            master.split_event_cycle = None
            if recovered:
                master.split_blocked = False
                self._complete(
                    master, master.pending, error=True, aborted=True,
                    abort_reason="watchdog: SPLIT never released")

    # -- transfers ---------------------------------------------------------

    _FAULT_HANDLERS = {
        "always-retry": _fault_always_retry,
        "hung-slave": _fault_hung_slave,
        "unreleased-split": _fault_unreleased_split,
    }

    def _transfer(self, master):
        txn = master.pending
        slave = self.decoder.decode(txn.address)
        mode = WRITE_CODE if txn.write else READ_CODE
        txn.issue_time = self._cycle * self.period
        if slave is None:
            # Decode miss: the default slave answers with a two-cycle
            # ERROR, like the cycle-accurate fabric.
            if self._emit(mode, RESPONSE_CYCLES,
                          response="ERROR") == RESPONSE_CYCLES:
                self._complete(master, txn, error=True)
            return
        fault = self._fault_for(slave) if self.faults else None
        if fault is not None:
            handler = self._FAULT_HANDLERS.get(fault.mode)
            if handler is None:
                raise TlmFidelityError(
                    "no transaction-level model for fault mode %r"
                    % fault.mode)
            handler(self, master, txn, slave, mode)
            return
        beat_cost = 1 + self.wait_states[slave]
        if txn.busy_between_beats and txn.beats > 1:
            # BUSY cycles fold into IDLE in the four-mode alphabet.
            for beat in range(txn.beats):
                if beat and self._emit(
                        IDLE_CODE,
                        txn.busy_between_beats) < txn.busy_between_beats:
                    return
                if self._emit(mode, beat_cost) < beat_cost:
                    return
                self._count_beats(slave, 1)
        else:
            cost = txn.beats * beat_cost
            emitted = self._emit(mode, cost)
            if self.faults:
                self._count_beats(slave, emitted // beat_cost)
            if emitted < cost:
                return
        self._complete(master, txn)

    # -- run loop ----------------------------------------------------------

    def run(self, duration_ps, wall_clock_budget=None):
        """Advance the bus by ``duration_ps`` of simulated time."""
        self._budget += int(duration_ps) // self.period
        budget = self._budget
        masters = self.masters
        n_masters = len(masters)
        pick = self.arbiter.pick
        emit = self._emit
        transfer = self._transfer
        faults = self.faults
        owner = self.arbiter.default_master
        owner_release = 0
        started = _time.monotonic()
        deadline = (None if wall_clock_budget is None
                    else started + wall_clock_budget)
        iterations = 0
        for master in masters:
            if master.pending is None and not master.exhausted:
                self._refill(master, self._cycle)
        while self._cycle < budget:
            iterations += 1
            if deadline is not None and \
                    iterations % _DEADLINE_STRIDE == 0 and \
                    _time.monotonic() > deadline:
                self._finalize_energy()
                self.clk.cycles = self._cycle
                raise WallClockDeadlineError(
                    _time.monotonic() - started, wall_clock_budget,
                    self._cycle * self.period)
            if faults:
                # Split-blocking only ever arises from an armed fault,
                # so fault-free runs skip the per-iteration scan.
                self._service_split_timeouts()
            cycle = self._cycle
            # One pass: the masters ready now, and else the earliest
            # cycle one of them can become ready.
            ready = []
            wake = None
            for master in masters:
                if master.pending is None:
                    continue
                if master.split_blocked:
                    pending = master.split_event_cycle
                else:
                    pending = master.ready_cycle
                    if pending <= cycle:
                        ready.append(master.index)
                        continue
                if pending is not None and \
                        (wake is None or pending < wake):
                    wake = pending
            if not ready:
                target = (budget if wake is None
                          else wake if wake > cycle else cycle + 1)
                if target > budget:
                    target = budget
                # Parked on the default master: the cycle-accurate
                # monitor classifies these gap cycles as IDLE_HO.
                emit(IDLE_HO_CODE, target - cycle)
                continue
            chained = (owner < n_masters
                       and masters[owner].ready_cycle <= owner_release)
            winner = pick(ready, owner, chained, cycle)
            if winner != owner:
                self.handover_count += 1
                owner = winner
                if self.handover_cycles and emit(
                        IDLE_HO_CODE,
                        self.handover_cycles) < self.handover_cycles:
                    break
            transfer(masters[winner])
            owner_release = self._cycle
        self._finalize_energy()
        self.clk.cycles = self._cycle

    # -- outcome surface ----------------------------------------------------

    def transactions_completed(self):
        return sum(len(master.completed) for master in self.masters)

    def transactions_failed(self):
        return sum(1 for master in self.masters
                   for txn in master.completed if txn.error)

    def completed_transactions(self):
        """All completed transactions, in master-index order."""
        for master in self.masters:
            for txn in master.completed:
                yield txn

    def mean_latency_cycles(self):
        """Mean issue-to-complete latency over completed transactions,
        in bus cycles; 0.0 when nothing completed."""
        total = 0
        count = 0
        for txn in self.completed_transactions():
            if txn.latency is not None:
                total += txn.latency
                count += 1
        if not count:
            return 0.0
        return total / count / self.period

    def __repr__(self):
        return "TlmSystem(%s, cycle=%d/%d, completed=%d)" % (
            self._scenario, self._cycle, self._budget,
            self.transactions_completed(),
        )
