"""The compiled scheduler: round-exact clock-edge execution.

:class:`CompiledEngine` plugs into
:meth:`repro.kernel.simulator.Simulator.install_scheduler` and replaces
the interpreted run loop — heapq timed queue, generator clock threads,
event-calendar dispatch — with specialized per-domain edge functions
emitted at compile time (:mod:`repro.compiled.codegen`) plus a shared
combinational settle loop with per-round duplicate elimination.

**Bit-identity is the contract.**  Every kernel-visible mutation —
``now``, ``delta_count``, ``_sequence``, signal commit order, event
firing order, ``ProcessError`` attribution, torn state after an error,
resumable state after :meth:`Simulator.stop` — matches the interpreted
loop exactly, so snapshots, replay digests and energy ledgers are
byte-identical between engines.  Anything the compiled model cannot
prove it handles (an observer, foreign timed activity, waiter lists
that changed since compile, dynamic waits on the clock) makes ``run``
*decline* — the interpreted kernel then executes the call — or, for
activity appearing mid-run, hand the remainder of the run to
:meth:`Simulator._run_interpreted` after restoring the timed queue.

The only deliberate deviation: a combinational process appended twice
to the same delta round (two of its inputs changed in the previous
round) is evaluated once.  Combinational processes are pure committed
read → staged write functions, so the duplicate evaluation stages the
same values and the round structure — hence ``delta_count`` — is
unchanged; the equivalence suite enforces this.

**Batched consumers.**  The engine knows nothing of them.  The emitted
edges and the settle loop call every process through its ``fn``, and
:meth:`Simulator.run` points the ``fn`` of each eligible power monitor
and compliance engine at its batch's recorder
(:mod:`repro.kernel.rowbatch`) for the whole call, so the same
recorder runs on the emitted rising edge, on a generic edge, in the
multi-domain loop and after a hand-off to the interpreted loop.
"""

from __future__ import annotations

import heapq
import time as _time

from ..kernel.errors import (
    DeltaCycleLimitError,
    ProcessError,
    SimulationError,
    WallClockDeadlineError,
)
from ..kernel.events import MethodProcess, ThreadProcess
from ..kernel.time import format_time
from .codegen import emit_module
from .errors import CompileError
from .graph import extract_graph
from .levelize import levelize


class CompiledEngine:
    """Static compiler + pluggable scheduler for one simulator.

    Parameters
    ----------
    sim:
        The elaborated simulator to compile.
    clocks:
        Every :class:`~repro.kernel.clock.Clock` of the design.

    Raises :class:`~repro.compiled.errors.CompileError` when the design
    cannot be statically scheduled (dynamic sensitivity, undeclared
    combinational writes, combinational cycles, ...).
    """

    def __init__(self, sim, clocks):
        self.sim = sim
        self.graph = extract_graph(sim, clocks)
        #: Combinational processes in topological (level) order; the
        #: call is what proves the absence of combinational cycles.
        self.comb_order = levelize(self.graph.comb)
        clock_signals = {id(domain.clock.signal): domain
                         for domain in self.graph.domains}
        for info in self.graph.comb:
            for signal in info.writes:
                if id(signal) in clock_signals:
                    raise CompileError(
                        "combinational process %r writes clock signal "
                        "%r; compiled clocks are driven only by their "
                        "Clock (gate downstream logic instead)"
                        % (info.name, signal.name),
                        process_names=[info.name])
        self._comb_ids = frozenset(id(info.process)
                                   for info in self.graph.comb)
        self._n_processes = len(sim._processes)
        self._domain_by_driver = {
            id(domain.driver): domain for domain in self.graph.domains}
        self._edges = emit_module(self, self.graph)

        self._spare = []
        self._uq_spare = []

        #: Run accounting for telemetry / tests.
        self.runs_compiled = 0
        self.runs_declined = 0
        self.fallback_reason = None

    # -- lifecycle -----------------------------------------------------

    def install(self):
        """Install this engine as the simulator's scheduler."""
        self.sim.install_scheduler(self)
        return self

    def uninstall(self):
        """Remove this engine from its simulator (idempotent)."""
        self.sim.uninstall_scheduler(self)

    def close(self):
        """Empty the generated edge functions' shared namespace, which
        holds the functions themselves and this engine's bound methods
        (:meth:`Simulator.close` calls it; the engine cannot run
        afterwards)."""
        for rising, _ in self._edges.values():
            rising.__globals__.clear()
        self._edges = {}

    # -- scheduler protocol --------------------------------------------

    def run(self, sim, until, max_time_steps, wall_clock_budget):
        """Execute one :meth:`Simulator.run` call, or decline.

        Returns ``True`` when the run was executed (state advanced
        exactly as the interpreted loop would have), ``False`` to
        decline.  Every mutation made before a decline is itself
        interpreted-identical, so declining is always safe.
        """
        reason = self._declined(sim, until, max_time_steps)
        wall_start = None
        if reason is None:
            if wall_clock_budget is not None:
                wall_start = _time.monotonic()
            sim._stop_requested = False
            # Leftover runnable processes (initialization, a stopped
            # run's pending work) settle through the kernel's own loop.
            sim._settle_deltas()
            if sim._stop_requested:
                self.runs_compiled += 1
                self.fallback_reason = None
                return True
            plan = self._scan_timed(sim)
            if plan is None:
                reason = "timed queue holds non-clock activity"
        if reason is not None:
            self.fallback_reason = reason
            self.runs_declined += 1
            return False
        self.fallback_reason = None
        self.runs_compiled += 1
        if wall_start is not None:
            elapsed = _time.monotonic() - wall_start
            if elapsed > wall_clock_budget:
                raise WallClockDeadlineError(
                    elapsed, wall_clock_budget, sim.now)
        if not plan:
            return True          # event starvation: nothing scheduled

        if self._spare is sim._runnable or self._spare:
            self._spare = []
        if self._uq_spare is sim._update_queue or self._uq_spare:
            self._uq_spare = []

        if len(plan) == 1:
            return self._run_single(sim, plan[0], until,
                                    wall_clock_budget, wall_start)
        return self._run_multi(sim, plan, until,
                               wall_clock_budget, wall_start)

    # -- validation ----------------------------------------------------

    def _declined(self, sim, until, max_time_steps):
        """Reason this call cannot run compiled, or None."""
        if sim is not self.sim:
            return "engine compiled for a different simulator"
        if until is None:
            return "until=None (run to event starvation)"
        if max_time_steps is not None:
            return "max_time_steps requested"
        if sim._observer is not None:
            return "kernel observer attached"
        if sim.max_delta_cycles < 4:
            return "max_delta_cycles too small for edge rounds"
        if len(sim._processes) != self._n_processes:
            return "processes registered since compile"
        method_run = MethodProcess._run
        thread_run = ThreadProcess._run
        for process in sim._processes:
            if process.terminated:
                return "process %r terminated" % process.name
            expected = (thread_run
                        if isinstance(process, ThreadProcess)
                        else method_run)
            if process.run_fn.__func__ is not expected:
                return "process %r run_fn customized" % process.name
        for domain in self.graph.domains:
            signal = domain.clock.signal
            posedge, negedge = signal.edge_events()
            if signal.changed.static_waiters != domain.changed_waiters:
                return "clock %r changed waiters moved" % domain.name
            if signal.changed._dynamic_waiters:
                return "dynamic waiter on clock %r" % domain.name
            if posedge is not None:
                if posedge.static_waiters != domain.pos_waiters:
                    return "clock %r posedge waiters moved" % domain.name
                if posedge._dynamic_waiters:
                    return "dynamic waiter on clock %r" % domain.name
            if negedge is not None:
                if negedge.static_waiters != domain.neg_waiters:
                    return "clock %r negedge waiters moved" % domain.name
                if negedge._dynamic_waiters:
                    return "dynamic waiter on clock %r" % domain.name
        return None

    def _scan_timed(self, sim):
        """Classify the timed queue: one pending wake per clock domain.

        Returns ``[[time, seq, domain, entry], ...]`` or ``None`` when
        any entry is not a compiled clock's wake (timed event notify,
        foreign thread, duplicate) — those runs stay interpreted.
        """
        plan = []
        seen = set()
        for entry in sim._timed:
            entry_time, seq, kind, payload = entry
            if kind != "wake":
                return None
            domain = self._domain_by_driver.get(id(payload))
            if domain is None or id(domain) in seen:
                return None
            seen.add(id(domain))
            plan.append([entry_time, seq, domain, entry])
        return plan

    # -- single-domain fast loop ---------------------------------------

    def _run_single(self, sim, item, until, wall_clock_budget,
                    wall_start):
        entry_time, seq, domain, entry = item
        if entry_time > until:
            sim.now = until
            return True
        timed = sim._timed
        timed.clear()
        clock = domain.clock
        signal = clock.signal
        rising, falling = self._edges[clock]
        high, low = clock.high_time, clock.low_time
        monotonic = _time.monotonic
        edge_time = entry_time
        # The driver's park position; tracked explicitly so a foreign
        # write to the clock wire mid-run cannot skew edge direction.
        driver_high = bool(signal._next)
        edges = 0
        stopped = False
        try:
            while edge_time <= until:
                sim._sequence += 1
                seq = sim._sequence
                sim.now = edge_time
                edges += 1
                if driver_high:
                    edge_time += low
                    driver_high = False
                    stopped = falling()
                else:
                    edge_time += high
                    driver_high = True
                    stopped = rising()
                if stopped:
                    break
                if timed or signal._next != driver_high:
                    # a process scheduled foreign timed activity or
                    # wrote the clock wire itself: restore the kernel
                    # queue/generator and hand the rest of the run to
                    # the interpreter
                    self._materialize(domain, edge_time, seq,
                                      driver_high)
                    edges = -1
                    sim._run_interpreted(until, None, wall_clock_budget,
                                         wall_start)
                    return True
                if wall_start is not None:
                    elapsed = monotonic() - wall_start
                    if elapsed > wall_clock_budget:
                        raise WallClockDeadlineError(
                            elapsed, wall_clock_budget, sim.now)
        finally:
            if edges > 0:
                self._materialize(domain, edge_time, seq, driver_high)
            elif edges == 0:
                heapq.heappush(timed, entry)
        if not stopped:
            sim.now = until
        return True

    # -- multi-domain generic loop -------------------------------------

    def _run_multi(self, sim, plan, until, wall_clock_budget,
                   wall_start):
        """Round-exact loop for several clock domains.

        Simultaneous edges share delta rounds exactly as the
        interpreted kernel's dispatch does: clock threads act in timed
        sequence order within one round, commits follow write order,
        and the merged wake lists settle together."""
        timed = sim._timed
        timed.clear()
        # rows become [next_time, seq, domain, entry, processed,
        #              driver_high]
        for row in plan:
            row.append(False)
            row.append(bool(row[2].clock.signal._next))
        monotonic = _time.monotonic
        stopped = False
        finalized = False
        try:
            while True:
                step_time = min(row[0] for row in plan)
                if step_time > until:
                    sim.now = until
                    break
                group = sorted((row for row in plan
                                if row[0] == step_time),
                               key=lambda row: row[1])
                sim.now = step_time
                sim.delta_count += 1
                for row in group:
                    domain = row[2]
                    clock = domain.clock
                    sim._sequence += 1
                    row[1] = sim._sequence
                    row[4] = True
                    if row[5]:
                        row[0] = step_time + clock.low_time
                        row[5] = False
                        clock.signal.write(0)
                    else:
                        row[0] = step_time + clock.high_time
                        row[5] = True
                        clock.signal.write(1)
                        clock.cycles += 1
                stopped = self._settle_rounds(sim, 1)
                if stopped:
                    break
                if timed or any(
                        row[2].clock.signal._next != row[5]
                        for row in group):
                    self._finalize_multi(plan)
                    finalized = True
                    sim._run_interpreted(until, None, wall_clock_budget,
                                         wall_start)
                    return True
                if wall_start is not None:
                    elapsed = monotonic() - wall_start
                    if elapsed > wall_clock_budget:
                        raise WallClockDeadlineError(
                            elapsed, wall_clock_budget, sim.now)
        finally:
            if not finalized:
                self._finalize_multi(plan)
        return True

    def _finalize_multi(self, plan):
        for next_time, seq, domain, entry, processed, driver_high \
                in plan:
            if processed:
                self._materialize(domain, next_time, seq, driver_high)
            else:
                heapq.heappush(self.sim._timed, entry)

    def _materialize(self, domain, next_time, seq, driver_high):
        """Re-create the clock's kernel state for interpreted resume:
        the pending timed wake and a driver generator parked at the
        position the edge loop reached."""
        clock = domain.clock
        heapq.heappush(self.sim._timed,
                       (next_time, seq, "wake", clock._process))
        if driver_high:
            clock._process._gen = clock._resume_from_high()
        else:
            clock._process._gen = clock._resume_from_low()

    # -- shared settle loop --------------------------------------------

    def _settle_after(self, deltas):
        """Namespace hook for emitted edge functions."""
        return self._settle_rounds(self.sim, deltas)

    def _generic_edge(self, domain, level):
        """Interpreted-identical edge for anything the emitted fast
        path cannot prove safe (injection hooks or watchers on the
        clock wire, a stale level, level-sensitive clock logic)."""
        sim = self.sim
        sim.delta_count += 1
        domain.clock.signal.write(level)
        if level:
            domain.clock.cycles += 1
        return self._settle_rounds(sim, 1)

    def _settle_rounds(self, sim, deltas):
        """Run delta rounds until quiescent, starting with the commit
        of the round already executed by the caller.

        Mirrors ``Simulator._settle_deltas`` — same ``delta_count``
        accounting, stop semantics (pending processes stay in
        ``sim._runnable``), error torn-state and delta-cycle limit —
        with per-round deduplication of combinational processes.
        Returns True when :meth:`Simulator.stop` was requested."""
        comb_ids = self._comb_ids
        max_deltas = sim.max_delta_cycles
        spare = self._spare
        uq_spare = self._uq_spare
        while True:
            updates = sim._update_queue
            if updates:
                sim._update_queue = uq_spare
                runnable = sim._runnable
                for signal in updates:
                    signal._commit(runnable)
                updates.clear()
                uq_spare = updates
            if sim._delta_events:
                fired = sim._delta_events
                sim._delta_events = []
                runnable = sim._runnable
                for event in fired:
                    event._fire(runnable)
            if sim._stop_requested:
                self._spare, self._uq_spare = spare, uq_spare
                return True
            current = sim._runnable
            if not current:
                self._spare, self._uq_spare = spare, uq_spare
                return False
            deltas += 1
            sim.delta_count += 1
            if deltas > max_deltas:
                suspects = sorted({process.name for process in current
                                   if not process.terminated})
                raise DeltaCycleLimitError(
                    "exceeded %d delta cycles at %s; probable "
                    "zero-delay combinational loop"
                    % (max_deltas, format_time(sim.now)),
                    process_names=suspects,
                )
            sim._runnable = spare
            seen = set()
            process = None
            try:
                for process in current:
                    pid = id(process)
                    if pid in comb_ids:
                        if pid in seen:
                            continue
                        seen.add(pid)
                        process.fn()
                    elif not process.terminated:
                        process.fn()
            except (SimulationError, KeyboardInterrupt):
                raise
            except Exception as exc:
                raise ProcessError(process.name, exc) from exc
            current.clear()
            spare = current

    def __repr__(self):
        return ("CompiledEngine(domains=%d, seq=%d, comb=%d)"
                % (len(self.graph.domains),
                   sum(len(domain.seq_pos) + len(domain.seq_neg)
                       for domain in self.graph.domains),
                   len(self.graph.comb)))
