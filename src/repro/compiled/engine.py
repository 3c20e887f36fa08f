"""The compiled scheduler: round-exact clock-edge execution.

:class:`CompiledEngine` plugs into
:meth:`repro.kernel.simulator.Simulator.install_scheduler` and replaces
the interpreted run loop — heapq timed queue, generator clock thread,
event-calendar dispatch — with the design's clock edges emitted at
compile time (:mod:`repro.compiled.codegen`).  The combinational
cascade after each edge settles in the kernel's own delta loop
(:meth:`Simulator._settle_deltas`).

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
recorder runs on the emitted rising edge, on a generic edge and after
a hand-off to the interpreted loop.
"""

from __future__ import annotations

import heapq
import time as _time

from ..kernel.errors import WallClockDeadlineError
from .codegen import emit_module
from .errors import CompileError
from .graph import extract_graph


class CompiledEngine:
    """Static compiler + pluggable scheduler for one simulator.

    Parameters
    ----------
    sim:
        The elaborated simulator to compile.
    clocks:
        The design's :class:`~repro.kernel.clock.Clock`, in a
        one-element sequence.

    Raises :class:`~repro.compiled.errors.CompileError` when the design
    cannot be statically scheduled (more than one clock, dynamic
    sensitivity, undeclared combinational writes, ...).
    """

    def __init__(self, sim, clocks):
        self.sim = sim
        self.graph = extract_graph(sim, clocks)
        clock_signal = self.graph.domain.clock.signal
        for info in self.graph.comb:
            if any(signal is clock_signal for signal in info.writes):
                raise CompileError(
                    "combinational process %r writes clock signal "
                    "%r; compiled clocks are driven only by their "
                    "Clock (gate downstream logic instead)"
                    % (info.name, clock_signal.name),
                    process_names=[info.name])
        self._comb_ids = frozenset(id(info.process)
                                   for info in self.graph.comb)
        self._n_processes = len(sim._processes)
        self._rising, self._falling = emit_module(self, self.graph)

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
        if self._rising is not None:
            self._rising.__globals__.clear()
        self._rising = self._falling = None

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
            if sim._settle_deltas():
                self.runs_compiled += 1
                self.fallback_reason = None
                return True
            timed = sim._timed
            if timed and (len(timed) > 1 or
                          timed[0][3] is not self.graph.domain.driver):
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
        if timed:                # else event starvation: nothing to do
            self._run_edges(sim, timed[0], until, wall_clock_budget,
                            wall_start)
        return True

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
        for process in sim._processes:
            if process.terminated:
                return "process %r terminated" % process.name
        domain = self.graph.domain
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

    # -- the edge loop -------------------------------------------------

    def _run_edges(self, sim, entry, until, wall_clock_budget,
                   wall_start):
        """Run the clock's edges from its pending wake *entry* to
        *until*."""
        entry_time, seq = entry[0], entry[1]
        if entry_time > until:
            sim.now = until
            return
        timed = sim._timed
        timed.clear()
        clock = self.graph.domain.clock
        signal = clock.signal
        rising, falling = self._rising, self._falling
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
                    self._materialize(edge_time, seq, driver_high)
                    edges = -1
                    sim._run_interpreted(until, None, wall_clock_budget,
                                         wall_start)
                    return
                if wall_start is not None:
                    elapsed = monotonic() - wall_start
                    if elapsed > wall_clock_budget:
                        raise WallClockDeadlineError(
                            elapsed, wall_clock_budget, sim.now)
        finally:
            if edges > 0:
                self._materialize(edge_time, seq, driver_high)
            elif edges == 0:
                heapq.heappush(timed, entry)
        if not stopped:
            sim.now = until

    def _materialize(self, next_time, seq, driver_high):
        """Re-create the clock's kernel state for interpreted resume:
        the pending timed wake and a driver generator parked at the
        position the edge loop reached."""
        clock = self.graph.domain.clock
        heapq.heappush(self.sim._timed,
                       (next_time, seq, "wake", clock._process))
        if driver_high:
            clock._process._gen = clock._resume_from_high()
        else:
            clock._process._gen = clock._resume_from_low()

    def _generic_edge(self, level):
        """Interpreted-identical edge for anything the emitted fast
        path cannot prove safe (injection hooks or watchers on the
        clock wire, a stale level, level-sensitive clock logic)."""
        sim = self.sim
        clock = self.graph.domain.clock
        sim.delta_count += 1
        clock.signal.write(level)
        if level:
            clock.cycles += 1
        return sim._settle_deltas(1, self._comb_ids)

    def __repr__(self):
        domain = self.graph.domain
        return ("CompiledEngine(clock=%r, seq=%d, comb=%d)"
                % (domain.name,
                   len(domain.seq_pos) + len(domain.seq_neg),
                   len(self.graph.comb)))
