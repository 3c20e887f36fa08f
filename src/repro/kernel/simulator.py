"""The discrete-event simulator.

Implements the classic two-phase (evaluate/update) delta-cycle scheduler
used by SystemC and VHDL simulators:

1. **Evaluate** — run every runnable process.  Processes read committed
   signal values, stage writes, notify events and schedule timed waits.
2. **Update** — commit staged signal values and fire delta-notified
   events; every process woken by those events becomes runnable for the
   next delta cycle.
3. When no process is runnable the simulator advances time to the next
   timed entry (a thread wake-up or a timed event notification).

The scheduler is deterministic: processes are evaluated in the order
they became runnable and timed entries are tie-broken by insertion
sequence number.
"""

from __future__ import annotations

import heapq
import time as _time

from .errors import (
    DeltaCycleLimitError,
    ProcessError,
    SimulationError,
    StateError,
    WallClockDeadlineError,
)
from .events import Event, MethodProcess, ThreadProcess
from .module import Module, unlink_trees
from .time import format_time

#: The record/replay batch kind of each stock per-cycle consumer,
#: keyed by the function of the method it records.  Every kind
#: registers itself (:class:`repro.kernel.rowbatch.RowBatch`); the
#: kernel only looks method processes up here and imports no consumer.
BATCH_KINDS = {}

#: Imports the modules that fill :data:`BATCH_KINDS`.  The ``repro``
#: package sets it and discovery calls it, so a process that never
#: runs a simulation never imports them.
load_batch_kinds = None


class Simulator:
    """Owner of simulated time, processes, signals and events.

    Typical use::

        sim = Simulator()
        clk = Clock(sim, "clk", period=ns(10))
        dut = MyModule(sim, "dut", clk)
        sim.run(until=us(50))

    Parameters
    ----------
    max_delta_cycles:
        Safety limit on delta cycles within one time step; exceeding it
        raises :class:`DeltaCycleLimitError` (combinational loop guard).
    """

    def __init__(self, max_delta_cycles=10_000):
        self.now = 0
        self.max_delta_cycles = max_delta_cycles
        self._runnable = []
        self._update_queue = []
        self._delta_events = []
        self._timed = []
        self._sequence = 0
        self._signals = []
        self._processes = []
        self._stop_requested = False
        self._running = False
        self.delta_count = 0
        self._observer = None
        self._events = []
        self._state_providers = {}
        self._scheduler = None
        # Reused evaluate/update-phase lists: `_settle_deltas`
        # ping-pongs the runnable list and the update queue with these
        # spares instead of allocating fresh lists every delta cycle.
        self._spare_runnable = []
        self._spare_updates = []
        self._batches = ()
        self._batch_scan = 0

    # -- construction hooks (used by Signal / Module / processes) ------

    def _register_signal(self, signal):
        self._signals.append(signal)

    def _register_event(self, event):
        self._events.append(event)

    def _make_runnable(self, process):
        self._runnable.append(process)

    def _schedule_update(self, signal):
        self._update_queue.append(signal)

    def _schedule_delta_event(self, event):
        self._delta_events.append(event)

    def _next_seq(self):
        self._sequence += 1
        return self._sequence

    def _schedule_timed_event(self, event, delay):
        heapq.heappush(
            self._timed, (self.now + delay, self._next_seq(), "event", event)
        )

    def _schedule_timed_wake(self, process, delay):
        heapq.heappush(
            self._timed, (self.now + delay, self._next_seq(), "wake", process)
        )

    # -- public construction API ---------------------------------------

    def event(self, name="event"):
        """Create a standalone :class:`Event` owned by this simulator."""
        return Event(self, name)

    def add_method(self, fn, sensitivity, name=None, initialize=True,
                   writes=None):
        """Register a method process (combinational callback).

        ``sensitivity`` is an iterable of events or signals; the process
        re-runs whenever any of them fires.  With ``initialize=True``
        (the default, as in SystemC) the process also runs once at
        simulation start so outputs reach a consistent initial state.
        ``writes`` optionally declares the set of signals the process
        may write — metadata the kernel ignores but the
        :mod:`repro.compiled` static analyser requires of combinational
        processes, to prove that none of them drives a clock.
        """
        process = MethodProcess(
            self,
            name or getattr(fn, "__qualname__", "method"),
            fn,
            sensitivity,
            initialize=initialize,
            writes=writes,
        )
        self._processes.append(process)
        return process

    def add_thread(self, generator_fn, name=None):
        """Register a thread process from a generator function."""
        process = ThreadProcess(
            self, name or getattr(generator_fn, "__qualname__", "thread"),
            generator_fn,
        )
        self._processes.append(process)
        return process

    # -- pluggable scheduler ---------------------------------------------

    def install_scheduler(self, scheduler):
        """Install an alternative run-loop implementation.

        *scheduler* exposes ``run(sim, until, max_time_steps,
        wall_clock_budget)`` and is offered every :meth:`run` call; it
        either executes the run (mutating the simulator state exactly
        as the built-in loop would, returning ``True``) or declines by
        returning ``False``, in which case the built-in delta-cycle
        loop handles the call.  At most one scheduler is installed at a
        time; the :mod:`repro.compiled` engine is the only current
        implementation.  A scheduler may also expose ``close()``, which
        :meth:`close` calls to let it drop what it built for the design.
        """
        if self._scheduler is not None:
            raise SimulationError(
                "a scheduler is already installed; uninstall it first")
        self._scheduler = scheduler

    def uninstall_scheduler(self, scheduler=None):
        """Remove the installed scheduler (no-op when none matches)."""
        if scheduler is None or self._scheduler is scheduler:
            self._scheduler = None

    @property
    def scheduler(self):
        """The installed alternative scheduler, or None."""
        return self._scheduler

    # -- observation -----------------------------------------------------

    def attach_observer(self, observer):
        """Install a kernel observer (at most one at a time).

        The observer receives ``on_process(process, now, seconds)``
        after every process activation (*seconds* is host wall-clock
        time spent inside the process) and ``on_settle(now, deltas)``
        after each time step that executed at least one delta cycle.
        The scheduler only pays the timing overhead while an observer
        is attached; with none, the hot loop is branch-identical to an
        unobserved kernel.
        """
        if self._observer is not None:
            raise SimulationError(
                "an observer is already attached; detach it first")
        self._observer = observer

    def detach_observer(self, observer=None):
        """Remove the attached observer (no-op when none matches)."""
        if observer is None or self._observer is observer:
            self._observer = None

    @property
    def observer(self):
        """The attached kernel observer, or None."""
        return self._observer

    @property
    def batches(self):
        """The record/replay batch of every batchable stock per-cycle
        consumer (the power monitor, each compliance engine, the fuzz
        coverage probe's bus monitor), one per consumer and shared by
        both engines.

        A batch counts ``rows_replayed`` and ``live_diverts``, so a run
        can tell which path ran.  Processes are looked up in
        :data:`BATCH_KINDS` once, when first seen.
        """
        processes = self._processes
        if self._batch_scan < len(processes):
            if load_batch_kinds is not None:
                load_batch_kinds()
            found = list(self._batches)
            for process in processes[self._batch_scan:]:
                fn = getattr(process, "fn", None)
                kind = BATCH_KINDS.get(getattr(fn, "__func__", None))
                if kind is not None and kind.batchable(fn.__self__):
                    found.append(kind(process))
            self._batches = tuple(found)
            self._batch_scan = len(processes)
        return self._batches

    # -- state capture / restore ----------------------------------------

    def register_state(self, path, provider):
        """Register a component state provider under *path*.

        *provider* exposes ``state_dict() -> dict`` (JSON-able) and
        ``load_state_dict(state)``.  Providers are captured and restored
        in registration order, so a provider whose restore depends on
        another's (e.g. a global counter reset) registers after it.
        """
        if path in self._state_providers:
            raise StateError("duplicate state provider path %r" % path)
        if not hasattr(provider, "state_dict") or \
                not hasattr(provider, "load_state_dict"):
            raise StateError(
                "state provider %r must define state_dict() and "
                "load_state_dict()" % path)
        self._state_providers[path] = provider
        return provider

    @property
    def state_providers(self):
        """Mapping of registered state paths to providers (read-only)."""
        return dict(self._state_providers)

    def _assert_quiescent(self, verb):
        if self._running:
            raise StateError("cannot %s while the simulator is running; "
                             "call between run() chunks" % verb)
        if self._runnable or self._update_queue or self._delta_events:
            raise StateError(
                "cannot %s at a non-quiescent point: %d runnable "
                "process(es), %d staged signal(s), %d pending delta "
                "event(s)" % (verb, len(self._runnable),
                              len(self._update_queue),
                              len(self._delta_events)))
        staged = [signal.name for signal in self._signals if signal._staged]
        if staged:
            raise StateError(
                "cannot %s with staged signal writes pending: %s"
                % (verb, ", ".join(staged[:5])))

    def snapshot(self):
        """Capture the full simulation state as a plain JSON-able tree.

        Must be called at a quiescent point — after :meth:`run` has
        returned — where no delta activity is pending; anywhere else
        raises :class:`StateError`.  The tree has a ``kernel`` section
        (time, counters, signal values, the pending timed queue,
        process termination flags) and a ``components`` section with
        one ``state_dict()`` per registered provider.
        """
        self._assert_quiescent("snapshot")
        signals = {}
        drivers = {}
        for signal in self._signals:
            if signal.name in signals:
                raise StateError(
                    "duplicate signal name %r; snapshots need unique "
                    "signal names" % signal.name)
            signals[signal.name] = signal._value
            if signal._next != signal._value:
                # Committed and driven values only diverge under an
                # active injection hook; the healthy driver value must
                # survive the restore or clearing the fault would
                # recommit the corrupted value.
                drivers[signal.name] = signal._next
        timed = []
        for entry_time, seq, kind, payload in sorted(
                self._timed, key=lambda entry: entry[:2]):
            timed.append([entry_time, seq, kind, payload.name])
        kernel = {
            "now": self.now,
            "sequence": self._sequence,
            "delta_count": self.delta_count,
            "signals": signals,
            "drivers": drivers,
            "timed": timed,
            "terminated": sorted(process.name
                                 for process in self._processes
                                 if process.terminated),
        }
        components = {
            path: provider.state_dict()
            for path, provider in self._state_providers.items()
        }
        return {"kernel": kernel, "components": components}

    def restore(self, tree):
        """Load a :meth:`snapshot` tree into this (elaborated) simulator.

        The simulator must have been elaborated identically to the one
        the snapshot was taken from (same signals, processes and state
        providers); mismatches raise :class:`StateError`.  Any pending
        activity — the initial runnables of a fresh elaboration, or the
        stale schedule of a simulator being rewound — is discarded and
        replaced by the snapshot's timed queue.  Thread processes other
        than those re-armed by their owning provider (e.g.
        :class:`~repro.kernel.clock.Clock`) are not repositioned.
        """
        if self._running:
            raise StateError("cannot restore while the simulator is "
                             "running")
        kernel = tree["kernel"]

        # Discard pending activity from elaboration or a previous run.
        self._runnable.clear()
        self._update_queue.clear()
        self._delta_events.clear()
        for event in self._events:
            event._dynamic_waiters.clear()

        # Signals: the snapshot and the elaborated design must agree
        # on the exact signal set.
        by_name = {}
        for signal in self._signals:
            if signal.name in by_name:
                raise StateError("duplicate signal name %r" % signal.name)
            by_name[signal.name] = signal
        snap_signals = kernel["signals"]
        missing = sorted(set(snap_signals) - set(by_name))
        extra = sorted(set(by_name) - set(snap_signals))
        if missing or extra:
            raise StateError(
                "snapshot does not match the elaborated design: "
                "%d signal(s) only in snapshot (%s), %d only in design "
                "(%s)" % (len(missing), ", ".join(missing[:3]),
                          len(extra), ", ".join(extra[:3])))
        for name, value in snap_signals.items():
            signal = by_name[name]
            signal._value = value
            signal._next = value
            signal._staged = False
            signal._inject = None  # providers reinstall active faults
        for name, next_value in kernel.get("drivers", {}).items():
            if name not in by_name:
                raise StateError(
                    "driver value for unknown signal %r" % name)
            by_name[name]._next = next_value

        # Processes: termination flags and dynamic-wait cleanup.
        processes = {}
        ambiguous = set()
        for process in self._processes:
            if process.name in processes:
                ambiguous.add(process.name)
            processes[process.name] = process
        terminated = set(kernel.get("terminated", ()))
        unknown = terminated - set(processes)
        if unknown:
            raise StateError("snapshot terminates unknown process(es): %s"
                             % ", ".join(sorted(unknown)[:5]))
        for process in self._processes:
            process.terminated = process.name in terminated
            if isinstance(process, ThreadProcess):
                process._pending_events = ()

        # Timed queue: resolve names back to processes / events.
        events = {}
        ambiguous_events = set()
        for event in self._events:
            if event.name in events:
                ambiguous_events.add(event.name)
            events[event.name] = event
        timed = []
        for entry_time, seq, kind, name in kernel["timed"]:
            if kind == "wake":
                if name in ambiguous:
                    raise StateError(
                        "timed wake for ambiguous process name %r" % name)
                payload = processes.get(name)
                if payload is None:
                    raise StateError(
                        "timed wake for unknown process %r" % name)
            elif kind == "event":
                if name in ambiguous_events:
                    raise StateError(
                        "timed notify for ambiguous event name %r" % name)
                payload = events.get(name)
                if payload is None:
                    raise StateError(
                        "timed notify for unknown event %r" % name)
            else:
                raise StateError("unknown timed entry kind %r" % kind)
            timed.append((int(entry_time), int(seq), kind, payload))
        heapq.heapify(timed)
        self._timed = timed

        self.now = int(kernel["now"])
        self._sequence = int(kernel["sequence"])
        self.delta_count = int(kernel.get("delta_count", 0))
        self._stop_requested = False

        # Component providers, in registration order.
        components = tree.get("components", {})
        snap_paths = set(components)
        have_paths = set(self._state_providers)
        if snap_paths != have_paths:
            raise StateError(
                "snapshot component set does not match registered "
                "providers: only in snapshot %s; only registered %s"
                % (sorted(snap_paths - have_paths)[:3],
                   sorted(have_paths - snap_paths)[:3]))
        for path, provider in self._state_providers.items():
            provider.load_state_dict(components[path])
        return self.now

    # -- execution ------------------------------------------------------

    def stop(self):
        """Request the current :meth:`run` call to return at the next
        delta boundary (usable from inside processes)."""
        self._stop_requested = True

    def close(self):
        """Release a finished simulation to reference counting.

        Processes hold bound methods of their modules and every kernel
        object points back at the simulator, so a discarded design is
        a reference cycle that waits for the cyclic garbage collector,
        possibly for many runs.  Closing drops each process's
        callables and each batch's recorder, and empties the
        simulator's containers.  The models on those cycles (masters,
        slaves, monitors, checkers) and their data are then freed with
        the last outside reference.  Closing also empties each event's
        waiter lists, drops each signal's watchers and injection hook,
        and unlinks the module trees the processes belong to
        (:func:`~repro.kernel.module.unlink_trees`), so no part of the
        design is left to the cyclic collector.  A closed simulator
        cannot run again.
        """
        if self._running:
            raise SimulationError("cannot close a running simulator")
        owners = []
        for process in self._processes:
            if isinstance(process, MethodProcess):
                owner = getattr(process.fn, "__self__", None)
                if isinstance(owner, Module):
                    owners.append(owner)
                process.fn = None
            else:
                process._gen = None
                process._pending_events = ()
        unlink_trees(owners)
        for event in self._events:
            event._static_waiters.clear()
            event._dynamic_waiters.clear()
        for signal in self._signals:
            signal._watchers = None
            signal._inject = None
        for batch in self._batches:
            # the recorder's namespace holds the batch's own methods
            batch.recorder = None
        close_scheduler = getattr(self._scheduler, "close", None)
        if close_scheduler is not None:
            close_scheduler()
        self._processes = []
        self._signals = []
        self._events = []
        self._timed = []
        self._runnable = []
        self._update_queue = []
        self._delta_events = []
        self._spare_runnable = []
        self._spare_updates = []
        self._state_providers = {}
        self._batches = ()
        self._batch_scan = 0
        self._scheduler = None
        self._observer = None

    def run(self, until=None, max_time_steps=None,
            wall_clock_budget=None):
        """Advance the simulation.

        Parameters
        ----------
        until:
            Absolute kernel time at which to stop.  Timed activity
            scheduled strictly after ``until`` is left pending and the
            clock :attr:`now` is set to ``until``.  ``None`` runs until
            no timed activity remains (event starvation).
        max_time_steps:
            Optional cap on the number of distinct time points
            processed, as an extra runaway guard for tests.
        wall_clock_budget:
            Optional host wall-clock budget in seconds.  Checked
            cooperatively between time steps; exceeding it raises
            :class:`WallClockDeadlineError` so supervised runs honour
            per-run deadlines even without process isolation.

        Returns the kernel time at which the run stopped.

        With no observer attached, every eligible :attr:`batches`
        consumer records instead of running its per-cycle method: its
        process calls the batch's recorder for the whole call, on
        whichever loop runs it (the installed scheduler, the built-in
        loop, or the built-in loop continuing a run the scheduler
        handed back).  On every exit (return, stop, error, deadline,
        interrupt) the live method is restored and the rows are
        replayed.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        recording = () if self._observer is not None else tuple(
            batch for batch in self.batches if batch.eligible())
        for batch in recording:
            batch.process.fn = batch.recorder
        self._running = True
        try:
            if self._scheduler is not None and self._scheduler.run(
                    self, until, max_time_steps, wall_clock_budget):
                return self.now
            self._stop_requested = False
            return self._run_interpreted(
                until, max_time_steps, wall_clock_budget)
        finally:
            self._running = False
            for batch in recording:
                batch.process.fn = batch.live
            for batch in recording:
                batch.flush()

    def _run_interpreted(self, until, max_time_steps, wall_clock_budget,
                         wall_start=None):
        """The built-in delta-cycle loop.

        Callers hold ``_running``, have already cleared
        ``_stop_requested`` and have armed the batch recorders
        (:meth:`run`).  An installed scheduler that has to hand a
        partially executed run back (e.g. on encountering a timed entry
        it cannot handle) calls this directly, passing its own
        ``wall_start`` so the wall-clock budget spans the whole run;
        the recorders keep recording across the hand-off.
        """
        steps = 0
        if wall_start is None and wall_clock_budget is not None:
            wall_start = _time.monotonic()
        # Hot loop: bind the per-iteration lookups once.  ``_timed`` is
        # only rebound by restore(), which cannot run while running.
        settle = self._settle_deltas
        dispatch = self._dispatch_timed
        timed = self._timed
        monotonic = _time.monotonic
        while True:
            if settle():
                break
            if wall_start is not None:
                elapsed = monotonic() - wall_start
                if elapsed > wall_clock_budget:
                    raise WallClockDeadlineError(
                        elapsed, wall_clock_budget, self.now)
            if not timed:
                break
            next_time = timed[0][0]
            if until is not None and next_time > until:
                self.now = until
                break
            self.now = next_time
            dispatch(next_time)
            steps += 1
            if max_time_steps is not None and steps >= max_time_steps:
                break
        return self.now

    # -- scheduler internals ---------------------------------------------

    def _settle_deltas(self, deltas=0, comb_ids=None):
        """Run evaluate/update cycles until no process is runnable;
        returns True when :meth:`stop` was requested.

        This is the only delta loop; the compiled engine's clock edges
        settle through it too.  An edge evaluates its first rounds
        itself and passes their number as *deltas*: their update phase
        runs first, and the delta-cycle limit counts them.  It also
        passes the ids of the design's combinational processes as
        *comb_ids*; such a process woken twice in one round is
        evaluated once (it reads committed values and stages writes,
        so a second evaluation stages the same values), and every
        process is called through its ``fn``.  With no round pending
        the loop evaluates first, so writes staged outside any process
        still take a delta of their own.

        The runnable list and the update queue each ping-pong between
        two reused list objects (no per-delta list allocation), and the
        update phase is inlined so the per-delta cost is a handful of
        local operations plus the process bodies themselves.
        """
        observer = self._observer
        max_deltas = self.max_delta_cycles
        spare = self._spare_runnable
        if spare is self._runnable:  # torn state after a process error
            spare = []
        update_spare = self._spare_updates
        if update_spare is self._update_queue:
            update_spare = []
        next_runnable = self._runnable
        evaluate = not deltas
        while True:
            if evaluate:
                if not (self._runnable or self._update_queue
                        or self._delta_events):
                    break
                deltas += 1
                self.delta_count += 1
                if deltas > max_deltas:
                    suspects = sorted({process.name
                                       for process in self._runnable
                                       if not process.terminated})
                    raise DeltaCycleLimitError(
                        "exceeded %d delta cycles at %s; probable "
                        "zero-delay combinational loop"
                        % (max_deltas, format_time(self.now)),
                        process_names=suspects,
                    )
                runnable = self._runnable
                self._runnable = next_runnable = spare
                if comb_ids is None:
                    for process in runnable:
                        if process.terminated:
                            continue
                        try:
                            if observer is None:
                                process._run()
                            else:
                                started = _time.perf_counter()
                                process._run()
                                observer.on_process(
                                    process, self.now,
                                    _time.perf_counter() - started)
                        except (SimulationError, KeyboardInterrupt):
                            raise
                        except Exception as exc:
                            raise ProcessError(process.name, exc) from exc
                else:
                    seen = set()
                    process = None
                    try:
                        for process in runnable:
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
                runnable.clear()
                spare = runnable
            evaluate = True
            # Update phase: commit staged signals, then fire
            # delta-notified events.
            updates = self._update_queue
            if updates:
                self._update_queue = update_spare
                for signal in updates:
                    signal._commit(next_runnable)
                updates.clear()
                update_spare = updates
            if self._delta_events:
                fired, self._delta_events = self._delta_events, []
                for event in fired:
                    event._fire(next_runnable)
            if self._stop_requested:
                break
        self._spare_runnable = spare
        self._spare_updates = update_spare
        if observer is not None and deltas:
            observer.on_settle(self.now, deltas)
        return self._stop_requested

    def _dispatch_timed(self, at_time):
        """Pop every timed entry scheduled for *at_time*."""
        while self._timed and self._timed[0][0] == at_time:
            _, _, kind, payload = heapq.heappop(self._timed)
            if kind == "wake":
                if not payload.terminated:
                    self._runnable.append(payload)
            else:
                payload._fire(self._runnable)

    # -- introspection ----------------------------------------------------

    @property
    def signals(self):
        """Tuple of every signal registered with this simulator."""
        return tuple(self._signals)

    @property
    def processes(self):
        """Tuple of every process registered with this simulator."""
        return tuple(self._processes)

    def __repr__(self):
        return "Simulator(now=%s, processes=%d, signals=%d)" % (
            format_time(self.now),
            len(self._processes),
            len(self._signals),
        )
