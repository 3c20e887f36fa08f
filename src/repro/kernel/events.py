"""Events and processes: the kernel's unit of concurrency.

The design mirrors SystemC's simulation semantics:

* an :class:`Event` is a named synchronisation point that processes can
  be *statically* sensitive to (method processes) or *dynamically* wait
  on (thread processes);
* a :class:`MethodProcess` is a plain callable re-run whenever one of
  the events in its sensitivity list fires (``SC_METHOD``);
* a :class:`ThreadProcess` is a Python generator that ``yield``-s wait
  specifications — an event, a signal, an integer delay or a collection
  meaning *wait for any* (``SC_THREAD`` with dynamic sensitivity).

Events can be notified with a *delta* delay (fires at the end of the
current delta cycle) or a *timed* delay in kernel time units.
"""

from __future__ import annotations

from .errors import SimulationError


class Event:
    """A notifiable synchronisation point.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.kernel.simulator.Simulator`.
    name:
        Diagnostic name used in error messages and traces.
    """

    __slots__ = ("sim", "name", "_static_waiters", "_dynamic_waiters")

    def __init__(self, sim, name="event"):
        self.sim = sim
        self.name = name
        self._static_waiters = []
        self._dynamic_waiters = []
        register = getattr(sim, "_register_event", None)
        if register is not None:
            register(self)

    def __repr__(self):
        return "Event(%r)" % self.name

    @property
    def static_waiters(self):
        """Tuple of processes statically sensitive to this event.

        Exposed for static analysis (the :mod:`repro.compiled` graph
        extractor); the kernel itself keeps using the internal list.
        """
        return tuple(self._static_waiters)

    def notify(self, delay=None):
        """Schedule this event to fire.

        ``delay=None`` requests a *delta* notification: the event fires
        in the update phase of the current delta cycle.  An integer
        ``delay >= 0`` requests a timed notification that many kernel
        time units in the future.
        """
        if delay is None:
            self.sim._schedule_delta_event(self)
        else:
            if delay < 0:
                raise ValueError("negative event delay: %r" % delay)
            self.sim._schedule_timed_event(self, int(delay))

    def _add_static(self, process):
        """Register *process* as statically sensitive to this event."""
        self._static_waiters.append(process)

    def _add_dynamic(self, process):
        """Register *process* for a one-shot wake-up on the next firing."""
        self._dynamic_waiters.append(process)

    def _remove_dynamic(self, process):
        """Drop a one-shot registration (used by wait-any cleanup)."""
        try:
            self._dynamic_waiters.remove(process)
        except ValueError:
            pass

    def _fire(self, runnable):
        """Collect every process woken by this event into *runnable*."""
        for process in self._static_waiters:
            runnable.append(process)
        if self._dynamic_waiters:
            woken = self._dynamic_waiters
            self._dynamic_waiters = []
            for process in woken:
                process._dynamic_wake(self, runnable)


class Process:
    """Common bookkeeping shared by method and thread processes.

    ``run_fn`` is the callable the scheduler dispatches; it defaults to
    the process's own ``_run``.  Time activations with a kernel
    observer (:meth:`Simulator.attach_observer`) rather than by
    replacing it: the compiled engine declines a replaced ``run_fn``.
    """

    __slots__ = ("sim", "name", "terminated", "run_fn")

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.terminated = False
        self.run_fn = self._run

    def _run(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _dynamic_wake(self, event, runnable):  # pragma: no cover
        raise NotImplementedError

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.name)


class MethodProcess(Process):
    """A callable re-evaluated whenever its sensitivity list fires.

    Method processes model combinational logic: they must run to
    completion, may read and write signals, but cannot suspend.
    """

    __slots__ = ("fn", "sensitivity", "writes")

    def __init__(self, sim, name, fn, sensitivity, initialize=True,
                 writes=None):
        super().__init__(sim, name)
        self.fn = fn
        #: Resolved static sensitivity, kept as a reusable tuple of
        #: :class:`Event` objects instead of being discarded into the
        #: events' waiter lists — static analysis reads it back and the
        #: tuple is shared rather than rebuilt per query.
        events = tuple(_as_event(trigger) for trigger in sensitivity)
        self.sensitivity = events
        #: Optional declared write set: the signals this process may
        #: write, as a tuple, or ``None`` when undeclared.  Purely
        #: metadata — the kernel never enforces it; the compiler
        #: requires it for combinational processes.
        self.writes = tuple(writes) if writes is not None else None
        for event in events:
            event._add_static(self)
        if initialize:
            sim._make_runnable(self)

    def _run(self):
        self.fn()

    def _dynamic_wake(self, event, runnable):
        raise SimulationError(
            "method process %r cannot wait dynamically" % self.name
        )


class ThreadProcess(Process):
    """A generator-based process with dynamic waits.

    The generator function is called once at elaboration; each ``yield``
    suspends the process on a wait specification:

    ``int``
        resume after that many kernel time units;
    :class:`Event` or signal
        resume when it fires / changes;
    ``list`` / ``tuple`` / ``set`` of the above
        resume when **any** of them fires.

    Returning (or raising ``StopIteration``) terminates the process.
    """

    __slots__ = ("_gen", "_pending_events")

    def __init__(self, sim, name, generator_fn):
        super().__init__(sim, name)
        self._gen = generator_fn()
        self._pending_events = ()
        sim._make_runnable(self)

    def _run(self):
        try:
            wait_spec = next(self._gen)
        except StopIteration:
            self.terminated = True
            return
        self._suspend_on(wait_spec)

    def _suspend_on(self, wait_spec):
        """Arm the wake-up condition described by *wait_spec*."""
        if isinstance(wait_spec, int):
            if wait_spec < 0:
                raise SimulationError(
                    "thread %r yielded a negative delay %r"
                    % (self.name, wait_spec)
                )
            self.sim._schedule_timed_wake(self, wait_spec)
            return
        if isinstance(wait_spec, (list, tuple, set, frozenset)):
            events = tuple(_as_event(item) for item in wait_spec)
            if not events:
                raise SimulationError(
                    "thread %r yielded an empty wait list" % self.name
                )
        else:
            events = (_as_event(wait_spec),)
        self._pending_events = events
        for event in events:
            event._add_dynamic(self)

    def _dynamic_wake(self, event, runnable):
        for pending in self._pending_events:
            if pending is not event:
                pending._remove_dynamic(self)
        self._pending_events = ()
        runnable.append(self)


def _as_event(trigger):
    """Coerce a wait/sensitivity item into an :class:`Event`.

    Accepts events directly and anything exposing a ``changed`` event
    attribute (signals); this keeps call sites free of adapter noise:
    ``yield self.clk.posedge`` and ``yield some_signal`` both work.
    """
    if isinstance(trigger, Event):
        return trigger
    changed = getattr(trigger, "changed", None)
    if isinstance(changed, Event):
        return changed
    raise TypeError(
        "cannot wait on %r: expected an Event or a Signal" % (trigger,)
    )
