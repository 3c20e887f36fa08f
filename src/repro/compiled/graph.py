"""Static process/signal dependency graph extraction.

At elaboration every process declared its sensitivity (and, for
combinational processes, its write set) to the kernel.  This module
reads that metadata back from an instantiated design and classifies
every process:

* **driver** — the generator thread of a :class:`~repro.kernel.clock.Clock`
  (the only thread kind the compiler accepts; any other thread has
  dynamic sensitivity and raises :class:`~repro.compiled.errors.CompileError`);
* **seq** — a method process sensitive to exactly one clock edge
  (posedge or negedge), i.e. a register/FSM update;
* **comb** — a method process sensitive to signal value changes only.
  Combinational processes must declare their write set (``writes=``)
  so they can be levelized.

The result is a :class:`DesignGraph`: per-clock domains with the seq
processes in their firing order, plus the combinational processes with
their read/write signal sets.
"""

from __future__ import annotations

from ..kernel.events import MethodProcess, ThreadProcess
from .errors import CompileError


class ProcessInfo:
    """Classification record for one method process."""

    __slots__ = ("process", "kind", "clock", "edge", "reads", "writes",
                 "level")

    def __init__(self, process, kind, clock=None, edge=None, reads=(),
                 writes=()):
        self.process = process
        self.kind = kind          # "seq" | "comb"
        self.clock = clock        # Clock (seq only)
        self.edge = edge          # "pos" | "neg" (seq only)
        self.reads = tuple(reads)     # signals (comb only)
        self.writes = tuple(writes)   # signals (comb only)
        self.level = None         # assigned by levelize()

    @property
    def name(self):
        return self.process.name

    def __repr__(self):
        return "ProcessInfo(%r, %s)" % (self.process.name, self.kind)


class ClockDomain:
    """One clock plus the sequential processes it drives."""

    __slots__ = ("clock", "driver", "seq_pos", "seq_neg",
                 "pos_waiters", "neg_waiters", "changed_waiters")

    def __init__(self, clock, driver):
        self.clock = clock
        self.driver = driver
        #: Seq processes fired on the rising / falling edge, in the
        #: event's firing order (= registration order).
        self.seq_pos = []
        self.seq_neg = []
        #: Waiter tuples captured at compile time; the engine
        #: re-validates them at every run() so late registrations
        #: fall back to the interpreted kernel instead of silently
        #: running stale compiled code.
        self.pos_waiters = ()
        self.neg_waiters = ()
        self.changed_waiters = ()

    @property
    def name(self):
        return self.clock.name

    def __repr__(self):
        return "ClockDomain(%r, seq=%d)" % (
            self.clock.name, len(self.seq_pos) + len(self.seq_neg))


class DesignGraph:
    """The extracted static structure of an elaborated design."""

    __slots__ = ("sim", "domains", "comb", "infos")

    def __init__(self, sim, domains, comb, infos):
        self.sim = sim
        self.domains = list(domains)   # [ClockDomain], clock order
        self.comb = list(comb)         # [ProcessInfo] kind == "comb"
        self.infos = dict(infos)       # process -> ProcessInfo

    def domain_of(self, clock):
        for domain in self.domains:
            if domain.clock is clock:
                return domain
        raise KeyError(clock)


def _edge_index(sim, clocks):
    """Map event id -> ("changed"|"pos"|"neg", signal) for all signals."""
    index = {}
    for signal in sim._signals:
        index[id(signal.changed)] = ("changed", signal)
        posedge, negedge = signal.edge_events()
        if posedge is not None:
            index[id(posedge)] = ("pos", signal)
        if negedge is not None:
            index[id(negedge)] = ("neg", signal)
    return index


def extract_graph(sim, clocks):
    """Classify every process of *sim* into a :class:`DesignGraph`.

    Raises :class:`CompileError` on anything the compiler cannot type:
    non-clock threads (dynamic sensitivity), bare-event sensitivity,
    edge sensitivity on a non-clock signal, mixed edge/level
    sensitivity, undeclared combinational write sets, or a customized
    ``run_fn``.
    """
    clocks = list(clocks)
    if not clocks:
        raise CompileError("no clocks supplied; compilation needs at "
                           "least one Clock to anchor its domains")
    drivers = {}
    clock_by_signal = {}
    for clock in clocks:
        drivers[clock._process] = clock
        clock_by_signal[clock.signal] = clock

    event_index = _edge_index(sim, clocks)
    domains = {clock: ClockDomain(clock, clock._process)
               for clock in clocks}
    comb = []
    infos = {}

    for process in sim._processes:
        if isinstance(process, ThreadProcess):
            if process in drivers:
                continue
            raise CompileError(
                "thread process %r has dynamic sensitivity (only Clock "
                "driver threads can be compiled); use the interpreted "
                "kernel or rewrite it as a clocked method process"
                % process.name,
                process_names=[process.name])
        if not isinstance(process, MethodProcess):
            raise CompileError(
                "unknown process kind %r for %r"
                % (type(process).__name__, process.name),
                process_names=[process.name])
        if process.run_fn.__func__ is not MethodProcess._run:
            raise CompileError(
                "process %r has a customized run_fn (wrapped by a "
                "tool?); the compiled engine only dispatches plain "
                "method processes" % process.name,
                process_names=[process.name])

        edges = []      # (edge_kind, clock)
        reads = []      # signals (level sensitivity)
        for event in process.sensitivity:
            entry = event_index.get(id(event))
            if entry is None:
                raise CompileError(
                    "process %r is sensitive to bare event %r, which "
                    "the static analyser cannot type" %
                    (process.name, event.name),
                    process_names=[process.name])
            kind, signal = entry
            if kind == "changed":
                reads.append(signal)
                continue
            clock = clock_by_signal.get(signal)
            if clock is None:
                raise CompileError(
                    "process %r is edge-sensitive to %r, which is not "
                    "a registered clock signal" %
                    (process.name, signal.name),
                    process_names=[process.name])
            edges.append((kind, clock))

        if edges and reads:
            raise CompileError(
                "process %r mixes clock-edge and signal-level "
                "sensitivity; split it into a sequential and a "
                "combinational process" % process.name,
                process_names=[process.name])
        if len(edges) > 1:
            raise CompileError(
                "process %r is sensitive to %d clock edges; compiled "
                "sequential processes belong to exactly one domain"
                % (process.name, len(edges)),
                process_names=[process.name])

        if edges:
            edge_kind, clock = edges[0]
            info = ProcessInfo(process, "seq", clock=clock,
                               edge=edge_kind)
            domain = domains[clock]
            (domain.seq_pos if edge_kind == "pos"
             else domain.seq_neg).append(info)
        else:
            if process.writes is None:
                raise CompileError(
                    "combinational process %r does not declare its "
                    "write set; pass writes=[...] at registration so "
                    "it can be levelized" % process.name,
                    process_names=[process.name])
            info = ProcessInfo(process, "comb", reads=reads,
                               writes=process.writes)
            comb.append(info)
        infos[process] = info

    # Order each domain's seq list by the actual event firing order and
    # capture the waiter tuples for run-time re-validation.
    for clock in clocks:
        domain = domains[clock]
        signal = clock.signal
        posedge, negedge = signal.edge_events()
        domain.changed_waiters = signal.changed.static_waiters
        if posedge is not None:
            domain.pos_waiters = posedge.static_waiters
            by_process = {info.process: info for info in domain.seq_pos}
            domain.seq_pos = [by_process[p] for p in domain.pos_waiters
                              if p in by_process]
        if negedge is not None:
            domain.neg_waiters = negedge.static_waiters
            by_process = {info.process: info for info in domain.seq_neg}
            domain.seq_neg = [by_process[p] for p in domain.neg_waiters
                              if p in by_process]

    return DesignGraph(sim, [domains[clock] for clock in clocks],
                       comb, infos)
