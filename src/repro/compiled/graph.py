"""Static process/signal dependency graph extraction.

At elaboration every process declared its sensitivity (and, for
combinational processes, its write set) to the kernel.  This module
reads that metadata back from an instantiated design and classifies
every process:

* **driver** — the generator thread of the design's one
  :class:`~repro.kernel.clock.Clock` (the only thread kind the
  compiler accepts; any other thread has dynamic sensitivity and
  raises :class:`~repro.compiled.errors.CompileError`);
* **seq** — a method process sensitive to exactly one clock edge
  (posedge or negedge), i.e. a register/FSM update;
* **comb** — a method process sensitive to signal value changes only.
  Combinational processes must declare their write set (``writes=``)
  so the compiler can prove that none of them drives the clock.

The result is a :class:`DesignGraph`: the clock domain with its seq
processes in their firing order, plus the combinational processes with
their read/write signal sets.  Combinational processes run in the
kernel's delta loop in the order they wake, as on the interpreted
kernel, so a combinational loop settles (or trips the delta-cycle
limit) exactly as it does there.
"""

from __future__ import annotations

from ..kernel.events import MethodProcess, ThreadProcess
from .errors import CompileError


class ProcessInfo:
    """Classification record for one method process."""

    __slots__ = ("process", "kind", "edge", "reads", "writes")

    def __init__(self, process, kind, edge=None, reads=(), writes=()):
        self.process = process
        self.kind = kind          # "seq" | "comb"
        self.edge = edge          # "pos" | "neg" (seq only)
        self.reads = tuple(reads)     # signals (comb only)
        self.writes = tuple(writes)   # signals (comb only)

    @property
    def name(self):
        return self.process.name

    def __repr__(self):
        return "ProcessInfo(%r, %s)" % (self.process.name, self.kind)


class ClockDomain:
    """The clock plus the sequential processes it drives."""

    __slots__ = ("clock", "driver", "seq_pos", "seq_neg",
                 "pos_waiters", "neg_waiters", "changed_waiters")

    def __init__(self, clock):
        self.clock = clock
        self.driver = clock._process
        #: Seq processes fired on the rising / falling edge; the
        #: rising ones in the event's firing order.
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

    __slots__ = ("sim", "domain", "comb")

    def __init__(self, sim, domain, comb):
        self.sim = sim
        self.domain = domain           # ClockDomain
        self.comb = list(comb)         # [ProcessInfo] kind == "comb"


def _edge_index(sim):
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

    *clocks* must hold exactly one clock: the engine emits one clock
    edge, and designs with several clocks run on the interpreted
    kernel.  Raises :class:`CompileError` on anything the compiler
    cannot type: another clock count, non-clock threads (dynamic
    sensitivity), bare-event sensitivity, edge sensitivity on a
    non-clock signal, mixed edge/level sensitivity, or undeclared
    combinational write sets.
    """
    clocks = list(clocks)
    if len(clocks) != 1:
        raise CompileError(
            "the compiled engine runs designs with exactly one clock, "
            "got %d (%s); run this design on the interpreted kernel"
            % (len(clocks), ", ".join(clock.name for clock in clocks)
               or "none"))
    domain = ClockDomain(clocks[0])
    clock_signal = domain.clock.signal
    event_index = _edge_index(sim)
    comb = []

    for process in sim._processes:
        if isinstance(process, ThreadProcess):
            if process is domain.driver:
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

        edges = []      # edge kinds on the clock signal
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
            if signal is not clock_signal:
                raise CompileError(
                    "process %r is edge-sensitive to %r, which is not "
                    "a registered clock signal" %
                    (process.name, signal.name),
                    process_names=[process.name])
            edges.append(kind)

        if edges and reads:
            raise CompileError(
                "process %r mixes clock-edge and signal-level "
                "sensitivity; split it into a sequential and a "
                "combinational process" % process.name,
                process_names=[process.name])
        if len(edges) > 1:
            raise CompileError(
                "process %r is sensitive to %d clock edges; compiled "
                "sequential processes fire on exactly one"
                % (process.name, len(edges)),
                process_names=[process.name])

        if edges:
            info = ProcessInfo(process, "seq", edge=edges[0])
            (domain.seq_pos if edges[0] == "pos"
             else domain.seq_neg).append(info)
        else:
            if process.writes is None:
                raise CompileError(
                    "combinational process %r does not declare its "
                    "write set; pass writes=[...] at registration so "
                    "the compiler can prove it leaves the clock alone"
                    % process.name,
                    process_names=[process.name])
            comb.append(ProcessInfo(process, "comb", reads=reads,
                                    writes=process.writes))

    # Order the rising-edge processes by the actual event firing order
    # (the emitted edge calls them in it) and capture the waiter
    # tuples for run-time re-validation.
    posedge, negedge = clock_signal.edge_events()
    domain.changed_waiters = clock_signal.changed.static_waiters
    if posedge is not None:
        domain.pos_waiters = posedge.static_waiters
        by_process = {info.process: info for info in domain.seq_pos}
        domain.seq_pos = [by_process[p] for p in domain.pos_waiters
                          if p in by_process]
    if negedge is not None:
        domain.neg_waiters = negedge.static_waiters

    return DesignGraph(sim, domain, comb)
