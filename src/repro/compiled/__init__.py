"""Compiled execution engine for elaborated designs.

``repro.compiled`` turns an instantiated design into specialized
straight-line edge code at elaboration time:

1. :func:`~repro.compiled.graph.extract_graph` reads the static
   sensitivity/write metadata every process declared to the kernel and
   classifies processes into the clock's sequential processes and a
   combinational network, raising a loud
   :class:`~repro.compiled.errors.CompileError` for anything it cannot
   type — including a design with more than one clock, which keeps
   running on the interpreted kernel;
2. :mod:`~repro.compiled.codegen` emits one flat rising and one flat
   falling edge function for the clock; and
3. :class:`~repro.compiled.engine.CompiledEngine` installs itself as
   the simulator's pluggable scheduler, executing clock edges
   arithmetically (no heapq, no generator resume) and settling the
   combinational cascade in the kernel's own delta loop, while staying
   bit-identical to the interpreted kernel — checkpoints, replay
   digests and energy ledgers match byte for byte.  Anything it cannot
   prove safe falls back to the interpreted loop, loudly via
   :attr:`CompiledEngine.fallback_reason`.

The record/replay batches that both engines run live beside their
consumers (:mod:`repro.kernel.rowbatch`); the engine and its code
generator load only when :class:`CompiledEngine` is first used.

Typical use::

    from repro.compiled import compile_system

    system = build_paper_testbench(seed=1)
    engine = compile_system(system)     # installs the scheduler
    system.run(us(100))                 # runs compiled
    engine.uninstall()                  # back to the interpreter

"""

from .errors import CompileError
from .graph import DesignGraph, extract_graph

__all__ = [
    "CompileError",
    "CompiledEngine",
    "DesignGraph",
    "compile_simulator",
    "compile_system",
    "extract_graph",
]


def __getattr__(name):
    if name == "CompiledEngine":
        from .engine import CompiledEngine
        return CompiledEngine
    raise AttributeError("module %r has no attribute %r"
                         % (__name__, name))


def compile_simulator(sim, clocks, install=True):
    """Compile *sim* (with its one clock in *clocks*) and install the
    engine.

    Pass ``install=False`` to get an un-installed engine (e.g. for
    inspection or deferred attachment).
    """
    from .engine import CompiledEngine
    engine = CompiledEngine(sim, clocks)
    if install:
        engine.install()
    return engine


def compile_system(system, install=True):
    """Compile an :class:`~repro.workloads.testbench.AhbSystem`.

    Convenience wrapper around :func:`compile_simulator` using the
    system's simulator and bus clock.
    """
    return compile_simulator(system.sim, [system.clk], install=install)
