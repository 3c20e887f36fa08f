"""Source emission for the compiled scheduler.

The compiler emits two flat functions — ``rising``/``falling`` —
executed once per clock edge.  The emitted rising edge replicates the
interpreted kernel's work for that edge exactly, but with every
dynamic lookup resolved at compile time:

* the clock commit is two slot stores (guarded: an injection hook, a
  commit watcher, a staged write or an already-high level falls back
  to the generic, fully interpreted-identical edge);
* the sequential processes fire as straight-line ``fn`` calls on their
  process objects, in the posedge event's firing order (a compile-time
  constant, revalidated at every run) — through ``fn``, so a consumer
  whose process :meth:`~repro.kernel.Simulator.run` points at a batch
  recorder (:mod:`repro.kernel.rowbatch`) records here too;
* the error wrapper reproduces ``ProcessError`` attribution via a
  single enclosing try with a position counter instead of a per-call
  try;
* the combinational cascade that follows settles in the kernel's own
  delta loop (:meth:`~repro.kernel.Simulator._settle_deltas`), which
  is told the two rounds the edge already evaluated.
"""

from __future__ import annotations

from ..kernel.errors import ProcessError, SimulationError


def emit_module(engine, graph):
    """Build the specialized edge functions of *graph*'s clock.

    Returns ``(rising, falling)``; the functions close over *engine*
    (for the generic fallback) and the simulator (for the cascade).
    """
    domain = graph.domain
    namespace = {
        "_sim": graph.sim,
        "_generic": engine._generic_edge,
        "_settle": graph.sim._settle_deltas,
        "_comb_ids": engine._comb_ids,
        "_sig": domain.clock.signal,
        "_clk": domain.clock,
        "_names": tuple(info.process.name for info in domain.seq_pos),
        "_SimulationError": SimulationError,
        "_ProcessError": ProcessError,
    }
    for position, info in enumerate(domain.seq_pos):
        namespace["_p%d" % position] = info.process
    source = _emit_rising(domain) + "\n" + _emit_falling(domain)
    exec(compile(source, "<repro.compiled.codegen>", "exec"), namespace)
    return namespace["_rising"], namespace["_falling"]


def _emit_rising(domain):
    if domain.changed_waiters:
        # level-sensitive logic on the clock wire: every edge needs
        # the full commit machinery
        return "def _rising():\n    return _generic(1)\n"
    head = ("def _rising():\n"
            "    if (_sig._inject is not None or _sig._watchers is not None\n"
            "            or _sig._staged or _sig._value):\n"
            "        return _generic(1)\n")
    if not domain.seq_pos:
        # no rising-edge logic at all: the edge is one delta round
        return head + ("    _sim.delta_count += 1\n"
                       "    _sig._value = 1\n"
                       "    _sig._next = 1\n"
                       "    _clk.cycles += 1\n"
                       "    return False\n")
    body = ["    _sim.delta_count += 2",
            "    _sig._value = 1",
            "    _sig._next = 1",
            "    _clk.cycles += 1",
            "    _n = 0",
            "    try:"]
    for position in range(len(domain.seq_pos)):
        if position:
            body.append("        _n = %d" % position)
        body.append("        _p%d.fn()" % position)
    body.extend([
        "    except (_SimulationError, KeyboardInterrupt):",
        "        raise",
        "    except Exception as exc:",
        "        raise _ProcessError(_names[_n], exc) from exc",
        "    return _settle(2, _comb_ids)",
    ])
    return head + "\n".join(body) + "\n"


def _emit_falling(domain):
    if domain.changed_waiters or domain.neg_waiters:
        return "def _falling():\n    return _generic(0)\n"
    return ("def _falling():\n"
            "    if (_sig._inject is not None or _sig._watchers is not None\n"
            "            or _sig._staged or not _sig._value):\n"
            "        return _generic(0)\n"
            "    _sim.delta_count += 1\n"
            "    _sig._value = 0\n"
            "    _sig._next = 0\n"
            "    return False\n")
