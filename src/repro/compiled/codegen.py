"""Source emission for the compiled scheduler.

For every clock domain the compiler emits two flat functions —
``rising``/``falling`` — executed once per clock edge.  The emitted
rising edge replicates the interpreted kernel's work for that edge
exactly, but with every dynamic lookup resolved at compile time:

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
* the combinational cascade that follows is handed to the engine's
  shared settle loop.
"""

from __future__ import annotations


def emit_module(engine, graph):
    """Build the specialized edge functions for every domain.

    Returns ``{clock: (rising, falling)}``; the functions close over
    *engine* (for the generic fallback and the cascade).
    """
    lines = []
    namespace = {
        "_sim": graph.sim,
        "_generic": engine._generic_edge,
        "_settle": engine._settle_after,
        "_SimulationError": _simulation_error(),
        "_ProcessError": _process_error(),
    }
    for index, domain in enumerate(graph.domains):
        namespace["_sig_%d" % index] = domain.clock.signal
        namespace["_clk_%d" % index] = domain.clock
        namespace["_dom_%d" % index] = domain
        names = []
        for position, info in enumerate(domain.seq_pos):
            namespace["_p%d_%d" % (index, position)] = info.process
            names.append(info.process.name)
        namespace["_names_%d" % index] = tuple(names)
        lines.append(_emit_rising(index, domain))
        lines.append(_emit_falling(index, domain))
    source = "\n".join(lines)
    code = compile(source, "<repro.compiled.codegen>", "exec")
    exec(code, namespace)
    return {
        domain.clock: (namespace["_rising_%d" % index],
                       namespace["_falling_%d" % index])
        for index, domain in enumerate(graph.domains)
    }


def _emit_rising(index, domain):
    sig = "_sig_%d" % index
    guard = ("    if (%s._inject is not None or %s._watchers is not None\n"
             "            or %s._staged or %s._value):\n"
             "        return _generic(_dom_%d, 1)\n"
             % (sig, sig, sig, sig, index))
    head = ("def _rising_%d():\n" % index) + guard
    if domain.changed_waiters or not domain.seq_pos:
        if domain.changed_waiters:
            # level-sensitive logic on the clock wire: every edge needs
            # the full commit machinery
            return ("def _rising_%d():\n"
                    "    return _generic(_dom_%d, 1)\n" % (index, index))
        # no rising-edge logic at all: the edge is one delta round
        return head + ("    _sim.delta_count += 1\n"
                       "    %s._value = 1\n"
                       "    %s._next = 1\n"
                       "    _clk_%d.cycles += 1\n"
                       "    return False\n" % (sig, sig, index))
    body = ["    _sim.delta_count += 2",
            "    %s._value = 1" % sig,
            "    %s._next = 1" % sig,
            "    _clk_%d.cycles += 1" % index,
            "    _n = 0",
            "    try:"]
    for position, info in enumerate(domain.seq_pos):
        if position:
            body.append("        _n = %d" % position)
        body.append("        _p%d_%d.fn()" % (index, position))
    body.extend([
        "    except (_SimulationError, KeyboardInterrupt):",
        "        raise",
        "    except Exception as exc:",
        "        raise _ProcessError(_names_%d[_n], exc) from exc" % index,
        "    return _settle(2)",
    ])
    return head + "\n".join(body) + "\n"


def _emit_falling(index, domain):
    sig = "_sig_%d" % index
    if domain.changed_waiters or domain.neg_waiters:
        return ("def _falling_%d():\n"
                "    return _generic(_dom_%d, 0)\n" % (index, index))
    return ("def _falling_%d():\n"
            "    if (%s._inject is not None or %s._watchers is not None\n"
            "            or %s._staged or not %s._value):\n"
            "        return _generic(_dom_%d, 0)\n"
            "    _sim.delta_count += 1\n"
            "    %s._value = 0\n"
            "    %s._next = 0\n"
            "    return False\n"
            % (index, sig, sig, sig, sig, index, sig, sig))


def _simulation_error():
    from ..kernel.errors import SimulationError
    return SimulationError


def _process_error():
    from ..kernel.errors import ProcessError
    return ProcessError
