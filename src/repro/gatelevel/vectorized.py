"""Batched (NumPy-vectorized) gate-level switching simulation.

The scalar :class:`~repro.gatelevel.simulate.GateLevelSimulator`
evaluates one vector at a time with a Python dict lookup per cell pin —
fine for protocol work, but macromodel characterisation sweeps apply
thousands of vectors to the same netlist.  :func:`run_batch` evaluates
a whole vector batch in one pass: every net becomes a ``uint8`` row
of length *N* in one preallocated state matrix, and every cell writes
its row with one in-place ufunc call (two for an inverting cell), so
the per-cell interpreter cost is paid once per *batch* instead of once
per *vector*.  Buses up to 63 bits wide decode from one ``int64``
array.

Exactness contract — the batch is the scalar ``step_ints`` sweep of
the same vectors, bit for bit:

* **toggle counts are exact integers** — a toggle is a value
  inequality between consecutive settled states, computed on the full
  0/1 column including the simulator's carried-over state;
* **energies are bit-identical** — each ``per_vector_energy`` entry is
  the scalar ``StepResult.energy`` of that vector.  The scalar step
  sums input-net charges in the order the inputs were applied, sums
  the cell-output charges in levelised order in a separate float, adds
  the two, then charges each flip-flop's Q toggle and clock pin in
  netlist order.  The batch adds ``½CV²`` net by net over the whole
  row in exactly that order — a block of nets' terms at a time, each
  term row added in place, never summed across nets first — and a
  net that did not flip adds ``0.0``, which changes nothing.  Input
  nets are charged in the order each
  vector names its buses (a bus-column mapping names them in its key
  order), and the simulator's ``total_energy`` is accumulated vector
  by vector, as the scalar sweep does;
* the simulator's end-of-batch state (``values``, ``toggle_counts``,
  ``total_toggles``, ``steps``, ``total_energy``) is identical to the
  scalar sweep, so scalar and batched stepping can be freely
  interleaved.

Scope: combinational netlists (the paper's decoder and multiplexer
blocks) and *feed-forward* flip-flops — no cell input and no flop D
reads a flop Q, as in the synthesized arbiter with its registered
grant.  There every Q column is its D column, and the second settle
after the clock edge changes nothing.  A flop whose Q feeds back into
the logic creates a cross-vector recurrence that would serialize the
batch, so such netlists raise :class:`ValueError`; step them with the
scalar simulator.  Cell types outside the stock library evaluate
through a per-cell ``np.frompyfunc`` fallback (correct, but without
the vectorized fast path).
"""

from __future__ import annotations

from collections.abc import Mapping

try:
    import numpy as _np
except ImportError:          # pragma: no cover - numpy is baked in
    _np = None

from .gates import bits_to_int
from .simulate import _is_scalar

#: The stock library by cell name, as ``(ufunc, inverting)``: a cell
#: writes ``ufunc(*inputs)`` straight into its output row, and an
#: inverting cell then takes ``1 - x`` of that row in place.  On
#: ``uint8`` 0/1 rows this is the scalar ``fn``'s truth table.
_CELL_UFUNCS = {} if _np is None else {
    "INV": (_np.positive, True),
    "BUF": (_np.positive, False),
    "AND2": (_np.bitwise_and, False),
    "OR2": (_np.bitwise_or, False),
    "NAND2": (_np.bitwise_and, True),
    "NOR2": (_np.bitwise_or, True),
    "XOR2": (_np.bitwise_xor, False),
    "XNOR2": (_np.bitwise_xor, True),
}

#: Float terms per charging block: a block of rows holds about this
#: many ``float64`` terms (64 KiB), whatever the batch length.
_BLOCK_CELLS = 1 << 13


class BatchResult:
    """Aggregate outcome of one vectorized batch.

    ``per_vector_toggles`` (``int64``) and ``per_vector_energy``
    (``float64``) are arrays of length *N* holding each applied
    vector's exact toggle count and switching energy — what the scalar
    path reports step by step.  ``outputs`` is the ``(N, n_outputs)``
    ``uint8`` matrix of primary-output values after each vector, in
    ``netlist.outputs`` order.
    """

    __slots__ = ("toggles", "energy", "steps", "per_vector_toggles",
                 "per_vector_energy", "outputs")

    def __init__(self, toggles, energy, steps, per_vector_toggles,
                 per_vector_energy, outputs):
        self.toggles = toggles
        self.energy = energy
        self.steps = steps
        self.per_vector_toggles = per_vector_toggles
        self.per_vector_energy = per_vector_energy
        self.outputs = outputs

    def __repr__(self):
        return "BatchResult(steps=%d, toggles=%d, energy=%.3e J)" % (
            self.steps, self.toggles, self.energy,
        )


def _words(values):
    """*values* as one ``int64`` array, or ``None`` if one of them does
    not fit, or they are an array of non-integers (which NumPy would
    cast without complaint)."""
    if getattr(values, "dtype", _np.dtype(int)).kind not in "biu":
        return None
    try:
        words = _np.asarray(values, dtype=_np.int64)
    except (OverflowError, TypeError, ValueError):
        return None
    return words if words.ndim == 1 else None


def bus_bits(values, width):
    """Decode integers into an ``(N, width)`` ``uint8`` bit matrix,
    LSB first — :func:`~repro.gatelevel.gates.int_to_bits` row by row.

    Exact at any width.  Up to 63 bits, values that fit ``int64``
    unpack from that array's little-endian bytes, whose low *width*
    bits are the value's two's-complement digits.  Wider buses and
    values beyond ``int64`` are masked to *width* bits and unpacked
    from their own bytes, never squeezed through a fixed-width dtype.
    """
    words = _words(values) if width <= 63 else None
    if words is not None:
        octets = words.astype("<i8", copy=False).view(_np.uint8)
        return _np.unpackbits(octets.reshape(-1, 8), axis=1, count=width,
                              bitorder="little")
    mask = (1 << width) - 1
    size = (width + 7) // 8
    packed = b"".join((int(value) & mask).to_bytes(size, "little")
                      for value in values)
    octets = _np.frombuffer(packed, dtype=_np.uint8).reshape(-1, size)
    return _np.unpackbits(octets, axis=1, count=width, bitorder="little")


def _bus_columns(simulator, vectors):
    """Turn ``step_ints``-style bus dicts into bus columns.

    Reproduces the scalar sweep's semantics exactly: a bus absent from
    a vector keeps its previous value (at first, the simulator's
    current one).  Also returns the vectors' bus orders: each distinct
    order in which a vector names its buses, with the indices of the
    vectors that name them so — ``step`` charges input nets in that
    order.
    """
    orders = {}
    for index, vector in enumerate(vectors):
        orders.setdefault(tuple(vector), []).append(index)
    columns = {}
    for name in dict.fromkeys(name for order in orders for name in order):
        held = bits_to_int([simulator.values[net]
                            for net in simulator._bus_nets(name)])
        column = []
        for vector in vectors:
            held = vector.get(name, held)
            column.append(held)
        columns[name] = column
    return columns, list(orders.items())


def _evaluate(cell, row_of):
    """Write *cell*'s output row from its input rows (*row_of* maps
    each net to its row)."""
    out = row_of[cell.output]
    inputs = [row_of[net] for net in cell.inputs]
    fast = _CELL_UFUNCS.get(cell.cell_type.name)
    if fast is None:
        wrapped = _np.frompyfunc(cell.cell_type.fn,
                                 cell.cell_type.n_inputs, 1)
        out[:] = wrapped(*inputs)
        return
    ufunc, inverting = fast
    ufunc(*inputs, out)
    if inverting:
        _np.subtract(1, out, out)


def _check_feed_forward(netlist):
    """Raise :class:`ValueError` if any cell or flop D reads a flop Q."""
    q_nets = {flop.q for flop in netlist.dffs}
    if not q_nets:
        return
    readers = [(net, "cell %s" % cell.output.name)
               for cell in netlist.cells for net in cell.inputs]
    readers += [(flop.d, "flip-flop %s" % flop.q.name)
                for flop in netlist.dffs]
    for net, reader in readers:
        if net in q_nets:
            raise ValueError(
                "netlist %r feeds flip-flop output %s back into %s; the "
                "batched path takes feed-forward flops only (feedback "
                "serializes the batch) — use the scalar simulator"
                % (netlist.name, net.name, reader))


def run_batch(simulator, vectors):
    """Apply *vectors* to *simulator* in one vectorized pass.

    Parameters
    ----------
    simulator:
        A :class:`~repro.gatelevel.simulate.GateLevelSimulator` whose
        netlist is combinational or has feed-forward flip-flops only.
    vectors:
        Either a mapping from bus name to an integer sequence, where
        every vector sets every bus (all sequences have length *N*),
        or a sequence of *N* bus-value dicts, each shaped like the
        keyword arguments of
        :meth:`~repro.gatelevel.simulate.GateLevelSimulator.step_ints`.
        Each vector is clocked, as ``step_ints`` clocks it.

    Returns a :class:`BatchResult`; the simulator's committed state
    and energy ledger afterwards match a scalar ``step_ints`` sweep
    exactly (see the module docstring).
    """
    if _np is None:            # pragma: no cover - numpy is baked in
        raise RuntimeError("NumPy is required for batched simulation")
    netlist = simulator.netlist
    _check_feed_forward(netlist)
    if isinstance(vectors, Mapping):
        buses, orders = vectors, [(tuple(vectors), None)]
    else:
        vectors = list(vectors)
        buses, orders = _bus_columns(simulator, vectors)
    lengths = {len(column) for column in buses.values()}
    if len(lengths) > 1:
        raise ValueError("bus columns differ in length: %s"
                         % sorted(lengths))
    count = lengths.pop() if lengths else len(vectors)

    # One row per net that can switch: its state before the batch,
    # then its column.  A flip is a change between neighbours in a row.
    values = simulator.values
    applied = []                # input nets, bus by bus
    bus_rows = {}
    for name in buses:
        nets = simulator._bus_nets(name)
        bus_rows[name] = range(len(applied), len(applied) + len(nets))
        applied += nets
    charged = (applied + [cell.output for cell in simulator._order]
               + [flop.q for flop in netlist.dffs])
    states = _np.empty((len(charged), count + 1), dtype=_np.uint8)
    states[:, 0] = [values[net] for net in charged]
    row_of = dict(zip(charged, states[:, 1:]))
    for net in netlist.inputs:  # inputs the batch never sets hold still
        if net not in row_of:
            row_of[net] = _np.full(count, values[net], dtype=_np.uint8)

    for name, column in buses.items():
        nets = simulator._bus_nets(name)
        if _is_scalar(nets):
            bits = _np.fromiter((1 if value else 0 for value in column),
                                dtype=_np.uint8, count=count)[:, None]
        else:
            bits = bus_bits(column, len(nets))
        span = bus_rows[name]
        states[span.start:span.stop, 1:] = bits.T
    for cell in simulator._order:
        _evaluate(cell, row_of)
    for flop in netlist.dffs:
        row_of[flop.q][:] = row_of[flop.d]

    flips = states[:, 1:] != states[:, :-1]
    net_toggles = _np.count_nonzero(flips, axis=1)
    for net, toggles, last in zip(charged, net_toggles.tolist(),
                                  states[:, -1].tolist()):
        simulator.toggle_counts[net] += toggles
        values[net] = last

    scale = simulator._energy_scale
    charges = _np.array([net.capacitance for net in charged]) * scale
    toggled = net_toggles > 0
    block = max(1, _BLOCK_CELLS // max(count, 1))

    def charge(energy, rows, among=None):
        """Add ``½CV²`` of each net in *rows* (an index array) to
        *energy* where it flipped (and *among* is set, if given), one
        net after another in *rows* order.

        Nets go in blocks: one multiply makes a block's terms, then
        each term row is added to *energy* in place, so every vector's
        float sum is the scalar step's.  (A ``sum`` or ``add.reduce``
        across rows may pair the terms differently and round
        differently.)
        """
        rows = rows[toggled[rows]]
        for start in range(0, len(rows), block):
            part = rows[start:start + block]
            flipped = flips[part]
            if among is not None:
                flipped &= among
            for term in _np.multiply(flipped, charges[part, None]):
                energy += term

    cells_end = len(applied) + len(simulator._order)
    energy = _np.zeros(count)
    for names, members in orders:
        among = None
        if len(orders) > 1:
            among = _np.zeros(count, dtype=bool)
            among[members] = True
        charge(energy, _np.array([row for name in names
                                  for row in bus_rows[name]], dtype=int),
               among)
    cell_energy = _np.zeros(count)
    charge(cell_energy, _np.arange(len(applied), cells_end))
    energy += cell_energy
    for row, flop in enumerate(netlist.dffs, cells_end):
        charge(energy, _np.array([row]))
        energy += flop.clock_cap * 2 * scale

    outputs = _np.empty((count, len(netlist.outputs)), dtype=_np.uint8)
    for position, net in enumerate(netlist.outputs):
        row = row_of.get(net)
        outputs[:, position] = values[net] if row is None else row

    per_vector = flips.sum(axis=0, dtype=_np.int64)
    total_toggles = int(per_vector.sum())
    batch_energy = 0.0
    total_energy = simulator.total_energy
    for step_energy in energy.tolist():
        batch_energy += step_energy
        total_energy += step_energy
    simulator.total_energy = total_energy
    simulator.total_toggles += total_toggles
    simulator.steps += count
    return BatchResult(total_toggles, batch_energy, count, per_vector,
                       energy, outputs)
