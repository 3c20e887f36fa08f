"""The batched power-monitor replay ≡ the scalar step, row by row.

:class:`~repro.power.monitor_batch.MonitorBatch` replays recorded rows
in blocks; :meth:`GlobalPowerMonitor._step` is the per-cycle reference.
These tests feed both the same random rows with no simulation: every
code inside the recorder's guards, every value inside its column's
width, random owners and grants, increasing time stamps, cut into
random blocks.  After every block the monitor state (ledger and FSM
included), the per-master chargeback and every sink's contents (the
power traces, the instruction log and each column a power-FSM tracer
received) must be equal.  A value beyond int64 forces the scalar
fallback.
"""

import pytest

from repro.amba import AhbBus, AhbConfig
from repro.kernel import Clock, MHz, Simulator
from repro.power.monitor_batch import MonitorBatch
from repro.power.monitors import GlobalPowerMonitor

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

N_MASTERS = 3


class _ColumnLog:
    """A power-FSM tracer that logs every column it is given, one
    tuple per cycle, so the log does not depend on the block cuts."""

    def __init__(self):
        self.cycles = []

    def on_block(self, times, codes, instructions, energies, totals):
        self.cycles.extend(zip(
            times, codes, instructions, totals,
            *[[(block, energy) for energy in column]
              for block, column in energies.items()]))


def _monitor():
    """A global monitor on a 3-master, 2-slave bus that is never
    simulated, with power traces, an instruction log and a column log
    as its tracer.  Returns it and its record/replay batch."""
    sim = Simulator()
    clk = Clock.from_frequency(sim, "clk", MHz(100))
    config = AhbConfig.with_uniform_map(n_masters=N_MASTERS, n_slaves=2,
                                        region_size=0x1000,
                                        default_master=2)
    bus = AhbBus(sim, "ahb", clk, config)
    monitor = GlobalPowerMonitor(sim, "pm", bus, with_traces=True)
    monitor.fsm.enable_logging()
    monitor.fsm.tracer = _ColumnLog()
    (batch,) = [batch for batch in sim.batches
                if isinstance(batch, MonitorBatch)]
    assert batch.eligible()
    return monitor, batch


def _observed(monitor):
    traces = monitor.fsm.traces.traces
    return (monitor.state_dict(), list(monitor.master_energy),
            {name: (trace._times[:], trace._energies[:])
             for name, trace in traces.items()},
            list(monitor.fsm.tracer.cycles))


@st.composite
def recorded_rows(draw):
    """Rows as the recorder appends them: HTRANS and HRESP in 0..3, an
    owner in ``-n..n-1``, every other value inside its column's width,
    each column often holding its previous value, then an increasing
    time stamp."""
    monitor, _ = _monitor()
    owner_col = monitor._owner_col
    widths = [signal.width for signal in monitor.columns]
    ranges = [(0, (1 << width) - 1) for width in widths]
    ranges[owner_col] = (-N_MASTERS, N_MASTERS - 1)
    ranges[owner_col + 1] = (0, N_MASTERS - 1)
    small = draw(st.booleans())
    rows, now = [], 0
    for _ in range(draw(st.integers(1, 40))):
        now += draw(st.integers(1, 20_000))
        row = []
        for column, (low, high) in enumerate(ranges):
            if rows and draw(st.integers(0, 2)) == 0:
                row.append(rows[-1][column])
            elif small and column != owner_col:
                row.append(draw(st.integers(low, min(high, 3))))
            else:
                row.append(draw(st.integers(low, high)))
        rows.append((*row, now))
    return rows


def _cut(rows, sizes):
    """*rows* as consecutive blocks of the given sizes (the last one
    takes the rest)."""
    blocks, start = [], 0
    for size in sizes:
        if start >= len(rows):
            break
        blocks.append(rows[start:start + size])
        start += size
    if start < len(rows):
        blocks.append(rows[start:])
    return blocks


class TestBatchEqualsStepProperty:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=recorded_rows(),
           sizes=st.lists(st.integers(1, 12), max_size=8))
    def test_blocks_match_rows(self, rows, sizes):
        reference, _ = _monitor()
        monitor, batch = _monitor()
        for block in _cut(rows, sizes):
            for row in block:
                reference._step(row[:-1], row[-1])
            batch._rows.extend(block)
            batch.flush()
            assert _observed(monitor) == _observed(reference)
        assert batch.rows_replayed == len(rows)

    def test_value_beyond_int64_replays_through_the_step(self):
        reference, _ = _monitor()
        monitor, batch = _monitor()
        wdata = monitor.columns.index(monitor.bus.hwdata)
        quiet = (0,) * len(monitor.columns) + (10_000,)
        huge = list(quiet)
        huge[0], huge[wdata] = 2, (1 << 63) + 5
        blocks = ([quiet, (2,) + quiet[1:]],
                  [(3,) + quiet[1:], tuple(huge)],
                  # the stored HWDATA is beyond int64 too
                  [quiet],
                  [quiet, (2,) + quiet[1:]])
        for index, block in enumerate(blocks):
            for row in block:
                reference._step(row[:-1], row[-1])
            if index in (1, 2):
                before = _observed(monitor)
                with pytest.raises(OverflowError):
                    batch._flush_np(block)
                assert _observed(monitor) == before
            batch._rows.extend(block)
            batch.flush()
            assert _observed(monitor) == _observed(reference)
