"""Batched replay of the :class:`GlobalPowerMonitor`.

On both engines the monitor is one consumer of the record/replay
protocol (:mod:`repro.kernel.rowbatch`): its recorder appends the
committed values in the monitor's :attr:`~GlobalPowerMonitor.columns`
layout, then the time stamp, and a flush runs the monitor's own
definitions on the block's int64 columns: the integer terms of
:class:`~repro.power.monitors.BusCycle`, applied by
:meth:`GlobalPowerMonitor._fold`, the macromodels' energy expressions,
and :meth:`GlobalPowerMonitor._charge`, which hands the block to the
power FSM's block step (ledger, traces, instruction log and tracer)
and charges each cycle to its owner.  This module keeps the rest: the
range guards (an HTRANS or HRESP code outside 0..3 or an owner outside
``-n..n-1`` runs the live monitor, so the error and the torn state are
the per-cycle ones) and the eligibility checks.

Identity with :meth:`GlobalPowerMonitor._step`, which replays a block
holding a value beyond int64 row by row, is the contract: integers are
exact and all converted before the first mutation; the energy
expressions run elementwise on float64 arrays, which round as CPython
floats do; the sequential float accumulators add in cycle order
(:meth:`~repro.power.power_fsm.PowerFsm.step_block`), since float
addition is not associative.
"""

from __future__ import annotations

from itertools import chain

import numpy as _np

from ..kernel.rowbatch import RowBatch
from .hamming import block_primitives
from .monitors import GlobalPowerMonitor

_BLOCK = block_primitives(_np)
_RESP_NAMES = ("OKAY", "ERROR", "RETRY", "SPLIT")

#: Signal widths above this cannot be masked inside int64 arrays.
_MAX_NP_WIDTH = 62


class MonitorBatch(RowBatch):
    """Recorder + replayer for one :class:`GlobalPowerMonitor`."""

    live_function = GlobalPowerMonitor._on_clk
    owner_types = (GlobalPowerMonitor,)

    def __init__(self, process):
        monitor = process.fn.__self__
        n_masters = len(monitor.master_energy)
        # Codes the live step raises on: HTRANS and HRESP outside 0..3,
        # a bus owner that does not index master_energy.
        super().__init__(process, monitor.columns, (
            (0, 0, 3), (monitor._resp_col, 0, 3),
            (monitor._owner_col, -n_masters, n_masters - 1)),
            stamp=monitor.sim)

    @classmethod
    def batchable(cls, monitor):
        """Static eligibility: the paper's four-block configuration (no
        clock tree / clock gating), non-negative model coefficients (so
        the ledger's negative-energy guard can never fire) and signal
        widths an int64 can mask."""
        if not super().batchable(monitor):
            return False
        if monitor._clock_tree_energy is not None or \
                monitor.clock_gate is not None:
            return False
        if any(signal.width > _MAX_NP_WIDTH for signal in monitor.columns):
            return False
        m2s, s2m = monitor.m2s_model, monitor.s2m_model
        dec, arb = monitor.decoder_model, monitor.arbiter_model
        coeffs = (
            m2s.path_coeff, m2s.select_coeff, m2s.output_coeff,
            s2m.path_coeff, s2m.select_coeff, s2m.output_coeff,
            dec.input_coeff, dec.output_coeff,
            arb.request_coeff, arb.handover_coeff,
            m2s.params.half_cv2, m2s.params.c_pd, m2s.params.c_o,
            m2s.params.c_clk,
        )
        if any(coeff < 0 for coeff in coeffs):
            return False
        return dec.n_inputs <= _MAX_NP_WIDTH

    def eligible(self):
        """Per-run check: a POWERTEST data file keeps the monitor
        per-cycle.  It is the configuration the E6 overhead gate times
        (the paper's ~2x cost); batched, that ratio read 1.00, 1.11
        and 1.03, two of three below the gate's 1.05 floor.  Every
        other sink takes the replayed blocks."""
        return self.owner.fsm.datafile is None

    def _replay(self, row):
        self.owner._step(row[:-1], row[-1])

    # -- numpy replay --------------------------------------------------

    def _flush_np(self, rows):
        monitor = self.owner
        width = len(monitor.columns) + 1
        # Row 0 holds the values before the block (its time stamp is
        # unused), so the current and previous values of every column
        # are two views.
        arr = _np.fromiter(
            chain.from_iterable(chain(((*monitor._previous_row(), 0),),
                                      rows)),
            dtype=_np.int64, count=(len(rows) + 1) * width)
        arr = arr.reshape(-1, width).T
        cur = arr[:, 1:]
        terms = monitor.cycle.terms(_BLOCK, cur, arr[:, :-1])
        energies = monitor.cycle.energies(monitor, terms)
        # ---- every conversion done: apply integers, then floats ----
        monitor._fold(_BLOCK, cur, terms, len(rows))
        monitor._charge(
            cur[-1].tolist(), terms.mode.tolist(),
            {block: energy.tolist() for block, energy in energies.items()},
            list(map(_RESP_NAMES.__getitem__,
                     cur[monitor._resp_col].tolist())),
            cur[monitor._owner_col].tolist())
