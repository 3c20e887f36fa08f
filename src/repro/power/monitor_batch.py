"""Batched replay of the :class:`GlobalPowerMonitor`.

On both engines the monitor is one consumer of the record/replay
protocol (:mod:`repro.kernel.rowbatch`): its recorder appends the
committed values in the monitor's :attr:`~GlobalPowerMonitor.columns`
layout, and a flush runs the monitor's own definitions on the block's
int64 columns: the integer terms of
:class:`~repro.power.monitors.BusCycle`, applied by
:meth:`GlobalPowerMonitor._fold`, and the macromodels' energy
expressions.  This module keeps the rest: the range guards (an HTRANS
or HRESP code outside 0..3 or an owner outside ``-n..n-1`` runs the
live monitor, so the error and the torn state are the per-cycle ones),
the eligibility checks, the in-order float tail and the tracer
hand-off.

A run batches unless a power-FSM sink needs per-cycle time stamps:
``traces``, ``datafile``, ``instruction_log``, or a ``tracer`` without
the block hook ``on_modes(codes)``.  That hook receives each replayed
block's mode codes (indices into :data:`repro.power.instructions.MODES`)
after the ledger is charged; cycles that run live, or replay through
the scalar step, reach the tracer's ``on_step``.

Identity with :meth:`GlobalPowerMonitor._step`, which replays a block
holding a value beyond int64 row by row, is the contract: integers are
exact and all converted before the first mutation; the energy
expressions run elementwise on float64 arrays, which round as CPython
floats do; the sequential float accumulators (ledger totals,
per-instruction and per-response energy, per-master chargeback) are
replayed by an in-order loop, since float addition is not associative.
"""

from __future__ import annotations

from itertools import chain

import numpy as _np

from ..kernel.rowbatch import RowBatch
from .hamming import block_primitives
from .instructions import ALL_INSTRUCTIONS, MODES
from .ledger import InstructionStats
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
            (monitor._owner_col, -n_masters, n_masters - 1)))

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
        """Per-run sinks check: a power-FSM sink that consumes
        per-cycle time stamps keeps the live monitor.  A tracer
        batches only when it has the block hook ``on_modes`` (the fuzz
        coverage probe's); one with ``on_step`` alone, such as
        telemetry's or a probe chained to it, keeps the monitor live."""
        fsm = self.owner.fsm
        return (fsm.traces is None and fsm.datafile is None
                and fsm.instruction_log is None
                and (fsm.tracer is None
                     or getattr(fsm.tracer, "on_modes", None) is not None))

    def _replay(self, row):
        # Batched cycles carry no time stamp: batching runs only when
        # no sink consumes one (see :meth:`eligible`).
        self.owner._step(row, 0)

    # -- numpy replay --------------------------------------------------

    def _flush_np(self, rows):
        monitor = self.owner
        width = len(monitor.columns)
        # Row 0 holds the values before the block, so the current and
        # previous values of every column are two views.
        arr = _np.fromiter(
            chain.from_iterable(chain((monitor._previous_row(),), rows)),
            dtype=_np.int64, count=(len(rows) + 1) * width)
        arr = arr.reshape(-1, width).T
        cur = arr[:, 1:]
        terms = monitor.cycle.terms(_BLOCK, cur, arr[:, :-1])
        energies = monitor.cycle.energies(monitor, terms).values()
        # ---- every conversion done: apply integers, then floats ----
        monitor._fold(_BLOCK, cur, terms, len(rows))
        self._accumulate(
            len(rows), terms.mode.tolist(),
            *[energy.tolist() for energy in energies],
            cur[monitor._resp_col].tolist(),
            cur[monitor._owner_col].tolist())

    def _accumulate(self, count, modes, l_m2s, l_s2m, l_dec, l_arb,
                    resps, owners):
        """The in-order scalar tail of the replay.

        Reproduces ``PowerFsm.step`` → ``EnergyLedger.charge_cycle``
        plus the monitor's per-master chargeback for every cycle, with
        float additions in exactly the live order, then hands the
        block's mode codes to the FSM's tracer, if any.
        """
        monitor = self.owner
        fsm = monitor.fsm
        ledger = fsm.ledger
        blocks = ledger.block_energy
        b_m2s = blocks.get("M2S", 0.0)
        b_s2m = blocks.get("S2M", 0.0)
        b_dec = blocks.get("DEC", 0.0)
        b_arb = blocks.get("ARB", 0.0)
        total = ledger.total_energy
        master_energy = monitor.master_energy
        instructions = ledger.instructions
        stats_by_code = [None] * 16
        resp_by_code = [None] * 4
        resp_order = []
        prev = MODES.index(fsm.state)

        for index in range(count):
            e0 = l_m2s[index]
            e1 = l_s2m[index]
            e2 = l_dec[index]
            e3 = l_arb[index]
            # charge_cycle: cycle_total = 0.0 then += per block, in
            # the energies dict's M2S, S2M, DEC, ARB insertion order
            cycle = e0 + e1
            cycle = cycle + e2
            cycle = cycle + e3
            b_m2s = b_m2s + e0
            b_s2m = b_s2m + e1
            b_dec = b_dec + e2
            b_arb = b_arb + e3
            mode = modes[index]
            code = prev * 4 + mode
            stats = stats_by_code[code]
            if stats is None:
                name = ALL_INSTRUCTIONS[code]
                stats = instructions.get(name)
                if stats is None:
                    stats = instructions[name] = InstructionStats()
                stats_by_code[code] = stats
            stats.count += 1
            stats.energy += cycle
            resp = resps[index]
            acc = resp_by_code[resp]
            if acc is None:
                acc = ledger.response_energy.get(_RESP_NAMES[resp], 0.0)
                resp_order.append(resp)
            resp_by_code[resp] = acc + cycle
            total = total + cycle
            # master_energy[owner] += sum(energies.values()) — the
            # same four adds from 0, so it equals the cycle total
            master_energy[owners[index]] += cycle
            prev = mode

        blocks["M2S"] = b_m2s
        blocks["S2M"] = b_s2m
        blocks["DEC"] = b_dec
        blocks["ARB"] = b_arb
        ledger.total_energy = total
        ledger.cycles += count
        for resp in resp_order:
            ledger.response_energy[_RESP_NAMES[resp]] = resp_by_code[resp]
        fsm.state = MODES[prev]
        fsm.cycles += count
        if fsm.tracer is not None:
            fsm.tracer.on_modes(modes)
