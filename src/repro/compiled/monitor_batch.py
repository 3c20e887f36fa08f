"""Batched replay of the :class:`GlobalPowerMonitor` hot path.

The monitor's per-cycle step (activity sampling, four macromodel
evaluations, FSM step, ledger charge) dominates interpreted runtime.
On both engines the monitor is one consumer of the shared
record/replay protocol (:mod:`repro.compiled.rowbatch`): its recorder
appends the committed values in the monitor's own
:attr:`~GlobalPowerMonitor.columns` layout, and a cycle with an HTRANS
or HRESP code outside 0..3 or a bus owner outside ``-n..n-1`` runs the
live monitor instead, so the error and the torn state it leaves are
byte-identical.  This module keeps only what is the monitor's own:
those columns and guards, the static and per-run eligibility checks
and the NumPy replay.

A run batches unless a power-FSM sink needs per-cycle time stamps:
``traces``, ``datafile`` and ``instruction_log`` keep the live monitor,
and so does a ``tracer`` without the block hook ``on_modes(codes)``.
A tracer with it (the fuzz coverage probe's) is called once per
replayed block with the block's per-cycle mode codes (indices into
:data:`repro.power.instructions.MODES`), after the ledger is charged;
cycles that run live, or replay through the scalar step, reach its
``on_step`` as before.

:meth:`GlobalPowerMonitor._step` is the one scalar reference for a
cycle: the live monitor runs it on every clock edge, and the replay
falls back to it row by row when a value is beyond int64.  The NumPy
replay here is the only other copy of that arithmetic, kept because it
is the batched fast path.  Bit-identity with the scalar step
is the contract, not an aspiration:

* integer work (Hamming distances via ``np.bitwise_count``, ones
  counts, mode classification) is vectorized — integers are exact;
* every floating-point expression reproduces the *operation order* of
  the scalar code (constant subexpressions are pre-folded exactly as
  Python's left-associative evaluation folds them; NumPy elementwise
  float64 ops round identically to CPython float ops);
* sequential float accumulators (ledger totals, per-instruction and
  per-response energy, per-master chargeback) are replayed by an
  in-order Python loop — float addition is not associative, so they
  are never vectorized.
"""

from __future__ import annotations

from ..power.instructions import MODES, instruction_name
from ..power.ledger import InstructionStats
from ..power.monitors import GlobalPowerMonitor
from .rowbatch import RowBatch, _np

_MODE_CODE = {mode: code for code, mode in enumerate(MODES)}
_INSTR = tuple(instruction_name(src, dst) for src in MODES
               for dst in MODES)
_RESP_NAMES = ("OKAY", "ERROR", "RETRY", "SPLIT")

#: Signal widths above this cannot be masked inside int64 arrays.
_MAX_NP_WIDTH = 62


def _previous(values, first):
    """*values* delayed by one cycle, led by *first* — the value stored
    before the batch (OverflowError when it exceeds int64)."""
    prev = _np.empty_like(values)
    prev[0] = first
    prev[1:] = values[:-1]
    return prev


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
            (0, 0, 3), (monitor._s2m_col + 1, 0, 3),
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

    def _activity_np(self, activity, cols, base, count):
        """Pure compute phase for one activity group.

        Returns ``(per_cycle_total, per_signal_hd, ones, lasts)``; the
        caller applies the mutations only after every group computed,
        so an OverflowError (huge stored value) leaves no torn state.
        """
        total = _np.zeros(count, dtype=_np.int64)
        hds = []
        ones = []
        lasts = []
        for offset, signal in enumerate(activity.signals):
            values = cols[base + offset]
            prev = _previous(values, activity._stored[signal])
            mask = (1 << signal.width) - 1
            hd = _np.bitwise_count((prev ^ values) & mask) \
                .astype(_np.int64)
            total += hd
            hds.append(int(hd.sum()))
            ones.append(int(_np.bitwise_count(values & mask)
                            .astype(_np.int64).sum()))
            lasts.append(int(values[-1]))
        return total, hds, ones, lasts

    def _flush_np(self, rows):
        monitor = self.owner
        arr = _np.array(rows, dtype=_np.int64)
        count = arr.shape[0]
        cols = arr.T
        s2m_col, arb_col = monitor._s2m_col, monitor._arb_col
        owner_col = monitor._owner_col

        # ---- pure compute phase (exact integers) ----
        m2s = self._activity_np(monitor._m2s_out, cols, 0, count)
        s2m = self._activity_np(monitor._s2m_out, cols, s2m_col, count)
        arb = self._activity_np(monitor._arb_in, cols, arb_col, count)

        htrans = cols[0]
        haddr = cols[1]
        hwrite = cols[2]
        hresp = cols[s2m_col + 1]
        owner = cols[owner_col]
        grant = cols[owner_col + 1]
        dsel = cols[owner_col + 2]

        handover = owner != _previous(owner, monitor._prev_owner)
        parked = owner == monitor.bus.config.default_master
        ho_flag = handover | (grant != owner) | parked

        shift = monitor._decoder_shift
        prev_haddr = _previous(haddr, monitor._prev_haddr)
        dec_mask = (1 << monitor.decoder_model.n_inputs) - 1
        hd_dec = _np.bitwise_count(
            ((prev_haddr >> shift) ^ (haddr >> shift)) & dec_mask
        ).astype(_np.int64)

        hd_dsel = _np.bitwise_count(
            (_previous(dsel, monitor._prev_dsel) ^ dsel) & 0xFF
        ).astype(_np.int64)

        transfer = (htrans == 2) | (htrans == 3)
        writes = transfer & (hwrite != 0)
        modes = _np.where(transfer, _np.where(hwrite != 0, 3, 2),
                          _np.where(ho_flag, 1, 0))

        # ---- energies: same float64 ops in the same order ----
        params = monitor.params
        hv, cpd, co = params.half_cv2, params.c_pd, params.c_o
        m2s_m, s2m_m = monitor.m2s_model, monitor.s2m_model
        dec_m, arb_m = monitor.decoder_model, monitor.arbiter_model

        hd_sel = handover.astype(_np.int64)        # hd_owner_code
        t = m2s[0]
        e_m2s = hv * (cpd * (m2s_m.path_coeff * t
                             + m2s_m.select_coeff * hd_sel)
                      + (m2s_m.output_coeff * co) * t)
        t = s2m[0]
        e_s2m = hv * (cpd * (s2m_m.path_coeff * t
                             + s2m_m.select_coeff * hd_dsel)
                      + (s2m_m.output_coeff * co) * t)
        e_dec = hv * ((dec_m.input_coeff * cpd) * hd_dec
                      + _np.where(hd_dec >= 1,
                                  (dec_m.output_coeff * 1) * co,
                                  (dec_m.output_coeff * 0) * co))
        arb_idle = hv * params.c_clk * arb_m.n_flops
        e_arb = arb_idle + (hv * cpd * arb_m.request_coeff) * arb[0]
        e_arb = _np.where(
            handover,
            e_arb + hv * (cpd * arb_m.handover_coeff + co * 2.0),
            e_arb)

        # ---- apply integer state (order-independent sums) ----
        for activity, (_, hds, ones, lasts) in (
                (monitor._m2s_out, m2s), (monitor._s2m_out, s2m),
                (monitor._arb_in, arb)):
            activity.record_batch(lasts, hds, ones, count)
        monitor.decode_hd_total += int(hd_dec.sum())
        monitor.decode_change_count += int(_np.count_nonzero(hd_dec))
        monitor.dsel_hd_total += int(hd_dsel.sum())
        monitor.handover_total += int(_np.count_nonzero(handover))
        monitor.transfer_cycles += int(_np.count_nonzero(transfer))
        monitor.write_cycles += int(_np.count_nonzero(writes))
        monitor._prev_haddr = int(haddr[-1])
        monitor._prev_owner = int(owner[-1])
        monitor._prev_dsel = int(dsel[-1])

        # ---- sequential float accumulators, strictly in order ----
        self._accumulate(
            count, modes.tolist(), e_m2s.tolist(), e_s2m.tolist(),
            e_dec.tolist(), e_arb.tolist(), hresp.tolist(),
            owner.tolist())

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
        prev = _MODE_CODE[fsm.state]

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
                name = _INSTR[code]
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
