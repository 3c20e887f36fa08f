"""The three power-model styles of the paper's Fig. 1.

* :class:`GlobalPowerMonitor` — "a further specific module:
  communicating properly with the other modules it can characterize the
  energetic behavior of the entire system".  A separate kernel module,
  sensitive to the bus clock, that observes the shared bus signals,
  evaluates the sub-block macromodels every cycle and drives the
  power FSM.  This is the reference model used for all paper
  experiments.  Its per-cycle arithmetic lives in one scalar method,
  :meth:`GlobalPowerMonitor._step`, run on every clock edge by the
  live method and by the batched replay whenever NumPy cannot hold the
  recorded values; that replay's NumPy path
  (:mod:`repro.compiled.monitor_batch`) is the only other copy.  On
  both engines and on every clock domain a stock monitor, found by its
  ``_on_clk`` process as compliance engines are, records one row per
  cycle and is replayed in blocks through one protocol
  (:mod:`repro.compiled.rowbatch`) that
  :meth:`~repro.kernel.Simulator.run` arms; the live method runs per
  cycle only when a power-FSM sink needs
  per-cycle time stamps, a clock gate or clock tree is configured, or
  a kernel observer is attached.

* :class:`LocalPowerMonitor` — "a particular process added to those
  already present in the module ... a system activity monitor".  It
  watches only the activity *mode* and charges a pre-characterised
  average energy per instruction: cheaper, coarser.

* :class:`PrivatePowerMonitor` — "characterize each process in terms
  of energy so that a process is considered as a single, atomic
  instruction ... very accurate ... highly intrusive and with a deep
  impact on simulation speed".  It hooks every sub-block I/O signal
  commit (event granularity, not cycle granularity) and charges
  switched capacitance per individual transition.

All three share the bus-mode classification, the ledger and the power
FSM; each keeps only its energy rule.  Omitting a monitor reproduces
the paper's ``POWERTEST`` compile switch: no instrumentation code runs
at all.
"""

from __future__ import annotations

import math
from operator import attrgetter

from ..amba.types import HTRANS, hresp_of
from ..kernel import Module
from .activity import Activity
from .hamming import hamming
from .instructions import classify_mode, instruction_name
from .ledger import (
    BLOCK_ARB,
    BLOCK_DEC,
    BLOCK_M2S,
    BLOCK_S2M,
    EnergyLedger,
    PAPER_BLOCKS,
)
from .macromodels import block_energies, bus_macromodels
from .parameters import PAPER_TECHNOLOGY
from .power_fsm import PowerFsm
from .power_trace import TraceSet

#: Reads a signal's committed value (the row the global step takes).
_VALUE = attrgetter("_value")

#: HTRANS codes of a data-transfer cycle.
_TRANSFERS = (int(HTRANS.NONSEQ), int(HTRANS.SEQ))

#: Bus signals driven by the M2S and by the S2M multiplexer.
_M2S_OUT = ("htrans", "haddr", "hwrite", "hsize", "hburst", "hprot",
            "hwdata")
_S2M_OUT = ("hrdata", "hresp", "hready")


def _decoder_shift(address_map):
    """Bit position where slave regions start to differ.

    The physical decoder only looks at address bits above the region
    granularity; Hamming activity below that bit is data-path, not
    decode, activity.
    """
    sizes = [region.size for region in address_map]
    if not sizes:
        return 0
    return int(math.floor(math.log2(min(sizes))))


class _BusPowerMonitor(Module):
    """What the three styles share: the bus-mode classification, the
    ledger and power FSM, and the per-cycle method on the bus clock.

    A style supplies its energy rule: :meth:`_energies` for a style
    that needs only the cycle's mode, or its own :meth:`_on_clk`.
    """

    def __init__(self, sim, name, bus, fsm, parent=None):
        super().__init__(sim, name, parent=parent)
        self.bus = bus
        self.fsm = fsm
        self.ledger = fsm.ledger
        self.traces = fsm.traces
        self._default_master = bus.config.default_master
        self._prev_owner = bus.hmaster.value
        self.method(self._on_clk, [bus.clk.posedge], name="monitor",
                    initialize=False)

    def _on_clk(self):
        bus = self.bus
        _, handover = self._handover(bus.hmaster.value,
                                     bus.arbiter._grant_idx.value)
        self._charge(self.sim.now, bus.htrans.value, bus.hwrite.value,
                     handover, bus.hresp.value)

    def _handover(self, owner, grant):
        """Track bus ownership for one cycle.

        Returns ``(handed_over, handover)``: whether ownership changed
        at this cycle boundary, and whether the cycle is handover
        territory for the mode classification.
        """
        handed_over = owner != self._prev_owner
        self._prev_owner = owner
        # A pending grant change is handover territory, and so are
        # cycles parked on the default master: it never transfers, so
        # the next real transfer necessarily involves a grant change
        # (the paper's IDLE_HO periods span whole idle windows, see
        # DESIGN.md).
        return handed_over, (handed_over or grant != owner
                             or owner == self._default_master)

    def _charge(self, now, htrans, hwrite, handover, hresp, energies=None):
        """Classify the cycle and step the FSM with its energies.

        *energies* maps block → joules; ``None`` asks the style's
        :meth:`_energies` rule, once the mode is known.
        """
        mode = classify_mode(htrans, hwrite, handover=handover)
        if energies is None:
            energies = self._energies(mode)
        self.fsm.step(now, mode, energies, response=hresp_of(hresp).name)

    @property
    def total_energy(self):
        """Total accounted energy so far (joules)."""
        return self.ledger.total_energy

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        return {
            "prev_owner": self._prev_owner,
            "ledger": self.ledger.state_dict(),
            "fsm": self.fsm.state_dict(),
        }

    def load_state_dict(self, state):
        self._prev_owner = state["prev_owner"]
        self.ledger.load_state_dict(state["ledger"])
        self.fsm.load_state_dict(state["fsm"])


class GlobalPowerMonitor(_BusPowerMonitor):
    """Cycle-accurate, macromodel-driven power analysis (global style).

    Parameters
    ----------
    bus:
        The :class:`~repro.amba.bus.AhbBus` under analysis.
    params:
        Technology constants for the macromodels.
    with_traces:
        Record per-block :class:`PowerTrace` data (needed for the
        Fig. 3–5 experiments; costs memory on long runs).
    datafile:
        Optional open file for the per-cycle energy log.
    """

    def __init__(self, sim, name, bus, params=PAPER_TECHNOLOGY,
                 with_traces=False, datafile=None, parent=None,
                 with_clock_tree=False, clock_tree_flops=None,
                 clock_gate=None, wake_penalty_factor=2.0):
        # Optional bus-wide clock-tree block ("CLK"): the pipeline
        # registers of masters, slaves and fabric, charged every
        # ungated cycle.  Off by default so the paper's four-block
        # Fig. 6 decomposition is reproduced unchanged; the DPM
        # extension (repro.power.dpm) turns it on together with a
        # ClockGateController.
        if clock_gate is not None and not with_clock_tree:
            raise ValueError(
                "clock gating needs with_clock_tree=True (gating only "
                "affects the clock-tree block)")
        traces = TraceSet(PAPER_BLOCKS + ("TOTAL",)) if with_traces else None
        super().__init__(sim, name, bus,
                         PowerFsm(EnergyLedger(), traces=traces,
                                  datafile=datafile),
                         parent=parent)
        self.params = params
        cfg = bus.config

        self.clock_gate = clock_gate
        self.wake_penalty_factor = wake_penalty_factor
        if with_clock_tree:
            if clock_tree_flops is None:
                clock_tree_flops = cfg.n_masters * 80 + cfg.n_slaves * 40
            self._clock_tree_energy = (
                params.half_cv2 * params.c_clk * clock_tree_flops)
            self.clock_tree_flops = clock_tree_flops
        else:
            self._clock_tree_energy = None
            self.clock_tree_flops = 0
        self._was_gated = False

        (self.m2s_model, self.s2m_model, self.decoder_model,
         self.arbiter_model) = bus_macromodels(cfg, params)

        self._m2s_out = Activity(
            "m2s_out", [getattr(bus, name) for name in _M2S_OUT])
        self._s2m_out = Activity(
            "s2m_out", [getattr(bus, name) for name in _S2M_OUT])
        request_signals = []
        for port in bus.master_ports:
            request_signals.append(port.hbusreq)
            request_signals.append(port.hlock)
        self._arb_in = Activity("arb_in", request_signals)

        #: Column layout of one cycle's committed values, the row
        #: :meth:`_step` analyses (and the batch recorder appends):
        #: the three activity groups' signals in their sample order —
        #: so HTRANS, HADDR, HWRITE lead and HRESP is the second
        #: S2M column — then owner, pending grant and data-phase select.
        self.columns = (self._m2s_out.signals + self._s2m_out.signals
                        + self._arb_in.signals
                        + (bus.hmaster, bus.arbiter._grant_idx,
                           bus.s2m_mux.dsel))
        self._s2m_col = len(self._m2s_out.signals)
        self._arb_col = self._s2m_col + len(self._s2m_out.signals)
        self._owner_col = self._arb_col + len(self._arb_in.signals)

        self._decoder_shift = _decoder_shift(cfg.address_map)
        self._prev_haddr = bus.haddr.value
        self._prev_dsel = bus.s2m_mux.dsel.value

        # Aggregate activity counters consumed by
        # repro.power.statistical.WorkloadStatistics.from_monitor.
        self.decode_hd_total = 0
        self.decode_change_count = 0
        self.dsel_hd_total = 0
        self.handover_total = 0
        self.transfer_cycles = 0
        self.write_cycles = 0

        #: Energy chargeback: joules attributed to each master index
        #: (the cycle's address-phase owner pays for the cycle).
        self.master_energy = [0.0] * cfg.n_masters

    # -- per-cycle analysis ----------------------------------------------

    def _on_clk(self):
        self._step(tuple(map(_VALUE, self.columns)), self.sim.now)

    def _step(self, row, now):
        """Analyse one cycle: *row* holds its committed values in
        :attr:`columns` order, *now* is its time stamp.

        The one scalar implementation of the cycle, run live and by
        the batched replay when its NumPy path cannot hold the
        values.  An invalid value (bad HTRANS/HRESP code, owner out
        of range) raises part-way, after the statements before it.
        """
        s2m_col, arb_col, owner_col = (self._s2m_col, self._arb_col,
                                       self._owner_col)
        m2s_total = sum(self._m2s_out.record(row[:s2m_col]))
        s2m_total = sum(self._s2m_out.record(row[s2m_col:arb_col]))
        arb_total = sum(self._arb_in.record(row[arb_col:owner_col]))

        owner = row[owner_col]
        handed_over, handover = self._handover(owner, row[owner_col + 1])

        haddr = row[1]
        hd_decode = hamming(
            self._prev_haddr >> self._decoder_shift,
            haddr >> self._decoder_shift,
            width=self.decoder_model.n_inputs,
        )
        self._prev_haddr = haddr

        dsel = row[owner_col + 2]
        hd_dsel = hamming(self._prev_dsel, dsel, width=8)
        self._prev_dsel = dsel

        self.decode_hd_total += hd_decode
        if hd_decode:
            self.decode_change_count += 1
        self.dsel_hd_total += hd_dsel
        if handed_over:
            self.handover_total += 1
        htrans, hwrite = row[0], row[2]
        if htrans in _TRANSFERS:
            self.transfer_cycles += 1
            if hwrite:
                self.write_cycles += 1

        energies = block_energies(self, m2s_total, s2m_total, hd_dsel,
                                  hd_decode, arb_total, handed_over)
        if self._clock_tree_energy is not None:
            energies["CLK"] = self._clock_tree_cycle_energy()

        self._charge(now, htrans, hwrite, handover, row[s2m_col + 1],
                     energies)
        self.master_energy[owner] += sum(energies.values())

    def master_energy_shares(self):
        """Fraction of total energy attributed to each master index."""
        total = sum(self.master_energy)
        if total == 0:
            return [0.0] * len(self.master_energy)
        return [energy / total for energy in self.master_energy]

    def _clock_tree_cycle_energy(self):
        """Clock-tree charge for this cycle, honouring clock gating."""
        gated_now = (self.clock_gate is not None
                     and bool(self.clock_gate.gated.value))
        if gated_now:
            energy = 0.0
        else:
            energy = self._clock_tree_energy
            if self._was_gated:
                # wake-up: the gated tree recharges and the enable
                # latches toggle across the whole distribution
                energy += (self.wake_penalty_factor
                           * self._clock_tree_energy)
        self._was_gated = gated_now
        return energy

    # -- results ------------------------------------------------------------

    def activity_summary(self):
        """Switching statistics of all monitored signal groups."""
        return {
            "m2s_out": self._m2s_out.summary(),
            "s2m_out": self._s2m_out.summary(),
            "arb_in": self._arb_in.summary(),
        }

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        """Monitor, FSM, ledger and activity-group state.

        Power *traces* (when enabled) are append-only history and are
        NOT checkpointed — a restored run continues recording from the
        restore point; see docs/RESILIENCE.md.
        """
        state = super().state_dict()
        state.update({
            "was_gated": self._was_gated,
            "prev_haddr": self._prev_haddr,
            "prev_dsel": self._prev_dsel,
            "decode_hd_total": self.decode_hd_total,
            "decode_change_count": self.decode_change_count,
            "dsel_hd_total": self.dsel_hd_total,
            "handover_total": self.handover_total,
            "transfer_cycles": self.transfer_cycles,
            "write_cycles": self.write_cycles,
            "master_energy": list(self.master_energy),
            "m2s_out": self._m2s_out.state_dict(),
            "s2m_out": self._s2m_out.state_dict(),
            "arb_in": self._arb_in.state_dict(),
        })
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self._was_gated = state["was_gated"]
        self._prev_haddr = state["prev_haddr"]
        self._prev_dsel = state["prev_dsel"]
        self.decode_hd_total = state["decode_hd_total"]
        self.decode_change_count = state["decode_change_count"]
        self.dsel_hd_total = state["dsel_hd_total"]
        self.handover_total = state["handover_total"]
        self.transfer_cycles = state["transfer_cycles"]
        self.write_cycles = state["write_cycles"]
        self.master_energy = list(state["master_energy"])
        self._m2s_out.load_state_dict(state["m2s_out"])
        self._s2m_out.load_state_dict(state["s2m_out"])
        self._arb_in.load_state_dict(state["arb_in"])


class LocalPowerMonitor(_BusPowerMonitor):
    """Instruction-table power analysis (local style).

    Only the activity mode is observed; each executed instruction is
    charged a fixed average energy from *instruction_energies* (a dict
    ``name -> joules``, typically produced by a characterisation run of
    the global monitor via
    :meth:`GlobalPowerMonitor.ledger.instructions`).  Unknown
    instructions fall back to *default_energy*.
    """

    def __init__(self, sim, name, bus, instruction_energies,
                 default_energy=0.0, with_traces=False, parent=None):
        traces = TraceSet(("BUS", "TOTAL")) if with_traces else None
        super().__init__(sim, name, bus,
                         PowerFsm(EnergyLedger(blocks=("BUS",)),
                                  traces=traces),
                         parent=parent)
        self.instruction_energies = dict(instruction_energies)
        self.default_energy = default_energy

    def _energies(self, mode):
        # Peek the instruction the FSM will classify so its table
        # energy can be charged in the same step.
        name = instruction_name(self.fsm.state, mode)
        return {"BUS": self.instruction_energies.get(name,
                                                     self.default_energy)}


class PrivatePowerMonitor(_BusPowerMonitor):
    """Event-granularity power analysis (private style).

    Watches every individual signal commit on the sub-block interfaces
    and charges switched capacitance per transition: internal-node
    capacitance scaled by a per-block path depth, plus output load on
    the block output nets.  The most accurate and the slowest style —
    each signal change costs a Python callback inside the kernel's
    update phase.
    """

    def __init__(self, sim, name, bus, params=PAPER_TECHNOLOGY,
                 parent=None):
        super().__init__(sim, name, bus, PowerFsm(EnergyLedger()),
                         parent=parent)
        self.params = params
        cfg = bus.config
        self._pending = {block: 0.0 for block in PAPER_BLOCKS}

        n_slaves_total = cfg.n_slaves + 1
        m2s_depth = 1 + math.ceil(math.log2(cfg.n_masters))
        s2m_depth = 1 + math.ceil(math.log2(n_slaves_total))
        dec_cost = (self.params.c_pd
                    * math.ceil(math.log2(n_slaves_total)))

        half_cv2 = params.half_cv2
        for block, names, depth in ((BLOCK_M2S, _M2S_OUT, m2s_depth),
                                    (BLOCK_S2M, _S2M_OUT, s2m_depth)):
            per_bit = half_cv2 * (params.c_pd * depth + params.c_o)
            for name in names:
                getattr(bus, name).add_watcher(
                    self._make_watcher(block, per_bit))

        for port in bus.slave_ports + [bus.default_slave_port]:
            port.hsel.add_watcher(
                self._make_watcher(BLOCK_DEC, half_cv2 * (dec_cost
                                                          + params.c_o))
            )
        for port in bus.master_ports:
            port.hgrant.add_watcher(
                self._make_watcher(BLOCK_ARB,
                                   half_cv2 * (params.c_pd + params.c_o))
            )
            port.hbusreq.add_watcher(
                self._make_watcher(BLOCK_ARB, half_cv2 * params.c_pd * 2)
            )

    def _make_watcher(self, block, per_bit_energy):
        pending = self._pending

        def watcher(signal, old, new):
            pending[block] += per_bit_energy * hamming(
                old, new, width=signal.width,
            )
        return watcher

    def _energies(self, mode):
        energies = dict(self._pending)
        # Arbiter clock tree burns every cycle.
        energies[BLOCK_ARB] += (
            self.params.half_cv2 * self.params.c_clk
            * (self.bus.config.n_masters + 8)
        )
        for block in self._pending:
            self._pending[block] = 0.0
        return energies

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        state = super().state_dict()
        state["pending"] = dict(sorted(self._pending.items()))
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        # The watcher closures hold a reference to the _pending dict:
        # mutate it in place, never rebind it.
        self._pending.clear()
        self._pending.update(state["pending"])
