"""The three power-model styles of the paper's Fig. 1.

* :class:`GlobalPowerMonitor` — "a further specific module:
  communicating properly with the other modules it can characterize the
  energetic behavior of the entire system".  A separate kernel module,
  sensitive to the bus clock, that observes the shared bus signals,
  evaluates the sub-block macromodels every cycle and drives the
  power FSM.  This is the reference model used for all paper
  experiments.  A cycle's integer terms are written once, in
  :class:`BusCycle`, and its energies once, in the macromodels:
  :meth:`GlobalPowerMonitor._step` runs them on one row, the batched
  replay (:mod:`repro.power.monitor_batch`, which a stock monitor uses
  on both engines unless a data file, a clock gate or tree, or a
  kernel observer needs the live method) on a block's columns, and
  the VCD replay (:mod:`repro.power.offline`) on dumped rows.  A row
  and a block reach the power FSM's block step the same way,
  :meth:`GlobalPowerMonitor._charge`.

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
from collections import namedtuple
from operator import attrgetter

from ..amba.types import hresp_of, htrans_of
from ..kernel import Module
from .activity import Activity
from .hamming import ROW, hamming, switching
from .instructions import (
    READ_CODE,
    WRITE_CODE,
    classify_mode,
    instruction_name,
    mode_code,
)
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

#: The global monitor's aggregate activity counters, consumed by
#: repro.power.statistical.WorkloadStatistics.from_monitor.
_COUNTERS = ("decode_hd_total", "decode_change_count", "dsel_hd_total",
             "handover_total", "transfer_cycles", "write_cycles")

#: Bus signals driven by the M2S and by the S2M multiplexer, by their
#: VCD names (:func:`repro.power.offline.trace_bus`); the bus attribute
#: is the lower-case name.
M2S_SIGNALS = ("HTRANS", "HADDR", "HWRITE", "HSIZE", "HBURST", "HPROT",
               "HWDATA")
S2M_SIGNALS = ("HRDATA", "HRESP", "HREADY")


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


def handover(owner, prev_owner, grant, default_master):
    """``(handed_over, flag)``: whether ownership changed at this cycle
    boundary, and whether the cycle is handover territory for the mode
    classification.

    A pending grant change is handover territory, and so are cycles
    parked on the default master: it never transfers, so the next real
    transfer necessarily involves a grant change (the paper's IDLE_HO
    periods span whole idle windows, see DESIGN.md).
    """
    handed_over = owner != prev_owner
    return handed_over, (handed_over | (grant != owner)
                         | (owner == default_master))


#: One cycle's integer terms, or every cycle's on a block: ``activity``
#: holds each activity group's ``(total, distances, ones)`` (see
#: :func:`~repro.power.hamming.switching`).
CycleTerms = namedtuple(
    "CycleTerms", "activity hd_decode hd_dsel handed_over mode")


class BusCycle:
    """The global monitor's integer arithmetic over a cycle's values
    *cur* and those before it *prev*: a row of Python ints, or a
    block's int64 columns, on which its operators mean the same; *ops*
    holds the primitives that differ (:mod:`repro.power.hamming`).

    A row holds the activity groups' signals, whose widths
    *group_widths* gives (M2S, led by HTRANS, HADDR, HWRITE; S2M;
    arbiter requests), then the owner, pending grant and data select.
    The decoder sees HADDR above *decoder_shift*, *decoder_inputs* wide.
    """

    def __init__(self, group_widths, decoder_shift, decoder_inputs,
                 default_master):
        self.bounds, self._masks, start = [], [], 0
        for widths in group_widths:
            self.bounds.append((start, start + len(widths)))
            self._masks.append([(1 << width) - 1 for width in widths])
            start += len(widths)
        self.owner_col = start
        self._shift = decoder_shift
        self._decoder_mask = (1 << decoder_inputs) - 1
        self._default_master = default_master

    def terms(self, ops, cur, prev):
        """The :class:`CycleTerms` of *cur* after *prev*."""
        owner = self.owner_col
        shift = self._shift
        handed_over, flag = handover(cur[owner], prev[owner],
                                     cur[owner + 1], self._default_master)
        return CycleTerms(
            [switching(ops, cur[start:stop], prev[start:stop], masks)
             for (start, stop), masks in zip(self.bounds, self._masks)],
            ops.popcount(((prev[1] >> shift) ^ (cur[1] >> shift))
                         & self._decoder_mask),
            ops.popcount((prev[owner + 2] ^ cur[owner + 2]) & 0xFF),
            handed_over, mode_code(cur[0], cur[2], flag))

    @staticmethod
    def energies(models, terms):
        """The four sub-block energies of *terms* (per cycle on a
        block), from the macromodels *models* holds."""
        (m2s, _, _), (s2m, _, _), (requests, _, _) = terms.activity
        return block_energies(models, m2s, s2m, terms.hd_dsel,
                              terms.hd_decode, requests, terms.handed_over)


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
        owner = bus.hmaster.value
        _, flag = handover(owner, self._prev_owner,
                           bus.arbiter._grant_idx.value,
                           self._default_master)
        self._prev_owner = owner
        mode = classify_mode(bus.htrans.value, bus.hwrite.value, flag)
        self.fsm.step(self.sim.now, mode, self._energies(mode),
                      response=hresp_of(bus.hresp.value).name)

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

        self._groups = (
            Activity("m2s_out", [getattr(bus, name.lower())
                                 for name in M2S_SIGNALS]),
            Activity("s2m_out", [getattr(bus, name.lower())
                                 for name in S2M_SIGNALS]),
            Activity("arb_in", [signal for port in bus.master_ports
                                for signal in (port.hbusreq, port.hlock)]))
        self._m2s_out, self._s2m_out, self._arb_in = self._groups
        #: Column layout of one cycle's committed values, the row
        #: :meth:`_step` analyses (and the batch recorder appends):
        #: the three activity groups' signals in their sample order —
        #: so HTRANS, HADDR, HWRITE lead and HRESP is the second
        #: S2M column — then owner, pending grant and data-phase select.
        self.columns = sum((activity.signals for activity in self._groups),
                           ()) + (bus.hmaster, bus.arbiter._grant_idx,
                                  bus.s2m_mux.dsel)
        self._decoder_shift = _decoder_shift(cfg.address_map)
        self.cycle = BusCycle(
            [[signal.width for signal in activity.signals]
             for activity in self._groups],
            self._decoder_shift, self.decoder_model.n_inputs,
            cfg.default_master)
        self._resp_col = len(self._m2s_out.signals) + 1
        self._owner_col = self.cycle.owner_col
        self._prev_dsel = bus.s2m_mux.dsel.value

        for name in _COUNTERS:
            setattr(self, name, 0)

        #: Energy chargeback: joules attributed to each master index
        #: (the cycle's address-phase owner pays for the cycle).
        self.master_energy = [0.0] * cfg.n_masters

    # -- per-cycle analysis ----------------------------------------------

    def _on_clk(self):
        self._step(tuple(map(_VALUE, self.columns)), self.sim.now)

    def _previous_row(self):
        """The values the next cycle is compared with, in
        :attr:`columns` order: each activity signal's stored value
        (HADDR's is also the decoder's), the owner (again in the
        unused grant column) and the data-phase select."""
        m2s, s2m, arb = self._groups
        return (*m2s._stored, *s2m._stored, *arb._stored, self._prev_owner,
                self._prev_owner, self._prev_dsel)

    def _step(self, row, now):
        """Analyse one cycle: *row* holds its committed values in
        :attr:`columns` order, *now* is its time stamp.

        Run live and by the batched replay when its NumPy path cannot
        hold the values.  An invalid value (bad HTRANS/HRESP code,
        owner out of range) raises part-way: after the integer state,
        before the FSM step for a code, after it for an owner.
        """
        terms = self.cycle.terms(ROW, row, self._previous_row())
        self._fold(ROW, row, terms, 1)
        energies = self.cycle.energies(self, terms)
        if self._clock_tree_energy is not None:
            energies["CLK"] = self._clock_tree_cycle_energy()
        htrans_of(row[0])  # raises for a code with no HTRANS member
        self._charge((now,), (terms.mode,),
                     {block: (energy,) for block, energy in energies.items()},
                     (hresp_of(row[self._resp_col]).name,),
                     (row[self._owner_col],))

    def _charge(self, times, codes, energies, responses, owners):
        """Step the power FSM over one cycle or a block, given as
        columns (:meth:`PowerFsm.step_block`), and charge each cycle's
        total to its address-phase owner."""
        master_energy = self.master_energy
        for owner, total in zip(owners, self.fsm.step_block(
                times, codes, energies, responses)):
            master_energy[owner] += total

    def _fold(self, ops, cur, terms, count):
        """Apply the integer *terms* of *count* cycles whose values are
        *cur* (a row, or a block's columns) to the activity groups, the
        stored values and the aggregate counters."""
        last = ops.last(cur)
        for activity, (start, stop), (_, distances, ones) in zip(
                self._groups, self.cycle.bounds, terms.activity):
            activity.record_batch(last[start:stop], distances, ones, count)
        self._prev_owner = last[self._owner_col]
        self._prev_dsel = last[self._owner_col + 2]
        decode, changes, dsel, handovers, transfers, writes = ops.totals((
            terms.hd_decode, terms.hd_decode != 0, terms.hd_dsel,
            terms.handed_over, terms.mode >= READ_CODE,
            terms.mode == WRITE_CODE))
        self.decode_hd_total += decode
        self.decode_change_count += changes
        self.dsel_hd_total += dsel
        self.handover_total += handovers
        self.transfer_cycles += transfers
        self.write_cycles += writes

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
        return {activity.name: activity.summary()
                for activity in self._groups}

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
            "prev_haddr": self._m2s_out._stored[1],
            "prev_dsel": self._prev_dsel,
            **{name: getattr(self, name) for name in _COUNTERS},
            "master_energy": list(self.master_energy),
            **{activity.name: activity.state_dict()
               for activity in self._groups},
        })
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self._was_gated = state["was_gated"]
        self._prev_dsel = state["prev_dsel"]
        for name in _COUNTERS:
            setattr(self, name, state[name])
        self.master_energy = list(state["master_energy"])
        for activity in self._groups:
            activity.load_state_dict(state[activity.name])


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
        for block, names, depth in ((BLOCK_M2S, M2S_SIGNALS, m2s_depth),
                                    (BLOCK_S2M, S2M_SIGNALS, s2m_depth)):
            per_bit = half_cv2 * (params.c_pd * depth + params.c_o)
            for name in names:
                getattr(bus, name.lower()).add_watcher(
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
