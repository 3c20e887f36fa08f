"""AHB bus arbiter.

The arbiter owns the grant logic (``HGRANTx``), the address-phase
master register (``HMASTER``) and its data-phase delayed copy.  Grant
decisions are combinational within a cycle; ownership changes are
sampled on the rising clock edge when ``HREADY`` is high, exactly as in
the AMBA spec (rev 2.0 §3.11).

Two policies are provided:

* **fixed-priority** — lowest master index wins; the bus *parks* on
  the current owner while it is transferring (a standard
  parking-arbiter design, and what keeps the paper testbench's
  WRITE–READ sequences non-interruptible);
* **round-robin** — rotating priority; the grant is re-evaluated at
  every burst boundary (the last beat of a SINGLE or fixed-length
  burst), so equally-loaded masters interleave fairly.  Undefined-
  length INCR bursts keep the bus until the owner idles.
* **tdma** — wall-clock time slots of ``tdma_slot_cycles`` cycles
  rotate across the real (non-default) masters; the slot owner wins
  when it requests, otherwise the slot is reclaimed by fixed priority.
  Grants still change only at burst boundaries or idle cycles, so
  bursts are never torn.

A bus *handover* (the paper's ``IDLE_HO`` activity mode) happens when
``HMASTER`` changes; the arbiter counts handovers and grant evaluations
so the power model can charge its FSM energy terms.
"""

from __future__ import annotations

from ..kernel import Module
from .config import Arbitration
from .types import ACTIVE_BY_CODE, HRESP, HTRANS, burst_beats, htrans_of

# Hot-path constants (the grant/ownership methods run every cycle).
_TRANS_IDLE = int(HTRANS.IDLE)
_RESP_SPLIT = int(HRESP.SPLIT)
_NONSEQ = HTRANS.NONSEQ
_SEQ = HTRANS.SEQ


class Arbiter(Module):
    """Grant arbiter for up to 16 masters.

    Parameters
    ----------
    sim, name, parent:
        Kernel module plumbing.
    clk:
        Bus clock.
    master_ports:
        Sequence of :class:`~repro.amba.ports.MasterPort`.
    bus_htrans, bus_hready:
        Fabric-side signals (driven by the M2S and S2M multiplexers).
    policy:
        One of :class:`~repro.amba.config.Arbitration`.
    default_master:
        Master granted when nobody requests the bus.
    """

    def __init__(self, sim, name, clk, master_ports, bus_htrans, bus_hready,
                 policy=Arbitration.FIXED_PRIORITY, default_master=0,
                 parent=None, bus_hburst=None, bus_hresp=None,
                 split_inputs=(), tdma_slot_cycles=8):
        super().__init__(sim, name, parent=parent)
        if policy not in Arbitration.ALL:
            raise ValueError("unknown arbitration policy %r" % policy)
        self.clk = clk
        self.master_ports = list(master_ports)
        self.policy = policy
        self.default_master = default_master
        self.bus_htrans = bus_htrans
        self.bus_hready = bus_hready
        self.bus_hburst = bus_hburst
        self.bus_hresp = bus_hresp
        self.split_inputs = list(split_inputs)

        n = len(self.master_ports)
        self.hmaster = self.signal("HMASTER", init=default_master, width=4)
        self.hmaster_d = self.signal("HMASTER_D", init=default_master,
                                     width=4)
        self.hmastlock = self.signal("HMASTLOCK", init=0, width=1)
        self._grant_idx = self.signal("grant_idx", init=default_master,
                                      width=4)
        #: High while the address phase carries the final beat of a
        #: burst (enables round-robin boundary re-arbitration).
        self.at_boundary = self.signal("at_boundary", init=0, width=1)
        #: Bitmask of masters waiting on a SPLIT release; masked
        #: masters do not take part in arbitration (spec §3.12).
        self.split_mask = self.signal("split_mask", init=0, width=16)
        #: TDMA: current slot owner (rotates over non-default masters).
        self.tdma_slot_cycles = int(tdma_slot_cycles)
        self._tdma_masters = [index for index in range(n)
                              if index != default_master] or [0]
        self.slot_owner = self.signal(
            "slot_owner", init=self._tdma_masters[0], width=4)
        self._cycle_counter = 0
        self._rr_pointer = default_master
        self._beats_done = 0
        self._expected_beats = None

        #: Statistics consumed by tests and the power model.
        self.handover_count = 0
        self.grant_change_count = 0
        self.split_count = 0
        self.forced_split_releases = 0
        self._forced_release = 0

        sensitivity = [port.hbusreq for port in self.master_ports]
        sensitivity += [port.hlock for port in self.master_ports]
        sensitivity += [bus_htrans, self.hmaster, self.at_boundary,
                        self.split_mask, self.slot_owner]
        self.method(self._decide_grant, sensitivity, name="decide_grant",
                    writes=[self._grant_idx, self.hmastlock]
                    + [port.hgrant for port in self.master_ports])
        self.method(self._update_owner, [clk.posedge], name="update_owner",
                    initialize=False)
        if self.split_inputs or bus_hresp is not None:
            self.method(self._track_splits, [clk.posedge],
                        name="track_splits", initialize=False)
        self._n_masters = n

    # -- combinational grant ------------------------------------------------

    def _requesters(self):
        mask = self.split_mask._value
        return [index for index, port in enumerate(self.master_ports)
                if port.hbusreq._value and not (mask >> index) & 1]

    def _track_splits(self):
        """Maintain the split mask (spec §3.12).

        A master whose transfer got a SPLIT response is removed from
        arbitration until some slave raises its ``HSPLITx`` bit for it.
        Masking keys on the *data-phase* owner during the first
        (HREADY low) SPLIT cycle — the master whose transfer is being
        split.
        """
        mask = self.split_mask._value
        release = self._forced_release
        self._forced_release = 0
        for hsplit in self.split_inputs:
            release |= hsplit._value
        if release:
            mask &= ~release
        if self.bus_hresp is not None and \
                self.bus_hresp._value == _RESP_SPLIT and \
                not self.bus_hready._value:
            victim = self.hmaster_d._value
            if victim != self.default_master and \
                    not (mask >> victim) & 1:
                mask |= 1 << victim
                self.split_count += 1
        self.split_mask.write(mask)

    def _decide_grant(self):
        """Combinational grant decision for the current cycle."""
        owner = self.hmaster._value
        owner_port = self.master_ports[owner]
        owner_active = self.bus_htrans._value != _TRANS_IDLE
        owner_locked = bool(owner_port.hlock._value)

        reevaluate = not owner_active
        if self.policy in (Arbitration.ROUND_ROBIN, Arbitration.TDMA) \
                and self.at_boundary._value:
            reevaluate = True

        if owner_locked or not reevaluate:
            grant = owner
        else:
            requesters = self._requesters()
            if not requesters:
                grant = self.default_master
            elif self.policy == Arbitration.FIXED_PRIORITY:
                grant = min(requesters)
            elif self.policy == Arbitration.TDMA:
                slot = self.slot_owner._value
                grant = slot if slot in requesters \
                    else min(requesters)  # slot reclaiming
            else:  # round-robin
                grant = self._round_robin_pick(requesters)

        self._grant_idx.write(grant)
        self.hmastlock.write(
            1 if self.master_ports[grant].hlock._value else 0
        )
        for index, port in enumerate(self.master_ports):
            port.hgrant.write(1 if index == grant else 0)

    def _round_robin_pick(self, requesters):
        """Pick the first requester after the round-robin pointer."""
        n = self._n_masters
        for offset in range(1, n + 1):
            candidate = (self._rr_pointer + offset) % n
            if candidate in requesters:
                return candidate
        return self.default_master  # pragma: no cover - requesters nonempty

    # -- sequential ownership update -----------------------------------------

    def _update_owner(self):
        """Sample grant into ``HMASTER`` on HREADY-qualified edges."""
        self._cycle_counter += 1
        if self.policy == Arbitration.TDMA:
            slot_index = ((self._cycle_counter // self.tdma_slot_cycles)
                          % len(self._tdma_masters))
            self.slot_owner.write(self._tdma_masters[slot_index])
        if not self.bus_hready._value:
            return
        grant = self._grant_idx._value
        owner = self.hmaster._value
        if grant != owner:
            self.handover_count += 1
            self.grant_change_count += 1
            if self.policy == Arbitration.ROUND_ROBIN:
                self._rr_pointer = grant
        self.hmaster.write(grant)
        self.hmaster_d.write(owner)
        self._track_burst_boundary()

    def _track_burst_boundary(self):
        """Follow burst progress on the address bus.

        ``at_boundary`` goes high for the cycle after the final beat of
        a SINGLE or fixed-length burst was accepted; undefined-length
        INCR bursts never raise it (the arbiter cannot know their end).
        """
        htrans = htrans_of(self.bus_htrans._value)
        if htrans == _NONSEQ:
            self._beats_done = 1
            self._expected_beats = (
                burst_beats(self.bus_hburst._value)
                if self.bus_hburst is not None else 1
            )
        elif htrans == _SEQ:
            self._beats_done += 1
        boundary = (
            ACTIVE_BY_CODE[htrans]
            and self._expected_beats is not None
            and self._beats_done >= self._expected_beats
        )
        self.at_boundary.write(1 if boundary else 0)

    def release_split(self, master_index):
        """Forcibly clear *master_index* from the split mask.

        Watchdog recovery for a slave that never raises ``HSPLITx``:
        the master rejoins arbitration on the next mask update even
        though the slave never released it.
        """
        self._forced_release |= 1 << master_index
        self.forced_split_releases += 1

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        """Non-signal arbiter state (signals live in the kernel tree)."""
        return {
            "cycle_counter": self._cycle_counter,
            "rr_pointer": self._rr_pointer,
            "beats_done": self._beats_done,
            "expected_beats": self._expected_beats,
            "forced_release": self._forced_release,
            "handover_count": self.handover_count,
            "grant_change_count": self.grant_change_count,
            "split_count": self.split_count,
            "forced_split_releases": self.forced_split_releases,
        }

    def load_state_dict(self, state):
        self._cycle_counter = state["cycle_counter"]
        self._rr_pointer = state["rr_pointer"]
        self._beats_done = state["beats_done"]
        self._expected_beats = state["expected_beats"]
        self._forced_release = state["forced_release"]
        self.handover_count = state["handover_count"]
        self.grant_change_count = state["grant_change_count"]
        self.split_count = state["split_count"]
        self.forced_split_releases = state["forced_split_releases"]

    # -- introspection --------------------------------------------------------

    @property
    def owner(self):
        """Current address-phase owner index (``HMASTER``)."""
        return self.hmaster.value

    @property
    def data_phase_owner(self):
        """Current data-phase owner index (delayed ``HMASTER``)."""
        return self.hmaster_d.value
