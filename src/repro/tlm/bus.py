"""Transaction-level bus primitives: arbitration and address decode.

The cycle-accurate :class:`~repro.amba.arbiter.Arbiter` evaluates its
grant combinationally every delta cycle; at transaction granularity
the same policies collapse to a single pick per bus tenure.  The
approximations are deliberate and calibratable:

* **fixed-priority** keeps the parking behaviour — the owner retains
  the bus across back-to-back transactions (``HTRANS`` never returns
  to IDLE, so the cycle-accurate grant is never re-evaluated) but
  loses it to the lowest requesting index after any idle gap;
* **round-robin** re-arbitrates at every transaction boundary with a
  rotating pointer, matching the burst-boundary re-evaluation of the
  signal-level arbiter;
* **tdma** derives the slot owner from the bus cycle counter exactly
  like the signal-level arbiter's free-running counter, with
  fixed-priority slot reclaiming.
"""

from __future__ import annotations

from ..amba.config import Arbitration


class TlmArbiter:
    """One-pick-per-tenure arbitration over *n_masters* masters.

    ``default_master`` is the index the bus parks on (never a traffic
    source); ``ready`` lists real master indices with a transaction
    ready this cycle, always non-empty and sorted ascending.
    """

    def __init__(self, policy, n_masters, default_master,
                 tdma_slot_cycles=8):
        if policy not in Arbitration.ALL:
            raise ValueError("unknown arbitration policy %r" % policy)
        self.policy = policy
        self.n_masters = n_masters
        self.default_master = default_master
        self.tdma_slot_cycles = int(tdma_slot_cycles)
        self._tdma_masters = [index for index in range(n_masters)
                              if index != default_master] or [0]
        self._rr_pointer = default_master

    def pick(self, ready, owner, owner_chained, cycle):
        """Grant decision for the tenure starting at *cycle*.

        *owner_chained* is True when the current owner's next
        transaction was ready the moment its previous one finished —
        the transaction-level image of ``HTRANS`` staying active, which
        is what parks a fixed-priority bus on its owner.
        """
        if self.policy == Arbitration.FIXED_PRIORITY:
            if owner_chained and owner in ready:
                return owner
            return ready[0]
        if self.policy == Arbitration.TDMA:
            slot_index = ((cycle // self.tdma_slot_cycles)
                          % len(self._tdma_masters))
            slot = self._tdma_masters[slot_index]
            return slot if slot in ready else ready[0]
        # round-robin: first ready index after the pointer
        for offset in range(1, self.n_masters + 1):
            candidate = (self._rr_pointer + offset) % self.n_masters
            if candidate in ready:
                self._rr_pointer = candidate
                return candidate
        return ready[0]  # pragma: no cover - ready is non-empty


class TlmDecoder:
    """Uniform address map mirror of
    :meth:`repro.amba.config.AhbConfig.with_uniform_map`: *n_slaves*
    consecutive regions of *region_size* bytes starting at zero."""

    def __init__(self, n_slaves, region_size):
        self.n_slaves = int(n_slaves)
        self.region_size = int(region_size)

    def decode(self, address):
        """Slave index owning *address*, or ``None`` on a decode miss."""
        index = address // self.region_size
        if 0 <= index < self.n_slaves:
            return index
        return None
