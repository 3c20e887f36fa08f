"""AHB master bus-functional model (BFM).

The master executes :class:`~repro.amba.transactions.AhbTransaction`
objects from an explicit queue or pulled on demand from a traffic
source (see :mod:`repro.workloads`).  It is written exactly like RTL:
one sequential process on the bus clock, registered outputs, and the
pipelined address/data-phase discipline of the AMBA spec:

* an address phase presented in cycle *k* is accepted at the edge that
  ends cycle *k* when ``HREADY`` is high and enters its data phase in
  cycle *k+1*;
* all outputs are held while ``HREADY`` is low;
* on a first RETRY/SPLIT/ERROR response cycle (``HREADY=0``,
  ``HRESP != OKAY``) the master cancels the following transfer by
  driving IDLE (spec rev 2.0 §3.9.3);
* a RETRY or SPLIT completion re-issues the failed beat; an ERROR
  completion aborts the remaining beats of the transaction.
"""

from __future__ import annotations

from collections import deque

from ..kernel import Module
from .transactions import Beat, txn_from_state, txn_state
from .types import HRESP, HTRANS, hresp_of

# Hot-path constants: the per-cycle drive methods run once per master
# per clock cycle, where even the IntEnum→int conversion shows up.
_TRANS_IDLE = int(HTRANS.IDLE)
_TRANS_BUSY = int(HTRANS.BUSY)
_TRANS_NONSEQ = int(HTRANS.NONSEQ)
_TRANS_SEQ = int(HTRANS.SEQ)
_OKAY = HRESP.OKAY
_REISSUE = (HRESP.RETRY, HRESP.SPLIT)


class TrafficSource:
    """Interface pulled by a master when its queue runs dry.

    Subclasses implement :meth:`next_transaction`, returning a new
    :class:`AhbTransaction` or ``None`` when (currently) out of work.
    """

    def next_transaction(self, now):  # pragma: no cover - interface
        """Return the next transaction to issue, or ``None``."""
        raise NotImplementedError


class AhbMaster(Module):
    """A pipelined AHB master.

    Parameters
    ----------
    sim, name, parent:
        Kernel module plumbing.
    clk:
        Bus clock.
    port:
        The master's :class:`~repro.amba.ports.MasterPort`.
    bus:
        The :class:`~repro.amba.bus.AhbBus` fabric (for the shared
        ``HREADY``/``HRESP``/``HRDATA`` signals).
    source:
        Optional :class:`TrafficSource` pulled when the queue is empty.
    retry_limit:
        Maximum RETRY/SPLIT re-issues tolerated per transaction.
        ``None`` (default) preserves the spec behaviour of retrying
        forever — which livelocks against a slave that always answers
        RETRY.  With a limit, the transaction completes with
        ``error=True`` and an ``abort_reason`` once the budget is
        spent, so workloads degrade instead of hanging.
    retry_backoff:
        Idle cycles inserted (bus released) before re-issuing a beat
        that got a RETRY/SPLIT response; 0 re-issues immediately.
    """

    def __init__(self, sim, name, clk, port, bus, source=None,
                 retry_limit=None, retry_backoff=0, parent=None):
        super().__init__(sim, name, parent=parent)
        self.clk = clk
        self.port = port
        self.bus = bus
        self.source = source
        self.retry_limit = retry_limit
        self.retry_backoff = int(retry_backoff)

        self._queue = deque()
        self._current = None
        self._beat_index = 0
        self._busy_remaining = 0
        self._idle_countdown = 0
        self._addr_beat = None
        self._data_beat = None

        #: Completed transactions, in completion order.
        self.completed = []
        #: Callbacks invoked as ``fn(transaction)`` on completion.
        self.on_complete = []
        #: Statistics.
        self.beats_completed = 0
        self.wait_cycles = 0
        self.busy_cycles = 0
        self.idle_owned_cycles = 0
        self.retries_seen = 0
        self.aborted_transactions = 0
        self.backoff_cycles = 0

        self.method(self._on_clk, [clk.posedge], name="fsm",
                    initialize=False)

    # -- public API ------------------------------------------------------

    def enqueue(self, transaction):
        """Queue *transaction* for execution; returns the transaction."""
        self._queue.append(transaction)
        return transaction

    @property
    def idle(self):
        """True when no transaction is queued, active or in flight."""
        return (self._current is None and not self._queue
                and self._addr_beat is None and self._data_beat is None)

    @property
    def outstanding(self):
        """Number of transactions queued or being executed."""
        count = len(self._queue)
        if self._current is not None:
            count += 1
        return count

    # -- sequential behaviour ----------------------------------------------

    def _on_clk(self):
        bus = self.bus
        if not bus.hready._value:
            self.wait_cycles += 1
            self._handle_stalled_response(hresp_of(bus.hresp._value))
            return

        if self._data_beat is None and self._addr_beat is None \
                and self._current is None and self._idle_countdown <= 0 \
                and not self._queue and self.source is None:
            # Nothing to do and nothing to pull (the default master):
            # the full path below would make exactly these writes.
            port = self.port
            port.htrans.write(_TRANS_IDLE)
            if port.hgrant._value:
                self.idle_owned_cycles += 1
            port.hbusreq.write(0)
            port.hlock.write(0)
            return

        self._complete_data_phase()
        advancing = self._addr_beat
        self._addr_beat = None
        self._advance_idle_and_pull()
        self._drive_address_phase(self.port.hgrant._value)
        self._enter_data_phase(advancing)
        self._drive_request()

    def _advance_idle_and_pull(self):
        """Tick the inter-transaction idle gap and pull new work.

        Runs once per accepted bus cycle, independent of grant: a
        master decides *what it wants* locally and only the address
        phase depends on owning the bus.
        """
        if self._idle_countdown > 0:
            self._idle_countdown -= 1
            return
        if self._current is None:
            self._pull_next_transaction()
            if self._idle_countdown > 0:
                self._idle_countdown -= 1

    def _handle_stalled_response(self, resp):
        """First cycle of a two-cycle non-OKAY response: cancel the
        transfer currently in its (extended) address phase."""
        if resp == _OKAY or self._addr_beat is None:
            return
        cancelled = self._addr_beat
        self._addr_beat = None
        self._rewind_to(cancelled)
        self.port.htrans.write(_TRANS_IDLE)

    def _complete_data_phase(self):
        """Finish the beat whose data phase just ended (HREADY high)."""
        beat = self._data_beat
        if beat is None:
            return
        self._data_beat = None
        resp = hresp_of(self.bus.hresp._value)
        txn = beat.txn
        txn.responses.append(resp)
        if resp == _OKAY:
            if not beat.write:
                txn.rdata.append(self.bus.hrdata._value)
            self.beats_completed += 1
            if beat.last:
                self._finish_transaction(txn)
        elif resp in _REISSUE:
            txn.retries += 1
            self.retries_seen += 1
            if self.retry_limit is not None and \
                    txn.retries > self.retry_limit:
                self._abort_transaction(
                    txn,
                    "retry budget exhausted (%d retries > limit %d)"
                    % (txn.retries, self.retry_limit),
                )
                return
            self._rewind_to(beat)
            if self.retry_backoff:
                self._idle_countdown = max(self._idle_countdown,
                                           self.retry_backoff)
                self.backoff_cycles += self.retry_backoff
        else:  # ERROR
            txn.error = True
            if self._current is txn:
                self._current = None
                self._beat_index = 0
                self._busy_remaining = 0
            self._finish_transaction(txn)

    def _finish_transaction(self, txn):
        txn.done = True
        txn.complete_time = self.sim.now
        self.completed.append(txn)
        for callback in self.on_complete:
            callback(txn)

    def _abort_transaction(self, txn, reason):
        """Give up on *txn*: complete it as a failure and move on."""
        if txn.done:
            return
        txn.error = True
        txn.abort_reason = reason
        if self._addr_beat is not None and self._addr_beat.txn is txn:
            self._addr_beat = None
        if self._data_beat is not None and self._data_beat.txn is txn:
            self._data_beat = None
        if self._current is txn:
            self._current = None
            self._beat_index = 0
            self._busy_remaining = 0
        self.aborted_transactions += 1
        self._finish_transaction(txn)

    def abort_current(self, reason="aborted"):
        """Abort the transaction currently in flight (watchdog recovery).

        Returns the aborted transaction, or ``None`` when the master
        was idle.  The transaction completes with ``error=True`` and
        ``abort_reason=reason``; queued transactions are unaffected.
        """
        txn = None
        if self._data_beat is not None:
            txn = self._data_beat.txn
        elif self._addr_beat is not None:
            txn = self._addr_beat.txn
        elif self._current is not None:
            txn = self._current
        if txn is None or txn.done:
            return None
        self._abort_transaction(txn, reason)
        return txn

    def _rewind_to(self, beat):
        """Roll the issue pointer back so *beat* is re-issued."""
        if self._current is not None and self._current is not beat.txn:
            # The interrupted transaction cannot have issued any beat
            # yet (its first address phase was never accepted), so it
            # goes back to the queue head wholesale.
            assert self._beat_index == 0, "cannot push back a partial burst"
            self._queue.appendleft(self._current)
        self._current = beat.txn
        self._beat_index = beat.index
        self._busy_remaining = 0
        self._force_nonseq = True

    def _drive_address_phase(self, granted):
        port = self.port
        if not granted:
            port.htrans.write(_TRANS_IDLE)
            if self._current is not None and self._beat_index > 0:
                # Lost the bus mid-burst (round-robin boundary
                # preemption): the remaining beats restart as a new
                # burst when the grant comes back (spec §3.11.2).
                self._force_nonseq = True
            return
        action, payload = self._next_drive()
        if action == "beat":
            beat = payload
            # NONSEQ for the first beat of a burst and for beats
            # re-issued after a rewind (RETRY/SPLIT or cancelled
            # address phase); SEQ otherwise.
            htrans = _TRANS_NONSEQ if (beat.first or self._reissue) \
                else _TRANS_SEQ
            self._reissue = False
            port.htrans.write(htrans)
            port.haddr.write(beat.address)
            port.hwrite.write(1 if beat.write else 0)
            port.hsize.write(int(beat.txn.hsize))
            port.hburst.write(int(beat.txn.hburst))
            if beat.txn.issue_time is None:
                beat.txn.issue_time = self.sim.now
            self._addr_beat = beat
        elif action == "busy":
            port.htrans.write(_TRANS_BUSY)
            port.haddr.write(payload)
            self.busy_cycles += 1
        else:
            port.htrans.write(_TRANS_IDLE)
            self.idle_owned_cycles += 1

    _reissue = False
    _force_nonseq = False

    def _next_drive(self):
        """Decide what to present in the next address phase.

        Returns ``("beat", Beat)``, ``("busy", next_address)`` or
        ``("idle", None)``.
        """
        if self._idle_countdown > 0:
            return ("idle", None)
        txn = self._current
        if txn is None:
            return ("idle", None)
        if self._busy_remaining > 0:
            self._busy_remaining -= 1
            return ("busy", txn.beat_address(self._beat_index))
        beat = Beat(txn, self._beat_index)
        self._reissue = self._force_nonseq
        self._force_nonseq = False
        self._beat_index += 1
        if self._beat_index >= txn.beats:
            self._current = None
            self._beat_index = 0
        elif txn.busy_between_beats:
            self._busy_remaining = txn.busy_between_beats
        return ("beat", beat)

    def _pull_next_transaction(self):
        if self._queue:
            txn = self._queue.popleft()
        elif self.source is not None:
            txn = self.source.next_transaction(self.sim.now)
        else:
            txn = None
        if txn is None:
            return
        self._current = txn
        self._beat_index = 0
        self._busy_remaining = 0
        if txn.idle_cycles_before:
            self._idle_countdown = txn.idle_cycles_before

    def _enter_data_phase(self, beat):
        self._data_beat = beat
        if beat is not None and beat.write:
            self.port.hwdata.write(beat.data)

    def _drive_request(self):
        wants = (self._current is not None or bool(self._queue)
                 or self._addr_beat is not None)
        if self._idle_countdown > 0:
            wants = False
        self.port.hbusreq.write(1 if wants else 0)
        locked = (self._current is not None and self._current.locked)
        if self._addr_beat is not None and self._addr_beat.txn.locked:
            locked = True
        self.port.hlock.write(1 if locked else 0)

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        """Snapshot the BFM: queue, in-flight beats, results, stats.

        Transactions are serialized once into a shared table and
        referenced by id, preserving object identity across the queue,
        the in-flight beats and the completed list on restore.
        """
        table = {}

        def ref(txn):
            if txn is None:
                return None
            table[str(txn.id)] = txn
            return txn.id

        def beat_ref(beat):
            if beat is None:
                return None
            return [ref(beat.txn), beat.index]

        state = {
            "queue": [ref(txn) for txn in self._queue],
            "completed": [ref(txn) for txn in self.completed],
            "current": ref(self._current),
            "addr_beat": beat_ref(self._addr_beat),
            "data_beat": beat_ref(self._data_beat),
            "beat_index": self._beat_index,
            "busy_remaining": self._busy_remaining,
            "idle_countdown": self._idle_countdown,
            "reissue": self._reissue,
            "force_nonseq": self._force_nonseq,
            "stats": {
                "beats_completed": self.beats_completed,
                "wait_cycles": self.wait_cycles,
                "busy_cycles": self.busy_cycles,
                "idle_owned_cycles": self.idle_owned_cycles,
                "retries_seen": self.retries_seen,
                "aborted_transactions": self.aborted_transactions,
                "backoff_cycles": self.backoff_cycles,
            },
        }
        state["txns"] = {key: txn_state(txn)
                         for key, txn in table.items()}
        return state

    def load_state_dict(self, state):
        table = {int(key): txn_from_state(value)
                 for key, value in state["txns"].items()}

        def deref(txn_id):
            return None if txn_id is None else table[txn_id]

        def beat(ref):
            if ref is None:
                return None
            return Beat(table[ref[0]], ref[1])

        self._queue = deque(deref(txn_id) for txn_id in state["queue"])
        self.completed = [deref(txn_id) for txn_id in state["completed"]]
        self._current = deref(state["current"])
        self._addr_beat = beat(state["addr_beat"])
        self._data_beat = beat(state["data_beat"])
        self._beat_index = state["beat_index"]
        self._busy_remaining = state["busy_remaining"]
        self._idle_countdown = state["idle_countdown"]
        self._reissue = state["reissue"]
        self._force_nonseq = state["force_nonseq"]
        stats = state["stats"]
        self.beats_completed = stats["beats_completed"]
        self.wait_cycles = stats["wait_cycles"]
        self.busy_cycles = stats["busy_cycles"]
        self.idle_owned_cycles = stats["idle_owned_cycles"]
        self.retries_seen = stats["retries_seen"]
        self.aborted_transactions = stats["aborted_transactions"]
        self.backoff_cycles = stats["backoff_cycles"]


class DefaultMaster(AhbMaster):
    """The paper's "simple default master".

    Never requests the bus and always drives IDLE; the arbiter grants
    it whenever no real master is requesting, so the bus has a defined
    owner at all times.
    """

    def __init__(self, sim, name, clk, port, bus, parent=None):
        super().__init__(sim, name, clk, port, bus, source=None,
                         parent=parent)

    def enqueue(self, transaction):
        raise TypeError("the default master cannot execute transactions")
