"""Bus transactions: the unit of work a master BFM executes.

An :class:`AhbTransaction` describes one AHB burst (a SINGLE transfer
is a one-beat burst).  The master turns it into address/data-phase
*beats*; results (read data, per-beat responses, completion time) are
collected back onto the transaction object.
"""

from __future__ import annotations

from .types import _BEATS, _WRAPS, HBURST, HRESP, HSIZE, burst_addresses

# Transaction ids come from a process-wide counter.  It is resettable
# (and capturable) so that replayed / checkpoint-restored runs assign
# the same ids regardless of how many transactions earlier runs in the
# same process created.
_next_txn_id = 0


def txn_id_counter():
    """The id the next constructed transaction would receive."""
    return _next_txn_id


def reset_txn_ids(value=0):
    """Reset the process-wide transaction id counter.

    Called at the top of :func:`repro.replay.execute` (cross-run
    determinism) and by checkpoint restore (the counter is part of the
    captured state).
    """
    global _next_txn_id
    _next_txn_id = int(value)


class TxnIdCounterState:
    """State provider for the transaction id counter.

    Must be registered *after* every provider whose restore constructs
    transactions (:func:`txn_from_state` consumes counter ids before
    overwriting them), so the load here lands last and wins.
    """

    def state_dict(self):
        return {"next_id": txn_id_counter()}

    def load_state_dict(self, state):
        reset_txn_ids(state["next_id"])


class AhbTransaction:
    """One AHB burst issued by a master.

    Parameters
    ----------
    write:
        ``True`` for a write burst, ``False`` for a read burst.
    address:
        First beat address; must be aligned to ``hsize``.
    data:
        Write data, one integer per beat (writes only).
    hsize:
        Transfer size; defaults to WORD.
    hburst:
        Burst kind; defaults to SINGLE.
    beats:
        Beat count for undefined-length INCR bursts.
    locked:
        Assert ``HLOCK`` for the duration of the transaction.
    idle_cycles_before:
        Number of cycles the master idles (bus released) before
        requesting the bus for this transaction — the paper's random
        IDLE commands.
    busy_between_beats:
        Number of BUSY cycles inserted between burst beats.
    """

    __slots__ = ("id", "write", "address", "hsize", "hburst", "locked",
                 "idle_cycles_before", "busy_between_beats", "beats",
                 "data", "_addresses", "rdata", "responses", "retries",
                 "error", "abort_reason", "done", "issue_time",
                 "complete_time")

    def __init__(self, write, address, data=None, hsize=HSIZE.WORD,
                 hburst=HBURST.SINGLE, beats=None, locked=False,
                 idle_cycles_before=0, busy_between_beats=0):
        # Traffic generation is most of a transaction-level run and
        # builds one of these per transaction, so an argument already
        # of its stored type is not converted again, and the write data
        # is masked in a loop (a comprehension costs a frame of its own).
        global _next_txn_id
        self.id = _next_txn_id
        _next_txn_id += 1
        self.write = write = True if write else False
        if type(address) is not int:
            address = int(address)
        self.address = address
        if type(hsize) is not HSIZE:
            hsize = HSIZE(hsize)
        self.hsize = hsize
        if type(hburst) is not HBURST:
            hburst = HBURST(hburst)
        self.hburst = hburst
        self.locked = True if locked else False
        self.idle_cycles_before = (
            idle_cycles_before if type(idle_cycles_before) is int
            else int(idle_cycles_before))
        self.busy_between_beats = (
            busy_between_beats if type(busy_between_beats) is int
            else int(busy_between_beats))

        fixed = _BEATS[hburst]
        if fixed is None:
            if beats is None:
                beats = 1 if data is None else len(data)
            beats = int(beats)
            if beats < 1:
                raise ValueError("transaction needs at least one beat")
        elif beats is not None and beats != fixed:
            raise ValueError(
                "%s bursts have %d beats" % (hburst.name, fixed)
            )
        else:
            beats = fixed
        self.beats = beats
        step = 1 << hsize
        if address % step:
            raise ValueError(
                "address %#x unaligned for %s" % (address, hsize.name)
            )

        if write:
            if data is None:
                raise ValueError("write transaction needs data")
            mask = (1 << (8 * step)) - 1
            masked = []
            for value in data:
                masked.append(value & mask)
            self.data = data = masked
            if len(data) != beats:
                raise ValueError(
                    "write burst of %d beats got %d data items"
                    % (beats, len(data))
                )
        elif data is not None:
            raise ValueError("read transaction takes no data")
        else:
            self.data = None

        self._addresses = None

        # -- results filled in by the master BFM ------------------------
        self.rdata = []
        self.responses = []
        self.retries = 0
        self.error = False
        #: Why the master gave up on the transaction (retry budget
        #: exhaustion, watchdog abort); ``None`` for normal completion
        #: and plain slave ERROR responses.
        self.abort_reason = None
        self.done = False
        self.issue_time = None
        self.complete_time = None

    @classmethod
    def read(cls, address, **kwargs):
        """Convenience constructor for a read transaction."""
        return cls(False, address, **kwargs)

    @classmethod
    def write_single(cls, address, value, **kwargs):
        """Convenience constructor for a single-beat write."""
        return cls(True, address, data=[value], **kwargs)

    @property
    def addresses(self):
        """Every beat's address, in issue order.

        Built on first use: the cycle-accurate master asks once per
        beat, a transaction-level run never does.
        """
        addresses = self._addresses
        if addresses is None:
            address = self.address
            if self.beats == 1:
                addresses = [address]
            elif _WRAPS[self.hburst]:
                addresses = burst_addresses(address, self.hburst,
                                            self.hsize)
            else:
                step = 1 << self.hsize
                addresses = list(range(address,
                                       address + self.beats * step, step))
            self._addresses = addresses
        return addresses

    def beat_address(self, index):
        """Return the address of beat *index*."""
        return self.addresses[index]

    @property
    def latency(self):
        """Cycles (kernel time) between issue and completion, if done."""
        if self.issue_time is None or self.complete_time is None:
            return None
        return self.complete_time - self.issue_time

    def __repr__(self):
        kind = "WRITE" if self.write else "READ"
        return "AhbTransaction(#%d %s %s@%#x x%d)" % (
            self.id, kind, self.hburst.name, self.address, self.beats,
        )


def txn_state(txn):
    """JSON-able state of *txn* (configuration + results + id)."""
    return {
        "id": txn.id,
        "write": txn.write,
        "address": txn.address,
        "data": None if txn.data is None else list(txn.data),
        "hsize": int(txn.hsize),
        "hburst": int(txn.hburst),
        "beats": txn.beats,
        "locked": txn.locked,
        "idle_cycles_before": txn.idle_cycles_before,
        "busy_between_beats": txn.busy_between_beats,
        "rdata": list(txn.rdata),
        "responses": [int(response) for response in txn.responses],
        "retries": txn.retries,
        "error": txn.error,
        "abort_reason": txn.abort_reason,
        "done": txn.done,
        "issue_time": txn.issue_time,
        "complete_time": txn.complete_time,
    }


def txn_from_state(state):
    """Rebuild a transaction from :func:`txn_state` output.

    Construction consumes a fresh counter id, which is then overwritten
    with the recorded one; callers restoring a whole snapshot reset the
    counter afterwards (it is captured separately).
    """
    txn = AhbTransaction(
        state["write"], state["address"], data=state["data"],
        hsize=HSIZE(state["hsize"]), hburst=HBURST(state["hburst"]),
        beats=state["beats"], locked=state["locked"],
        idle_cycles_before=state["idle_cycles_before"],
        busy_between_beats=state["busy_between_beats"],
    )
    txn.id = state["id"]
    txn.rdata = list(state["rdata"])
    txn.responses = [HRESP(response) for response in state["responses"]]
    txn.retries = state["retries"]
    txn.error = state["error"]
    txn.abort_reason = state["abort_reason"]
    txn.done = state["done"]
    txn.issue_time = state["issue_time"]
    txn.complete_time = state["complete_time"]
    return txn


class Beat:
    """One address/data-phase beat derived from a transaction."""

    __slots__ = ("txn", "index", "address", "write", "data", "first", "last")

    def __init__(self, txn, index):
        self.txn = txn
        self.index = index
        self.address = txn.beat_address(index)
        self.write = txn.write
        self.data = txn.data[index] if txn.write else None
        self.first = index == 0
        self.last = index == txn.beats - 1

    def __repr__(self):
        return "Beat(txn=%d, beat=%d, addr=%#x)" % (
            self.txn.id, self.index, self.address,
        )
