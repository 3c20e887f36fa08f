"""AHB slave models.

:class:`MemorySlave` is a byte-addressable memory with configurable
wait states and optional error / retry injection — enough to stand in
for the on-chip RAM, ROM and peripheral slaves of the paper's
testbench.  :class:`DefaultSlave` implements the spec-required default
slave selected for unmapped addresses (OKAY to IDLE/BUSY, two-cycle
ERROR to NONSEQ/SEQ).
"""

from __future__ import annotations

from ..kernel import Module
from .types import HRESP, hresp_of, is_active_code, size_bytes

# Per-cycle constants (every slave writes hresp each cycle; a member
# looked up on the enum class costs more than a module global).
_RESP_OKAY = int(HRESP.OKAY)
_OKAY = HRESP.OKAY
_ERROR = HRESP.ERROR
_RETRY = HRESP.RETRY
_SPLIT = HRESP.SPLIT


class _PendingTransfer:
    """Address-phase information latched by a slave."""

    __slots__ = ("address", "write", "size", "burst")

    def __init__(self, address, write, size, burst):
        self.address = address
        self.write = write
        self.size = size
        self.burst = burst


class AhbSlaveBase(Module):
    """Common sequential skeleton for AHB slaves.

    Subclasses override :meth:`_begin_transfer` (return the number of
    wait states, or a response plan) and :meth:`_do_read` /
    :meth:`_do_write`.

    ``_begin_transfer`` may return ``(None, OKAY)`` for a transfer of
    *unknown* duration: the slave stalls (``HREADYOUT=0``) until the
    subclass calls :meth:`_finish_stall`, which supplies the final
    response — the mechanism bridges use while a downstream bus works.

    The skeleton implements the pipeline discipline:

    * an address phase is sampled at a rising edge with ``HREADY``
      (bus-wide) high, ``HSEL`` high and an active ``HTRANS``;
    * the data phase then runs for ``wait_states`` cycles of
      ``HREADYOUT=0`` followed by one cycle of ``HREADYOUT=1``;
    * non-OKAY responses follow the two-cycle protocol
      (``HREADY=0,resp`` then ``HREADY=1,resp``).
    """

    def __init__(self, sim, name, clk, port, bus, parent=None):
        super().__init__(sim, name, parent=parent)
        self.clk = clk
        self.port = port
        self.bus = bus
        self._pending = None
        self._waits_left = 0
        self._response = _OKAY
        self._resp_cycles_left = 0
        self._stall_result = None
        self._stall_rdata = 0
        #: Statistics.
        self.transfers_accepted = 0
        self.reads = 0
        self.writes = 0
        self.error_responses = 0
        self.retry_responses = 0
        self.split_responses = 0
        self.method(self._on_clk, [clk.posedge], name="fsm",
                    initialize=False)

    # -- subclass hooks ---------------------------------------------------

    def _begin_transfer(self, transfer):
        """Return ``(wait_states, response)`` for *transfer*."""
        raise NotImplementedError  # pragma: no cover - interface

    def _do_read(self, address, size):
        """Return the read value for the completing transfer."""
        raise NotImplementedError  # pragma: no cover - interface

    def _do_write(self, address, size, value):
        """Commit the write value of the completing transfer."""
        raise NotImplementedError  # pragma: no cover - interface

    # -- sequential behaviour ----------------------------------------------

    def _on_clk(self):
        port = self.port
        bus = self.bus
        bus_ready = bus.hready._value

        # 1. Finish the data phase that completed during the last cycle.
        if self._pending is not None and port.hready_out._value \
                and bus_ready:
            transfer = self._pending
            self._pending = None
            if self._response == _OKAY and transfer.write:
                self._do_write(transfer.address, transfer.size,
                               bus.hwdata._value)
                self.writes += 1
            elif self._response == _OKAY:
                self.reads += 1
            self._response = _OKAY

        # 2. Sample a new address phase.
        if bus_ready and port.hsel._value and \
                is_active_code(bus.htrans._value):
            transfer = _PendingTransfer(
                bus.haddr._value, bool(bus.hwrite._value),
                bus.hsize._value, bus.hburst._value,
            )
            self._pending = transfer
            self.transfers_accepted += 1
            waits, response = self._begin_transfer(transfer)
            self._stall_result = None
            self._waits_left = None if waits is None \
                else max(0, int(waits))
            self._response = hresp_of(response)
            if self._waits_left is None and \
                    self._response != _OKAY:
                raise ValueError(
                    "stalled transfers must start with an OKAY plan")
            if self._response != _OKAY:
                # Two-cycle response: one (or more) wait cycles showing
                # the response with HREADY low, then the final cycle.
                self._resp_cycles_left = max(1, self._waits_left)
                self._count_response(self._response)

        # 3. Drive the data phase outputs for the coming cycle.  With
        # no transfer pending that is the idle HREADYOUT=1 / OKAY pair.
        if self._pending is None:
            port.hready_out.write(1)
            port.hresp.write(_RESP_OKAY)
        else:
            self._drive_outputs()

    def _count_response(self, response):
        """Tally a non-OKAY response by kind (RETRY and SPLIT are
        distinct protocol flows and are counted separately)."""
        if response == _ERROR:
            self.error_responses += 1
        elif response == _RETRY:
            self.retry_responses += 1
        elif response == _SPLIT:
            self.split_responses += 1

    def _finish_stall(self, response=HRESP.OKAY, rdata=None):
        """Complete a transfer begun with unknown duration.

        Called by subclasses (typically from a downstream-completion
        callback); the transfer finishes on the following cycle.
        """
        if self._waits_left is not None:
            raise RuntimeError("no stalled transfer to finish")
        self._stall_result = (hresp_of(response), rdata)

    def _drive_outputs(self):
        """Drive the data-phase outputs of the pending transfer."""
        port = self.port
        if self._waits_left is None:
            if self._stall_result is None:
                port.hready_out.write(0)
                port.hresp.write(_RESP_OKAY)
                return
            response, rdata = self._stall_result
            self._stall_result = None
            self._waits_left = 0
            self._response = response
            if rdata is not None:
                self._stall_rdata = rdata
            if response != _OKAY:
                self._resp_cycles_left = 1
                self._count_response(response)
        if self._response != _OKAY:
            port.hresp.write(int(self._response))
            if self._resp_cycles_left > 0:
                self._resp_cycles_left -= 1
                port.hready_out.write(0)
            else:
                port.hready_out.write(1)
            return
        port.hresp.write(_RESP_OKAY)
        if self._waits_left > 0:
            self._waits_left -= 1
            port.hready_out.write(0)
        else:
            port.hready_out.write(1)
            if not self._pending.write:
                port.hrdata.write(
                    self._do_read(self._pending.address, self._pending.size)
                )

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        pending = None
        if self._pending is not None:
            pending = {
                "address": self._pending.address,
                "write": self._pending.write,
                "size": self._pending.size,
                "burst": self._pending.burst,
            }
        stall = None
        if self._stall_result is not None:
            stall = [int(self._stall_result[0]), self._stall_result[1]]
        return {
            "pending": pending,
            "waits_left": self._waits_left,
            "response": int(self._response),
            "resp_cycles_left": self._resp_cycles_left,
            "stall_result": stall,
            "stall_rdata": self._stall_rdata,
            "stats": {
                "transfers_accepted": self.transfers_accepted,
                "reads": self.reads,
                "writes": self.writes,
                "error_responses": self.error_responses,
                "retry_responses": self.retry_responses,
                "split_responses": self.split_responses,
            },
        }

    def load_state_dict(self, state):
        pending = state["pending"]
        if pending is None:
            self._pending = None
        else:
            self._pending = _PendingTransfer(
                pending["address"], pending["write"],
                pending["size"], pending["burst"],
            )
        self._waits_left = state["waits_left"]
        self._response = HRESP(state["response"])
        self._resp_cycles_left = state["resp_cycles_left"]
        stall = state["stall_result"]
        self._stall_result = None if stall is None \
            else (HRESP(stall[0]), stall[1])
        self._stall_rdata = state["stall_rdata"]
        stats = state["stats"]
        self.transfers_accepted = stats["transfers_accepted"]
        self.reads = stats["reads"]
        self.writes = stats["writes"]
        self.error_responses = stats["error_responses"]
        self.retry_responses = stats["retry_responses"]
        self.split_responses = stats["split_responses"]


class MemorySlave(AhbSlaveBase):
    """Byte-addressable memory slave.

    Parameters
    ----------
    base:
        Base bus address of this slave's region; the memory is indexed
        by the offset within the region (what the address low bits
        carry into a real slave).
    wait_states:
        Wait states inserted in every data phase (0 = zero-wait RAM).
    size:
        Optional memory size in bytes; accesses past it get a two-cycle
        ERROR response.
    fail_addresses:
        Optional set of *bus* addresses answered with ERROR (fault
        injection).
    retry_period:
        When set to N > 0, every Nth accepted transfer is answered with
        RETRY first (exercises the master's re-issue path).
    """

    def __init__(self, sim, name, clk, port, bus, base=0, wait_states=0,
                 size=None, fail_addresses=(), retry_period=0, parent=None):
        super().__init__(sim, name, clk, port, bus, parent=parent)
        self.base = int(base)
        self.wait_states = int(wait_states)
        self.size = size
        self.fail_addresses = set(fail_addresses)
        self.retry_period = int(retry_period)
        self._mem = {}

    def _offset(self, address):
        return address - self.base

    def _begin_transfer(self, transfer):
        offset = self._offset(transfer.address)
        if offset < 0 or (self.size is not None and offset >= self.size):
            return (self.wait_states, _ERROR)
        if transfer.address in self.fail_addresses:
            return (self.wait_states, _ERROR)
        if self.retry_period and \
                self.transfers_accepted % self.retry_period == 0:
            return (self.wait_states, _RETRY)
        return (self.wait_states, _OKAY)

    def _do_read(self, address, size):
        local = self._offset(address)
        value = 0
        for offset in range(size_bytes(size)):
            value |= self._mem.get(local + offset, 0) << (8 * offset)
        return value

    def _do_write(self, address, size, value):
        local = self._offset(address)
        for offset in range(size_bytes(size)):
            self._mem[local + offset] = (value >> (8 * offset)) & 0xFF

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        state = super().state_dict()
        # JSON object keys are strings; offsets are re-intified on load.
        state["mem"] = {str(offset): byte
                        for offset, byte in sorted(self._mem.items())}
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self._mem = {int(offset): byte
                     for offset, byte in state["mem"].items()}

    # -- direct (zero-time) access for testbenches -------------------------

    def poke(self, offset, value, size=4):
        """Backdoor write of *size* bytes at region offset *offset*."""
        for index in range(size):
            self._mem[offset + index] = (value >> (8 * index)) & 0xFF

    def peek(self, offset, size=4):
        """Backdoor read of *size* bytes at region offset *offset*."""
        value = 0
        for index in range(size):
            value |= self._mem.get(offset + index, 0) << (8 * index)
        return value


class SplitCapableSlave(MemorySlave):
    """A memory slave that answers selected transfers with SPLIT.

    Models a slave fronting a slow resource (e.g. an external-memory
    controller): rather than stalling the whole bus it SPLITs the
    requesting master, frees the bus, and raises its ``HSPLITx`` bit
    once the resource is ready (after ``split_latency`` bus cycles),
    at which point the retried access is served normally
    (AMBA rev 2.0 §3.12).

    Parameters
    ----------
    split_period:
        Every Nth *new* transfer is split (0 disables splitting).
    split_latency:
        Bus cycles between the SPLIT response and the HSPLIT release.
    """

    def __init__(self, sim, name, clk, port, bus, split_period=1,
                 split_latency=8, **kwargs):
        super().__init__(sim, name, clk, port, bus, **kwargs)
        self.split_period = int(split_period)
        self.split_latency = int(split_latency)
        self._split_countdowns = {}
        self._must_serve = set()
        self._new_transfers = 0
        self.splits_issued = 0
        self.method(self._split_timer, [clk.posedge], name="split_timer",
                    initialize=False)

    def _begin_transfer(self, transfer):
        master = self.bus.hmaster._value
        if master in self._must_serve:
            # The retried access of a previously split master.
            self._must_serve.discard(master)
            return super()._begin_transfer(transfer)
        waits, response = super()._begin_transfer(transfer)
        if response != _OKAY:
            return (waits, response)
        self._new_transfers += 1
        if self.split_period and \
                self._new_transfers % self.split_period == 0 and \
                master not in self._split_countdowns:
            self._split_countdowns[master] = self.split_latency
            self.splits_issued += 1
            return (0, _SPLIT)
        return (waits, response)

    def _split_timer(self):
        """Count down pending splits; pulse HSPLIT for ripe ones."""
        release = 0
        for master in list(self._split_countdowns):
            self._split_countdowns[master] -= 1
            if self._split_countdowns[master] <= 0:
                del self._split_countdowns[master]
                self._must_serve.add(master)
                release |= 1 << master
        self.port.hsplit.write(release)

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        state = super().state_dict()
        state["split_countdowns"] = {
            str(master): left
            for master, left in sorted(self._split_countdowns.items())
        }
        state["must_serve"] = sorted(self._must_serve)
        state["new_transfers"] = self._new_transfers
        state["splits_issued"] = self.splits_issued
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self._split_countdowns = {
            int(master): left
            for master, left in state["split_countdowns"].items()
        }
        self._must_serve = set(state["must_serve"])
        self._new_transfers = state["new_transfers"]
        self.splits_issued = state["splits_issued"]


class DefaultSlave(AhbSlaveBase):
    """Spec-required default slave for unmapped address space.

    Responds with zero-wait OKAY to IDLE and BUSY "transfers" (which
    the skeleton never latches) and with a two-cycle ERROR to any real
    transfer, so that software bugs hit a bus error instead of hanging
    the bus.
    """

    def _begin_transfer(self, transfer):
        return (0, _ERROR)

    def _do_read(self, address, size):  # pragma: no cover - never OKAY
        return 0

    def _do_write(self, address, size, value):  # pragma: no cover
        pass
