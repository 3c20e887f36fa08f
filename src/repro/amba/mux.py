"""AHB multiplexing logic.

AHB is a multiplexed (not tri-state) bus: every master permanently
drives its own address/control/write-data signals and a central
multiplexer, steered by the arbiter, forwards the owner's signals to
the slaves (**M2S**); symmetrically, a read multiplexer steered by the
decoder forwards the selected slave's read-data/ready/response to the
masters (**S2M**).  These two blocks dominate the bus power budget in
the paper (Fig. 6).
"""

from __future__ import annotations

from ..kernel import Module
from .types import HRESP, is_active_code

# Per-cycle drive constants (both multiplexers run in the hot cascade).
_RESP_OKAY = int(HRESP.OKAY)
_RESP_ERROR = int(HRESP.ERROR)


class MasterToSlaveMux(Module):
    """Forwards the owning master's address/control and write data.

    Address and control are selected by ``HMASTER`` (address-phase
    owner); ``HWDATA`` is selected by the delayed ``HMASTER_D``
    (data-phase owner), per spec rev 2.0 §3.7.
    """

    def __init__(self, sim, name, clk, master_ports, hmaster, hmaster_d,
                 bus, parent=None):
        super().__init__(sim, name, parent=parent)
        self.clk = clk
        self.master_ports = list(master_ports)
        self.hmaster = hmaster
        self.hmaster_d = hmaster_d
        self.bus = bus

        addr_ctrl_inputs = []
        for port in self.master_ports:
            addr_ctrl_inputs.extend(port.address_control_signals())
        self.method(
            self._route_address_control,
            addr_ctrl_inputs + [hmaster],
            name="route_addr_ctrl",
            writes=[bus.htrans, bus.haddr, bus.hwrite, bus.hsize,
                    bus.hburst, bus.hprot],
        )
        self.method(
            self._route_write_data,
            [port.hwdata for port in self.master_ports] + [hmaster_d],
            name="route_wdata",
            writes=[bus.hwdata],
        )

    def _route_address_control(self):
        port = self.master_ports[self.hmaster._value]
        bus = self.bus
        bus.htrans.write(port.htrans._value)
        bus.haddr.write(port.haddr._value)
        bus.hwrite.write(port.hwrite._value)
        bus.hsize.write(port.hsize._value)
        bus.hburst.write(port.hburst._value)
        bus.hprot.write(port.hprot._value)

    def _route_write_data(self):
        port = self.master_ports[self.hmaster_d._value]
        self.bus.hwdata.write(port.hwdata._value)

    @property
    def n_inputs(self):
        """Number of multiplexer input legs (masters)."""
        return len(self.master_ports)


class SlaveToMasterMux(Module):
    """Forwards the data-phase slave's read data, ready and response.

    The select is the decoder output *registered at the address phase*:
    the slave addressed in cycle *k* drives the response during its data
    phase in cycle *k+1* (spec rev 2.0 §3.6).  When no transfer is in
    its data phase the multiplexer drives ``HREADY=1`` / ``OKAY``.
    """

    def __init__(self, sim, name, clk, slave_ports, default_port,
                 decoder_selected, bus, parent=None):
        super().__init__(sim, name, parent=parent)
        self.clk = clk
        self.slave_ports = list(slave_ports)
        self.default_port = default_port
        self.decoder_selected = decoder_selected
        self.bus = bus

        n_all = len(slave_ports) + 1
        self.dsel = self.signal("dsel", init=len(slave_ports), width=8)
        self.dactive = self.signal("dactive", init=0, width=1)
        #: Forced-response override countdown (watchdog recovery): 2 =
        #: first ERROR cycle (HREADY low), 1 = final ERROR cycle
        #: (HREADY high), 0 = normal muxing.  Mirrors the default
        #: slave's two-cycle ERROR so a hung slave can be cut off
        #: without violating the response protocol.
        self.force_resp = self.signal("force_resp", init=0, width=2)
        self.forced_errors = 0

        response_inputs = []
        for port in list(self.slave_ports) + [default_port]:
            response_inputs.extend(port.driven_signals())
        self.method(
            self._route_response,
            response_inputs + [self.dsel, self.dactive, self.force_resp],
            name="route_response",
            writes=[bus.hready, bus.hresp, bus.hrdata],
        )
        self.method(self._advance_data_phase, [clk.posedge],
                    name="advance_data_phase", initialize=False)
        self._n_all = n_all
        self._ports_by_dsel = tuple(self.slave_ports) + (default_port,)

    def _all_ports(self):
        return list(self._ports_by_dsel)

    def _route_response(self):
        force = self.force_resp._value
        if force:
            self.bus.hready.write(0 if force > 1 else 1)
            self.bus.hresp.write(_RESP_ERROR)
            return
        if self.dactive._value:
            port = self._ports_by_dsel[self.dsel._value]
            self.bus.hready.write(port.hready_out._value)
            self.bus.hresp.write(port.hresp._value)
            self.bus.hrdata.write(port.hrdata._value)
        else:
            self.bus.hready.write(1)
            self.bus.hresp.write(_RESP_OKAY)

    def force_error(self):
        """Present a two-cycle ERROR response instead of the selected
        slave's outputs (the default-slave path used by the watchdog to
        cut a hung slave off the bus).  No-op while already forcing."""
        if self.force_resp.value or self._force_pending:
            return False
        self._force_pending = True
        self.force_resp.write(2)
        self.forced_errors += 1
        return True

    _force_pending = False

    def _advance_data_phase(self):
        """Latch the decoder select when the address phase is accepted."""
        force = self.force_resp._value
        if force:
            self._force_pending = False
            self.force_resp.write(force - 1)
        if not self.bus.hready._value:
            return
        self.dsel.write(self.decoder_selected._value)
        self.dactive.write(
            1 if is_active_code(self.bus.htrans._value) else 0
        )

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        return {
            "forced_errors": self.forced_errors,
            "force_pending": self._force_pending,
        }

    def load_state_dict(self, state):
        self.forced_errors = state["forced_errors"]
        self._force_pending = state["force_pending"]

    @property
    def n_inputs(self):
        """Number of multiplexer input legs (slaves incl. default)."""
        return self._n_all
