"""Offline power analysis from recorded waveforms.

A complementary flow to the live monitors: run the functional model
once with VCD tracing (no power code at all — the fastest simulation
mode), then replay the waveform through the macromodels as many times
as needed — different technology parameters, voltage corners, or model
coefficients — without re-simulating.

Use :func:`trace_bus` to dump the canonical signal set during
simulation and :class:`OfflinePowerAnalyzer` to replay it.
"""

from __future__ import annotations

from ..kernel import VcdTracer
from ..kernel.vcd_reader import load_vcd
from .hamming import hamming
from .instructions import classify_mode
from .ledger import EnergyLedger
from .macromodels import block_energies, bus_macromodels
from .monitors import _decoder_shift
from .parameters import PAPER_TECHNOLOGY
from .power_fsm import PowerFsm

#: Canonical VCD names used by :func:`trace_bus` / the analyzer.
M2S_SIGNALS = ("HTRANS", "HADDR", "HWRITE", "HSIZE", "HBURST", "HPROT",
               "HWDATA")
S2M_SIGNALS = ("HRDATA", "HRESP", "HREADY")


def trace_bus(sim, bus, path):
    """Open a VCD tracer dumping the signal set the offline analyzer
    needs; returns the :class:`~repro.kernel.trace.VcdTracer` (close it
    after the run)."""
    tracer = VcdTracer(sim, path, timescale="1ps")
    for name in M2S_SIGNALS + S2M_SIGNALS:
        tracer.trace(getattr(bus, name.lower()), name)
    tracer.trace(bus.hmaster, "HMASTER")
    tracer.trace(bus.s2m_mux.dsel, "DSEL")
    for index, port in enumerate(bus.master_ports):
        tracer.trace(port.hbusreq, "HBUSREQ%d" % index)
        tracer.trace(port.hlock, "HLOCK%d" % index)
    return tracer


class OfflinePowerAnalyzer:
    """Replays a recorded bus waveform through the macromodels.

    Parameters mirror :class:`~repro.power.monitors.GlobalPowerMonitor`
    so offline and live analyses are directly comparable.

    Parameters
    ----------
    config:
        The :class:`~repro.amba.config.AhbConfig` of the recorded bus.
    params:
        Technology parameters to evaluate under (vary freely between
        replays of the same dump).
    """

    def __init__(self, config, params=PAPER_TECHNOLOGY):
        self.config = config
        self.params = params
        (self.m2s_model, self.s2m_model, self.decoder_model,
         self.arbiter_model) = bus_macromodels(config, params)
        self.decoder_shift = _decoder_shift(config.address_map)

    def _signal_widths(self):
        cfg = self.config
        return {
            "HTRANS": 2, "HADDR": cfg.addr_width, "HWRITE": 1,
            "HSIZE": 3, "HBURST": 3, "HPROT": 4,
            "HWDATA": cfg.data_width, "HRDATA": cfg.data_width,
            "HRESP": 2, "HREADY": 1, "HMASTER": 4, "DSEL": 8,
        }

    def analyze(self, vcd, clock_period_ps, first_edge_ps,
                t_end=None):
        """Replay *vcd* and return the resulting
        :class:`~repro.power.ledger.EnergyLedger`."""
        widths = self._signal_widths()
        request_names = []
        for index in range(self.config.n_masters):
            for stem in ("HBUSREQ%d", "HLOCK%d"):
                name = stem % index
                if name in vcd:
                    request_names.append(name)
                    widths[name] = 1

        missing = [name for name in
                   M2S_SIGNALS + S2M_SIGNALS + ("HMASTER", "DSEL")
                   if name not in vcd]
        if missing:
            raise ValueError(
                "VCD lacks required signals: %s (record with "
                "repro.power.offline.trace_bus)" % ", ".join(missing))

        ledger = EnergyLedger()
        fsm = PowerFsm(ledger)
        previous = {name: 0 for name in widths}
        default_master = self.config.default_master

        for sample_time in vcd.sample_times(clock_period_ps,
                                            first_edge_ps, t_end=t_end):
            current = {name: vcd[name].value_at(sample_time)
                       for name in widths}

            hd_m2s = sum(
                hamming(previous[name], current[name],
                        width=widths[name])
                for name in M2S_SIGNALS)
            hd_s2m = sum(
                hamming(previous[name], current[name],
                        width=widths[name])
                for name in S2M_SIGNALS)
            hd_req = sum(
                hamming(previous[name], current[name], width=1)
                for name in request_names)
            hd_decode = hamming(
                previous["HADDR"] >> self.decoder_shift,
                current["HADDR"] >> self.decoder_shift,
                width=self.decoder_model.n_inputs)
            hd_dsel = hamming(previous["DSEL"], current["DSEL"],
                              width=8)
            handover = current["HMASTER"] != previous["HMASTER"]

            energies = block_energies(self, hd_m2s, hd_s2m, hd_dsel,
                                      hd_decode, hd_req, handover)
            mode = classify_mode(
                current["HTRANS"], current["HWRITE"],
                handover=handover
                or current["HMASTER"] == default_master,
            )
            fsm.step(sample_time, mode, energies)
            previous = current
        return ledger

    def analyze_file(self, path, clock_period_ps, first_edge_ps,
                     t_end=None):
        """Convenience: :func:`load_vcd` then :meth:`analyze`."""
        return self.analyze(load_vcd(path), clock_period_ps,
                            first_edge_ps, t_end=t_end)
