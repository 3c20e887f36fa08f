"""Offline power analysis from recorded waveforms.

A complementary flow to the live monitors: run the functional model
once with VCD tracing (no power code at all — the fastest simulation
mode), then replay the waveform through the global monitor's cycle
arithmetic and macromodels as many times as needed — different
technology parameters, voltage corners, or model coefficients —
without re-simulating.

Use :func:`trace_bus` to dump the canonical signal set during
simulation and :class:`OfflinePowerAnalyzer` to replay it.
"""

from __future__ import annotations

from ..kernel import VcdTracer
from ..kernel.vcd_reader import load_vcd
from .hamming import ROW
from .instructions import MODES
from .ledger import EnergyLedger
from .macromodels import bus_macromodels
from .monitors import M2S_SIGNALS, S2M_SIGNALS, BusCycle, _decoder_shift
from .parameters import PAPER_TECHNOLOGY
from .power_fsm import PowerFsm


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

    def analyze(self, vcd, clock_period_ps, first_edge_ps,
                t_end=None):
        """Replay *vcd* through the global monitor's arithmetic
        (:class:`~repro.power.monitors.BusCycle`) and return the
        resulting :class:`~repro.power.ledger.EnergyLedger`.

        Values before the first sample are 0.  The owner stands in for
        the unrecorded grant, so a cycle is handover territory when
        ownership changed or is parked; no response is tagged.
        """
        missing = [name for name in
                   M2S_SIGNALS + S2M_SIGNALS + ("HMASTER", "DSEL")
                   if name not in vcd]
        if missing:
            raise ValueError(
                "VCD lacks required signals: %s (record with "
                "repro.power.offline.trace_bus)" % ", ".join(missing))
        requests = tuple(stem % index
                         for index in range(self.config.n_masters)
                         for stem in ("HBUSREQ%d", "HLOCK%d")
                         if stem % index in vcd)
        cfg = self.config
        cycle = BusCycle(  # widths in M2S_SIGNALS, S2M_SIGNALS order
            ((2, cfg.addr_width, 1, 3, 3, 4, cfg.data_width),
             (cfg.data_width, 2, 1), (1,) * len(requests)),
            self.decoder_shift, self.decoder_model.n_inputs,
            self.config.default_master)
        signals = [vcd[name] for name in M2S_SIGNALS + S2M_SIGNALS
                   + requests + ("HMASTER", "HMASTER", "DSEL")]

        ledger = EnergyLedger()
        fsm = PowerFsm(ledger)
        previous = (0,) * len(signals)
        for sample_time in vcd.sample_times(clock_period_ps,
                                            first_edge_ps, t_end=t_end):
            current = tuple(signal.value_at(sample_time)
                            for signal in signals)
            terms = cycle.terms(ROW, current, previous)
            fsm.step(sample_time, MODES[terms.mode],
                     cycle.energies(self, terms))
            previous = current
        return ledger

    def analyze_file(self, path, clock_period_ps, first_edge_ps,
                     t_end=None):
        """Convenience: :func:`load_vcd` then :meth:`analyze`."""
        return self.analyze(load_vcd(path), clock_period_ps,
                            first_edge_ps, t_end=t_end)
