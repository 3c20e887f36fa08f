"""Statistical (simulation-free) average-power estimation.

The paper's related work ([2] Nemani & Najm, "Towards a high-level
power estimation capability") estimates power from signal statistics
instead of cycle simulation.  Because every macromodel in this library
is (piecewise) linear in its Hamming-distance inputs, the *expected*
per-cycle energy follows directly from per-cycle activity expectations:

    E[energy/cycle] = model(E[HD terms], rates of discrete events)

:class:`WorkloadStatistics` captures those expectations — measured from
a short calibration run (``from_monitor``) or written down analytically
from workload parameters (``from_traffic_parameters``) — and
:func:`estimate_average_power` turns them into watts per block.  The
test suite validates the estimate against full simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ledger import BLOCK_ARB, BLOCK_DEC, BLOCK_M2S, BLOCK_S2M
from .macromodels import bus_macromodels
from .parameters import PAPER_TECHNOLOGY


@dataclass
class WorkloadStatistics:
    """Expected per-cycle bus activity.

    Attributes
    ----------
    m2s_hd:
        Mean bit changes per cycle across the M2S multiplexer outputs
        (address + control + write data).
    s2m_hd:
        Mean bit changes per cycle across the S2M outputs (read data +
        response + ready).
    request_hd:
        Mean bit changes per cycle on the request/lock inputs.
    decode_hd:
        Mean bit changes per cycle of the decoder input code.
    decode_change_rate:
        Fraction of cycles in which the decoder input changed at all
        (drives the one-hot output term of the decoder model).
    dsel_hd:
        Mean bit changes per cycle of the read-mux select.
    handover_rate:
        Bus handovers per cycle.
    transfer_fraction, write_fraction:
        Descriptive workload identity (not needed by the linear
        estimate itself, but useful for reports and scaling).
    """

    m2s_hd: float
    s2m_hd: float
    request_hd: float
    decode_hd: float
    decode_change_rate: float
    dsel_hd: float
    handover_rate: float
    transfer_fraction: float = 0.0
    write_fraction: float = 0.0

    def __post_init__(self):
        for field_name in ("m2s_hd", "s2m_hd", "request_hd", "decode_hd",
                           "decode_change_rate", "dsel_hd",
                           "handover_rate"):
            if getattr(self, field_name) < 0:
                raise ValueError("%s must be non-negative" % field_name)

    # -- constructors --------------------------------------------------

    @classmethod
    def from_monitor(cls, monitor):
        """Measure statistics from a (short) instrumented run."""
        cycles = monitor.ledger.cycles
        if cycles == 0:
            raise ValueError("monitor has not observed any cycles")
        transfer_cycles = monitor.transfer_cycles
        return cls(
            m2s_hd=monitor._m2s_out.bit_change_count() / cycles,
            s2m_hd=monitor._s2m_out.bit_change_count() / cycles,
            request_hd=monitor._arb_in.bit_change_count() / cycles,
            decode_hd=monitor.decode_hd_total / cycles,
            decode_change_rate=monitor.decode_change_count / cycles,
            dsel_hd=monitor.dsel_hd_total / cycles,
            handover_rate=monitor.handover_total / cycles,
            transfer_fraction=transfer_cycles / cycles,
            write_fraction=(monitor.write_cycles / transfer_cycles
                            if transfer_cycles else 0.0),
        )

    @classmethod
    def from_traffic_parameters(cls, transfer_fraction, write_fraction,
                                data_width=32, address_entropy_bits=6.0,
                                handover_rate=0.02, n_slaves=3,
                                locality=0.8):
        """Analytic statistics from first-principles workload knobs.

        Random data toggles half its bits per new word; addresses
        toggle ``address_entropy_bits``; control contributes ~2 bits
        per transfer boundary.  Reads swing the read-data bus, writes
        the write-data bus — each once per transfer of its kind.
        """
        if not 0 <= transfer_fraction <= 1:
            raise ValueError("transfer_fraction must be in [0, 1]")
        if not 0 <= write_fraction <= 1:
            raise ValueError("write_fraction must be in [0, 1]")
        data_hd = data_width / 2.0
        write_rate = transfer_fraction * write_fraction
        read_rate = transfer_fraction * (1.0 - write_fraction)
        region_change = transfer_fraction * (1 - locality) \
            * (n_slaves - 1) / max(1, n_slaves)
        import math
        decode_bits = max(1, math.ceil(math.log2(n_slaves + 1)))
        return cls(
            m2s_hd=(transfer_fraction * address_entropy_bits
                    + write_rate * data_hd
                    + transfer_fraction * 2.0
                    + handover_rate * address_entropy_bits),
            s2m_hd=read_rate * data_hd + handover_rate,
            request_hd=4.0 * handover_rate,
            decode_hd=region_change * decode_bits / 2.0,
            decode_change_rate=region_change,
            dsel_hd=region_change * decode_bits / 2.0 + handover_rate,
            handover_rate=handover_rate,
            transfer_fraction=transfer_fraction,
            write_fraction=write_fraction,
        )

    def scaled_utilisation(self, factor):
        """What-if: scale all traffic-driven activity by *factor*.

        Models a workload that issues ``factor``× the transfers per
        cycle (clamped to the physical 100 % bus ceiling elsewhere).
        """
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return WorkloadStatistics(
            m2s_hd=self.m2s_hd * factor,
            s2m_hd=self.s2m_hd * factor,
            request_hd=self.request_hd * factor,
            decode_hd=self.decode_hd * factor,
            decode_change_rate=min(1.0,
                                   self.decode_change_rate * factor),
            dsel_hd=self.dsel_hd * factor,
            handover_rate=self.handover_rate * factor,
            transfer_fraction=min(1.0, self.transfer_fraction * factor),
            write_fraction=self.write_fraction,
        )


class PowerEstimate:
    """Result of :func:`estimate_average_power`."""

    def __init__(self, block_power, frequency_hz):
        self.block_power = dict(block_power)
        self.frequency_hz = frequency_hz

    @property
    def total_power(self):
        """Total estimated average power (watts)."""
        return sum(self.block_power.values())

    def energy_per_cycle(self):
        """Expected energy per bus cycle (joules)."""
        return self.total_power / self.frequency_hz

    def __repr__(self):
        return "PowerEstimate(%.3f mW @ %.0f MHz)" % (
            self.total_power * 1e3, self.frequency_hz / 1e6,
        )


def estimate_average_power(stats, config, frequency_hz,
                           params=PAPER_TECHNOLOGY):
    """Predict average bus power without simulating.

    Parameters
    ----------
    stats:
        A :class:`WorkloadStatistics`.
    config:
        The :class:`~repro.amba.config.AhbConfig` sizing the blocks.
    frequency_hz:
        Bus clock frequency.

    Returns a :class:`PowerEstimate` with the same four-block
    decomposition the simulation ledger uses, so estimate and
    measurement are directly comparable.
    """
    m2s, s2m, decoder, arbiter = bus_macromodels(config, params)

    # Expected per-cycle energies: the mux and arbiter models are
    # linear in their HD inputs; the decoder's output term keys on the
    # *rate* of input changes (E[1{HD>=1}] = change rate).
    e_m2s = m2s.energy(hd_in=stats.m2s_hd, hd_sel=stats.handover_rate,
                       hd_out=stats.m2s_hd)
    e_s2m = s2m.energy(hd_in=stats.s2m_hd, hd_sel=stats.dsel_hd,
                       hd_out=stats.s2m_hd)
    e_dec = (params.half_cv2
             * (decoder.input_coeff * params.c_pd * stats.decode_hd
                + decoder.output_coeff * params.c_o
                * stats.decode_change_rate))
    e_arb = (arbiter.idle_energy()
             + params.half_cv2 * params.c_pd * arbiter.request_coeff
             * stats.request_hd
             + stats.handover_rate * params.half_cv2
             * (params.c_pd * arbiter.handover_coeff
                + params.c_o * 2.0))

    block_power = {
        BLOCK_M2S: e_m2s * frequency_hz,
        BLOCK_S2M: e_s2m * frequency_hz,
        BLOCK_DEC: e_dec * frequency_hz,
        BLOCK_ARB: e_arb * frequency_hz,
    }
    return PowerEstimate(block_power, frequency_hz)
