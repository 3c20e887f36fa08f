"""Analytic energy macromodels of the AHB sub-blocks (paper §5.1).

Each model turns per-cycle switching observations (Hamming distances,
handover events) into dynamic energy in joules.  The shapes come from
the gate-level structure of each block; the constants are exposed so
:mod:`repro.power.characterize` can refit them against the gate-level
netlists of :mod:`repro.gatelevel` — the same derive-then-validate loop
the paper ran with SIS.

Decoder
-------
The paper gives the decoder model explicitly for a one-hot NOT/AND
decoder with ``n_O`` outputs and ``n_I = ceil(log2(n_O))`` inputs::

    E_DEC = (V_DD²/2) · (n_I · n_O · C_PD · HD_IN  +  2 · HD_OUT · C_O)

with ``HD_OUT = 1`` iff ``HD_IN ≥ 1`` — when the input code changes, a
one-hot output changes exactly two bits (one falls, one rises), hence
the factor 2 on the output term.

Multiplexer
-----------
``E_MUX = f(w, n, HD_IN, HD_SEL)`` in the paper.  For the AND-OR tree
of :func:`repro.gatelevel.synth.synth_mux`, an output-bit toggle walks
``1 + ceil(log2 n)`` internal nodes (its AND leg plus the OR-tree path)
and a select change re-decodes two one-hot minterms.

Arbiter
-------
"A simple FSM ... of a simplified version of the arbiter": a clock
term for the grant/owner registers, a request-activity term for the
priority chain, and a handover term (two grant flops plus the
``HMASTER`` register toggling).
"""

from __future__ import annotations

import math

from .ledger import BLOCK_ARB, BLOCK_DEC, BLOCK_M2S, BLOCK_S2M
from .parameters import PAPER_TECHNOLOGY


class DecoderEnergyModel:
    """The paper's parametric decoder macromodel.

    Parameters
    ----------
    n_outputs:
        Decoder outputs = user slaves + the default slave.
    params:
        :class:`~repro.power.parameters.TechnologyParameters`.
    input_coeff, output_coeff:
        Override the structural constants (used after refitting against
        gate level); defaults are the paper's ``n_I·n_O`` and ``2``.
    """

    def __init__(self, n_outputs, params=PAPER_TECHNOLOGY,
                 input_coeff=None, output_coeff=None):
        if n_outputs < 2:
            raise ValueError("decoder needs at least two outputs")
        self.n_outputs = n_outputs
        self.n_inputs = max(1, math.ceil(math.log2(n_outputs)))
        self.params = params
        self.input_coeff = (self.n_inputs * self.n_outputs
                            if input_coeff is None else input_coeff)
        self.output_coeff = 2.0 if output_coeff is None else output_coeff

    def energy(self, hd_in):
        """Energy of one cycle whose input code changed by *hd_in* bits."""
        if hd_in < 0:
            raise ValueError("negative Hamming distance")
        hd_out = 1 if hd_in >= 1 else 0
        params = self.params
        return params.half_cv2 * (
            self.input_coeff * params.c_pd * hd_in
            + self.output_coeff * hd_out * params.c_o
        )

    def max_energy(self):
        """Energy when every input bit toggles (worst case)."""
        return self.energy(self.n_inputs)

    def __repr__(self):
        return "DecoderEnergyModel(n_out=%d, n_in=%d)" % (
            self.n_outputs, self.n_inputs,
        )


class MuxEnergyModel:
    """Macromodel of a ``width``-bit ``n_inputs``-leg multiplexer.

    ``energy(hd_in, hd_sel, hd_out=None)`` — per paper §5.1 the inputs
    are the bus width ``w``, the leg count ``n`` and the Hamming
    distances of the data and select inputs.  ``hd_out`` may be passed
    when the monitor observes the output bus directly; otherwise it is
    estimated (equal to ``hd_in`` with a stable select, half the width
    on a select change, the legs being uncorrelated).
    """

    def __init__(self, n_inputs, width, params=PAPER_TECHNOLOGY,
                 path_coeff=None, select_coeff=None, output_coeff=1.0):
        if n_inputs < 2:
            raise ValueError("multiplexer needs at least two legs")
        if width < 1:
            raise ValueError("width must be positive")
        self.n_inputs = n_inputs
        self.width = width
        self.n_select = max(1, math.ceil(math.log2(n_inputs)))
        self.params = params
        #: Internal nodes walked per output-bit toggle (AND leg + OR
        #: tree path).
        self.path_coeff = (1.0 + math.ceil(math.log2(n_inputs))
                           if path_coeff is None else path_coeff)
        #: Internal nodes switched per select-bit toggle (one-hot
        #: re-decode: two minterm trees).
        self.select_coeff = (2.0 * self.n_select
                             if select_coeff is None else select_coeff)
        self.output_coeff = output_coeff

    def estimate_hd_out(self, hd_in, hd_sel):
        """Expected output Hamming distance when not observed."""
        if hd_sel == 0:
            return min(hd_in, self.width)
        return self.width / 2.0

    def energy(self, hd_in, hd_sel, hd_out=None):
        """Energy of one cycle of multiplexer activity (joules)."""
        if hd_in < 0 or hd_sel < 0:
            raise ValueError("negative Hamming distance")
        if hd_out is None:
            hd_out = self.estimate_hd_out(hd_in, hd_sel)
        params = self.params
        internal = (self.path_coeff * hd_out
                    + self.select_coeff * hd_sel)
        return params.half_cv2 * (
            params.c_pd * internal
            + self.output_coeff * params.c_o * hd_out
        )

    def __repr__(self):
        return "MuxEnergyModel(n=%d, w=%d)" % (self.n_inputs, self.width)


class ArbiterEnergyModel:
    """FSM energy model of a simplified arbiter.

    ``energy(hd_req, handover)`` charges:

    * a constant clock term — the grant one-hot register (``n``
      flops), the 4-bit ``HMASTER`` register and its delayed copy are
      clocked every cycle whether or not anything moves;
    * a request-activity term — each toggling ``HBUSREQx``/``HLOCKx``
      input re-evaluates part of the priority chain;
    * a handover term — two grant flops toggle (one-hot) and the
      ``HMASTER``/``HMASTER_D`` registers and their fanout switch.
    """

    #: HMASTER + HMASTER_D register width.
    OWNER_REGISTER_BITS = 8

    def __init__(self, n_masters, params=PAPER_TECHNOLOGY,
                 request_coeff=2.0, handover_coeff=None):
        if n_masters < 1:
            raise ValueError("arbiter needs at least one master")
        self.n_masters = n_masters
        self.params = params
        self.n_flops = n_masters + self.OWNER_REGISTER_BITS
        self.request_coeff = request_coeff
        #: Internal nodes switched on a handover; the grant lines are
        #: block outputs so they get C_O below.
        self.handover_coeff = (4.0 + math.ceil(math.log2(max(2, n_masters)))
                               if handover_coeff is None else handover_coeff)

    def idle_energy(self):
        """Per-cycle clock-tree energy (always burned)."""
        return self.params.half_cv2 * self.params.c_clk * self.n_flops

    def energy(self, hd_req, handover):
        """Energy of one arbiter cycle (joules).

        Parameters
        ----------
        hd_req:
            Bit changes across the request/lock inputs this cycle.
        handover:
            ``True`` when bus ownership changed at the cycle boundary.
        """
        if hd_req < 0:
            raise ValueError("negative Hamming distance")
        params = self.params
        total = self.idle_energy()
        total += params.half_cv2 * params.c_pd * self.request_coeff * hd_req
        if handover:
            total += params.half_cv2 * (
                params.c_pd * self.handover_coeff
                + params.c_o * 2.0  # two one-hot grant outputs toggle
            )
        return total

    def __repr__(self):
        return "ArbiterEnergyModel(n_masters=%d)" % self.n_masters


def bus_macromodels(config, params):
    """The four sub-block macromodels of a bus with *config*: the M2S
    and S2M multiplexers, the decoder and the arbiter."""
    n_slaves_total = config.n_slaves + 1  # incl. default slave
    return (
        MuxEnergyModel(config.n_masters,
                       config.addr_width + config.data_width + 13, params),
        MuxEnergyModel(n_slaves_total, config.data_width + 3, params),
        DecoderEnergyModel(n_slaves_total, params),
        ArbiterEnergyModel(config.n_masters, params),
    )


def block_energies(models, hd_m2s, hd_s2m, hd_dsel, hd_decode, hd_req,
                   handover):
    """One cycle's energy per sub-block, keyed M2S, S2M, DEC, ARB.

    *models* holds the four macromodels as ``m2s_model``,
    ``s2m_model``, ``decoder_model`` and ``arbiter_model``.  Both
    multiplexers' output buses are observed (``hd_out = hd_in``); the
    M2S select changes exactly when ownership is *handed over*.
    """
    return {
        BLOCK_M2S: models.m2s_model.energy(
            hd_in=hd_m2s, hd_sel=1 if handover else 0, hd_out=hd_m2s),
        BLOCK_S2M: models.s2m_model.energy(
            hd_in=hd_s2m, hd_sel=hd_dsel, hd_out=hd_s2m),
        BLOCK_DEC: models.decoder_model.energy(hd_decode),
        BLOCK_ARB: models.arbiter_model.energy(hd_req, handover),
    }


class RegisterEnergyModel:
    """Pipeline/interface register bank model (methodology extension).

    Used by examples that apply the methodology to other IP blocks: a
    *width*-bit register charges its clock pins every cycle and
    ``C_PD`` per stored-bit toggle.
    """

    def __init__(self, width, params=PAPER_TECHNOLOGY):
        if width < 1:
            raise ValueError("width must be positive")
        self.width = width
        self.params = params

    def energy(self, hd, clocked=True):
        """Energy of one cycle with *hd* stored bits toggling."""
        if hd < 0:
            raise ValueError("negative Hamming distance")
        params = self.params
        total = params.half_cv2 * params.c_pd * hd
        if clocked:
            total += params.half_cv2 * params.c_clk * self.width
        return total


class FittedMacromodel:
    """A linear macromodel produced by characterisation.

    ``energy = intercept + Σ coefficients[k] · features[k]`` — the
    output of :func:`repro.power.characterize.fit_linear_model`.
    """

    def __init__(self, feature_names, coefficients, intercept=0.0):
        if len(feature_names) != len(coefficients):
            raise ValueError("feature/coefficient length mismatch")
        self.feature_names = tuple(feature_names)
        self.coefficients = tuple(float(c) for c in coefficients)
        self.intercept = float(intercept)

    def energy(self, **features):
        """Evaluate the model; unknown feature names raise KeyError."""
        unknown = set(features) - set(self.feature_names)
        if unknown:
            raise KeyError("unknown features: %s" % ", ".join(unknown))
        total = self.intercept
        for name, coeff in zip(self.feature_names, self.coefficients):
            total += coeff * features.get(name, 0.0)
        return total

    def __repr__(self):
        terms = " + ".join(
            "%.3e*%s" % (coeff, name)
            for name, coeff in zip(self.feature_names, self.coefficients)
        )
        return "FittedMacromodel(%.3e + %s)" % (self.intercept, terms)
