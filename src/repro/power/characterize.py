"""IP characterisation: fitting macromodels from gate level (paper §3).

"Once the instruction set has been identified, it is necessary to
characterize each instruction in terms of dissipated power ... it could
be necessary to run lower-level simulations."  This module runs the
gate-level netlists of :mod:`repro.gatelevel` under random stimulus,
extracts (Hamming-distance feature, measured energy) pairs and fits
linear macromodels by least squares — the derive-and-validate loop the
paper performed with SIS.  Each fit draws its whole stimulus first and
simulates it in one :func:`~repro.gatelevel.run_batch` pass, whose
per-vector energies are bit-identical to stepping the scalar simulator
vector by vector.
"""

from __future__ import annotations

import random

import numpy as np

from ..gatelevel import (
    GateLevelSimulator,
    bus_bits,
    run_batch,
    synth_mux,
    synth_one_hot_decoder,
    synth_priority_arbiter,
)
from .macromodels import FittedMacromodel


class CharacterizationResult:
    """A fitted macromodel plus its validation statistics."""

    def __init__(self, model, measured, predicted, feature_names):
        self.model = model
        self.measured = np.asarray(measured)
        self.predicted = np.asarray(predicted)
        self.feature_names = tuple(feature_names)

    @property
    def rmse(self):
        """Root-mean-square error (joules)."""
        return float(np.sqrt(np.mean(
            (self.measured - self.predicted) ** 2
        )))

    @property
    def mean_relative_error(self):
        """Mean |error| / mean measured energy — the headline accuracy
        figure for macromodel-vs-gate-level validation."""
        scale = float(np.mean(np.abs(self.measured)))
        if scale == 0:
            return 0.0
        return float(np.mean(np.abs(self.measured - self.predicted))
                     / scale)

    @property
    def total_energy_error(self):
        """Relative error of the *summed* energy (what a long
        simulation accumulates)."""
        total = float(self.measured.sum())
        if total == 0:
            return 0.0
        return abs(float(self.predicted.sum()) - total) / total

    def __repr__(self):
        return ("CharacterizationResult(rmse=%.3e, rel_err=%.2f%%, "
                "total_err=%.2f%%)"
                % (self.rmse, 100 * self.mean_relative_error,
                   100 * self.total_energy_error))


def fit_linear_model(feature_rows, energies, feature_names,
                     fit_intercept=True):
    """Least-squares fit of ``energy ≈ intercept + Σ c_k · feature_k``.

    Negative fitted coefficients are clamped at zero and the fit is
    repeated without the clamped features, keeping the macromodel
    physically meaningful (capacitances cannot be negative).
    """
    rows = np.asarray(feature_rows, dtype=float)
    target = np.asarray(energies, dtype=float)
    if rows.ndim != 2 or rows.shape[0] != target.shape[0]:
        raise ValueError("feature matrix / energy length mismatch")
    n_features = rows.shape[1]
    if len(feature_names) != n_features:
        raise ValueError("feature name count mismatch")

    active = list(range(n_features))
    while True:
        columns = rows[:, active]
        if fit_intercept:
            design = np.hstack([columns, np.ones((rows.shape[0], 1))])
        else:
            design = columns
        solution, *_ = np.linalg.lstsq(design, target, rcond=None)
        coeffs = solution[:len(active)]
        intercept = float(solution[-1]) if fit_intercept else 0.0
        negative = [index for index, value in zip(active, coeffs)
                    if value < 0]
        if not negative:
            break
        active = [index for index in active if index not in negative]
        if not active:
            coeffs = []
            intercept = float(np.mean(target)) if fit_intercept else 0.0
            break

    full = [0.0] * n_features
    for index, value in zip(active, coeffs):
        full[index] = float(value)
    return FittedMacromodel(feature_names, full,
                            intercept=max(0.0, intercept))


def _hamming_steps(values, start=0):
    """``hamming_int`` of each value with the one before it (the first
    with *start*), over a whole sweep at once: bit counts of the XOR of
    neighbouring ``uint64`` words, or of neighbouring bit rows when a
    value does not fit 64 bits."""
    sweep = [start, *values]
    top = max(sweep)
    if top < 1 << 64 and min(sweep) >= 0:
        words = np.array(sweep, dtype=np.uint64)
        return np.bitwise_count(words[1:] ^ words[:-1]).astype(np.intp)
    bits = bus_bits(sweep, top.bit_length() or 1)
    return np.count_nonzero(bits[1:] != bits[:-1], axis=1)


def _fit(result, features, fit_intercept):
    """Fit *features* (name → column) to the batch's per-vector
    energies and evaluate the model on the same columns."""
    names = tuple(features)
    model = fit_linear_model(np.column_stack(list(features.values())),
                             result.per_vector_energy, names,
                             fit_intercept=fit_intercept)
    return CharacterizationResult(model, result.per_vector_energy,
                                  model.energy(**features), names)


def characterize_decoder(n_outputs, vdd=1.8, samples=400, seed=1):
    """Fit ``E_DEC ≈ a·HD_IN + b·HD_OUT`` from the gate-level decoder.

    Returns a :class:`CharacterizationResult`.  The fitted shape should
    (and does — see the validation bench) match the paper's linear
    macromodel.
    """
    netlist = synth_one_hot_decoder(n_outputs)
    simulator = GateLevelSimulator(netlist, vdd=vdd)
    rng = random.Random(seed)

    codes = [rng.randrange(n_outputs) for _ in range(samples)]
    simulator.step_ints(a=0)
    result = run_batch(simulator, {"a": codes})
    hd_in = _hamming_steps(codes)
    hd_out = (hd_in > 0).astype(int)
    return _fit(result, {"hd_in": hd_in, "hd_out": hd_out},
                fit_intercept=False)


def characterize_mux(n_inputs, width, vdd=1.8, samples=500, seed=2,
                     select_change_probability=0.2):
    """Fit ``E_MUX ≈ a·HD_OUT + b·HD_SEL`` from the gate-level mux."""
    netlist = synth_mux(n_inputs, width)
    simulator = GateLevelSimulator(netlist, vdd=vdd)
    rng = random.Random(seed)

    legs = [0] * n_inputs
    select = 0
    data = [[] for _ in range(n_inputs)]
    selects, outs = [], []
    for index in range(samples):
        if rng.random() < select_change_probability:
            select = rng.randrange(n_inputs)
        # Toggle a random subset of the selected leg's bits.
        flip = rng.getrandbits(width) & rng.getrandbits(width)
        column = data[select]   # held since the leg last changed
        column += [legs[select]] * (index - len(column))
        legs[select] ^= flip
        column.append(legs[select])
        selects.append(select)
        outs.append(legs[select])
    for leg, column in zip(legs, data):
        column += [leg] * (samples - len(column))
    buses = {"d%d" % i: column for i, column in enumerate(data)}
    buses["s"] = selects
    simulator.step_ints(**{"d%d" % i: 0 for i in range(n_inputs)}, s=0)
    result = run_batch(simulator, buses)
    return _fit(result, {"hd_out": _hamming_steps(outs),
                         "hd_sel": _hamming_steps(selects)},
                fit_intercept=False)


def characterize_arbiter(n_requesters, vdd=1.8, samples=500, seed=3):
    """Fit ``E_ARB ≈ a·HD_REQ + b·handover + c`` from gate level."""
    netlist = synth_priority_arbiter(n_requesters)
    simulator = GateLevelSimulator(netlist, vdd=vdd)
    rng = random.Random(seed)

    requests = [rng.getrandbits(n_requesters) for _ in range(samples)]
    start = [simulator.values[net] for net in netlist.outputs]
    result = run_batch(simulator, {"req": requests})
    grants = np.vstack([start, result.outputs])
    handover = np.any(grants[1:] != grants[:-1], axis=1).astype(int)
    return _fit(result, {"hd_req": _hamming_steps(requests),
                         "handover": handover},
                fit_intercept=True)
