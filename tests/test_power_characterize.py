"""Characterisation / macromodel fitting tests."""

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.gatelevel.gates import hamming_int
from repro.power import (
    characterize_arbiter,
    characterize_decoder,
    characterize_mux,
    fit_linear_model,
)
from repro.power.characterize import _hamming_steps


class TestFitLinearModel:
    def test_exact_linear_data(self):
        rows = [[1, 0], [0, 1], [2, 1], [3, 2]]
        energies = [2.0 * a + 5.0 * b for a, b in rows]
        model = fit_linear_model(rows, energies, ("a", "b"),
                                 fit_intercept=False)
        assert model.energy(a=1, b=0) == pytest.approx(2.0)
        assert model.energy(a=0, b=1) == pytest.approx(5.0)

    def test_intercept_recovered(self):
        rows = [[x] for x in range(10)]
        energies = [3.0 + 2.0 * x for x in range(10)]
        model = fit_linear_model(rows, energies, ("x",))
        assert model.intercept == pytest.approx(3.0)
        assert model.coefficients[0] == pytest.approx(2.0)

    def test_negative_coefficients_clamped(self):
        rows = [[x, x] for x in range(1, 8)]
        # second feature is redundant; force a negative-looking target
        energies = [2.0 * x for x, _ in rows]
        model = fit_linear_model(rows, energies, ("a", "b"),
                                 fit_intercept=False)
        assert all(c >= 0 for c in model.coefficients)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fit_linear_model([[1, 2]], [1.0, 2.0], ("a", "b"))
        with pytest.raises(ValueError):
            fit_linear_model([[1, 2]], [1.0], ("a",))


class TestDecoderCharacterisation:
    def test_fit_quality(self):
        result = characterize_decoder(4, samples=300)
        assert result.mean_relative_error < 0.15
        assert result.total_energy_error < 0.05

    def test_positive_coefficients(self):
        result = characterize_decoder(8, samples=300)
        coeffs = dict(zip(result.model.feature_names,
                          result.model.coefficients))
        assert coeffs["hd_in"] > 0
        assert coeffs["hd_out"] >= 0

    def test_slope_grows_with_size(self):
        small = characterize_decoder(4, samples=300)
        large = characterize_decoder(16, samples=300)
        slope = lambda fit: dict(zip(  # noqa: E731
            fit.model.feature_names, fit.model.coefficients))["hd_in"]
        assert slope(large) > slope(small)

    def test_deterministic(self):
        a = characterize_decoder(4, samples=100, seed=7)
        b = characterize_decoder(4, samples=100, seed=7)
        assert a.model.coefficients == b.model.coefficients


class TestMuxCharacterisation:
    def test_fit_quality(self):
        result = characterize_mux(3, 16, samples=300)
        assert result.total_energy_error < 0.10

    def test_select_toggle_costlier_than_data_bit(self):
        result = characterize_mux(4, 32, samples=400)
        coeffs = dict(zip(result.model.feature_names,
                          result.model.coefficients))
        # flipping the select re-decodes the one-hot tree and swings
        # many output bits: per-event cost above a single data bit
        assert coeffs["hd_sel"] > coeffs["hd_out"]


class TestArbiterCharacterisation:
    def test_fit_quality(self):
        result = characterize_arbiter(3, samples=300)
        assert result.total_energy_error < 0.10

    def test_handover_coefficient_positive(self):
        result = characterize_arbiter(4, samples=400)
        coeffs = dict(zip(result.model.feature_names,
                          result.model.coefficients))
        assert coeffs["handover"] > 0

    def test_rmse_reported(self):
        result = characterize_arbiter(3, samples=100)
        assert result.rmse >= 0
        assert "CharacterizationResult" in repr(result)


#: Values of a bit width drawn from both sides of the 64-bit word edge.
_EDGE_VALUES = st.sampled_from([1, 8, 62, 63, 64, 65, 80]).flatmap(
    lambda width: st.integers(0, (1 << width) - 1))


class TestHammingSteps:
    @given(st.lists(_EDGE_VALUES, max_size=30), _EDGE_VALUES)
    def test_matches_hamming_int(self, values, start):
        steps = _hamming_steps(values, start)
        sweep = [start, *values]
        assert steps.tolist() == [hamming_int(a, b)
                                  for a, b in zip(sweep, sweep[1:])]
        assert steps.dtype == np.intp

    def test_both_sides_of_the_word_edge(self):
        top = (1 << 64) - 1
        for values in ([top, 0, top, 1 << 63], [top, 1 << 64, 3],
                       [(1 << 70) | 5, top]):
            sweep = [0, *values]
            assert _hamming_steps(values).tolist() == [
                hamming_int(a, b) for a, b in zip(sweep, sweep[1:])]


PINS = os.path.join(os.path.dirname(__file__), "characterize_pins.json")

#: The pinned fits: one per characterised block, at a fixed seed.
PINNED = {
    "decoder": (characterize_decoder, (8,), 11),
    "mux": (characterize_mux, (4, 32), 12),
    "arbiter": (characterize_arbiter, (8,), 13),
}


def observe(name):
    """The exact outcome of the pinned fit *name*: coefficients,
    intercept, mean relative error and digests of the float64 bytes
    (little-endian) of the measured and predicted energies."""
    function, sizes, seed = PINNED[name]
    fit = function(*sizes, seed=seed)
    return {
        "coefficients": list(fit.model.coefficients),
        "intercept": fit.model.intercept,
        "mean_relative_error": fit.mean_relative_error,
        "measured_sha256": hashlib.sha256(
            fit.measured.astype("<f8").tobytes()).hexdigest(),
        "predicted_sha256": hashlib.sha256(
            fit.predicted.astype("<f8").tobytes()).hexdigest(),
    }


class TestPinnedFits:
    """Every fit output pinned to the last bit.

    The values in ``characterize_pins.json`` were recorded with the
    scalar per-vector sweep, before the fits moved to one
    ``run_batch`` pass; they hold the batched fits to byte identity,
    not to a tolerance.  Regenerate them
    (``PYTHONPATH=src python tests/test_power_characterize.py``) only
    for an intended change to the gate-level energy model.
    """

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_fit_matches_pins_exactly(self, name):
        with open(PINS) as fh:
            pinned = json.load(fh)[name]
        assert observe(name) == pinned


if __name__ == "__main__":
    with open(PINS, "w") as fh:
        json.dump({name: observe(name) for name in sorted(PINNED)}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
