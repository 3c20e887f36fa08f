"""Macromodel unit tests: formulas, monotonicity, validation."""


import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.power import (
    ArbiterEnergyModel,
    DecoderEnergyModel,
    FittedMacromodel,
    MuxEnergyModel,
    RegisterEnergyModel,
    TechnologyParameters,
)

PARAMS = TechnologyParameters(vdd=2.0, c_pd=10e-15, c_o=20e-15,
                              c_clk=5e-15)


class TestTechnologyParameters:
    def test_half_cv2(self):
        assert PARAMS.half_cv2 == pytest.approx(2.0)

    def test_node_energy(self):
        assert PARAMS.node_energy(3) == pytest.approx(3 * 10e-15 * 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TechnologyParameters(vdd=0)
        with pytest.raises(ValueError):
            TechnologyParameters(c_pd=-1e-15)

    def test_scaled(self):
        scaled = PARAMS.scaled(vdd=1.0, c_o=5e-15)
        assert scaled.vdd == 1.0
        assert scaled.c_o == 5e-15
        assert scaled.c_pd == PARAMS.c_pd


class TestDecoderModel:
    def test_paper_formula(self):
        model = DecoderEnergyModel(4, PARAMS)
        # n_I = 2, n_O = 4 -> coefficient 8; HD_OUT = 1 when HD_IN >= 1
        expected = PARAMS.half_cv2 * (8 * PARAMS.c_pd * 1
                                      + 2 * 1 * PARAMS.c_o)
        assert model.energy(1) == pytest.approx(expected)

    def test_zero_hd_is_free(self):
        model = DecoderEnergyModel(4, PARAMS)
        assert model.energy(0) == 0.0

    def test_monotone_in_hd(self):
        model = DecoderEnergyModel(8, PARAMS)
        energies = [model.energy(hd) for hd in range(4)]
        assert energies == sorted(energies)
        assert energies[1] < energies[2]

    def test_max_energy(self):
        model = DecoderEnergyModel(8, PARAMS)
        assert model.max_energy() == model.energy(model.n_inputs)

    def test_input_count(self):
        assert DecoderEnergyModel(2, PARAMS).n_inputs == 1
        assert DecoderEnergyModel(5, PARAMS).n_inputs == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            DecoderEnergyModel(1, PARAMS)
        model = DecoderEnergyModel(4, PARAMS)
        with pytest.raises(ValueError):
            model.energy(-1)

    @given(st.integers(min_value=0, max_value=6))
    def test_energy_never_negative(self, hd):
        assert DecoderEnergyModel(8, PARAMS).energy(hd) >= 0


class TestMuxModel:
    def test_scales_with_output_hd(self):
        model = MuxEnergyModel(4, 32, PARAMS)
        assert model.energy(hd_in=16, hd_sel=0, hd_out=16) > \
            model.energy(hd_in=1, hd_sel=0, hd_out=1)

    def test_select_change_costs(self):
        model = MuxEnergyModel(4, 32, PARAMS)
        assert model.energy(0, 1, hd_out=0) > model.energy(0, 0, hd_out=0)

    def test_hd_out_estimation(self):
        model = MuxEnergyModel(4, 32, PARAMS)
        assert model.estimate_hd_out(5, 0) == 5
        assert model.estimate_hd_out(40, 0) == 32  # clamped to width
        assert model.estimate_hd_out(0, 1) == 16.0  # w/2 on select change

    def test_path_coefficient_grows_with_legs(self):
        small = MuxEnergyModel(2, 8, PARAMS)
        large = MuxEnergyModel(16, 8, PARAMS)
        assert large.path_coeff > small.path_coeff

    def test_validation(self):
        with pytest.raises(ValueError):
            MuxEnergyModel(1, 8, PARAMS)
        with pytest.raises(ValueError):
            MuxEnergyModel(4, 0, PARAMS)
        with pytest.raises(ValueError):
            MuxEnergyModel(4, 8, PARAMS).energy(-1, 0)


class TestArbiterModel:
    def test_idle_energy_positive(self):
        model = ArbiterEnergyModel(3, PARAMS)
        assert model.idle_energy() > 0
        assert model.energy(0, False) == pytest.approx(
            model.idle_energy())

    def test_handover_premium(self):
        model = ArbiterEnergyModel(3, PARAMS)
        assert model.energy(0, True) > model.energy(0, False)

    def test_request_activity_term(self):
        model = ArbiterEnergyModel(3, PARAMS)
        assert model.energy(4, False) > model.energy(0, False)

    def test_flop_count_scales(self):
        assert ArbiterEnergyModel(8, PARAMS).n_flops > \
            ArbiterEnergyModel(2, PARAMS).n_flops

    def test_validation(self):
        with pytest.raises(ValueError):
            ArbiterEnergyModel(0, PARAMS)
        with pytest.raises(ValueError):
            ArbiterEnergyModel(3, PARAMS).energy(-2, False)


def _same(a, b):
    """Bit-equal floats, NaN equal to NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


#: Non-negative coefficients, including the ones products go NaN on.
COEFFS = st.sampled_from((0.0, 1e-300, 0.5, 2.0, 7.25, math.inf))
HDS = np.array([0, 1, 2, 0, 5, 1])
FLAGS = np.array([False, True, False, True, True, False])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestArrayEvaluation:
    """``evaluate`` on arrays (the batched monitor's block) equals the
    scalar ``energy`` bit for bit, for every non-negative coefficient
    (``inf * 0`` is NaN on both)."""

    @given(request=COEFFS, handover=COEFFS)
    def test_arbiter_adds_handover_term_only_on_handover(self, request,
                                                         handover):
        model = ArbiterEnergyModel(3, PARAMS, request_coeff=request,
                                   handover_coeff=handover)
        block = model.evaluate(HDS, FLAGS).tolist()
        for hd, flag, energy in zip(HDS.tolist(), FLAGS.tolist(), block):
            # The branch as written before the array form: a
            # multiply-by-flag would give NaN for inf * False.
            expected = model.idle_energy()
            expected += PARAMS.half_cv2 * PARAMS.c_pd * request * hd
            if flag:
                expected += PARAMS.half_cv2 * (
                    PARAMS.c_pd * handover + PARAMS.c_o * 2.0)
            assert _same(energy, expected)
            assert _same(model.energy(hd, flag), expected)

    @given(path=COEFFS, select=COEFFS, output=COEFFS)
    def test_mux(self, path, select, output):
        model = MuxEnergyModel(4, 32, PARAMS, path_coeff=path,
                               select_coeff=select, output_coeff=output)
        block = model.evaluate(HDS, FLAGS).tolist()
        for hd, flag, energy in zip(HDS.tolist(), FLAGS.tolist(), block):
            assert _same(energy, model.energy(hd, 1 if flag else 0, hd))

    @given(inputs=COEFFS, output=COEFFS)
    def test_decoder(self, inputs, output):
        model = DecoderEnergyModel(4, PARAMS, input_coeff=inputs,
                                   output_coeff=output)
        block = model.evaluate(HDS).tolist()
        for hd, energy in zip(HDS.tolist(), block):
            assert _same(energy, model.energy(hd))


class TestRegisterModel:
    def test_clock_term(self):
        model = RegisterEnergyModel(32, PARAMS)
        assert model.energy(0) == pytest.approx(
            PARAMS.half_cv2 * PARAMS.c_clk * 32)
        assert model.energy(0, clocked=False) == 0.0

    def test_data_term(self):
        model = RegisterEnergyModel(32, PARAMS)
        delta = model.energy(8) - model.energy(0)
        assert delta == pytest.approx(PARAMS.half_cv2 * PARAMS.c_pd * 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            RegisterEnergyModel(0, PARAMS)
        with pytest.raises(ValueError):
            RegisterEnergyModel(8, PARAMS).energy(-1)


class TestFittedMacromodel:
    def test_evaluation(self):
        model = FittedMacromodel(("a", "b"), (2.0, 3.0), intercept=1.0)
        assert model.energy(a=1, b=2) == pytest.approx(9.0)
        assert model.energy(a=0) == pytest.approx(1.0)

    def test_unknown_feature_rejected(self):
        model = FittedMacromodel(("a",), (1.0,))
        with pytest.raises(KeyError):
            model.energy(z=1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FittedMacromodel(("a", "b"), (1.0,))

    def test_repr(self):
        model = FittedMacromodel(("hd",), (1e-12,))
        assert "hd" in repr(model)
