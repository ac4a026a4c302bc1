"""Tests for the OPC-inspired modulator (paper Fig. 4 properties)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.modulator import Modulator
from repro.errors import ConfigError


class TestProjection:
    def test_paper_function_values(self):
        mod = Modulator()  # f(x) = 0.02 x^4 + 1
        assert mod.projection(np.array([0.0]))[0] == 1.0
        assert mod.projection(np.array([2.0]))[0] == pytest.approx(1.32)
        assert mod.projection(np.array([-2.0]))[0] == pytest.approx(1.32)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Modulator(k=0)
        with pytest.raises(ConfigError):
            Modulator(n=3)  # must be even
        with pytest.raises(ConfigError):
            Modulator(b=-1)
        with pytest.raises(ConfigError):
            Modulator(epe_scale=0)
        with pytest.raises(ConfigError):
            Modulator(mode="bang")
        with pytest.raises(ConfigError):
            Modulator(sigma=0)


class TestPolynomialPreferences:
    def test_positive_epe_prefers_inward(self):
        pref = Modulator().preference(8.0)
        assert pref.argmax() == 0  # m1 = -2 nm
        assert pref[0] > pref[1] > pref[2]

    def test_negative_epe_prefers_outward(self):
        pref = Modulator().preference(-8.0)
        assert pref.argmax() == 4  # m5 = +2 nm
        assert pref[4] > pref[3] > pref[2]

    def test_zero_epe_uniform(self):
        assert np.allclose(Modulator().preference(0.0), 0.2)

    def test_small_epe_not_significantly_biased(self):
        pref = Modulator().preference(1.0)
        assert pref.max() - pref.min() < 0.01

    def test_sign_symmetry(self):
        mod = Modulator()
        pos = mod.preference(5.0)
        neg = mod.preference(-5.0)
        assert np.allclose(pos, neg[::-1])

    def test_rows_normalized(self):
        prefs = Modulator().preference_batch(np.linspace(-20, 20, 41))
        assert np.allclose(prefs.sum(axis=1), 1.0)
        assert np.all(prefs >= 0)

    def test_epe_scale(self):
        unscaled = Modulator().preference(4.0)
        scaled = Modulator(epe_scale=0.5).preference(8.0)
        assert np.allclose(unscaled, scaled)

    def test_gain_damps_preference(self):
        mod = Modulator()
        sharp = mod.preference_batch(np.array([6.0]), gain=1.0)[0]
        damped = mod.preference_batch(np.array([6.0]), gain=0.25)[0]
        assert sharp.max() > damped.max()


class TestCamoPolynomialMode:
    """Under ``modulator_mode="polynomial"`` CAMO's modulator is the
    paper's construction and nothing else: five samples of
    ``f(x) = k x^n + b`` across [0, x], softmax-normalized."""

    @staticmethod
    def paper_preference(x, k, n, b):
        fractions = (
            (1.0, 0.75, 0.5, 0.25, 0.0) if x >= 0
            else (0.0, 0.25, 0.5, 0.75, 1.0)
        )
        f = np.array([k * (x * t) ** n + b for t in fractions])
        e = np.exp(f - f.max())
        return e / e.sum()

    @pytest.mark.parametrize("gain", [1.0, 0.5])
    def test_matches_softmax_of_five_samples_bit_for_bit(self, gain):
        from repro.core import CAMO, CamoConfig
        from repro.litho import LithoConfig, LithographySimulator

        config = CamoConfig.smoke(modulator_mode="polynomial")
        camo = CAMO(
            config, LithographySimulator(LithoConfig(pixel_nm=8.0))
        )
        epes = np.array([-30.0, -7.5, -1.0, -0.2, 0.0, 0.3, 1.2, 6.0, 25.0])
        got = camo.modulator.preference_batch(epes, gain=gain)
        for epe, row in zip(epes, got):
            x = epe * config.modulator_epe_scale * gain
            expected = self.paper_preference(
                x, config.modulator_k, config.modulator_n,
                config.modulator_b,
            )
            assert np.array_equal(row, expected), epe


class TestMatchedPreferences:
    def test_peaks_at_error_cancelling_move(self):
        mod = Modulator(mode="matched", epe_scale=1.0)
        assert mod.preference(-2.0).argmax() == 4   # need +2
        assert mod.preference(-1.0).argmax() == 3   # need +1
        assert mod.preference(0.0).argmax() == 2    # hold
        assert mod.preference(1.0).argmax() == 1    # need -1
        assert mod.preference(2.0).argmax() == 0    # need -2

    def test_huge_epe_clips_to_extreme(self):
        mod = Modulator(mode="matched", epe_scale=1.0)
        assert mod.preference(-35.0).argmax() == 4
        assert mod.preference(35.0).argmax() == 0

    def test_meef_scaling(self):
        mod = Modulator(mode="matched", epe_scale=0.5)
        # 4 nm printed error at MEEF 2 -> 2 nm mask move.
        assert mod.preference(-4.0).argmax() == 4
        assert mod.preference(-2.0).argmax() == 3


class TestModulate:
    def test_eq6_product(self):
        mod = Modulator(mode="matched", epe_scale=1.0)
        uniform = np.full((1, 5), 0.2)
        mixed = mod.modulate(uniform, np.array([-2.0]))
        assert np.allclose(mixed, mod.preference_batch(np.array([-2.0])))

    def test_policy_can_tilt_flat_preference(self):
        mod = Modulator()  # polynomial, flat near zero
        peaked = np.array([[0.1, 0.1, 0.6, 0.1, 0.1]])
        mixed = mod.modulate(peaked, np.array([0.2]))
        assert mixed.argmax() == 2

    def test_degenerate_policy_falls_back_to_preference(self):
        mod = Modulator(mode="matched", epe_scale=1.0)
        zeros = np.zeros((1, 5))
        mixed = mod.modulate(zeros, np.array([-2.0]))
        assert mixed.argmax() == 4
        assert np.isclose(mixed.sum(), 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            Modulator().modulate(np.zeros((2, 5)), np.zeros(3))

    def test_log_preference_finite(self):
        mod = Modulator()
        logp = mod.log_preference_batch(np.array([-60.0, 0.0, 60.0]))
        assert np.all(np.isfinite(logp))


@given(epe=st.floats(min_value=-40, max_value=40, allow_nan=False))
def test_property_rows_sum_to_one_both_modes(epe):
    for mode in ("polynomial", "matched"):
        pref = Modulator(mode=mode).preference(epe)
        assert pref.sum() == pytest.approx(1.0)
        assert np.all(pref >= 0)


@given(epe=st.floats(min_value=0.5, max_value=30, allow_nan=False))
def test_property_sign_antisymmetry(epe):
    mod = Modulator()
    assert np.allclose(mod.preference(epe), mod.preference(-epe)[::-1])


@given(
    epe=st.floats(min_value=3, max_value=30, allow_nan=False),
    smaller=st.floats(min_value=0.1, max_value=0.9),
)
def test_property_larger_epe_sharper_preference(epe, smaller):
    """Paper property: preferences grow more distinct as |EPE| increases."""
    mod = Modulator()
    sharp = mod.preference(epe).max()
    soft = mod.preference(epe * smaller).max()
    assert sharp >= soft - 1e-12
