"""Channel models: closed-form free space, wave-optics, and the scalar
calibration that ties the two together."""

import dataclasses
import math

import numpy as np
import pytest

from airylink import (
    AiryParams,
    AirylinkError,
    ArrayGeometry,
    ChannelMatrix,
    ConfigError,
    ModelMismatchError,
    UserPosition,
    airy_weights,
    build_codebook,
    diffraction_channel,
    effective_channel_greens,
    greens_channel,
    remark1_calibration,
    traditional_focus,
)
from airylink.channels import FRESNEL_DIFFRACTION, GREENS_FREE_SPACE, effective_channel
from airylink.geometry import geometric_angle

from batch_of_one import beam_column


class TestGreensChannel:
    def test_single_element_on_axis(self, carrier, lam, grid_std):
        from airylink import ScenarioConfig

        z = 100 * lam
        scenario = ScenarioConfig(
            carrier, ArrayGeometry(n=1, spacing=lam),
            (UserPosition(0.0, z),), grid_std,
            noise_power=1e-3, tx_power=1.0, rzf_epsilon=1e-10)
        h = greens_channel(scenario)
        expected = lam / (4 * math.pi * z) * np.exp(-1j * carrier.wavenumber * z)
        assert h.entries.shape == (1, 1)
        assert h.entries[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_entry_amplitude_and_phase_law(self, baseline_scenario, carrier, lam):
        h = greens_channel(baseline_scenario)
        user = baseline_scenario.users[1]
        xs = np.asarray(baseline_scenario.array.element_x())
        r = float(np.hypot(xs[17] - user.x, user.z))
        assert abs(h.entries[1, 17]) == pytest.approx(lam / (4 * math.pi * r),
                                                      rel=1e-12)
        phase_err = np.angle(h.entries[1, 17] * np.exp(1j * carrier.wavenumber * r))
        assert abs(phase_err) < 1e-9

    def test_boresight_row_is_symmetric(self, carrier, lam, grid_std, array64):
        from airylink import ScenarioConfig

        scenario = ScenarioConfig(
            carrier, array64, (UserPosition(0.0, 200 * lam),), grid_std,
            noise_power=1e-3, tx_power=1.0, rzf_epsilon=1e-10)
        row = greens_channel(scenario).entries[0]
        assert np.max(np.abs(row - row[::-1])) < 1e-15

    def test_refuses_obstacle(self, shadow_scenario):
        with pytest.raises(ModelMismatchError, match="use diffraction_channel"):
            greens_channel(shadow_scenario)

    def test_tags(self, baseline_scenario):
        h = greens_channel(baseline_scenario)
        assert h.model == GREENS_FREE_SPACE
        assert h.kind == "physical"
        assert h.k == 2


class TestChannelMatrix:
    def test_unknown_model_rejected(self):
        with pytest.raises(AirylinkError, match="model"):
            ChannelMatrix(np.eye(2, dtype=complex), model="raytrace",
                          kind="physical")

    def test_unknown_kind_rejected(self):
        with pytest.raises(AirylinkError, match="kind"):
            ChannelMatrix(np.eye(2, dtype=complex), model=GREENS_FREE_SPACE,
                          kind="hybrid")

    def test_nonfinite_entries_rejected(self):
        bad = np.array([[1.0, np.nan]], dtype=complex)
        with pytest.raises(AirylinkError, match="NaN"):
            ChannelMatrix(bad, model=GREENS_FREE_SPACE, kind="physical")

    def test_effective_must_be_square(self):
        with pytest.raises(AirylinkError, match="square"):
            ChannelMatrix(np.ones((2, 3), dtype=complex),
                          model=GREENS_FREE_SPACE, kind="effective")


class TestEffectiveGreens:
    def test_matches_manual_product(self, baseline_scenario):
        h = greens_channel(baseline_scenario)
        w = build_codebook(baseline_scenario, "trad_all").matrix
        eff = effective_channel_greens(h, w)
        assert eff.kind == "effective"
        assert np.array_equal(eff.entries, h.entries @ w)

    def test_requires_physical_kind(self, baseline_scenario):
        h = greens_channel(baseline_scenario)
        w = build_codebook(baseline_scenario, "trad_all").matrix
        eff = effective_channel_greens(h, w)
        with pytest.raises(AirylinkError, match="physical"):
            effective_channel_greens(eff, w)

    def test_beam_matrix_shape_checked(self, baseline_scenario):
        h = greens_channel(baseline_scenario)
        with pytest.raises(AirylinkError, match="shape"):
            effective_channel_greens(h, np.ones((8, 2), dtype=complex))

    def test_single_user_gives_scalar_channel(self, carrier, lam, grid_std,
                                              array64):
        from airylink import ScenarioConfig

        scenario = ScenarioConfig(
            carrier, array64, (UserPosition(-5 * lam, 250 * lam),), grid_std,
            noise_power=1e-3, tx_power=1.0, rzf_epsilon=1e-10)
        w = build_codebook(scenario, "trad_all").matrix
        eff = effective_channel_greens(greens_channel(scenario), w)
        assert eff.entries.shape == (1, 1)

    def test_matched_beam_diagonal_dominates(self, baseline_scenario, lam):
        """With each beam focused on its own user, the diagonal entries are
        real, positive, and equal to the coherent sum (1/sqrt(N)) sum lam/(4 pi r);
        cross-entries are strictly smaller in magnitude."""
        h = greens_channel(baseline_scenario)
        w = build_codebook(baseline_scenario, "trad_all").matrix
        eff = effective_channel_greens(h, w).entries
        xs = np.asarray(baseline_scenario.array.element_x())
        for k, user in enumerate(baseline_scenario.users):
            r = np.hypot(xs - user.x, user.z)
            expected = np.sum(lam / (4 * math.pi * r)) / math.sqrt(64)
            assert eff[k, k].imag == pytest.approx(0.0, abs=1e-15)
            assert eff[k, k].real == pytest.approx(expected, rel=1e-12)
            off = [abs(eff[k, j]) for j in range(eff.shape[1]) if j != k]
            assert max(off) < abs(eff[k, k])


class TestBeamColumn:
    def test_user_outside_window_rejected(self, baseline_scenario, lam):
        bad_user = UserPosition(200 * lam, 250 * lam, label="runaway")
        scenario = baseline_scenario.with_users(
            (baseline_scenario.users[0], bad_user))
        w = np.ones(64, dtype=complex) / 8.0
        with pytest.raises(ConfigError, match="runaway"):
            beam_column(scenario, w)

    def test_linear_in_scale(self, baseline_scenario, rng):
        w = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        base = beam_column(baseline_scenario, w)
        scaled = beam_column(baseline_scenario, w, scale=2.0 - 0.5j)
        assert np.allclose(scaled, (2.0 - 0.5j) * base, rtol=1e-12)

    def test_additive_in_weights(self, baseline_scenario, rng):
        w1 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        w2 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        combined = beam_column(baseline_scenario, w1 + w2)
        separate = (beam_column(baseline_scenario, w1)
                    + beam_column(baseline_scenario, w2))
        assert np.max(np.abs(combined - separate)) < 1e-10 * np.max(np.abs(combined))


class TestEffectiveDiffraction:
    def test_columns_match_beam_column(self, baseline_scenario):
        w = build_codebook(baseline_scenario, "trad_all").matrix
        eff = effective_channel(diffraction_channel(baseline_scenario), w)
        assert eff.model == FRESNEL_DIFFRACTION
        for j in range(2):
            assert np.array_equal(eff.entries[:, j],
                                  beam_column(baseline_scenario, w[:, j]))

    def test_repeat_builds_are_bit_identical(self, baseline_scenario):
        w = build_codebook(baseline_scenario, "trad_all").matrix
        seq = effective_channel(diffraction_channel(baseline_scenario), w)
        par = effective_channel(diffraction_channel(baseline_scenario), w)
        assert np.array_equal(seq.entries, par.entries)

    def test_beam_matrix_shape_checked(self, baseline_scenario):
        with pytest.raises(AirylinkError, match="shape"):
            effective_channel(diffraction_channel(baseline_scenario),
                              np.ones((8, 2), dtype=complex))


class TestCalibration:
    def test_refuses_obstacle(self, shadow_scenario):
        with pytest.raises(ModelMismatchError):
            remark1_calibration(shadow_scenario)

    def test_fitted_constant_frozen(self, baseline_calibration):
        c, residual = baseline_calibration
        assert c == pytest.approx(0.7076503692 - 0.7054419079j, rel=1e-6)
        assert abs(c) == pytest.approx(0.9992083519, rel=1e-6)

    def test_residual_small_but_nonzero(self, baseline_calibration):
        _, residual = baseline_calibration
        assert residual == pytest.approx(1.0265090e-03, rel=1e-4)
        assert residual < 0.02

    def test_is_least_squares_projection(self, baseline_scenario,
                                         baseline_calibration):
        """Recompute the fit from the public pieces: the fitted constant is
        <H_d, H_g>/<H_d, H_d>, which makes the residual orthogonal to H_d."""
        c, _ = baseline_calibration
        w = build_codebook(baseline_scenario, "trad_all").matrix
        h_g = effective_channel_greens(greens_channel(baseline_scenario), w).entries
        h_d = effective_channel(diffraction_channel(baseline_scenario), w).entries
        refit = np.vdot(h_d, h_g) / np.vdot(h_d, h_d).real
        assert refit == pytest.approx(c, rel=1e-12)
        leftover = np.vdot(h_d, h_g - c * h_d)
        assert abs(leftover) < 1e-12 * abs(np.vdot(h_d, h_g))

    def test_per_entry_agreement_after_scaling(self, baseline_scenario,
                                               baseline_calibration):
        c, _ = baseline_calibration
        w = build_codebook(baseline_scenario, "trad_all").matrix
        h_g = effective_channel_greens(greens_channel(baseline_scenario), w).entries
        h_d = effective_channel(diffraction_channel(baseline_scenario), w, scale=c).entries
        mag_err = np.abs(np.abs(h_d) - np.abs(h_g)) / np.abs(h_g)
        phase_err = np.abs(np.angle(h_d / h_g))
        assert mag_err.max() <= 0.02
        assert phase_err.max() <= 0.05


class TestKnifeEdgeSuppression:
    def test_deep_shadow_user_loses_15_db(self, shadow_scenario, carrier, lam):
        """Umbra check: at z = 300 lam the geometric shadow of the 31.36 lam
        half-aperture extends to x = -15.7 lam, so a user at -20 lam has no
        line of sight to any element."""
        deep = UserPosition(-20 * lam, 300 * lam, label="deep")
        scenario = shadow_scenario.with_users((deep, shadow_scenario.users[1]))
        w = traditional_focus(scenario.array, carrier, deep).weights
        blocked = beam_column(scenario, w)[0]
        free = beam_column(scenario.without_obstacle(), w)[0]
        drop_db = 10 * math.log10(abs(blocked) ** 2 / abs(free) ** 2)
        assert drop_db <= -15.0

    @pytest.mark.xfail(
        strict=True,
        reason="measured +1.8 dB on this geometry, not >10 dB; the shadowed "
               "user sits in penumbra (knife-edge nu from -0.58 to 1.67 "
               "across the aperture) where the traditional focus retains "
               "partial line of sight and loses only 12.8 dB (12.6 dB in "
               "the closed-form knife-edge oracle)")
    def test_curved_beam_beats_blocked_focus_by_10_db(self, shadow_scenario,
                                                      carrier, lam):
        user = shadow_scenario.users[0]
        trad = traditional_focus(shadow_scenario.array, carrier, user).weights
        params = AiryParams(-25.0, 163 * lam, geometric_angle(user))
        airy = airy_weights(shadow_scenario.array, carrier, params).weights
        p_trad = abs(beam_column(shadow_scenario, trad)[0]) ** 2
        p_airy = abs(beam_column(shadow_scenario, airy)[0]) ** 2
        assert 10 * math.log10(p_airy / p_trad) > 10.0
