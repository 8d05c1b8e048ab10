"""Channel models: closed-form free space, wave-optics, and the scalar
calibration that ties the two together."""

import math

import numpy as np
import pytest

from airylink import (
    AiryParams,
    AirylinkError,
    ArrayGeometry,
    GridError,
    ModelMismatchError,
    UserPosition,
    airy_weights,
    build_codebook,
    diffraction_channel,
    effective_channel,
    greens_channel,
    remark1_calibration,
)
from airylink.channels import beam_responses, check_finite
from airylink.geometry import geometric_angle

from batch_of_one import beam_column, focus_row, greens_rows_of_one


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
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_entry_amplitude_and_phase_law(self, baseline_scenario, carrier, lam):
        h = greens_channel(baseline_scenario)
        user = baseline_scenario.users[1]
        xs = np.asarray(baseline_scenario.array.element_x())
        r = float(np.hypot(xs[17] - user.x, user.z))
        assert abs(h[1, 17]) == pytest.approx(lam / (4 * math.pi * r),
                                                      rel=1e-12)
        phase_err = np.angle(h[1, 17] * np.exp(1j * carrier.wavenumber * r))
        assert abs(phase_err) < 1e-9

    def test_boresight_row_is_symmetric(self, carrier, lam, grid_std, array64):
        from airylink import ScenarioConfig

        scenario = ScenarioConfig(
            carrier, array64, (UserPosition(0.0, 200 * lam),), grid_std,
            noise_power=1e-3, tx_power=1.0, rzf_epsilon=1e-10)
        row = greens_channel(scenario)[0]
        assert np.max(np.abs(row - row[::-1])) < 1e-15

    def test_refuses_obstacle(self, shadow_scenario):
        with pytest.raises(ModelMismatchError, match="use diffraction_channel"):
            greens_channel(shadow_scenario)

    def test_broadcast_rows_match_per_user_rows(self, baseline_scenario, rng, lam):
        """The two bundled users, then 300 (over 256 KiB of entries): the
        one broadcast gives every row the bits of that user's row alone."""
        users = baseline_scenario.users + tuple(
            UserPosition(x * lam, z * lam)
            for x, z in zip(rng.uniform(-40, 40, 298), rng.uniform(50, 400, 298)))
        for k in (2, len(users)):
            scenario = baseline_scenario.with_users(users[:k])
            entries = greens_channel(scenario)
            assert entries.tobytes() == greens_rows_of_one(scenario).tobytes()


class TestChannelMatrix:
    """The rules every channel array meets."""

    def test_nonfinite_entries_rejected(self):
        bad = np.array([[1.0, np.nan]], dtype=complex)
        with pytest.raises(AirylinkError, match="NaN"):
            check_finite(bad)

    def test_effective_must_be_square(self, baseline_scenario):
        """Three beams for two users."""
        h = greens_channel(baseline_scenario)
        with pytest.raises(AirylinkError, match="square"):
            effective_channel(h, np.ones((64, 3), dtype=complex))


class TestEffectiveGreens:
    def test_matches_manual_product(self, baseline_scenario):
        """The Green's model meets the codebook in the one beam_responses
        einsum, bit for bit, which agrees with the plain product H @ W to
        round-off."""
        h = greens_channel(baseline_scenario)
        w = build_codebook(baseline_scenario, "trad_all")
        eff = effective_channel(h, w)
        assert eff.tobytes() == beam_responses(h, w.T).tobytes()
        assert np.allclose(eff, h @ w, rtol=1e-13, atol=0.0)

    def test_single_user_gives_scalar_channel(self, carrier, lam, grid_std,
                                              array64):
        from airylink import ScenarioConfig

        scenario = ScenarioConfig(
            carrier, array64, (UserPosition(-5 * lam, 250 * lam),), grid_std,
            noise_power=1e-3, tx_power=1.0, rzf_epsilon=1e-10)
        w = build_codebook(scenario, "trad_all")
        eff = effective_channel(greens_channel(scenario), w)
        assert eff.shape == (1, 1)

    def test_matched_beam_diagonal_dominates(self, baseline_scenario, lam):
        """With each beam focused on its own user, the diagonal entries are
        real, positive, and equal to the coherent sum (1/sqrt(N)) sum lam/(4 pi r);
        cross-entries are strictly smaller in magnitude."""
        h = greens_channel(baseline_scenario)
        w = build_codebook(baseline_scenario, "trad_all")
        eff = effective_channel(h, w)
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
        """The scenario such a column would need is refused when built."""
        bad_user = UserPosition(200 * lam, 250 * lam, label="runaway")
        with pytest.raises(GridError, match="'runaway' .* lies in the absorbing border"):
            baseline_scenario.with_users((baseline_scenario.users[0], bad_user))

    def test_additive_in_weights(self, baseline_scenario, rng):
        w1 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        w2 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        combined = beam_column(baseline_scenario, w1 + w2)
        separate = (beam_column(baseline_scenario, w1)
                    + beam_column(baseline_scenario, w2))
        assert np.max(np.abs(combined - separate)) < 1e-10 * np.max(np.abs(combined))


class TestEffectiveDiffraction:
    def test_columns_match_beam_column(self, baseline_scenario):
        w = build_codebook(baseline_scenario, "trad_all")
        eff = effective_channel(diffraction_channel(baseline_scenario), w)
        for j in range(2):
            assert np.array_equal(eff[:, j],
                                  beam_column(baseline_scenario, w[:, j]))

    def test_repeat_builds_are_bit_identical(self, baseline_scenario):
        w = build_codebook(baseline_scenario, "trad_all")
        seq = effective_channel(diffraction_channel(baseline_scenario), w)
        par = effective_channel(diffraction_channel(baseline_scenario), w)
        assert np.array_equal(seq, par)

    def test_beam_matrix_shape_checked(self, baseline_scenario):
        with pytest.raises(AirylinkError, match="shape"):
            effective_channel(diffraction_channel(baseline_scenario),
                              np.ones((8, 2), dtype=complex))


class TestCalibration:
    @pytest.mark.parametrize("fixture", ["shadow_scenario", "mixed_scenario"])
    def test_fits_on_the_obstacle_free_geometry(self, fixture, request):
        """A blocked scenario is calibrated on its own geometry with the
        obstacle removed: the constant and the residual have the bits of
        the fit on the obstacle-free copy."""
        scenario = request.getfixturevalue(fixture)
        assert scenario.obstacle is not None
        c, residual = remark1_calibration(scenario)
        free_c, free_residual = remark1_calibration(scenario.without_obstacle())
        assert np.array([c]).tobytes() == np.array([free_c]).tobytes()
        assert np.array([residual]).tobytes() == np.array([free_residual]).tobytes()

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
        w = build_codebook(baseline_scenario, "trad_all")
        h_g = effective_channel(greens_channel(baseline_scenario), w)
        h_d = effective_channel(diffraction_channel(baseline_scenario), w)
        refit = np.vdot(h_d, h_g) / np.vdot(h_d, h_d).real
        assert refit == pytest.approx(c, rel=1e-12)
        leftover = np.vdot(h_d, h_g - c * h_d)
        assert abs(leftover) < 1e-12 * abs(np.vdot(h_d, h_g))

    def test_per_entry_agreement_after_scaling(self, baseline_scenario,
                                               baseline_calibration):
        c, _ = baseline_calibration
        w = build_codebook(baseline_scenario, "trad_all")
        h_g = effective_channel(greens_channel(baseline_scenario), w)
        h_d = effective_channel(c * diffraction_channel(baseline_scenario), w)
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
        w = focus_row(scenario.array, carrier, deep)
        blocked = beam_column(scenario, w)[0]
        free = beam_column(scenario.without_obstacle(), w)[0]
        drop_db = 10 * math.log10(abs(blocked) ** 2 / abs(free) ** 2)
        assert drop_db <= -15.0

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="measured +1.8 dB on this geometry, not >10 dB; the shadowed "
               "user sits in penumbra (knife-edge nu from -0.58 to 1.67 "
               "across the aperture) where the traditional focus retains "
               "partial line of sight and loses only 12.8 dB (12.6 dB in "
               "the closed-form knife-edge oracle)")
    def test_curved_beam_beats_blocked_focus_by_10_db(self, shadow_scenario,
                                                      carrier, lam):
        user = shadow_scenario.users[0]
        trad = focus_row(shadow_scenario.array, carrier, user)
        params = AiryParams(-25.0, 163 * lam, geometric_angle(user))
        airy = airy_weights(shadow_scenario.array, carrier, params)
        p_trad = abs(beam_column(shadow_scenario, trad)[0]) ** 2
        p_airy = abs(beam_column(shadow_scenario, airy)[0]) ** 2
        assert 10 * math.log10(p_airy / p_trad) > 10.0
