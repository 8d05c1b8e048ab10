"""Beamforming weights: conjugate focusing and the cubic-phase family."""

import math

import numpy as np
import pytest

from airylink import (
    AiryParams,
    ArrayGeometry,
    BeamWeights,
    Carrier,
    ConfigError,
    UserPosition,
    airy_weights,
    build_codebook,
    greens_channel,
    launch_aperture,
    propagate_angular_spectrum,
    sample_field,
    traditional_focus,
)
from airylink.beams import airy_weight_rows
from airylink.geometry import GridSpec, geometric_angle
from airylink.propagation import grid_x


class TestAiryParams:
    def test_fields(self):
        p = AiryParams(bending=-25.0, focal=1.75, launch_angle=0.02)
        assert p.bending == -25.0
        assert p.focal == 1.75
        assert p.launch_angle == 0.02

    @pytest.mark.parametrize("kwargs", [
        dict(bending=0.0, focal=0.0, launch_angle=0.0),
        dict(bending=0.0, focal=-1.0, launch_angle=0.0),
        dict(bending=0.0, focal=1.0, launch_angle=math.pi / 2),
        dict(bending=0.0, focal=1.0, launch_angle=-2.0),
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ConfigError):
            AiryParams(**kwargs)


def one_design_row(array, carrier, bending, focal, theta) -> np.ndarray:
    """The cubic-phase expression airy_weight_rows replaced, on a batch of
    one design: every term per candidate, the steering from math.sin."""
    xs = np.asarray(array.element_x())
    k0 = carrier.wavenumber
    focal = np.array([[focal]])
    steer = np.array([[k0 * math.sin(theta)]])
    cubic = np.array([[(2.0 * math.pi / (3.0 * carrier.wavelength)) * bending]])
    phase = k0 * xs**2 / (2.0 * focal) - steer * xs + cubic * (xs / focal) ** 3
    return (np.exp(1j * phase) / math.sqrt(array.n))[0]


class TestAiryWeightRows:
    def test_repeated_pairs_keep_every_rows_bits(self, array64, carrier):
        """Interleaved and repeated (bending, focal) pairs, signed zeros and
        int parameters: each row equals the one-design expression bit for
        bit, whatever its neighbours."""
        pairs = [(-25.0, 1.75), (-60, 1), (-25.0, 1.75), (0.0, 2.5), (-60.0, 1.0),
                 (-0.0, 2.5), (25.0, 1.75), (-25.0, 1.0), (0.0, 2.5), (-25.0, 1.75)]
        thetas = [math.radians(-5.0 + 1.1 * i) for i in range(len(pairs))]
        bending, focal = zip(*pairs)
        rows = airy_weight_rows(array64, carrier, bending, focal, thetas)
        assert rows.shape == (len(pairs), 64)
        for row, (b, f), theta in zip(rows, pairs, thetas):
            old = one_design_row(array64, carrier, b, f, theta)
            assert np.array_equal(row, old)
            assert row.tobytes() == old.tobytes()

    def test_a_search_chunk_matches_row_by_row(self, array64, carrier):
        """The loop order of a search chunk (angle innermost) over several
        coarse (bending, focal) pairs."""
        cands = [(b, f, math.radians(dt))
                 for b in (-60.0, -55.0) for f in (1.0, 1.25, 1.5)
                 for dt in (-5.0, -0.5, 0.0, 4.5)]
        bending, focal, thetas = zip(*cands)
        rows = airy_weight_rows(array64, carrier, bending, focal, thetas)
        for row, (b, f, theta) in zip(rows, cands):
            assert np.array_equal(row, one_design_row(array64, carrier, b, f, theta))

    def test_airy_weights_is_a_row_of_one(self, array64, carrier):
        params = AiryParams(-44.0, 1.5, math.radians(-2.9))
        w = airy_weights(array64, carrier, params)
        rows = airy_weight_rows(array64, carrier, [params.bending], [params.focal],
                                [params.launch_angle])
        assert np.array_equal(w.weights, rows[0])


class TestBeamWeights:
    def test_norm_is_enforced(self):
        with pytest.raises(ConfigError, match="unit norm"):
            BeamWeights(weights=np.ones(4, dtype=complex), kind="traditional")

    def test_phases(self):
        w = np.exp(1j * np.array([0.1, -0.4, 2.0, 3.0])) / 2.0
        b = BeamWeights(weights=w, kind="traditional")
        assert np.allclose(b.phases, [0.1, -0.4, 2.0, 3.0])


class TestTraditionalFocus:
    def test_unit_norm(self, array64, carrier):
        w = traditional_focus(array64, carrier, UserPosition(-0.05, 2.5))
        assert np.linalg.norm(w.weights) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.abs(w.weights), 1 / math.sqrt(64))

    def test_phases_equal_plus_k0_r(self, array64, carrier, lam):
        target = UserPosition(-5 * lam, 250 * lam)
        w = traditional_focus(array64, carrier, target)
        xs = np.asarray(array64.element_x())
        r = np.hypot(xs - target.x, target.z)
        expected = np.exp(1j * carrier.wavenumber * r) / math.sqrt(64)
        assert np.max(np.abs(w.weights - expected)) < 1e-12

    def test_is_normalized_conjugate_of_channel_row(self, carrier, lam,
                                                    baseline_scenario):
        """Matched filtering: each weight conjugates that element's free-space
        channel phase, so w = conj(h_row) / |conj(h_row)| elementwise up to
        the amplitude taper (Green's rows are not flat in amplitude, the
        focus weights are -- compare phases only)."""
        h = greens_channel(baseline_scenario)
        w = traditional_focus(baseline_scenario.array, carrier,
                              baseline_scenario.users[0])
        row_phase = np.angle(np.conj(h.entries[0]))
        assert np.max(np.abs(np.angle(w.weights * np.exp(-1j * row_phase))))\
            < 1e-12

    def test_inner_product_with_own_row_is_real_positive(self, carrier, lam,
                                                         baseline_scenario):
        h = greens_channel(baseline_scenario)
        user = baseline_scenario.users[0]
        w = traditional_focus(baseline_scenario.array, carrier, user)
        gain = h.entries[0] @ w.weights
        xs = np.asarray(baseline_scenario.array.element_x())
        r = np.hypot(xs - user.x, user.z)
        expected = np.sum(lam / (4 * math.pi * r)) / math.sqrt(64)
        assert gain.imag == pytest.approx(0.0, abs=1e-15)
        assert gain.real == pytest.approx(expected, rel=1e-12)

    def test_boresight_weights_are_symmetric(self, array64, carrier, lam):
        w = traditional_focus(array64, carrier, UserPosition(0.0, 250 * lam))
        assert np.max(np.abs(w.weights - w.weights[::-1])) < 1e-12

    def test_single_element_weight_is_one(self, carrier, lam):
        arr = ArrayGeometry(n=1, spacing=lam)
        w = traditional_focus(arr, carrier, UserPosition(0.0, 100 * lam))
        assert abs(w.weights[0]) == pytest.approx(1.0, abs=1e-12)

    def test_focus_peak_lands_on_target(self, array64, carrier, lam, grid_std):
        target = UserPosition(-5 * lam, 250 * lam)
        w = traditional_focus(array64, carrier, target)
        f = launch_aperture(w.weights, array64, grid_std, lam)
        out = propagate_angular_spectrum(f, target.z, lam)
        x = grid_x(grid_std)
        interior = np.abs(x) < 50 * lam
        peak_x = x[interior][np.argmax(np.abs(out.samples[interior]))]
        assert abs(peak_x - target.x) < lam

    def test_target_behind_array_rejected(self, array64, carrier):
        with pytest.raises(ConfigError):
            traditional_focus(array64, carrier, UserPosition(0.0, 0.0))


class TestAiryWeights:
    def test_unit_norm_and_kind(self, array64, carrier):
        w = airy_weights(array64, carrier, AiryParams(-25.0, 1.75, 0.0))
        assert w.kind == "airy"
        assert np.linalg.norm(w.weights) == pytest.approx(1.0, abs=1e-12)

    def test_zero_bending_zero_angle_is_pure_lens(self, array64, carrier):
        focal = 1.75
        w = airy_weights(array64, carrier, AiryParams(0.0, focal, 0.0))
        xs = np.asarray(array64.element_x())
        lens = np.exp(1j * carrier.wavenumber * xs**2 / (2 * focal))
        assert np.max(np.abs(w.weights - lens / math.sqrt(64))) < 1e-12

    def test_cubic_phase_formula(self, array64, carrier, lam):
        """Pin the full three-term phase at an interior element."""
        focal = 163 * lam
        bending = -25.0
        theta = 0.015
        w = airy_weights(array64, carrier, AiryParams(bending, focal, theta))
        xs = np.asarray(array64.element_x())
        k0 = carrier.wavenumber
        for n in (0, 17, 63):
            expected = (k0 * xs[n] ** 2 / (2 * focal)
                        - k0 * math.sin(theta) * xs[n]
                        + (2 * math.pi / (3 * lam)) * bending
                        * (xs[n] / focal) ** 3)
            delta = np.angle(w.weights[n] * math.sqrt(64)
                             * np.exp(-1j * expected))
            assert abs(delta) < 1e-12

    def test_flipping_bending_reverses_weights(self, array64, carrier):
        plus = airy_weights(array64, carrier, AiryParams(+25.0, 1.75, 0.0))
        minus = airy_weights(array64, carrier, AiryParams(-25.0, 1.75, 0.0))
        # x_n -> -x_n flips the cubic term only; the array is symmetric, so
        # negated bending equals the element-reversed weights
        assert np.max(np.abs(minus.weights - plus.weights[::-1])) < 1e-12

    def test_flipping_bending_mirrors_intensity(self, array64, carrier, lam,
                                                grid_std):
        z = 220 * lam
        fields = {}
        for b in (+30.0, -30.0):
            w = airy_weights(array64, carrier, AiryParams(b, 1.75, 0.0))
            f = launch_aperture(w.weights, array64, grid_std, lam)
            fields[b] = np.abs(propagate_angular_spectrum(f, z, lam).samples) ** 2
        x = grid_x(grid_std)
        interior = np.abs(x) < 80 * lam
        mirrored = np.interp(-x[interior], x, fields[-30.0])
        peak = fields[+30.0][interior].max()
        assert np.max(np.abs(fields[+30.0][interior] - mirrored)) < 1e-6 * peak


class TestBuildCodebook:
    def test_trad_all(self, baseline_scenario, carrier):
        book = build_codebook(baseline_scenario, "trad_all")
        assert len(book.beams) == 2
        for beam, user in zip(book.beams, baseline_scenario.users):
            expected = traditional_focus(baseline_scenario.array, carrier, user)
            assert np.array_equal(beam.weights, expected.weights)
            assert beam.kind == "traditional"

    def test_airy_geo_uses_geometric_angles(self, shadow_scenario, carrier):
        params = AiryParams(-25.0, 1.75, 0.0)
        book = build_codebook(shadow_scenario, "airy_geo", airy_params=params)
        for beam, user in zip(book.beams, shadow_scenario.users):
            angle = geometric_angle(user)
            offset = AiryParams(params.bending, params.focal, params.launch_angle + angle)
            expected = airy_weights(shadow_scenario.array, carrier, offset)
            assert np.array_equal(beam.weights, expected.weights)
            assert beam.kind == "airy"

    def test_airy_geo_requires_params(self, shadow_scenario):
        with pytest.raises(ConfigError, match="airy_params"):
            build_codebook(shadow_scenario, "airy_geo")

    def test_mixed_routes_by_classification(self, mixed_scenario, carrier):
        params = AiryParams(-44.0, 1.50, math.radians(-2.9))
        book = build_codebook(mixed_scenario, "mixed", airy_params=params)
        # user 0 is shadowed -> airy with the params verbatim (no geometric
        # angle folded in); user 1 is bright -> traditional focus
        shadowed = airy_weights(mixed_scenario.array, carrier, params)
        bright = traditional_focus(mixed_scenario.array, carrier,
                                   mixed_scenario.users[1])
        assert np.array_equal(book.beams[0].weights, shadowed.weights)
        assert book.beams[0].params == params
        assert np.array_equal(book.beams[1].weights, bright.weights)

    def test_mixed_without_obstacle_rejected(self, baseline_scenario):
        with pytest.raises(ConfigError, match="obstacle"):
            build_codebook(baseline_scenario, "mixed",
                           airy_params=AiryParams(-25.0, 1.75, 0.0))

    def test_mixed_with_no_shadowed_user_rejected(self, mixed_scenario):
        from airylink import KnifeEdgeObstacle

        # flip the blocked side: every user is now on the bright side
        harmless = KnifeEdgeObstacle(depth=mixed_scenario.obstacle.depth,
                                     edge_x=-1.0, blocked_side="below_edge")
        import dataclasses
        scenario = dataclasses.replace(mixed_scenario, obstacle=harmless)
        with pytest.raises(ConfigError, match="shadow"):
            build_codebook(scenario, "mixed",
                           airy_params=AiryParams(-25.0, 1.75, 0.0))

    def test_unknown_strategy(self, baseline_scenario):
        with pytest.raises(ConfigError, match="strategy"):
            build_codebook(baseline_scenario, "zf_everything")

    def test_matrix_shape(self, baseline_scenario):
        book = build_codebook(baseline_scenario, "trad_all")
        m = book.matrix
        assert m.shape == (64, 2)
        assert np.array_equal(m[:, 1], book.beams[1].weights)
