"""Beamforming weights: conjugate focusing and the cubic-phase family."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from airylink import (
    AiryParams,
    ArrayGeometry,
    ConfigError,
    KnifeEdgeObstacle,
    UserPosition,
    airy_weights,
    build_codebook,
    classify_user,
    coarse_to_fine_search,
    greens_channel,
    launch_aperture,
    load_scenario,
    propagate_angular_spectrum,
)
from airylink.beams import (
    DESIGNS,
    airy_axis_rows,
    airy_local_sine,
    check_unit_norm,
    traditional_focus_rows,
)
from airylink.geometry import geometric_angle
from airylink.optimizer import COARSE_AXES
from airylink.propagation import grid_x

from batch_of_one import codebook_of_one, focus_of_one, focus_row, jittered

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    """The cubic-phase weights of one design, every term per candidate, the
    steering from math.sin: the lens-and-steer phasor
    e^{j (lens - steer)} / sqrt(N) times the bending phasor e^{j coef cube},
    the reference airy_axis_rows gathers."""
    xs = np.asarray(array.element_x())
    k0 = carrier.wavenumber
    focal = np.array([[focal]])
    steer = np.array([[k0 * math.sin(theta)]])
    cubic = np.array([[(2.0 * math.pi / (3.0 * carrier.wavelength)) * bending]])
    lens_steer = np.exp(1j * (k0 * xs**2 / (2.0 * focal) - steer * xs)) / math.sqrt(array.n)
    bend = np.exp(1j * (cubic * (xs / focal) ** 3))
    return (lens_steer * bend)[0]


def single_exponential(array, carrier, bending, focal, launch_angle) -> tuple:
    """The paper's weights e^{j phi} / sqrt(N) of the B x F x A grid of
    designs spanned by the axes, phi = (lens - steer) + coef cube summed
    before one exponential, and the per-weight bound
    2 eps (|lens - steer| + |coef cube| + 1) / sqrt(N) on how far the
    two-phasor product may round away from them."""
    xs = np.asarray(array.element_x())
    k0 = carrier.wavenumber
    focal = np.asarray(focal, dtype=float)[:, None, None]
    sine = np.array([math.sin(theta) for theta in launch_angle])[:, None]
    lens_steer = k0 * xs**2 / (2.0 * focal) - (k0 * sine) * xs
    coef = (2.0 * math.pi / (3.0 * carrier.wavelength)) * np.asarray(bending, dtype=float)
    bend = coef[:, None, None, None] * (xs / focal) ** 3
    norm = math.sqrt(array.n)
    bound = 2.0 * np.finfo(float).eps * (np.abs(lens_steer) + np.abs(bend) + 1.0) / norm
    return np.exp(1j * (lens_steer + bend)) / norm, bound


class TestAiryWeightRows:
    """airy_axis_rows, the one cubic-phase builder, and airy_weights, its
    one-row view: every row has the bits of the one-design expression."""

    def test_repeated_pairs_keep_every_rows_bits(self, array64, carrier):
        """Interleaved and repeated (bending, focal) pairs, signed zeros and
        int parameters, as axes gathered row by row: each row equals the
        one-design expression bit for bit, whatever its neighbours, and so
        does airy_weights of its design."""
        pairs = [(-25.0, 1.75), (-60, 1), (-25.0, 1.75), (0.0, 2.5), (-60.0, 1.0),
                 (-0.0, 2.5), (25.0, 1.75), (-25.0, 1.0), (0.0, 2.5), (-25.0, 1.75)]
        thetas = [math.radians(-5.0 + 1.1 * i) for i in range(len(pairs))]
        bending, focal = zip(*pairs)
        i = np.arange(len(pairs))
        rows = airy_axis_rows(array64, carrier, bending, focal, thetas)(i, i, i)
        assert rows.shape == (len(pairs), 64)
        for row, (b, f), theta in zip(rows, pairs, thetas):
            old = one_design_row(array64, carrier, b, f, theta)
            assert row.tobytes() == old.tobytes()
            assert airy_weights(array64, carrier, AiryParams(b, f, theta)).tobytes() \
                == old.tobytes()

    def test_a_search_chunk_matches_row_by_row(self, array64, carrier):
        """The loop order of a search chunk (angle innermost) over several
        coarse (bending, focal) pairs, gathered from the grid's axes."""
        axes = ((-60.0, -55.0), (1.0, 1.25, 1.5), [math.radians(dt) for dt in (-5.0, -0.5, 0.0, 4.5)])
        index = np.unravel_index(np.arange(2 * 3 * 4), (2, 3, 4))
        rows = airy_axis_rows(array64, carrier, *axes)(*index)
        for row, i, j, k in zip(rows, *index):
            expected = one_design_row(array64, carrier, axes[0][i], axes[1][j], axes[2][k])
            assert row.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("focal, theta, message", [
        ((1.0, 0.0), (0.0,), "focal length must be positive, got 0.0"),
        ((1.0,), (0.1, -math.pi / 2), "launch angle must satisfy"),
    ])
    def test_axes_checked_where_the_tables_are_built(self, array64, carrier, focal, theta,
                                                     message):
        """Every focal and launch-angle value on an axis is checked, whether
        or not a row is gathered from it."""
        with pytest.raises(ConfigError, match=message):
            airy_axis_rows(array64, carrier, (-25.0,), focal, theta)

    def test_airy_weights_is_a_row_of_one(self, array64, carrier):
        """airy_weights, and one (bending, focal) pair gathered at many
        angles through broadcast indices, as the codebooks and the angle
        sweep gather them."""
        params = AiryParams(-44.0, 1.5, math.radians(-2.9))
        w = airy_weights(array64, carrier, params)
        expected = one_design_row(array64, carrier, params.bending, params.focal,
                                  params.launch_angle)
        assert w.tobytes() == expected.tobytes()
        thetas = [math.radians(-5.0 + 0.1 * i) for i in range(101)]
        rows = airy_axis_rows(array64, carrier, (params.bending,), (params.focal,),
                              thetas)(0, 0, np.arange(len(thetas)))
        for row, theta in zip(rows, thetas):
            assert row.tobytes() == one_design_row(array64, carrier, params.bending,
                                                   params.focal, theta).tobytes()

    def test_product_stays_within_round_off_of_the_single_exponential(self, carrier):
        """On the bundled mixed scenario's coarse and fine search boxes and
        both DESIGNS at each user's angle, every gathered weight lies
        within 2 eps (|lens - steer| + |coef cube| + 1) / sqrt(N) of
        e^{j phi} / sqrt(N) of its summed phase."""
        scenario = load_scenario(CONFIGS / "mixed.cfg")
        array = scenario.array
        theta_geo = geometric_angle(scenario.users[0])
        trace = coarse_to_fine_search(scenario).trace
        fine = trace.stage == "fine"
        boxes = [(*COARSE_AXES[:2], [theta_geo + dt for dt in COARSE_AXES[2]]),
                 (np.unique(trace.bending[fine]), np.unique(trace.focal[fine]),
                  [theta_geo + dt for dt in np.unique(trace.dtheta[fine])])]
        for bending, focal, offset_deg in DESIGNS.values():
            boxes.append(((bending,), (focal,), [geometric_angle(u) + math.radians(offset_deg)
                                                 for u in scenario.users]))
        assert [math.prod(len(axis) for axis in box) for box in boxes] == [1617, 1331, 2, 2]
        for box in boxes:
            shape = tuple(len(axis) for axis in box)
            index = np.ix_(*(np.arange(n) for n in shape))
            rows = airy_axis_rows(array, carrier, *box)(*index)
            expected, bound = single_exponential(array, carrier, *box)
            assert rows.shape == expected.shape == (*shape, array.n)
            assert np.all(np.abs(rows - expected) <= bound)


class TestBeamWeights:
    """One beam's weights, checked by check_unit_norm."""

    def test_norm_is_enforced(self):
        with pytest.raises(ConfigError, match="unit norm"):
            check_unit_norm(np.ones(4, dtype=complex))

    def test_nan_weights_rejected(self):
        """A NaN norm is not within the tolerance of 1."""
        w = np.full(4, 0.5, dtype=complex)
        w[1] = complex(math.nan, 0.0)
        with pytest.raises(ConfigError, match="unit norm, got nan"):
            check_unit_norm(w)


class TestCheckUnitNorm:
    def test_names_the_first_bad_row(self):
        rows = np.full((4, 4), 0.5, dtype=complex)
        rows[1] *= 2.0
        rows[3] *= 3.0
        with pytest.raises(ConfigError, match=r"unit norm, got 2\.0$"):
            check_unit_norm(rows)

    def test_tolerance(self):
        rows = np.full((3, 4), 0.5, dtype=complex)
        rows[2] *= 1.0 + 5e-13
        check_unit_norm(rows)
        rows[2] *= 1.0 + 2e-12
        with pytest.raises(ConfigError, match="unit norm"):
            check_unit_norm(rows)


class TestTraditionalFocus:
    def test_unit_norm(self, array64, carrier):
        w = focus_row(array64, carrier, UserPosition(-0.05, 2.5))
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.abs(w), 1 / math.sqrt(64))

    def test_phases_equal_plus_k0_r(self, array64, carrier, lam):
        target = UserPosition(-5 * lam, 250 * lam)
        w = focus_row(array64, carrier, target)
        xs = np.asarray(array64.element_x())
        r = np.hypot(xs - target.x, target.z)
        expected = np.exp(1j * carrier.wavenumber * r) / math.sqrt(64)
        assert np.max(np.abs(w - expected)) < 1e-12

    def test_is_normalized_conjugate_of_channel_row(self, carrier, lam,
                                                    baseline_scenario):
        """Matched filtering: each weight conjugates that element's free-space
        channel phase, so w = conj(h_row) / |conj(h_row)| elementwise up to
        the amplitude taper (Green's rows are not flat in amplitude, the
        focus weights are -- compare phases only)."""
        h = greens_channel(baseline_scenario)
        w = focus_row(baseline_scenario.array, carrier, baseline_scenario.users[0])
        row_phase = np.angle(np.conj(h[0]))
        assert np.max(np.abs(np.angle(w * np.exp(-1j * row_phase))))\
            < 1e-12

    def test_inner_product_with_own_row_is_real_positive(self, carrier, lam,
                                                         baseline_scenario):
        h = greens_channel(baseline_scenario)
        user = baseline_scenario.users[0]
        w = focus_row(baseline_scenario.array, carrier, user)
        gain = h[0] @ w
        xs = np.asarray(baseline_scenario.array.element_x())
        r = np.hypot(xs - user.x, user.z)
        expected = np.sum(lam / (4 * math.pi * r)) / math.sqrt(64)
        assert gain.imag == pytest.approx(0.0, abs=1e-15)
        assert gain.real == pytest.approx(expected, rel=1e-12)

    def test_boresight_weights_are_symmetric(self, array64, carrier, lam):
        w = focus_row(array64, carrier, UserPosition(0.0, 250 * lam))
        assert np.max(np.abs(w - w[::-1])) < 1e-12

    def test_single_element_weight_is_one(self, carrier, lam):
        arr = ArrayGeometry(n=1, spacing=lam)
        w = focus_row(arr, carrier, UserPosition(0.0, 100 * lam))
        assert abs(w[0]) == pytest.approx(1.0, abs=1e-12)

    def test_focus_peak_lands_on_target(self, array64, carrier, lam, grid_std):
        target = UserPosition(-5 * lam, 250 * lam)
        w = focus_row(array64, carrier, target)
        f = launch_aperture(w, array64, grid_std, lam)
        out = propagate_angular_spectrum(f, grid_std, target.z, lam)
        x = grid_x(grid_std)
        interior = np.abs(x) < 50 * lam
        peak_x = x[interior][np.argmax(np.abs(out[interior]))]
        assert abs(peak_x - target.x) < lam

    def test_target_behind_array_rejected(self, array64, carrier):
        with pytest.raises(ConfigError):
            focus_row(array64, carrier, UserPosition(0.0, 0.0))


class TestTraditionalFocusRows:
    def test_rows_match_one_target_bit_for_bit(self, baseline_scenario, rng, lam):
        """300 targets (over 256 KiB of weights) in one call: every row has
        the bits of a one-target call and of the one-target expression."""
        xs = rng.uniform(-40, 40, 300) * lam
        zs = rng.uniform(50, 400, 300) * lam
        xs[:2] = [u.x for u in baseline_scenario.users]
        zs[:2] = [u.z for u in baseline_scenario.users]
        array, carrier = baseline_scenario.array, baseline_scenario.carrier
        rows = traditional_focus_rows(array, carrier, xs, zs)
        assert rows.shape == (300, 64)
        for row, x, z in zip(rows, xs.tolist(), zs.tolist()):
            target = UserPosition(x, z)
            assert row.tobytes() == focus_row(array, carrier, target).tobytes()
            assert row.tobytes() == focus_of_one(baseline_scenario, target).tobytes()

    def test_user_beam_rows_check_the_launch_angles(self, shadow_scenario):
        """A shadowed user so far off axis that atan2 rounds its angle to
        -pi/2: 1 m to the side at a depth of 2e-18 m, behind an edge at
        1e-18 m, inside the usable window."""
        users = (UserPosition(0.1, 2.0), UserPosition(-1.0, 2e-18))
        scenario = dataclasses.replace(shadow_scenario, users=users,
                                       obstacle=KnifeEdgeObstacle(depth=1e-18))
        assert geometric_angle(users[1]) == -math.pi / 2
        with pytest.raises(ConfigError, match="launch angle"):
            build_codebook(scenario, "airy_geo")

    def test_any_target_behind_the_array_rejected(self, array64, carrier):
        with pytest.raises(ConfigError, match="z > 0"):
            traditional_focus_rows(array64, carrier, [0.0, 0.1, 0.2], [1.0, -1.0, 2.0])


class TestAiryWeights:
    def test_unit_norm(self, array64, carrier):
        w = airy_weights(array64, carrier, AiryParams(-25.0, 1.75, 0.0))
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)

    def test_zero_bending_zero_angle_is_pure_lens(self, array64, carrier):
        focal = 1.75
        w = airy_weights(array64, carrier, AiryParams(0.0, focal, 0.0))
        xs = np.asarray(array64.element_x())
        lens = np.exp(1j * carrier.wavenumber * xs**2 / (2 * focal))
        assert np.max(np.abs(w - lens / math.sqrt(64))) < 1e-12

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
            delta = np.angle(w[n] * math.sqrt(64)
                             * np.exp(-1j * expected))
            assert abs(delta) < 1e-12

    def test_flipping_bending_reverses_weights(self, array64, carrier):
        plus = airy_weights(array64, carrier, AiryParams(+25.0, 1.75, 0.0))
        minus = airy_weights(array64, carrier, AiryParams(-25.0, 1.75, 0.0))
        # x_n -> -x_n flips the cubic term only; the array is symmetric, so
        # negated bending equals the element-reversed weights
        assert np.max(np.abs(minus - plus[::-1])) < 1e-12

    def test_flipping_bending_mirrors_intensity(self, array64, carrier, lam,
                                                grid_std):
        z = 220 * lam
        fields = {}
        for b in (+30.0, -30.0):
            w = airy_weights(array64, carrier, AiryParams(b, 1.75, 0.0))
            f = launch_aperture(w, array64, grid_std, lam)
            fields[b] = np.abs(propagate_angular_spectrum(f, grid_std, z, lam)) ** 2
        x = grid_x(grid_std)
        interior = np.abs(x) < 80 * lam
        mirrored = np.interp(-x[interior], x, fields[-30.0])
        peak = fields[+30.0][interior].max()
        assert np.max(np.abs(fields[+30.0][interior] - mirrored)) < 1e-6 * peak


class TestAiryLocalSine:
    @staticmethod
    def phase(x, carrier, bending, focal, theta):
        """phi(x) as airy_weights documents it."""
        k0, lam = carrier.wavenumber, carrier.wavelength
        return (k0 * x**2 / (2 * focal) - k0 * math.sin(theta) * x
                + (2 * math.pi / (3 * lam)) * bending * (x / focal) ** 3)

    def difference_quotient(self, array, carrier, bending, focal, theta) -> float:
        """max |d(phi)/dx| / k0 over the elements, by a central difference."""
        xs = np.asarray(array.element_x())
        h = 1e-6
        slope = (self.phase(xs + h, carrier, bending, focal, theta)
                 - self.phase(xs - h, carrier, bending, focal, theta)) / (2 * h)
        return float(np.max(np.abs(slope))) / carrier.wavenumber

    @pytest.mark.parametrize("bending, focal, theta",
                             [(-25.0, 1.75, 0.015), (-60.0, 1.0, -0.08), (10.0, 2.5, 0.3),
                              (0.0, 1.6, 0.0), (-25.0, math.inf, 0.3)],
                             ids=["default", "steep", "positive", "lens", "plane-wave"])
    def test_matches_a_central_difference_of_the_phase(self, array64, carrier,
                                                       bending, focal, theta):
        expected = self.difference_quotient(array64, carrier, bending, focal, theta)
        assert airy_local_sine(array64, bending, focal, theta) == pytest.approx(expected,
                                                                               abs=1e-8)

    def test_broadcasts_over_designs(self, array64, carrier):
        """A batch with repeated (bending, focal) pairs, in no sorted order:
        each entry has the bits of its one-design call and matches the
        difference quotient."""
        bending = np.array([[-10.0], [-60.0], [-10.0]])
        focal = np.array([2.5, 1.0, 1.75])
        theta = np.array([[[0.05]], [[-0.2]]])
        batch = airy_local_sine(array64, bending, focal, theta)
        assert batch.shape == (2, 3, 3)
        for i, j, n in np.ndindex(batch.shape):
            args = (bending[j, 0], focal[n], theta[i, 0, 0])
            assert batch[i, j, n] == airy_local_sine(array64, *args)
            assert batch[i, j, n] == pytest.approx(self.difference_quotient(array64, carrier,
                                                                            *args), abs=1e-8)


class TestBuildCodebook:
    def test_trad_all(self, baseline_scenario, carrier):
        book = build_codebook(baseline_scenario, "trad_all")
        assert book.shape[0] == 2
        for beam, user in zip(book, baseline_scenario.users):
            expected = focus_row(baseline_scenario.array, carrier, user)
            assert np.array_equal(beam, expected)

    @staticmethod
    def assert_each_user_aimed(strategy):
        """On the bundled shadow config both users are shadowed, and each
        row is its own user's cubic beam, bit for bit: the strategy's
        design launched at that user's geometric angle plus the design's
        offset. The two rows are different beams."""
        scenario = load_scenario(CONFIGS / "shadow.cfg")
        roles = [classify_user(u, scenario.obstacle) for u in scenario.users]
        assert roles == ["shadowed", "shadowed"]
        book = build_codebook(scenario, strategy)
        bending, focal, offset_deg = DESIGNS[strategy]
        for beam, user in zip(book, scenario.users):
            params = AiryParams(bending, focal, geometric_angle(user) + math.radians(offset_deg))
            want = airy_weights(scenario.array, scenario.carrier, params)
            assert beam.tobytes() == want.tobytes()
        assert abs(np.vdot(book[0], book[1])) < 0.9

    def test_airy_geo_uses_geometric_angles(self):
        self.assert_each_user_aimed("airy_geo")

    def test_airy_opt_adds_its_offset_to_each_users_angle(self):
        self.assert_each_user_aimed("airy_opt")

    def test_mixed_routes_by_classification(self, mixed_scenario):
        """Under either curved strategy, user 0 is shadowed: the cubic
        design at its own geometric angle plus the offset. User 1 is
        bright: a traditional focus."""
        u0, u1 = mixed_scenario.users
        bright = focus_row(mixed_scenario.array, mixed_scenario.carrier, u1)
        for strategy, (bending, focal, offset_deg) in DESIGNS.items():
            book = build_codebook(mixed_scenario, strategy)
            params = AiryParams(bending, focal, geometric_angle(u0) + math.radians(offset_deg))
            shadowed = airy_weights(mixed_scenario.array, mixed_scenario.carrier, params)
            assert book[0].tobytes() == shadowed.tobytes()
            assert book[1].tobytes() == bright.tobytes()

    def test_curved_without_obstacle_focuses_every_user(self, baseline_scenario):
        """Nothing shadows a user in free space, so every user is bright."""
        focused = build_codebook(baseline_scenario, "trad_all").tobytes()
        for strategy in DESIGNS:
            assert build_codebook(baseline_scenario, strategy).tobytes() == focused

    def test_curved_with_no_shadowed_user_focuses_every_user(self, mixed_scenario):
        # flip the blocked side: every user is now on the bright side
        harmless = KnifeEdgeObstacle(depth=mixed_scenario.obstacle.depth,
                                     edge_x=-1.0, blocked_side="below_edge")
        scenario = dataclasses.replace(mixed_scenario, obstacle=harmless)
        focused = build_codebook(scenario, "trad_all").tobytes()
        for strategy in DESIGNS:
            assert build_codebook(scenario, strategy).tobytes() == focused

    def test_unknown_strategy(self, baseline_scenario):
        with pytest.raises(ConfigError, match="strategy"):
            build_codebook(baseline_scenario, "zf_everything")

    def test_matrix_shape(self, baseline_scenario, carrier):
        m = build_codebook(baseline_scenario, "trad_all")
        assert m.shape == (2, 64)
        bright = focus_row(baseline_scenario.array, carrier, baseline_scenario.users[1])
        assert np.array_equal(m[1], bright)

    @pytest.mark.parametrize("strategy", ["trad_all", *DESIGNS])
    @pytest.mark.parametrize("config", ["baseline", "shadow", "mixed", "deep_shadow"])
    def test_rows_on_the_bundled_configs(self, config, strategy):
        """The codebook is K x N and C-contiguous, indexed like the channel
        rows: row k has the bits of user k's one-target
        traditional_focus_rows row or, for a shadowed user under a curved
        strategy, of its one-design airy_axis_rows row."""
        scenario = load_scenario(CONFIGS / f"{config}.cfg")
        array, carrier = scenario.array, scenario.carrier
        book = build_codebook(scenario, strategy)
        assert book.shape == (scenario.k, array.n)
        assert book.flags.c_contiguous
        for row, user in zip(book, scenario.users):
            if (strategy in DESIGNS and scenario.obstacle is not None
                    and classify_user(user, scenario.obstacle) == "shadowed"):
                bending, focal, offset_deg = DESIGNS[strategy]
                angle = geometric_angle(user) + math.radians(offset_deg)
                want = airy_axis_rows(array, carrier, (bending,), (focal,), (angle,))(0, 0, 0)
            else:
                want = traditional_focus_rows(array, carrier, (user.x,), (user.z,))[0]
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("jitter", [False, True], ids=["bundled", "jittered"])
    @pytest.mark.parametrize("fixture, strategy", [
        ("baseline_scenario", "trad_all"),
        ("shadow_scenario", "trad_all"),
        ("shadow_scenario", "airy_geo"),
        ("mixed_scenario", "trad_all"),
        ("mixed_scenario", "airy_geo"),
        ("shadow_scenario", "airy_opt"),
        # one shadowed and one bright user: the id names the mixed roles,
        # as it did before a curved strategy routed them by classification
        pytest.param("mixed_scenario", "airy_opt", id="mixed_scenario-mixed"),
    ])
    def test_matches_the_column_stack_of_one_row_beams(self, fixture, strategy, jitter,
                                                       request, rng, lam):
        """Every row has the bits of its user's one-row beam, and the
        codebook is C-contiguous, the layout the channel products consume."""
        scenario = request.getfixturevalue(fixture)
        if jitter:
            scenario = jittered(scenario, rng, lam)
        book = build_codebook(scenario, strategy)
        want = codebook_of_one(scenario, strategy)
        assert book.flags.c_contiguous
        assert book.shape == want.shape == (2, 64)
        assert book.tobytes() == want.tobytes()
