"""Geometry primitives: carrier, array lattice, users, obstacle, grid."""

import math
from dataclasses import replace

import numpy as np
import pytest

from airylink import (
    ArrayGeometry,
    Carrier,
    ConfigError,
    GridSpec,
    KnifeEdgeObstacle,
    ScenarioConfig,
    UserPosition,
    classify_user,
    fraunhofer_distance,
    geometric_angle,
    run_shadow_scan,
)

C = 299_792_458.0


class TestCarrier:
    def test_wavelength_times_frequency_is_lightspeed(self):
        c = Carrier(28e9)
        assert c.wavelength * c.frequency_hz == pytest.approx(C, rel=1e-9)

    def test_wavenumber_times_wavelength_is_two_pi(self):
        c = Carrier(28e9)
        assert c.wavenumber * c.wavelength == pytest.approx(2 * math.pi, rel=1e-12)

    def test_28ghz_wavelength_value(self):
        assert Carrier(28e9).wavelength == pytest.approx(0.010706873, rel=1e-7)

    @pytest.mark.parametrize("f", [0.0, -1e9])
    def test_rejects_nonpositive_frequency(self, f):
        with pytest.raises(ConfigError):
            Carrier(f)


class TestArrayGeometry:
    def test_element_positions_symmetric(self, array64):
        xs = array64.element_x()
        assert len(xs) == 64
        assert xs[0] == pytest.approx(-31.5 * array64.spacing)
        assert xs[-1] == pytest.approx(+31.5 * array64.spacing)
        assert abs(math.fsum(xs)) < 1e-12 * array64.spacing

    def test_consecutive_spacing(self, array64):
        xs = array64.element_x()
        for a, b in zip(xs, xs[1:]):
            assert b - a == pytest.approx(array64.spacing, rel=1e-12)

    def test_positions_are_one_read_only_array(self, array64):
        """Built once per geometry from the list expression it replaced, so
        the values keep their bits; callers cannot change them."""
        xs = array64.element_x()
        assert xs is array64.element_x()
        assert xs.dtype == np.float64 and not xs.flags.writeable
        c = 0.5 * (array64.n + 1)
        old = [(i - c) * array64.spacing for i in range(1, array64.n + 1)]
        assert xs.tobytes() == np.array(old).tobytes()
        with pytest.raises(ValueError):
            xs[0] = 0.0

    def test_odd_count_has_center_element(self):
        xs = ArrayGeometry(n=5, spacing=0.01).element_x()
        assert xs[2] == 0.0

    def test_aperture(self, array64, lam):
        assert array64.aperture == pytest.approx(31.36 * lam, rel=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            ArrayGeometry(n=0, spacing=0.01)
        with pytest.raises(ConfigError):
            ArrayGeometry(n=4, spacing=-0.01)


class TestFraunhofer:
    def test_standard_array(self, array64, carrier, lam):
        # D = 31.36 lambda -> 2 D^2 / lambda = 1966.8992 lambda
        d = fraunhofer_distance(array64, carrier)
        assert d == pytest.approx(2 * 31.36**2 * lam, rel=1e-12)

    def test_two_element_half_wave(self):
        c = Carrier(28e9)
        arr = ArrayGeometry(n=2, spacing=c.wavelength / 2)
        assert fraunhofer_distance(arr, c) == pytest.approx(2 * c.wavelength, rel=1e-12)

    def test_64_element_half_wave(self):
        c = Carrier(28e9)
        arr = ArrayGeometry(n=64, spacing=c.wavelength / 2)
        assert fraunhofer_distance(arr, c) == pytest.approx(2048 * c.wavelength, rel=1e-12)


class TestGeometricAngle:
    def test_boresight_is_zero(self, lam):
        assert geometric_angle(UserPosition(0.0, 100 * lam)) == 0.0

    def test_shadowed_user_angle(self, lam):
        theta = geometric_angle(UserPosition(-5 * lam, 250 * lam))
        assert math.degrees(theta) == pytest.approx(-1.1458, abs=2e-4)

    def test_bright_user_angle(self, lam):
        theta = geometric_angle(UserPosition(3.5 * lam, 300 * lam))
        assert math.degrees(theta) == pytest.approx(+0.6684, abs=2e-4)


class TestUserPosition:
    @pytest.mark.parametrize("z", [0.0, -1.0])
    def test_rejects_nonpositive_depth(self, z):
        with pytest.raises(ConfigError):
            UserPosition(0.0, z)


class TestKnifeEdgeObstacle:
    def test_below_edge_blocks_edge_inclusive(self):
        o = KnifeEdgeObstacle(depth=1.0, edge_x=0.0, blocked_side="below_edge")
        assert o.blocks(-0.5) and o.blocks(0.0) and not o.blocks(1e-9)

    def test_above_edge_blocks_the_other_side(self):
        o = KnifeEdgeObstacle(depth=1.0, edge_x=0.2, blocked_side="above_edge")
        assert o.blocks(0.3) and o.blocks(0.2) and not o.blocks(0.1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            KnifeEdgeObstacle(depth=0.0)
        with pytest.raises(ConfigError):
            KnifeEdgeObstacle(depth=1.0, blocked_side="sideways")


class TestClassifyUser:
    def test_deep_shadow_user(self, lam, edge_obstacle):
        u = UserPosition(-5 * lam, 250 * lam)
        assert classify_user(u, edge_obstacle) == "shadowed"

    def test_far_bright_user(self, lam, edge_obstacle):
        u = UserPosition(10 * lam, 300 * lam)
        assert classify_user(u, edge_obstacle) == "bright"

    def test_hard_case_bright_user(self, lam, edge_obstacle):
        # Close to the shadow boundary but the center ray clears the edge.
        u = UserPosition(3.5 * lam, 300 * lam)
        assert classify_user(u, edge_obstacle) == "bright"

    def test_user_in_front_of_obstacle_is_bright(self, lam, edge_obstacle):
        u = UserPosition(-5 * lam, 100 * lam)
        assert classify_user(u, edge_obstacle) == "bright"

    def test_ray_through_edge_counts_as_shadowed(self, lam, edge_obstacle):
        # x = 0 exactly: the center ray grazes the (inclusive) edge.
        u = UserPosition(0.0, 200 * lam)
        assert classify_user(u, edge_obstacle) == "shadowed"


class TestGridSpec:
    def test_dx_and_interior(self, lam):
        g = GridSpec(nx=4096, window=256 * lam, apod_width=25.6 * lam)
        assert g.dx == pytest.approx(lam / 16, rel=1e-12)
        assert g.interior_half_width == pytest.approx(102.4 * lam, rel=1e-12)

    @pytest.mark.parametrize("nx", [0, 1, 3, 1000])
    def test_rejects_non_power_of_two(self, nx, lam):
        with pytest.raises(ConfigError):
            GridSpec(nx=nx, window=256 * lam, apod_width=0.0)

    def test_rejects_apodization_wider_than_half_window(self, lam):
        with pytest.raises(ConfigError):
            GridSpec(nx=4096, window=256 * lam, apod_width=128 * lam)
        with pytest.raises(ConfigError):
            GridSpec(nx=4096, window=256 * lam, apod_width=-1.0)


class TestScenarioConfig:
    def test_k_counts_users(self, baseline_scenario):
        assert baseline_scenario.k == 2

    def test_with_users_replaces_only_users(self, baseline_scenario, lam):
        moved = (UserPosition(0.0, 200 * lam, "ue1"),)
        s = baseline_scenario.with_users(moved)
        assert s.k == 1
        assert s.users[0].x == 0.0
        assert s.carrier == baseline_scenario.carrier
        assert s.tx_power == baseline_scenario.tx_power

    def test_without_obstacle(self, shadow_scenario):
        free = shadow_scenario.without_obstacle()
        assert free.obstacle is None
        assert free.users == shadow_scenario.users

    def test_rejects_empty_user_list(self, carrier, array64, grid_std):
        with pytest.raises(ConfigError):
            ScenarioConfig(carrier=carrier, array=array64, users=(), grid=grid_std)

    def test_rejects_bad_link_parameters(self, carrier, array64, grid_std, lam):
        users = (UserPosition(0.0, 200 * lam),)
        with pytest.raises(ConfigError):
            ScenarioConfig(carrier=carrier, array=array64, users=users,
                           grid=grid_std, noise_power=0.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(carrier=carrier, array=array64, users=users,
                           grid=grid_std, rzf_epsilon=-1e-9)
        with pytest.raises(ConfigError, match="tx_power must be positive"):
            ScenarioConfig(carrier=carrier, array=array64, users=users,
                           grid=grid_std, tx_power=0.0)


class TestNonFiniteFieldsRejected:
    """Every float field of the scene dataclasses must be finite: the range
    checks compare with <= 0, which NaN passes, so without this a NaN or an
    infinity reaches the physics."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("owner, field", [
        ("carrier", "frequency_hz"),
        ("array64", "spacing"),
        ("user", "x"),
        ("user", "z"),
        ("edge_obstacle", "depth"),
        ("edge_obstacle", "edge_x"),
        ("grid_std", "window"),
        ("grid_std", "apod_width"),
        ("shadow_scenario", "noise_power"),
        ("shadow_scenario", "tx_power"),
        ("shadow_scenario", "rzf_epsilon"),
    ])
    def test_field(self, owner, field, bad, request):
        valid = (UserPosition(0.0, 1.0) if owner == "user"
                 else request.getfixturevalue(owner))
        with pytest.raises(ConfigError, match=f"{type(valid).__name__}.{field} must be finite"):
            replace(valid, **{field: bad})

    def test_nan_noise_power_never_reaches_a_shadow_scan(self, shadow_scenario):
        """A NaN noise power would score the scan as sum_rate = nan and
        common_sinr_db = -inf; the scenario is refused before it runs."""
        with pytest.raises(ConfigError, match="noise_power must be finite"):
            run_shadow_scan(replace(shadow_scenario, noise_power=math.nan))
