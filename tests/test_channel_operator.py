"""The diffraction channel as one K x N operator, and the batched search on it.

The operator is built by running the cascade transposed; the forward
per-beam cascade (launch, blocked propagation, sampling) is its oracle.
A channel builder reused across a sweep must give every row the bits of a
row built with fresh factors. The search scores candidates in chunks, and
a candidate must get the same bits there as it does alone.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from airylink import (
    AiryParams,
    ConfigError,
    GridError,
    GridSpec,
    KnifeEdgeObstacle,
    UserPosition,
    diffraction_channel,
    launch_aperture,
    propagate_blocked,
    sample_field,
    traditional_focus,
)
from airylink.channels import (
    FRESNEL_DIFFRACTION,
    _amplitude_conversion,
    _channel_builder,
    effective_channel,
)
from airylink.geometry import geometric_angle
from airylink.optimizer import _CHUNK, _score_chunk
from airylink.propagation import (
    _apodization,
    _clear_side,
    _launch_filter,
    _transfer_function,
    element_bins,
    sample_field_transpose,
)

from batch_of_one import beam_column, evaluate_candidate


def cascade_responses(scenario, w) -> np.ndarray:
    """Forward oracle: launch the weights once and sample every user."""
    lam = scenario.carrier.wavelength
    launch = launch_aperture(w, scenario.array, scenario.grid, lam)
    return np.array([
        _amplitude_conversion(lam, u.z)
        * sample_field(propagate_blocked(launch, scenario.obstacle, u.z, lam), u.x)
        for u in scenario.users
    ])


def assert_matches_cascade(scenario, rng, trials: int = 4) -> None:
    h = diffraction_channel(scenario)
    assert h.kind == "physical" and h.model == FRESNEL_DIFFRACTION
    assert h.entries.shape == (scenario.k, scenario.array.n)
    for _ in range(trials):
        w = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        ref = cascade_responses(scenario, w)
        err = np.max(np.abs(h.entries @ w - ref)) / np.max(np.abs(ref))
        assert err < 1e-12


class TestOperatorOracle:
    @pytest.mark.parametrize("name", ["baseline_scenario", "shadow_scenario",
                                      "mixed_scenario"])
    def test_bundled_configs(self, name, request, rng):
        assert_matches_cascade(request.getfixturevalue(name), rng)

    def test_user_at_or_before_the_obstacle(self, shadow_scenario, lam, rng):
        depth = shadow_scenario.obstacle.depth
        users = (UserPosition(-3 * lam, depth, "at_edge_plane"),
                 UserPosition(4 * lam, 90 * lam, "in_front"))
        assert_matches_cascade(shadow_scenario.with_users(users), rng)

    def test_above_edge_obstacle(self, shadow_scenario, lam, rng):
        obstacle = KnifeEdgeObstacle(depth=150 * lam, edge_x=2 * lam,
                                     blocked_side="above_edge")
        users = (UserPosition(5 * lam, 250 * lam, "shadowed"),
                 UserPosition(-6 * lam, 300 * lam, "lit"))
        scenario = replace(shadow_scenario, users=users, obstacle=obstacle)
        assert_matches_cascade(scenario, rng)


def fresh_row(scenario, user) -> np.ndarray:
    """One operator row with every cascade factor built afresh for it: the
    transposed cascade as it ran before rows shared their factors."""
    grid, lam, obstacle = scenario.grid, scenario.carrier.wavelength, scenario.obstacle
    k0 = 2.0 * math.pi / lam
    apod = _apodization(grid)

    def leg(v, distance, spectral):
        v = v * np.exp(-1j * k0 * distance)
        if apod is not None:
            v = v * apod
        return np.fft.fft(np.fft.ifft(v) * spectral)

    launch = _launch_filter(grid, lam)
    v = _amplitude_conversion(lam, user.z) * sample_field_transpose(grid, user.x)
    if obstacle is None or user.z <= obstacle.depth:
        back = leg(v, user.z, _transfer_function(grid, user.z, lam) * launch)
    else:
        second = user.z - obstacle.depth
        v = leg(v, second, _transfer_function(grid, second, lam))
        v = np.where(_clear_side(grid, obstacle), v, 0.0 + 0.0j)
        back = leg(v, obstacle.depth,
                   _transfer_function(grid, obstacle.depth, lam) * launch)
    return back[element_bins(scenario.array, grid)] / grid.dx


class TestChannelBuilder:
    @pytest.mark.parametrize("name", ["baseline_scenario", "shadow_scenario",
                                      "mixed_scenario"])
    def test_sweep_rows_match_fresh_rows(self, name, request, lam):
        """The fixed user, the moved user and a return to an earlier
        position (a memo hit), all from one builder. In the mixed scenario
        the bright user's second leg (150 wavelengths) equals the first
        leg's distance, so a factor kept by distance alone would mix the
        launch filter into it."""
        scenario = request.getfixturevalue(name)
        fixed, mover = scenario.users
        channel = _channel_builder(scenario)
        for dx in (0.0, -2.5 * lam, 1.25 * lam, 0.0):
            moved = UserPosition(mover.x + dx, mover.z, mover.label)
            h = channel((fixed, moved)).entries
            assert np.array_equal(h[0], fresh_row(scenario, fixed))
            assert np.array_equal(h[1], fresh_row(scenario, moved))
        fresh = np.vstack([fresh_row(scenario, u) for u in scenario.users])
        assert np.array_equal(diffraction_channel(scenario).entries, fresh)

    def test_users_at_before_and_behind_the_obstacle(self, shadow_scenario, lam):
        depth = shadow_scenario.obstacle.depth
        users = (UserPosition(-3 * lam, depth, "at_edge_plane"),
                 UserPosition(4 * lam, 90 * lam, "in_front"),
                 UserPosition(-6 * lam, 2 * depth, "behind"))
        channel = _channel_builder(shadow_scenario)
        for order in (users, users[::-1]):
            h = channel(order).entries
            for row, u in zip(h, order):
                assert np.array_equal(row, fresh_row(shadow_scenario, u))


class TestBatchInvariance:
    def test_alone_and_in_a_chunk_agree_bit_for_bit(self, mixed_scenario):
        scale = 0.7 - 0.7j
        theta = geometric_angle(mixed_scenario.users[0])
        designs = [
            AiryParams(bending=-60.0 + 0.5 * i, focal=1.0 + 0.01 * i,
                       launch_angle=theta + math.radians(-5.0 + 0.08 * i))
            for i in range(_CHUNK)
        ]
        w2 = traditional_focus(mixed_scenario.array, mixed_scenario.carrier,
                               mixed_scenario.users[1]).weights
        fixed_h2 = beam_column(mixed_scenario, w2, scale)
        h_phys = diffraction_channel(mixed_scenario).entries
        columns = ([p.bending for p in designs], [p.focal for p in designs],
                   [p.launch_angle for p in designs])
        rates, h11 = _score_chunk(mixed_scenario, h_phys, columns, w2,
                                  fixed_h2, scale)
        for i in range(_CHUNK):
            alone = evaluate_candidate(mixed_scenario, designs[i], scale)
            assert alone == (rates[i], h11[i])


class TestOperatorGuards:
    def test_user_outside_window(self, baseline_scenario, lam):
        runaway = UserPosition(200 * lam, 250 * lam, label="runaway")
        scenario = baseline_scenario.with_users(
            (baseline_scenario.users[0], runaway))
        with pytest.raises(ConfigError, match="runaway"):
            diffraction_channel(scenario)
        with pytest.raises(ConfigError, match="runaway"):
            effective_channel(diffraction_channel(scenario), np.ones((64, 2)) / 8.0)

    def test_element_outside_window(self, baseline_scenario, lam):
        """The 31.4-wavelength aperture does not fit a 16-wavelength window."""
        narrow = GridSpec(nx=256, window=16 * lam, apod_width=0.0)
        users = (UserPosition(-2 * lam, 250 * lam, "ue1"),
                 UserPosition(3 * lam, 300 * lam, "ue2"))
        scenario = replace(baseline_scenario, grid=narrow, users=users)
        with pytest.raises(GridError, match="element 0"):
            diffraction_channel(scenario)
