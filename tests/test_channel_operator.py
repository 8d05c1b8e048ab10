"""The diffraction channel as one K x N operator, and the batched search on it.

The operator is built by running the cascade transposed; the forward
per-beam cascade (launch, blocked propagation, sampling) is its oracle.
The search scores candidates in chunks, and a candidate must get the same
bits there as it does alone.
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
    beam_column,
    diffraction_channel,
    effective_channel_diffraction,
    evaluate_candidate,
    launch_aperture,
    propagate_blocked,
    sample_field,
    traditional_focus,
)
from airylink.channels import FRESNEL_DIFFRACTION, _amplitude_conversion
from airylink.geometry import geometric_angle
from airylink.optimizer import _CHUNK, _score_chunk


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
        rates, h11 = _score_chunk(mixed_scenario, h_phys, designs, w2,
                                  fixed_h2, scale)
        for i in range(_CHUNK):
            alone = evaluate_candidate(mixed_scenario, designs[i], fixed_h2, scale)
            assert alone == (rates[i], h11[i])


class TestOperatorGuards:
    def test_user_outside_window(self, baseline_scenario, lam):
        runaway = UserPosition(200 * lam, 250 * lam, label="runaway")
        scenario = baseline_scenario.with_users(
            (baseline_scenario.users[0], runaway))
        with pytest.raises(ConfigError, match="runaway"):
            diffraction_channel(scenario)
        with pytest.raises(ConfigError, match="runaway"):
            effective_channel_diffraction(scenario, np.ones((64, 2)) / 8.0)

    def test_element_outside_window(self, baseline_scenario, lam):
        """The 31.4-wavelength aperture does not fit a 16-wavelength window."""
        narrow = GridSpec(nx=256, window=16 * lam, apod_width=0.0)
        users = (UserPosition(-2 * lam, 250 * lam, "ue1"),
                 UserPosition(3 * lam, 300 * lam, "ue2"))
        scenario = replace(baseline_scenario, grid=narrow, users=users)
        with pytest.raises(GridError, match="element 0"):
            diffraction_channel(scenario)
