"""The diffraction channel as one K x N operator, and the batched search on it.

The operator is built by running the cascade transposed; the forward
per-beam cascade (launch, blocked propagation, sampling) is its oracle.
A diffraction channel of many users, repeats among them, must give every
row the bits of a row built with fresh factors. The search scores candidates in chunks, and
a candidate must get the same bits there as it does alone.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import airylink.propagation
from airylink import (
    AiryParams,
    GridError,
    GridSpec,
    KnifeEdgeObstacle,
    UserPosition,
    diffraction_channel,
    launch_aperture,
)
from airylink.channels import _amplitude_conversion, beam_responses
from airylink.geometry import geometric_angle
from airylink.optimizer import _CHUNK
from airylink.propagation import (
    Cascade,
    _apodization,
    _clear_side,
    _launch_filter,
    _transfer_function,
    element_bins,
    sample_field_transpose,
)

from batch_of_one import evaluate_candidate, focus_row, score_designs
from wave_oracles import sample_field, two_stage


def cascade_responses(scenario, users, w) -> np.ndarray:
    """Forward oracle: launch the weights once and sample every user."""
    lam = scenario.carrier.wavelength
    launch = launch_aperture(w, scenario.array, scenario.grid, lam)
    return np.array([
        _amplitude_conversion(lam, u.z)
        * sample_field(two_stage(launch, scenario.obstacle, u.z, lam), u.x)
        for u in users
    ])


def transposed_row(scenario, user) -> np.ndarray:
    """The operator row of a user no scenario may hold (one on the
    obstacle plane), from the scenario's Cascade.transpose: the expression
    diffraction_channel evaluates per user."""
    grid, lam = scenario.grid, scenario.carrier.wavelength
    probe = _amplitude_conversion(lam, user.z) * sample_field_transpose(grid, user.x)
    back = Cascade(grid, lam, scenario.obstacle).transpose(probe, user.z)
    return back[element_bins(scenario.array, grid)] / grid.dx


def assert_matches_cascade(scenario, rng, h=None, users=None, trials: int = 4) -> None:
    """Rows h of `users` against the forward oracle; by default the rows
    diffraction_channel gives the scenario's own users."""
    users = scenario.users if users is None else users
    h = diffraction_channel(scenario) if h is None else h
    assert h.shape == (len(users), scenario.array.n)
    for _ in range(trials):
        w = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        ref = cascade_responses(scenario, users, w)
        err = np.max(np.abs(h @ w - ref)) / np.max(np.abs(ref))
        assert err < 1e-12


class TestOperatorOracle:
    @pytest.mark.parametrize("name", ["baseline_scenario", "shadow_scenario",
                                      "mixed_scenario"])
    def test_bundled_configs(self, name, request, rng):
        assert_matches_cascade(request.getfixturevalue(name), rng)

    def test_user_at_or_before_the_obstacle(self, shadow_scenario, lam, rng):
        """A user in front of the edge through diffraction_channel; one on
        the obstacle plane, which the scenario refuses, through
        Cascade.transpose."""
        on_plane = UserPosition(-3 * lam, shadow_scenario.obstacle.depth, "at_edge_plane")
        assert_matches_cascade(shadow_scenario, rng, transposed_row(shadow_scenario, on_plane)[None],
                               (on_plane,))
        in_front = UserPosition(4 * lam, 90 * lam, "in_front")
        assert_matches_cascade(shadow_scenario.with_users((in_front,)), rng)

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
        position (a memo hit), all in one call, as a sweep makes it. In the
        mixed scenario the bright user's second leg (150 wavelengths)
        equals the first leg's distance, so a factor kept by distance alone
        would mix the launch filter into it."""
        scenario = request.getfixturevalue(name)
        fixed, mover = scenario.users
        users = (fixed, *(UserPosition(mover.x + dx, mover.z, mover.label)
                          for dx in (0.0, -2.5 * lam, 1.25 * lam, 0.0)))
        h = diffraction_channel(scenario.with_users(users))
        for row, u in zip(h, users):
            assert np.array_equal(row, fresh_row(scenario, u))
        fresh = np.vstack([fresh_row(scenario, u) for u in scenario.users])
        assert np.array_equal(diffraction_channel(scenario), fresh)

    def test_users_at_before_and_behind_the_obstacle(self, shadow_scenario, lam):
        """Users before and behind the edge in one call, in either order;
        the on-plane user, which the scenario refuses, through
        Cascade.transpose."""
        depth = shadow_scenario.obstacle.depth
        users = (UserPosition(4 * lam, 90 * lam, "in_front"),
                 UserPosition(-6 * lam, 2 * depth, "behind"))
        for order in (users, users[::-1]):
            h = diffraction_channel(shadow_scenario.with_users(order))
            for row, u in zip(h, order):
                assert np.array_equal(row, fresh_row(shadow_scenario, u))
        on_plane = UserPosition(-3 * lam, depth, "at_edge_plane")
        assert np.array_equal(transposed_row(shadow_scenario, on_plane),
                              fresh_row(shadow_scenario, on_plane))

    def test_obstacle_plane_is_one_leg_and_the_next_depth_two(self, shadow_scenario, lam):
        """Cascade.transpose gives a user exactly on the obstacle plane
        (which the scenario refuses) the unmasked one-leg row; one float
        depth further diffraction_channel's row is the masked two-leg one."""
        depth = shadow_scenario.obstacle.depth
        free = shadow_scenario.without_obstacle()
        on_plane = UserPosition(-3 * lam, depth, "on_plane")
        past = UserPosition(-3 * lam, float(np.nextafter(depth, np.inf)), "past")
        (h_past,) = diffraction_channel(shadow_scenario.with_users((past,)))
        assert np.array_equal(transposed_row(shadow_scenario, on_plane), fresh_row(free, on_plane))
        assert np.array_equal(h_past, fresh_row(shadow_scenario, past))
        assert not np.array_equal(h_past, fresh_row(free, past))

    def test_mask_built_once_per_builder(self, shadow_scenario, lam, monkeypatch):
        """One diffraction_channel call makes one Cascade: each user costs
        one transposed cascade, users that repeat an (x, z), whatever their
        labels, get rows with the same bits, and every two-leg row reuses
        one knife-edge mask."""
        masks, transposes = [], []
        real_mask = airylink.propagation._clear_side
        monkeypatch.setattr(airylink.propagation, "_clear_side",
                            lambda *args: masks.append(args) or real_mask(*args))
        real_transpose = airylink.propagation.Cascade.transpose

        def counted(cascade, probe, depth):
            transposes.append(depth)
            return real_transpose(cascade, probe, depth)

        monkeypatch.setattr(airylink.propagation.Cascade, "transpose", counted)
        xs = (-10.0, -5.0, -10.0, 0.0, 5.0, -5.0, -10.0)
        users = [UserPosition(x * lam, 300 * lam, f"ue{i}") for i, x in enumerate(xs)]
        users.insert(3, UserPosition(-10.0 * lam, 250 * lam, "nearer"))
        h = diffraction_channel(shadow_scenario.with_users(tuple(users)))
        assert h.shape == (len(users), 64)
        assert len(transposes) == len(users)
        assert masks == [(shadow_scenario.grid, shadow_scenario.obstacle)]
        assert np.array_equal(h[[2, 6, 7]], h[[0, 1, 0]])


class TestBatchInvariance:
    def test_alone_and_in_a_chunk_agree_bit_for_bit(self, mixed_scenario):
        scale = 0.7 - 0.7j
        theta = geometric_angle(mixed_scenario.users[0])
        designs = [
            AiryParams(bending=-60.0 + 0.5 * i, focal=1.0 + 0.01 * i,
                       launch_angle=theta + math.radians(-5.0 + 0.08 * i))
            for i in range(_CHUNK)
        ]
        w2 = focus_row(mixed_scenario.array, mixed_scenario.carrier, mixed_scenario.users[1])
        h_phys = scale * diffraction_channel(mixed_scenario)
        fixed_h2 = beam_responses(h_phys, w2[None])[:, 0]
        columns = ([p.bending for p in designs], [p.focal for p in designs],
                   [p.launch_angle for p in designs])
        rates, h11 = score_designs(mixed_scenario, h_phys, columns, w2, fixed_h2)
        for i in range(_CHUNK):
            alone = evaluate_candidate(mixed_scenario, designs[i], scale)
            assert alone == (rates[i], h11[i])


    def test_many_rows_and_beams_match_each_entry_alone(self, mixed_scenario, rng):
        """One product of 130 user rows and 130 beams: every entry has the
        bits of its row and beam taken alone. A batch with leading axes, one
        of them a size-1 axis that broadcasts, and over 256 KiB of responses
        in all: every block has the bits of its own 2-D call."""
        h = diffraction_channel(mixed_scenario)
        rows = np.vstack([h, rng.standard_normal((128, 64)) + 1j * rng.standard_normal((128, 64))])
        beams = rng.standard_normal((130, 64)) + 1j * rng.standard_normal((130, 64))
        product = beam_responses(rows, beams)
        alone = np.array([[beam_responses(rows[k:k + 1], beams[c:c + 1])[0, 0]
                           for c in range(len(beams))] for k in range(len(rows))])
        assert product.tobytes() == alone.tobytes()

        row_blocks = rows[:128].reshape(4, 1, 32, 64)
        beam_blocks = beams[:129].reshape(3, 43, 64)
        batch = beam_responses(row_blocks, beam_blocks)
        assert batch.shape == (4, 3, 32, 43) and batch.nbytes > 256 * 1024
        for i, j in np.ndindex(4, 3):
            block = beam_responses(row_blocks[i, 0], beam_blocks[j])
            assert batch[i, j].tobytes() == block.tobytes()


class TestOperatorGuards:
    def test_user_outside_window(self, baseline_scenario, lam):
        """No scenario holds a user past the usable window, and the raw-grid
        sample row refuses one too."""
        runaway = UserPosition(200 * lam, 250 * lam, label="runaway")
        with pytest.raises(GridError, match="'runaway' .* lies in the absorbing border"):
            baseline_scenario.with_users((baseline_scenario.users[0], runaway))
        with pytest.raises(GridError, match="outside the usable window"):
            sample_field_transpose(baseline_scenario.grid, runaway.x)

    def test_element_outside_window(self, baseline_scenario, lam):
        """A 128-wavelength window passes the 4x-aperture rule, but a
        50-wavelength absorber leaves a usable half-width of 14 wavelengths,
        short of the 15.4 at which element 0 sits."""
        narrow = GridSpec(nx=512, window=128 * lam, apod_width=50 * lam)
        with pytest.raises(GridError, match="element 0 .* lies in the absorbing border"):
            replace(baseline_scenario, grid=narrow)
