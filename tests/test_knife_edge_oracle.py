"""diffraction_channel against the closed-form knife-edge oracle.

The oracle (tests/knife_edge_oracle.py) multiplies each element's Green's
coefficient by the Fresnel straight-edge factor; it shares no FFT, grid,
mask or interpolation with the cascade. The model side is the calibrated
channel, c * diffraction_channel, in the same convention.

Convergence study behind the tolerances: relative Frobenius error of each
user's row, model against oracle, on the bundled scenarios with the window
held at 256 lambda.

    scenario  user   nx=2048   nx=4096   nx=8192
    baseline  ue1     1.04%     0.49%     0.34%
    baseline  ue2     1.15%     0.58%     0.44%
    shadow    ue1     2.95%     3.98%     5.19%
    shadow    ue2     3.32%     1.28%     1.01%
    mixed     ue1     2.97%     3.96%     5.19%
    mixed     ue2     1.34%     1.00%     1.97%

Free-space rows converge as the grid refines. Rows behind the edge do not:
the paraxial transfer function carries the mask edge's spectrum beyond
|lambda f_x| = 1, where it should be evanescent. With an angular filter at
|sin| < 0.95 after the mask, the shadowed rows measure 2.4% / 1.2% / 0.7%
instead. The tolerances sit above the largest value of the study: 1.5% for
free-space rows and 6% for rows behind the edge. The focus loss of a
traditional beam, model against oracle, differs by at most 0.31 dB over
the same study (12.77 / 12.77 / 12.92 dB against 12.61 dB for the mixed
scenario's shadowed user); its tolerance is 0.5 dB.
"""

import math

import numpy as np
import pytest

from airylink import (
    diffraction_channel,
    geometric_angle,
    remark1_calibration,
)
from batch_of_one import focus_row
from knife_edge_oracle import (
    edge_parameters,
    fresnel_integral,
    knife_edge_factor,
    oracle_channel,
    oracle_search,
)

SCENARIOS = ("baseline_scenario", "shadow_scenario", "mixed_scenario")
FREE_SPACE_ROW_TOL = 0.015
EDGE_ROW_TOL = 0.06
FOCUS_LOSS_TOL_DB = 0.5


def calibrated_channel(scenario) -> np.ndarray:
    scale, _ = remark1_calibration(scenario)
    return scale * diffraction_channel(scenario)


class TestFresnelIntegral:
    def test_tabulated_values(self):
        """C(nu) - j S(nu) against tabulated values (Abramowitz & Stegun,
        ch. 7), and odd in nu."""
        table = {1.0: 0.7798934004 - 0.4382591474j,
                 2.5: 0.4574130096 - 0.6191817558j}
        for nu, value in table.items():
            assert abs(fresnel_integral(nu) - value) < 1e-9
            assert abs(fresnel_integral(-nu) + value) < 1e-9

    def test_shadow_boundary_is_a_quarter_of_free_space(self):
        """The classical straight-edge result: on the geometric shadow
        boundary the intensity is 1/4 of the unobstructed value."""
        assert abs(knife_edge_factor(0.0)) ** 2 == pytest.approx(0.25, abs=1e-15)

    def test_lit_and_shadow_limits(self):
        """F -> 1 far into the lit side and decays as 1/(pi nu sqrt 2) in
        deep shadow; F(nu) + F(-nu) = 1 by symmetry of the integrand."""
        for nu in (3.0, 6.0, 9.0):
            assert abs(knife_edge_factor(nu) + knife_edge_factor(-nu) - 1.0) < 1e-13
            assert (abs(knife_edge_factor(nu)) * math.pi * nu * math.sqrt(2.0)
                    == pytest.approx(1.0, abs=0.5 / nu**2))

    def test_refuses_nu_beyond_the_quadrature(self):
        with pytest.raises(ValueError, match="quadrature"):
            fresnel_integral(10.5)


class TestChannelAgainstOracle:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_rows_match_within_the_measured_bound(self, name, request):
        scenario = request.getfixturevalue(name)
        model = calibrated_channel(scenario)
        oracle = oracle_channel(scenario)
        err = np.linalg.norm(model - oracle, axis=1) / np.linalg.norm(oracle, axis=1)
        for k, nu in enumerate(edge_parameters(scenario)):
            tol = FREE_SPACE_ROW_TOL if nu is None else EDGE_ROW_TOL
            assert err[k] < tol, f"{name} user {k}: relative error {err[k]:.2%}"

    @pytest.mark.parametrize("name", ("shadow_scenario", "mixed_scenario"))
    def test_focus_loss_matches(self, name, request):
        """Drop of a traditional focus at its own user when the edge is put
        in, in dB, model against oracle."""
        scenario = request.getfixturevalue(name)
        free = scenario.without_obstacle()
        pairs = ((calibrated_channel(free), calibrated_channel(scenario)),
                 (oracle_channel(free), oracle_channel(scenario)))
        for k, user in enumerate(scenario.users):
            w = focus_row(scenario.array, scenario.carrier, user)
            model_db, oracle_db = (
                10 * math.log10(abs(h_free[k] @ w) ** 2 / abs(h_edge[k] @ w) ** 2)
                for h_free, h_edge in pairs)
            assert abs(model_db - oracle_db) < FOCUS_LOSS_TOL_DB, (
                f"{name} user {k}: model {model_db:.2f} dB, oracle {oracle_db:.2f} dB")

    @pytest.mark.parametrize("name", ("shadow_scenario", "mixed_scenario"))
    def test_shadowed_users_sit_in_penumbra(self, name, request):
        """Every user behind the edge keeps a direct line of sight to part
        of the aperture (some nu < 0) and no element reaches nu = 2.5: the
        bundled geometries are penumbral, not deep shadow."""
        scenario = request.getfixturevalue(name)
        behind = [nu for nu in edge_parameters(scenario) if nu is not None]
        assert behind
        for nu in behind:
            assert nu.min() < 0.0 < nu.max() < 2.5


class TestOracleSearch:
    def test_rule_reproduces_the_program_on_the_model_channel(
            self, mixed_scenario, mixed_opt_result):
        """On the program's own channel the re-implemented rule lands on the
        program's winner with the same rate, so on the oracle channel it
        predicts what the search should return."""
        search = mixed_opt_result.search
        eta = search.threshold / search.baseline_gain
        end = oracle_search(mixed_scenario, calibrated_channel(mixed_scenario), eta)
        best = search.best_params
        dtheta = best.launch_angle - geometric_angle(mixed_scenario.users[0])
        assert end.best[:2] == (best.bending, best.focal)
        assert end.best[2] == pytest.approx(dtheta, abs=1e-12)
        assert end.best_rate == pytest.approx(search.best_rate, rel=1e-12)

    def test_paraxial_nu_gives_the_same_endpoint(self, mixed_scenario):
        exact, paraxial = (
            oracle_search(mixed_scenario, oracle_channel(mixed_scenario, p), 0.4)
            for p in (False, True))
        assert exact.coarse == paraxial.coarse
        assert exact.best == paraxial.best
