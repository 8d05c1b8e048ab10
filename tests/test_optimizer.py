"""Constrained coarse-to-fine search over the cubic-beam parameter triple.

Real searches here run on deliberately tiny grids: the structural
guarantees (ordering, determinism, constraint bookkeeping, fine-stage
arithmetic) are grid-size independent, and the full published-size run is
exercised once in the experiments layer.
"""

import math

import numpy as np
import pytest

from airylink import (
    AiryParams,
    ConfigError,
    InfeasibleSearchError,
    SearchGrids,
    SearchOutcome,
    beam_column,
    coarse_to_fine_search,
    complexity_estimate,
    default_search_grids,
    evaluate_candidate,
    geometric_baseline_params,
    traditional_focus,
)
from airylink.geometry import geometric_angle
from airylink.optimizer import GEO_BENDING, GEO_FOCAL


@pytest.fixture(scope="module")
def fixed_h2(mixed_scenario):
    w2 = traditional_focus(mixed_scenario.array, mixed_scenario.carrier,
                           mixed_scenario.users[1])
    return beam_column(mixed_scenario, w2.weights)


def singleton_grids(bending=GEO_BENDING, focal=GEO_FOCAL, dtheta=0.0):
    return SearchGrids(coarse_bending=(bending,), coarse_focal=(focal,),
                       coarse_dtheta=(dtheta,))


class TestSearchGrids:
    def test_default_shape(self):
        g = default_search_grids()
        assert len(g.coarse_bending) == 11
        assert g.coarse_bending[0] == -60.0 and g.coarse_bending[-1] == -10.0
        assert len(g.coarse_focal) == 7
        assert g.coarse_focal[0] == 1.0 and g.coarse_focal[-1] == 2.5
        assert len(g.coarse_dtheta) == 21
        assert g.coarse_dtheta[0] == pytest.approx(math.radians(-5.0))
        assert g.coarse_dtheta[-1] == pytest.approx(math.radians(5.0))
        assert g.fine_refine_factor == 5 and g.fine_span == 1
        n = len(g.coarse_bending) * len(g.coarse_focal) * len(g.coarse_dtheta)
        assert n == 1617

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            SearchGrids(coarse_bending=(), coarse_focal=(1.0,),
                        coarse_dtheta=(0.0,))

    def test_unsorted_axis_rejected(self):
        with pytest.raises(ConfigError, match="sorted"):
            SearchGrids(coarse_bending=(-10.0, -20.0), coarse_focal=(1.0,),
                        coarse_dtheta=(0.0,))

    @pytest.mark.parametrize("kwargs", [dict(fine_refine_factor=1),
                                        dict(fine_span=0)])
    def test_fine_stage_parameters_validated(self, kwargs):
        with pytest.raises(ConfigError):
            SearchGrids(coarse_bending=(-25.0,), coarse_focal=(1.75,),
                        coarse_dtheta=(0.0,), **kwargs)


class TestGeometricBaseline:
    def test_stock_design(self, mixed_scenario):
        p = geometric_baseline_params(mixed_scenario)
        assert p.bending == -25.0
        assert p.focal == 1.75
        assert p.launch_angle == geometric_angle(mixed_scenario.users[0])


class TestEvaluateCandidate:
    def test_requires_two_users(self, mixed_scenario, fixed_h2):
        solo = mixed_scenario.with_users((mixed_scenario.users[0],))
        with pytest.raises(ConfigError, match="2 users"):
            evaluate_candidate(solo, geometric_baseline_params(mixed_scenario),
                               fixed_h2)

    def test_h11_matches_direct_beam_column(self, mixed_scenario, fixed_h2):
        from airylink import airy_weights

        params = geometric_baseline_params(mixed_scenario)
        _, h11_power = evaluate_candidate(mixed_scenario, params, fixed_h2)
        w1 = airy_weights(mixed_scenario.array, mixed_scenario.carrier, params)
        expected = abs(beam_column(mixed_scenario, w1.weights)[0]) ** 2
        assert h11_power == expected

    def test_matches_manual_pipeline(self, mixed_scenario, fixed_h2):
        """The candidate score is exactly what the full codebook pipeline
        computes for the same pair of beams, bit for bit."""
        from airylink import (ChannelMatrix, airy_weights, link_metrics,
                              rzf_precoder)
        from airylink.channels import FRESNEL_DIFFRACTION

        params = geometric_baseline_params(mixed_scenario)
        rate, _ = evaluate_candidate(mixed_scenario, params, fixed_h2)

        w1 = airy_weights(mixed_scenario.array, mixed_scenario.carrier, params)
        w2 = traditional_focus(mixed_scenario.array, mixed_scenario.carrier,
                               mixed_scenario.users[1])
        h1 = beam_column(mixed_scenario, w1.weights)
        h_eff = ChannelMatrix(np.column_stack([h1, fixed_h2]),
                              model=FRESNEL_DIFFRACTION, kind="effective")
        w_rf = np.column_stack([w1.weights, w2.weights])
        pre = rzf_precoder(h_eff, w_rf, mixed_scenario.tx_power,
                           mixed_scenario.rzf_epsilon)
        manual = link_metrics(h_eff, pre, mixed_scenario.noise_power).sum_rate
        assert rate == manual


class TestCoarseToFineSearch:
    def test_singleton_grids_return_the_geo_point(self, mixed_scenario, fixed_h2):
        outcome = coarse_to_fine_search(mixed_scenario, singleton_grids())
        assert outcome.evaluations == 1  # fine stage skipped entirely
        assert len(outcome.trace) == 1
        assert outcome.trace[0].stage == "coarse"
        assert outcome.best_params == geometric_baseline_params(mixed_scenario)
        rate, _ = evaluate_candidate(mixed_scenario,
                                     geometric_baseline_params(mixed_scenario),
                                     fixed_h2)
        assert outcome.best_rate == rate

    def test_threshold_is_eta_times_geo_gain(self, mixed_scenario):
        outcome = coarse_to_fine_search(mixed_scenario, singleton_grids(),
                                        eta=0.4)
        assert outcome.threshold == pytest.approx(0.4 * outcome.baseline_gain,
                                                  rel=1e-12)

    def test_fine_stage_candidate_arithmetic(self, mixed_scenario):
        """3-point bending axis with two singleton axes, span 1, refine 2:
        3 coarse + (2*1*2+1)*1*1 = 8 evaluations, and the fine axis stays
        centered on the coarse incumbent."""
        grids = SearchGrids(coarse_bending=(-35.0, -25.0, -15.0),
                            coarse_focal=(GEO_FOCAL,), coarse_dtheta=(0.0,),
                            fine_refine_factor=2, fine_span=1)
        outcome = coarse_to_fine_search(mixed_scenario, grids)
        assert outcome.evaluations == 8
        fine = [e for e in outcome.trace if e.stage == "fine"]
        assert len(fine) == 5
        coarse_best = max((e for e in outcome.trace if e.stage == "coarse" and e.feasible),
                          key=lambda e: e.rate)
        assert [e.bending - coarse_best.bending for e in fine] \
            == pytest.approx([-10.0, -5.0, 0.0, 5.0, 10.0])
        assert all(e.focal == GEO_FOCAL and e.dtheta == 0.0 for e in fine)

    def test_trace_bookkeeping(self, mixed_scenario):
        grids = SearchGrids(coarse_bending=(-30.0, -25.0),
                            coarse_focal=(GEO_FOCAL,),
                            coarse_dtheta=(math.radians(-0.5), 0.0, math.radians(0.5)),
                            fine_refine_factor=2, fine_span=1)
        outcome = coarse_to_fine_search(mixed_scenario, grids)
        assert isinstance(outcome, SearchOutcome)
        assert len(outcome.trace) == outcome.evaluations
        assert outcome.rejected_by_constraint \
            == sum(1 for e in outcome.trace if not e.feasible)
        feasible = [e for e in outcome.trace if e.feasible]
        assert all(e.h11_power >= outcome.threshold for e in feasible)
        assert outcome.best_rate == max(e.rate for e in feasible)

    def test_search_is_deterministic(self, mixed_scenario):
        grids = SearchGrids(coarse_bending=(-30.0, -25.0),
                            coarse_focal=(GEO_FOCAL,),
                            coarse_dtheta=(0.0, math.radians(0.5)),
                            fine_refine_factor=2, fine_span=1)
        a = coarse_to_fine_search(mixed_scenario, grids)
        b = coarse_to_fine_search(mixed_scenario, grids)
        c = coarse_to_fine_search(mixed_scenario, grids)
        assert a == b
        assert a == c

    def test_infeasible_threshold_raises(self, mixed_scenario):
        """A hopeless single candidate (strong bend, short focal, steered
        away from the user) cannot reach 99.9% of the geometric gain."""
        grids = singleton_grids(bending=-60.0, focal=1.0,
                                dtheta=math.radians(5.0))
        with pytest.raises(InfeasibleSearchError) as info:
            coarse_to_fine_search(mixed_scenario, grids, eta=0.999)
        assert info.value.max_h11_power < info.value.threshold

    @pytest.mark.parametrize("eta", [0.0, 1.0, -0.5, 2.0])
    def test_eta_bounds(self, mixed_scenario, eta):
        with pytest.raises(ConfigError, match="eta"):
            coarse_to_fine_search(mixed_scenario, singleton_grids(), eta=eta)

    def test_requires_obstacle(self, baseline_scenario):
        with pytest.raises(ConfigError, match="obstructed"):
            coarse_to_fine_search(baseline_scenario, singleton_grids())


class TestComplexityEstimate:
    def test_default_grids(self, grid_std):
        cost = complexity_estimate(default_search_grids(), grid_std)
        assert cost == (1617 + 11 ** 3) * 4096 * 12

    def test_all_singleton_axes_have_no_fine_stage(self, grid_std):
        assert complexity_estimate(singleton_grids(), grid_std) == 1 * 4096 * 12

    def test_one_refinable_axis(self, grid_std):
        grids = SearchGrids(coarse_bending=(-30.0, -25.0),
                            coarse_focal=(GEO_FOCAL,), coarse_dtheta=(0.0,),
                            fine_refine_factor=2, fine_span=1)
        assert complexity_estimate(grids, grid_std) == (2 + 5) * 4096 * 12
