"""End-to-end experiment drivers.

The heavy runs (shadow scan, full mixed-scenario search, robustness sweep)
are session fixtures shared with the acceptance tests; assertions here pin
their structure and the frozen landmark values.
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import airylink.beams
import airylink.experiments
import airylink.propagation
from airylink import (
    AiryParams,
    AirylinkError,
    ConfigError,
    GridError,
    SingularChannelError,
    SweepResult,
    UserPosition,
    airy_weights,
    build_codebook,
    diffraction_channel,
    effective_channel,
    greens_channel,
    intensity_map,
    launch_aperture,
    load_scenario,
    remark1_calibration,
    run_baseline_scan,
    run_fieldmap,
    run_mixed_optimization,
    run_robustness_sweep,
    run_shadow_scan,
)
from airylink.beams import DESIGNS
from airylink.geometry import geometric_angle

from batch_of_one import (baseline_points, beam_of_one, design_params, evaluate_candidate,
                          focus_row, jittered, metrics_of_one, robustness_points,
                          shadow_points)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestSweepResult:
    def test_series_and_values(self, shadow_sweep):
        values = shadow_sweep.values
        sinr = shadow_sweep.series("airy_geo", "common_sinr_db")
        assert values.shape == sinr.shape
        assert np.all(np.diff(values) > 0)

    def test_unsorted_points_rejected(self):
        with pytest.raises(AirylinkError, match="sorted"):
            SweepResult(sweep_variable="x", strategies=("a",), values=[1.0, 0.0],
                        metrics={"sum_rate": np.ones(2)})

    def test_wrong_length_columns_rejected(self):
        """Every column holds one row per (value, strategy) pair."""
        with pytest.raises(AirylinkError, match="'sum_rate' has 3 rows, want 4"):
            SweepResult(sweep_variable="x", strategies=("a", "b"), values=[0.0, 1.0],
                        metrics={"singular": np.zeros(4, dtype=bool), "sum_rate": np.ones(3)})


class TestBaselineScan:
    def test_rejects_obstacle(self, shadow_scenario):
        with pytest.raises(ConfigError, match="free-space"):
            run_baseline_scan(shadow_scenario)

    def test_rejects_wrong_user_count(self, baseline_scenario):
        solo = baseline_scenario.with_users((baseline_scenario.users[0],))
        with pytest.raises(ConfigError, match="2 users"):
            run_baseline_scan(solo)

    def test_step_must_divide_range(self, baseline_scenario):
        with pytest.raises(ConfigError, match="evenly divide"):
            run_baseline_scan(baseline_scenario, step_lambda=0.7)

    def test_conditioning_peaks_at_angle_alignment(self, baseline_scenario):
        """UE-1 sits at (-5 lam, 250 lam); sliding UE-2 through -6 lam at
        depth 300 lam aligns the two geometric angles and the closed-form
        channel loses rank: kappa spikes and the common SINR craters there."""
        sweep = run_baseline_scan(baseline_scenario)
        assert sweep.sweep_variable == "x2_lambda"
        assert sweep.strategies == ("trad_all",)
        values = sweep.values
        assert values[0] == -15.0 and values[-1] == 10.0 and len(values) == 51
        kappa = sweep.series("trad_all", "condition_number")
        sinr = sweep.series("trad_all", "common_sinr_db")
        assert values[np.argmax(kappa)] == -6.0
        assert values[np.argmin(sinr)] == -6.0
        # far from alignment the channel is benign
        assert kappa[values == 10.0][0] == pytest.approx(1.478, rel=1e-2)
        assert np.all(kappa >= 1.0)


class TestShadowScan:
    def test_structure(self, shadow_sweep):
        assert shadow_sweep.sweep_variable == "x2_lambda"
        assert shadow_sweep.strategies == ("trad_all", "airy_geo")
        values = shadow_sweep.values
        assert len(values) == 29
        assert values[0] == -15.0 and values[-1] == -1.0

    def test_traditional_partially_recovers_near_the_edge(self, shadow_sweep):
        """Approaching the shadow boundary (x2 = -1 lam) edge diffraction
        leaks enough field for the traditional codebook to climb off its
        deep-shadow floor, and the curved-beam advantage narrows."""
        values = shadow_sweep.values
        trad = shadow_sweep.series("trad_all", "common_sinr_db")
        airy = shadow_sweep.series("airy_geo", "common_sinr_db")
        at_edge = values == -1.0
        assert trad[at_edge][0] > trad.min() + 3.0
        gap = airy - trad
        assert gap[at_edge][0] < gap.max() - 3.0


    def test_no_cache_outlives_a_call(self, shadow_scenario, monkeypatch):
        """Two scans in one process cost the same FFTs: two one-leg
        calibration rows, the fixed user's two-leg row once, and one
        two-leg row per point for the moving user."""
        calls = []
        fft = np.fft.fft

        def counted(*args, **kwargs):
            calls.append(1)
            return fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted)
        counts = []
        for _ in range(2):
            calls.clear()
            sweep = run_shadow_scan(shadow_scenario, step_lambda=3.5)
            counts.append(len(calls))
        assert counts == [2 + 2 + 2 * len(sweep.values)] * 2


class TestMixedOptimization:
    def test_search_structure(self, mixed_opt_result):
        search = mixed_opt_result.search
        assert search.evaluations == 1617 + 11 ** 3
        assert len(search.trace) == search.evaluations
        feasible = search.trace.feasible
        assert search.best_rate == max(search.trace.rate[feasible])

    def test_winner_frozen(self, mixed_scenario, mixed_opt_result):
        best = mixed_opt_result.search.best_params
        assert best.bending == -5.0
        assert best.focal == pytest.approx(2.05, abs=1e-12)
        dtheta = best.launch_angle - geometric_angle(mixed_scenario.users[0])
        assert math.degrees(dtheta) == pytest.approx(1.3, abs=1e-9)

    def test_winner_beats_the_in_grid_geometric_design(self, mixed_opt_result):
        # (B=-25, F=1.75, dtheta=0) is itself a coarse grid point, so the
        # constrained maximum can never fall below it
        t = mixed_opt_result.search.trace
        geo_entries = t.rate[(t.stage == "coarse") & (t.bending == -25.0)
                             & (t.focal == 1.75) & (t.dtheta == 0.0)]
        assert len(geo_entries) == 1
        assert mixed_opt_result.search.best_rate >= geo_entries[0]
        assert geo_entries[0] == pytest.approx(1.7475, rel=1e-3)

    def test_calibration_carried_through(self, mixed_scenario, mixed_opt_result):
        from airylink import remark1_calibration

        c, residual = remark1_calibration(mixed_scenario)
        assert mixed_opt_result.search.calibration_scale == c
        assert mixed_opt_result.search.calibration_residual == residual
        assert abs(c) == pytest.approx(1.0, abs=0.05)
        assert residual < 0.02

    def test_angle_sweep_structure(self, mixed_opt_result):
        sweep = mixed_opt_result.dtheta_sweep
        assert sweep.sweep_variable == "dtheta_deg"
        assert sweep.strategies == ("airy_best_bf",)
        values = sweep.values
        assert len(values) == 101
        assert values[0] == -5.0 and values[-1] == 5.0

    def test_angle_sweep_spans_the_winner(self):
        """On the deep-shadow scenario the winner's offset, +5.5 degrees,
        lies past the coarse range. The sweep goes on in whole steps,
        lo + i * step, until it reaches it, and its row there scores the
        search's rate."""
        scenario = load_scenario(str(CONFIGS / "deep_shadow.cfg"))
        result = run_mixed_optimization(scenario)
        best = result.search.best_params.launch_angle - geometric_angle(scenario.users[0])
        assert math.degrees(best) == pytest.approx(5.5, abs=1e-9)
        values = result.dtheta_sweep.values
        assert values.tolist() == [-5.0 + i * 0.1 for i in range(106)]
        (at_best,) = np.flatnonzero(np.abs(values - math.degrees(best)) < 1e-9)
        rate = result.dtheta_sweep.series("airy_best_bf", "sum_rate")[at_best]
        assert rate == pytest.approx(result.search.best_rate, rel=1e-9, abs=0)

    def test_conditioning_dip_coincides_with_rate_peak(self, mixed_opt_result):
        """The angle sweep's kappa minimum and sum-rate maximum land within
        one degree of each other (measured 0.9 deg apart on this grid)."""
        sweep = mixed_opt_result.dtheta_sweep
        values = sweep.values
        kappa = sweep.series("airy_best_bf", "condition_number")
        rate = sweep.series("airy_best_bf", "sum_rate")
        assert abs(values[np.argmin(kappa)] - values[np.argmax(rate)]) <= 1.0

    def test_field_cut_geometry(self, mixed_scenario, mixed_opt_result):
        cut = mixed_opt_result.field_cut
        assert cut.cut_depth == mixed_scenario.users[1].z
        assert cut.xs.shape == cut.db_reference.shape == cut.db_tuned.shape
        # shared normalization: the brighter profile peaks at exactly 0 dB
        assert max(cut.db_reference.max(), cut.db_tuned.max()) == 0.0
        assert cut.peak > 0.0

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the geometric beam measures -4.2 dB at the shadowed user and "
               "-2.3 dB at the bright user on this geometry, nowhere near a "
               "-32 / -8.6 dB deep-shadow split: the shadowed user sits in "
               "penumbra (knife-edge nu from -0.58 to 1.67 across the "
               "aperture), and the cut reads its x at the bright user's depth")
    def test_geometric_beam_levels_at_the_two_users(self, mixed_scenario,
                                                    mixed_opt_result):
        cut = mixed_opt_result.field_cut
        at_ue1 = float(np.interp(mixed_scenario.users[0].x, cut.xs,
                                 cut.db_reference))
        at_ue2 = float(np.interp(mixed_scenario.users[1].x, cut.xs,
                                 cut.db_reference))
        assert at_ue1 == pytest.approx(-32.0, abs=3.0)
        assert at_ue2 == pytest.approx(-8.6, abs=3.0)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the reference tuned triple (B=-44, F=1.50 m, dtheta=-2.9 deg) "
               "scores 0.14 bits/s/Hz here versus 1.75 for the geometric "
               "design -- far from strictly greater; on this penumbral "
               "geometry it keeps 3.5% of the geometric |h11|^2, below the "
               "search's 40% floor (3.1% on the knife-edge oracle)")
    def test_published_design_beats_geometric(self, mixed_scenario,
                                              mixed_opt_result):
        scale = mixed_opt_result.search.calibration_scale
        rate_pub, _ = evaluate_candidate(
            mixed_scenario, design_params("airy_opt", mixed_scenario.users[0]), scale)
        rate_geo, _ = evaluate_candidate(
            mixed_scenario, design_params("airy_geo", mixed_scenario.users[0]), scale)
        assert rate_pub > rate_geo


class TestRobustnessSweep:
    def test_structure(self, robustness_result):
        assert robustness_result.sweep_variable == "dx2_lambda"
        assert robustness_result.strategies == ("trad_all", "airy_geo", "airy_opt")
        values = robustness_result.values
        assert len(values) == 25
        assert values[0] == -3.0 and values[-1] == 3.0 and 0.0 in values

    def test_zero_displacement_reproduces_nominal_metrics(self, mixed_scenario,
                                                          robustness_result):
        scale, _ = remark1_calibration(mixed_scenario)
        book = build_codebook(mixed_scenario, "airy_geo")
        h_eff = effective_channel(scale * diffraction_channel(mixed_scenario), book)
        nominal = per_point_record(mixed_scenario, h_eff, book)

        i = list(robustness_result.values).index(0.0)
        at_zero = {name: robustness_result.series("airy_geo", name)[i] for name in nominal}
        assert at_zero["sum_rate"] == nominal["sum_rate"]
        assert at_zero["condition_number"] == nominal["condition_number"]
        assert at_zero["common_sinr_db"] == nominal["common_sinr_db"]

    def test_power_and_conditioning_invariants(self, robustness_result):
        for strategy in robustness_result.strategies:
            kappa = robustness_result.series(strategy, "condition_number")
            assert np.all(kappa >= 1.0)

    def test_reference_design_is_frozen(self):
        assert DESIGNS["airy_opt"] == (-44.0, 1.50, -2.9)


class TestFieldmap:
    def test_unknown_strategy(self, mixed_scenario):
        with pytest.raises(ConfigError, match="strategy"):
            run_fieldmap(mixed_scenario, "phased_array")

    def test_beam_index_out_of_range(self, mixed_scenario):
        with pytest.raises(ConfigError, match="index"):
            run_fieldmap(mixed_scenario, "trad_all", beam_index=2)

    def test_row_per_depth(self, mixed_scenario, lam):
        m = run_fieldmap(mixed_scenario, "airy_geo", beam_index=0,
                         depth_start_lambda=10.0, depth_stop_lambda=400.0,
                         depth_step_lambda=39.0)
        assert m.db.shape == (11, mixed_scenario.grid.nx)
        assert m.depths[0] == pytest.approx(10 * lam)
        assert m.depths[-1] == pytest.approx(400 * lam)

    def test_free_space_map_matches_manual(self, mixed_scenario, lam):
        m = run_fieldmap(mixed_scenario, "trad_all", beam_index=1,
                         depth_start_lambda=50.0, depth_stop_lambda=350.0,
                         depth_step_lambda=100.0, with_obstacle=False)
        book = build_codebook(mixed_scenario, "trad_all")
        launch = launch_aperture(book[:, 1], mixed_scenario.array,
                                 mixed_scenario.grid, lam)
        manual = intensity_map(launch, None,
                               [d * lam for d in (50.0, 150.0, 250.0, 350.0)],
                               lam)
        assert np.array_equal(m.db, manual.db)

    @pytest.mark.parametrize("strategy", ["airy_geo", "airy_opt"])
    def test_second_shadowed_user_maps_its_own_beam(self, strategy, lam):
        """Both users of the bundled shadow config are shadowed: beam 1 is
        user 1's own cubic beam, not a copy of user 0's, so its map is
        that beam's map and differs from beam 0's."""
        scenario = load_scenario(CONFIGS / "shadow.cfg")
        depths = dict(depth_start_lambda=200.0, depth_stop_lambda=300.0,
                      depth_step_lambda=50.0)
        maps = [run_fieldmap(scenario, strategy, beam_index=b, **depths).db for b in (0, 1)]
        own = beam_of_one(scenario, strategy, scenario.users[1])
        launch = launch_aperture(own, scenario.array, scenario.grid, lam)
        manual = intensity_map(launch, scenario.obstacle,
                               [d * lam for d in (200.0, 250.0, 300.0)], lam)
        assert maps[1].tobytes() == manual.db.tobytes()
        assert not np.array_equal(maps[0], maps[1])


def per_point_record(scenario, h_eff, w_rf) -> dict:
    """The metrics of one sweep point scored on its own, a batch of one."""
    return metrics_of_one(h_eff, w_rf, scenario.tx_power, scenario.rzf_epsilon,
                          scenario.noise_power)


def assert_same_records(sweep, expected):
    """expected[i][strategy] is the per-point metrics of sweep point i;
    every column must match them exactly, point by point."""
    assert len(sweep.values) == len(expected)
    for i, (value, want) in enumerate(zip(sweep.values, expected)):
        assert set(sweep.strategies) == set(want)
        for name in sweep.strategies:
            assert set(sweep.metrics) == set(want[name])
            for f, ref in want[name].items():
                got = sweep.series(name, f)[i]
                if isinstance(ref, np.ndarray):
                    assert np.array_equal(got, ref), (value, name, f)
                else:
                    assert got == ref, (value, name, f)


def moved_second_user(scenario, x):
    u1, u2 = scenario.users
    return scenario.with_users((u1, UserPosition(x=x, z=u2.z, label=u2.label)))


def count_calls(monkeypatch, owner, name, log, key=lambda *a, **k: 1):
    """Replace owner.name by a wrapper that appends key(args) to log."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        log.append(key(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def svd_shapes_outside_the_search(monkeypatch) -> list:
    """Count np.linalg.svd calls during a mixed optimization: the shape of
    each call's batch, or None for a call made inside the search."""
    in_search = []
    shapes = []
    search = airylink.experiments.coarse_to_fine_search

    def traced_search(*args, **kwargs):
        in_search.append(True)
        try:
            return search(*args, **kwargs)
        finally:
            in_search.pop()

    monkeypatch.setattr(airylink.experiments, "coarse_to_fine_search", traced_search)
    count_calls(monkeypatch, np.linalg, "svd", shapes,
                key=lambda a, *rest, **kw: None if in_search else np.shape(a))
    return shapes


class TestOneMetricsPath:
    """Every sweep scores all of its points in one batched pass; the
    records must equal those of each point scored alone, bit for bit."""

    def test_baseline_matches_per_point_scoring(self, baseline_scenario, lam):
        sweep = run_baseline_scan(baseline_scenario)
        expected = []
        for x in sweep.values:
            s = moved_second_user(baseline_scenario, x * lam)
            book = build_codebook(s, "trad_all")
            h_eff = effective_channel(greens_channel(s), book)
            expected.append({"trad_all": per_point_record(s, h_eff, book)})
        assert_same_records(sweep, expected)

    def test_shadow_matches_per_point_scoring(self, shadow_scenario, shadow_sweep, lam):
        scale, _ = remark1_calibration(shadow_scenario)
        expected = []
        for x in shadow_sweep.values:
            s = moved_second_user(shadow_scenario, x * lam)
            h_phys = scale * diffraction_channel(s)
            point = {}
            for name in ("trad_all", "airy_geo"):
                book = build_codebook(s, name)
                h_eff = effective_channel(h_phys, book)
                point[name] = per_point_record(s, h_eff, book)
            expected.append(point)
        assert_same_records(shadow_sweep, expected)

    def test_robustness_matches_per_point_scoring(self, mixed_scenario,
                                                  robustness_result, lam):
        scale, _ = remark1_calibration(mixed_scenario)
        books = {name: build_codebook(mixed_scenario, name)
                 for name in ("trad_all", "airy_geo", "airy_opt")}
        x2 = mixed_scenario.users[1].x
        expected = []
        for dx in robustness_result.values:
            s = moved_second_user(mixed_scenario, x2 + dx * lam)
            h_phys = scale * diffraction_channel(s)
            expected.append({
                name: per_point_record(s, effective_channel(h_phys, book), book)
                for name, book in books.items()
            })
        assert_same_records(robustness_result, expected)

    def test_angle_sweep_matches_per_point_scoring(self, mixed_scenario,
                                                   mixed_opt_result):
        scale = mixed_opt_result.search.calibration_scale
        best = mixed_opt_result.search.best_params
        theta_geo = geometric_angle(mixed_scenario.users[0])
        h_phys = scale * diffraction_channel(mixed_scenario)
        w2 = focus_row(mixed_scenario.array, mixed_scenario.carrier, mixed_scenario.users[1])
        expected = []
        for d in mixed_opt_result.dtheta_sweep.values:
            params = AiryParams(best.bending, best.focal,
                                theta_geo + math.radians(d))
            w1 = airy_weights(mixed_scenario.array, mixed_scenario.carrier, params)
            w_rf = np.column_stack([w1, w2])
            h_eff = effective_channel(h_phys, w_rf)
            expected.append({"airy_best_bf": per_point_record(mixed_scenario,
                                                              h_eff, w_rf)})
        assert_same_records(mixed_opt_result.dtheta_sweep, expected)

    @pytest.mark.parametrize("run, fixture", [
        (run_baseline_scan, "baseline_scenario"),
        (run_shadow_scan, "shadow_scenario"),
        (run_robustness_sweep, "mixed_scenario"),
    ])
    def test_one_svd_per_sweep(self, run, fixture, request, monkeypatch):
        """One SVD call scores the whole sweep: a batch of every (point x
        strategy) channel."""
        shapes = []
        count_calls(monkeypatch, np.linalg, "svd", shapes,
                    key=lambda a, *rest, **kw: np.shape(a))
        sweep = run(request.getfixturevalue(fixture))
        assert shapes == [(len(sweep.values) * len(sweep.strategies), 2, 2)]

    @pytest.mark.parametrize("run, fixture, step", [
        (run_baseline_scan, "baseline_scenario", 5.0),
        (run_shadow_scan, "shadow_scenario", 3.5),
        (run_robustness_sweep, "mixed_scenario", 1.5),
    ])
    def test_perturbed_achieved_power_fails_the_sweep(self, run, fixture, step,
                                                      request, monkeypatch):
        """The sweeps still compute ||W_RF W_BB||_F^2 and check it at every
        point: a 1e-6 error at the last point alone stops the sweep."""
        power = airylink.experiments.achieved_power

        def perturbed(w, w_bb):
            p = power(w, w_bb)
            p[-1] *= 1.0 + 1e-6
            return p

        monkeypatch.setattr(airylink.experiments, "achieved_power", perturbed)
        with pytest.raises(AirylinkError, match="power normalization"):
            run(request.getfixturevalue(fixture), step_lambda=step)

    @pytest.mark.parametrize("power_at, message", [
        (None, r"condition number 0\.5 < 1"),
        (-1, r"condition number 0\.5 < 1"),
        (2, "power normalization"),
    ])
    def test_first_failing_point_names_the_error(self, baseline_scenario, power_at,
                                                 message, monkeypatch):
        """The gate checks every point at once and raises for the first
        point that fails: points 2 and 4 carry kappa 0.5 and 0.25, so the
        error names point 2's; a power error at a later point does not mask
        it, and one at point 2 itself comes first."""
        scored, power = airylink.experiments.batch_metrics, airylink.experiments.achieved_power

        def disordered(*args):
            m, w_bb = scored(*args)
            m["condition_number"][[2, 4]] = (0.5, 0.25)
            return m, w_bb

        def perturbed(w, w_bb):
            p = power(w, w_bb)
            p[power_at] *= 1.0 + 1e-6
            return p

        monkeypatch.setattr(airylink.experiments, "batch_metrics", disordered)
        if power_at is not None:
            monkeypatch.setattr(airylink.experiments, "achieved_power", perturbed)
        with pytest.raises(AirylinkError, match=message):
            run_baseline_scan(baseline_scenario, step_lambda=5.0)

    def test_one_svd_for_the_angle_sweep(self, mixed_scenario, monkeypatch):
        """Outside the search, whose chunks make their own SVD calls at
        epsilon = 0 (the zero-forcing guard), the mixed optimization makes
        one: the whole angle sweep."""
        shapes = svd_shapes_outside_the_search(monkeypatch)
        result = run_mixed_optimization(replace(mixed_scenario, rzf_epsilon=0.0))
        outside = [shape for shape in shapes if shape is not None]
        assert len(shapes) > len(outside)
        assert outside == [(len(result.dtheta_sweep.values), 2, 2)]

    def test_angle_sweep_refuses_a_non_finite_channel(self, mixed_scenario, monkeypatch):
        """The batched angle-sweep channels get the channel finiteness
        check, once for the whole batch."""
        responses = airylink.experiments.beam_responses

        def one_nan(*args):
            out = responses(*args)
            out[len(out) // 2, 0] = complex(math.nan, 0.0)
            return out

        monkeypatch.setattr(airylink.experiments, "beam_responses", one_nan)
        with pytest.raises(AirylinkError, match="NaN or Inf"):
            run_mixed_optimization(mixed_scenario)

    def test_default_epsilon_search_takes_no_svd(self, mixed_scenario, monkeypatch):
        """At the default epsilon the search ranks rates without singular
        values, so the angle sweep's batch is the run's one SVD call."""
        shapes = svd_shapes_outside_the_search(monkeypatch)
        result = run_mixed_optimization(mixed_scenario)
        assert shapes == [(len(result.dtheta_sweep.values), 2, 2)]

    def test_mixed_optimization_builds_each_row_once(self, mixed_scenario,
                                                     monkeypatch):
        """Two calibration rows and the two rows of the obstructed channel,
        which the search and the angle sweep share."""
        calls = []
        count_calls(monkeypatch, airylink.propagation.Cascade, "transpose", calls)
        run_mixed_optimization(mixed_scenario)
        assert len(calls) == 4

    def test_mixed_optimization_builds_the_bright_beam_once(self, mixed_scenario,
                                                            monkeypatch):
        """The search builds the 'airy_geo' codebook once and hands it over
        (SearchOutcome.codebook): the angle sweep pairs every row with its
        bright-user column, and the field cut takes its geometric column as
        the reference. Counted in every airylink module that holds
        build_codebook or airy_weights: one 'airy_geo' codebook beside the
        calibration's 'trad_all' one, focusing rows for the calibration's
        two users and the codebook's bright user only, and one airy_weights
        call, the field cut's tuned beam."""
        codebooks, focus_rows, one_beams = [], [], []
        for name, module in list(sys.modules.items()):
            if not name.startswith("airylink"):
                continue
            if hasattr(module, "build_codebook"):
                count_calls(monkeypatch, module, "build_codebook", codebooks,
                            key=lambda scenario, strategy: strategy)
            if hasattr(module, "airy_weights"):
                count_calls(monkeypatch, module, "airy_weights", one_beams,
                            key=lambda array, carrier, params: params)
        count_calls(monkeypatch, airylink.beams, "traditional_focus_rows", focus_rows,
                    key=lambda array, carrier, x, z: len(x))
        result = run_mixed_optimization(mixed_scenario)
        assert codebooks == ["trad_all", "airy_geo"]
        assert focus_rows == [2, 1]
        assert one_beams == [result.search.best_params]
        monkeypatch.undo()
        w2 = focus_row(mixed_scenario.array, mixed_scenario.carrier, mixed_scenario.users[1])
        assert result.search.codebook[:, 1].tobytes() == w2.tobytes()

    def test_mixed_optimization_fits_the_calibration_once(self, mixed_scenario,
                                                          monkeypatch):
        """The search fits the calibration constant and the run reuses it
        (SearchOutcome.calibration_scale). Counted in every airylink module
        that holds remark1_calibration."""
        calls = []
        for name, module in list(sys.modules.items()):
            if name.startswith("airylink") and hasattr(module, "remark1_calibration"):
                count_calls(monkeypatch, module, "remark1_calibration", calls)
        run_mixed_optimization(mixed_scenario)
        assert len(calls) == 1

    def test_fixed_user_beams_built_once_per_sweep(self, shadow_scenario, baseline_scenario,
                                                   mixed_scenario, monkeypatch):
        """Whatever the number of points, a sweep builds the beams of the
        fixed user and of every moved user in one batched call per
        strategy, and makes no one-beam call. Logged per call:
        airy_weights (one beam), the row count of every
        traditional_focus_rows call and the launch-angle count of every
        airy_axis_rows call (each caller gathers one row per angle).
        Calibration builds two traditional beams in one call; the
        robustness sweep's beams stay at their nominal designs, one
        two-user codebook per strategy, whose mixed codebooks make one
        call per family."""
        calls = {name: [] for name in ("airy_weights", "traditional_focus_rows",
                                       "airy_axis_rows")}
        keys = {"traditional_focus_rows": lambda array, carrier, x, z: len(x),
                "airy_axis_rows": lambda array, carrier, b, f, angles: len(angles)}
        for name, log in calls.items():
            count_calls(monkeypatch, airylink.beams, name, log,
                        key=keys.get(name, lambda *a, **k: 1))

        def beam_calls(run, scenario, step):
            for log in calls.values():
                log.clear()
            n = len(run(scenario, step_lambda=step).values)
            return n, {name: sum(log) if not name.endswith("_rows") else list(log)
                       for name, log in calls.items()}

        for step in (3.5, 7.0):
            n, got = beam_calls(run_shadow_scan, shadow_scenario, step)
            assert got == {"airy_weights": 0, "traditional_focus_rows": [2, n + 1],
                           "airy_axis_rows": [n + 1]}
        for step in (5.0, 2.5):
            n, got = beam_calls(run_baseline_scan, baseline_scenario, step)
            assert got == {"airy_weights": 0, "traditional_focus_rows": [n + 1],
                           "airy_axis_rows": []}
        for step in (1.5, 0.75):
            n, got = beam_calls(run_robustness_sweep, mixed_scenario, step)
            assert got == {"airy_weights": 0, "traditional_focus_rows": [2, 2, 1, 1],
                           "airy_axis_rows": [1, 1]}

    def test_baseline_forms_only_the_responses_it_scores(self, monkeypatch):
        """The bundled baseline scan (51 points, one strategy) forms 4 beam
        responses per point, its 2 x 2 effective channel, and none of a row
        to another point's beam."""
        formed = []
        responses = airylink.experiments.beam_responses

        def counted(*args):
            out = responses(*args)
            formed.append(out.size)
            return out

        monkeypatch.setattr(airylink.experiments, "beam_responses", counted)
        result = run_baseline_scan(load_scenario(str(CONFIGS / "baseline.cfg")))
        assert len(result.values) == 51
        assert formed == [4 * 51]

    @pytest.mark.parametrize("run, fixture", [
        (run_baseline_scan, "baseline_scenario"),
        (run_shadow_scan, "shadow_scenario"),
    ])
    def test_zero_forcing_on_coinciding_users_raises(self, run, fixture,
                                                     request, lam):
        """With epsilon = 0, the scan point where user 2 passes user 1
        (moved to x = -5 lambda at user 2's depth) has a rank-one channel;
        the batch must still refuse it. Every other point of these scans
        has kappa below 4e3."""
        scenario = request.getfixturevalue(fixture)
        u1, u2 = scenario.users
        users = (UserPosition(-5.0 * lam, u2.z, u1.label), u2)
        singular = replace(scenario, users=users, rzf_epsilon=0.0)
        with pytest.raises(SingularChannelError):
            run(singular)


def scored_channels(monkeypatch, run, scenario, **kwargs) -> tuple:
    """(values, h_eff, w_rf) that one sweep hands to its scorer."""
    seen = []
    scored = airylink.experiments._scored_sweep

    def capture(scenario, variable, strategies, values, h_eff, w_rf):
        seen.append((values, h_eff, w_rf))
        return scored(scenario, variable, strategies, values, h_eff, w_rf)

    monkeypatch.setattr(airylink.experiments, "_scored_sweep", capture)
    run(scenario, **kwargs)
    (values, h_eff, w_rf), = seen
    return values, h_eff, w_rf


SWEEPS = [
    (run_baseline_scan, "baseline_scenario"),
    (run_shadow_scan, "shadow_scenario"),
    (run_robustness_sweep, "mixed_scenario"),
]
SWEEP_IDS = ["baseline", "shadow", "robustness"]


class TestStackedSweeps:
    """Each sweep builds its user rows, beams and effective channels as
    stacked arrays; what it scores must equal the per-point loop it
    replaced (tests/batch_of_one.py), bit for bit."""

    @pytest.mark.parametrize("jitter", [False, True], ids=["bundled", "jittered"])
    @pytest.mark.parametrize("run, fixture, reference, kwargs", [
        (run_baseline_scan, "baseline_scenario", baseline_points, {}),
        (run_shadow_scan, "shadow_scenario", shadow_points, {}),
        (run_robustness_sweep, "mixed_scenario", robustness_points, {}),
        # Over 256 KiB of user rows (502 x 64) and of beam responses
        # (114 x 228), the sizes at which numpy starts to reuse temporaries.
        (run_baseline_scan, "baseline_scenario", baseline_points, {"step_lambda": 0.05}),
        (run_shadow_scan, "shadow_scenario", shadow_points, {"step_lambda": 0.125}),
    ], ids=["baseline", "shadow", "robustness", "baseline-501", "shadow-113"])
    def test_matches_the_per_point_loop(self, run, fixture, reference, kwargs, jitter,
                                        request, monkeypatch, rng, lam):
        scenario = request.getfixturevalue(fixture)
        if jitter:
            scenario = jittered(scenario, rng, lam)
        values, h_eff, w_rf = scored_channels(monkeypatch, run, scenario, **kwargs)
        want_h, want_w = reference(scenario, values)
        got_h = np.ascontiguousarray(h_eff, dtype=complex)
        got_w = np.ascontiguousarray(w_rf, dtype=complex)
        assert got_h.shape == want_h.shape and got_w.shape == want_w.shape
        assert got_h.tobytes() == want_h.tobytes()
        assert got_w.tobytes() == want_w.tobytes()


class TestStackedSweepChecks:
    """Every check a sweep point got on its own still runs, on the whole
    stack at once."""

    @pytest.mark.parametrize("run, fixture", SWEEPS, ids=SWEEP_IDS)
    def test_non_finite_moved_user_rejected(self, run, fixture, request, monkeypatch):
        """Every moved user is a UserPosition, with its finiteness check."""
        monkeypatch.setattr(airylink.experiments, "_sweep_values",
                            lambda *args: [-1.0, 0.0, math.inf])
        with pytest.raises(ConfigError, match="UserPosition.x must be finite, got inf"):
            run(request.getfixturevalue(fixture))

    @pytest.mark.parametrize("run, fixture, builder", [
        (run_baseline_scan, "baseline_scenario", "greens_channel"),
        (run_shadow_scan, "shadow_scenario", "diffraction_channel"),
        (run_robustness_sweep, "mixed_scenario", "diffraction_channel"),
    ], ids=SWEEP_IDS)
    def test_nan_in_one_moved_row_refused(self, run, fixture, builder, request,
                                          monkeypatch):
        """A NaN in the third moved user's row, handed over without the
        channel builder's own check, is caught by the one finiteness check
        over the stacked effective channels."""
        real = getattr(airylink.experiments, builder)

        def with_nan(scenario):
            entries = real(scenario).copy()
            entries[3, 7] = complex(math.nan, 0.0)
            return entries

        monkeypatch.setattr(airylink.experiments, builder, with_nan)
        with pytest.raises(AirylinkError, match="NaN or Inf"):
            run(request.getfixturevalue(fixture), step_lambda=1.0)

    @pytest.mark.parametrize("run, fixture, kwargs", [
        (run_baseline_scan, "baseline_scenario", {"stop_lambda": 110.0, "step_lambda": 1.0}),
        (run_shadow_scan, "shadow_scenario", {"start_lambda": -110.0, "step_lambda": 1.0}),
        (run_robustness_sweep, "mixed_scenario", {"span_lambda": 110.0, "step_lambda": 110.0}),
    ], ids=SWEEP_IDS)
    def test_out_of_window_point_refused(self, run, fixture, kwargs, request):
        """A scan point beyond the grid's usable half-width (102.4
        wavelengths) stops the sweep with the scenario's message, on either
        channel model: the loader refuses the same user in a config."""
        with pytest.raises(GridError, match="user 'ue2' at x=.* lies in the absorbing border"):
            run(request.getfixturevalue(fixture), **kwargs)

    @pytest.mark.parametrize("factor, shown", [(1.0 + 1e-9, r"1\.00000000"), (math.nan, "nan")],
                             ids=["off", "nan"])
    @pytest.mark.parametrize("run, fixture, family", [
        (run_baseline_scan, "baseline_scenario", "traditional_focus_rows"),
        (run_shadow_scan, "shadow_scenario", "traditional_focus_rows"),
        (run_shadow_scan, "shadow_scenario", "airy_axis_rows"),
    ], ids=["baseline", "shadow-trad", "shadow-airy"])
    def test_batched_beam_norm_checked(self, run, fixture, family, factor, shown,
                                       request, monkeypatch):
        """One moved user's beam off unit norm stops the sweep with
        check_unit_norm's message. Only the sweeps' own codebooks hold more
        than two rows; airy_axis_rows returns a gather, whose rows are
        scaled."""
        real = getattr(airylink.beams, family)

        def scaled(rows):
            if len(rows) > 2:
                rows[2] *= factor
            return rows

        def off(*args):
            if family == "airy_axis_rows":
                gather = real(*args)
                return lambda *index: scaled(gather(*index))
            return scaled(real(*args))

        monkeypatch.setattr(airylink.beams, family, off)
        with pytest.raises(ConfigError, match=f"beam weights must have unit norm, got {shown}"):
            run(request.getfixturevalue(fixture), step_lambda=1.0)
