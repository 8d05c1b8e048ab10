"""Constrained coarse-to-fine search over the cubic-beam parameter triple.

Real searches here run on deliberately tiny grids: the structural
guarantees (ordering, determinism, constraint bookkeeping, fine-stage
arithmetic) are grid-size independent, and the full published-size run is
exercised once in the experiments layer.
"""

import math
import re
import types
from dataclasses import replace

import numpy as np
import pytest

from airylink import (
    AiryParams,
    ConfigError,
    InfeasibleSearchError,
    SearchGrids,
    SearchOutcome,
    coarse_to_fine_search,
    default_search_grids,
    geometric_baseline_params,
    traditional_focus,
)
import airylink.beams as beams
import airylink.optimizer as optimizer
import airylink.precoding as precoding
from airylink.errors import AirylinkError, SingularChannelError
from airylink.geometry import geometric_angle
from airylink.optimizer import _CHUNK, GEO_BENDING, GEO_FOCAL, SearchTrace
from airylink.precoding import batch_metrics, batch_sum_rates

from batch_of_one import beam_column, evaluate_candidate, metrics_of_one


@pytest.fixture(scope="module")
def fixed_h2(mixed_scenario):
    w2 = traditional_focus(mixed_scenario.array, mixed_scenario.carrier,
                           mixed_scenario.users[1])
    return beam_column(mixed_scenario, w2)


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

    @pytest.mark.parametrize("focal", [(0.0, 1.0), (-1.0,), (1.0, math.nan)])
    def test_nonpositive_coarse_focal_rejected(self, focal):
        with pytest.raises(ConfigError, match="focal length must be positive"):
            SearchGrids(coarse_bending=(-25.0,), coarse_focal=focal,
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
    def test_requires_two_users(self, mixed_scenario):
        """A design is scored against the bright user's beam, so the search
        refuses any other user count before it scores one."""
        solo = mixed_scenario.with_users((mixed_scenario.users[0],))
        with pytest.raises(ConfigError, match="2 users"):
            coarse_to_fine_search(solo, singleton_grids())

    def test_h11_matches_direct_beam_column(self, mixed_scenario):
        from airylink import airy_weights

        params = geometric_baseline_params(mixed_scenario)
        _, h11_power = evaluate_candidate(mixed_scenario, params)
        w1 = airy_weights(mixed_scenario.array, mixed_scenario.carrier, params)
        expected = abs(beam_column(mixed_scenario, w1)[0]) ** 2
        assert h11_power == expected

    def test_matches_manual_pipeline(self, mixed_scenario, fixed_h2):
        """The candidate score is exactly what the full codebook pipeline
        computes for the same pair of beams, bit for bit."""
        from airylink import airy_weights

        params = geometric_baseline_params(mixed_scenario)
        rate, _ = evaluate_candidate(mixed_scenario, params)

        w1 = airy_weights(mixed_scenario.array, mixed_scenario.carrier, params)
        w2 = traditional_focus(mixed_scenario.array, mixed_scenario.carrier,
                               mixed_scenario.users[1])
        h1 = beam_column(mixed_scenario, w1)
        h_eff = np.column_stack([h1, fixed_h2])
        w_rf = np.column_stack([w1, w2])
        manual = metrics_of_one(h_eff, w_rf, mixed_scenario.tx_power,
                                mixed_scenario.rzf_epsilon,
                                mixed_scenario.noise_power)["sum_rate"]
        assert rate == manual


class TestCoarseToFineSearch:
    def test_singleton_grids_return_the_geo_point(self, mixed_scenario):
        outcome = coarse_to_fine_search(mixed_scenario, singleton_grids())
        assert outcome.evaluations == 1  # fine stage skipped entirely
        assert len(outcome.trace) == 1
        assert outcome.trace.stage[0] == "coarse"
        assert outcome.best_params == geometric_baseline_params(mixed_scenario)
        rate, _ = evaluate_candidate(mixed_scenario,
                                     geometric_baseline_params(mixed_scenario))
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
        t = outcome.trace
        fine = t.stage == "fine"
        assert len(t.bending[fine]) == 5
        coarse = (t.stage == "coarse") & t.feasible
        coarse_best = t.bending[coarse][np.argmax(t.rate[coarse])]
        assert list(t.bending[fine] - coarse_best) \
            == pytest.approx([-10.0, -5.0, 0.0, 5.0, 10.0])
        assert all((t.focal[fine] == GEO_FOCAL) & (t.dtheta[fine] == 0.0))

    def test_trace_bookkeeping(self, mixed_scenario):
        grids = SearchGrids(coarse_bending=(-30.0, -25.0),
                            coarse_focal=(GEO_FOCAL,),
                            coarse_dtheta=(math.radians(-0.5), 0.0, math.radians(0.5)),
                            fine_refine_factor=2, fine_span=1)
        outcome = coarse_to_fine_search(mixed_scenario, grids)
        assert isinstance(outcome, SearchOutcome)
        t = outcome.trace
        assert len(t) == outcome.evaluations
        assert outcome.rejected_by_constraint \
            == sum(1 for f in t.feasible if not f)
        feasible = t.feasible
        assert all(t.h11_power[feasible] >= outcome.threshold)
        assert outcome.best_rate == max(t.rate[feasible])

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


def counted_rows(monkeypatch) -> list:
    """Patch the search's chunk scorer to record how many candidate rows
    each call scores."""
    rows = []
    score = optimizer._score_beams

    def counted(scenario, h_phys, designs, *args):
        rows.append(len(designs[0]))
        return score(scenario, h_phys, designs, *args)

    monkeypatch.setattr(optimizer, "_score_beams", counted)
    return rows


class TestSearchBoxCheckedUpFront:
    def test_coarse_launch_angle_past_90_degrees(self, mixed_scenario, monkeypatch):
        theta_geo = geometric_angle(mixed_scenario.users[0])
        rows = counted_rows(monkeypatch)
        grids = SearchGrids(coarse_bending=(GEO_BENDING,), coarse_focal=(GEO_FOCAL,),
                            coarse_dtheta=(0.0, math.pi / 2 - theta_geo + 0.01))
        with pytest.raises(ConfigError, match="launch angle"):
            coarse_to_fine_search(mixed_scenario, grids)
        assert rows == []

    def test_fine_focal_axis_below_zero(self, mixed_scenario, monkeypatch):
        """Either coarse focal wins; 3 coarse steps below it is <= 0 m."""
        rows = counted_rows(monkeypatch)
        grids = SearchGrids(coarse_bending=(GEO_BENDING,), coarse_focal=(1.0, 1.5),
                            coarse_dtheta=(0.0,), fine_span=3)
        with pytest.raises(ConfigError, match="focal length must be positive"):
            coarse_to_fine_search(mixed_scenario, grids)
        assert sum(rows) == 1 + 2  # the geometric design and the coarse grid

    def test_fine_angle_axis_past_90_degrees(self, mixed_scenario, monkeypatch):
        """Whichever coarse angle wins, two coarse steps away lies beyond
        |theta| = pi/2 on one side."""
        theta_geo = geometric_angle(mixed_scenario.users[0])
        rows = counted_rows(monkeypatch)
        dtheta = (-math.pi / 2 - theta_geo + 0.1, 0.0, math.pi / 2 - theta_geo - 0.1)
        grids = SearchGrids(coarse_bending=(GEO_BENDING,), coarse_focal=(GEO_FOCAL,),
                            coarse_dtheta=dtheta, fine_span=2)
        with pytest.raises(ConfigError, match="launch angle"):
            coarse_to_fine_search(mixed_scenario, grids)
        assert sum(rows) == 1 + 3


class TestSearchSkipsAchievedPower:
    def test_one_frobenius_norm_per_chunk(self, mixed_scenario, monkeypatch):
        """Only the closed-form RZF's ||H||_F^2 of the 2 x 2 effective
        channels is taken per chunk; the realized power ||W_RF W_BB||_F^2,
        or any norm of a C x N x 2 product, is never computed."""
        calls, shapes = [], []
        frob = precoding._frobenius_sq

        def counted(m):
            calls.append(len(m))
            shapes.append(m.shape[1:])
            return frob(m)

        monkeypatch.setattr(precoding, "_frobenius_sq", counted)
        rows = counted_rows(monkeypatch)
        grids = SearchGrids(coarse_bending=(-30.0, -25.0, -20.0),
                            coarse_focal=(1.5, GEO_FOCAL),
                            coarse_dtheta=tuple(math.radians(0.25 * i) for i in range(-12, 13)),
                            fine_refine_factor=2, fine_span=1)
        outcome = coarse_to_fine_search(mixed_scenario, grids)
        coarse = 3 * 2 * 25
        assert outcome.evaluations == coarse + 5 * 5 * 5
        assert rows == [1, _CHUNK, coarse - _CHUNK, 125]
        assert calls == rows
        assert set(shapes) == {(2, 2)}


def recorded_chunks(monkeypatch, scenario, grids) -> list:
    """Run a search and keep the (h, w) batches it scores."""
    chunks = []

    def recording(h, w, *args):
        chunks.append((h, w))
        return batch_sum_rates(h, w, *args)

    monkeypatch.setattr(optimizer, "batch_sum_rates", recording)
    coarse_to_fine_search(scenario, grids)
    monkeypatch.undo()
    return chunks


def three_chunk_grids() -> SearchGrids:
    """150 coarse candidates (a full chunk and a partial one) and 125 fine
    ones."""
    return SearchGrids(coarse_bending=(-30.0, -25.0), coarse_focal=(1.5, GEO_FOCAL, 2.0),
                       coarse_dtheta=tuple(math.radians(0.2 * i) for i in range(-12, 13)),
                       fine_refine_factor=2, fine_span=1)


def raised(fn, *args) -> tuple:
    """(type, message, sigma_min) of the SingularChannelError fn raises."""
    with pytest.raises(SingularChannelError) as info:
        fn(*args)
    return type(info.value), str(info.value), info.value.sigma_min


class TestScoreChunkH11Exact:
    def test_h11_power_bit_for_bit(self, mixed_scenario):
        """|h11|^2 stays the per-candidate abs(h) ** 2 of a scalar, which
        array forms (np.abs(h) ** 2, np.hypot(re, im) ** 2) may round
        differently; checked for all 128 designs of the first default chunk."""
        scale = 0.7 - 0.7j
        theta_geo = geometric_angle(mixed_scenario.users[0])
        grids = default_search_grids()
        designs = [(b, f, theta_geo + dt) for b in grids.coarse_bending
                   for f in grids.coarse_focal for dt in grids.coarse_dtheta][:_CHUNK]
        h_phys = optimizer.diffraction_channel(mixed_scenario)
        w2, h2 = optimizer._bright_beam(mixed_scenario, h_phys, scale)
        _, h11_power = optimizer._score_chunk(mixed_scenario, h_phys, tuple(zip(*designs)),
                                              w2, h2, scale)
        from airylink import airy_weights

        expected = [abs(beam_column(mixed_scenario, airy_weights(
            mixed_scenario.array, mixed_scenario.carrier, AiryParams(*d)),
            scale)[0]) ** 2 for d in designs]
        assert len(expected) == _CHUNK
        assert h11_power.tobytes() == np.array(expected).tobytes()


class TestRatePath:
    @pytest.mark.parametrize("epsilon", [1e-10, 0.0])
    def test_rates_match_batch_metrics_bit_for_bit(self, mixed_scenario, monkeypatch,
                                                   epsilon):
        scenario = replace(mixed_scenario, rzf_epsilon=epsilon)
        chunks = recorded_chunks(monkeypatch, scenario, three_chunk_grids())
        assert [len(h) for h, _ in chunks] == [1, _CHUNK, 150 - _CHUNK, 125]
        link = (scenario.tx_power, epsilon, scenario.noise_power)
        for h, w in chunks:
            rates = batch_sum_rates(h, w, *link)
            assert rates.tobytes() == batch_metrics(h, w, *link)[0]["sum_rate"].tobytes()

    def test_singular_candidate_raises_the_same_error(self, mixed_scenario, monkeypatch):
        """At epsilon = 0 a rank-one candidate in a real chunk is refused by
        both paths with the same message and sigma_min."""
        h, w = recorded_chunks(monkeypatch, mixed_scenario, three_chunk_grids())[1]
        h = h.copy()
        h[40, :, 1] = h[40, :, 0]
        link = (mixed_scenario.tx_power, 0.0, mixed_scenario.noise_power)
        expected = raised(batch_metrics, h, w, *link)
        assert raised(batch_sum_rates, h, w, *link) == expected
        assert "singular" in expected[1]

    def test_zero_precoder_raises_the_same_error(self, mixed_scenario, monkeypatch):
        """With epsilon > 0 an all-zero analog matrix leaves nothing to
        normalize; the rate path takes the SVD to report the same sigma_min."""
        h, w = recorded_chunks(monkeypatch, mixed_scenario, three_chunk_grids())[1]
        w = w.copy()
        w[7] = 0.0
        link = (mixed_scenario.tx_power, mixed_scenario.rzf_epsilon,
                mixed_scenario.noise_power)
        expected = raised(batch_metrics, h, w, *link)
        assert raised(batch_sum_rates, h, w, *link) == expected
        assert expected[2] > 0.0 and "normalize" in expected[1]

    @pytest.mark.parametrize("epsilon, svd_calls", [(1e-10, []), (0.0, [1, _CHUNK, 22, 125])])
    def test_svd_only_for_the_zero_forcing_guard(self, mixed_scenario, monkeypatch,
                                                 epsilon, svd_calls):
        """A default-epsilon search takes no SVD; at epsilon = 0 it takes one
        per chunk (the geometric design's chunk of one included)."""
        scenario = replace(mixed_scenario, rzf_epsilon=epsilon)
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        outcome = coarse_to_fine_search(scenario, three_chunk_grids())
        assert outcome.evaluations == 150 + 125
        assert calls == svd_calls


class TestStageTables:
    """The search gathers each chunk's weights from phase tables built once
    per stage from the grid axes."""

    def test_one_sine_per_launch_angle_per_stage(self, mixed_scenario, monkeypatch):
        """21 coarse angles, 11 fine ones and the geometric design's: one
        math.sin each, not one per candidate."""
        sines = []
        counted = types.SimpleNamespace(**{name: getattr(math, name) for name in dir(math)
                                           if not name.startswith("_")})
        counted.sin = lambda x: sines.append(x) or math.sin(x)
        monkeypatch.setattr(beams, "math", counted)
        outcome = coarse_to_fine_search(mixed_scenario, default_search_grids())
        assert outcome.evaluations == 11 * 7 * 21 + 11**3
        assert len(sines) == 1 + 21 + 11

    def test_chunk_rows_match_airy_weight_rows(self, mixed_scenario, monkeypatch):
        """Every chunk's gathered rows have the bits of airy_weight_rows on
        the chunk's own (bending, focal, launch angle) columns."""
        chunks = []
        score = optimizer._score_beams

        def recording(scenario, h_phys, designs, w1, *args):
            chunks.append((designs, w1))
            return score(scenario, h_phys, designs, w1, *args)

        monkeypatch.setattr(optimizer, "_score_beams", recording)
        outcome = coarse_to_fine_search(mixed_scenario, default_search_grids())
        # The geometric design's chunk of one, then the two stages.
        assert sum(len(w1) for _, w1 in chunks) == 1 + outcome.evaluations
        assert len(chunks) == 1 + math.ceil(11 * 7 * 21 / _CHUNK) + math.ceil(11**3 / _CHUNK)
        for designs, w1 in chunks:
            expected = beams.airy_weight_rows(mixed_scenario.array, mixed_scenario.carrier,
                                              *designs)
            assert w1.tobytes() == expected.tobytes()


class TestNaNRate:
    def test_error_names_the_design_in_plain_floats(self, mixed_scenario):
        """A NaN channel row makes every rate NaN; the error names the
        first design as Python floats, not numpy reprs."""
        h_phys = optimizer.diffraction_channel(mixed_scenario).copy()
        h_phys[1] = np.nan
        w2, h2 = optimizer._bright_beam(mixed_scenario, h_phys, 1.0)
        designs = (np.array([-30.0, -25.0]), np.array([1.5, 1.75]), np.array([0.125, 0.25]))
        with pytest.raises(AirylinkError) as info, np.errstate(invalid="ignore"):
            optimizer._score_chunk(mixed_scenario, h_phys, designs, w2, h2, 1.0)
        assert str(info.value) == ("candidate (bending, focal, launch angle) = "
                                   "(-30.0, 1.5, 0.125) produced a NaN sum rate")


def stub_scorer(monkeypatch, rate_of, h11_of):
    """Replace the chunk scorer by one that scores each design (bending,
    focal, launch angle) with rate_of and h11_of."""

    def scored(scenario, h_phys, designs, w1, w2, h2, scale):
        rows = list(zip(*designs))
        return (np.array([rate_of(*d) for d in rows], dtype=float),
                np.array([h11_of(*d) for d in rows], dtype=float))

    monkeypatch.setattr(optimizer, "_score_beams", scored)


class TestReduction:
    def test_tied_rates_pick_the_first_in_loop_order(self, mixed_scenario, monkeypatch):
        """Bending -35 scores highest but misses the gain floor; -30 and -20
        tie at the feasible maximum, in chunks 2 and 4 of the coarse stage
        and again in the fine stage. The first in loop order wins."""
        theta_geo = geometric_angle(mixed_scenario.users[0])
        rates = {-35.0: 3.0, -30.0: 2.0, -20.0: 2.0}
        stub_scorer(monkeypatch, lambda b, f, a: rates.get(b, 1.0),
                    lambda b, f, a: 0.0 if b == -35.0 else 1.0)
        dtheta = tuple(math.radians(0.05 * i) for i in range(-35, 35))
        grids = SearchGrids(coarse_bending=(-35.0, -30.0, -25.0, -20.0),
                            coarse_focal=(1.5, GEO_FOCAL), coarse_dtheta=dtheta,
                            fine_refine_factor=2, fine_span=1)
        outcome = coarse_to_fine_search(mixed_scenario, grids)
        assert outcome.best_params == AiryParams(-30.0, 1.5, theta_geo + dtheta[0])
        assert outcome.best_rate == 2.0
        t = outcome.trace
        assert np.count_nonzero(t.rate == 2.0) > 1
        assert outcome.rejected_by_constraint == np.count_nonzero(t.bending == -35.0)

    def test_all_infeasible_coarse_stage(self, mixed_scenario, monkeypatch):
        """The error names the largest coarse |h11|^2 and eta times the
        geometric design's gain."""
        powers = {-30.0: 0.375, -25.0: 2.0, -20.0: 0.25}
        stub_scorer(monkeypatch, lambda b, f, a: 1.0, lambda b, f, a: powers[b])
        grids = SearchGrids(coarse_bending=(-30.0, -20.0), coarse_focal=(GEO_FOCAL,),
                            coarse_dtheta=(0.0,))
        message = "max |h11|^2 = 3.750000e-01 < threshold 8.000000e-01"
        with pytest.raises(InfeasibleSearchError, match=re.escape(message)) as info:
            coarse_to_fine_search(mixed_scenario, grids, eta=0.4)
        assert info.value.max_h11_power == 0.375
        assert info.value.threshold == 0.4 * 2.0


class TestSearchTrace:
    def columns(self, **changes) -> dict:
        base = dict(bending=[-30.0, -25.0], focal=[1.5, 1.75], dtheta=[0.0, 0.01],
                    h11_power=[1e-7, 2e-7], rate=[1.5, 2.5], feasible=[False, True],
                    stage=["coarse", "fine"])
        return {**base, **changes}

    def test_compares_by_value(self):
        a = SearchTrace(**self.columns())
        assert a == SearchTrace(**self.columns())
        assert a == SearchTrace(**self.columns(bending=(-30, -25)))
        assert a != SearchTrace(**self.columns(rate=[1.5, 2.75]))
        assert a != SearchTrace(**self.columns(stage=["coarse", "coarse"]))
        assert a != SearchTrace(**self.columns(feasible=[True, True]))
        assert a != "not a trace"

    def test_columns_are_read_only_arrays(self):
        t = SearchTrace(**self.columns())
        assert len(t) == 2
        assert t.feasible.dtype == bool and t.stage.tolist() == ["coarse", "fine"]
        with pytest.raises(ValueError):
            t.rate[0] = 0.0

    def test_columns_must_have_one_length(self):
        from airylink import AirylinkError

        with pytest.raises(AirylinkError, match="length"):
            SearchTrace(**self.columns(rate=[1.0]))

