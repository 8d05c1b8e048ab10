"""Constrained coarse-to-fine search over the cubic-beam parameter triple.

Every search here runs on the one search box (optimizer.COARSE_AXES,
FINE_REFINE, FINE_SPAN): 1617 coarse and 1331 fine candidates, a few
milliseconds per search.
"""

import collections
import math
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from airylink import (
    AiryParams,
    ConfigError,
    KnifeEdgeObstacle,
    UserPosition,
    airy_weights,
    SearchOutcome,
    build_codebook,
    coarse_to_fine_search,
    diffraction_channel,
    load_scenario,
    remark1_calibration,
)
import airylink.beams as beams
import airylink.optimizer as optimizer
import airylink.precoding as precoding
from airylink.beams import DESIGNS
from airylink.channels import beam_responses
from airylink.errors import AirylinkError, SingularChannelError
from airylink.geometry import geometric_angle
from airylink.optimizer import (
    _CHUNK,
    COARSE_AXES,
    FINE_REFINE,
    FINE_SPAN,
    SearchTrace,
    _fine_axis,
)
from airylink.precoding import batch_metrics, batch_sum_rates

from batch_of_one import (beam_column, bright_beam, design_params, evaluate_candidate, focus_row,
                          metrics_of_one, score_designs)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Candidates per chunk of one default search: the coarse stage
# (1617 = 12 * 128 + 81), then the fine stage (1331 = 10 * 128 + 51).
CHUNK_ROWS = [_CHUNK] * 12 + [81] + [_CHUNK] * 10 + [51]


@pytest.fixture(scope="module")
def fixed_h2(mixed_scenario):
    w2 = focus_row(mixed_scenario.array, mixed_scenario.carrier, mixed_scenario.users[1])
    return beam_column(mixed_scenario, w2)


class TestSearchBox:
    def test_default_shape(self):
        bending, focal, dtheta = COARSE_AXES
        assert len(bending) == 11
        assert bending[0] == -60.0 and bending[-1] == -10.0
        assert len(focal) == 7
        assert focal[0] == 1.0 and focal[-1] == 2.5
        assert len(dtheta) == 21
        assert dtheta[0] == pytest.approx(math.radians(-5.0))
        assert dtheta[-1] == pytest.approx(math.radians(5.0))
        assert FINE_REFINE == 5 and FINE_SPAN == 1
        assert len(bending) * len(focal) * len(dtheta) == 1617

    def test_invariants(self):
        """What lets the search skip grid checks and an infeasible stage:
        sorted axes of two points or more, positive fine focal lengths, and
        the geometric design ('airy_geo' of DESIGNS) on the coarse grid,
        where it gets the bits of the codebook column that sets the floor,
        so it always clears eta times that gain."""
        for axis in COARSE_AXES:
            assert len(axis) >= 2 and list(axis) == sorted(axis)
        assert _fine_axis(COARSE_AXES[1], COARSE_AXES[1][0])[0] > 0.0
        bending, focal, offset_deg = DESIGNS["airy_geo"]
        geo = (bending, focal, math.radians(offset_deg))
        assert all(value in axis for value, axis in zip(geo, COARSE_AXES))
        for name in ("mixed", "deep_shadow"):
            outcome = coarse_to_fine_search(load_scenario(CONFIGS / f"{name}.cfg"))
            t = outcome.trace
            at_geo = ((t.stage == "coarse") & (t.bending == geo[0]) & (t.focal == geo[1])
                      & (t.dtheta == geo[2]))
            assert np.count_nonzero(at_geo) == 1
            assert t.h11_power[at_geo][0] == outcome.baseline_gain


class TestGeometricBaseline:
    def test_stock_design(self, mixed_scenario):
        """The search's comparator is the 'airy_geo' codebook's column 0:
        bending -25 and focal 1.75 m, aimed at the shadowed user's
        geometric angle."""
        assert DESIGNS["airy_geo"] == (-25.0, 1.75, 0.0)
        stock = AiryParams(-25.0, 1.75, geometric_angle(mixed_scenario.users[0]))
        w = airy_weights(mixed_scenario.array, mixed_scenario.carrier, stock)
        book = coarse_to_fine_search(mixed_scenario).codebook
        assert book[:, 0].tobytes() == w.tobytes()


class TestEvaluateCandidate:
    def test_requires_two_users(self, mixed_scenario):
        """A design is scored against the bright user's beam, so the search
        refuses any other user count before it scores one."""
        solo = mixed_scenario.with_users((mixed_scenario.users[0],))
        with pytest.raises(ConfigError, match="2 users"):
            coarse_to_fine_search(solo)

    def test_h11_matches_direct_beam_column(self, mixed_scenario):
        params = design_params("airy_geo", mixed_scenario.users[0])
        _, h11_power = evaluate_candidate(mixed_scenario, params)
        w1 = airy_weights(mixed_scenario.array, mixed_scenario.carrier, params)
        expected = abs(beam_column(mixed_scenario, w1)[0]) ** 2
        assert h11_power == expected

    def test_matches_manual_pipeline(self, mixed_scenario, fixed_h2):
        """The candidate score is exactly what the full codebook pipeline
        computes for the same pair of beams, bit for bit."""
        params = design_params("airy_geo", mixed_scenario.users[0])
        rate, _ = evaluate_candidate(mixed_scenario, params)

        w1 = airy_weights(mixed_scenario.array, mixed_scenario.carrier, params)
        w2 = focus_row(mixed_scenario.array, mixed_scenario.carrier, mixed_scenario.users[1])
        h1 = beam_column(mixed_scenario, w1)
        h_eff = np.column_stack([h1, fixed_h2])
        w_rf = np.column_stack([w1, w2])
        manual = metrics_of_one(h_eff, w_rf, mixed_scenario.tx_power,
                                mixed_scenario.rzf_epsilon,
                                mixed_scenario.noise_power)["sum_rate"]
        assert rate == manual


class TestCoarseToFineSearch:
    def test_threshold_is_eta_times_geo_gain(self, mixed_scenario):
        outcome = coarse_to_fine_search(mixed_scenario, eta=0.4)
        assert outcome.threshold == pytest.approx(0.4 * outcome.baseline_gain,
                                                  rel=1e-12)

    def test_fine_stage_candidate_arithmetic(self, mixed_scenario):
        """11 * 7 * 21 coarse + (2 * 1 * 5 + 1)^3 fine = 2948 evaluations,
        and each fine axis is centered on the coarse incumbent at a fifth
        of the coarse step."""
        outcome = coarse_to_fine_search(mixed_scenario)
        assert outcome.evaluations == 1617 + 1331
        t = outcome.trace
        fine = t.stage == "fine"
        assert np.count_nonzero(fine) == 1331
        coarse = (t.stage == "coarse") & t.feasible
        c = np.flatnonzero(coarse)[np.argmax(t.rate[coarse])]
        for column, step in ((t.bending, 1.0), (t.focal, 0.05),
                             (t.dtheta, math.radians(0.1))):
            offsets = np.unique(column[fine]) - column[c]
            assert offsets.tolist() == pytest.approx([i * step for i in range(-5, 6)])

    def test_trace_bookkeeping(self, mixed_scenario):
        outcome = coarse_to_fine_search(mixed_scenario)
        assert isinstance(outcome, SearchOutcome)
        t = outcome.trace
        assert len(t) == outcome.evaluations
        assert outcome.rejected_by_constraint \
            == sum(1 for f in t.feasible if not f)
        feasible = t.feasible
        assert all(t.h11_power[feasible] >= outcome.threshold)
        assert outcome.best_rate == max(t.rate[feasible])

    def test_search_is_deterministic(self, mixed_scenario):
        a = coarse_to_fine_search(mixed_scenario)
        b = coarse_to_fine_search(mixed_scenario)
        c = coarse_to_fine_search(mixed_scenario)
        assert a == b
        assert a == c

    def test_scores_the_calibrated_rows(self, mixed_scenario):
        """The search fits the scenario's calibration itself and scores the
        diffraction rows times that constant, bit for bit."""
        outcome = coarse_to_fine_search(mixed_scenario)
        scale, residual = remark1_calibration(mixed_scenario)
        assert (outcome.calibration_scale, outcome.calibration_residual) == (scale, residual)
        expected = scale * diffraction_channel(mixed_scenario)
        assert outcome.h_phys.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["mixed", "deep_shadow"])
    def test_compares_against_the_airy_geo_codebook(self, name):
        """The search compares its candidates with build_codebook's
        'airy_geo' codebook, bit for bit, and sets the gain floor from that
        codebook's column 0 on the rows it scores."""
        scenario = load_scenario(CONFIGS / f"{name}.cfg")
        outcome = coarse_to_fine_search(scenario)
        assert outcome.codebook.tobytes() == build_codebook(scenario, "airy_geo").tobytes()
        h = beam_responses(outcome.h_phys, outcome.codebook.T)
        assert outcome.baseline_gain == abs(h[0, 0]) ** 2

    @pytest.mark.parametrize("name, flags", [("mixed", (True, False, False)),
                                             ("deep_shadow", (True, False, True))])
    def test_fine_edge_flags_follow_the_trace(self, name, flags):
        """on_fine_edge equals the trace rule: per axis, the winner's
        coordinate is the minimum or maximum of the fine-stage rows. The
        mixed.cfg winner (-5, 2.05 m, +1.3 deg) sits on the bending edge;
        the deep_shadow.cfg winner (-5, 1.80 m, +5.5 deg) on the bending and
        angle edges."""
        scenario = load_scenario(CONFIGS / f"{name}.cfg")
        outcome = coarse_to_fine_search(scenario)
        assert outcome.on_fine_edge == flags
        assert outcome.on_fine_edge == trace_edge_flags(outcome,
                                                        geometric_angle(scenario.users[0]))

    @pytest.mark.parametrize("eta", [0.0, 1.0, -0.5, 2.0])
    def test_eta_bounds(self, mixed_scenario, eta):
        with pytest.raises(ConfigError, match="eta"):
            coarse_to_fine_search(mixed_scenario, eta=eta)

    def test_requires_obstacle(self, baseline_scenario):
        with pytest.raises(ConfigError, match="obstructed"):
            coarse_to_fine_search(baseline_scenario)


def trace_edge_flags(search, theta_geo: float) -> tuple:
    """Per search axis (bending, focal, dtheta), whether the winner's
    coordinate equals the minimum or maximum of that axis among the
    fine-stage trace rows."""
    trace = search.trace
    fine = trace.stage == "fine"
    best = search.best_params
    axes = (
        (best.bending, trace.bending[fine]),
        (best.focal, trace.focal[fine]),
        # The winner's launch angle is theta_geo + its trace offset, exactly.
        (best.launch_angle, theta_geo + trace.dtheta[fine]),
    )
    return tuple(value in (axis.min(), axis.max()) for value, axis in axes)


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
    """The launch angles are the geometric angle plus the box's offsets, so
    a shadowed user near +/-85 degrees takes them past 90 degrees."""

    def test_coarse_launch_angle_past_90_degrees(self, mixed_scenario, monkeypatch):
        """A shadowed user at -86 degrees, 6 cm deep behind an edge at 5 cm
        (inside the usable window): the coarse offset -5 degrees launches at
        -91, refused when the coarse stage's tables are built, before any
        candidate is gathered."""
        z = 0.06
        steep = UserPosition(x=-z * math.tan(math.radians(86.0)), z=z)
        scenario = replace(mixed_scenario, users=(steep, mixed_scenario.users[1]),
                           obstacle=KnifeEdgeObstacle(depth=0.05))
        rows = counted_rows(monkeypatch)
        with pytest.raises(ConfigError, match="launch angle"):
            coarse_to_fine_search(scenario)
        assert rows == []

    def test_fine_angle_axis_past_90_degrees(self, mixed_scenario, monkeypatch):
        """At a geometric angle of -84.7 degrees every coarse launch angle
        passes; the coarse winner at the -5 degree offset puts the fine
        axis's -5.5 past -90, refused before the fine stage scores any
        candidate."""
        monkeypatch.setattr(optimizer, "geometric_angle", lambda user: math.radians(-84.7))
        scored = []
        stub_scorer(monkeypatch, lambda b, f, a: scored.append(a) or -a,
                    lambda b, f, a: 1.0)
        with pytest.raises(ConfigError, match="launch angle"):
            coarse_to_fine_search(mixed_scenario)
        assert len(scored) == 1617


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
        outcome = coarse_to_fine_search(mixed_scenario)
        assert outcome.evaluations == 1617 + 1331
        assert rows == CHUNK_ROWS
        assert calls == rows
        assert set(shapes) == {(2, 2)}


def recorded_chunks(monkeypatch, scenario) -> list:
    """Run a search and keep the (h, w1, w2) batches it scores."""
    chunks = []

    def recording(h, w1, w2, *args):
        chunks.append((h, w1, w2))
        return batch_sum_rates(h, w1, w2, *args)

    monkeypatch.setattr(optimizer, "batch_sum_rates", recording)
    coarse_to_fine_search(scenario)
    monkeypatch.undo()
    return chunks


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
        bending, focal, dtheta = COARSE_AXES
        designs = [(b, f, theta_geo + dt) for b in bending
                   for f in focal for dt in dtheta][:_CHUNK]
        h_phys = scale * optimizer.diffraction_channel(mixed_scenario)
        w2, h2 = bright_beam(mixed_scenario, h_phys)
        _, h11_power = score_designs(mixed_scenario, h_phys, tuple(zip(*designs)), w2, h2)
        expected = [abs(beam_responses(h_phys, airy_weights(
            mixed_scenario.array, mixed_scenario.carrier, AiryParams(*d))[None])[0, 0]) ** 2
            for d in designs]
        assert len(expected) == _CHUNK
        assert h11_power.tobytes() == np.array(expected).tobytes()


def analog_matrices(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """The C x N x 2 analog matrices [w1_c w2] of a chunk's beams."""
    return np.ascontiguousarray(np.stack([w1, np.broadcast_to(w2, w1.shape)], axis=-1))


class TestRatePath:
    @pytest.mark.parametrize("epsilon", [1e-10, 0.0])
    def test_rates_match_batch_metrics_bit_for_bit(self, mixed_scenario, monkeypatch,
                                                   epsilon):
        scenario = replace(mixed_scenario, rzf_epsilon=epsilon)
        chunks = recorded_chunks(monkeypatch, scenario)
        assert [len(h) for h, _, _ in chunks] == CHUNK_ROWS
        link = (scenario.tx_power, epsilon, scenario.noise_power)
        for h, w1, w2 in chunks:
            rates = batch_sum_rates(h, w1, w2, *link)
            metrics = batch_metrics(h, analog_matrices(w1, w2), *link)[0]
            assert rates.tobytes() == metrics["sum_rate"].tobytes()

    def test_singular_candidate_raises_the_same_error(self, mixed_scenario, monkeypatch):
        """At epsilon = 0 a rank-one candidate in a real chunk is refused by
        both paths with the same message and sigma_min."""
        h, w1, w2 = recorded_chunks(monkeypatch, mixed_scenario)[1]
        h = h.copy()
        h[40, :, 1] = h[40, :, 0]
        link = (mixed_scenario.tx_power, 0.0, mixed_scenario.noise_power)
        expected = raised(batch_metrics, h, analog_matrices(w1, w2), *link)
        assert raised(batch_sum_rates, h, w1, w2, *link) == expected
        assert "singular" in expected[1]

    def test_zero_precoder_raises_the_same_error(self, mixed_scenario, monkeypatch):
        """With epsilon > 0 an all-zero analog matrix leaves nothing to
        normalize; the rate path takes the SVD to report the same sigma_min."""
        h, w1, w2 = recorded_chunks(monkeypatch, mixed_scenario)[1]
        w1 = w1.copy()
        w1[7] = 0.0
        w2 = np.zeros_like(w2)
        link = (mixed_scenario.tx_power, mixed_scenario.rzf_epsilon,
                mixed_scenario.noise_power)
        expected = raised(batch_metrics, h, analog_matrices(w1, w2), *link)
        assert raised(batch_sum_rates, h, w1, w2, *link) == expected
        assert expected[2] > 0.0 and "normalize" in expected[1]

    @pytest.mark.parametrize("epsilon, svd_calls", [(1e-10, []), (0.0, CHUNK_ROWS)])
    def test_svd_only_for_the_zero_forcing_guard(self, mixed_scenario, monkeypatch,
                                                 epsilon, svd_calls):
        """A default-epsilon search takes no SVD; at epsilon = 0 it takes one
        per chunk. The gain floor needs |h11|^2 of the geometric design, not
        a rate, so it takes none."""
        scenario = replace(mixed_scenario, rzf_epsilon=epsilon)
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        outcome = coarse_to_fine_search(scenario)
        assert outcome.evaluations == 1617 + 1331
        assert calls == svd_calls


class TestStageTables:
    """The search gathers each chunk's weights from phasor tables built once
    per stage from the grid axes."""

    def test_one_sine_per_launch_angle_per_stage(self, mixed_scenario, monkeypatch):
        """21 coarse angles, 11 fine ones and the codebook's geometric
        design's: one math.sin each, not one per candidate."""
        sines = []
        counted = types.SimpleNamespace(**{name: getattr(math, name) for name in dir(math)
                                           if not name.startswith("_")})
        counted.sin = lambda x: sines.append(x) or math.sin(x)
        monkeypatch.setattr(beams, "math", counted)
        outcome = coarse_to_fine_search(mixed_scenario)
        assert outcome.evaluations == 11 * 7 * 21 + 11**3
        assert len(sines) == 1 + 21 + 11

    def test_two_phasor_tables_per_stage(self, monkeypatch):
        """A mixed.cfg search takes its cubic weights from each stage's
        lens-and-steer (focal x angle) and bending (bending x focal) phasor
        tables: 7 * 21 * 64 + 11 * 7 * 64 complex exponentials for the
        coarse stage, 2 * 11 * 11 * 64 for the fine one and 2 * 64 for the
        'airy_geo' codebook's geometric design, at most 30,000; one
        exponential per weight took 2948 * 64 + 64 = 188,736. The only other
        complex exponentials in beams are the focusing beams: the codebook's
        bright user's, and the calibration's 'trad_all' pair."""
        counts = collections.Counter()

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x, *args, **kwargs):
                out = np.exp(x, *args, **kwargs)
                if np.iscomplexobj(out):
                    counts[sys._getframe(1).f_code.co_name] += out.size
                return out

        monkeypatch.setattr(beams, "np", CountingNumpy())
        outcome = coarse_to_fine_search(load_scenario(CONFIGS / "mixed.cfg"))
        assert outcome.evaluations == 2948
        assert counts == {"airy_axis_rows": (7 * 21 + 11 * 7 + 2 * 11**2 + 2) * 64,
                          "traditional_focus_rows": 3 * 64}
        assert counts["airy_axis_rows"] <= 30_000

    def test_chunk_rows_match_airy_weights(self, mixed_scenario, monkeypatch):
        """Every chunk's gathered rows have the bits of airy_weights on each
        row's own (bending, focal, launch angle)."""
        chunks = []
        score = optimizer._score_beams

        def recording(scenario, h_phys, designs, w1, *args):
            chunks.append((designs, w1))
            return score(scenario, h_phys, designs, w1, *args)

        monkeypatch.setattr(optimizer, "_score_beams", recording)
        outcome = coarse_to_fine_search(mixed_scenario)
        assert sum(len(w1) for _, w1 in chunks) == outcome.evaluations
        assert len(chunks) == math.ceil(11 * 7 * 21 / _CHUNK) + math.ceil(11**3 / _CHUNK)
        for designs, w1 in chunks:
            expected = np.array([airy_weights(mixed_scenario.array, mixed_scenario.carrier,
                                              AiryParams(float(b), float(f), float(theta)))
                                 for b, f, theta in zip(*designs)])
            assert w1.tobytes() == expected.tobytes()


class TestNaNRate:
    def test_error_names_the_design_in_plain_floats(self, mixed_scenario):
        """A NaN channel row makes every rate NaN; the error names the
        first design as Python floats, not numpy reprs."""
        h_phys = optimizer.diffraction_channel(mixed_scenario).copy()
        h_phys[1] = np.nan
        w2, h2 = bright_beam(mixed_scenario, h_phys)
        designs = (np.array([-30.0, -25.0]), np.array([1.5, 1.75]), np.array([0.125, 0.25]))
        with pytest.raises(AirylinkError) as info, np.errstate(invalid="ignore"):
            score_designs(mixed_scenario, h_phys, designs, w2, h2)
        assert str(info.value) == ("candidate (bending, focal, launch angle) = "
                                   "(-30.0, 1.5, 0.125) produced a NaN sum rate")


def stub_scorer(monkeypatch, rate_of, h11_of):
    """Replace the chunk scorer by one that scores each design (bending,
    focal, launch angle) with rate_of and h11_of."""

    def scored(scenario, h_phys, designs, w1, w2, h2):
        rows = list(zip(*designs))
        return (np.array([rate_of(*d) for d in rows], dtype=float),
                np.array([h11_of(*d) for d in rows], dtype=float))

    monkeypatch.setattr(optimizer, "_score_beams", scored)


class TestReduction:
    def test_tied_rates_pick_the_first_in_loop_order(self, mixed_scenario, monkeypatch):
        """Bending -35 scores highest but misses the gain floor; -30 and -20
        tie at the feasible maximum, in different chunks of the coarse
        stage, and -30 ties again in the fine stage. The first in loop
        order wins."""
        theta_geo = geometric_angle(mixed_scenario.users[0])
        rates = {-35.0: 3.0, -30.0: 2.0, -20.0: 2.0}
        stub_scorer(monkeypatch, lambda b, f, a: rates.get(b, 1.0),
                    lambda b, f, a: 0.0 if b == -35.0 else 1.0)
        outcome = coarse_to_fine_search(mixed_scenario)
        bending, focal, dtheta = COARSE_AXES
        assert outcome.best_params == AiryParams(-30.0, focal[0], theta_geo + dtheta[0])
        assert outcome.best_rate == 2.0
        t = outcome.trace
        assert np.count_nonzero((t.rate == 2.0) & (t.stage == "fine")) > 1
        assert outcome.rejected_by_constraint == np.count_nonzero(t.bending == -35.0)


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

