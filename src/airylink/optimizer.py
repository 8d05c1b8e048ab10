"""Coarse-to-fine parameter search for the shadowed user's curved beam.

The mixed scenario has one shadowed user (index 0, served by a cubic-phase
beam) and one bright user (index 1, served by a fixed traditional beam).
The search tunes the cubic beam's (bending, focal, angle-offset) triple to
maximize the post-precoding sum rate, subject to a floor on the shadowed
user's own channel gain: |h11|^2 >= eta * |h11_geo|^2, where h11_geo is
the gain of the purely geometric design. The constraint stops the search
from trading UE-1's link entirely away for orthogonality.

Stage 1 exhaustively scans a coarse grid (loop order: bending outer, focal
middle, angle inner; the first maximal feasible rate in that order wins a
tie, as a loop with strict > improvement would pick it).
Stage 2 re-scans a refined grid spanning +/- fine_span coarse steps around
the stage-1 incumbent on every axis at fine_refine_factor x resolution.
Identical inputs always produce the identical outcome and trace.

The search box is checked before anything is scored, with AiryParams' own
rules (beams.check_airy_columns): SearchGrids rejects a coarse focal length
<= 0, the search rejects a coarse launch angle theta_geo + dtheta outside
|theta| < pi/2 before stage 0, and each fine axis is checked when it is
built, before stage 2 scores any candidate.

The diffraction channel is linear in the beam weights, so the search builds
the K x N physical matrix once and scores candidates in fixed-size chunks.
Each stage first builds the cubic beam's phase tables from its three axes
(beams.airy_axis_rows: lens and cube rows per focal value, a coefficient
per bending value, a steering row per launch angle, so math.sin runs once
per angle and stage); a chunk gathers its weights from them, with the bits
airy_weight_rows gives the same designs. One product with the matrix gives
the shadowed user's effective columns, and the RZF needs nothing more of
the beams than their 2 x 2 Gram matrices (precoding.analog_gram), so no
C x N x 2 analog matrix is formed. precoding.batch_sum_rates then yields
the sum rates alone from the closed-form two-user RZF that batch_metrics,
which scores every sweep, shares: no inverse or batched matrix product,
and no singular values at epsilon > 0. The search only ranks rates, so it
never forms the realized power ||W_RF W_BB||_F^2 either. A candidate gets
the same bits in any chunk as in a chunk of one. Each stage's rates and
|h11|^2 values land in arrays that one masked first-argmax reduces, and the
trace keeps them as columns (SearchTrace). The closed form moved trace
rates against the LAPACK inverse it replaced by at most 1e-11 relative in
their printed digits; weights, |h11|^2 and verdicts kept every bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .beams import (AiryParams, airy_axis_rows, airy_weight_rows, check_airy_columns,
                    traditional_focus)
from .channels import beam_responses, diffraction_channel
from .errors import AirylinkError, ConfigError, InfeasibleSearchError
from .geometry import ScenarioConfig, geometric_angle
from .precoding import analog_gram, batch_sum_rates

__all__ = [
    "SearchGrids",
    "SearchTrace",
    "SearchOutcome",
    "default_search_grids",
    "geometric_baseline_params",
    "coarse_to_fine_search",
]

# Geometric comparator design for the shadowed user: moderate bending with
# the focal region placed a little beyond the obstacle plane.
GEO_BENDING = -25.0
GEO_FOCAL = 1.75

# Candidates scored per batch. Larger chunks buy little speed and raise
# peak memory: scoring all 1617 coarse candidates as one batch lifts the
# peak RSS of a default mixed-opt run from about 44 MB to 56 MB.
_CHUNK = 128


def default_search_grids() -> "SearchGrids":
    """Stock grids: bending -60..-10 step 5, focal 1.00..2.50 m step 0.25,
    angle offset -5..+5 deg step 0.5 deg; fine stage refines 5x within one
    coarse step. 11*7*21 = 1617 coarse candidates."""
    return SearchGrids(
        coarse_bending=tuple(float(b) for b in range(-60, -5, 5)),
        coarse_focal=tuple(1.0 + 0.25 * i for i in range(7)),
        coarse_dtheta=tuple(math.radians(-5.0 + 0.5 * i) for i in range(21)),
        fine_refine_factor=5,
        fine_span=1,
    )


@dataclass(frozen=True)
class SearchGrids:
    """Search space: coarse axis values plus the fine-stage refinement rule."""

    coarse_bending: tuple
    coarse_focal: tuple
    coarse_dtheta: tuple
    fine_refine_factor: int = 5
    fine_span: int = 1

    def __post_init__(self):
        for name, axis in (
            ("coarse_bending", self.coarse_bending),
            ("coarse_focal", self.coarse_focal),
            ("coarse_dtheta", self.coarse_dtheta),
        ):
            if len(axis) == 0:
                raise ConfigError(f"{name} must not be empty")
            if list(axis) != sorted(axis):
                raise ConfigError(f"{name} must be sorted ascending")
        check_airy_columns(focal=self.coarse_focal)
        if self.fine_refine_factor < 2:
            raise ConfigError(
                f"fine_refine_factor must be >= 2, got {self.fine_refine_factor}"
            )
        if self.fine_span < 1:
            raise ConfigError(f"fine_span must be >= 1, got {self.fine_span}")


@dataclass(frozen=True, eq=False)
class SearchTrace:
    """Every evaluated candidate in loop order, one read-only column per
    field: parameters (dtheta is the offset from the geometric angle, in
    radians), measured |h11|^2 and sum rate, verdict, and stage name
    ("coarse" or "fine"). Two traces are equal when every column holds
    the same values."""

    bending: np.ndarray
    focal: np.ndarray
    dtheta: np.ndarray
    h11_power: np.ndarray
    rate: np.ndarray
    feasible: np.ndarray
    stage: np.ndarray

    def __post_init__(self):
        for name, dtype in _TRACE_COLUMNS.items():
            column = np.array(getattr(self, name), dtype=dtype)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if len({getattr(self, name).shape for name in _TRACE_COLUMNS}) != 1:
            raise AirylinkError("search trace columns differ in length")

    def __len__(self) -> int:
        return len(self.rate)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SearchTrace):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in _TRACE_COLUMNS)


_TRACE_COLUMNS = {"bending": float, "focal": float, "dtheta": float,
                  "h11_power": float, "rate": float, "feasible": bool, "stage": str}


@dataclass(frozen=True)
class SearchOutcome:
    best_params: AiryParams
    best_rate: float
    baseline_gain: float
    threshold: float
    evaluations: int
    rejected_by_constraint: int
    trace: SearchTrace
    # The K x N physical channel the candidates were scored on and the
    # bright user's beam they were paired with, for callers that evaluate
    # more beams on the same scenario.
    h_phys: np.ndarray = field(compare=False, repr=False)
    w2: np.ndarray = field(compare=False, repr=False)


def geometric_baseline_params(scenario: ScenarioConfig) -> AiryParams:
    """The no-search comparator: stock (bending, focal) aimed straight at
    the shadowed user's geometric angle."""
    return AiryParams(
        bending=GEO_BENDING,
        focal=GEO_FOCAL,
        launch_angle=geometric_angle(scenario.users[0]),
    )


def _score_chunk(
    scenario: ScenarioConfig,
    h_phys: np.ndarray,
    designs,
    w2: np.ndarray,
    h2: np.ndarray,
    scale: complex,
) -> tuple:
    """_score_beams of cubic-beam designs given as the (bending, focal,
    launch angle) columns of airy_weight_rows, which builds their weights."""
    w1 = airy_weight_rows(scenario.array, scenario.carrier, *designs)
    return _score_beams(scenario, h_phys, designs, w1, w2, h2, scale)


def _score_beams(
    scenario: ScenarioConfig,
    h_phys: np.ndarray,
    designs,
    w1: np.ndarray,
    w2: np.ndarray,
    h2: np.ndarray,
    scale: complex,
) -> tuple:
    """Score cubic-beam designs for the shadowed user against the fixed
    bright-user beam (w2, with effective column h2, formed once per
    search). `designs` holds the designs' (bending, focal, launch angle)
    columns, which only the NaN-rate error reads, and w1 their C x N
    weights. One beam_responses product gives every candidate's column
    (K x C, transposed to one row per candidate), each paired with h2, and
    the Gram matrices of (w1, w2) are all the RZF needs of the beams.
    Returns the sum rates and |h11|^2 values as arrays, one entry per
    design."""
    h1 = beam_responses(h_phys, w1, scale).T
    h_eff = np.empty((len(w1), 2, 2), dtype=complex)
    h_eff[:, :, 0] = h1
    h_eff[:, :, 1] = h2
    rates = batch_sum_rates(h_eff, analog_gram(w1, w2), scenario.tx_power,
                            scenario.rzf_epsilon, scenario.noise_power)
    bad = np.isnan(rates)
    if bad.any():
        c = int(np.argmax(bad))
        raise AirylinkError(
            f"candidate (bending, focal, launch angle) = "
            f"{tuple(float(column[c]) for column in designs)} produced a NaN sum rate"
        )
    # Per-candidate scalar abs and square, exactly as abs(h) ** 2 of one
    # beam's response evaluates them; the array forms may round the last bit
    # differently.
    h11_power = np.array([abs(h) ** 2 for h in h1[:, 0]])
    return rates, h11_power


def _one_design(params: AiryParams) -> tuple:
    """One design as the one-row parameter columns _score_chunk takes."""
    return (params.bending,), (params.focal,), (params.launch_angle,)


def _bright_beam(scenario: ScenarioConfig, h_phys: np.ndarray, scale: complex) -> tuple:
    """The bright user's traditional beam w2 and its effective column
    scale * H_phys @ w2."""
    w2 = traditional_focus(scenario.array, scenario.carrier, scenario.users[1])
    return w2, beam_responses(h_phys, w2[None, :], scale)[:, 0]


def _fine_axis(coarse: tuple, center: float, span: int, refine: int) -> list:
    """Refined axis around `center`: +/- span coarse steps at refine x
    resolution. A singleton coarse axis has no step to refine, so the axis
    collapses to the incumbent value."""
    if len(coarse) < 2:
        return [center]
    step = (coarse[-1] - coarse[0]) / (len(coarse) - 1)
    fine_step = step / refine
    n = span * refine
    return [center + i * fine_step for i in range(-n, n + 1)]


def _scan(axes: tuple, score, threshold: float, stage: str) -> tuple:
    """Score every point of the grid spanned by `axes` chunk by chunk and
    reduce to the best feasible one. Points run in loop order (bending
    outer, focal middle, angle inner), and score(i, j, k) gets a chunk's
    index columns into the three axes.

    Returns (trace, best): best is (rate, grid point) of the first maximal
    feasible rate in candidate (= loop) order, so a tie resolves as the
    sequential nested loops with strict > improvement would, or None when
    no candidate is feasible.
    """
    shape = tuple(len(a) for a in axes)
    index = np.unravel_index(np.arange(math.prod(shape)), shape)
    columns = tuple(np.asarray(a, dtype=float)[i] for a, i in zip(axes, index))
    n = len(columns[0])
    rates, h11_power = np.empty(n), np.empty(n)
    for start in range(0, n, _CHUNK):
        part = slice(start, start + _CHUNK)
        rates[part], h11_power[part] = score(*(i[part] for i in index))
    feasible = h11_power >= threshold
    trace = SearchTrace(*columns, h11_power, rates, feasible, np.full(n, stage))
    (kept,) = np.nonzero(feasible)
    if not kept.size:
        return trace, None
    c = int(kept[np.argmax(rates[kept])])
    return trace, (float(rates[c]), tuple(a[i[c]] for a, i in zip(axes, index)))


def coarse_to_fine_search(
    scenario: ScenarioConfig,
    grids: SearchGrids,
    eta: float = 0.4,
    scale: complex = 1.0 + 0.0j,
) -> SearchOutcome:
    """Run the two-stage constrained search for the shadowed user's beam.

    `scale` is the cross-model calibration constant (see
    channels.remark1_calibration); it multiplies every channel column so
    absolute SINRs line up with the closed-form model.
    """
    if not 0.0 < eta < 1.0:
        raise ConfigError(f"eta must lie in (0, 1), got {eta}")
    if scenario.obstacle is None:
        raise ConfigError("the search is defined for an obstructed scenario")
    if scenario.k != 2:
        raise ConfigError(f"the search expects exactly 2 users, got {scenario.k}")
    theta_geo = geometric_angle(scenario.users[0])
    check_airy_columns(launch_angle=[theta_geo + dt for dt in grids.coarse_dtheta])

    # The channel matrix and the bright user's column never change; build
    # them once.
    h_phys = diffraction_channel(scenario)
    w2, h2 = _bright_beam(scenario, h_phys, scale)

    def stage_scorer(axes):
        """The chunk scorer of one stage: it gathers every chunk's weights
        from phase tables built once from the stage's axes."""
        bending, focal, dtheta = (np.asarray(a, dtype=float) for a in axes)
        launch = theta_geo + dtheta
        rows = airy_axis_rows(scenario.array, scenario.carrier, bending, focal, launch)

        def score(i, j, k):
            designs = (bending[i], focal[j], launch[k])
            return _score_beams(scenario, h_phys, designs, rows(i, j, k), w2, h2, scale)

        return score

    # Stage 0: constraint threshold from the geometric design's own gain.
    _, h11_geo = _score_chunk(
        scenario, h_phys, _one_design(geometric_baseline_params(scenario)), w2, h2, scale
    )
    h11_geo = float(h11_geo[0])
    tau = eta * h11_geo

    coarse_axes = (grids.coarse_bending, grids.coarse_focal, grids.coarse_dtheta)
    trace, best = _scan(coarse_axes, stage_scorer(coarse_axes), tau, "coarse")
    if best is None:
        max_h11 = float(trace.h11_power.max())
        raise InfeasibleSearchError(
            f"no coarse candidate met the gain constraint: max |h11|^2 = "
            f"{max_h11:.6e} < threshold {tau:.6e}",
            max_h11_power=max_h11,
            threshold=tau,
        )

    if any(len(axis) > 1 for axis in coarse_axes):
        span, refine = grids.fine_span, grids.fine_refine_factor
        fine_axes = tuple(_fine_axis(axis, center, span, refine)
                          for axis, center in zip(coarse_axes, best[1]))
        check_airy_columns(fine_axes[1], [theta_geo + dt for dt in fine_axes[2]])
        fine_trace, fine_best = _scan(fine_axes, stage_scorer(fine_axes), tau, "fine")
        trace = SearchTrace(*(np.concatenate([getattr(trace, name), getattr(fine_trace, name)])
                              for name in _TRACE_COLUMNS))
        if fine_best is not None and fine_best[0] > best[0]:
            best = fine_best

    rate, (b, f, dt) = best
    return SearchOutcome(
        best_params=AiryParams(bending=b, focal=f, launch_angle=theta_geo + dt),
        best_rate=rate,
        baseline_gain=h11_geo,
        threshold=tau,
        evaluations=len(trace),
        rejected_by_constraint=int(np.count_nonzero(~trace.feasible)),
        trace=trace,
        h_phys=h_phys,
        w2=w2,
    )

