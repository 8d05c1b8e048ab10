"""Coarse-to-fine parameter search for the shadowed user's curved beam.

The mixed scenario has one shadowed user (index 0, served by a cubic-phase
beam) and one bright user (index 1, served by a fixed traditional beam);
check_roles refuses any other scenario, by geometry.classify_user.
The search tunes the cubic beam's (bending, focal, angle-offset) triple to
maximize the post-precoding sum rate, subject to a floor on the shadowed
user's own channel gain: |h11|^2 >= eta * |h11_geo|^2, where h11_geo is
the gain of the purely geometric design. The constraint stops the search
from trading UE-1's link entirely away for orthogonality. Both fixed beams
come from one codebook, build_codebook(scenario, 'airy_geo'): its row 0 is
the geometric design that sets the floor, and its row 1 the bright user's
focused beam that every candidate is paired with.

The search box is one constant: COARSE_AXES holds the coarse bending,
focal and angle-offset axes (11 x 7 x 21 = 1617 candidates), and the fine
stage rescans +/- FINE_SPAN coarse steps around the stage-1 incumbent on
every axis at FINE_REFINE x resolution (11^3 = 1331 candidates).
Stage 1 exhaustively scans the coarse grid (loop order: bending outer,
focal middle, angle inner; the first maximal feasible rate in that order
wins a tie, as a loop with strict > improvement would pick it).
Stage 2 scans the fine grid, whose centre is the stage-1 incumbent.
Identical inputs always produce the identical outcome and trace.

Neither stage can come up empty. The geometric design is a coarse grid
point, scored with the bits the codebook's row 0 gets, so it reaches
eta times its own gain for any eta in (0, 1); the incumbent is a fine grid
point. The focal axes stay positive (the lowest fine focal length is
0.75 m), but the launch angles depend on the user. Each stage's axes are
checked where its phasor tables are built (beams.airy_axis_rows), before
it scores any candidate: a coarse launch angle theta_geo + dtheta outside
|theta| < pi/2 is refused before stage 1, and a fine one before stage 2.
eta and the users' roles are checked before the codebook is built.

The diffraction channel is linear in the beam weights, so the search builds
the K x N physical matrix once, times the constant that it fits with
channels.remark1_calibration, and scores candidates in fixed-size chunks.
Each stage first builds the cubic beam's two phasor tables from its three
axes (beams.airy_axis_rows: a lens-and-steer phasor per focal value and
launch angle, a bending phasor per bending and focal value, so math.sin
runs once per angle and stage, and the coarse stage takes
(7 * 21 + 11 * 7) * 64 complex exponentials instead of one per weight);
a chunk gathers each weight as the product of its two phasors, with the
bits airy_weights gives each design. One beam_responses product of the
matrix with the codebook gives the gain floor |h11_geo|^2 and the bright
user's column; one product per chunk gives the candidates' columns, and
precoding.batch_sum_rates yields the sum rates alone from the candidates'
beams, the shared bright-user beam and the closed-form two-user RZF that
batch_metrics, which scores every sweep, shares: no inverse, batched
matrix product or C x 2 x N stack of beam pairs, and no singular values
at epsilon > 0. The search only ranks rates, so it never forms the realized
power ||W_RF W_BB||_F^2 either. A candidate gets the same bits in any
chunk as in a chunk of one. Each stage's rates and |h11|^2 values land in
arrays that one masked first-argmax reduces, and the trace keeps them as
columns (SearchTrace).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .beams import AiryParams, airy_axis_rows, build_codebook
from .channels import beam_responses, diffraction_channel, remark1_calibration
from .errors import AirylinkError, ConfigError
from .geometry import ScenarioConfig, classify_user, geometric_angle
from .precoding import batch_sum_rates

__all__ = [
    "COARSE_AXES",
    "FINE_REFINE",
    "FINE_SPAN",
    "SearchTrace",
    "SearchOutcome",
    "check_roles",
    "coarse_to_fine_search",
]

# Candidates scored per batch. Larger chunks buy little speed and raise
# peak memory: scoring all 1617 coarse candidates as one batch lifts the
# peak RSS of a default mixed-opt run from about 44 MB to 56 MB.
_CHUNK = 128

# The search box: bending -60..-10 step 5, focal 1.00..2.50 m step 0.25,
# angle offset -5..+5 deg step 0.5 deg (radians here); the fine stage
# refines 5x within one coarse step on each side of the coarse winner.
COARSE_AXES = (
    tuple(float(b) for b in range(-60, -5, 5)),
    tuple(1.0 + 0.25 * i for i in range(7)),
    tuple(math.radians(-5.0 + 0.5 * i) for i in range(21)),
)
FINE_REFINE = 5
FINE_SPAN = 1


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
    # The remark1_calibration constant the rows were scaled by, and its fit
    # residual.
    calibration_scale: complex
    calibration_residual: float
    # Per axis (bending, focal, dtheta): the winner equals the first or last
    # value of that fine axis, so a better neighbour may lie outside the
    # grid. A kept coarse winner is the centre of every fine axis.
    on_fine_edge: tuple
    # The calibrated K x N channel the candidates were scored on and the
    # 2 x N 'airy_geo' codebook they were compared with: row 0 the
    # geometric design that set the floor, row 1 the bright user's beam
    # each candidate was paired with. For callers that evaluate more beams
    # on the same scenario.
    h_phys: np.ndarray = field(compare=False, repr=False)
    codebook: np.ndarray = field(compare=False, repr=False)


def check_roles(scenario: ScenarioConfig, what: str) -> None:
    """Refuse a scenario that is not one shadowed user 0 and one bright
    user 1 behind an obstacle, by geometry.classify_user: the search, its
    field cut and the robustness sweep serve user 0 with the cubic beam and
    user 1 with the focused one. `what` names the caller in the message."""
    if scenario.obstacle is None:
        raise ConfigError(f"{what} needs an obstructed scenario")
    if scenario.k != 2:
        raise ConfigError(f"{what} expects exactly 2 users, got {scenario.k}")
    roles = [classify_user(u, scenario.obstacle) for u in scenario.users]
    if roles != ["shadowed", "bright"]:
        raise ConfigError(f"{what} needs user 0 shadowed and user 1 bright, "
                          f"got {roles[0]} and {roles[1]}")


def _score_beams(
    scenario: ScenarioConfig,
    h_phys: np.ndarray,
    designs,
    w1: np.ndarray,
    w2: np.ndarray,
    h2: np.ndarray,
) -> tuple:
    """Score cubic-beam designs for the shadowed user against the fixed
    bright-user beam (w2, with effective column h2, both from the search's
    codebook). `designs` holds the designs' (bending, focal, launch angle)
    columns, which only the NaN-rate error reads, and w1 their C x N
    weights. One beam_responses product gives every candidate's column
    (K x C, transposed to one row per candidate), each paired with h2.
    Returns the sum rates and |h11|^2 values as arrays, one entry per
    design."""
    h1 = beam_responses(h_phys, w1).T
    h_eff = np.empty((len(w1), 2, 2), dtype=complex)
    h_eff[:, :, 0] = h1
    h_eff[:, :, 1] = h2
    rates = batch_sum_rates(h_eff, w1, w2, scenario.tx_power, scenario.rzf_epsilon,
                            scenario.noise_power)
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


def _fine_axis(coarse: tuple, center: float) -> list:
    """Fine axis around `center`: +/- FINE_SPAN coarse steps at
    FINE_REFINE x resolution."""
    step = (coarse[-1] - coarse[0]) / (len(coarse) - 1)
    fine_step = step / FINE_REFINE
    n = FINE_SPAN * FINE_REFINE
    return [center + i * fine_step for i in range(-n, n + 1)]


def _scan(axes: tuple, score, threshold: float, stage: str) -> tuple:
    """Score every point of the grid spanned by `axes` chunk by chunk and
    reduce to the best feasible one. Points run in loop order (bending
    outer, focal middle, angle inner), and score(i, j, k) gets a chunk's
    index columns into the three axes.

    Returns (trace, best): best is (rate, grid point) of the first maximal
    feasible rate in candidate (= loop) order, so a tie resolves as the
    sequential nested loops with strict > improvement would.
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
    c = int(kept[np.argmax(rates[kept])])
    return trace, (float(rates[c]), tuple(a[i[c]] for a, i in zip(axes, index)))


def coarse_to_fine_search(scenario: ScenarioConfig, eta: float = 0.4) -> SearchOutcome:
    """Run the two-stage constrained search for the shadowed user's beam
    on the diffraction rows times the scenario's remark1_calibration
    constant, so absolute SINRs line up with the closed-form model."""
    if not 0.0 < eta < 1.0:
        raise ConfigError(f"eta must lie in (0, 1), got {eta}")
    check_roles(scenario, "the search")
    theta_geo = geometric_angle(scenario.users[0])

    # The calibrated channel matrix and the codebook never change; one
    # product gives the gain floor and the bright user's column.
    scale, residual = remark1_calibration(scenario)
    h_phys = scale * diffraction_channel(scenario)
    codebook = build_codebook(scenario, "airy_geo")
    h = beam_responses(h_phys, codebook)
    h11_geo = float(abs(h[0, 0]) ** 2)
    tau = eta * h11_geo
    w2, h2 = codebook[1], h[:, 1]

    def stage_scorer(axes):
        """The chunk scorer of one stage: it gathers every chunk's weights
        from phasor tables built once from the stage's axes."""
        bending, focal, dtheta = (np.asarray(a, dtype=float) for a in axes)
        launch = theta_geo + dtheta
        rows = airy_axis_rows(scenario.array, scenario.carrier, bending, focal, launch)

        def score(i, j, k):
            designs = (bending[i], focal[j], launch[k])
            return _score_beams(scenario, h_phys, designs, rows(i, j, k), w2, h2)

        return score

    trace, best = _scan(COARSE_AXES, stage_scorer(COARSE_AXES), tau, "coarse")
    fine_axes = tuple(_fine_axis(axis, center) for axis, center in zip(COARSE_AXES, best[1]))
    fine_trace, fine_best = _scan(fine_axes, stage_scorer(fine_axes), tau, "fine")
    trace = SearchTrace(*(np.concatenate([getattr(trace, name), getattr(fine_trace, name)])
                          for name in _TRACE_COLUMNS))
    if fine_best[0] > best[0]:
        best = fine_best

    rate, point = best
    b, f, dt = point
    return SearchOutcome(
        best_params=AiryParams(bending=b, focal=f, launch_angle=theta_geo + dt),
        best_rate=rate,
        baseline_gain=h11_geo,
        threshold=tau,
        evaluations=len(trace),
        rejected_by_constraint=int(np.count_nonzero(~trace.feasible)),
        trace=trace,
        calibration_scale=scale,
        calibration_residual=residual,
        on_fine_edge=tuple(v in (axis[0], axis[-1]) for v, axis in zip(point, fine_axes)),
        h_phys=h_phys,
        codebook=codebook,
    )

