"""Deterministic scenario runners.

Each runner turns one scenario family into a tabular sweep:

* baseline_scan   -- free space, closed-form channels; scan the second
                     user laterally to map how user proximity degrades the
                     zero-forcing inversion (condition number, SINR, rate).
* shadow_scan     -- knife edge present, both users behind it; compare the
                     traditional codebook against curved beams as the deep
                     user walks from shadow center toward the lit edge.
* mixed_optimization -- one shadowed and one bright user; run the
                     coarse-to-fine beam search on its one box
                     (optimizer.COARSE_AXES), a diagnostic sweep over the
                     coarse angle-offset range, widened to span the
                     winner's offset, at the winner's (bending, focal),
                     and a transverse field cut comparing the winning
                     beam to the geometric one. The geometric beam and
                     the bright user's beam are the rows of the search's
                     'airy_geo' codebook, built once per run.
* robustness_sweep -- fix all beams at their nominal designs, displace the
                     bright user, and measure how each strategy degrades.

A strategy name names one codebook everywhere: build_codebook(scenario,
name), which focuses on every user for 'trad_all' and, for 'airy_geo' and
'airy_opt', gives each shadowed user that design (beams.DESIGNS) at its own
geometric angle plus the design's offset and focuses on every bright user.
The mixed-optimization run and the robustness sweep serve user 0 with the
cubic beam and user 1 with the focused one, and optimizer.check_roles
refuses a scenario whose users do not play those roles.

Every runner is pure given its config: identical inputs produce identical
outputs (and therefore byte-identical CSVs downstream). A sweep stacks the
user and beam rows of every (point x strategy) pair in sweep order and
scores them in one beam_responses product and one batched SVD +
closed-form RZF + metrics pass (precoding.batch_metrics), whose RZF and
sum-rate arithmetic the beam search shares; the sweep keeps that pass's
metric columns as they are, one row per pair.

No sweep loops over its points. The baseline, shadow and robustness
sweeps share one body, in which one user moves and the other stays: one
channel call on a scenario that holds the fixed user and every moved user
gives all of their rows (closed form in free space, and behind the
obstacle the diffraction model times the remark1_calibration constant,
applied to that one row matrix), and one codebook call per strategy gives
their beams (the robustness sweep's stay at the nominal design, the bright
user's repeated for every point). Each point's 2 rows and each strategy's 2
beams are stacked, and one beam_responses product forms every point's
effective channel, with the bits of that product on that point alone. The
mixed-optimization angle sweep stacks each point's curved beam with the
bright user's row of the codebook that the search returns and scores it
the same way against the search's channel matrix: the search fits the
calibration constant and scales the rows, and the run fits none of its
own. Its field cut takes the codebook's row 0, the geometric design, as
the reference, so the run builds no beam the search already built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beams import airy_axis_rows, airy_weights, build_codebook
from .channels import (
    beam_responses,
    diffraction_channel,
    greens_channel,
    remark1_calibration,
)
from .errors import AirylinkError, ConfigError
from .geometry import ScenarioConfig, UserPosition, geometric_angle
from .optimizer import (
    COARSE_AXES,
    SearchOutcome,
    check_roles,
    coarse_to_fine_search,
)
from .precoding import achieved_power, batch_metrics
from .propagation import Cascade, IntensityMap, grid_x, intensity_map, launch_aperture

__all__ = [
    "SweepResult",
    "FieldCut",
    "MixedOptimizationResult",
    "run_baseline_scan",
    "run_shadow_scan",
    "run_mixed_optimization",
    "run_robustness_sweep",
    "run_fieldmap",
]

_POWER_RTOL = 1e-9


@dataclass(frozen=True)
class SweepResult:
    """One sweep: the sorted sweep values and the scorer's metric columns
    (see precoding._metrics_batch), one row per (value, strategy) pair,
    value-major with the strategies interleaved (never ragged)."""

    sweep_variable: str
    strategies: tuple
    values: np.ndarray
    metrics: dict

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if not np.all(values[:-1] <= values[1:]):
            raise AirylinkError("sweep points must be sorted by sweep value")
        rows = len(values) * len(self.strategies)
        for name, column in self.metrics.items():
            if len(column) != rows:
                raise AirylinkError(f"metric column {name!r} has {len(column)} rows, want {rows}")

    def series(self, strategy: str, name: str) -> np.ndarray:
        """One metric of one strategy across the sweep: a strided view."""
        return self.metrics[name][self.strategies.index(strategy)::len(self.strategies)]


@dataclass(frozen=True)
class FieldCut:
    """Transverse intensity comparison of two beams at one depth, jointly
    normalized so 0 dB is the brighter of the two peaks."""

    cut_depth: float
    xs: np.ndarray
    db_reference: np.ndarray
    db_tuned: np.ndarray
    peak: float
    gain_at_shadowed_db: float
    interference_change_db: float


@dataclass(frozen=True)
class MixedOptimizationResult:
    search: SearchOutcome
    dtheta_sweep: SweepResult
    field_cut: FieldCut


def _assert_point_invariants(scenario: ScenarioConfig, power: np.ndarray,
                             metrics: dict) -> None:
    """Inline invariants every sweep point must satisfy (CLI exit gate),
    checked for all points at once. Raises for the first point that fails
    either; at that point the power check comes first."""
    rel = np.abs(power - scenario.tx_power) / scenario.tx_power
    kappa = metrics["condition_number"]
    bad_power = rel > _POWER_RTOL
    bad = bad_power | (~metrics["singular"] & (kappa < 1.0))
    if not bad.any():
        return
    c = int(np.argmax(bad))
    if bad_power[c]:
        raise AirylinkError(
            f"power normalization violated: |W_RF W_BB|_F^2 off by {rel[c]:.3e} relative"
        )
    raise AirylinkError(
        f"condition number {float(kappa[c])} < 1; singular values disordered"
    )


def _scored_sweep(scenario: ScenarioConfig, sweep_variable: str, strategies: tuple,
                  values: list, rows, beams) -> SweepResult:
    """Score a whole sweep in one batch: the K x N beam rows of every (value,
    strategy) pair, value-major, meet the user rows (broadcast) in one
    beam_responses product. batch_metrics refuses a channel that is not
    finite, and every point's invariants are checked."""
    h = beam_responses(rows, beams).reshape(-1, scenario.k, scenario.k)
    beams = beams.reshape(-1, scenario.k, scenario.array.n)
    m, w_bb = batch_metrics(h, beams, scenario.tx_power, scenario.rzf_epsilon,
                            scenario.noise_power)
    _assert_point_invariants(scenario, achieved_power(beams, w_bb), m)
    return SweepResult(sweep_variable, strategies, values, m)


def _second_user_sweep(scenario: ScenarioConfig, what: str, sweep_variable: str,
                       values: list, strategies: tuple, codebook,
                       from_nominal: bool = False) -> SweepResult:
    """Sweep user 2 along x at its own depth, user 1 fixed: to x = value *
    lambda, or to its nominal x + value * lambda when from_nominal.

    One channel call gives the fixed row and every moved row, from the
    closed form in free space or from the calibrated diffraction model
    behind an obstacle. codebook(everyone, name) gives one strategy's
    (1 + P) x N beam rows, one per channel row; point p takes rows and beams
    (0, 1 + p), and one beam_responses product forms just those 2 x 2
    entries per point and strategy."""
    if scenario.k != 2:
        raise ConfigError(f"{what} expects exactly 2 users, got {scenario.k}")
    lam = scenario.carrier.wavelength
    u1, u2 = scenario.users
    x0 = u2.x if from_nominal else 0.0
    moved = [UserPosition(x=x0 + v * lam, z=u2.z, label=u2.label) for v in values]
    everyone = scenario.with_users((u1, *moved))
    h_phys = (greens_channel(everyone) if scenario.obstacle is None
              else remark1_calibration(scenario)[0] * diffraction_channel(everyone))
    pairs = np.column_stack([np.zeros(len(values), dtype=int), np.arange(1, len(values) + 1)])
    # P x S x 2 x N: each point's fixed and moved beam under each strategy.
    beams = np.stack([codebook(everyone, name)[pairs] for name in strategies], axis=1)
    return _scored_sweep(scenario, sweep_variable, strategies, values,
                         h_phys[pairs][:, None], beams)


def _sweep_values(start: float, stop: float, step: float) -> list:
    """Inclusive arithmetic progression built from integer multiples, so the
    endpoint lands exactly and values are reproducible bit for bit."""
    if not (math.isfinite(step) and step > 0):
        raise ConfigError(f"sweep step must be a positive finite number, got {step}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"sweep range [{start}, {stop}] must have finite bounds")
    if stop < start:
        raise ConfigError(f"sweep range [{start}, {stop}] is reversed: stop is below start")
    n = round((stop - start) / step)
    if not math.isclose(start + n * step, stop, rel_tol=0, abs_tol=1e-9 * abs(step)):
        raise ConfigError(
            f"sweep step {step} does not evenly divide the range [{start}, {stop}]"
        )
    return [start + i * step for i in range(n + 1)]


def run_baseline_scan(
    scenario: ScenarioConfig,
    step_lambda: float = 0.5,
    start_lambda: float = -15.0,
    stop_lambda: float = 10.0,
) -> SweepResult:
    """Free-space two-user scan: user 2 slides along x at fixed depth.

    Uses the closed-form channel model throughout (no obstacle allowed)
    with the all-traditional codebook; the beams of user 1 and of user 2
    at all scan positions come from one build_codebook call.
    """
    if scenario.obstacle is not None:
        raise ConfigError("baseline scan is a free-space experiment; remove the obstacle")
    xs = _sweep_values(start_lambda, stop_lambda, step_lambda)
    return _second_user_sweep(scenario, "baseline scan", "x2_lambda", xs,
                              ("trad_all",), build_codebook)


def run_shadow_scan(
    scenario: ScenarioConfig,
    step_lambda: float = 0.5,
    start_lambda: float = -15.0,
    stop_lambda: float = -1.0,
) -> SweepResult:
    """Blocked two-user scan comparing traditional and curved codebooks.

    Channels come from the diffraction model (calibrated once against the
    obstacle-free closed form); the curved codebook aims each shadowed
    user's beam along that user's geometric angle and focuses on a bright
    one. Each strategy's beams for user 1 and for user 2 at every scan
    position come from one build_codebook call.
    """
    if scenario.obstacle is None:
        raise ConfigError("shadow scan needs an obstacle in the scenario")
    xs = _sweep_values(start_lambda, stop_lambda, step_lambda)
    return _second_user_sweep(scenario, "shadow scan", "x2_lambda", xs,
                              ("trad_all", "airy_geo"), build_codebook)


def run_mixed_optimization(
    scenario: ScenarioConfig,
    eta: float = 0.4,
    dtheta_step_deg: float = 0.1,
) -> MixedOptimizationResult:
    """Search the curved-beam parameters for the shadowed user, then
    characterize the winner: an angle-offset sweep at the winning
    (bending, focal) and a transverse field cut at the bright user's depth
    comparing the winner against the geometric design."""
    # Angle-offset diagnostic at the winning (bending, focal): the coarse
    # angle range in whole steps lo + i * step, extended by whole steps
    # until it spans the winner's offset. The step is checked before the
    # search runs.
    lo = math.degrees(COARSE_AXES[2][0])
    hi = math.degrees(COARSE_AXES[2][-1])
    last = len(_sweep_values(lo, hi, dtheta_step_deg)) - 1
    outcome = coarse_to_fine_search(scenario, eta=eta)

    theta_geo = geometric_angle(scenario.users[0])
    best = outcome.best_params
    reach = (math.degrees(best.launch_angle - theta_geo) - lo) / dtheta_step_deg
    steps = range(min(0, math.floor(reach + 1e-9)), max(last, math.ceil(reach - 1e-9)) + 1)
    dthetas = [lo + i * dtheta_step_deg for i in steps]
    angles = [theta_geo + math.radians(d) for d in dthetas]
    rows = airy_axis_rows(scenario.array, scenario.carrier, (best.bending,), (best.focal,),
                          angles)(0, 0, np.arange(len(angles)))
    # Point p's beams: its curved beam (row p) and the bright user's beam,
    # row 1 of the search's codebook.
    beams = np.stack([rows, np.broadcast_to(outcome.codebook[1], rows.shape)], axis=1)
    sweep = _scored_sweep(scenario, "dtheta_deg", ("airy_best_bf",), dthetas,
                          outcome.h_phys, beams)

    cut = _field_cut(
        scenario,
        reference=outcome.codebook[0],
        tuned=airy_weights(scenario.array, scenario.carrier, best),
        cut_depth=scenario.users[1].z,
    )
    return MixedOptimizationResult(search=outcome, dtheta_sweep=sweep, field_cut=cut)


def _field_cut(
    scenario: ScenarioConfig,
    reference: np.ndarray,
    tuned: np.ndarray,
    cut_depth: float,
) -> FieldCut:
    """Propagate two candidate beams (weight vectors) for the shadowed user
    to `cut_depth` and compare their intensity profiles on a shared dB
    scale."""
    lam = scenario.carrier.wavelength
    cascade = Cascade(scenario.grid, lam, scenario.obstacle)
    profiles = []
    for w in (reference, tuned):
        launch = launch_aperture(w, scenario.array, scenario.grid, lam)
        (out,) = cascade.fields(launch, [cut_depth])
        profiles.append(np.abs(out) ** 2)
    peak = float(max(p.max() for p in profiles))
    if peak <= 0:
        raise AirylinkError("both field cuts are identically zero")
    with np.errstate(divide="ignore"):
        db_ref, db_tuned = (10.0 * np.log10(p / peak) for p in profiles)
    xs = grid_x(scenario.grid)
    x_shadowed = scenario.users[0].x
    x_bright = scenario.users[1].x
    gain = float(np.interp(x_shadowed, xs, db_tuned) - np.interp(x_shadowed, xs, db_ref))
    interference = float(np.interp(x_bright, xs, db_tuned) - np.interp(x_bright, xs, db_ref))
    return FieldCut(
        cut_depth=cut_depth,
        xs=xs,
        db_reference=db_ref,
        db_tuned=db_tuned,
        peak=peak,
        gain_at_shadowed_db=gain,
        interference_change_db=interference,
    )


def run_robustness_sweep(
    scenario: ScenarioConfig,
    step_lambda: float = 0.25,
    span_lambda: float = 3.0,
) -> SweepResult:
    """Positioning-error sweep: all beams stay designed for the nominal
    user positions while the bright user's true position is displaced by
    dx2; only the bright user's channel row differs from point to point."""
    check_roles(scenario, "robustness sweep")
    dxs = _sweep_values(-span_lambda, span_lambda, step_lambda)

    # Beams frozen at the nominal design: the nominal bright-user beam
    # serves every moved point.
    def frozen(everyone, name):
        return build_codebook(scenario, name)[np.minimum(np.arange(everyone.k), 1)]

    return _second_user_sweep(scenario, "robustness sweep", "dx2_lambda", dxs,
                              ("trad_all", "airy_geo", "airy_opt"), frozen,
                              from_nominal=True)


def run_fieldmap(
    scenario: ScenarioConfig,
    strategy: str,
    beam_index: int = 0,
    depth_start_lambda: float = 10.0,
    depth_stop_lambda: float = 400.0,
    depth_step_lambda: float = 2.0,
    with_obstacle: bool = True,
) -> IntensityMap:
    """Intensity map of one codebook beam over a range of depths.

    strategy names the build_codebook codebook ('trad_all', 'airy_geo' or
    'airy_opt'); beam_index selects whose beam to map.
    """
    beams = build_codebook(scenario, strategy)
    if not 0 <= beam_index < len(beams):
        raise ConfigError(f"beam index {beam_index} out of range for K={len(beams)}")
    lam = scenario.carrier.wavelength
    depths = [d * lam for d in _sweep_values(depth_start_lambda, depth_stop_lambda, depth_step_lambda)]
    launch = launch_aperture(beams[beam_index], scenario.array, scenario.grid, lam)
    cascade = Cascade(scenario.grid, lam, scenario.obstacle if with_obstacle else None)
    return intensity_map(cascade, launch, depths)
