"""Deterministic scenario runners.

Each runner turns one scenario family into a tabular sweep:

* baseline_scan   -- free space, closed-form channels; scan the second
                     user laterally to map how user proximity degrades the
                     zero-forcing inversion (condition number, SINR, rate).
* shadow_scan     -- knife edge present, both users behind it; compare the
                     traditional codebook against curved beams as the deep
                     user walks from shadow center toward the lit edge.
* mixed_optimization -- one shadowed and one bright user; run the
                     coarse-to-fine beam search, a diagnostic angle-offset
                     sweep around the winner, and a transverse field cut
                     comparing the winning beam to the geometric one.
* robustness_sweep -- fix all beams at their nominal designs, displace the
                     bright user, and measure how each strategy degrades.

Every runner is pure given its config: identical inputs produce identical
outputs (and therefore byte-identical CSVs downstream). Sweep points run
serially, in sweep order. The shadow scan and the robustness sweep build
their diffraction channels through one channel builder per call, so the
cascade factors and the fixed user's row are built once per sweep; the
mixed-optimization angle sweep runs on one precomputed channel matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beams import AiryParams, airy_weights, build_codebook, traditional_focus
from .channels import (
    ChannelMatrix,
    _channel_builder,
    diffraction_channel,
    effective_channel,
    effective_channel_greens,
    greens_channel,
    remark1_calibration,
)
from .errors import AirylinkError, ConfigError
from .geometry import ScenarioConfig, UserPosition, geometric_angle
from .optimizer import (
    SearchGrids,
    SearchOutcome,
    coarse_to_fine_search,
    default_search_grids,
    geometric_baseline_params,
)
from .precoding import MetricsRecord, link_metrics, rzf_precoder
from .propagation import (
    IntensityMap,
    grid_x,
    intensity_map,
    launch_aperture,
    propagate_blocked,
)

__all__ = [
    "SweepResult",
    "FieldCut",
    "MixedOptimizationResult",
    "PUBLISHED_OPT",
    "run_baseline_scan",
    "run_shadow_scan",
    "run_mixed_optimization",
    "run_robustness_sweep",
    "run_fieldmap",
]

# Reference tuned design for the mixed scenario: reused as the frozen
# comparator in the robustness sweep (angle offset relative to geometric).
PUBLISHED_OPT = {"bending": -44.0, "focal": 1.50, "dtheta_deg": -2.9}

_POWER_RTOL = 1e-9


@dataclass(frozen=True)
class SweepResult:
    """One sweep: per point, one MetricsRecord per strategy (never ragged)."""

    sweep_variable: str
    strategies: tuple
    points: tuple  # of (value, {strategy: MetricsRecord})

    def __post_init__(self):
        values = [v for v, _ in self.points]
        if values != sorted(values):
            raise AirylinkError("sweep points must be sorted by sweep value")
        for v, recs in self.points:
            if set(recs) != set(self.strategies):
                raise AirylinkError(
                    f"point {v} missing strategies: have {sorted(recs)}, "
                    f"want {sorted(self.strategies)}"
                )

    def series(self, strategy: str, attr: str) -> np.ndarray:
        """Convenience column extraction: one metric across the sweep."""
        return np.array([getattr(recs[strategy], attr) for _, recs in self.points])

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.points])


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
    calibration_scale: complex
    calibration_residual: float


def _assert_point_invariants(scenario: ScenarioConfig, achieved_power: float,
                             record: MetricsRecord) -> None:
    """Inline invariants every sweep point must satisfy (CLI exit gate)."""
    rel = abs(achieved_power - scenario.tx_power) / scenario.tx_power
    if rel > _POWER_RTOL:
        raise AirylinkError(
            f"power normalization violated: |W_RF W_BB|_F^2 off by {rel:.3e} relative"
        )
    if not record.singular and record.condition_number < 1.0:
        raise AirylinkError(
            f"condition number {record.condition_number} < 1; singular values disordered"
        )


def _metrics_for(scenario: ScenarioConfig, h_eff: ChannelMatrix,
                 w_rf: np.ndarray) -> MetricsRecord:
    pre = rzf_precoder(h_eff, w_rf, scenario.tx_power, scenario.rzf_epsilon)
    rec = link_metrics(h_eff, pre, scenario.noise_power)
    _assert_point_invariants(scenario, pre.achieved_power, rec)
    return rec


def _sweep_values(start: float, stop: float, step: float) -> list:
    """Inclusive arithmetic progression built from integer multiples, so the
    endpoint lands exactly and values are reproducible bit for bit."""
    if not (math.isfinite(step) and step > 0):
        raise ConfigError(f"sweep step must be a positive finite number, got {step}")
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
    with the all-traditional codebook rebuilt at every scan position.
    """
    if scenario.obstacle is not None:
        raise ConfigError("baseline scan is a free-space experiment; remove the obstacle")
    if scenario.k != 2:
        raise ConfigError(f"baseline scan expects exactly 2 users, got {scenario.k}")
    lam = scenario.carrier.wavelength
    xs = _sweep_values(start_lambda, stop_lambda, step_lambda)

    def point(x2_lambda: float):
        u2 = scenario.users[1]
        moved = UserPosition(x=x2_lambda * lam, z=u2.z, label=u2.label)
        s = scenario.with_users((scenario.users[0], moved))
        book = build_codebook(s, "trad_all")
        h_eff = effective_channel_greens(greens_channel(s), book.matrix)
        return _metrics_for(s, h_eff, book.matrix)

    points = tuple((x, {"trad_all": point(x)}) for x in xs)
    return SweepResult(sweep_variable="x2_lambda", strategies=("trad_all",), points=points)


def run_shadow_scan(
    scenario: ScenarioConfig,
    step_lambda: float = 0.5,
    start_lambda: float = -15.0,
    stop_lambda: float = -1.0,
    geo_params: AiryParams | None = None,
) -> SweepResult:
    """Blocked two-user scan comparing traditional and curved codebooks.

    Channels come from the diffraction model (calibrated once against the
    obstacle-free closed form); the curved codebook re-aims per user at
    each scan position via the geometric angle.
    """
    if scenario.obstacle is None:
        raise ConfigError("shadow scan needs an obstacle in the scenario")
    if scenario.k != 2:
        raise ConfigError(f"shadow scan expects exactly 2 users, got {scenario.k}")
    lam = scenario.carrier.wavelength
    if geo_params is None:
        geo_params = geometric_baseline_params(scenario)
    scale, _residual = remark1_calibration(scenario.without_obstacle())
    xs = _sweep_values(start_lambda, stop_lambda, step_lambda)
    channel = _channel_builder(scenario)

    def point(x2_lambda: float):
        u2 = scenario.users[1]
        moved = UserPosition(x=x2_lambda * lam, z=u2.z, label=u2.label)
        s = scenario.with_users((scenario.users[0], moved))
        h_phys = channel(s.users)
        out = {}
        for name, strategy in (("trad_all", "trad_all"), ("airy_geo", "airy_geo")):
            book = build_codebook(s, strategy, airy_params=geo_params)
            h_eff = effective_channel(h_phys, book.matrix, scale)
            out[name] = _metrics_for(s, h_eff, book.matrix)
        return out

    points = tuple((x, point(x)) for x in xs)
    return SweepResult(
        sweep_variable="x2_lambda", strategies=("trad_all", "airy_geo"), points=points
    )


def run_mixed_optimization(
    scenario: ScenarioConfig,
    grids: SearchGrids | None = None,
    eta: float = 0.4,
    dtheta_step_deg: float = 0.1,
) -> MixedOptimizationResult:
    """Search the curved-beam parameters for the shadowed user, then
    characterize the winner: an angle-offset sweep at the winning
    (bending, focal) and a transverse field cut at the bright user's depth
    comparing the winner against the geometric design."""
    if grids is None:
        grids = default_search_grids()
    # Angle-offset diagnostic around the winner, at the winning (bending,
    # focal); its axis is checked before the search runs.
    lo = math.degrees(grids.coarse_dtheta[0])
    hi = math.degrees(grids.coarse_dtheta[-1])
    dthetas = _sweep_values(lo, hi, dtheta_step_deg)

    scale, residual = remark1_calibration(scenario.without_obstacle())
    outcome = coarse_to_fine_search(scenario, grids, eta=eta, scale=scale)

    theta_geo = geometric_angle(scenario.users[0])
    w2 = traditional_focus(scenario.array, scenario.carrier, scenario.users[1]).weights
    h_phys = diffraction_channel(scenario)

    def point(dtheta_deg: float):
        params = AiryParams(
            bending=outcome.best_params.bending,
            focal=outcome.best_params.focal,
            launch_angle=theta_geo + math.radians(dtheta_deg),
        )
        w1 = airy_weights(scenario.array, scenario.carrier, params).weights
        w_rf = np.column_stack([w1, w2])
        h_eff = effective_channel(h_phys, w_rf, scale)
        return {"airy_best_bf": _metrics_for(scenario, h_eff, w_rf)}

    sweep = SweepResult(
        sweep_variable="dtheta_deg",
        strategies=("airy_best_bf",),
        points=tuple((d, point(d)) for d in dthetas),
    )

    cut = _field_cut(
        scenario,
        reference=geometric_baseline_params(scenario),
        tuned=outcome.best_params,
        cut_depth=scenario.users[1].z,
    )
    return MixedOptimizationResult(
        search=outcome,
        dtheta_sweep=sweep,
        field_cut=cut,
        calibration_scale=scale,
        calibration_residual=residual,
    )


def _field_cut(
    scenario: ScenarioConfig,
    reference: AiryParams,
    tuned: AiryParams,
    cut_depth: float,
) -> FieldCut:
    """Propagate two candidate beams for the shadowed user to `cut_depth`
    and compare their intensity profiles on a shared dB scale."""
    lam = scenario.carrier.wavelength
    profiles = []
    for params in (reference, tuned):
        w = airy_weights(scenario.array, scenario.carrier, params)
        launch = launch_aperture(w.weights, scenario.array, scenario.grid, lam)
        out = propagate_blocked(launch, scenario.obstacle, cut_depth, lam)
        profiles.append(np.abs(out.samples) ** 2)
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


def _published_opt_params(scenario: ScenarioConfig) -> AiryParams:
    return AiryParams(
        bending=PUBLISHED_OPT["bending"],
        focal=PUBLISHED_OPT["focal"],
        launch_angle=geometric_angle(scenario.users[0])
        + math.radians(PUBLISHED_OPT["dtheta_deg"]),
    )


def run_robustness_sweep(
    scenario: ScenarioConfig,
    step_lambda: float = 0.25,
    span_lambda: float = 3.0,
) -> SweepResult:
    """Positioning-error sweep: all beams stay designed for the nominal
    user positions while the bright user's true position is displaced by
    dx2; only the true-position channel is rebuilt per point."""
    if scenario.obstacle is None:
        raise ConfigError("robustness sweep needs the obstructed mixed scenario")
    if scenario.k != 2:
        raise ConfigError(f"robustness sweep expects exactly 2 users, got {scenario.k}")
    lam = scenario.carrier.wavelength
    scale, _residual = remark1_calibration(scenario.without_obstacle())

    # Nominal-design codebooks, frozen for the whole sweep.
    geo = geometric_baseline_params(scenario)
    books = {
        "trad_all": build_codebook(scenario, "trad_all").matrix,
        "airy_geo": build_codebook(scenario, "mixed", airy_params=geo).matrix,
        "airy_opt": build_codebook(
            scenario, "mixed", airy_params=_published_opt_params(scenario)
        ).matrix,
    }
    strategies = ("trad_all", "airy_geo", "airy_opt")
    dxs = _sweep_values(-span_lambda, span_lambda, step_lambda)
    channel = _channel_builder(scenario)

    def point(dx_lambda: float):
        u2 = scenario.users[1]
        moved = UserPosition(x=u2.x + dx_lambda * lam, z=u2.z, label=u2.label)
        s = scenario.with_users((scenario.users[0], moved))
        h_phys = channel(s.users)
        out = {}
        for name in strategies:
            h_eff = effective_channel(h_phys, books[name], scale)
            out[name] = _metrics_for(s, h_eff, books[name])
        return out

    return SweepResult(
        sweep_variable="dx2_lambda",
        strategies=strategies,
        points=tuple((dx, point(dx)) for dx in dxs),
    )


def run_fieldmap(
    scenario: ScenarioConfig,
    strategy: str,
    beam_index: int = 0,
    depth_start_lambda: float = 10.0,
    depth_stop_lambda: float = 400.0,
    depth_step_lambda: float = 2.0,
    with_obstacle: bool = True,
) -> IntensityMap:
    """Intensity map of one codebook column over a range of depths.

    strategy: 'trad_all', 'airy_geo', or 'airy_opt' (the latter two build
    the mixed-codebook curved beam for the shadowed user). beam_index
    selects whose beam to map.
    """
    if strategy == "trad_all":
        book = build_codebook(scenario, "trad_all")
    elif strategy == "airy_geo":
        book = build_codebook(
            scenario, "mixed", airy_params=geometric_baseline_params(scenario)
        )
    elif strategy == "airy_opt":
        book = build_codebook(
            scenario, "mixed", airy_params=_published_opt_params(scenario)
        )
    else:
        raise ConfigError(f"unknown fieldmap strategy {strategy!r}")
    if not 0 <= beam_index < len(book.beams):
        raise ConfigError(f"beam index {beam_index} out of range for K={len(book.beams)}")
    lam = scenario.carrier.wavelength
    depths = [d * lam for d in _sweep_values(depth_start_lambda, depth_stop_lambda, depth_step_lambda)]
    launch = launch_aperture(
        book.beams[beam_index].weights, scenario.array, scenario.grid, lam
    )
    obstacle = scenario.obstacle if with_obstacle else None
    return intensity_map(launch, obstacle, depths, lam)
