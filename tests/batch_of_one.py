"""Batch-of-one references for the package's batched paths.

The package scores beams, search candidates and operating points only in
batches: beam_responses maps many weight rows through one physical
channel, optimizer._score_chunk scores a chunk of cubic-beam designs, and
precoding.batch_metrics scores a stack of effective channels. Each
function here runs one of those paths on a batch of one, which is the
single-item value a test compares against:

* beam_column: the per-user response of one analog beam,
  beam_responses(diffraction_channel(s), w[None], scale)[0];
* evaluate_candidate: (sum rate, |h11|^2) of one design for the shadowed
  user against the bright user's traditional beam, _score_chunk on a chunk
  of one;
* metrics_of_one: the metrics of one effective channel and analog matrix,
  row 0 of batch_metrics' columns on a batch of one (scored through the
  matrix's analog_gram).

The channel builders and build_codebook serve every user in one call,
and the sweeps build every point's user rows, beams and effective channels
as stacked arrays. The per-user and per-point loops they replaced are kept
here as their reference; the point loops return the (effective channels,
analog matrices) that the sweep scores, value-major with the strategies
interleaved:

* greens_rows_of_one: the closed-form channel built one user row at a time;
* diffraction_rows_of_one: the diffraction channel one user at a time,
  each row from a fresh one-user call (its own Cascade);
* focus_of_one: the focusing weights toward one target;
* beam_of_one, codebook_of_one: one user's column of a build_codebook
  strategy from the one-beam traditional_focus or airy_weights, and the
  column stack of every user's;
* baseline_points, shadow_points, robustness_points: one point at a time,
  with per-user rows, per-user beams and a product per strategy.

A batched caller must give every item exactly these bits, on the bundled
scenarios and on jittered ones, whose users sit off the wavelength grid.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from airylink import (ScenarioConfig, UserPosition, airy_weights, classify_user,
                      diffraction_channel, geometric_angle, geometric_baseline_params,
                      remark1_calibration, traditional_focus)
from airylink.beams import AiryParams
from airylink.channels import beam_responses, effective_channel
from airylink.experiments import _published_opt_params
from airylink.optimizer import _bright_beam, _one_design, _score_chunk
from airylink.precoding import _stack, analog_gram, batch_metrics


def beam_column(scenario: ScenarioConfig, weights, scale: complex = 1.0 + 0.0j) -> np.ndarray:
    """Per-user complex response of one analog beam (length K):
    scale * H_phys @ weights with H_phys = diffraction_channel(scenario)."""
    w = np.asarray(weights, dtype=complex)
    return beam_responses(diffraction_channel(scenario), w[None], scale)[:, 0]


def evaluate_candidate(scenario: ScenarioConfig, params: AiryParams,
                       scale: complex = 1.0 + 0.0j) -> tuple:
    """(sum rate, |h11|^2) of one cubic-beam design for the shadowed user,
    paired with the bright user's traditional beam: the search's chunk
    scorer on a chunk of one."""
    h_phys = diffraction_channel(scenario)
    w2, h2 = _bright_beam(scenario, h_phys, scale)
    rates, h11_power = _score_chunk(scenario, h_phys, _one_design(params), w2, h2, scale)
    return float(rates[0]), float(h11_power[0])


def metrics_of_one(h_eff, w_rf, tx_power: float, epsilon: float,
                   noise_power: float) -> dict:
    """Post-RZF link metrics of one effective channel and its analog
    matrix, {name: column[0]} of batch_metrics on a batch of one."""
    w = _stack(w_rf)
    m, _ = batch_metrics(_stack(h_eff), analog_gram(w[..., 0], w[..., 1]), tx_power, epsilon,
                         noise_power)
    return {name: column[0] for name, column in m.items()}


def greens_rows_of_one(scenario: ScenarioConfig) -> np.ndarray:
    """The closed-form K x N channel, h = lambda/(4 pi r) e^{-j k0 r}, one
    user row at a time."""
    lam = scenario.carrier.wavelength
    k0 = scenario.carrier.wavenumber
    xs = scenario.array.element_x()
    rows = []
    for u in scenario.users:
        r = np.hypot(xs - u.x, u.z)
        rows.append(lam / (4.0 * math.pi * r) * np.exp(-1j * k0 * r))
    return np.vstack(rows)


def diffraction_rows_of_one(scenario: ScenarioConfig) -> np.ndarray:
    """The diffraction-model K x N channel, each user's row from its own
    one-user diffraction_channel call."""
    return np.vstack([diffraction_channel(scenario.with_users((u,))) for u in scenario.users])


def focus_of_one(scenario: ScenarioConfig, target: UserPosition) -> np.ndarray:
    """Focusing weights toward one target, (1/sqrt(N)) e^{+j k0 r_n}."""
    r = np.hypot(scenario.array.element_x() - target.x, target.z)
    return np.exp(1j * scenario.carrier.wavenumber * r) / math.sqrt(scenario.array.n)


def beam_of_one(scenario: ScenarioConfig, strategy: str, user: UserPosition,
                airy_params: AiryParams | None = None) -> np.ndarray:
    """One user's column of a build_codebook strategy, built alone:
    'airy_geo' aims the cubic beam at the user's geometric angle, 'mixed'
    gives a shadowed user the cubic beam verbatim, and every other user
    gets the focusing beam."""
    if strategy == "airy_geo":
        aimed = replace(airy_params, launch_angle=geometric_angle(user))
        return airy_weights(scenario.array, scenario.carrier, aimed)
    if strategy == "mixed" and classify_user(user, scenario.obstacle,
                                             scenario.array) == "shadowed":
        return airy_weights(scenario.array, scenario.carrier, airy_params)
    return traditional_focus(scenario.array, scenario.carrier, user)


def codebook_of_one(scenario: ScenarioConfig, strategy: str,
                    airy_params: AiryParams | None = None) -> np.ndarray:
    """The N x K column stack of every user's beam_of_one."""
    return np.column_stack([beam_of_one(scenario, strategy, u, airy_params)
                            for u in scenario.users])


def jittered(scenario: ScenarioConfig, rng, lam: float) -> ScenarioConfig:
    """The scenario with each user moved off the wavelength grid, within
    +/-0.5 lambda in x and +/-5 lambda in z (no user changes side of the
    knife edge's shadow boundary)."""
    return scenario.with_users(tuple(
        UserPosition(u.x + rng.uniform(-0.5, 0.5) * lam, u.z + rng.uniform(-5.0, 5.0) * lam,
                     u.label)
        for u in scenario.users))


def _moved(scenario: ScenarioConfig, x: float) -> UserPosition:
    u2 = scenario.users[1]
    return UserPosition(x=x, z=u2.z, label=u2.label)


def _stacked(h_eff: list, w_rf: list) -> tuple:
    return (np.ascontiguousarray(h_eff, dtype=complex),
            np.ascontiguousarray(w_rf, dtype=complex))


def baseline_points(scenario: ScenarioConfig, xs_lambda) -> tuple:
    """run_baseline_scan's channels, one point at a time: user 2 at
    x = x2 * lambda, a Green's-model matrix and one effective_channel per
    point."""
    lam = scenario.carrier.wavelength
    u1 = scenario.users[0]
    h_eff, w_rf = [], []
    for x2_lambda in xs_lambda:
        point = scenario.with_users((u1, _moved(scenario, x2_lambda * lam)))
        w = codebook_of_one(point, "trad_all")
        h_eff.append(effective_channel(greens_rows_of_one(point), w))
        w_rf.append(w)
    return _stacked(h_eff, w_rf)


def shadow_points(scenario: ScenarioConfig, xs_lambda) -> tuple:
    """run_shadow_scan's channels, one point and strategy at a time."""
    lam = scenario.carrier.wavelength
    geo = geometric_baseline_params(scenario)
    scale, _ = remark1_calibration(scenario.without_obstacle())
    u1 = scenario.users[0]
    h_eff, w_rf = [], []
    for x2_lambda in xs_lambda:
        point = scenario.with_users((u1, _moved(scenario, x2_lambda * lam)))
        h_phys = diffraction_rows_of_one(point)
        for name in ("trad_all", "airy_geo"):
            w = codebook_of_one(point, name, geo)
            h_eff.append(effective_channel(h_phys, w, scale))
            w_rf.append(w)
    return _stacked(h_eff, w_rf)


def robustness_points(scenario: ScenarioConfig, dxs_lambda) -> tuple:
    """run_robustness_sweep's channels, one point and strategy at a time."""
    lam = scenario.carrier.wavelength
    scale, _ = remark1_calibration(scenario.without_obstacle())
    geo = geometric_baseline_params(scenario)
    books = [
        codebook_of_one(scenario, "trad_all"),
        codebook_of_one(scenario, "mixed", geo),
        codebook_of_one(scenario, "mixed", _published_opt_params(scenario)),
    ]
    u1, u2 = scenario.users
    h_eff = []
    for dx_lambda in dxs_lambda:
        point = scenario.with_users((u1, _moved(scenario, u2.x + dx_lambda * lam)))
        h_phys = diffraction_rows_of_one(point)
        h_eff += [effective_channel(h_phys, book, scale) for book in books]
    return _stacked(h_eff, [book for _ in dxs_lambda for book in books])
