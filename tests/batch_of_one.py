"""Batch-of-one references for the package's batched paths.

The package scores beams, search candidates and operating points only in
batches: beam_responses maps many weight rows through one physical
channel, the search's optimizer._score_beams scores a chunk of cubic-beam
designs, and precoding.batch_metrics scores a stack of effective channels
with their beam rows. Each function here runs one of those paths on
a batch of one, which is the single-item value a test compares against:

* beam_column: the per-user response of one analog beam,
  beam_responses(diffraction_channel(s), w[None])[:, 0];
* focus_row: the focusing beam toward one target, traditional_focus_rows
  on a batch of one;
* bright_beam: the bright user's focusing beam and its effective column,
  beam_responses on one beam;
* evaluate_candidate: (sum rate, |h11|^2) of one design for the shadowed
  user against the bright user's traditional beam, score_designs (the
  search's _score_beams on each design's one-row cubic weights) on a
  chunk of one, on the diffraction rows times a calibration constant as
  the search calibrates them;
* metrics_of_one: the metrics of one effective channel and its beam rows,
  row 0 of batch_metrics' columns on a batch of one;
* rzf_of_one: the baseband precoder W_BB of one effective channel and
  its beam rows from batch_metrics on a batch of one, with alpha, the
  product H_eff W_BB and the power achieved_power gives it: the RZF that
  every sweep scores through.

The channel builders and build_codebook serve every user in one call,
and the sweeps build every point's user rows, beams and effective channels
as stacked arrays. The per-user and per-point loops they replaced are kept
here as their reference; the point loops return the (effective channels,
beam rows) that the sweep scores, value-major with the strategies
interleaved:

* greens_rows_of_one: the closed-form channel built one user row at a time;
* diffraction_rows_of_one: the diffraction channel one user at a time,
  each row from a fresh one-user call (its own Cascade);
* focus_of_one: the focusing weights toward one target;
* design_params, beam_of_one, codebook_of_one: a curved strategy's cubic
  design aimed at one user (its geometric angle plus the design's offset),
  one user's row of a build_codebook strategy from the one-beam
  focus_row or airy_weights (the cubic design for a shadowed user
  under a curved strategy, the focus otherwise), and the row stack of
  every user's;
* baseline_points, shadow_points, robustness_points: one point at a time,
  with per-user rows, per-user beams and a product per strategy.

A batched caller must give every item exactly these bits, on the bundled
scenarios and on jittered ones, whose users sit off the wavelength grid.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from airylink import (ScenarioConfig, UserPosition, airy_weights, classify_user,
                      diffraction_channel, geometric_angle, remark1_calibration)
from airylink.beams import DESIGNS, AiryParams, airy_axis_rows, traditional_focus_rows
from airylink.channels import beam_responses
from airylink.optimizer import _score_beams
from airylink.precoding import achieved_power, batch_metrics


def beam_column(scenario: ScenarioConfig, weights) -> np.ndarray:
    """Per-user complex response of one analog beam (length K):
    H_phys @ weights with H_phys = diffraction_channel(scenario)."""
    w = np.asarray(weights, dtype=complex)
    return beam_responses(diffraction_channel(scenario), w[None])[:, 0]


def focus_row(array, carrier, target: UserPosition) -> np.ndarray:
    """The N focusing weights toward one target: the one row of
    traditional_focus_rows on that target alone."""
    return traditional_focus_rows(array, carrier, (target.x,), (target.z,))[0]


def bright_beam(scenario: ScenarioConfig, h_phys: np.ndarray) -> tuple:
    """The bright user's (user 1's) focusing beam w2 and its effective
    column H_phys @ w2, formed alone."""
    w2 = focus_row(scenario.array, scenario.carrier, scenario.users[1])
    return w2, beam_responses(h_phys, w2[None])[:, 0]


def score_designs(scenario: ScenarioConfig, h_phys: np.ndarray, designs, w2: np.ndarray,
                  h2: np.ndarray) -> tuple:
    """(sum rates, |h11|^2 values) of the cubic designs given as (bending,
    focal, launch angle) columns, each paired with the bright user's beam
    w2 (effective column h2): _score_beams on each design's row from
    airy_axis_rows on its own one-point axes, which a search chunk's
    tables reproduce bit for bit. One call per design keeps the tables
    at one row each: the columns of C distinct designs as axes would span
    C x C tables."""
    w1 = np.array([airy_axis_rows(scenario.array, scenario.carrier, (b,), (f,), (theta,))(0, 0, 0)
                   for b, f, theta in zip(*designs)])
    return _score_beams(scenario, h_phys, designs, w1, w2, h2)


def evaluate_candidate(scenario: ScenarioConfig, params: AiryParams,
                       scale: complex = 1.0 + 0.0j) -> tuple:
    """(sum rate, |h11|^2) of one cubic-beam design for the shadowed user,
    paired with the bright user's traditional beam: the search's chunk
    scorer on a chunk of one, on the rows scale * diffraction_channel."""
    h_phys = scale * diffraction_channel(scenario)
    w2, h2 = bright_beam(scenario, h_phys)
    designs = (params.bending,), (params.focal,), (params.launch_angle,)
    rates, h11_power = score_designs(scenario, h_phys, designs, w2, h2)
    return float(rates[0]), float(h11_power[0])


def _one(matrix) -> np.ndarray:
    """One matrix as a contiguous batch of one, the layout the batched
    routines see for every candidate of a larger batch."""
    return np.ascontiguousarray(np.asarray(matrix, dtype=complex)[None])


def metrics_of_one(h_eff, beams, tx_power: float, epsilon: float,
                   noise_power: float) -> dict:
    """Post-RZF link metrics of one effective channel and its beam rows,
    {name: column[0]} of batch_metrics on a batch of one."""
    m, _ = batch_metrics(_one(h_eff), _one(beams), tx_power, epsilon, noise_power)
    return {name: column[0] for name, column in m.items()}


def rzf_of_one(h_eff, beams, tx_power: float, epsilon: float) -> SimpleNamespace:
    """The RZF of one 2 x 2 effective channel and its 2 x N beam rows,
    from batch_metrics and achieved_power on a batch of one: baseband
    (W_BB), alpha (real positive; sqrt of alpha^2 gives back alpha's
    bits), product_check (H_eff W_BB) and achieved_power
    (||W_RF W_BB||_F^2). The noise power only scales metrics this does not
    read."""
    h, w = _one(h_eff), _one(beams)
    m, w_bb = batch_metrics(h, w, tx_power, epsilon, noise_power=1.0)
    return SimpleNamespace(baseband=w_bb[0], alpha=math.sqrt(m["alpha_power"][0]),
                           product_check=h[0] @ w_bb[0],
                           achieved_power=float(achieved_power(w, w_bb)[0]))


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


def design_params(strategy: str, user: UserPosition) -> AiryParams:
    """The cubic design of a curved strategy (beams.DESIGNS) aimed at one
    user: launched at its geometric angle plus the design's offset."""
    bending, focal, offset_deg = DESIGNS[strategy]
    return AiryParams(bending, focal, geometric_angle(user) + math.radians(offset_deg))


def beam_of_one(scenario: ScenarioConfig, strategy: str, user: UserPosition) -> np.ndarray:
    """One user's row of a build_codebook strategy, built alone: under
    'airy_geo' or 'airy_opt' a shadowed user gets design_params' cubic
    beam, and every other user gets the focusing beam."""
    if (strategy in DESIGNS and scenario.obstacle is not None
            and classify_user(user, scenario.obstacle) == "shadowed"):
        return airy_weights(scenario.array, scenario.carrier, design_params(strategy, user))
    return focus_row(scenario.array, scenario.carrier, user)


def codebook_of_one(scenario: ScenarioConfig, strategy: str) -> np.ndarray:
    """The K x N row stack of every user's beam_of_one."""
    return np.array([beam_of_one(scenario, strategy, u) for u in scenario.users])


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


def _stacked(h_eff: list, beams: list) -> tuple:
    return (np.ascontiguousarray(h_eff, dtype=complex),
            np.ascontiguousarray(beams, dtype=complex))


def baseline_points(scenario: ScenarioConfig, xs_lambda) -> tuple:
    """run_baseline_scan's channels, one point at a time: user 2 at
    x = x2 * lambda, a Green's-model matrix and one beam_responses product
    per point."""
    lam = scenario.carrier.wavelength
    u1 = scenario.users[0]
    h_eff, beams = [], []
    for x2_lambda in xs_lambda:
        point = scenario.with_users((u1, _moved(scenario, x2_lambda * lam)))
        w = codebook_of_one(point, "trad_all")
        h_eff.append(beam_responses(greens_rows_of_one(point), w))
        beams.append(w)
    return _stacked(h_eff, beams)


def shadow_points(scenario: ScenarioConfig, xs_lambda) -> tuple:
    """run_shadow_scan's channels, one point and strategy at a time."""
    lam = scenario.carrier.wavelength
    scale, _ = remark1_calibration(scenario)
    u1 = scenario.users[0]
    h_eff, beams = [], []
    for x2_lambda in xs_lambda:
        point = scenario.with_users((u1, _moved(scenario, x2_lambda * lam)))
        h_phys = scale * diffraction_rows_of_one(point)
        for name in ("trad_all", "airy_geo"):
            w = codebook_of_one(point, name)
            h_eff.append(beam_responses(h_phys, w))
            beams.append(w)
    return _stacked(h_eff, beams)


def robustness_points(scenario: ScenarioConfig, dxs_lambda) -> tuple:
    """run_robustness_sweep's channels, one point and strategy at a time."""
    lam = scenario.carrier.wavelength
    scale, _ = remark1_calibration(scenario)
    books = [codebook_of_one(scenario, name) for name in ("trad_all", "airy_geo", "airy_opt")]
    u1, u2 = scenario.users
    h_eff = []
    for dx_lambda in dxs_lambda:
        point = scenario.with_users((u1, _moved(scenario, u2.x + dx_lambda * lam)))
        h_phys = scale * diffraction_rows_of_one(point)
        h_eff += [beam_responses(h_phys, book) for book in books]
    return _stacked(h_eff, [book for _ in dxs_lambda for book in books])
