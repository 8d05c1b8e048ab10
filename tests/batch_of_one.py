"""Batch-of-one references for the package's batched paths.

The package scores beams, search candidates and operating points only in
batches: beam_responses maps many weight rows through one physical
channel, optimizer._score_chunk scores a chunk of cubic-beam designs, and
precoding.batch_metrics scores a stack of effective channels. Each
function here runs one of those paths on a batch of one, which is the
single-item value a test compares against:

* beam_column: the per-user response of one analog beam,
  beam_responses(diffraction_channel(s).entries, w[None], scale)[0];
* evaluate_candidate: (sum rate, |h11|^2) of one design for the shadowed
  user against the bright user's traditional beam, _score_chunk on a chunk
  of one;
* metrics_of_one: the MetricsRecord of one effective channel and analog
  matrix, batch_metrics then metrics_row on a batch of one.

A batched caller must give every item exactly these bits.
"""

from __future__ import annotations

import numpy as np

from airylink import MetricsRecord, ScenarioConfig, diffraction_channel
from airylink.beams import AiryParams
from airylink.channels import ChannelMatrix, beam_responses
from airylink.optimizer import _bright_beam, _one_design, _score_chunk
from airylink.precoding import _stack, batch_metrics, metrics_row


def beam_column(scenario: ScenarioConfig, weights, scale: complex = 1.0 + 0.0j) -> np.ndarray:
    """Per-user complex response of one analog beam (length K):
    scale * H_phys @ weights with H_phys = diffraction_channel(scenario)."""
    w = np.asarray(weights, dtype=complex)
    return beam_responses(diffraction_channel(scenario).entries, w[None], scale)[0]


def evaluate_candidate(scenario: ScenarioConfig, params: AiryParams,
                       scale: complex = 1.0 + 0.0j) -> tuple:
    """(sum rate, |h11|^2) of one cubic-beam design for the shadowed user,
    paired with the bright user's traditional beam: the search's chunk
    scorer on a chunk of one."""
    h_phys = diffraction_channel(scenario).entries
    w2, h2 = _bright_beam(scenario, h_phys, scale)
    rates, h11_power = _score_chunk(scenario, h_phys, _one_design(params), w2, h2, scale)
    return float(rates[0]), float(h11_power[0])


def metrics_of_one(h_eff: ChannelMatrix, w_rf, tx_power: float, epsilon: float,
                   noise_power: float) -> MetricsRecord:
    """Post-RZF link metrics of one effective channel: batch_metrics and
    metrics_row on a batch of one."""
    m, sigma, _ = batch_metrics(_stack(h_eff.entries), _stack(w_rf), tx_power, epsilon,
                                noise_power)
    return metrics_row(m, sigma, 0)
