"""Digital baseband stage: regularized zero-forcing and link metrics.

One code path covers both plain zero-forcing (epsilon = 0, exact channel
inversion) and its regularized variant: the unnormalized precoder is

    W~ = H^H (H H^H + epsilon I)^(-1)

followed by a total-power normalization alpha = sqrt(P_tx / ||W_RF W~||_F^2),
W_BB = alpha W~. With epsilon = 0 the product H W_BB is exactly alpha I, so
every user sees the same post-precoding gain and the common SINR is
|alpha|^2 / noise_power. The condition number of the effective channel is
the diagnostic that predicts when that inversion becomes power-hungry:
near-parallel user columns push sigma_min toward zero and alpha collapses.

The arithmetic runs over a leading candidate axis: every sweep scores all
its channels in one batch_metrics call, metrics_row builds each
MetricsRecord from it, and rzf_precoder is a batch-of-one view of the same
RZF routine, so a channel gets the same bits alone or in a batch. The beam
search only ranks rates, so it scores each chunk through batch_sum_rates:
the RZF and sum-rate arithmetic of batch_metrics (_sinr_and_rate), without
kappa, SINR in dB or coupling powers, and without the singular values
except for the epsilon = 0 guard or to report sigma_min on the zero-power
error. The realized power ||W_RF W_BB||_F^2 is its own step
(achieved_power): the sweeps check it at every point and rzf_precoder
reports it, while the search skips it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AirylinkError, SingularChannelError
from .channels import ChannelMatrix

__all__ = [
    "PrecodingResult",
    "MetricsRecord",
    "rzf_precoder",
    "batch_metrics",
    "batch_sum_rates",
    "achieved_power",
    "metrics_row",
]

# Relative sigma_min below which an epsilon = 0 inversion is refused.
_SINGULAR_RCOND = 1e-13


@dataclass(frozen=True)
class PrecodingResult:
    """Baseband precoder W_BB (K x K), the power-normalization scalar alpha
    (real-positive by construction), the diagnostic product H_eff @ W_BB,
    and the transmit power actually realized (||W_RF W_BB||_F^2)."""

    baseband: np.ndarray
    alpha: float
    product_check: np.ndarray
    achieved_power: float


@dataclass(frozen=True)
class MetricsRecord:
    """All per-operating-point link metrics.

    singular_values are sorted descending; condition_number is
    sigma_max/sigma_min, or +inf (with `singular` set) when sigma_min
    underflows to zero. coupling_db holds 10*log10 |h_kj|^2 of the raw
    effective channel entries.
    """

    condition_number: float
    singular_values: tuple
    alpha_power: float
    common_sinr_db: float
    sum_rate: float
    coupling_db: np.ndarray
    singular: bool = False


def _stack(matrix) -> np.ndarray:
    """One matrix as a contiguous batch of one, the layout the batched
    routines see for every candidate of a larger batch."""
    return np.ascontiguousarray(np.asarray(matrix, dtype=complex)[None])


def _frobenius_sq(m: np.ndarray) -> np.ndarray:
    """||m_c||_F^2 for every matrix of a batch."""
    return (m.real**2 + m.imag**2).sum(axis=(-2, -1))


def _rzf_batch(h: np.ndarray, w: np.ndarray, tx_power: float, epsilon: float,
               sigma: np.ndarray | None = None) -> tuple:
    """RZF over a leading candidate axis: h is C x K x K, w is C x N x K and
    sigma the C x K singular values of h, or None to take them only where
    they are needed (the epsilon = 0 guard and the zero-power error).
    Returns (W_BB, alpha), one entry per candidate; raises for the first
    candidate whose inversion or power normalization is impossible."""
    k = h.shape[-1]
    if epsilon == 0.0:
        if sigma is None:
            sigma = np.linalg.svd(h, compute_uv=False)
        bad = sigma[:, -1] <= _SINGULAR_RCOND * sigma[:, 0]
        if bad.any():
            raise SingularChannelError(
                "effective channel is numerically singular; zero-forcing would "
                "divide by a vanishing singular value (use epsilon > 0 or change geometry)",
                sigma_min=float(sigma[np.argmax(bad), -1]),
            )
    h_herm = np.conj(h).swapaxes(-1, -2)
    gram = h @ h_herm + epsilon * np.eye(k)
    w_tilde = h_herm @ np.linalg.inv(gram)

    norm_sq = _frobenius_sq(w @ w_tilde)
    zero = norm_sq == 0.0
    if zero.any():
        if sigma is None:
            sigma = np.linalg.svd(h, compute_uv=False)
        raise SingularChannelError(
            "precoder is identically zero; cannot normalize transmit power",
            sigma_min=float(sigma[np.argmax(zero), -1]),
        )
    alpha = np.sqrt(tx_power / norm_sq)
    return alpha[:, None, None] * w_tilde, alpha


def achieved_power(w: np.ndarray, w_bb: np.ndarray) -> np.ndarray:
    """Transmit power ||W_RF W_BB||_F^2 actually realized by every candidate
    of a batch. Only callers that check or report it compute it; the beam
    search does not."""
    return _frobenius_sq(w @ w_bb)


def _sinr_and_rate(alpha: np.ndarray, noise_power: float, k: int) -> tuple:
    """Common SINR alpha^2 / noise_power and sum rate K log2(1 + SINR) of
    every candidate: the one formula behind batch_metrics and
    batch_sum_rates."""
    sinr = alpha**2 / noise_power
    return sinr, k * np.log2(1.0 + sinr)


def _metrics_batch(h: np.ndarray, alpha: np.ndarray, noise_power: float,
                   sigma: np.ndarray) -> dict:
    """Link metrics over a leading candidate axis (see MetricsRecord)."""
    singular = sigma[:, -1] == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(singular, math.inf, sigma[:, 0] / sigma[:, -1])
        sinr, sum_rate = _sinr_and_rate(alpha, noise_power, h.shape[-1])
        sinr_db = np.where(sinr > 0, 10.0 * np.log10(sinr), -math.inf)
        coupling_db = 10.0 * np.log10(np.abs(h) ** 2)
    return {
        "condition_number": kappa,
        "singular": singular,
        "alpha_power": alpha**2,
        "common_sinr_db": sinr_db,
        "sum_rate": sum_rate,
        "coupling_db": coupling_db,
    }


def batch_metrics(h: np.ndarray, w: np.ndarray, tx_power: float, epsilon: float,
                  noise_power: float) -> tuple:
    """Post-RZF metrics of every candidate in a batch: h is C x K x K
    effective channels, w the C x N x K analog matrices (both contiguous).
    Returns (metrics of _metrics_batch, singular values, W_BB); candidate c
    gets exactly the bits it gets in a batch of one, W_BB[c] is
    rzf_precoder's baseband precoder, and achieved_power(w, W_BB) is
    rzf_precoder's achieved power."""
    sigma = np.linalg.svd(h, compute_uv=False)
    w_bb, alpha = _rzf_batch(h, w, tx_power, epsilon, sigma)
    return _metrics_batch(h, alpha, noise_power, sigma), sigma, w_bb


def batch_sum_rates(h: np.ndarray, w: np.ndarray, tx_power: float, epsilon: float,
                    noise_power: float) -> np.ndarray:
    """Sum rate of every candidate in a batch, bit for bit
    batch_metrics(...)[0]["sum_rate"], with the same exceptions. The
    singular values are taken only for the epsilon = 0 guard or to report
    sigma_min when a precoder is identically zero."""
    _, alpha = _rzf_batch(h, w, tx_power, epsilon)
    return _sinr_and_rate(alpha, noise_power, h.shape[-1])[1]


def metrics_row(m: dict, sigma: np.ndarray, c: int) -> MetricsRecord:
    """Row c of a metrics batch as a MetricsRecord."""
    return MetricsRecord(
        condition_number=float(m["condition_number"][c]),
        singular_values=tuple(float(s) for s in sigma[c]),
        alpha_power=float(m["alpha_power"][c]),
        common_sinr_db=float(m["common_sinr_db"][c]),
        sum_rate=float(m["sum_rate"][c]),
        coupling_db=m["coupling_db"][c],
        singular=bool(m["singular"][c]),
    )


def rzf_precoder(
    h_eff: ChannelMatrix, w_rf: np.ndarray, tx_power: float, epsilon: float
) -> PrecodingResult:
    """Regularized zero-forcing with exact total-power normalization."""
    if h_eff.kind != "effective":
        raise AirylinkError("precoding expects an effective-kind channel matrix")
    if epsilon < 0:
        raise AirylinkError(f"epsilon must be nonnegative, got {epsilon}")
    if tx_power <= 0:
        raise AirylinkError(f"tx_power must be positive, got {tx_power}")
    h = _stack(h_eff.entries)
    k = h.shape[-1]
    w = _stack(w_rf)
    if w.shape[-1] != k:
        raise AirylinkError(f"analog matrix has {w.shape[-1]} beams, channel expects {k}")

    sigma = np.linalg.svd(h, compute_uv=False)
    w_bb, alpha = _rzf_batch(h, w, tx_power, epsilon, sigma)
    return PrecodingResult(
        baseband=w_bb[0],
        alpha=float(alpha[0]),
        product_check=h[0] @ w_bb[0],
        achieved_power=float(achieved_power(w, w_bb)[0]),
    )

