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

The model serves two users, so the RZF is written in closed form for a
2 x 2 effective channel H with D = det H. A = H H^H + epsilon I has

    det A = |D|^2 + epsilon ||H||_F^2 + epsilon^2,
    H^H adj(A) = conj(D) adj(H) + epsilon H^H,

(adj is linear on 2 x 2 matrices and H^H adj(H^H) = conj(D) I), and
W~ = H^H adj(A) / det A; with epsilon = 0 that is adj(H) / D = H^(-1).
The power normalization needs W_RF only through its 2 x 2 Gram matrix
G = W_RF^H W_RF (||w1||^2, ||w2||^2 and w1^H w2), which stays inside this
module: ||W_RF W~||_F^2 = sum_k w~_k^H G w~_k over the columns of W~. The
RZF forms no inverse, matrix product or N x 2 array, and refuses any
other number of users.

The arithmetic runs over a leading candidate axis, so a channel gets the
same bits alone or in a batch. Every sweep scores all its channels in one
batch_metrics call on their C x N x 2 analog matrices, whose metric
columns (one array per metric, one row per candidate) are the sweep. The
beam search only ranks rates, so it scores each chunk through
batch_sum_rates, on the candidates' beams and the one bright-user beam
they share: the RZF and sum-rate arithmetic of batch_metrics
(_sinr_and_rate), without kappa, SINR in dB or coupling powers, and
without the singular values except for the epsilon = 0 guard or to report
sigma_min on the zero-power error. The realized power ||W_RF W_BB||_F^2
is its own step (achieved_power), a product with W_RF itself: the sweeps
check it at every point, while the search skips it. No SVD sees a NaN or
an Inf: the channels are checked with channels.check_finite before each.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import check_finite
from .errors import AirylinkError, SingularChannelError

__all__ = [
    "batch_metrics",
    "batch_sum_rates",
    "achieved_power",
]

# Relative sigma_min below which an epsilon = 0 inversion is refused.
_SINGULAR_RCOND = 1e-13


def _frobenius_sq(m: np.ndarray) -> np.ndarray:
    """||m_c||_F^2 for every matrix of a batch."""
    return (m.real**2 + m.imag**2).sum(axis=(-2, -1))


def _analog_gram(first, second) -> np.ndarray:
    """The Gram matrix G = W_RF^H W_RF (C x 2 x 2) of every two-beam analog
    matrix W_RF = [w1 w2] of a batch, from its beams as rows: `first` is
    C x N and `second` C x N or one N-vector that every candidate shares.
    G holds ||w1||^2, ||w2||^2 and w1^H w2; every sum over the elements
    runs on contiguous rows in a fixed order, so a candidate gets the same
    bits alone or in a batch."""
    first = np.ascontiguousarray(first, dtype=complex)
    second = np.ascontiguousarray(second, dtype=complex)
    gram = np.empty((len(first), 2, 2), dtype=complex)
    gram[:, 0, 0] = (first.real**2 + first.imag**2).sum(axis=-1)
    gram[:, 1, 1] = (second.real**2 + second.imag**2).sum(axis=-1)
    gram[:, 0, 1] = np.einsum("...n,...n->...", np.conj(first), second)
    gram[:, 1, 0] = np.conj(gram[:, 0, 1])
    return gram


def _singular_values(h: np.ndarray) -> np.ndarray:
    """The singular values (C x 2, descending) of every effective channel
    of a batch. A NaN or Inf entry is refused first: numpy's SVD would raise
    its own LinAlgError on it."""
    check_finite(h)
    return np.linalg.svd(h, compute_uv=False)


def _check_two_users(h: np.ndarray) -> None:
    """Refuse a batch of effective channels that are not 2 x 2."""
    if h.shape[1:] != (2, 2):
        raise AirylinkError(
            f"the closed-form RZF serves two users; got effective channels of shape {h.shape}"
        )


# adj(H) of a 2 x 2 H is its anti-diagonal transpose with these signs.
_ADJ_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _refuse_singular(sigma: np.ndarray) -> None:
    """The epsilon = 0 guard on a batch's C x 2 singular values: refuse
    the first channel with sigma_min <= _SINGULAR_RCOND * sigma_max."""
    bad = sigma[:, -1] <= _SINGULAR_RCOND * sigma[:, 0]
    if bad.any():
        raise SingularChannelError(
            "effective channel is numerically singular; zero-forcing would "
            "divide by a vanishing singular value (use epsilon > 0 or change geometry)",
            sigma_min=float(sigma[np.argmax(bad), -1]),
        )


def _rzf_batch(h: np.ndarray, gram: np.ndarray, tx_power: float, epsilon: float) -> tuple:
    """Closed-form two-user RZF over a leading candidate axis: h is C x 2 x 2
    (at epsilon = 0 already passed by _refuse_singular) and gram the
    C x 2 x 2 Gram matrices of the analog matrices. Returns (W~, alpha),
    one entry per candidate, with W_BB = alpha W~; raises for the first
    candidate whose power normalization is impossible."""
    if len(gram) != len(h):
        raise AirylinkError(
            f"expected one pair of beams per effective channel, {len(h)}; got {len(gram)}"
        )
    h_herm = np.conj(h).swapaxes(-1, -2)
    det_h = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
    adj_h = _ADJ_SIGN * h.swapaxes(-1, -2)[:, ::-1, ::-1]
    det_a = (det_h.real**2 + det_h.imag**2) + epsilon * (_frobenius_sq(h) + epsilon)
    w_tilde = (np.conj(det_h)[:, None, None] * adj_h + epsilon * h_herm) / det_a[:, None, None]

    # sum_k w~_k^H G w~_k with G = [[g11, g12], [conj(g12), g22]].
    power = w_tilde.real**2 + w_tilde.imag**2
    cross = (gram[:, 0, 1, None] * (np.conj(w_tilde[:, 0]) * w_tilde[:, 1])).real
    norm_sq = (gram[:, 0, 0].real * power[:, 0].sum(axis=-1)
               + gram[:, 1, 1].real * power[:, 1].sum(axis=-1)
               + 2.0 * cross.sum(axis=-1))
    zero = norm_sq == 0.0
    if zero.any():
        sigma = _singular_values(h)
        raise SingularChannelError(
            "precoder is identically zero; cannot normalize transmit power",
            sigma_min=float(sigma[np.argmax(zero), -1]),
        )
    return w_tilde, np.sqrt(tx_power / norm_sq)


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
    """Link metrics over a leading candidate axis, one column per metric
    and one row per candidate: singular_values (C x K, descending);
    condition_number sigma_max/sigma_min, or +inf with `singular` set when
    sigma_min underflows to zero; alpha_power; common_sinr_db; sum_rate;
    and coupling_db (C x K x K), 10*log10 |h_kj|^2 of the raw effective
    channel entries."""
    singular = sigma[:, -1] == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(singular, math.inf, sigma[:, 0] / sigma[:, -1])
        sinr, sum_rate = _sinr_and_rate(alpha, noise_power, h.shape[-1])
        sinr_db = np.where(sinr > 0, 10.0 * np.log10(sinr), -math.inf)
        coupling_db = 10.0 * np.log10(np.abs(h) ** 2)
    return {
        "singular_values": sigma,
        "condition_number": kappa,
        "singular": singular,
        "alpha_power": alpha**2,
        "common_sinr_db": sinr_db,
        "sum_rate": sum_rate,
        "coupling_db": coupling_db,
    }


def batch_metrics(h: np.ndarray, w_rf: np.ndarray, tx_power: float, epsilon: float,
                  noise_power: float) -> tuple:
    """Post-RZF metrics of every candidate in a batch: h is C x 2 x 2
    effective channels, w_rf the C x N x 2 analog matrices. Returns (metric
    columns of _metrics_batch, W_BB); candidate c gets exactly the bits it
    gets in a batch of one, and achieved_power(w_rf, W_BB) is the power
    each W_BB realizes."""
    # Ahead of the beam check, so a one-user batch is refused as such.
    _check_two_users(h)
    if np.ndim(w_rf) != 3 or np.shape(w_rf)[-1] != 2:
        raise AirylinkError(
            f"expected C x N x 2 analog matrices (two beams each), got shape {np.shape(w_rf)}"
        )
    sigma = _singular_values(h)
    if epsilon == 0.0:
        _refuse_singular(sigma)
    gram = _analog_gram(w_rf[..., 0], w_rf[..., 1])
    w_tilde, alpha = _rzf_batch(h, gram, tx_power, epsilon)
    return _metrics_batch(h, alpha, noise_power, sigma), alpha[:, None, None] * w_tilde


def batch_sum_rates(h: np.ndarray, first: np.ndarray, second: np.ndarray, tx_power: float,
                    epsilon: float, noise_power: float) -> np.ndarray:
    """Sum rate of every candidate in a batch: h is C x 2 x 2 effective
    channels, `first` the C x N beams of the candidates' first users and
    `second` the one N-vector beam they share. Bit for bit
    batch_metrics(...)[0]["sum_rate"] of the analog matrices [w1 w2], with
    the same exceptions. The singular values are taken only for the
    epsilon = 0 guard or to report sigma_min when a precoder is
    identically zero."""
    _check_two_users(h)
    if epsilon == 0.0:
        _refuse_singular(_singular_values(h))
    _, alpha = _rzf_batch(h, _analog_gram(first, second), tx_power, epsilon)
    return _sinr_and_rate(alpha, noise_power, h.shape[-1])[1]
