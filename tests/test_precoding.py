"""Regularized zero-forcing and the derived link metrics.

Small matrices with hand-invertible structure pin the algebra; random
well-conditioned channels exercise the exact-inversion property at scale.
"""

import math

import numpy as np
import pytest

from airylink import (
    AirylinkError,
    ChannelMatrix,
    MetricsRecord,
    SingularChannelError,
    rzf_precoder,
)
from airylink.channels import GREENS_FREE_SPACE

from batch_of_one import metrics_of_one


def effective(entries) -> ChannelMatrix:
    return ChannelMatrix(np.asarray(entries, dtype=complex),
                         model=GREENS_FREE_SPACE, kind="effective")


def orthonormal_w_rf(k: int = 2, n: int = 4) -> np.ndarray:
    w = np.zeros((n, k), dtype=complex)
    for j in range(k):
        w[j, j] = 1.0
    return w


def random_well_conditioned(rng, k: int = 2) -> ChannelMatrix:
    while True:
        h = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        sigma = np.linalg.svd(h, compute_uv=False)
        if sigma[0] / sigma[-1] < 100.0:
            return effective(h)


class TestHandSolvableCases:
    def test_identity_channel(self):
        """H = I, orthonormal analog stage, P = 1: the inverse is I, the
        Frobenius norm is sqrt(2), so W_BB = I/sqrt(2) and alpha = 1/sqrt(2)."""
        res = rzf_precoder(effective(np.eye(2)), orthonormal_w_rf(),
                           tx_power=1.0, epsilon=0.0)
        assert res.alpha == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert np.allclose(res.baseband, np.eye(2) / math.sqrt(2), atol=1e-12)
        assert np.allclose(res.product_check,
                           np.eye(2) / math.sqrt(2), atol=1e-12)
        assert res.achieved_power == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_channel(self):
        """H = diag(2, 1): unnormalized inverse diag(1/2, 1) has squared
        norm 5/4, alpha = sqrt(4 P / 5), and the product is alpha I."""
        p = 10.0
        res = rzf_precoder(effective(np.diag([2.0, 1.0])), orthonormal_w_rf(),
                           tx_power=p, epsilon=0.0)
        assert res.alpha == pytest.approx(math.sqrt(4 * p / 5), rel=1e-12)
        assert np.allclose(res.baseband,
                           res.alpha * np.diag([0.5, 1.0]), atol=1e-12)
        assert np.allclose(res.product_check, res.alpha * np.eye(2), atol=1e-12)

    def test_alpha_scales_as_sqrt_power(self, rng):
        h = random_well_conditioned(rng)
        w = orthonormal_w_rf()
        r1 = rzf_precoder(h, w, tx_power=1.0, epsilon=0.0)
        r2 = rzf_precoder(h, w, tx_power=9.0, epsilon=0.0)
        assert r2.alpha == pytest.approx(3.0 * r1.alpha, rel=1e-12)


class TestZeroForcingExactness:
    def test_product_is_alpha_identity(self, rng):
        for _ in range(20):
            h = random_well_conditioned(rng)
            res = rzf_precoder(h, orthonormal_w_rf(), tx_power=1.0, epsilon=0.0)
            target = res.alpha * np.eye(2)
            err = np.linalg.norm(res.product_check - target) / np.linalg.norm(target)
            assert err < 1e-8
            assert res.achieved_power == pytest.approx(1.0, rel=1e-9)

    def test_alpha_is_real_positive(self, rng):
        h = random_well_conditioned(rng)
        res = rzf_precoder(h, orthonormal_w_rf(), tx_power=2.5, epsilon=0.0)
        assert isinstance(res.alpha, float)
        assert res.alpha > 0.0


class TestRegularization:
    def test_moderate_epsilon_biases_the_product(self):
        h = effective(np.diag([2.0, 1.0]))
        res = rzf_precoder(h, orthonormal_w_rf(), tx_power=1.0, epsilon=0.5)
        # (H H^H + eps I)^-1 H^H = diag(2/4.5, 1/1.5) before normalization:
        # no longer proportional to H^-1, so the product is non-identity
        ratio = res.product_check[0, 0] / res.product_check[1, 1]
        assert ratio == pytest.approx((4.0 / 4.5) / (1.0 / 1.5), rel=1e-12)

    def test_tiny_epsilon_with_near_singular_channel_collapses_alpha(self):
        """sigma_min = 1e-6 with epsilon = 1e-10 sits in the regime
        sigma_min^2 << epsilon << sigma_min where the inverse blows up to
        ~sigma_min/epsilon, the normalization eats the power, and the
        common SINR goes deeply negative."""
        h = effective(np.diag([1.0, 1e-6]))
        metrics = metrics_of_one(h, orthonormal_w_rf(), tx_power=1.0, epsilon=1e-10,
                                 noise_power=1e-3)
        assert metrics.common_sinr_db < -30.0

    def test_vanishing_beam_column_collapses_the_rate(self, rng):
        """As one beam's channel column fades toward zero, sigma_min passes
        through sqrt(epsilon) where the inverse peaks at 1/(2 sqrt(eps));
        the power normalization then drives alpha (and the rate) to zero."""
        h_good = random_well_conditioned(rng).entries
        h_bad = h_good.copy()
        h_bad[:, 0] *= 1e-5  # sigma_min lands near sqrt(1e-10)
        res = rzf_precoder(effective(h_bad), orthonormal_w_rf(),
                           tx_power=1.0, epsilon=1e-10)
        metrics = metrics_of_one(effective(h_bad), orthonormal_w_rf(), tx_power=1.0,
                                 epsilon=1e-10, noise_power=1e-3)
        assert res.alpha**2 < 1e-6
        assert metrics.sum_rate < 1e-3


class TestSingularGuards:
    def test_rank_deficient_channel_refused_at_zero_epsilon(self):
        h = effective([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularChannelError) as info:
            rzf_precoder(h, orthonormal_w_rf(), tx_power=1.0, epsilon=0.0)
        assert info.value.sigma_min == pytest.approx(0.0, abs=1e-12)

    def test_zero_channel_refused(self):
        h = effective(np.zeros((2, 2)))
        with pytest.raises(SingularChannelError):
            rzf_precoder(h, orthonormal_w_rf(), tx_power=1.0, epsilon=0.0)

    def test_zero_precoder_refused_even_with_epsilon(self):
        h = effective(np.zeros((2, 2)))
        with pytest.raises(SingularChannelError, match="normalize"):
            rzf_precoder(h, orthonormal_w_rf(), tx_power=1.0, epsilon=1.0)


class TestValidation:
    def test_physical_kind_rejected(self):
        h = ChannelMatrix(np.eye(2, dtype=complex), model=GREENS_FREE_SPACE,
                          kind="physical")
        with pytest.raises(AirylinkError, match="effective"):
            rzf_precoder(h, orthonormal_w_rf(), tx_power=1.0, epsilon=0.0)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(AirylinkError, match="epsilon"):
            rzf_precoder(effective(np.eye(2)), orthonormal_w_rf(),
                         tx_power=1.0, epsilon=-1e-9)

    def test_nonpositive_power_rejected(self):
        with pytest.raises(AirylinkError, match="tx_power"):
            rzf_precoder(effective(np.eye(2)), orthonormal_w_rf(),
                         tx_power=0.0, epsilon=0.0)

    def test_beam_count_mismatch_rejected(self):
        with pytest.raises(AirylinkError, match="beams"):
            rzf_precoder(effective(np.eye(2)), np.ones((4, 3), dtype=complex),
                         tx_power=1.0, epsilon=0.0)


class TestLinkMetrics:
    """The metrics of one operating point: batch_metrics on a batch of one."""

    def test_condition_number_matches_svd(self, rng):
        h = random_well_conditioned(rng)
        m = metrics_of_one(h, orthonormal_w_rf(), tx_power=1.0, epsilon=0.0,
                           noise_power=1e-3)
        sigma = np.linalg.svd(h.entries, compute_uv=False)
        assert m.condition_number == pytest.approx(sigma[0] / sigma[-1],
                                                   rel=1e-12)
        assert m.singular_values == pytest.approx(tuple(sigma), rel=1e-12)
        assert not m.singular

    def test_identity_channel_has_unit_condition(self):
        h = effective(np.eye(2))
        m = metrics_of_one(h, orthonormal_w_rf(), tx_power=1.0, epsilon=0.0,
                           noise_power=1e-3)
        assert m.condition_number == 1.0

    def test_exactly_singular_flagged(self):
        h = effective([[1.0, 1.0], [1.0, 1.0]])
        m = metrics_of_one(h, orthonormal_w_rf(), tx_power=1.0, epsilon=1.0,
                           noise_power=1e-3)
        assert m.singular
        assert m.condition_number == math.inf

    def test_sinr_and_rate_formulas(self):
        """alpha^2 = 1 over noise 1e-3: SINR = 1000 -> 30 dB exactly,
        sum rate = 2 log2(1001)."""
        h = effective(np.eye(2))
        # P = 2 puts exactly 1/sqrt(2)... pick P so alpha^2 = 1: the
        # unnormalized precoder is I with norm^2 = 2, so alpha^2 = P/2
        m = metrics_of_one(h, orthonormal_w_rf(), tx_power=2.0, epsilon=0.0,
                           noise_power=1e-3)
        assert m.alpha_power == pytest.approx(1.0, rel=1e-12)
        assert m.common_sinr_db == pytest.approx(30.0, abs=1e-9)
        assert m.sum_rate == pytest.approx(2 * math.log2(1001.0), rel=1e-12)

    def test_coupling_matrix(self):
        h = effective([[10.0, 0.0], [1.0, 0.1]])
        m = metrics_of_one(h, orthonormal_w_rf(), tx_power=1.0, epsilon=1e-6,
                           noise_power=1e-3)
        assert m.coupling_db[0, 0] == pytest.approx(20.0, abs=1e-9)
        assert m.coupling_db[1, 0] == pytest.approx(0.0, abs=1e-9)
        assert m.coupling_db[1, 1] == pytest.approx(-20.0, abs=1e-9)
        assert m.coupling_db[0, 1] == -math.inf

    def test_metrics_record_is_plain_data(self):
        h = effective(np.eye(2))
        m = metrics_of_one(h, orthonormal_w_rf(), tx_power=1.0, epsilon=0.0,
                           noise_power=1e-3)
        assert isinstance(m, MetricsRecord)
        assert isinstance(m.singular_values, tuple)
