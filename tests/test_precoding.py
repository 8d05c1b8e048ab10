"""Regularized zero-forcing and the derived link metrics.

Small matrices with hand-invertible structure pin the algebra; random
well-conditioned channels exercise the exact-inversion property at scale.
The closed-form RZF is checked against two independent references built
from numpy's linear algebra, on channels of prescribed condition number.
Every check goes through batch_metrics and achieved_power, the path every
sweep scores through, on a batch of one (batch_of_one.rzf_of_one and
metrics_of_one).
"""

import math

import numpy as np
import pytest

from airylink import AirylinkError, SingularChannelError
from airylink.precoding import _analog_gram, batch_metrics, batch_sum_rates

from batch_of_one import metrics_of_one, rzf_of_one


def effective(entries) -> np.ndarray:
    return np.asarray(entries, dtype=complex)


def orthonormal_beams(k: int = 2, n: int = 4) -> np.ndarray:
    """K x N beam rows, row j the unit vector e_j."""
    w = np.zeros((k, n), dtype=complex)
    for j in range(k):
        w[j, j] = 1.0
    return w


def random_well_conditioned(rng, k: int = 2) -> np.ndarray:
    while True:
        h = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        sigma = np.linalg.svd(h, compute_uv=False)
        if sigma[0] / sigma[-1] < 100.0:
            return effective(h)


class TestHandSolvableCases:
    def test_identity_channel(self):
        """H = I, orthonormal analog stage, P = 1: the inverse is I, the
        Frobenius norm is sqrt(2), so W_BB = I/sqrt(2) and alpha = 1/sqrt(2)."""
        res = rzf_of_one(effective(np.eye(2)), orthonormal_beams(),
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
        res = rzf_of_one(effective(np.diag([2.0, 1.0])), orthonormal_beams(),
                         tx_power=p, epsilon=0.0)
        assert res.alpha == pytest.approx(math.sqrt(4 * p / 5), rel=1e-12)
        assert np.allclose(res.baseband,
                           res.alpha * np.diag([0.5, 1.0]), atol=1e-12)
        assert np.allclose(res.product_check, res.alpha * np.eye(2), atol=1e-12)

    def test_alpha_scales_as_sqrt_power(self, rng):
        h = random_well_conditioned(rng)
        w = orthonormal_beams()
        r1 = rzf_of_one(h, w, tx_power=1.0, epsilon=0.0)
        r2 = rzf_of_one(h, w, tx_power=9.0, epsilon=0.0)
        assert r2.alpha == pytest.approx(3.0 * r1.alpha, rel=1e-12)


class TestZeroForcingExactness:
    def test_product_is_alpha_identity(self, rng):
        for _ in range(20):
            h = random_well_conditioned(rng)
            res = rzf_of_one(h, orthonormal_beams(), tx_power=1.0, epsilon=0.0)
            target = res.alpha * np.eye(2)
            err = np.linalg.norm(res.product_check - target) / np.linalg.norm(target)
            assert err < 1e-8
            assert res.achieved_power == pytest.approx(1.0, rel=1e-9)

    def test_alpha_is_real_positive(self, rng):
        h = random_well_conditioned(rng)
        res = rzf_of_one(h, orthonormal_beams(), tx_power=2.5, epsilon=0.0)
        assert isinstance(res.alpha, float)
        assert res.alpha > 0.0


class TestRegularization:
    def test_moderate_epsilon_biases_the_product(self):
        h = effective(np.diag([2.0, 1.0]))
        res = rzf_of_one(h, orthonormal_beams(), tx_power=1.0, epsilon=0.5)
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
        metrics = metrics_of_one(h, orthonormal_beams(), tx_power=1.0, epsilon=1e-10,
                                 noise_power=1e-3)
        assert metrics["common_sinr_db"] < -30.0

    def test_vanishing_beam_column_collapses_the_rate(self, rng):
        """As one beam's channel column fades toward zero, sigma_min passes
        through sqrt(epsilon) where the inverse peaks at 1/(2 sqrt(eps));
        the power normalization then drives alpha (and the rate) to zero."""
        h_good = random_well_conditioned(rng)
        h_bad = h_good.copy()
        h_bad[:, 0] *= 1e-5  # sigma_min lands near sqrt(1e-10)
        res = rzf_of_one(effective(h_bad), orthonormal_beams(),
                         tx_power=1.0, epsilon=1e-10)
        metrics = metrics_of_one(effective(h_bad), orthonormal_beams(), tx_power=1.0,
                                 epsilon=1e-10, noise_power=1e-3)
        assert res.alpha**2 < 1e-6
        assert metrics["sum_rate"] < 1e-3


class TestSingularGuards:
    def test_rank_deficient_channel_refused_at_zero_epsilon(self):
        h = effective([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularChannelError) as info:
            rzf_of_one(h, orthonormal_beams(), tx_power=1.0, epsilon=0.0)
        assert info.value.sigma_min == pytest.approx(0.0, abs=1e-12)

    def test_zero_channel_refused(self):
        h = effective(np.zeros((2, 2)))
        with pytest.raises(SingularChannelError):
            rzf_of_one(h, orthonormal_beams(), tx_power=1.0, epsilon=0.0)

    def test_zero_precoder_refused_even_with_epsilon(self):
        h = effective(np.zeros((2, 2)))
        with pytest.raises(SingularChannelError, match="normalize"):
            rzf_of_one(h, orthonormal_beams(), tx_power=1.0, epsilon=1.0)


class TestValidation:
    """The rules on the RZF's inputs. A non-finite effective channel is
    refused by check_finite before any SVD takes it (below, and through a
    sweep in
    test_experiments.py::TestMixedOptimization::test_angle_sweep_refuses_a_non_finite_channel),
    and a negative epsilon or a non-positive transmit power by
    ScenarioConfig (test_geometry.py::TestScenarioConfig::test_rejects_bad_link_parameters)."""

    def test_physical_kind_rejected(self):
        """A K x N physical matrix is not an effective channel: the metrics
        refuse it as one that is not 2 x 2."""
        h_phys = np.ones((1, 2, 4), dtype=complex)
        with pytest.raises(AirylinkError, match=r"two users.*\(1, 2, 4\)"):
            batch_metrics(h_phys, orthonormal_beams()[None], 1.0, 0.1, 1e-3)

    @pytest.mark.parametrize("epsilon", [0.0, 1e-10])
    def test_non_finite_channel_refused_by_the_metrics(self, epsilon):
        """numpy's SVD raises its own LinAlgError on a NaN, which the CLI
        does not report as an error line."""
        h = effective([[1.0, math.nan], [0.0, 1.0]])[None]
        with pytest.raises(AirylinkError, match="NaN or Inf"):
            batch_metrics(h, orthonormal_beams()[None], 1.0, epsilon, 1e-3)

    def test_non_finite_channel_refused_by_the_rates_at_zero_epsilon(self):
        """At epsilon = 0 the rates take the SVD for the zero-forcing guard.
        (At epsilon > 0 they take none, and the search names the design
        whose rate is NaN: test_optimizer.py::TestNaNRate.)"""
        h = effective([[1.0, 0.0], [math.inf, 1.0]])[None]
        w = orthonormal_beams()
        with pytest.raises(AirylinkError, match="NaN or Inf"):
            batch_sum_rates(h, w[0][None], w[1], 1.0, 0.0, 1e-3)

    def test_beam_count_mismatch_rejected(self):
        with pytest.raises(AirylinkError, match="two beams"):
            batch_metrics(effective(np.eye(2))[None], np.ones((1, 3, 4), dtype=complex),
                          1.0, 0.0, 1e-3)


class TestLinkMetrics:
    """The metrics of one operating point: batch_metrics on a batch of one."""

    def test_condition_number_matches_svd(self, rng):
        h = random_well_conditioned(rng)
        m = metrics_of_one(h, orthonormal_beams(), tx_power=1.0, epsilon=0.0,
                           noise_power=1e-3)
        sigma = np.linalg.svd(h, compute_uv=False)
        assert m["condition_number"] == pytest.approx(sigma[0] / sigma[-1], rel=1e-12)
        assert m["singular_values"] == pytest.approx(tuple(sigma), rel=1e-12)
        assert not m["singular"]

    def test_identity_channel_has_unit_condition(self):
        h = effective(np.eye(2))
        m = metrics_of_one(h, orthonormal_beams(), tx_power=1.0, epsilon=0.0,
                           noise_power=1e-3)
        assert m["condition_number"] == 1.0

    def test_exactly_singular_flagged(self):
        h = effective([[1.0, 1.0], [1.0, 1.0]])
        m = metrics_of_one(h, orthonormal_beams(), tx_power=1.0, epsilon=1.0,
                           noise_power=1e-3)
        assert m["singular"]
        assert m["condition_number"] == math.inf

    def test_sinr_and_rate_formulas(self):
        """alpha^2 = 1 over noise 1e-3: SINR = 1000 -> 30 dB exactly,
        sum rate = 2 log2(1001)."""
        h = effective(np.eye(2))
        # P = 2 puts exactly 1/sqrt(2)... pick P so alpha^2 = 1: the
        # unnormalized precoder is I with norm^2 = 2, so alpha^2 = P/2
        m = metrics_of_one(h, orthonormal_beams(), tx_power=2.0, epsilon=0.0,
                           noise_power=1e-3)
        assert m["alpha_power"] == pytest.approx(1.0, rel=1e-12)
        assert m["common_sinr_db"] == pytest.approx(30.0, abs=1e-9)
        assert m["sum_rate"] == pytest.approx(2 * math.log2(1001.0), rel=1e-12)

    def test_coupling_matrix(self):
        h = effective([[10.0, 0.0], [1.0, 0.1]])
        m = metrics_of_one(h, orthonormal_beams(), tx_power=1.0, epsilon=1e-6,
                           noise_power=1e-3)
        assert m["coupling_db"][0, 0] == pytest.approx(20.0, abs=1e-9)
        assert m["coupling_db"][1, 0] == pytest.approx(0.0, abs=1e-9)
        assert m["coupling_db"][1, 1] == pytest.approx(-20.0, abs=1e-9)
        assert m["coupling_db"][0, 1] == -math.inf


EPS_MACH = np.finfo(float).eps
TX_POWER = 1.7


def unitary(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conditioned(rng, kappa: float) -> np.ndarray:
    """A random 2 x 2 channel with singular values (s, s / kappa), s drawn
    from [0.01, 1]."""
    s = rng.uniform(0.01, 1.0)
    return unitary(rng) @ np.diag([s, s / kappa]) @ unitary(rng).conj().T


def correlated_beams(rng, n: int = 16) -> np.ndarray:
    """Two random beam rows of N elements, far from orthogonal."""
    w = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    w[1] += 0.8 * w[0]
    return w


def normalized(beams: np.ndarray, w_tilde: np.ndarray) -> tuple:
    """(alpha, W_BB) of an unnormalized precoder, with the power taken as
    the matmul norm ||W_RF W~||_F^2 of the analog matrix W_RF whose
    columns are the beams."""
    w_rf = beams.T
    alpha = math.sqrt(TX_POWER / np.linalg.norm(w_rf @ w_tilde) ** 2)
    return alpha, alpha * w_tilde


def relative_errors(res, alpha: float, w_bb: np.ndarray) -> tuple:
    return (abs(res.alpha - alpha) / alpha,
            np.linalg.norm(res.baseband - w_bb) / np.linalg.norm(w_bb))


KAPPAS = (1.0, 10.0, 1e3, 1e5, 1e8)


class TestClosedFormOracle:
    """The closed form that batch_metrics runs, against numpy's linear algebra. The
    references carry their own round-off, so each bound scales with the
    conditioning of the problem the reference solves."""

    @pytest.mark.parametrize("epsilon", [0.0, 1e-10, 0.5])
    def test_matches_a_solve_based_rzf(self, rng, epsilon):
        """Reference: W~ = H^H (H H^H + eps I)^(-1) by np.linalg.solve on
        A = H H^H + eps I. Its error grows as cond(A), kappa^2 at eps = 0,
        so the bound is 1e-13 + 4 eps_mach cond(A) (at most 1.1e-12 for
        kappa <= 1e3), and draws whose cond(A) passes 1e10 are left to the
        least-squares reference."""
        checked = 0
        for kappa in KAPPAS:
            for _ in range(40):
                h, beams = conditioned(rng, kappa), correlated_beams(rng)
                a = h @ h.conj().T + epsilon * np.eye(2)
                cond = np.linalg.cond(a)
                if cond > 1e10:
                    continue
                alpha, w_bb = normalized(beams, np.linalg.solve(a, h).conj().T)
                res = rzf_of_one(h, beams, tx_power=TX_POWER, epsilon=epsilon)
                bound = 1e-13 + 4.0 * EPS_MACH * cond
                assert max(relative_errors(res, alpha, w_bb)) <= bound, (kappa, cond)
                checked += 1
        assert checked >= 3 * 40

    @pytest.mark.parametrize("epsilon", [0.0, 1e-10, 0.5])
    def test_matches_a_least_squares_rzf(self, rng, epsilon):
        """Reference: the RZF precoder is the Tikhonov solution
        argmin ||H X - I||^2 + eps ||X||^2, taken by np.linalg.lstsq on the
        stacked [H; sqrt(eps) I], which is accurate to about eps_mach
        sqrt(cond(A)). The closed form's own error grows as kappa (through
        det H), so the bound is 1e-13 + 8 eps_mach kappa: below 2e-12 for
        kappa <= 1e3 and 2e-7 at kappa = 1e8."""
        stacked_rhs = np.vstack([np.eye(2), np.zeros((2, 2))])
        for kappa in KAPPAS:
            for _ in range(40):
                h, beams = conditioned(rng, kappa), correlated_beams(rng)
                stacked = np.vstack([h, math.sqrt(epsilon) * np.eye(2)])
                w_tilde = np.linalg.lstsq(stacked, stacked_rhs, rcond=None)[0]
                alpha, w_bb = normalized(beams, w_tilde)
                res = rzf_of_one(h, beams, tx_power=TX_POWER, epsilon=epsilon)
                bound = 1e-13 + 8.0 * EPS_MACH * kappa
                assert max(relative_errors(res, alpha, w_bb)) <= bound, kappa

    def test_three_users_refused(self):
        with pytest.raises(AirylinkError, match=r"two users.*\(1, 3, 3\)"):
            rzf_of_one(effective(np.eye(3)), orthonormal_beams(k=3),
                       tx_power=1.0, epsilon=0.1)
        h = np.broadcast_to(np.eye(3, dtype=complex), (4, 3, 3))
        with pytest.raises(AirylinkError, match=r"two users.*\(4, 3, 3\)"):
            batch_sum_rates(h, np.zeros((4, 16), dtype=complex), np.zeros(16, dtype=complex),
                            1.0, 0.1, 1e-3)

    def test_one_user_refused(self):
        """A one-user call is refused before the Gram matrix reads a second
        beam."""
        with pytest.raises(AirylinkError, match=r"two users.*\(1, 1, 1\)"):
            rzf_of_one(effective([[1.0]]), orthonormal_beams(k=1),
                       tx_power=1.0, epsilon=0.1)

    def test_beams_for_another_batch_refused(self, rng):
        """The beam pairs (or the candidates' beams) must come one per
        effective channel; a batch of two is not read for a batch of one."""
        h = conditioned(rng, 10.0)[None]
        beams = np.stack([correlated_beams(rng)] * 2)
        with pytest.raises(AirylinkError, match="one pair of beams per effective channel, 1; got 2"):
            batch_metrics(h, beams, 1.0, 0.1, 1e-3)
        with pytest.raises(AirylinkError, match="one pair of beams per effective channel, 1; got 2"):
            batch_sum_rates(h, beams[:, 0], beams[0, 1], 1.0, 0.1, 1e-3)

    @pytest.mark.parametrize("epsilon", [0.0, 1e-10, 0.5])
    def test_zero_channel_reports_sigma_min(self, rng, epsilon):
        with pytest.raises(SingularChannelError) as info:
            rzf_of_one(effective(np.zeros((2, 2))), correlated_beams(rng),
                       tx_power=1.0, epsilon=epsilon)
        assert info.value.sigma_min == 0.0

    @pytest.mark.parametrize("epsilon", [1e-10, 0.5])
    def test_zero_beams_report_sigma_min(self, rng, epsilon):
        h = conditioned(rng, 10.0)
        with pytest.raises(SingularChannelError, match="normalize") as info:
            rzf_of_one(h, np.zeros((2, 16), dtype=complex), tx_power=1.0, epsilon=epsilon)
        assert info.value.sigma_min == np.linalg.svd(h, compute_uv=False)[-1]

    def test_gram_holds_norms_and_cross_term(self, rng):
        beams = correlated_beams(rng)
        gram = _analog_gram(beams[0][None], beams[1])
        assert gram.shape == (1, 2, 2)
        assert np.allclose(gram[0], beams.conj() @ beams.T, rtol=1e-14, atol=0.0)
