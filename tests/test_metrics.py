import numpy as np
import pytest
from numpy.testing import assert_allclose

from lindiff.dynamics import one_layer_psi
from lindiff.gaussian import CovarianceModel, SpectrumSpec, make_covariance, sample_gaussian
from lindiff.metrics import denoiser_error, kl_shared_basis, score_error, training_loss


class TestKlSharedBasis:
    def test_identical_distributions(self, model6):
        lam = model6.spectrum
        kl = kl_shared_basis(lam, lam)
        assert_allclose(kl.per_mode, 0.0, atol=1e-14)
        assert kl.total == pytest.approx(0.0, abs=1e-13)

    def test_ratio_e_plugin(self):
        kl = kl_shared_basis(np.array([np.e]), np.array([1.0]))
        assert_allclose(kl.per_mode[0], (np.e - 2.0) / 2.0, rtol=1e-14)

    def test_matches_dense_gaussian_kl(self):
        model = make_covariance(SpectrumSpec("log-spaced", {"lo": 0.2, "hi": 2.0}), 4, 2)
        rng = np.random.default_rng(0)
        lam1 = model.spectrum * rng.uniform(0.5, 2.0, 4)
        mu1, mu2 = rng.normal(size=4), rng.normal(size=4)
        kl = kl_shared_basis(lam1, model.spectrum, model.basis.T @ (mu2 - mu1))
        s1 = (model.basis * lam1) @ model.basis.T
        s2 = model.covariance()
        inv2 = np.linalg.inv(s2)
        dense = 0.5 * (
            np.log(np.linalg.det(s2) / np.linalg.det(s1))
            - 4
            + np.trace(inv2 @ s1)
            + (mu2 - mu1) @ inv2 @ (mu2 - mu1)
        )
        assert_allclose(kl.total, dense, rtol=1e-10)

    def test_mean_gap_term(self, model6):
        lam = model6.spectrum
        mu2 = model6.basis[:, 0] * 0.5  # gap only along mode 0
        kl = kl_shared_basis(lam, lam, model6.basis.T @ mu2)
        assert_allclose(kl.per_mode[0], 0.25 / (2.0 * lam[0]), rtol=1e-10)
        assert_allclose(kl.per_mode[1:], 0.0, atol=1e-12)

    def test_convexity_minimum_at_unit_ratio(self):
        ratios = np.geomspace(0.1, 10, 101)
        vals = [kl_shared_basis(np.array([r]), np.array([1.0])).total for r in ratios]
        assert np.argmin(vals) == 50  # ratio exactly 1
        assert min(vals) == pytest.approx(0.0, abs=1e-14)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            kl_shared_basis(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            kl_shared_basis(np.array([1.0]), np.array([-1.0]))

    def test_variance_floor_clamp_counted(self):
        kl = kl_shared_basis(np.array([1e-15, 1.0]), np.ones(2))
        assert kl.clamped == 1
        assert np.isfinite(kl.total)


class TestScoreError:
    def test_zero_at_optimum(self, model6):
        psi_star = model6.spectrum / (model6.spectrum + 1.0)
        assert score_error(psi_star, None, 1.0, model6)[0] == pytest.approx(0.0, abs=1e-15)

    def test_single_mode_plugin(self):
        # lambda=1, sigma=1, deviation 1: E_s = (sigma^2+lambda) / sigma^4 = 2
        model = CovarianceModel(1, np.eye(1), np.array([1.0]))
        psi = np.array([1.5])  # psi* = 0.5, deviation 1
        assert_allclose(score_error(psi, None, 1.0, model)[0], 2.0, rtol=1e-14)

    def test_denoiser_identity(self, model6):
        rng = np.random.default_rng(1)
        psi = rng.uniform(0, 1, size=(6, 4))
        bias = rng.normal(size=(6, 4)) * 0.1
        sigma = 0.7
        es = score_error(psi, bias, sigma, model6)
        ed = denoiser_error(psi, bias, sigma, model6)
        assert np.max(np.abs(ed - sigma**4 * es)) < 1e-12 * np.max(ed)

    def test_monotone_decay_along_training(self, model6):
        taus = np.geomspace(1e-2, 5, 30)
        psi = one_layer_psi(model6.spectrum[:, None], 1.0, 0.1, 1.0, taus[None, :])
        es = score_error(psi, None, 1.0, model6)
        assert np.all(np.diff(es) < 0)

    def test_against_monte_carlo_score_gap(self, model6):
        sigma, q = 0.9, 0.2
        psi = np.full(6, q)
        analytic = score_error(psi, None, sigma, model6)[0]
        # MC over x ~ N(0, Sigma + sigma^2 I) of |s - s*|^2
        rng = np.random.default_rng(7)
        noisy = CovarianceModel(
            6, model6.basis, model6.spectrum + sigma**2
        )
        x = sample_gaussian(noisy, np.zeros(6), 100_000, seed=8)
        w = (model6.basis * q) @ model6.basis.T
        psi_star = model6.spectrum / (model6.spectrum + sigma**2)
        w_star = (model6.basis * psi_star) @ model6.basis.T
        gap = (x @ (w - w_star).T) / sigma**2
        mc = float(np.mean(np.sum(gap**2, axis=1)))
        assert abs(mc - analytic) / analytic < 0.02


class TestTrainingLoss:
    def test_floor_at_optimum(self, model6):
        psi_star = model6.spectrum / (model6.spectrum + 1.0)
        floor = np.sum(model6.spectrum / (model6.spectrum + 1.0))
        assert_allclose(training_loss(psi_star, None, 1.0, model6)[0], floor, rtol=1e-14)

    def test_scalar_floor_value(self):
        model = CovarianceModel(1, np.eye(1), np.array([1.0]))
        psi_star = np.array([0.5])
        assert training_loss(psi_star, None, 1.0, model)[0] == pytest.approx(0.5)

    def test_against_monte_carlo_dsm(self, model6, moments6):
        from lindiff.oracle import mc_dsm_loss

        sigma, q = 0.8, 0.3
        psi = np.full(6, q)
        analytic = training_loss(psi, None, sigma, model6)[0]
        w = (model6.basis * q) @ model6.basis.T
        est, sem = mc_dsm_loss(w, np.zeros(6), moments6, sigma, 200_000, seed=3)
        assert abs(est - analytic) / analytic < 0.02

    def test_above_floor_everywhere(self, model6):
        rng = np.random.default_rng(4)
        floor = 0.64 * np.sum(model6.spectrum / (model6.spectrum + 0.64))
        for _ in range(20):
            psi = rng.uniform(-0.5, 1.5, 6)
            val = training_loss(psi, None, 0.8, model6)[0]
            assert val >= floor - 1e-12
