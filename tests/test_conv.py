import numpy as np
import pytest
from numpy.testing import assert_allclose

from lindiff.convolution import dft_mode_variance, patch_covariance, patch_filter_trajectory
from lindiff.dynamics import one_layer_psi
from lindiff.gaussian import DataMoments, empirical_moments, sample_gaussian
from lindiff.oracle import dense_dft_diag, gradient_flow_full


def stationary_cov(n, seed=5):
    """Random PSD circulant covariance (a stationary process)."""
    rng = np.random.default_rng(seed)
    power = rng.uniform(0.1, 3.0, n)
    power = 0.5 * (power + power[(-np.arange(n)) % n])  # real symmetric spectrum
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    f = np.exp(-2j * np.pi * j * k / n) / np.sqrt(n)
    cov = (f * power) @ f.conj().T
    return 0.5 * (cov.real + cov.real.T)


class TestDftModeVariance:
    def test_identity(self):
        assert_allclose(dft_mode_variance(np.eye(9)), 1.0, atol=1e-12)

    def test_circulant_kernel_cosine_form(self, circulant_matrix):
        n = 12
        sig = circulant_matrix([1.0, 2.0, 1.0], [-1, 0, 1], n)
        expected = 2.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
        assert_allclose(dft_mode_variance(sig), expected, atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 8))
        sig = a @ a.T
        assert_allclose(dft_mode_variance(sig), dense_dft_diag(sig).real, atol=1e-10)

    def test_asymmetric_input_rejected(self):
        bad = np.eye(6)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            dft_mode_variance(bad)


class TestFullWidth:
    """The full-width filter's Fourier multipliers are one_layer_psi with lambda -> S_kk, eta -> N eta."""

    def test_initial_value(self):
        assert one_layer_psi(1.0, 1.0, 0.2, 8 * 1.0, 0.0) == 0.2

    def test_substitution_identity_with_one_layer(self):
        # gamma* + (gamma0 - gamma*) exp(-2 N eta (sigma^2 + S_kk) tau), written out
        n = 16
        svals = np.geomspace(1e-2, 5, 10)
        taus = np.geomspace(1e-3, 3, 12)
        for sigma in (0.1, 1.0):
            gamma_star = svals[:, None] / (sigma**2 + svals[:, None])
            rate = 2.0 * n * 1.0 * (sigma**2 + svals[:, None])
            gam = gamma_star + (0.1 - gamma_star) * np.exp(-rate * taus[None, :])
            psi = one_layer_psi(svals[:, None], sigma, 0.1, n * 1.0, taus[None, :])
            assert np.max(np.abs(gam - psi)) < 1e-12

    def test_against_filter_space_gradient_flow(self, model16, moments16):
        n, sigma, eta = 16, 0.7, 1.0
        taus = np.geomspace(1e-3, 2, 8)
        taps0 = np.zeros(n)
        taps0[0] = 0.1  # W(0) = 0.1 I
        _, ws, _ = gradient_flow_full(
            moments16, sigma, eta, taps0, np.zeros(n), taus,
            parametrization="circulant", adaptive=True,
        )
        mode_vars = dft_mode_variance(moments16.covariance)
        for i, tau in enumerate(taus):
            gam_numeric = np.fft.fft(ws[i][0, :])
            gam_closed = one_layer_psi(mode_vars, sigma, 0.1, n * eta, tau)
            assert np.max(np.abs(gam_numeric.real - gam_closed)) < 1e-6
            assert np.max(np.abs(gam_numeric.imag)) < 1e-8

class TestPatchCovariance:
    def test_identity(self):
        pc = patch_covariance(np.eye(12), 2)
        assert_allclose(pc.matrix, np.eye(5), atol=1e-14)

    def test_circulant_input_gives_kernel_values(self, circulant_matrix):
        n = 12
        kernel = np.zeros(n)
        kernel[0], kernel[1], kernel[-1], kernel[2], kernel[-2] = 2.0, 0.7, 0.7, 0.2, 0.2
        sig = circulant_matrix(kernel, np.arange(n), n)
        pc = patch_covariance(sig, 2)
        offs = np.arange(-2, 3)
        expected = np.array([[kernel[(b - a) % n] for b in offs] for a in offs])
        assert_allclose(pc.matrix, expected, atol=1e-12)

    def test_against_monte_carlo_patches(self, model16):
        n, r = 16, 2
        sig = model16.covariance()
        pc = patch_covariance(sig, r)
        samples = sample_gaussian(model16, np.zeros(n), 1_000_000, seed=2)
        emp = empirical_moments(samples).covariance
        pc_mc = patch_covariance(emp, r)
        scale = np.max(np.abs(pc.matrix))
        assert np.max(np.abs(pc_mc.matrix - pc.matrix)) / scale < 0.01

    def test_too_wide_rejected(self):
        with pytest.raises(ValueError):
            patch_covariance(np.eye(5), 3)

    def test_negative_half_width_rejected(self):
        with pytest.raises(ValueError, match="patch half_width must be >= 0"):
            patch_covariance(np.eye(5), -1)


class TestPatchFilterTrajectory:
    def test_identity_patch_closed_form(self):
        from lindiff.convolution import PatchCovariance

        n, sigma, eta = 16, 1.0, 1.0
        pc = PatchCovariance(3, np.eye(3))
        taus = np.geomspace(1e-3, 1, 7)
        path = patch_filter_trajectory(pc, sigma, eta, n, np.zeros(3), taus)
        late = patch_filter_trajectory(pc, sigma, eta, n, np.zeros(3), [1e3])[0]
        e0 = np.array([0.0, 1.0, 0.0])
        assert_allclose(late, np.linalg.solve(sigma**2 * np.eye(3) + pc.matrix, e0), atol=1e-14)
        expected = (e0 / 2.0)[None, :] * (1.0 - np.exp(-4.0 * n * eta * taus))[:, None]
        assert_allclose(path, expected, atol=1e-12)

    def test_initial_value(self):
        pc = patch_covariance(stationary_cov(12), 1)
        w0 = np.array([0.3, -0.1, 0.2])
        path = patch_filter_trajectory(pc, 0.5, 1.0, 12, w0, [0.0, 1.0])
        assert_allclose(path[0], w0, atol=1e-15)

    def test_against_toeplitz_gradient_rk4(self):
        n, r, sigma, eta = 16, 1, 0.7, 1.0
        sig = stationary_cov(n, seed=8)
        moments = DataMoments(np.zeros(n), sig)
        taus = np.geomspace(1e-3, 2, 8)
        w0 = np.zeros(2 * r + 1)
        pc = patch_covariance(sig, r)
        path = patch_filter_trajectory(pc, sigma, eta, n, w0, taus)
        _, ws, _ = gradient_flow_full(
            moments, sigma, eta, w0, np.zeros(n), taus,
            parametrization="patch", half_width=r, adaptive=True,
        )
        offs = np.arange(-r, r + 1)
        taps = np.stack([[w[0, o % n] for o in offs] for w in ws])
        assert np.max(np.abs(taps - path)) < 1e-6

    def test_fixed_point_is_center_column_of_gaussian_solution(self):
        n, r, sigma = 16, 2, 0.8
        sig = stationary_cov(n, seed=9)
        pc = patch_covariance(sig, r)
        late = patch_filter_trajectory(pc, sigma, 1.0, n, np.zeros(2 * r + 1), [1e3])[0]
        a = sigma**2 * np.eye(2 * r + 1) + pc.matrix
        center = np.linalg.solve(a, pc.matrix)[:, r]
        assert np.max(np.abs(late - center)) < 1e-10


class TestCommutativity:
    def test_circulant_matrices_commute(self, circulant_matrix):
        rng = np.random.default_rng(2)
        n = 32
        w1 = circulant_matrix(rng.normal(size=7), np.arange(-3, 4), n)
        w2 = circulant_matrix(rng.normal(size=5), np.arange(-2, 3), n)
        assert np.max(np.abs(w1 @ w2 - w2 @ w1)) < 1e-10
