import numpy as np
import pytest
from numpy.testing import assert_allclose

import lindiff.oracle as oracle
from lindiff.dynamics import LossVariant
from lindiff.gaussian import DataMoments
from lindiff.integrate import rk4_path, rk45_path
from lindiff.oracle import (
    dense_dft_diag,
    gradient_flow_full,
    loss_gradients,
    loss_value,
    mc_dsm_loss,
    variant_moments,
)

ALL_VARIANTS = [
    LossVariant.edm(),
    LossVariant("XPred", alpha=lambda t: 1.0 / (1.0 + t), sigma_t=lambda t: t),
    LossVariant("EpsPred", alpha=lambda t: 1.0 / (1.0 + t), sigma_t=lambda t: t),
    LossVariant("VPred", alpha=lambda t: 1.0 / (1.0 + t), sigma_t=lambda t: t),
    LossVariant.flow_match(),
]


class TestGradients:
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.tag)
    def test_analytic_gradients_match_finite_differences(self, variant, moments6):
        """Central differences of the quadratic loss at 20 random points."""
        rng = np.random.default_rng(17)
        s = 0.7
        mm = variant_moments(variant, moments6, s)
        h = 1e-6
        for _ in range(20):
            w = rng.normal(size=(6, 6)) * 0.5
            b = rng.normal(size=6) * 0.5
            gw, gb = loss_gradients(w, b, mm)
            i, j = rng.integers(0, 6, size=2)
            dw = np.zeros((6, 6))
            dw[i, j] = h
            fd_w = (loss_value(w + dw, b, mm) - loss_value(w - dw, b, mm)) / (2 * h)
            assert abs(fd_w - gw[i, j]) <= 1e-5 * max(1.0, abs(gw[i, j]))
            db = np.zeros(6)
            db[j] = h
            fd_b = (loss_value(w, b + db, mm) - loss_value(w, b - db, mm)) / (2 * h)
            assert abs(fd_b - gb[j]) <= 1e-5 * max(1.0, abs(gb[j]))

    def test_nonzero_mean_gradients(self, model6):
        rng = np.random.default_rng(3)
        mu = rng.normal(size=6)
        moments = DataMoments(mu, model6.covariance())
        mm = variant_moments(LossVariant.edm(), moments, 1.1)
        w = rng.normal(size=(6, 6)) * 0.3
        b = rng.normal(size=6) * 0.3
        gw, gb = loss_gradients(w, b, mm)
        # against the direct expressions for the clean-target loss
        sig = moments.covariance
        gb_ref = 2.0 * (b - (np.eye(6) - w) @ mu)
        gw_ref = -2.0 * sig + 2.0 * w @ (sig + 1.1**2 * np.eye(6)) + np.outer(gb_ref, mu)
        assert_allclose(gb, gb_ref, atol=1e-12)
        assert_allclose(gw, gw_ref, atol=1e-12)


class TestEnergyDescent:
    @pytest.mark.parametrize(
        "parametrization", ["one-layer", "two-layer-symmetric", "circulant", "patch"]
    )
    def test_loss_non_increasing_along_trajectory(self, parametrization, moments6):
        taus = np.geomspace(1e-3, 3, 12)
        mm = variant_moments(LossVariant.edm(), moments6, 0.9)
        rng = np.random.default_rng(1)
        if parametrization == "one-layer":
            w0 = rng.normal(size=(6, 6)) * 0.3
        elif parametrization == "two-layer-symmetric":
            w0 = rng.normal(size=(6, 6)) * 0.3  # this is P(0)
        elif parametrization == "circulant":
            w0 = rng.normal(size=6) * 0.3
        else:
            w0 = rng.normal(size=3) * 0.3
        _, ws, bs = gradient_flow_full(
            moments6, 0.9, 1.0, w0, np.zeros(6), taus,
            parametrization=parametrization, half_width=1,
        )
        losses = [loss_value(ws[i], bs[i], mm) for i in range(len(taus))]
        assert np.all(np.diff(losses) <= 1e-10)


class TestFlowRightHandSide:
    """Each flow's right-hand side against -eta times the loss_gradients chain rule."""

    @pytest.mark.parametrize(
        "parametrization", ["one-layer", "two-layer-symmetric", "circulant", "patch"]
    )
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.tag)
    def test_matches_loss_gradients_with_nonzero_mean(self, monkeypatch, model6, variant, parametrization):
        rng = np.random.default_rng(23)
        moments = DataMoments(rng.normal(size=6), model6.covariance())
        mm = variant_moments(variant, moments, 0.7)
        eta, idx = 0.6, np.arange(6)
        offsets = np.arange(6) if parametrization == "circulant" else np.arange(-2, 3)
        dense = parametrization in ("one-layer", "two-layer-symmetric")
        captured = []

        def capture(f, y0, grid, **_):
            captured.append(f)
            return np.stack([y0] * len(grid))

        monkeypatch.setattr(oracle, "rk4_path", capture)
        monkeypatch.setattr(oracle, "rk45_path", capture)  # the two-layer flow's integrator
        gradient_flow_full(
            moments, 0.7, eta, np.zeros((6, 6)) if dense else np.zeros(len(offsets)), np.zeros(6), [0.1],
            variant=variant, parametrization=parametrization, half_width=2,
        )
        (rhs,) = captured
        for _ in range(5):
            if dense:
                w, b = rng.normal(size=(6, 6)), rng.normal(size=6)
                y = np.hstack([w, b[:, None]])
                if parametrization == "one-layer":
                    gw, gb = loss_gradients(w, b, mm)
                else:  # w is the factor P of W = P P^T
                    gw, gb = loss_gradients(w @ w.T, b, mm)
                    gw = (gw + gw.T) @ w
                expected = -eta * np.hstack([gw, gb[:, None]])
            else:
                y = rng.normal(size=len(offsets))
                w = np.zeros((6, 6))
                for o, t in zip(offsets, y):
                    w[idx, (idx + o) % 6] = t
                gw, _ = loss_gradients(w, np.zeros(6), mm)
                expected = -eta * np.array([gw[idx, (idx + o) % 6].sum() for o in offsets])
            got = rhs(0.0, y)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_two_layer_flow_is_integrated_adaptively(self, monkeypatch, model6, moments6):
        """The nonlinear two-layer flow never takes fixed RK4 steps, whatever ``adaptive`` says."""

        def no_rk4(*_, **__):
            raise AssertionError("fixed-step RK4 on the two-layer flow")

        monkeypatch.setattr(oracle, "rk4_path", no_rk4)
        taus = np.geomspace(1e-3, 1.0, 4)
        p0 = model6.basis * np.sqrt(0.1)
        _, ws, _ = gradient_flow_full(
            moments6, 1.0, 1.0, p0, np.zeros(6), taus, parametrization="two-layer-symmetric"
        )
        assert ws.shape == (4, 6, 6)
        assert np.all(np.isfinite(ws))

    @pytest.mark.parametrize(
        "half_width, message",
        [(-1, "half_width must be >= 0"), (3, r"patch must fit in the signal \(2r\+1 <= N\)")],
    )
    def test_patch_must_fit_in_the_signal(self, moments6, half_width, message):
        with pytest.raises(ValueError, match=message):
            gradient_flow_full(
                moments6, 0.9, 1.0, np.zeros(max(2 * half_width + 1, 0)), np.zeros(6), [0.1],
                parametrization="patch", half_width=half_width,
            )


class TestMonteCarloLoss:
    def test_optimum_within_three_standard_errors(self, model6, moments6):
        sigma = 0.8
        w_star = (model6.basis * (model6.spectrum / (model6.spectrum + sigma**2))) @ model6.basis.T
        est, sem = mc_dsm_loss(w_star, np.zeros(6), moments6, sigma, 120_000, seed=5)
        floor = sigma**2 * np.sum(model6.spectrum / (model6.spectrum + sigma**2))
        assert abs(est - floor) < 3.0 * sem

    def test_identity_denoiser_pure_noise_penalty(self, moments6):
        sigma = 0.8
        est, sem = mc_dsm_loss(np.eye(6), np.zeros(6), moments6, sigma, 120_000, seed=6)
        assert abs(est - sigma**2 * 6) < 3.0 * sem

    def test_seed_repeatability(self, moments6):
        a = mc_dsm_loss(np.eye(6) * 0.5, np.zeros(6), moments6, 1.0, 1000, seed=9)
        b = mc_dsm_loss(np.eye(6) * 0.5, np.zeros(6), moments6, 1.0, 1000, seed=9)
        assert a == b


class TestDenseDftDiag:
    def test_identity(self):
        assert_allclose(dense_dft_diag(np.eye(8)).real, 1.0, atol=1e-12)

    def test_circulant_diag_is_dft_of_first_row(self):
        from lindiff.convolution import circulant_matrix

        kernel = np.array([0.3, 1.0, 0.3])
        sig = circulant_matrix(kernel, [-1, 0, 1], 8)
        expected = np.fft.fft(sig[0]).real
        assert_allclose(dense_dft_diag(sig).real, expected, atol=1e-12)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            dense_dft_diag(np.eye(600))


class TestIntegrators:
    def test_rk4_and_rk45_agree_on_nonlinear_ode(self):
        def rhs(_t, y):
            return np.array([y[1], -np.sin(y[0])])

        grid = np.linspace(0, 10, 11)
        a = rk4_path(rhs, np.array([1.0, 0.0]), grid, substeps=200)
        b = rk45_path(rhs, np.array([1.0, 0.0]), grid, rtol=1e-11, atol=1e-13)
        assert np.max(np.abs(a - b)) < 1e-8
