import numpy as np
import pytest
from numpy.testing import assert_allclose

from lindiff.dynamics import one_layer_psi, two_layer_psi
from lindiff.gaussian import SpectrumSpec, make_covariance
from lindiff.integrate import IntegrationError
from lindiff.oracle import heun_affine_dense
from lindiff.sampler import (
    NoiseSchedule,
    PhiFactor,
    generated_variance,
    mean_transport,
    pf_mode_scaling,
    pf_ode_numeric,
    phi_one_layer,
    phi_two_layer,
)

SCHED = NoiseSchedule(0.002, 80.0, 7.0, 81)  # 80 integration steps


class TestNoiseSchedule:
    def test_grid_monotone_and_endpoints(self):
        g = SCHED.grid()
        assert g[0] == pytest.approx(80.0)
        assert g[-1] == pytest.approx(0.002)
        assert np.all(np.diff(g) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSchedule(sigma_min=1.0, sigma_max=0.5)
        with pytest.raises(ValueError):
            NoiseSchedule(num_steps=1)
        with pytest.raises(ValueError):
            NoiseSchedule(rho=0.0)


class TestPhiOneLayer:
    def test_late_training_limit(self):
        # Phi -> sqrt(lambda + sigma^2) once the Ei arguments are deep
        for sigma in (0.01, 1.0, 50.0):
            val = phi_one_layer(sigma, 1e8, 0.7, 0.1, 1.0)
            assert_allclose(val, np.sqrt(0.7 + sigma**2), rtol=1e-12)

    def test_tau_zero_regularized_power(self):
        assert phi_one_layer(2.0, 0.0, 0.7, 0.1, 1.0) == 2.0**0.9

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            phi_one_layer(-1.0, 1.0, 1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            phi_one_layer(1.0, -1.0, 1.0, 0.1, 1.0)

    def test_ei_memo_keeps_the_lambda_free_term_bit_for_bit(self):
        memo = {}
        for lam in (1e-3, 0.5, 7.0):
            for sigma in (0.002, 80.0):
                assert phi_one_layer(sigma, 2.0, lam, 0.1, 1.0, memo) == phi_one_layer(sigma, 2.0, lam, 0.1, 1.0)
        assert len(memo) == 2  # one entry per (tau, sigma)

    def test_positive_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            sigma = float(rng.uniform(0.002, 80))
            tau = float(rng.uniform(0, 20))
            lam = float(rng.uniform(1e-3, 10))
            assert phi_one_layer(sigma, tau, lam, 0.1, 1.0) > 0


class TestPhiTwoLayer:
    def test_ratio_asymptotics(self):
        s0, s_t, lam, q = 0.002, 80.0, 1.0, 0.1
        late = phi_two_layer(s0, 1e6, lam, q, 1.0) / phi_two_layer(s_t, 1e6, lam, q, 1.0)
        assert_allclose(late, np.sqrt((lam + s0**2) / (lam + s_t**2)), rtol=1e-10)
        early = phi_two_layer(s0, 0.0, lam, q, 1.0) / phi_two_layer(s_t, 0.0, lam, q, 1.0)
        assert_allclose(early, (s0 / s_t) ** (1 - q), rtol=1e-12)

    def test_zero_q_rejected(self):
        with pytest.raises(ValueError):
            phi_two_layer(1.0, 1.0, 1.0, 0.0, 1.0)

    def test_converged_variance_reference_value(self):
        # sigma_T=80, sigma_0=0.002, lambda=1: 6400 * 1.000004 / 6401
        phi = PhiFactor("two-layer", lam=1.0, q=0.1, eta=1.0, tau=1e6)
        val = generated_variance(phi, SCHED)
        assert_allclose(val, 80.0**2 * (1.0 + 0.002**2) / (1.0 + 80.0**2), rtol=1e-9)
        assert abs(val - 0.99984) < 1e-5


class TestGeneratedVariance:
    def test_asymptotic_dispatch_matches_closed_forms(self):
        s0, s_t, q = SCHED.sigma_min, SCHED.sigma_max, 0.3
        for lam in (1e-3, 1.0, 10.0):
            phi_inf = PhiFactor("one-layer", lam=lam, q=q, eta=1.0, tau=1e16)
            assert_allclose(
                generated_variance(phi_inf, SCHED),
                s_t**2 * (lam + s0**2) / (lam + s_t**2),
                rtol=1e-12,
            )
            phi_0 = PhiFactor("one-layer", lam=lam, q=q, eta=1.0, tau=0.0)
            assert_allclose(
                generated_variance(phi_0, SCHED),
                s_t**2 * (s0 / s_t) ** (2 * (1 - q)),
                rtol=1e-12,
            )

    def test_limits_continuous_at_dispatch_boundaries(self):
        # values just inside the Ei-evaluated region approach the asymptotes
        lam, q = 1.0, 0.1
        tau_early = 1.2e-12 / (2 * SCHED.sigma_max**2)
        v_early = generated_variance(PhiFactor("one-layer", lam=lam, q=q, eta=1.0, tau=tau_early), SCHED)
        v0 = SCHED.sigma_max**2 * (SCHED.sigma_min / SCHED.sigma_max) ** (2 * (1 - q))
        assert abs(v_early - v0) / v0 < 1e-6
        tau_late = 51.0 / (2 * SCHED.sigma_min**2)
        v_late = generated_variance(PhiFactor("one-layer", lam=lam, q=q, eta=1.0, tau=tau_late), SCHED)
        v_inf = SCHED.sigma_max**2 * (lam + SCHED.sigma_min**2) / (lam + SCHED.sigma_max**2)
        assert abs(v_late - v_inf) / v_inf < 1e-6

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="unknown Phi case 'full-width-conv'"):
            PhiFactor("full-width-conv", lam=1.0)
        phi = PhiFactor("one-layer", 2.0, tau=3.0)
        assert (phi.case, phi.lam, phi.q, phi.eta, phi.tau) == ("one-layer", 2.0, 0.0, 1.0, 3.0)

    def test_converged_case_arithmetic(self):
        # lam = sigma_T^2 and sigma_0 -> 0 gives lam / 2
        sched = NoiseSchedule(1e-8, 2.0, 7.0, 16)
        val = generated_variance(PhiFactor("converged", lam=4.0), sched)
        assert_allclose(val, 2.0, rtol=1e-12)

class TestAnalyticVsNumericInvariant:
    """Generated variance vs the Monte-Carlo-free Heun route, 16 modes."""

    CASES = ("one-layer", "two-layer", "converged", "full-width-conv")

    @staticmethod
    def _pair(case, lam, tau, sched):
        q = 0.1
        if case == "one-layer":
            phi = PhiFactor("one-layer", lam=lam, q=q, eta=1.0, tau=tau)
            wfn = lambda s: one_layer_psi(lam, s, q, 1.0, tau)
        elif case == "two-layer":
            phi = PhiFactor("two-layer", lam=lam, q=q, eta=1.0, tau=tau)
            wfn = lambda s: two_layer_psi(lam, s, q, 1.0, tau)
        elif case == "converged":
            phi = PhiFactor("converged", lam=lam)
            wfn = lambda s: lam / (lam + s * s)
        else:
            # full-width convolution: one layer with lambda -> S_kk, eta -> N eta (N = 16)
            phi = PhiFactor("one-layer", lam=lam, q=q, eta=16.0, tau=tau)
            wfn = lambda s: one_layer_psi(lam, s, q, 16.0, tau)
        analytic = generated_variance(phi, sched)
        numeric = sched.sigma_max**2 * float(pf_mode_scaling(wfn, sched)[0]) ** 2
        return analytic, numeric

    def _worst(self, sched):
        worst = 0.0
        for case in self.CASES:
            for lam in np.geomspace(1e-3, 10, 16):
                for tau in (0.01, 0.1, 1.0, 10.0):
                    a, n = self._pair(case, float(lam), tau, sched)
                    worst = max(worst, abs(a - n) / n)
        return worst

    @pytest.mark.xfail(
        strict=True,
        reason="unattainable as stated: second-order stepping on the 80-step "
        "rho=7 schedule floors at ~2e-3 for the two-layer/converged/full-width "
        "cases (one-layer alone fits under 1e-3); see DECISIONS.md",
    )
    def test_all_cases_within_1e3_at_80_steps(self):
        assert self._worst(NoiseSchedule(0.002, 80.0, 7.0, 81)) <= 1e-3

    def test_all_cases_within_1e3_at_160_steps(self):
        assert self._worst(NoiseSchedule(0.002, 80.0, 7.0, 161)) <= 1e-3

    def test_error_decreases_quadratically_as_steps_double(self):
        lam, tau = 1.0, 1.0
        gaps = []
        for steps in (81, 161, 321):
            a, n = self._pair("one-layer", lam, tau, NoiseSchedule(0.002, 80.0, 7.0, steps))
            gaps.append(abs(a - n))
        assert gaps[0] / gaps[1] > 3.0
        assert gaps[1] / gaps[2] > 3.0


class TestPfOdeNumeric:
    def test_identity_weights_zero_drift(self):
        x = np.array([1.3, -0.4])
        out = pf_ode_numeric(lambda s: np.ones(2), None, SCHED, x)
        assert_allclose(out, x, atol=1e-14)

    def test_zero_weights_pure_contraction(self):
        # dc/dsigma = c/sigma integrates exactly to sigma_min/sigma_max
        out = pf_ode_numeric(lambda s: np.zeros(3), None, SCHED, np.ones(3))
        assert_allclose(out, SCHED.sigma_min / SCHED.sigma_max, rtol=1e-12)

    def test_mode_scaling_exact_for_constant_weights(self):
        scale = pf_mode_scaling(lambda s: np.array([0.0, 1.0]), SCHED)
        assert_allclose(scale[0], SCHED.sigma_min / SCHED.sigma_max, rtol=1e-13)
        assert_allclose(scale[1], 1.0, rtol=1e-13)

    def test_non_finite_weight_reports_sigma(self):
        def bad(s):
            return np.array([np.nan]) if s < 0.01 else np.array([0.5])

        with pytest.raises(IntegrationError, match="sigma"):
            pf_ode_numeric(bad, None, SCHED, np.ones(1))

    def test_commuting_weights_factorization(self):
        """Dense affine integration equals the per-mode scalar route (Lemma-1 check)."""
        model = make_covariance(SpectrumSpec("log-spaced", {"lo": 0.05, "hi": 4.0}), 5, 3)
        tau, q = 0.5, 0.1
        rng = np.random.default_rng(4)
        b_modes = rng.normal(size=5) * 0.2

        def w_dense(s):
            psi = one_layer_psi(model.spectrum, s, q, 1.0, tau)
            return (model.basis * psi) @ model.basis.T

        def b_dense(s):
            return model.basis @ (b_modes * np.exp(-2.0 * tau))

        x0 = rng.normal(size=5)
        dense_out = heun_affine_dense(w_dense, b_dense, SCHED.grid(), x0)

        def w_modes(s):
            return one_layer_psi(model.spectrum, s, q, 1.0, tau)

        def b_fn(s):
            return b_modes * np.exp(-2.0 * tau)

        mode_out = pf_ode_numeric(w_modes, b_fn, SCHED, model.basis.T @ x0)
        assert np.max(np.abs(model.basis.T @ dense_out - mode_out)) < 1e-8


class TestMeanTransport:
    def test_zero_bias_gives_zero(self):
        phi = PhiFactor("converged", lam=1.0)
        out = mean_transport(lambda s: np.zeros(3), phi, SCHED)
        assert_allclose(out, 0.0)

    def test_converged_denoiser_recovers_mean(self):
        lam, m = 1.0, 0.7
        sched = NoiseSchedule(0.001, 8000.0, 7.0, 400)
        phi = PhiFactor("converged", lam=lam)
        b_fn = lambda s: np.array([s * s / (s * s + lam) * m])
        out = mean_transport(b_fn, phi, sched)
        assert abs(out[0] - m) < 1e-3
        # independent affine PF-ODE route
        heun = pf_ode_numeric(lambda s: np.array([lam / (lam + s * s)]), b_fn, sched, np.zeros(1))
        assert abs(out[0] - heun[0]) < 1e-4

    def test_constant_bias_refinement(self):
        # psi = 0 case: B = b sigma_0 (1/sigma_0 - 1/sigma_T), checked by
        # comparing against a 1000x tighter quadrature tolerance
        sched = NoiseSchedule(0.01, 10.0, 7.0, 16)
        phi = PhiFactor("converged", lam=0.0)
        b_fn = lambda s: np.array([0.5])
        coarse = mean_transport(b_fn, phi, sched, tol=1e-9)
        fine = mean_transport(b_fn, phi, sched, tol=1e-12)
        exact = 0.5 * 0.01 * (1.0 / 0.01 - 1.0 / 10.0)
        assert abs(coarse[0] - fine[0]) < 1e-8
        assert abs(coarse[0] - exact) < 1e-8
