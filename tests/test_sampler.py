import math

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
    log_phi_ratio,
    mean_transport,
    pf_mode_scaling,
    pf_ode_numeric,
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


def _one_layer(lam, tau, q=0.1):
    return PhiFactor("one-layer", lam=lam, q=q, eta=1.0, tau=tau)


class TestPhiOneLayer:
    def test_late_training_limit(self):
        # Phi -> sqrt(lambda + sigma^2) once the Ei arguments are deep
        for sigma in (0.01, 1.0, 50.0):
            val = math.exp(log_phi_ratio(_one_layer(0.7, 1e8), sigma, 80.0))
            assert_allclose(val, np.sqrt((0.7 + sigma**2) / (0.7 + 80.0**2)), rtol=1e-12)

    def test_tau_zero_regularized_power(self):
        assert log_phi_ratio(_one_layer(0.7, 0.0), 2.0, 1.0) == 0.9 * math.log(2.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            log_phi_ratio(_one_layer(1.0, 1.0), -1.0, 1.0)
        with pytest.raises(ValueError):
            log_phi_ratio(_one_layer(1.0, -1.0), 1.0, 2.0)

    def test_ei_memo_keeps_the_lambda_free_term_bit_for_bit(self):
        memo = {}
        for lam in (1e-3, 0.5, 7.0):
            phi = _one_layer(lam, 2.0)
            assert log_phi_ratio(phi, 0.002, 80.0, memo) == log_phi_ratio(phi, 0.002, 80.0)
        assert len(memo) == 2  # one entry per (tau, sigma)

    def test_positive_everywhere(self):
        # Phi > 0 wherever its log ratio is finite
        rng = np.random.default_rng(0)
        for _ in range(50):
            sigma = float(rng.uniform(0.002, 80))
            tau = float(rng.uniform(0, 20))
            lam = float(rng.uniform(1e-3, 10))
            assert math.isfinite(log_phi_ratio(_one_layer(lam, tau), sigma, 1.0))


class TestPhiTwoLayer:
    def test_ratio_asymptotics(self):
        s0, s_t, lam, q = 0.002, 80.0, 1.0, 0.1
        late = math.exp(log_phi_ratio(PhiFactor("two-layer", lam, q, 1.0, 1e6), s0, s_t))
        assert_allclose(late, np.sqrt((lam + s0**2) / (lam + s_t**2)), rtol=1e-10)
        early = math.exp(log_phi_ratio(PhiFactor("two-layer", lam, q, 1.0, 0.0), s0, s_t))
        assert_allclose(early, (s0 / s_t) ** (1 - q), rtol=1e-12)

    def test_zero_q_rejected(self):
        with pytest.raises(ValueError):
            log_phi_ratio(PhiFactor("two-layer", 1.0, 0.0, 1.0, 1.0), 1.0, 2.0)

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
        # at both ends of training the Ei form approaches the tau = 0 and converged limits
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
        unknown = PhiFactor("full-width-conv", lam=1.0)
        with pytest.raises(ValueError, match="unknown Phi case 'full-width-conv'"):
            generated_variance(unknown, SCHED)
        with pytest.raises(ValueError, match="unknown Phi case 'full-width-conv'"):
            mean_transport(lambda s: np.ones(2), unknown, SCHED)
        phi = PhiFactor("one-layer", 2.0, tau=3.0)
        assert (phi.case, phi.lam, phi.q, phi.eta, phi.tau) == ("one-layer", 2.0, 0.0, 1.0, 3.0)

    def test_converged_case_arithmetic(self):
        # lam = sigma_T^2 and sigma_0 -> 0 gives lam / 2
        sched = NoiseSchedule(1e-8, 2.0, 7.0, 16)
        val = generated_variance(PhiFactor("converged", lam=4.0), sched)
        assert_allclose(val, 2.0, rtol=1e-12)

    def test_two_layer_matches_mpmath_on_random_cells(self):
        # log-uniform cells over the config's range, many with 8 eta tau lam below
        # the rounding of e^0, where 1 - E cancels in the direct factor
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        rng = np.random.default_rng(7)
        n = 600
        s0 = 10 ** rng.uniform(-3, 3, n)
        s_t = s0 * 10 ** rng.uniform(0.5, 4, n)
        q, tau, lam = 10 ** rng.uniform(-3, 1.5, n), 10 ** rng.uniform(-20, 6, n), 10 ** rng.uniform(-12, 3, n)
        assert np.count_nonzero(np.exp(-8 * tau * lam) == 1.0) > 50
        worst = 0.0
        for cell in zip(s0.tolist(), s_t.tolist(), q.tolist(), tau.tolist(), lam.tolist()):
            a, b, qq, t, l = map(mp.mpf, cell)
            decay = mp.exp(-8 * t * l)
            c = (1 - qq) * decay / (qq + (1 - qq) * decay)
            phi = lambda s: s**c * (l * decay + qq * (1 - decay) * (l + s**2)) ** ((1 - c) / 2)
            ref = b**2 * (phi(a) / phi(b)) ** 2
            got = generated_variance(PhiFactor("two-layer", cell[4], cell[2], 1.0, cell[3]), NoiseSchedule(cell[0], cell[1]))
            worst = max(worst, float(abs(got / ref - 1)))
        assert worst < 1e-12


class TestQuadratureOracle:
    """lambda_gen = sigma_T^2 exp(2 int (psi - 1) d ln sigma) from the weights alone,
    by 16-point Gauss-Legendre on 120 equal panels in ln sigma."""

    @pytest.mark.parametrize("case, psi", [("one-layer", one_layer_psi), ("two-layer", two_layer_psi)])
    def test_closed_form_matches_gauss_legendre_in_log_sigma(self, case, psi):
        # lambda = 0 and 1e-18 are the zero and round-off eigenvalues of rank-deficient data
        lam = np.concatenate([[0.0, 1e-18], np.geomspace(1e-3, 10, 16)])
        taus, q, panels = np.geomspace(1e-4, 1e6, 41), 0.1, 120
        nodes, weights = np.polynomial.legendre.leggauss(16)
        lo, hi = math.log(SCHED.sigma_min), math.log(SCHED.sigma_max)
        half = 0.5 * (hi - lo) / panels
        sigma = np.exp(lo + half * (2 * np.arange(panels)[:, None] + 1 + nodes)).ravel()
        weight = psi(lam[:, None, None], sigma, q, 1.0, taus[:, None])
        numeric = SCHED.sigma_max**2 * np.exp(2.0 * half * ((weight - 1.0) @ np.tile(weights, panels)))
        closed = [[generated_variance(PhiFactor(case, l, q, 1.0, t), SCHED) for t in taus.tolist()] for l in lam.tolist()]
        assert np.max(np.abs(np.array(closed) / numeric - 1.0)) < 1e-10


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
        # psi = 0 case: B = b sigma_0 (1/sigma_0 - 1/sigma_T)
        sched = NoiseSchedule(0.01, 10.0, 7.0, 16)
        phi = PhiFactor("converged", lam=0.0)
        out = mean_transport(lambda s: np.array([0.5]), phi, sched)
        exact = 0.5 * 0.01 * (1.0 / 0.01 - 1.0 / 10.0)
        assert abs(out[0] - exact) < 1e-8

    def test_unresolved_bias_raises(self):
        # sin(200 ln sigma) swings faster than the 32-panel rule resolves, so the
        # 32- and 64-panel values differ by far more than the quadrature tolerance
        phi = PhiFactor("converged", lam=1.0)
        with pytest.raises(IntegrationError, match=r"^quadrature error \S+ exceeds tol 1.0e-09$"):
            mean_transport(lambda s: np.array([math.sin(200.0 * math.log(s))]), phi, NoiseSchedule())
