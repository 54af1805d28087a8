import numpy as np
import pytest
from numpy.testing import assert_allclose

from lindiff.analysis import EmergenceCriterion, GrayZone, emergence_time, power_law_fit
from lindiff.dynamics import LossVariant, convergence_rate, optimal_mode_weight
from lindiff.flow_matching import (
    fm_generated_variance_ratio,
    fm_one_layer_weight,
    fm_sampling_converged,
    fm_two_layer_weight,
)
from lindiff.gaussian import DataMoments, SpectrumSpec, make_covariance
from lindiff.integrate import rk45_path
from lindiff.oracle import gradient_flow_full


class TestFmOneLayerWeight:
    def test_initial_value(self):
        assert fm_one_layer_weight(0.0, 0.5, 2.0, 0.3, 1.0) == 0.3

    def test_t_equal_one_target_and_rate(self):
        lam = 3.0
        assert_allclose(fm_one_layer_weight(1e9, 1.0, lam, 0.1, 1.0), 1.0)
        # decay rate 2 eta lambda at t = 1
        v1 = fm_one_layer_weight(0.5, 1.0, lam, 0.1, 1.0)
        assert_allclose(v1, 1.0 + (0.1 - 1.0) * np.exp(-2.0 * 0.5 * lam), rtol=1e-14)

    def test_against_gradient_rk4(self):
        lam, t, q, eta = 0.8, 0.6, 0.2, 1.0
        taus = np.geomspace(1e-2, 5, 9)
        rate = t * t * lam + (1 - t) ** 2

        def rhs(_tau, w):
            return -2.0 * eta * (w * rate - (t * lam - (1 - t)))

        num = rk45_path(rhs, np.array([q]), taus, rtol=1e-12, atol=1e-14)[:, 0]
        closed = fm_one_layer_weight(taus, t, lam, q, eta)
        assert np.max(np.abs(num - closed)) < 1e-6

    def test_out_of_range_t(self):
        with pytest.raises(ValueError):
            fm_one_layer_weight(1.0, 0.0, 1.0, 0.1, 1.0)


class TestFmSamplingConverged:
    def test_endpoints(self):
        assert fm_sampling_converged(7.0, 0.0) == 1.0
        assert fm_sampling_converged(4.0, 1.0) == 2.0

    def test_against_numeric_flow_integration(self):
        for lam in (0.25, 1.0, 4.0):

            def rhs(t, c):
                return (t * lam - (1 - t)) / (t * t * lam + (1 - t) ** 2) * c

            path = rk45_path(rhs, np.array([1.0]), np.linspace(0, 1, 201), rtol=1e-12, atol=1e-14)
            assert abs(path[-1, 0] - np.sqrt(lam)) < 1e-8
            mid = rk45_path(rhs, np.array([1.0]), [0.5], rtol=1e-12, atol=1e-14)[-1, 0]
            assert abs(mid - fm_sampling_converged(lam, 0.5)) < 1e-8

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            fm_sampling_converged(-1.0, 0.5)


class TestFmGeneratedVarianceRatio:
    def test_late_training_limit(self):
        assert_allclose(fm_generated_variance_ratio(1e4, 0.5, 0.1, 1.0), 1.0, rtol=1e-12)

    def test_unit_lambda_symmetry(self):
        # Ei terms cancel exactly at lambda = 1, leaving only the erf bracket
        import math

        tau, q, eta = 0.7, 0.25, 1.0
        x = 2 * eta * tau
        arg = math.sqrt(x / 2.0)
        pref = math.sqrt(math.pi / (2.0 * x)) * q * math.exp(-x / 2.0)
        expected = math.exp(pref * 2.0 * math.erf(arg))
        assert_allclose(fm_generated_variance_ratio(tau, 1.0, q, eta), expected, rtol=1e-14)

    def test_early_training_limit(self):
        # ratio -> e^(2Q) / lambda as tau -> 0
        for lam, q in ((0.5, 0.1), (2.0, 0.3)):
            assert_allclose(
                fm_generated_variance_ratio(1e-12, lam, q, 1.0), np.exp(2 * q) / lam, rtol=1e-7
            )
            assert_allclose(
                fm_generated_variance_ratio(0.0, lam, q, 1.0), np.exp(2 * q) / lam, rtol=1e-15
            )

    @pytest.mark.parametrize("tau,lam,q", [(1.0, 0.1, 0.1), (0.5, 1.0, 0.3), (2.0, 3.0, 0.1)])
    def test_against_numeric_time_integration(self, tau, lam, q):
        """Integrate the sampling ODE with training-time-tau weights over t."""
        eta = 1.0

        def rhs(t, c):
            t = min(max(t, 0.0), 1.0)
            if t == 0.0:
                psi = -1.0 + (q + 1.0) * np.exp(-2.0 * eta * tau)
            else:
                psi = fm_one_layer_weight(tau, t, lam, q, eta)
            return psi * c

        numeric = rk45_path(rhs, np.array([1.0]), [1.0], rtol=1e-12, atol=1e-14)[-1, 0] ** 2 / lam
        analytic = fm_generated_variance_ratio(tau, lam, q, eta)
        assert abs(analytic - numeric) / numeric < 1e-9

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fm_generated_variance_ratio(1.0, 0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            fm_generated_variance_ratio(-1.0, 1.0, 0.1, 1.0)


class TestFmTwoLayer:
    def test_attractor_above_boundary(self):
        lam, t = 2.0, 0.8
        q_star = (t * lam - (1 - t)) / (t * t * lam + (1 - t) ** 2)
        state = fm_two_layer_weight(500.0, t, lam, 0.05, 1.0)
        assert state.attainable
        assert_allclose(state.value, q_star, rtol=1e-12)

    def test_stuck_at_zero_below_boundary(self):
        state = fm_two_layer_weight(500.0, 0.2, 2.0, 0.05, 1.0)
        assert not state.attainable
        assert state.value < 1e-12

    def test_boundary_algebraic_decay(self):
        lam = 2.0
        t_c = 1.0 / (lam + 1.0)
        b = 8.0 * (t_c * t_c * lam + (1 - t_c) ** 2)
        state = fm_two_layer_weight(3.0, t_c, lam, 0.05, 1.0)
        assert_allclose(state.value, 0.05 / (1.0 + b * 0.05 * 3.0), rtol=1e-12)

    @pytest.mark.parametrize("t", [0.6, 0.25])
    def test_against_norm_dynamics_rk4(self, t):
        lam, q, eta = 2.0, 0.05, 1.0
        taus = np.geomspace(0.01, 50, 12)

        def rhs(_tau, h):
            return 8.0 * eta * ((t * lam - (1 - t)) - (t * t * lam + (1 - t) ** 2) * h) * h

        num = rk45_path(rhs, np.array([q]), taus, rtol=1e-12, atol=1e-14)[:, 0]
        closed = np.array([fm_two_layer_weight(tt, t, lam, q, eta).value for tt in taus])
        assert np.max(np.abs(num - closed)) < 1e-6

    def test_zero_q_rejected(self):
        with pytest.raises(ValueError):
            fm_two_layer_weight(1.0, 0.5, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("q", [0.05, 0.2, 1.5])
    def test_against_two_layer_gradient_flow(self, q):
        """The closed form against RK45 on W = P P^T of the raw flow-matching loss, relative
        to each mode's largest |psi|: 6.5e-12 here, 0.55 on the clock of 4 eta instead of 8 eta."""
        model = make_covariance(SpectrumSpec("log-spaced", {"lo": 0.05, "hi": 3.0}), 4, 9)
        moments = DataMoments(np.zeros(4), model.covariance())
        ts, eta, taus = np.linspace(0.1, 1.0, 10), 1.0, np.geomspace(1e-3, 5.0, 10)
        _, ws, _ = gradient_flow_full(
            moments, ts, eta, model.basis * np.sqrt(q), np.zeros(4), taus,
            variant=LossVariant.flow_match(), parametrization="two-layer-symmetric",
        )
        flow = np.einsum("ik,tsij,jk->tsk", model.basis, ws, model.basis)
        closed = np.array(
            [[[fm_two_layer_weight(tau, t, lam, q, eta).value for lam in model.spectrum] for t in ts] for tau in taus]
        )
        assert np.max(np.abs(flow - closed) / np.max(np.abs(flow), axis=0)) < 1e-9


class TestTableConsistency:
    def test_weight_and_rate_match_variant_table_exactly(self):
        fm = LossVariant.flow_match()
        for lam in np.geomspace(1e-2, 10, 10):
            for t in np.linspace(0.05, 0.95, 10):
                rate = t * t * lam + (1 - t) ** 2
                w_star = (t * lam - (1 - t)) / rate
                assert optimal_mode_weight(fm, lam, t) == w_star
                assert convergence_rate(fm, lam, t) == rate
                # the trajectory's own target and rate agree with the table
                val = fm_one_layer_weight(3.7, t, lam, 0.1, 1.0)
                ref = w_star + (0.1 - w_star) * np.exp(-2.0 * 3.7 * rate)
                assert_allclose(val, ref, rtol=1e-14)


class TestFmEmergencePowerLaw:
    def test_harmonic_alpha_near_one(self):
        q, eta = 0.1, 1.0
        lams = np.geomspace(1e-3, 10, 24)
        taus = np.geomspace(1e-4, 1e5, 400)
        v0 = np.exp(2 * q)
        crit = EmergenceCriterion("harmonic")
        vals = np.array([[fm_generated_variance_ratio(t, lam, q, eta) * lam for t in taus] for lam in lams])
        stars = emergence_time(taus, vals, v0, lams, crit)
        fits = power_law_fit(lams, stars, GrayZone(), np.full(len(lams), v0), lams)
        assert set(fits) == {"increasing", "decreasing"}
        for fit in fits.values():
            assert 0.8 <= fit.alpha <= 1.2
            assert fit.r_squared > 0.99
