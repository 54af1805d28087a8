import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from lindiff.dynamics import (
    LossVariant,
    Residual,
    convergence_rate,
    deep_linear_mode,
    discrete_gd_trajectory,
    linear_flow,
    mean_coupled_trajectory,
    one_layer_bias,
    one_layer_psi,
    optimal_mode_weight,
    two_layer_psi,
)
from lindiff.gaussian import CovarianceModel, DataMoments
from lindiff.integrate import rk45_path
from lindiff.oracle import gradient_flow_full, loss_gradients, variant_moments


class TestLossVariantTable:
    def test_edm_values(self):
        edm = LossVariant.edm()
        assert optimal_mode_weight(edm, 1.0, 1.0) == 0.5
        assert optimal_mode_weight(edm, 0.0, 2.0) == 0.0
        assert convergence_rate(edm, 3.0, 1.0) == 4.0

    def test_flow_match_values(self):
        fm = LossVariant.flow_match()
        assert optimal_mode_weight(fm, 2.0, 1.0) == 1.0
        assert convergence_rate(fm, 123.0, 0.0) == 1.0
        with pytest.raises(ValueError):
            optimal_mode_weight(fm, 0.0, 1.0)

    def test_flow_match_rate_maximized_at_inverse_lambda_plus_one(self):
        # grid-search oracle over t for the fastest-converging time
        fm = LossVariant.flow_match()
        for lam in (0.3, 1.0, 4.0):
            ts = np.linspace(1e-4, 1 - 1e-4, 20001)
            rates = np.array([convergence_rate(fm, lam, t) for t in ts])
            t_best = ts[np.argmin(rates)]  # slowest; fastest *decay of 1/rate*...
            # the mode's time constant 1/rate is maximized where rate is minimal
            assert abs(t_best - 1.0 / (lam + 1.0)) < 1e-3

    def test_generic_schedule_rows(self):
        alpha = lambda t: 1.0 / (1.0 + t)
        sig = lambda t: t
        lam, t = 0.7, 0.4
        a, s = alpha(t), sig(t)
        den = a * a * lam + s * s
        x = LossVariant("XPred", alpha, sig)
        eps = LossVariant("EpsPred", alpha, sig)
        v = LossVariant("VPred", alpha, sig)
        assert_allclose(optimal_mode_weight(x, lam, t), a * lam / den)
        assert_allclose(optimal_mode_weight(eps, lam, t), s / den)
        assert_allclose(optimal_mode_weight(v, lam, t), a * s * (1 - lam) / den)
        for variant in (x, eps, v):
            assert_allclose(convergence_rate(variant, lam, t), den)


class TestOneLayer:
    def test_initial_value(self):
        assert one_layer_psi(0.7, 1.3, 0.25, 2.0, 0.0) == 0.25

    def test_pinned_value_against_rk4(self):
        # lambda=1, sigma=1, Q=0, eta=1, tau=0.25 -> 0.5 (1 - e^-1)
        val = one_layer_psi(1.0, 1.0, 0.0, 1.0, 0.25)
        assert_allclose(val, 0.5 * (1.0 - np.exp(-1.0)), rtol=1e-15)
        assert_allclose(val, 0.3160602794142788, rtol=1e-12)

        def rhs(_t, w):  # dW/dtau = -eta grad, Eq. gradient for d=1
            return -(-2.0 * 1.0 + 2.0 * w * (1.0 + 1.0))

        num = rk45_path(rhs, np.array([0.0]), [0.25], rtol=1e-13, atol=1e-15)[-1, 0]
        assert_allclose(val, num, atol=1e-12)

    def test_broadcasts_scalars_and_arrays_like_the_broadcast_arrays_formula(self):
        def reference(lam, sigma, q, eta, tau):
            lam, sigma, q, tau = np.broadcast_arrays(
                np.asarray(lam, float), np.asarray(sigma, float), np.asarray(q, float), np.asarray(tau, float)
            )
            z = -2.0 * eta * tau * (sigma**2 + lam)
            return q * np.exp(z) - lam / (lam + sigma**2) * np.expm1(z)

        spectrum = np.geomspace(1e-3, 10.0, 37)
        taus = np.geomspace(1e-4, 1e6, 61)
        q = np.linspace(0.0, 0.9, 61)
        # 0.6931253941269515 ** 2 != 0.6931253941269515 * 0.6931253941269515 for Python floats
        for sigma in (0.1, 1.0, 10.0, 0.6931253941269515, np.float64(0.6931253941269515)):
            cases = [
                (spectrum[:, None], sigma, 0.1, 1.0, taus[None, :]),
                (spectrum[:, None], sigma, q, 2.0, taus[None, :]),
                (spectrum[:, None, None], np.array([sigma, 1.0])[:, None], q, 1.0, taus),
                (spectrum[5], sigma, 0.1, 1.0, taus[7]),
                (float(spectrum[5]), sigma, np.float64(0.3), 1.0, 2.5),
                (spectrum, sigma, 0.1, np.float64(0.5), 1e-2),
            ]
            for lam, s, q0, eta, tau in cases:
                got = one_layer_psi(lam, s, q0, eta, tau)
                want = reference(lam, s, q0, eta, tau)
                assert np.shape(got) == np.broadcast_shapes(*map(np.shape, (lam, s, q0, eta, tau)))
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_zero_eigenvalue_pure_decay(self):
        assert_allclose(one_layer_psi(0.0, 1.0, 0.3, 1.0, 1.0), 0.3 * np.exp(-2.0))

    def test_ordering_property(self):
        # relative gap e^{-2 eta tau (sigma^2+lambda)} strictly smaller for larger lambda
        taus = np.geomspace(1e-2, 5, 9)
        for sigma in (0.1, 1.0):
            gap_hi = np.exp(-2.0 * taus * (sigma**2 + 2.0))
            gap_lo = np.exp(-2.0 * taus * (sigma**2 + 0.2))
            assert np.all(gap_hi < gap_lo)

    def test_bias_decay(self):
        b0 = np.array([1.0, -2.0])
        assert_allclose(one_layer_bias(b0, 0.5, 1.0), b0 / np.e)
        assert_allclose(one_layer_bias(b0, 2.0, 0.0), b0)

        def rhs(_t, b):
            return -2.0 * 1.7 * b

        num = rk45_path(rhs, b0, [0.8], rtol=1e-13, atol=1e-15)[-1]
        assert_allclose(one_layer_bias(b0, 1.7, 0.8), num, atol=1e-12)


class TestLinearFlow:
    """linear_flow against a 30-digit matrix exponential on a batch of two SPD matrices."""

    @pytest.fixture
    def system(self):
        rng = np.random.default_rng(4)
        g = rng.normal(size=(2, 4, 4))
        a = g @ np.swapaxes(g, -1, -2) + 0.5 * np.eye(4)
        return a, rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), 0.7

    def test_matches_mpmath_expm(self, system):
        a, r, x0, rate = system
        taus = np.array([0.0, 0.05, 0.8, 3.0])
        got = linear_flow(a, r, x0, rate, taus)
        assert got.shape == (4, 2, 4, 3)
        with mp.workdps(30):
            for j in range(2):
                am = mp.matrix(a[j].tolist())
                x_star = mp.inverse(am) * mp.matrix(r.tolist())
                for i, tau in enumerate(taus):
                    ref = x_star + mp.expm(-rate * mp.mpf(float(tau)) * am) * (mp.matrix(x0.tolist()) - x_star)
                    ref = np.array(ref.tolist(), dtype=float)
                    assert np.max(np.abs(got[i, j] - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_start_and_fixed_point(self, system):
        a, r, x0, rate = system
        got = linear_flow(a, r, x0, rate, [0.0, 1e4])
        assert_allclose(got[0], np.broadcast_to(x0, got[0].shape), rtol=1e-12, atol=0)
        assert_allclose(a @ got[1], np.broadcast_to(r, got[1].shape), rtol=1e-12, atol=1e-12 * np.max(np.abs(r)))


class TestMeanCovCoupling:
    def test_zero_mean_reduces_to_decoupled(self, model6):
        moments = DataMoments(np.zeros(6), model6.covariance())
        taus = np.geomspace(1e-2, 5, 8)
        model = moments.eigenmodel()
        basis = model.basis
        ws, bs = mean_coupled_trajectory(moments, 1.0, 1.0, (basis * 0.2) @ basis.T, np.full(6, 0.3), taus)
        weight_diag = np.einsum("ik,tij,jk->tk", basis, ws, basis)
        decoupled = one_layer_psi(model.spectrum[None, :], 1.0, 0.2, 1.0, taus[:, None])
        assert np.max(np.abs(weight_diag - decoupled)) < 1e-12
        bias = one_layer_bias(np.full(6, 0.3), 1.0, taus).T
        assert np.max(np.abs(bs - bias)) < 1e-12

    @pytest.mark.parametrize("sigma", [0.1, 1.5, 4.0])
    def test_two_dimensional_example_vs_rk4(self, sigma):
        # mean aligned with the single mode: m=1, lambda=1
        moments = DataMoments(np.array([1.0]), np.array([[1.0]]))
        taus = np.geomspace(1e-2, 8, 12)
        closed_w, closed_b = mean_coupled_trajectory(moments, sigma, 1.0, np.array([[0.3]]), np.array([0.1]), taus)
        ws, bs = gradient_flow_full(
            moments, sigma, 1.0, np.array([[0.3]]), np.array([0.1]), taus, adaptive=True
        )
        assert np.max(np.abs(ws[:, 0, 0] - closed_w[:, 0, 0])) < 1e-8
        assert np.max(np.abs(bs[:, 0] - closed_b[:, 0])) < 1e-8

    def test_fixed_point_is_ridge_solution(self, model6):
        rng = np.random.default_rng(8)
        mu = rng.normal(size=6)
        moments = DataMoments(mu, model6.covariance())
        basis = moments.eigenmodel().basis
        ws, bs = mean_coupled_trajectory(moments, 0.8, 1.0, (basis * 0.2) @ basis.T, np.zeros(6), [0.0, 400.0])
        sigma_mat = moments.covariance
        w_star = sigma_mat @ np.linalg.inv(sigma_mat + 0.8**2 * np.eye(6))
        b_star = (np.eye(6) - w_star) @ mu
        assert np.max(np.abs(ws[1] - w_star)) < 1e-9
        assert np.max(np.abs(bs[1] - b_star)) < 1e-9


class TestTwoLayer:
    def test_zero_init_is_saddle(self):
        taus = np.geomspace(1e-3, 10, 7)
        assert np.all(two_layer_psi(1.0, 1.0, 0.0, 1.0, taus) == 0.0)

    def test_negative_init_rejected(self):
        with pytest.raises(ValueError):
            two_layer_psi(1.0, 1.0, -0.1, 1.0, 1.0)

    def test_against_scalar_rk4(self):
        # df/dtau = 8 eta (lambda - (sigma^2+lambda) f) f
        lam, sigma, q, eta = 1.0, 1.0, 0.01, 1.0
        taus = np.geomspace(1e-3, 4, 10)

        def rhs(_t, f):
            return 8.0 * eta * (lam - (sigma**2 + lam) * f) * f

        num = rk45_path(rhs, np.array([q]), taus, rtol=1e-12, atol=1e-14)[:, 0]
        closed = two_layer_psi(lam, sigma, q, eta, taus)
        assert np.max(np.abs(num - closed)) < 1e-8

    def test_emergence_time_harmonic_mean(self):
        # ln 2 / (8 eta lambda) when Q = 1e-4 * target, within 5%
        from lindiff.analysis import EmergenceCriterion, emergence_time

        crit = EmergenceCriterion("harmonic")
        for lam, sigma, eta in ((1.0, 1.0, 1.0), (0.2, 0.5, 2.0)):
            target = lam / (sigma**2 + lam)
            q = 1e-4 * target
            taus = np.geomspace(1e-6, 1e3, 4000) / (eta * lam)
            vals = two_layer_psi(lam, sigma, q, eta, taus)
            t_star = emergence_time(taus, vals, q, target, crit)
            assert abs(t_star - np.log(2.0) / (8.0 * eta * lam)) < 0.05 * np.log(2.0) / (8.0 * eta * lam)

    def test_sigmoid_stays_in_bracket(self, model16):
        taus = np.geomspace(1e-3, 50, 40)
        for sigma in (0.1, 1.0, 10.0):
            vals = two_layer_psi(model16.spectrum[:, None], sigma, 0.1, 1.0, taus[None, :])
            target = model16.spectrum / (sigma**2 + model16.spectrum)
            lo = np.minimum(0.1, target)[:, None] - 1e-12
            hi = np.maximum(0.1, target)[:, None] + 1e-12
            assert np.all((vals >= lo) & (vals <= hi))

    def test_fixed_point_initialization_stays_constant(self):
        lam, sigma = 0.5, 1.0
        q = lam / (sigma**2 + lam)
        taus = np.geomspace(1e-3, 100, 9)
        assert_allclose(two_layer_psi(lam, sigma, q, 1.0, taus), q, rtol=1e-14)

    def test_zero_eigenvalue_decays_like_its_gradient_flow(self):
        # df/dtau = -8 eta sigma^2 f^2 at lambda = 0: f = Q / (1 + 8 eta tau Q sigma^2)
        taus, q, eta = np.array([0.0, 1e-3, 1.0, 5.0, 1e3]), 0.2, 1.5
        for sigma in (0.1, 1.0, 3.0):
            want = q / (1.0 + 8.0 * eta * taus * q * sigma**2)
            assert_allclose(two_layer_psi(0.0, sigma, q, eta, taus), want, rtol=1e-15)
            assert [two_layer_psi(0.0, sigma, q, eta, t) for t in taus.tolist()] == pytest.approx(want, rel=1e-15)
        # a rank-deficient covariance: the dense flow of W = P P^T agrees mode by mode
        basis = np.linalg.qr(np.array([[1.0, 2.0, 0.5], [2.0, -1.0, 1.0], [0.3, 1.0, -2.0]]))[0]
        spectrum = np.array([2.0, 0.7, 0.0])
        moments = DataMoments(np.zeros(3), (basis * spectrum) @ basis.T)
        sigmas, taus = np.array([0.5, 2.0]), np.geomspace(1e-2, 10.0, 6)
        ws, _ = gradient_flow_full(
            moments, sigmas, 1.0, basis * np.sqrt(q), np.zeros(3), taus, parametrization="two-layer-symmetric"
        )
        numeric = np.einsum("ik,tsij,jk->tsk", basis, ws, basis)
        closed = two_layer_psi(spectrum, sigmas[:, None], q, 1.0, taus[:, None, None])
        assert np.max(np.abs(numeric / closed - 1.0)) < 1e-9  # about 4e-12; psi = Q read 0.98 off

    def test_scalars_and_arrays_match_the_broadcast_arrays_formula(self):
        def reference(lam, sigma, q, eta, tau):
            lam, sigma, q, tau = np.broadcast_arrays(
                np.asarray(lam, float), np.asarray(sigma, float), np.asarray(q, float), np.asarray(tau, float)
            )
            if np.any(q < 0):
                raise ValueError("Q_k is a squared norm and must be nonnegative")
            rate = 8.0 * eta * tau
            grown = np.array([-np.expm1(-r * l) / l if l else r for r, l in zip(rate.ravel(), lam.ravel())])
            den = np.exp(-rate * lam) + q * grown.reshape(lam.shape) * (lam + sigma**2)
            return np.where(q == 0.0, 0.0, q / np.where(q == 0.0, 1.0, den))

        spectrum = np.concatenate([[0.0], np.geomspace(1e-3, 10.0, 12)])
        taus = np.geomspace(1e-4, 1e6, 21)
        q = np.linspace(0.0, 0.9, 21)
        # 0.6931253941269515 ** 2 != 0.6931253941269515 * 0.6931253941269515 for Python floats
        for sigma in (0.1, 1.0, 10.0, 0.6931253941269515, np.float64(0.6931253941269515)):
            cases = [
                (spectrum[:, None], sigma, 0.1, 1.0, taus[None, :]),
                (spectrum[:, None], sigma, q, 2.0, taus[None, :]),
                (spectrum[:, None, None], np.array([sigma, 1.0])[:, None], q, 1.0, taus),
                (spectrum, sigma, 0.0, np.float64(0.5), 1e-2),
                (float(spectrum[5]), sigma, np.float64(0.3), 1.0, 2.5),
                (0.0, sigma, 0.2, 1.0, 3.0),  # lambda = 0 decays as Q / (1 + 8 eta tau Q sigma^2)
                (1.0, sigma, 0.0, 1.0, 3.0),  # Q = 0 stays at the saddle
                (0.0, sigma, 0.0, 1.0, 3.0),
            ]
            cases += [(lam, sigma, 0.1, 1.0, tau) for lam in spectrum for tau in taus]
            cases += [(float(lam), sigma, 0.05, 1.0, float(tau)) for lam in spectrum for tau in taus]
            for lam, s, q0, eta, tau in cases:
                got = two_layer_psi(lam, s, q0, eta, tau)
                want = reference(lam, s, q0, eta, tau)
                assert np.shape(got) == np.broadcast_shapes(*map(np.shape, (lam, s, q0, eta, tau)))
                assert np.asarray(got, float).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="nonnegative"):
            two_layer_psi(spectrum, 1.0, np.array([0.1, -0.1])[:, None], 1.0, 1.0)

    def test_float_calls_are_numpy_scalars_equal_to_one_broadcast_call(self):
        lam = np.array([0.0, 1e-3, 1.0, 10.0])
        q = np.array([0.0, 0.1, 0.9])
        taus = np.array([0.0, 1e-3, 1.0, 1e3])
        sigma, eta = 0.6931253941269515, 1.0
        assert np.exp(-8.0 * eta * taus[-1] * lam[-1]) == 0.0  # E underflows, and with Q = 0 so does den
        grid = two_layer_psi(lam[:, None, None], sigma, q[:, None], eta, taus)
        for (i, j, k), want in np.ndenumerate(grid):
            got = two_layer_psi(float(lam[i]), sigma, float(q[j]), eta, float(taus[k]))
            assert type(got) is np.float64  # a NumPy scalar, not a 0-d array
            assert got.tobytes() == want.tobytes()


class TestDeepLinear:
    # 12 modes x 192 noise levels x 61 training times, as one flow
    LAM = np.geomspace(1e-3, 10, 12)[:, None]
    SIGMA = np.geomspace(2e-3, 80, 192)
    TAUS = np.geomspace(1e-4, 1e6, 61)

    def test_depth_one_matches_one_layer_after_rate_mapping(self):
        taus = np.geomspace(1e-3, 5, 12)
        deep = deep_linear_mode(1, 1.0, 1.0, 0.1, 2.0, taus)  # eta -> 2 eta
        assert np.max(np.abs(deep - one_layer_psi(1.0, 1.0, 0.1, 1.0, taus))) < 6e-16

    def test_depth_two_matches_two_layer_closed_form(self):
        taus = np.geomspace(1e-3, 5, 15)
        deep = deep_linear_mode(2, 1.0, 1.0, 0.01, 4.0, taus)  # eta -> 4 eta
        closed = two_layer_psi(1.0, 1.0, 0.01, 1.0, taus)
        assert np.max(np.abs(deep - closed)) < 7e-11

    def test_fixed_point_constant(self):
        taus = np.geomspace(1e-2, 20, 8)
        c_star = 1.0 / (1.0 + 1.0)
        for depth in (1, 2, 3, 5):
            vals = deep_linear_mode(depth, 1.0, 1.0, c_star, 1.0, taus)
            assert np.max(np.abs(vals - c_star)) < 1e-10

    def test_depth_four_converges(self):
        vals = deep_linear_mode(4, 1.0, 1.0, 0.05, 1.0, np.array([60.0]))
        assert abs(vals[-1] - 0.5) < 1e-6

    def test_saddle_guard(self):
        with pytest.raises(ValueError):
            deep_linear_mode(3, 1.0, 1.0, 0.0, 1.0, [1.0])

    def test_broadcast_grid_matches_the_closed_forms(self):
        deep = deep_linear_mode(1, self.LAM, self.SIGMA, 0.1, 1.0, self.TAUS)
        assert deep.shape == (61, 12, 192)
        closed = one_layer_psi(self.LAM, self.SIGMA, 0.1, 0.5, self.TAUS[:, None, None])  # eta -> eta / 2
        assert np.max(np.abs(deep / closed - 1)) < 1e-12
        deep = deep_linear_mode(2, self.LAM, self.SIGMA, 0.1, 1.0, self.TAUS)
        closed = two_layer_psi(self.LAM, self.SIGMA, 0.1, 0.25, self.TAUS[:, None, None])  # eta -> eta / 4
        assert np.max(np.abs(deep / closed - 1)) < 1e-9

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_broadcast_grid_is_finite_and_monotone(self, depth):
        deep = deep_linear_mode(depth, self.LAM, self.SIGMA, 0.1, 1.0, self.TAUS)
        toward = np.sign(self.LAM / (self.LAM + self.SIGMA**2) - 0.1)
        assert np.all(np.isfinite(deep))
        assert np.all(np.diff(deep, axis=0) * toward >= 0)

    @pytest.mark.parametrize("c0", [1e-12, 0.1, 5.0])
    def test_large_lambda_small_sigma_is_finite_and_monotone(self, c0):
        # c0 below, near and above c* = 1 - 4e-7, where the flow in c is stiff
        deep = deep_linear_mode(3, 10.0, 0.002, c0, 1.0, self.TAUS)
        assert deep.shape == (61,)
        assert np.all(np.isfinite(deep))
        assert np.all(np.diff(deep) * np.sign(10.0 / (10.0 + 0.002**2) - c0) >= 0)
        assert abs(deep[-1] / (10.0 / (10.0 + 0.002**2)) - 1) < 1e-12

    @pytest.mark.parametrize(
        "depth, lam, c0, sigmas, taus",
        [
            (3, 1.0, 1e-3, (0.1, 0.5, 2.0), np.geomspace(1e-2, 1e3, 11)),
            (4, 0.3, 0.05, (0.2, 1.0), np.geomspace(1e-2, 1e3, 11)),
            (6, 1e-3, 5.0, (55.0, 64.0), np.geomspace(1e-6, 1e-2, 9)),  # c0 above c*: c decays
        ],
        ids=["L3", "L4", "L6-decaying"],
    )
    def test_deep_modes_match_the_quadrature_of_their_time(self, depth, lam, c0, sigmas, taus):
        # tau(c) = int_{c0}^{c} dc' / (eta L (lambda - (sigma^2 + lambda) c') c'^p), p = 2 - 2/L, at 30 digits
        deep = deep_linear_mode(depth, lam, np.array(sigmas), c0, 1.0, taus)
        worst, cells = 0.0, 0
        with mp.workdps(30):
            p = 2 - mp.mpf(2) / depth
            for j, sigma in enumerate(sigmas):
                rate, c_star = mp.mpf(sigma) ** 2 + lam, lam / (sigma**2 + lam)
                for tau, c in zip(taus, deep[:, j]):
                    if abs(c / c0 - 1) < 1e-6 or abs(c / c_star - 1) < 1e-6:  # tau(c) is ill-conditioned at either end
                        continue
                    tau_c = mp.quad(lambda x: 1 / (depth * (lam - rate * x) * x**p), [mp.mpf(c0), mp.mpf(c)])
                    worst, cells = max(worst, float(abs(tau_c / tau - 1))), cells + 1
        assert cells >= 2 * len(sigmas)
        assert worst < 1e-8

    def test_zero_lambda_and_sigma_stay_at_c0(self):
        c0 = np.array([1e-3, 0.5, 2.0])
        for depth in (1, 2, 3):
            deep = deep_linear_mode(depth, 0.0, 0.0, c0, 1.0, [0.0, 1.0, 1e6])
            assert np.all(deep == c0)


class TestResidual:
    def test_trivial_reparam_matches_one_layer(self, model6):
        taus = np.geomspace(1e-2, 5, 7)
        q, eta = Residual(0.0, 1.0).one_layer(np.full(6, 0.2), 1.0)
        res = one_layer_psi(model6.spectrum[:, None], 1.0, q[:, None], eta, taus[None, :])
        direct = one_layer_psi(model6.spectrum[:, None], 1.0, 0.2, 1.0, taus[None, :])
        for k in range(6):
            assert_allclose(res[k], direct[k], rtol=1e-14)

    def test_output_scale_quarters_time_constant(self):
        # c_out = 2 multiplies the rate by 4: psi_res(tau) == psi_base(4 tau)
        taus = np.geomspace(1e-3, 2, 9)
        res = one_layer_psi(1.0, 1.0, *Residual(0.0, 2.0).one_layer(0.05, 1.0), taus)
        base = one_layer_psi(1.0, 1.0, 0.1, 1.0, 4.0 * taus)  # Q_eff = c_out * 0.05
        assert_allclose(res, base, rtol=1e-13)

    def test_zero_output_scale_rejected(self):
        with pytest.raises(ValueError):
            Residual(0.5, 0.0)

    def test_against_reparametrized_gradient_rk4(self, moments6, model6):
        c_skip, c_out, sigma, eta = 0.4, 1.5, 0.8, 1.0
        taus = np.geomspace(1e-2, 3, 8)
        mm = variant_moments(LossVariant.edm(), moments6, sigma)
        q0 = 0.1

        def rhs(_t, w_prime):
            w = c_skip * np.eye(6) + c_out * w_prime
            gw, _ = loss_gradients(w, np.zeros(6), mm)
            return -eta * c_out * gw

        w_prime0 = (model6.basis * q0) @ model6.basis.T
        path = rk45_path(rhs, w_prime0, taus, rtol=1e-11, atol=1e-13)
        q_eff, eta_eff = Residual(c_skip, c_out).one_layer(q0, eta)
        closed = one_layer_psi(model6.spectrum[None, :], sigma, q_eff, eta_eff, taus[:, None])
        for i, tau in enumerate(taus):
            w_full = c_skip * np.eye(6) + c_out * path[i]
            diag = np.einsum("ik,ij,jk->k", model6.basis, w_full, model6.basis)
            assert np.max(np.abs(diag - closed[i])) < 1e-7


class TestDiscreteGD:
    def test_initial_value_and_one_step_exact(self, model6):
        res = discrete_gd_trajectory(model6.spectrum, 1.0, np.full(6, 0.1), 0.05, 3)
        assert_allclose(res.iterates[:, 0], 0.1)
        # eta (sigma^2 + lambda) = 0.5 converges in one step
        step = 0.5 / (1.0 + 1.0)
        res1 = discrete_gd_trajectory(np.array([1.0]), 1.0, np.array([0.3]), step, 2)
        assert_allclose(res1.iterates[0, 1:], 0.5)

    def test_matches_matrix_oracle(self, model6, moments6):
        from lindiff.oracle import discrete_gd_full

        res = discrete_gd_trajectory(model6.spectrum, 1.0, np.full(6, 0.1), 0.05, 40, b0=0.3)
        w0 = (model6.basis * 0.1) @ model6.basis.T
        ws, bs = discrete_gd_full(moments6, 1.0, 0.05, w0, np.full(6, 0.3), 40)
        num = np.einsum("ik,tij,jk->tk", model6.basis, ws, model6.basis)
        assert np.max(np.abs(num.T - res.iterates)) < 1e-12
        assert np.max(np.abs(bs[:, 0] - res.bias)) < 1e-12

    def test_small_step_approaches_gradient_flow(self):
        # gap scales like eta (sigma^2+lambda)^2, so O(1) rates at eta = 1e-3
        eta = 1e-3
        steps = 2000
        lam = np.array([1.0, 0.3])
        res = discrete_gd_trajectory(lam, 1.0, np.full(2, 0.1), eta, steps)
        flow = one_layer_psi(lam[:, None], 1.0, 0.1, eta, np.arange(steps + 1)[None, :])
        assert np.max(np.abs(res.iterates - flow)) < 1e-3

    def test_divergence_flagged_not_raised(self, model6):
        res = discrete_gd_trajectory(model6.spectrum, 1.0, np.full(6, 0.1), 0.6, 10)
        expected = np.abs(1.0 - 2.0 * 0.6 * (1.0 + model6.spectrum)) >= 1.0
        assert np.array_equal(res.diverged, expected)
        assert res.diverged.any()


def _overlaps(model, sigma, eta, q_init, taus):
    """q_k . q_m along the two-layer flow from rows q_k = P0^T u_k: the
    overlaps U^T W U of gradient_flow_full's W = P P^T, from P0 = U q_init."""
    moments = DataMoments(np.zeros(model.dim), model.covariance())
    ws, _ = gradient_flow_full(
        moments, sigma, eta, model.basis @ q_init, np.zeros(model.dim), taus, parametrization="two-layer-symmetric"
    )
    return np.einsum("ik,tij,jm->tkm", model.basis, ws, model.basis)


class TestOverlapSimulation:
    def test_orthogonal_initialization_stays_aligned(self):
        model = CovarianceModel(np.eye(2), np.array([1.0, 0.1]))
        taus = np.linspace(0, 6, 200)
        overlaps = _overlaps(model, 0.5, 1.0, np.diag([0.1, 0.1]), taus)
        assert np.max(np.abs(overlaps[:, 0, 1])) < 1e-9

    def test_rise_then_fall_single_interior_maximum(self):
        model = CovarianceModel(np.eye(2), np.array([1.0, 0.1]))
        taus = np.linspace(0, 40, 2000)
        q0 = np.array([[0.1, 0.004], [0.0, 0.1]])
        off = np.abs(_overlaps(model, 0.5, 1.0, q0, taus)[:, 0, 1])
        # exclude the tail where the overlap has decayed to roundoff noise
        live = off > 1e-6 * off.max()
        interior = [
            i
            for i in range(1, len(off) - 1)
            if live[i] and off[i] > off[i - 1] and off[i] > off[i + 1]
        ]
        assert len(interior) == 1
        assert off[interior[0]] > off[0]

    def test_diagonals_converge_to_targets(self, model6):
        # a random basis: the overlaps are read in the rotated coordinates
        taus = np.linspace(0, 80, 400)
        q0 = 0.1 * np.eye(6)
        q0[0, 1] = 0.004
        overlaps = _overlaps(model6, 0.5, 1.0, q0, taus)
        targets = model6.spectrum / (0.25 + model6.spectrum)
        assert np.max(np.abs(np.diagonal(overlaps[-1]) - targets)) < 1e-6


class TestClosedFormVsOracleInvariant:
    """|closed form - RK4 oracle| <= 1e-6 relative on a log-spaced spectrum."""

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
    def test_one_layer(self, sigma, model6, moments6):
        taus = np.geomspace(1e-3, 10, 20)
        w0 = (model6.basis * 0.1) @ model6.basis.T
        ws, _ = gradient_flow_full(moments6, sigma, 1.0, w0, np.zeros(6), taus, adaptive=True)
        numeric = np.einsum("ik,tij,jk->tk", model6.basis, ws, model6.basis)
        closed = one_layer_psi(model6.spectrum[None, :], sigma, 0.1, 1.0, taus[:, None])
        assert np.max(np.abs(numeric - closed) / np.maximum(np.abs(closed), 1e-12)) < 1e-6

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
    def test_two_layer(self, sigma, model6, moments6):
        taus = np.geomspace(1e-3, 10, 20)
        p0 = model6.basis * np.sqrt(0.1)
        ws, _ = gradient_flow_full(
            moments6, sigma, 1.0, p0, np.zeros(6), taus,
            parametrization="two-layer-symmetric", adaptive=True,
        )
        numeric = np.einsum("ik,tij,jk->tk", model6.basis, ws, model6.basis)
        closed = two_layer_psi(model6.spectrum[None, :], sigma, 0.1, 1.0, taus[:, None])
        assert np.max(np.abs(numeric - closed) / np.maximum(np.abs(closed), 1e-12)) < 1e-6


class TestConfigValidation:
    MOMENTS = DataMoments(np.array([0.5]), np.array([[1.0]]))

    def test_bad_eta(self):
        with pytest.raises(ValueError):
            mean_coupled_trajectory(self.MOMENTS, 1.0, 0.0, np.array([[0.1]]), np.zeros(1), [0.1])

    def test_non_increasing_tau(self):
        with pytest.raises(ValueError):
            mean_coupled_trajectory(self.MOMENTS, 1.0, 1.0, np.array([[0.1]]), np.zeros(1), [0.2, 0.1])
