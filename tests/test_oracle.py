import numpy as np
import pytest
from numpy.testing import assert_allclose

import lindiff.experiment as experiment
import lindiff.oracle as oracle
from lindiff.dynamics import LossVariant
from lindiff.experiment import ORACLE_TOLERANCE, ExperimentConfig, oracle_deviation
from lindiff.gaussian import DataMoments, SpectrumSpec, make_covariance
from lindiff.integrate import IntegrationError, heun, rk4_path, rk45_path
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


SIGMAS = (0.1, 1.0, 10.0)


@pytest.fixture(scope="module")
def model8():
    return make_covariance(SpectrumSpec("log-spaced", {"lo": 1e-3, "hi": 10.0}), 8, 7)


class TestBatchedSigmas:
    """A sequence of noise levels integrated as one flow, against one call per level."""

    @pytest.mark.parametrize(
        "parametrization, adaptive, bound",
        [
            # RK4 steps every slice at the largest sigma's rate, finer than the
            # smaller sigmas take alone: measured gaps up to 4.1e-10
            ("one-layer", False, 1e-9),
            # RK45's error norm spans the batch: measured gaps up to 2.9e-12
            ("one-layer", True, 1e-11),
            ("two-layer-symmetric", False, 1e-11),
        ],
    )
    def test_each_slice_matches_its_scalar_call(self, model8, parametrization, adaptive, bound):
        rng = np.random.default_rng(4)
        moments = DataMoments(rng.normal(size=8) * 0.3, model8.covariance())
        b0 = rng.normal(size=8) * 0.1
        q = 0.1
        w0 = (model8.basis * q) @ model8.basis.T if parametrization == "one-layer" else model8.basis * np.sqrt(q)
        taus = np.geomspace(1e-3, 1.0, 8)
        _, ws, bs = gradient_flow_full(
            moments, SIGMAS, 1.0, w0, b0, taus, parametrization=parametrization, adaptive=adaptive
        )
        assert ws.shape == (8, 3, 8, 8)
        assert bs.shape == (8, 3, 8)
        for j, sigma in enumerate(SIGMAS):
            _, w1, b1 = gradient_flow_full(
                moments, sigma, 1.0, w0, b0, taus, parametrization=parametrization, adaptive=adaptive
            )
            gap = max(np.max(np.abs(ws[:, j] - w1)), np.max(np.abs(bs[:, j] - b1)))
            assert gap <= bound * np.max(np.abs(w1))
            if parametrization == "one-layer" and not adaptive and sigma == max(SIGMAS):
                # the largest sigma sets the step, so its slice takes the scalar call's steps
                assert np.array_equal(ws[:, j], w1)
                assert np.array_equal(bs[:, j], b1)

    @pytest.mark.parametrize("parametrization, taps", [("circulant", 6), ("patch", 3)])
    def test_convolutional_flows_take_one_sigma(self, moments6, parametrization, taps):
        with pytest.raises(ValueError, match="takes one noise level"):
            gradient_flow_full(
                moments6, (0.5, 1.0), 1.0, np.zeros(taps), np.zeros(6), [0.1],
                parametrization=parametrization, half_width=1,
            )


class TestOracleDeviation:
    @pytest.mark.parametrize("arch", ["one-layer", "two-layer"])
    def test_one_flow_call_per_check(self, monkeypatch, model8, arch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return oracle.gradient_flow_full(*args, **kwargs)

        monkeypatch.setattr(experiment, "gradient_flow_full", counting)
        dev = oracle_deviation(model8, arch, SIGMAS, 0.1, 1.0, np.geomspace(1e-3, 1.0, 4))
        assert len(calls) == 1
        assert tuple(calls[0]) == SIGMAS
        assert dev < ORACLE_TOLERANCE

    @pytest.mark.xfail(
        strict=True,
        reason="fixed-step RK4 at the one-layer flow's spectral rate reads 1.128e-6 "
        "at Q = 0.5; adaptive RK45 reads below 5e-9; see DECISIONS.md",
    )
    def test_one_layer_check_passes_away_from_the_default_q(self):
        cfg = ExperimentConfig(dim=3, q_init=0.5, validate_with_oracle=True)
        model = make_covariance(SpectrumSpec(cfg.model_kind, {"lo": cfg.lo, "hi": cfg.hi}), cfg.dim, cfg.seed)
        dev = oracle_deviation(model, cfg.arch, cfg.report_sigmas, cfg.q_init, cfg.eta, cfg.oracle_taus())
        assert dev < ORACLE_TOLERANCE


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
    @pytest.mark.parametrize("path", [rk4_path, rk45_path])
    @pytest.mark.parametrize("grid", [[0.0, 2.0, 1.0], [-1.0, 1.0]])
    def test_decreasing_or_negative_grid_rejected(self, path, grid):
        with pytest.raises(ValueError, match="nonnegative, nondecreasing"):
            path(lambda _t, y: -y, np.array([1.0]), grid)

    @pytest.mark.parametrize("path", [rk4_path, rk45_path])
    def test_starts_from_y0_at_t_zero(self, path):
        got = path(lambda _t, y: -y, np.array([1.0]), [0.0, 0.0, 1.0])
        assert got.shape == (3, 1)
        assert got[0, 0] == got[1, 0] == 1.0  # zero-length segments take no step
        assert abs(got[2, 0] - np.exp(-1.0)) < 1e-9
        assert path(lambda _t, y: -y, np.array([1.0]), [1.0])[0, 0] == got[2, 0]

    @pytest.mark.filterwarnings("error")
    def test_rk45_overflow_raises_at_the_grid_point_without_warnings(self):
        # the state passes 1.8e308 after t = 1.8: the overflow is silent, the non-finite state is not
        with pytest.raises(IntegrationError, match="non-finite state at t=4.0"):
            rk45_path(lambda _t, y: np.full_like(y, 1e308), np.array([0.0]), [0.0, 1.0, 4.0])

    @pytest.mark.parametrize("start, end", [(0.0, 1.0), (1.0, 0.0)], ids=["forward", "backward"])
    def test_heun_steps_along_the_grid_in_either_direction(self, start, end):
        """On y' = a(t) y each Heun step multiplies y by 1 + h/2 (a0 + a1 (1 + h a0)),
        and halving the step cuts the error about fourfold (second order)."""

        def rate(t):
            return -1.0 - t

        exact = np.exp(-(end - start) - 0.5 * (end**2 - start**2))
        errors = []
        for n in (41, 81):
            grid = np.linspace(start, end, n)
            got = heun(lambda t, y: rate(t) * y, np.array([1.0, 2.0]), grid)
            steps = [1.0 + 0.5 * (b - a) * (rate(a) + rate(b) * (1.0 + (b - a) * rate(a))) for a, b in zip(grid[:-1], grid[1:])]
            assert_allclose(got, [np.prod(steps), 2.0 * np.prod(steps)], rtol=1e-14)
            errors.append(abs(got[0] / exact - 1.0))
        assert errors[0] < 5e-4
        assert 3.5 < errors[0] / errors[1] < 4.5

    def test_rk4_and_rk45_agree_on_nonlinear_ode(self):
        def rhs(_t, y):
            return np.array([y[1], -np.sin(y[0])])

        grid = np.linspace(0, 10, 11)
        a = rk4_path(rhs, np.array([1.0, 0.0]), grid, substeps=200)
        b = rk45_path(rhs, np.array([1.0, 0.0]), grid, rtol=1e-11, atol=1e-13)
        assert np.max(np.abs(a - b)) < 1e-8

    def test_rk45_matches_cash_karp_written_out_stage_by_stage(self):
        """Two forced Van der Pol oscillators as a (2, 2) state, against a reference
        stepper with the same step control and every tableau entry spelled out."""
        mu = np.array([0.5, 2.0])

        def rhs(t, y):
            return np.stack([y[:, 1], mu * (1.0 - y[:, 0] ** 2) * y[:, 1] - y[:, 0] + 0.3 * np.cos(t)], axis=1)

        def reference(y, grid, rtol, atol):
            out = [y]
            for t, t_end in zip(grid[:-1], grid[1:]):
                h = (t_end - t) / 16.0
                while t < t_end:
                    h = min(h, t_end - t)
                    k1 = rhs(t, y)
                    k2 = rhs(t + h / 5, y + h * (k1 / 5))
                    k3 = rhs(t + 3 * h / 10, y + h * (3 / 40 * k1 + 9 / 40 * k2))
                    k4 = rhs(t + 3 * h / 5, y + h * (3 / 10 * k1 - 9 / 10 * k2 + 6 / 5 * k3))
                    k5 = rhs(t + h, y + h * (-11 / 54 * k1 + 5 / 2 * k2 - 70 / 27 * k3 + 35 / 27 * k4))
                    k6 = rhs(
                        t + 7 * h / 8,
                        y + h * (1631 / 55296 * k1 + 175 / 512 * k2 + 575 / 13824 * k3
                                 + 44275 / 110592 * k4 + 253 / 4096 * k5),
                    )
                    y5 = y + h * (37 / 378 * k1 + 250 / 621 * k3 + 125 / 594 * k4 + 512 / 1771 * k6)
                    y4 = y + h * (2825 / 27648 * k1 + 18575 / 48384 * k3 + 13525 / 55296 * k4
                                  + 277 / 14336 * k5 + k6 / 4)
                    err = np.max(np.abs(y5 - y4) / (atol + rtol * np.maximum(np.abs(y), np.abs(y5))))
                    if err <= 1.0:
                        t, y = t + h, y5
                    h *= min(5.0, max(0.2, 0.9 * err**-0.2 if err > 0 else 5.0))
                out.append(y)
            return np.stack(out)

        y0 = np.array([[2.0, 0.0], [1.0, -0.5]])
        grid = np.linspace(0.0, 6.0, 7)
        got = rk45_path(rhs, y0, grid, rtol=1e-10, atol=1e-12)
        want = reference(y0, grid, 1e-10, 1e-12)
        assert got.shape == want.shape == (7, 2, 2)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
