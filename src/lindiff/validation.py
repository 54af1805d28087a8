"""Desk-scale oracle cross-check suites behind the `validate` subcommand.

Each suite compares a closed-form prediction against an independent
brute-force route and reports the worst deviation against its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .convolution import circulant_matrix, patch_covariance, patch_filter_trajectory
from .dynamics import DynamicsConfig, LossVariant, mean_coupled_trajectory
from .experiment import oracle_deviation
from .gaussian import DataMoments, SpectrumSpec, make_covariance
from .oracle import gradient_flow_full, loss_gradients, variant_moments

__all__ = ["SuiteResult", "SUITES", "run_suite", "run_all"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation < self.tolerance


def _test_model(dim=8, lo=1e-3, hi=10.0, seed=7):
    return make_covariance(SpectrumSpec("log-spaced", {"lo": lo, "hi": hi}), dim, seed)


def _flow_suite(arch: str) -> SuiteResult:
    """Closed-form one- or two-layer mode weights against RK45 gradient flow."""
    dev = oracle_deviation(_test_model(), arch, (0.1, 1.0, 10.0), 0.1, 1.0, np.geomspace(1e-3, 10.0, 12), adaptive=True)
    return SuiteResult(arch, dev, 1e-6)


def suite_mean_cov() -> SuiteResult:
    model = _test_model(dim=6, lo=0.05, hi=4.0, seed=3)
    rng = np.random.default_rng(11)
    mu = rng.normal(size=6) * 0.7
    moments = DataMoments(mu, model.covariance())
    taus = np.geomspace(1e-2, 8.0, 10)
    sigmas = (0.5, 1.5)
    basis = moments.eigenmodel().basis  # the basis mean_coupled_trajectory starts from
    w0 = (basis * 0.2) @ basis.T
    _, ws, bs = gradient_flow_full(moments, sigmas, 1.0, w0, np.zeros(6), taus, adaptive=True)
    worst = 0.0
    for j, sigma in enumerate(sigmas):
        sol = mean_coupled_trajectory(moments, DynamicsConfig(1.0, taus, np.full(6, 0.2), sigma))
        for i in range(len(taus)):
            scale = max(1.0, float(np.max(np.abs(ws[i, j]))))
            worst = max(worst, float(np.max(np.abs(ws[i, j] - sol.weight_matrix(i)))) / scale)
            worst = max(worst, float(np.max(np.abs(bs[i, j] - sol.bias[i]))) / scale)
    return SuiteResult("mean-cov", worst, 1e-6)


def suite_conv() -> SuiteResult:
    n, r, seed = 16, 2, 5
    model = _test_model(dim=n, lo=0.05, hi=4.0, seed=seed)
    sigma_mat = model.covariance()
    taus = np.geomspace(1e-3, 2.0, 8)
    sigma, eta = 0.7, 1.0
    # patch fixed point against the direct linear solve and the RK45 flow
    pc = patch_covariance(sigma_mat, r)
    path, w_star = patch_filter_trajectory(pc, sigma, eta, n, np.zeros(2 * r + 1), taus)
    a = sigma**2 * np.eye(2 * r + 1) + pc.matrix
    e0 = np.zeros(2 * r + 1)
    e0[r] = 1.0
    worst = float(np.max(np.abs(a @ w_star - pc.matrix @ e0)))
    moments = DataMoments(np.zeros(n), sigma_mat)
    _, ws, _ = gradient_flow_full(
        moments, sigma, eta, np.zeros(2 * r + 1), np.zeros(n), taus,
        parametrization="patch", half_width=r, adaptive=True,
    )
    offs = np.arange(-r, r + 1)
    taps = np.stack([[w[0, o % n] for o in offs] for w in ws])
    worst = max(worst, float(np.max(np.abs(taps - path))))
    # circulant matrices commute
    rng = np.random.default_rng(2)
    w1 = circulant_matrix(rng.normal(size=5), np.arange(-2, 3), n)
    w2 = circulant_matrix(rng.normal(size=5), np.arange(-2, 3), n)
    worst = max(worst, float(np.max(np.abs(w1 @ w2 - w2 @ w1))))
    return SuiteResult("conv", worst, 1e-6)


def suite_variants() -> SuiteResult:
    from .dynamics import convergence_rate, optimal_mode_weight

    model = _test_model(dim=5, lo=0.05, hi=3.0, seed=9)
    moments = DataMoments(np.zeros(model.dim), model.covariance())
    variants = [
        (LossVariant.edm(), 0.8),
        (LossVariant("XPred", alpha=lambda t: 1.0 / (1.0 + t), sigma_t=lambda t: t), 0.6),
        (LossVariant("EpsPred", alpha=lambda t: 1.0 / (1.0 + t), sigma_t=lambda t: t), 0.6),
        (LossVariant("VPred", alpha=lambda t: 1.0 / (1.0 + t), sigma_t=lambda t: t), 0.6),
        (LossVariant.flow_match(), 0.6),
    ]
    worst = 0.0
    for variant, s in variants:
        w_star = sum(
            optimal_mode_weight(variant, lam, s) * np.outer(model.basis[:, k], model.basis[:, k])
            for k, lam in enumerate(model.spectrum)
        )
        mm = variant_moments(variant, moments, s)
        gw, gb = loss_gradients(w_star, np.zeros(5), mm)
        worst = max(worst, float(np.max(np.abs(gw))), float(np.max(np.abs(gb))))
        rates = [convergence_rate(variant, lam, s) for lam in model.spectrum]
        if min(rates) <= 0:
            worst = max(worst, 1.0)
    return SuiteResult("variants", worst, 1e-8)


SUITES = {
    "one-layer": partial(_flow_suite, "one-layer"),
    "two-layer": partial(_flow_suite, "two-layer"),
    "mean-cov": suite_mean_cov,
    "conv": suite_conv,
    "variants": suite_variants,
}


def run_suite(name: str) -> list[SuiteResult]:
    if name == "all":
        return run_all()
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (choose from {sorted(SUITES)} or 'all')")
    return [SUITES[name]()]


def run_all() -> list[SuiteResult]:
    return [fn() for fn in SUITES.values()]
