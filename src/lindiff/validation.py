"""Desk-scale oracle cross-check suites behind the `validate` subcommand.

Each suite compares a closed-form prediction against an independent
brute-force route and reports the worst deviation against its tolerance.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import oracle
from .convolution import patch_covariance, patch_filter_trajectory
from .dynamics import LossVariant, convergence_rate, mean_coupled_trajectory, optimal_mode_weight
from .experiment import ORACLE_TOLERANCE, oracle_deviation
from .gaussian import DataMoments, SpectrumSpec, make_covariance
from .oracle import gradient_flow_full, loss_gradients, variant_moments

__all__ = ["SuiteResult", "SUITES", "run_suite"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    deviation: float
    tolerance: float
    seconds: float = 0.0  # the suite's wall time, set by run_suite
    rhs_evaluations: int = 0  # its flows' right-hand-side calls, set by run_suite

    @property
    def passed(self) -> bool:
        return self.deviation < self.tolerance


def _test_model(dim=8, lo=1e-3, hi=10.0, seed=7):
    return make_covariance(SpectrumSpec("log-spaced", {"lo": lo, "hi": hi}), dim, seed)


def _flow_suite(arch: str) -> SuiteResult:
    """Closed-form one- or two-layer mode weights against RK45 gradient flow."""
    dev = oracle_deviation(_test_model(), arch, (0.1, 1.0, 10.0), 0.1, 1.0, np.geomspace(1e-3, 10.0, 12), adaptive=True)
    return SuiteResult(arch, dev, ORACLE_TOLERANCE)


def suite_mean_cov() -> SuiteResult:
    """Coupled (W, b) closed form vs RK45: the largest |dW|, |db| over max(1, max|W|) per (tau, sigma)."""
    model = _test_model(dim=6, lo=0.05, hi=4.0, seed=3)
    gauss = random.Random(11).gauss
    mu = np.array([gauss(0.0, 0.7) for _ in range(6)])
    moments = DataMoments(mu, model.covariance())
    taus = np.geomspace(1e-2, 8.0, 10)
    sigmas = (0.5, 1.5)
    w0 = 0.2 * np.eye(6)
    closed_w, closed_b = mean_coupled_trajectory(moments, sigmas, 1.0, w0, np.zeros(6), taus)
    ws, bs = gradient_flow_full(moments, sigmas, 1.0, w0, np.zeros(6), taus, adaptive=True)
    scale = np.maximum(1.0, np.max(np.abs(ws), axis=(-2, -1)))
    gap = np.maximum(np.max(np.abs(ws - closed_w), axis=(-2, -1)), np.max(np.abs(bs - closed_b), axis=-1))
    return SuiteResult("mean-cov", float(np.max(gap / scale)), ORACLE_TOLERANCE)


def suite_conv() -> SuiteResult:
    """Patch filter closed form vs the RK45 flow on its taps: the largest tap gap."""
    n, r, seed = 16, 2, 5
    model = _test_model(dim=n, lo=0.05, hi=4.0, seed=seed)
    sigma_mat = model.covariance()
    taus = np.geomspace(1e-3, 2.0, 8)
    sigma, eta = 0.7, 1.0
    path = patch_filter_trajectory(patch_covariance(sigma_mat, r), sigma, eta, n, np.zeros(2 * r + 1), taus)
    ws, _ = gradient_flow_full(
        DataMoments(np.zeros(n), sigma_mat), sigma, eta, np.zeros(2 * r + 1), np.zeros(n), taus,
        parametrization="patch", half_width=r,
    )
    offs = np.arange(-r, r + 1)
    taps = np.stack([[w[0, o % n] for o in offs] for w in ws])
    return SuiteResult("conv", float(np.max(np.abs(taps - path))), ORACLE_TOLERANCE)


def suite_variants() -> SuiteResult:
    """Each variant's optimal weights zero the gradient of its raw loss, at positive rates."""
    model = _test_model(dim=5, lo=0.05, hi=3.0, seed=9)
    moments = DataMoments(np.zeros(model.dim), model.covariance())
    schedule = {"alpha": lambda t: 1.0 / (1.0 + t), "sigma_t": lambda t: t}
    variants = [
        (LossVariant.edm(), 0.8),
        *((LossVariant(tag, **schedule), 0.6) for tag in ("XPred", "EpsPred", "VPred")),
        (LossVariant.flow_match(), 0.6),
    ]
    weights = np.array([optimal_mode_weight(variant, model.spectrum, s) for variant, s in variants])
    rates = np.array([convergence_rate(variant, model.spectrum, s) for variant, s in variants])
    w_stars = np.einsum("ik,vk,jk->vij", model.basis, weights, model.basis)
    worst = 0.0 if rates.min() > 0 else 1.0
    for (variant, s), w_star in zip(variants, w_stars):
        gw, gb = loss_gradients(w_star, np.zeros(5), variant_moments(variant, moments, s))
        worst = max(worst, float(np.max(np.abs(gw))), float(np.max(np.abs(gb))))
    return SuiteResult("variants", worst, 1e-8)


SUITES = {
    "one-layer": partial(_flow_suite, "one-layer"),
    "two-layer": partial(_flow_suite, "two-layer"),
    "mean-cov": suite_mean_cov,
    "conv": suite_conv,
    "variants": suite_variants,
}


def run_suite(name: str) -> list[SuiteResult]:
    """Run one suite, or every suite for 'all', each timed and its flows'
    right-hand-side calls counted around its ``SUITES`` call."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (choose from {sorted(SUITES)} or 'all')")
    results = []
    for key in SUITES if name == "all" else [name]:
        t0, calls = time.perf_counter(), oracle.rhs_evaluations
        result = SUITES[key]()
        seconds = time.perf_counter() - t0
        results.append(replace(result, seconds=seconds, rhs_evaluations=oracle.rhs_evaluations - calls))
    return results
