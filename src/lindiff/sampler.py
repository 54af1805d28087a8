"""Probability-flow ODE integration, analytic and numeric.

For commuting weights the PF-ODE dx/dsigma = -[(W_sigma - I)x + b_sigma]/sigma
factorizes per mode, and the per-mode amplification from sigma_max down to
sigma is the ratio of the integrating factor

    Phi(sigma) = exp(-int (psi(s) - 1)/s ds)

evaluated at the two endpoints.  The generated variance starting from
N(0, sigma_T^2 I) is then lambda_gen = sigma_T^2 Phi(sigma_0)^2/Phi(sigma_T)^2.
``log_phi_ratio`` gives ln Phi(sigma_a)/Phi(sigma_b) in closed form for the
one-layer trajectory (exponential integrals), the two-layer trajectory
(elementary logs) and the converged denoiser, each valid from tau = 0 to
convergence; ``generated_variance`` is sigma_T^2 exp(2 ln Phi(sigma_0)/Phi(sigma_T))
in every case.  Reparameterized architectures reuse the one-layer factor:
the full-width convolution is ``PhiFactor("one-layer", lam=S_kk, eta=N * eta)``.  A Heun integrator on
the EDM rho-schedule provides the independent numeric route.

Phi is defined up to a sigma-independent normalization, so only ratios
are computed; at tau = 0 the one-layer ratio is the regularized limit
(sigma_a/sigma_b)^(1-Q).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .integrate import IntegrationError
from .special import expint_ei

__all__ = [
    "NoiseSchedule",
    "PhiFactor",
    "log_phi_ratio",
    "generated_variance",
    "pf_ode_numeric",
    "pf_mode_scaling",
    "mean_transport",
]

# mean_transport's rule: 16-point Gauss-Legendre on _GL_PANELS and on twice
# as many equal panels in ln sigma.
_GL_POINTS = 16
_GL_PANELS = 32


@dataclass(frozen=True)
class NoiseSchedule:
    """EDM rho-power schedule from sigma_max down to sigma_min.

    The closed forms read only the endpoints; ``rho`` and ``num_steps``
    shape the Heun grid (``grid``).  The CLI sets the endpoints only.
    """

    sigma_min: float = 0.002
    sigma_max: float = 80.0
    rho: float = 7.0
    num_steps: int = 80

    def __post_init__(self) -> None:
        if not (0 < self.sigma_min < self.sigma_max):
            raise ValueError("need 0 < sigma_min < sigma_max")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.num_steps < 2:
            raise ValueError("num_steps must be >= 2")

    def grid(self) -> np.ndarray:
        """Monotone decreasing sigma_i from sigma_max to sigma_min."""
        i = np.arange(self.num_steps) / (self.num_steps - 1)
        inv = 1.0 / self.rho
        return (self.sigma_max**inv + i * (self.sigma_min**inv - self.sigma_max**inv)) ** self.rho


class PhiFactor(NamedTuple):
    """Which closed-form integrating factor to use, and its parameters.

    case: 'one-layer' | 'two-layer' | 'converged'; ``log_phi_ratio``
    dispatches on it and rejects any other.  A tuple, not a frozen
    dataclass: the sweep builds one per (mode, tau) cell.
    """

    case: str
    lam: float = 0.0
    q: float = 0.0
    eta: float = 1.0
    tau: float = 0.0


def log_phi_ratio(phi: PhiFactor, sigma_a: float, sigma_b: float, ei_memo: dict | None = None) -> float:
    """ln Phi(sigma_a)/Phi(sigma_b) along one mode, for each PhiFactor case.

    one-layer, with x = 2 eta tau sigma^2 and u = 2 eta tau lam:
        1/2 ln((lam + a^2)/(lam + b^2)) + (1-Q)/2 e^(-u) [Ei(-x_a) - Ei(-x_b)]
        - 1/2 [Ei(-x_a - u) - Ei(-x_b - u)],
    and its x -> 0 limit (1-Q) e^(-u) ln(a/b) where x_a is below the smallest
    normal double (tau = 0, or underflow).  The Ei(-x) terms do not depend on
    lam: a caller that evaluates many modes at the same (tau, sigma) passes a
    dict it owns as ``ei_memo``, which keeps them by their argument.

    two-layer, with E = e^(-8 eta tau lam), g = (1-E)/lam (8 eta tau at
    lam = 0) and c = (1-Q) E / (Q lam g + E):
        c ln(a/b) + (1-c)/2 ln((E + Q g (lam + a^2)) / (E + Q g (lam + b^2))).
    1 - E comes from ``expm1`` and no sum cancels, because |c ln(a/b)|
    reaches several hundred and multiplies c's relative error.

    converged: 1/2 ln((lam + a^2)/(lam + b^2)).  Any other case raises
    ValueError.
    """
    case, lam, q, eta, tau = phi
    if case not in ("one-layer", "two-layer", "converged"):
        raise ValueError(f"unknown Phi case {case!r}")
    if sigma_a <= 0 or sigma_b <= 0:
        raise ValueError("sigma must be positive")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if case == "two-layer":
        if q <= 0:
            raise ValueError("two-layer Phi needs Q > 0 (Q = 0 never converges)")
        rate = 8.0 * eta * tau
        decay = math.exp(-rate * lam)
        grown = -math.expm1(-rate * lam) / lam if lam else rate
        c = (1.0 - q) * decay / (q * lam * grown + decay)
        b_a, b_b = (decay + q * grown * (lam + s * s) for s in (sigma_a, sigma_b))
        return c * math.log(sigma_a / sigma_b) + 0.5 * (1.0 - c) * math.log(b_a / b_b)
    log_ratio = 0.5 * math.log((lam + sigma_a**2) / (lam + sigma_b**2))
    if case == "converged":
        return log_ratio
    x_a, x_b, u = 2.0 * eta * tau * sigma_a**2, 2.0 * eta * tau * sigma_b**2, 2.0 * eta * tau * lam
    if x_a < sys.float_info.min:
        return (1.0 - q) * math.exp(-u) * math.log(sigma_a / sigma_b)
    memo = {} if ei_memo is None else ei_memo
    for x in (x_a, x_b):
        if x not in memo:
            memo[x] = expint_ei(-x)
    return (
        log_ratio
        + 0.5 * (1.0 - q) * math.exp(-u) * (memo[x_a] - memo[x_b])
        - 0.5 * (expint_ei(-(x_a + u)) - expint_ei(-(x_b + u)))
    )


def generated_variance(phi: PhiFactor, schedule: NoiseSchedule, ei_memo: dict | None = None) -> float:
    """Generated mode variance sigma_T^2 Phi^2(sigma_min) / Phi^2(sigma_max).

    One expression for every case and every tau; ``ei_memo`` goes to
    ``log_phi_ratio``.
    """
    s0, s_t = schedule.sigma_min, schedule.sigma_max
    return s_t**2 * math.exp(2.0 * log_phi_ratio(phi, s0, s_t, ei_memo))


def pf_mode_scaling(psi_fn, schedule: NoiseSchedule) -> np.ndarray:
    """Per-mode amplification c(sigma_min)/c(sigma_max) of the unbiased PF-ODE.

    Heun's trapezoidal step applied to the exactly linear log-amplitude
    d(ln c)/d(ln sigma) = -(psi - 1): second order in the step size,
    exact for sigma-independent weights, and the Monte-Carlo-free route
    used to cross-check the analytic generated variances.
    """
    grid = schedule.grid()
    u = np.log(grid)
    rows = []
    for s in grid:
        psi = np.atleast_1d(np.asarray(psi_fn(s), dtype=float))
        if not np.all(np.isfinite(psi)):
            raise IntegrationError(f"non-finite weight evaluation at sigma={s}")
        rows.append(1.0 - psi)
    f = np.stack(rows)
    log_amp = np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(u)[:, None], axis=0)
    return np.exp(log_amp)


def pf_ode_numeric(psi_fn, bias_fn, schedule: NoiseSchedule, x_start: np.ndarray) -> np.ndarray:
    """Heun (2nd order) integration of the per-mode PF-ODE on the schedule.

    ``psi_fn(sigma)`` returns the per-mode weights psi(sigma) and
    ``bias_fn(sigma)`` the per-mode biases (or None for unbiased);
    ``x_start`` holds the mode coordinates at sigma_max.  Returns the
    coordinates at sigma_min.
    """
    x = np.array(x_start, dtype=float)
    grid = schedule.grid()

    def drift(xv, s):
        psi = np.asarray(psi_fn(s), dtype=float)
        if not np.all(np.isfinite(psi)):
            raise IntegrationError(f"non-finite weight evaluation at sigma={s}")
        b = np.asarray(bias_fn(s), dtype=float) if bias_fn is not None else 0.0
        return -((psi - 1.0) * xv + b) / s

    for i in range(len(grid) - 1):
        s0, s1 = grid[i], grid[i + 1]
        d0 = drift(x, s0)
        x_pred = x + (s1 - s0) * d0
        d1 = drift(x_pred, s1)
        x = x + 0.5 * (s1 - s0) * (d0 + d1)
    return x


def mean_transport(bias_fn, phi: PhiFactor, schedule: NoiseSchedule, tol: float = 1e-9) -> np.ndarray:
    """Transported mean B = int_{s0}^{sT} b(s)/s * Phi(s0)/Phi(s) ds.

    Integrated in ln sigma (the substitution absorbs the 1/s weight) by
    16-point Gauss-Legendre on equal panels, which handles the four-decade
    sigma range.  The rule runs on 32 and on 64 panels and returns the
    64-panel value; raises if the two differ by ``tol`` or more.
    """
    s0, s_t = schedule.sigma_min, schedule.sigma_max
    lo, hi = math.log(s0), math.log(s_t)
    # numpy.polynomial loads on first use; at import time it would add about 2 MiB to every command
    nodes, weights = np.polynomial.legendre.leggauss(_GL_POINTS)

    def integrand(u):
        s = math.exp(u)
        return math.exp(log_phi_ratio(phi, s0, s)) * np.asarray(bias_fn(s), dtype=float)

    def rule(panels: int) -> np.ndarray:
        half = 0.5 * (hi - lo) / panels
        centers = lo + half * (2 * np.arange(panels) + 1)
        values = np.stack([integrand(u) for u in (centers[:, None] + half * nodes).ravel().tolist()])
        return half * np.tensordot(np.tile(weights, panels), values, axes=1)

    coarse, fine = rule(_GL_PANELS), rule(2 * _GL_PANELS)
    err = float(np.max(np.abs(fine - coarse)))
    if not err < tol:
        raise IntegrationError(f"quadrature error {err:.3e} exceeds tol {tol:.1e}")
    return fine
