"""Probability-flow ODE integration, analytic and numeric.

For commuting weights the PF-ODE dx/dsigma = -[(W_sigma - I)x + b_sigma]/sigma
factorizes per mode, and the per-mode amplification from sigma_max down to
sigma is the ratio of the integrating factor

    Phi(sigma) = exp(-int (psi(s) - 1)/s ds)

evaluated at the two endpoints.  The generated variance starting from
N(0, sigma_T^2 I) is then lambda_gen = sigma_T^2 Phi(sigma_0)^2/Phi(sigma_T)^2.
Phi is closed-form for the one-layer trajectory (exponential integrals,
``phi_one_layer``), the two-layer trajectory (elementary powers,
``phi_two_layer``) and the converged denoiser.  Reparameterized
architectures reuse the one-layer factor: the full-width convolution is
``PhiFactor("one-layer", lam=S_kk, eta=N * eta)``.  A Heun integrator on
the EDM rho-schedule provides the independent numeric route.

Phi is defined up to a sigma-independent normalization (only ratios are
observable); the tau = 0 branch of the one-layer factor uses the
regularized limit sigma^(1-Q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .integrate import IntegrationError
from .special import expint_ei

__all__ = [
    "NoiseSchedule",
    "PhiFactor",
    "phi_one_layer",
    "phi_two_layer",
    "phi_value",
    "generated_variance",
    "pf_ode_numeric",
    "pf_mode_scaling",
    "mean_transport",
]

# Dispatch thresholds for the Ei-based factors: below/above these the
# closed asymptotic forms are exact to double precision and avoid the
# logarithmic blow-up / underflow of Ei near its limits.
_EARLY_THRESHOLD = 1e-12  # on 2 eta tau sigma_max^2
_LATE_THRESHOLD = 50.0  # on 2 eta tau sigma_min^2

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


class _PhiFields(NamedTuple):
    case: str
    lam: float
    q: float
    eta: float
    tau: float


class PhiFactor(_PhiFields):
    """Which closed-form integrating factor to use, and its parameters.

    case: 'one-layer' | 'two-layer' | 'converged'.  A tuple, not a frozen
    dataclass: the sweep builds one per (mode, tau) cell.
    """

    __slots__ = ()
    _CASES = ("one-layer", "two-layer", "converged")

    def __new__(cls, case: str, lam: float = 0.0, q: float = 0.0, eta: float = 1.0, tau: float = 0.0):
        if case not in cls._CASES:
            raise ValueError(f"unknown Phi case {case!r}")
        return tuple.__new__(cls, (case, lam, q, eta, tau))


def phi_one_layer(sigma: float, tau: float, lam: float, q: float, eta: float, ei_memo: dict | None = None) -> float:
    """Integrating factor along one mode of the one-layer trajectory.

    Phi = sqrt(lam + sigma^2) * exp[(1-Q)/2 * Ei(-2 eta tau sigma^2)
          * e^(-2 eta tau lam) - 1/2 * Ei(-2 eta tau (sigma^2 + lam))].
    At tau = 0 returns the regularized limit sigma^(1-Q).  The first Ei
    term does not depend on lam: a caller that evaluates many modes at
    the same (tau, sigma) passes a dict it owns as ``ei_memo``, which keeps
    that term by its argument.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau == 0.0:
        return sigma ** (1.0 - q)
    x_noise = 2.0 * eta * tau * sigma**2
    if ei_memo is None:
        ei_noise = expint_ei(-x_noise)
    elif (ei_noise := ei_memo.get(x_noise)) is None:
        ei_noise = ei_memo[x_noise] = expint_ei(-x_noise)
    expo = 0.5 * (1.0 - q) * ei_noise * math.exp(-2.0 * eta * tau * lam) - 0.5 * expint_ei(
        -(x_noise + 2.0 * eta * tau * lam)
    )
    return math.sqrt(lam + sigma**2) * math.exp(expo)


def phi_two_layer(sigma: float, tau: float, lam: float, q: float, eta: float) -> float:
    """Integrating factor for the symmetric two-layer trajectory.

    With E = e^(-8 eta tau lam) and c = (1-Q) E / (Q + (1-Q) E):
    Phi = sigma^c * [lam E + Q (1 - E)(lam + sigma^2)]^((1-c)/2).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if q <= 0:
        raise ValueError("two-layer Phi needs Q > 0 (Q = 0 never converges)")
    decay = math.exp(-8.0 * eta * tau * lam)
    c = (1.0 - q) * decay / (q + (1.0 - q) * decay)
    bracket = lam * decay + q * (1.0 - decay) * (lam + sigma**2)
    return sigma**c * bracket ** (0.5 * (1.0 - c))


def _two_layer_log_ratio(phi: PhiFactor, s0: float, s_t: float) -> float:
    """ln Phi(s0)/Phi(s_t) of ``phi_two_layer``, c ln(s0/s_t) + (1-c)/2 ln(B(s0)/B(s_t)):
    finite where sigma^c or B^((1-c)/2) alone over- or underflows.  No sum
    cancels (1 - E by ``expm1``, Q + (1-Q) E as Q (1 - E) + E), because
    |c ln(s0/s_t)| reaches several hundred and multiplies c's relative error."""
    lam, q = phi.lam, phi.q
    decay = math.exp(-8.0 * phi.eta * phi.tau * lam)
    grown = -math.expm1(-8.0 * phi.eta * phi.tau * lam)  # 1 - E
    c = (1.0 - q) * decay / (q * grown + decay)
    b0, b_t = (lam * decay + q * grown * (lam + s * s) for s in (s0, s_t))
    return c * math.log(s0 / s_t) + 0.5 * (1.0 - c) * math.log(b0 / b_t)


def phi_value(phi: PhiFactor, sigma: float) -> float:
    """Evaluate a PhiFactor at one noise scale."""
    if phi.case == "one-layer":
        return phi_one_layer(sigma, phi.tau, phi.lam, phi.q, phi.eta)
    if phi.case == "two-layer":
        return phi_two_layer(sigma, phi.tau, phi.lam, phi.q, phi.eta)
    return math.sqrt(phi.lam + sigma**2)  # converged


def generated_variance(phi: PhiFactor, schedule: NoiseSchedule, ei_memo: dict | None = None) -> float:
    """Generated mode variance sigma_T^2 Phi^2(sigma_min) / Phi^2(sigma_max).

    The Ei-based one-layer case dispatches to its closed asymptotic forms
    at the extremes of training time (see module docstring thresholds),
    and passes ``ei_memo`` on to ``phi_one_layer``.  The two-layer case
    takes the ratio in logs where the direct one over- or underflows.
    """
    s0, s_t = schedule.sigma_min, schedule.sigma_max
    if phi.case == "one-layer":
        lam, q, eta, tau = phi.lam, phi.q, phi.eta, phi.tau
        if 2.0 * eta * tau * s_t**2 < _EARLY_THRESHOLD:
            return s_t**2 * (s0 / s_t) ** (2.0 * (1.0 - q))
        if 2.0 * eta * tau * s0**2 > _LATE_THRESHOLD:
            return s_t**2 * (lam + s0**2) / (lam + s_t**2)
        ratio = phi_one_layer(s0, tau, lam, q, eta, ei_memo) / phi_one_layer(s_t, tau, lam, q, eta, ei_memo)
        return s_t**2 * ratio**2
    if phi.case == "two-layer":
        try:  # the direct ratio wherever both factors and it are finite and nonzero
            ratio = phi_value(phi, s0) / phi_value(phi, s_t)
            lam_gen = s_t**2 * ratio**2
        except (OverflowError, ZeroDivisionError):  # sigma^c or B^((1-c)/2) out of range
            lam_gen = 0.0
        if 0.0 < lam_gen < math.inf:
            return lam_gen
        return math.exp(2.0 * (math.log(s_t) + _two_layer_log_ratio(phi, s0, s_t)))
    return s_t**2 * (phi.lam + s0**2) / (phi.lam + s_t**2)  # converged


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
    phi0 = phi_value(phi, s0)
    lo, hi = math.log(s0), math.log(s_t)
    # numpy.polynomial loads on first use; at import time it would add about 2 MiB to every command
    nodes, weights = np.polynomial.legendre.leggauss(_GL_POINTS)

    def integrand(u):
        s = math.exp(u)
        return phi0 / phi_value(phi, s) * np.asarray(bias_fn(s), dtype=float)

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
