"""Closed-form weight and bias trajectories under full-batch gradient flow.

All architectures share the same skeleton: project the dynamics onto the
data eigenbasis, where each mode evolves independently, and write the
per-mode solution in closed form.  The per-mode weight of mode k under
the clean-target loss is

    psi_k(tau) = w*_k + (Q_k - w*_k) exp(-2 eta tau (sigma^2 + lambda_k))

for one layer (``one_layer_psi``) and a logistic sigmoid with
sigma-independent rate 8 eta lambda_k for the symmetric two-layer product
(``two_layer_psi``).  Both broadcast over (mode, sigma, tau) grids.

Reparameterized architectures are calls of ``one_layer_psi``, not copies:
a residual skip W = c_skip I + c_out W' is one layer with
Q -> c_skip + c_out Q and eta -> c_out^2 eta (``Residual.one_layer``), and
a full-width circulant convolution is one layer with lambda -> S_kk and
eta -> N eta.  A flow that is linear in its parameters but does not
decouple per mode, dX/dtau = -rate (A X - R) with A symmetric positive
definite, is one eigendecomposition of A (``linear_flow``): the (W, b)
flow on data whose mean couples weight and bias
(``mean_coupled_trajectory``) and the local patch filter
(``convolution.patch_filter_trajectory``).  A geometric iteration covers
discrete-time gradient descent.  The depth-L reduced ODE has no closed
form and is integrated numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gaussian import DataMoments
from .integrate import rk45_path

__all__ = [
    "LossVariant",
    "Residual",
    "DiscreteGDResult",
    "optimal_mode_weight",
    "convergence_rate",
    "one_layer_psi",
    "two_layer_psi",
    "one_layer_bias",
    "linear_flow",
    "mean_coupled_trajectory",
    "deep_linear_mode",
    "discrete_gd_trajectory",
]


# ---------------------------------------------------------------------------
# Loss variants
# ---------------------------------------------------------------------------

VARIANT_TAGS = ("XPred", "EpsPred", "VPred", "FlowMatch")


@dataclass(frozen=True)
class LossVariant:
    """A training-loss variant plus its noise schedule.

    ``alpha`` and ``sigma_t`` map the scalar time argument to the signal
    and noise amplitudes, for every tag; the tag fixes only the regression
    target.  By default the time argument *is* the noise scale (alpha = 1,
    sigma_t = s: ``edm()``'s clean-target x-prediction); for flow matching it is t in (0, 1).
    """

    tag: str
    alpha: Callable[[float], float] = lambda s: 1.0
    sigma_t: Callable[[float], float] = lambda s: s

    def __post_init__(self) -> None:
        if self.tag not in VARIANT_TAGS:
            raise ValueError(f"unknown loss variant {self.tag!r}")

    @staticmethod
    def edm() -> "LossVariant":
        return LossVariant("XPred")

    @staticmethod
    def flow_match() -> "LossVariant":
        return LossVariant("FlowMatch", alpha=lambda t: t, sigma_t=lambda t: 1.0 - t)


def optimal_mode_weight(variant: LossVariant, lam, s):
    """Optimal per-mode weight w*_k = (c_x alpha lam + c_eps sigma_t) / (alpha^2 lam + sigma_t^2)
    for an eigenvalue lambda (or an array of them) at time s.

    The variant regresses the target c_x x + c_eps eps on the input
    alpha x + sigma_t eps; its tag fixes only (c_x, c_eps).
    """
    a, st = variant.alpha(s), variant.sigma_t(s)
    c_x, c_eps = {"EpsPred": (0.0, 1.0), "VPred": (-st, a), "FlowMatch": (1.0, -1.0)}.get(variant.tag, (1.0, 0.0))
    den = convergence_rate(variant, lam, s)
    if np.any(den == 0):
        raise ValueError("alpha^2 lambda + sigma_t^2 must be nonzero")
    return (c_x * a * lam + c_eps * st) / den


def convergence_rate(variant: LossVariant, lam, s):
    """Inverse time constant 1/tau* = alpha^2 lam + sigma_t^2 of the mode (without the 2 eta factor)."""
    a, st = variant.alpha(s), variant.sigma_t(s)
    return a * a * lam + st**2


# ---------------------------------------------------------------------------
# Architectures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Residual:
    """Skip connection W = c_skip I + c_out W' around a trained layer W'."""

    c_skip: float
    c_out: float

    def __post_init__(self) -> None:
        if self.c_out == 0:
            raise ValueError("c_out must be nonzero")

    def one_layer(self, q, eta):
        """One-layer (Q, eta) with the same per-mode trajectory of W.

        one_layer_psi(lam, sigma, *res.one_layer(q, eta), tau) = u_k^T W u_k.
        """
        return self.c_skip + self.c_out * np.asarray(q, float), eta * self.c_out**2


# ---------------------------------------------------------------------------
# One-layer closed forms
# ---------------------------------------------------------------------------


def one_layer_psi(lam, sigma, q, eta, tau):
    """w* + (Q - w*) e^z with z = -2 eta tau (sigma^2 + lambda); floats or broadcast arrays.

    Formed as Q e^z - w* expm1(z), which does not cancel where psi ~ Q << w*.
    sigma^2 is ``sigma * sigma``: ``**`` on a Python float calls C ``pow``,
    which rounds about 1 square in 1000 differently from NumPy's array square.
    """
    s2 = sigma * sigma
    z = -2.0 * eta * tau * (s2 + lam)
    return q * np.exp(z) - lam / (lam + s2) * np.expm1(z)


def one_layer_bias(b0: np.ndarray, eta: float, tau) -> np.ndarray:
    """Bias decays as b0 exp(-2 eta tau), independent of sigma and lambda;
    shape b0.shape + tau.shape."""
    return np.multiply.outer(b0, np.exp(-2.0 * eta * np.asarray(tau, float)))


# ---------------------------------------------------------------------------
# Linear flows: mean-coupled bias and local filters
# ---------------------------------------------------------------------------


def linear_flow(a, r, x0, rate: float, tau_grid) -> np.ndarray:
    """Closed-form solution of dX/dtau = -rate (A X - R) for symmetric positive definite A.

    X(tau) = X* + V exp(-rate tau Omega) V^T (X0 - X*) with A X* = R and
    A = V Omega V^T.  ``a`` is (..., n, n) with any leading batch axes;
    ``r`` and ``x0`` are (n, m) matrices, or stacks of them that broadcast
    against those axes.
    Returns X at every tau, tau first: (n_tau, ..., n, m).
    """
    x_star = np.linalg.solve(a, r)
    omega, v = np.linalg.eigh(a)
    coeff = np.swapaxes(v, -1, -2) @ (x0 - x_star)
    decay = np.exp(-rate * np.asarray(tau_grid, float).reshape((-1,) + (1,) * omega.ndim) * omega)
    return x_star + v @ (decay[..., None] * coeff)


def mean_coupled_trajectory(moments: DataMoments, s, eta: float, w0, b0, tau_grid):
    """One-layer (W, b) gradient flow on data with any mean, in closed form.

    The denoising loss E|W x~ + b - x|^2 with x~ = x + s z couples W and b through
    the mean mu.  Its flow is linear in X = [W | b]^T:
    dX/dtau = -2 eta (A X - R) with A = E[[x~; 1][x~; 1]^T] and
    R = [Sigma + mu mu^T; mu^T], so ``linear_flow`` solves it.  The fixed
    point is W* = Sigma (Sigma + s^2 I)^-1, b* = (I - W*) mu.  ``s`` is one
    noise level or a 1-D sequence of them (then A has a leading sigma axis
    and ``w0`` is shared or given per sigma), as in
    ``oracle.gradient_flow_full``.  Returns (Ws, bs) with that function's
    shapes: Ws[i] (or Ws[i, j] for s[j]) is W at tau_grid[i].
    """
    tau_grid = np.atleast_1d(np.asarray(tau_grid, float))
    sig = np.asarray(s, float)
    if eta <= 0:
        raise ValueError("learning rate eta must be positive")
    if tau_grid[0] < 0 or np.any(np.diff(tau_grid) <= 0):
        raise ValueError("tau grid must be nonnegative and strictly increasing")
    if sig.ndim > 1 or np.any(sig <= 0):
        raise ValueError("sigma must be positive: one value or a 1-D sequence")
    mu, d = moments.mean, moments.dim
    second = moments.covariance + np.outer(mu, mu)
    r = np.vstack([second, mu])
    noise = np.diag(np.append(np.ones(d), 0.0))  # s^2 I in the x~ x~^T block only
    a = np.hstack([r, np.append(mu, 1.0)[:, None]]) + (sig * sig)[..., None, None] * noise
    x0 = np.empty(sig.shape + (d + 1, d))
    x0[..., :d, :] = np.swapaxes(np.asarray(w0, float), -1, -2)
    x0[..., d, :] = b0
    x = linear_flow(a, r, x0, 2.0 * eta, tau_grid)
    return np.swapaxes(x[..., :d, :], -1, -2), x[..., d, :]


# ---------------------------------------------------------------------------
# Two-layer symmetric product
# ---------------------------------------------------------------------------


def two_layer_psi(lam, sigma, q, eta, tau):
    """|q_k|^2 for the symmetric product W = P P^T: Q / (E + Q g (lambda + sigma^2)).

    E = exp(-8 eta tau lambda) and g = (1 - E)/lambda from ``expm1``, or
    8 eta tau at lambda = 0: the bracket of ``log_phi_ratio``'s two-layer
    form.  It is the logistic sigmoid toward w* = lambda/(sigma^2 + lambda),
    and at lambda = 0 the decay Q/(1 + 8 eta tau Q sigma^2) of the gradient
    flow.  Q = 0 stays at the saddle.  One broadcast expression for floats
    and arrays: all-scalar inputs give a NumPy scalar.  Its masks are
    arithmetic, not ``np.where``, because the table writer calls it once
    per cell.  sigma^2 is ``sigma * sigma`` as in ``one_layer_psi``.
    """
    if np.count_nonzero(q < 0):
        raise ValueError("Q_k is a squared norm and must be nonnegative")
    s2 = sigma * sigma
    rate = 8.0 * eta * tau
    # where lambda = 0 the quotient is 0/1 and the mask adds its limit 8 eta tau
    zero = lam == 0.0
    grown = -np.expm1(-rate * lam) / (lam + zero) + zero * rate
    den = np.exp(-rate * lam) + q * grown * (lam + s2)
    # den is 0 only where Q = 0 and E underflows, and there psi is 0/1
    return q / (den + (den == 0))


# ---------------------------------------------------------------------------
# Depth-L reduced ODE
# ---------------------------------------------------------------------------


def deep_linear_mode(depth, lam, sigma, c0, eta, tau_grid):
    """Depth-L mode c(tau) of dc/dtau = eta L [lambda - (sigma^2+lambda) c] c^(2-2/L) from c0.

    L=1 is the one-layer solution at 2 eta and L=2 the symmetric two-layer one
    at 4 eta.  In v = ln((c* - c0)/(c* - c)), c* = lambda/(sigma^2 + lambda), the
    flow dv/dtau = eta L (sigma^2 + lambda) c(v)^(2-2/L) from v = 0 is not stiff
    and c(v) stays between c0 and c* (DECISIONS.md).  One RK45 flow carries the
    broadcast (lambda, sigma, c0); returns c at every tau, tau first.
    """
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    lam, sigma, c0 = np.broadcast_arrays(*(np.asarray(x, float) for x in (lam, sigma, c0)))
    if depth >= 2 and np.any(c0 <= 0):
        raise ValueError("c0 must be positive for depth >= 2 (zero is a saddle)")
    rate = sigma * sigma + lam
    c_star = lam / (rate + (rate == 0))  # lambda = sigma = 0: v stays 0 and c at c0
    grow = c0 < c_star  # c moves from its nearer end by a term of one sign: no cancellation
    base, gap = np.where(grow, c0, c_star), np.abs(c_star - c0)

    def c_of(v):
        return base + gap * np.where(grow, -np.expm1(-v), np.exp(-v))

    def rhs(_t, v):
        return eta * depth * rate * c_of(v) ** (2.0 - 2.0 / depth)

    # an error dv is a relative error (c* - c) dv / c, so rtol alone sets the steps;
    # a trial stage below v = 0 gives NaN, and rk45_path rejects it
    with np.errstate(invalid="ignore"):
        return c_of(rk45_path(rhs, np.zeros(rate.shape), tau_grid, atol=np.finfo(float).tiny))


# ---------------------------------------------------------------------------
# Discrete-time gradient descent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteGDResult:
    iterates: np.ndarray  # (d, steps+1)
    diverged: np.ndarray  # (d,) bool; |contraction factor| >= 1
    bias: np.ndarray | None = None  # (steps+1,) scalar bias factor path


def discrete_gd_trajectory(lam, sigma: float, q, step: float, steps: int, b0: float | None = None) -> DiscreteGDResult:
    """Geometric iteration psi_t = w* + (Q - w*) (1 - 2 step (sigma^2+lambda))^t for each lambda in ``lam``.

    ``q`` is the aligned initialization u_k^T W(0) u_k, a scalar or one
    per mode.  Divergence (|factor| >= 1) is reported in the result, never
    raised: the stability boundary is itself a quantity of interest.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    lam = np.asarray(lam, float)
    q = np.broadcast_to(np.asarray(q, float), lam.shape)
    w_star = lam / (lam + sigma**2)
    factor = 1.0 - 2.0 * step * (sigma**2 + lam)
    t = np.arange(steps + 1)
    iterates = w_star[:, None] + (q - w_star)[:, None] * factor[:, None] ** t[None, :]
    bias = None if b0 is None else b0 * (1.0 - 2.0 * step) ** t
    return DiscreteGDResult(iterates, np.abs(factor) >= 1.0, bias)
