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
eta -> N eta.  A matrix exponential in an extended (d+1)-dimensional space
covers a data mean that couples weight and bias, and a geometric iteration
covers discrete-time gradient descent.  The depth-L reduced ODE has no
closed form and is integrated numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gaussian import CovarianceModel, DataMoments
from .integrate import rk45_path

__all__ = [
    "LossVariant",
    "Residual",
    "DynamicsConfig",
    "MeanCovCoupling",
    "MeanCovSolution",
    "DiscreteGDResult",
    "OverlapResult",
    "optimal_mode_weight",
    "convergence_rate",
    "one_layer_psi",
    "two_layer_psi",
    "one_layer_bias",
    "mean_cov_coupling",
    "mean_coupled_trajectory",
    "deep_linear_mode",
    "discrete_gd_trajectory",
    "two_layer_overlap_simulation",
]


# ---------------------------------------------------------------------------
# Loss variants
# ---------------------------------------------------------------------------

VARIANT_TAGS = ("EDM", "XPred", "EpsPred", "VPred", "FlowMatch")


@dataclass(frozen=True)
class LossVariant:
    """A training-loss variant plus its noise schedule.

    ``alpha`` and ``sigma_t`` map the scalar time argument to the signal
    and noise amplitudes.  For EDM the time argument *is* the noise scale
    (alpha = 1, sigma_t = s); for flow matching it is t in (0, 1).
    """

    tag: str
    alpha: Callable[[float], float] = lambda s: 1.0
    sigma_t: Callable[[float], float] = lambda s: s

    def __post_init__(self) -> None:
        if self.tag not in VARIANT_TAGS:
            raise ValueError(f"unknown loss variant {self.tag!r}")

    @staticmethod
    def edm() -> "LossVariant":
        return LossVariant("EDM")

    @staticmethod
    def flow_match() -> "LossVariant":
        return LossVariant("FlowMatch", alpha=lambda t: t, sigma_t=lambda t: 1.0 - t)


def optimal_mode_weight(variant: LossVariant, lam: float, s: float) -> float:
    """Optimal per-mode weight w*_k for an eigenvalue lambda at time s."""
    if variant.tag == "EDM":
        den = lam + s * s
        if den == 0:
            raise ValueError("lambda + sigma^2 must be nonzero")
        return lam / den
    if variant.tag == "FlowMatch":
        den = s * s * lam + (1.0 - s) ** 2
        if den == 0:
            raise ValueError("t^2 lambda + (1-t)^2 vanishes (t=1, lambda=0)")
        return (s * lam - (1.0 - s)) / den
    a, st = variant.alpha(s), variant.sigma_t(s)
    den = a * a * lam + st * st
    if den == 0:
        raise ValueError("alpha^2 lambda + sigma_t^2 must be nonzero")
    if variant.tag == "XPred":
        return a * lam / den
    if variant.tag == "EpsPred":
        return st / den
    return a * st * (1.0 - lam) / den  # VPred


def convergence_rate(variant: LossVariant, lam: float, s: float) -> float:
    """Inverse time constant 1/tau* of the mode (without the 2 eta factor)."""
    if variant.tag == "EDM":
        return lam + s * s
    if variant.tag == "FlowMatch":
        return s * s * lam + (1.0 - s) ** 2
    a, st = variant.alpha(s), variant.sigma_t(s)
    return a * a * lam + st * st


# ---------------------------------------------------------------------------
# Architectures and configuration
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


@dataclass(frozen=True)
class DynamicsConfig:
    """Everything a trajectory needs besides the data model."""

    eta: float
    tau_grid: np.ndarray
    init_q: np.ndarray  # aligned initialization u_k^T W(0) u_k, one per mode
    sigma: float | np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau_grid", np.atleast_1d(np.asarray(self.tau_grid, float)))
        object.__setattr__(self, "init_q", np.atleast_1d(np.asarray(self.init_q, float)))
        object.__setattr__(self, "sigma", np.atleast_1d(np.asarray(self.sigma, float)))
        if self.eta <= 0:
            raise ValueError("learning rate eta must be positive")
        if np.any(np.diff(self.tau_grid) <= 0):
            raise ValueError("tau grid must be strictly increasing")
        if np.any(self.tau_grid < 0):
            raise ValueError("tau grid must be nonnegative")
        if np.any(self.sigma <= 0):
            raise ValueError("sigma must be positive")


# ---------------------------------------------------------------------------
# One-layer closed forms
# ---------------------------------------------------------------------------


def one_layer_psi(lam, sigma, q, eta, tau):
    """w* + (Q - w*) exp(-2 eta tau (sigma^2 + lambda)); floats or broadcast arrays.

    sigma^2 is ``sigma * sigma``: ``**`` on a Python float calls C ``pow``,
    which rounds about 1 square in 1000 differently from NumPy's array square.
    """
    s2 = sigma * sigma
    w_star = lam / (lam + s2)
    return w_star + (q - w_star) * np.exp(-2.0 * eta * tau * (s2 + lam))


def one_layer_bias(b0: np.ndarray, eta: float, tau) -> np.ndarray:
    """Bias decays as b0 exp(-2 eta tau), independent of sigma and lambda."""
    b0 = np.asarray(b0, float)
    tau = np.asarray(tau, float)
    return b0[..., None] * np.exp(-2.0 * eta * tau) if tau.ndim else b0 * np.exp(-2.0 * eta * tau)


# ---------------------------------------------------------------------------
# Mean-covariance coupling (non-centered data)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanCovCoupling:
    """Symmetric (d+1) by (d+1) dynamics matrix of the coupled system.

    M = D + q q^T with D = diag(sigma^2 + lambda_k, ..., 0) and
    q = [m_1, ..., m_d, 1], where m_k = u_k . mu.
    """

    overlaps: np.ndarray  # (d,)
    dynamics_matrix: np.ndarray  # (d+1, d+1)


@dataclass(frozen=True)
class MeanCovSolution:
    taus: np.ndarray
    basis: np.ndarray  # eigenbasis used for the mode projections
    spectrum: np.ndarray
    weight_columns: np.ndarray  # (n_tau, d, d); [t, :, k] = W(tau_t) u_k
    bias: np.ndarray  # (n_tau, d); b(tau) in original coordinates
    weight_diag: np.ndarray  # (n_tau, d); u_k^T W(tau) u_k

    def weight_matrix(self, i: int) -> np.ndarray:
        """Dense W at tau index i (from W U = V)."""
        return self.weight_columns[i] @ self.basis.T


def mean_cov_coupling(moments: DataMoments, sigma: float) -> MeanCovCoupling:
    model = moments.eigenmodel()
    m = model.basis.T @ moments.mean
    d = model.dim
    q = np.concatenate([m, [1.0]])
    diag = np.concatenate([sigma**2 + model.spectrum, [0.0]])
    mat = np.diag(diag) + np.outer(q, q)
    return MeanCovCoupling(m, mat)


def mean_coupled_trajectory(
    moments: DataMoments,
    cfg: DynamicsConfig,
    b0: np.ndarray | None = None,
) -> MeanCovSolution:
    """Coupled (W, b) dynamics for nonzero mean, solved spectrally.

    The stacked state X with rows (v_1, ..., v_d, b - mu), where
    v_k = W u_k, obeys dX/dtau = -2 eta (M X - R).  M is symmetric, so
    X(tau) = X* + S exp(-2 eta tau Omega) S^T (X0 - X*) with M = S Omega S^T
    and M X* = R.  The fixed point reproduces W* = Sigma (Sigma+sigma^2 I)^-1
    and b* = (I - W*) mu.
    """
    if cfg.sigma.size != 1:
        raise ValueError("one sigma at a time for the coupled solve")
    sigma = float(cfg.sigma[0])
    model = moments.eigenmodel()
    d = model.dim
    coupling = mean_cov_coupling(moments, sigma)
    m_mat = coupling.dynamics_matrix

    u = model.basis
    lam = model.spectrum
    r = np.vstack([(u * lam).T, np.zeros(d)])  # rows lambda_k u_k^T, then 0
    x_star = np.linalg.solve(m_mat, r)

    q = np.broadcast_to(cfg.init_q, lam.shape)
    w0 = (u * q) @ u.T
    b_init = np.zeros(d) if b0 is None else np.asarray(b0, float)
    x0 = np.vstack([(w0 @ u).T, b_init - moments.mean])

    omega, s_mat = np.linalg.eigh(m_mat)
    coeff = s_mat.T @ (x0 - x_star)
    decay = np.exp(-2.0 * cfg.eta * cfg.tau_grid[:, None] * omega[None, :])
    x_tau = x_star[None] + np.einsum("ij,tj,jk->tik", s_mat, decay, coeff)

    v_cols = np.swapaxes(x_tau[:, :d, :], 1, 2)  # [t, :, k] = v_k
    bias = x_tau[:, d, :] + moments.mean
    w_diag = np.einsum("ik,tik->tk", u, v_cols)
    return MeanCovSolution(cfg.tau_grid, u, lam, v_cols, bias, w_diag)


# ---------------------------------------------------------------------------
# Two-layer symmetric product
# ---------------------------------------------------------------------------


def two_layer_psi(lam, sigma, q, eta, tau):
    """Logistic trajectory of |q_k|^2 for the symmetric product W = P P^T.

    Q = 0 stays at the saddle; lambda = 0 modes are frozen at Q (the
    formula's rate 8 eta lambda vanishes); both conventions documented.
    Takes floats or broadcast arrays; sigma^2 is ``sigma * sigma`` as in
    ``one_layer_psi``.
    """
    s2 = sigma * sigma
    decay = np.exp(-8.0 * eta * lam * tau)
    if not isinstance(s2, np.ndarray) and not isinstance(q, np.ndarray) and not isinstance(decay, np.ndarray):
        # every input is a scalar: plain arithmetic, no 0-d arrays
        if q < 0:
            raise ValueError("Q_k is a squared norm and must be nonnegative")
        if lam == 0.0:
            return q
        w_star = lam / (s2 + lam)
        den = (w_star - q) * decay + q
        return 0.0 if q == 0.0 or den == 0.0 else w_star * q / den
    if np.any(q < 0):
        raise ValueError("Q_k is a squared norm and must be nonnegative")
    w_star = lam / (s2 + lam)
    den = (w_star - q) * decay + q
    out = np.where(q == 0.0, 0.0, np.divide(w_star * q, den, out=np.zeros_like(den), where=den != 0))
    return np.where(lam == 0.0, q, out)


# ---------------------------------------------------------------------------
# Depth-L reduced ODE
# ---------------------------------------------------------------------------


def deep_linear_mode(depth, lam, sigma, c0, eta, tau_grid):
    """Integrate dc/dtau = eta L [lambda - (sigma^2+lambda) c] c^(2-2/L).

    The constants follow the depth-L convention, which differs from the
    dedicated closed forms: deep_linear_mode(L=1) matches the one-layer
    solution after eta -> 2 eta, and L=2 matches the symmetric two-layer
    solution after eta -> 4 eta.  Returns c at every tau grid point;
    raises if the trajectory stalls at the c = 0 saddle for L > 2.
    """
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if c0 <= 0 and depth >= 2:
        raise ValueError("c0 must be positive for depth >= 2 (zero is a saddle)")
    tau_grid = np.asarray(tau_grid, float)
    expo = 2.0 - 2.0 / depth
    lam, sigma = float(lam), float(sigma)

    def rhs(_t, c):
        c_safe = np.maximum(c, 0.0)
        return eta * depth * (lam - (sigma**2 + lam) * c) * c_safe**expo

    grid = tau_grid if tau_grid[0] == 0 else np.concatenate([[0.0], tau_grid])
    path = rk45_path(rhs, np.array([c0]), grid)
    vals = path[:, 0] if tau_grid[0] == 0 else path[1:, 0]
    if depth > 2 and c0 > 0 and np.any(vals < 1e-13 * c0):
        raise RuntimeError("trajectory stalled at the c = 0 saddle")
    return vals


# ---------------------------------------------------------------------------
# Discrete-time gradient descent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteGDResult:
    iterates: np.ndarray  # (d, steps+1)
    diverged: np.ndarray  # (d,) bool; |contraction factor| >= 1
    factors: np.ndarray  # (d,) per-mode contraction factor
    bias: np.ndarray | None = None  # (steps+1,) scalar bias factor path


def discrete_gd_trajectory(
    model: CovarianceModel, sigma: float, q, step: float, steps: int, b0: float | None = None
) -> DiscreteGDResult:
    """Geometric iteration psi_t = w* + (Q - w*) (1 - 2 step (sigma^2+lambda))^t.

    ``q`` is the aligned initialization u_k^T W(0) u_k, a scalar or one
    per mode.  Divergence (|factor| >= 1) is reported in the result, never
    raised: the stability boundary is itself a quantity of interest.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    lam = model.spectrum
    q = np.broadcast_to(np.asarray(q, float), lam.shape)
    w_star = lam / (lam + sigma**2)
    factor = 1.0 - 2.0 * step * (sigma**2 + lam)
    t = np.arange(steps + 1)
    iterates = w_star[:, None] + (q - w_star)[:, None] * factor[:, None] ** t[None, :]
    bias = None if b0 is None else b0 * (1.0 - 2.0 * step) ** t
    return DiscreteGDResult(iterates, np.abs(factor) >= 1.0, factor, bias)


# ---------------------------------------------------------------------------
# General (non-aligned) two-layer overlap dynamics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverlapResult:
    taus: np.ndarray
    overlaps: np.ndarray  # (n_tau, d, d); [t, k, m] = q_k . q_m


def two_layer_overlap_simulation(
    model: CovarianceModel,
    sigma: float,
    eta: float,
    q_init: np.ndarray,
    tau_grid: Sequence[float],
) -> OverlapResult:
    """Numerically integrate the full two-layer flow from any initialization.

    State is the matrix of row vectors q_k = P^T u_k; the gradient of the
    clean-target loss in these coordinates is
    -4 lambda_k q_k + 2 sum_m (2 sigma^2 + lambda_k + lambda_m)(q_k.q_m) q_m.
    Returns the Gram matrix q_k . q_m along the trajectory.
    """
    lam = model.spectrum
    q0 = np.asarray(q_init, float)
    if q0.shape != (model.dim, model.dim):
        raise ValueError("q_init must be d x d (rows q_k)")
    tau_grid = np.asarray(tau_grid, float)
    coef = 2.0 * sigma**2 + lam[:, None] + lam[None, :]

    def rhs(_t, qm):
        gram = qm @ qm.T
        grad = -4.0 * lam[:, None] * qm + 2.0 * (coef * gram) @ qm
        return -eta * grad

    grid = tau_grid if tau_grid[0] == 0 else np.concatenate([[0.0], tau_grid])
    path = rk45_path(rhs, q0, grid)
    if tau_grid[0] != 0:
        path = path[1:]
    overlaps = np.einsum("tij,tkj->tik", path, path)
    return OverlapResult(tau_grid, overlaps)
