"""Distribution and estimator-quality metrics.

KL between Gaussians sharing an eigenbasis splits into per-mode terms
KL_k = (r - log r - 1)/2 + (mean gap)^2 / (2 lam2); the score and
denoiser estimation errors of an aligned linear denoiser are weighted
sums of squared per-mode deviations, related by E_D = sigma^4 E_s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import CovarianceModel

__all__ = ["ModeKL", "kl_shared_basis", "score_error", "denoiser_error", "training_loss"]

_VAR_FLOOR = 1e-12


@dataclass(frozen=True)
class ModeKL:
    per_mode: np.ndarray
    total: float
    clamped: int  # modes whose variance hit the floor before the log


def kl_shared_basis(lam1, lam2, gap=0.0) -> ModeKL:
    """KL(N(mu1, U diag(lam1) U^T) || N(mu2, U diag(lam2) U^T)) per mode.

    ``gap`` is the mean gap in the shared eigenbasis, U^T (mu2 - mu1), and 0
    for centred data.  Variances below 1e-12 are clamped (count reported);
    nonpositive variances are a domain error.  ``lam1`` may carry leading
    axes, as a (tau, mode) grid of generated variances does; the KL is
    elementwise.
    """
    lam1 = np.asarray(lam1, float)
    lam2 = np.asarray(lam2, float)
    if np.any(lam1 <= 0) or np.any(lam2 <= 0):
        raise ValueError("variances must be positive")
    clamped = int(np.sum(lam1 < _VAR_FLOOR))
    lam1 = np.maximum(lam1, _VAR_FLOOR)
    ratio = lam1 / lam2
    per_mode = 0.5 * (ratio - np.log(ratio) - 1.0) + np.asarray(gap, float) ** 2 / (2.0 * lam2)
    return ModeKL(per_mode, float(per_mode.sum()), clamped)


def _as_psi_matrix(psi) -> np.ndarray:
    psi = np.asarray(psi, float)
    return psi[:, None] if psi.ndim == 1 else psi


def denoiser_error(psi, bias, sigma: float, model: CovarianceModel) -> np.ndarray:
    """E|D - D*|^2 for aligned diagonal weights, zero-mean data.

    psi: per-mode weights, shape (d,) or (d, T); bias: per-mode bias
    values, same convention, or None.  Returns one value per column.
    """
    psi = _as_psi_matrix(psi)
    lam = model.spectrum[:, None]
    dev = psi - lam / (lam + sigma**2)
    err = np.sum((sigma**2 + lam) * dev**2, axis=0)
    if bias is not None:
        b = _as_psi_matrix(bias)
        err = err + np.sum(b**2, axis=0)
    return err


def score_error(psi, bias, sigma: float, model: CovarianceModel) -> np.ndarray:
    """E|s - s*|^2 = E|D - D*|^2 / sigma^4 for the same inputs."""
    return denoiser_error(psi, bias, sigma, model) / sigma**4


def training_loss(psi, bias, sigma: float, model: CovarianceModel) -> np.ndarray:
    """Full-batch denoising loss = estimation error + irreducible floor.

    The floor sigma^2 sum_k lam_k/(sigma^2 + lam_k) is attained exactly at
    the optimum.
    """
    lam = model.spectrum
    floor = sigma**2 * np.sum(lam / (sigma**2 + lam))
    return denoiser_error(psi, bias, sigma, model) + floor
