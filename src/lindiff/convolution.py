"""Circulant (convolutional) denoiser learning on 1-d circular signals.

A circular filter defines a circulant weight matrix W_ij = w_((j-i) mod N),
diagonal in the DFT basis, so full-width training decouples per Fourier
mode exactly like the fully-connected case decouples per eigenmode, with
every rate multiplied by N (weight sharing).  Its Fourier multiplier is
therefore the one-layer solution,
``dynamics.one_layer_psi(S_kk, sigma, gamma0, N * eta, tau)`` with S_kk
from ``dft_mode_variance``.  Local filters instead do ridge regression in
patch space: the K x K shift-averaged patch covariance governs the
dynamics, a ``dynamics.linear_flow`` at rate 2 N eta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import linear_flow

__all__ = [
    "PatchCovariance",
    "dft_mode_variance",
    "patch_covariance",
    "patch_filter_trajectory",
]


@dataclass(frozen=True)
class PatchCovariance:
    """Shift-averaged K x K covariance of circular length-K windows."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        if np.max(np.abs(mat - mat.T)) > 1e-10 * max(1.0, np.max(np.abs(mat))):
            raise ValueError("patch covariance must be symmetric")
        if np.linalg.eigvalsh(mat).min() < -1e-10:
            raise ValueError("patch covariance must be PSD")

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def dft_mode_variance(sigma_mat: np.ndarray) -> np.ndarray:
    """Fourier-mode variances diag(F* Sigma F), computed with FFTs.

    For real symmetric Sigma the diagonal is real and nonnegative; the
    imaginary residue is checked against 1e-10 and discarded.
    """
    sigma_mat = np.asarray(sigma_mat, dtype=float)
    n = sigma_mat.shape[0]
    if sigma_mat.shape != (n, n):
        raise ValueError("covariance must be square")
    if np.max(np.abs(sigma_mat - sigma_mat.T)) > 1e-8 * max(1.0, np.max(np.abs(sigma_mat))):
        raise ValueError("covariance must be symmetric")
    # diag(F* Sigma F)_k = (1/N) sum_mn Sigma_mn e^{2 pi i k (m - n) / N}
    inner = np.fft.fft(sigma_mat, axis=1)  # sum_n Sigma_mn e^{-2 pi i k n / N}
    full = np.fft.ifft(inner, axis=0)  # (1/N) sum_m (...) e^{+2 pi i k m / N}
    diag = np.diagonal(full)
    if np.max(np.abs(diag.imag)) > 1e-10 * max(1.0, np.max(np.abs(diag.real))):
        raise ValueError("imaginary residue exceeds tolerance; input not symmetric?")
    return np.clip(diag.real, 0.0, None)


def patch_covariance(sigma_mat: np.ndarray, r: int) -> PatchCovariance:
    """Shift-averaged covariance chi[a - b] of circular K = 2r+1 windows."""
    sigma_mat = np.asarray(sigma_mat, dtype=float)
    n = sigma_mat.shape[0]
    k = 2 * r + 1
    if r < 0:
        raise ValueError("patch half_width must be >= 0")
    if k > n:
        raise ValueError("patch must fit in the signal (2r+1 <= N)")
    idx = np.arange(n)
    chi = {}
    for o in range(-(k - 1), k):
        chi[o] = sigma_mat[idx, (idx + o) % n].mean()
    offs = np.arange(-r, r + 1)
    mat = np.array([[chi[int(b - a)] for b in offs] for a in offs])
    return PatchCovariance(0.5 * (mat + mat.T))


def patch_filter_trajectory(pc: PatchCovariance, sigma, eta, n, w0, tau_grid):
    """Local-filter flow w(tau) = w* + exp(-2 N eta tau (sigma^2 I + S_p))(w0 - w*).

    The flow dw/dtau = -2 N eta ((sigma^2 I + S_p) w - S_p e0), with e0 the
    one-hot at the filter center, is ``dynamics.linear_flow`` at rate
    2 N eta; its fixed point is w* = (sigma^2 I + S_p)^-1 S_p e0.  Returns
    the path, with row i the filter at tau_grid[i].
    """
    w0 = np.asarray(w0, float)
    k = pc.size
    if w0.shape != (k,):
        raise ValueError("w0 must match the patch size")
    a = sigma**2 * np.eye(k) + pc.matrix
    r = pc.matrix[:, k // 2 : k // 2 + 1]  # S_p e0 as a column
    return linear_flow(a, r, w0[:, None], 2.0 * n * eta, tau_grid)[..., 0]
