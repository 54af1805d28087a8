"""Brute-force reference implementations used only to validate closed forms.

Nothing here touches the closed-form code paths: losses and gradients are
assembled directly from the input/target moments of each training
objective, and trajectories come from integrating those raw gradients on
full matrices.  Each flow takes its gradient as one product with the
augmented moments of x~ = [x; 1], built once per flow from those raw
moments, with no per-mode decomposition; ``loss_gradients`` is the
reference that product is tested against.  Independence is the point.
"""

from __future__ import annotations

import numpy as np

from .dynamics import LossVariant
from .gaussian import DataMoments
from .integrate import heun, rk4_path, rk45_path

__all__ = [
    "variant_moments",
    "loss_value",
    "loss_gradients",
    "gradient_flow_full",
    "discrete_gd_full",
    "mc_dsm_loss",
    "dense_dft_diag",
    "heun_affine_dense",
]


# Tolerances of the adaptive Cash-Karp route.
_RTOL = 1e-11
_ATOL = 1e-14
# Right-hand-side evaluations of every flow since import; a caller counts a
# piece of work as the difference across it.
rhs_evaluations = 0


def variant_moments(variant: LossVariant, moments: DataMoments, s: float):
    """Input/target moments (mu_x, mu_y, Sxx, Syx, Syy) of a loss variant."""
    mu, cov = moments.mean, moments.covariance
    d = moments.dim
    eye = np.eye(d)
    a, st = variant.alpha(s), variant.sigma_t(s)
    sxx = a * a * cov + st * st * eye
    if variant.tag == "XPred":
        return a * mu, mu, sxx, a * cov, cov
    if variant.tag == "EpsPred":
        return a * mu, np.zeros(d), sxx, st * eye, eye
    if variant.tag == "FlowMatch":  # target x - eps
        return a * mu, mu, sxx, a * cov - st * eye, cov + eye
    # VPred: target alpha*eps - sigma*x
    return a * mu, -st * mu, sxx, a * st * (eye - cov), a * a * eye + st * st * cov


def loss_value(w, b, mm) -> float:
    """Full-batch quadratic loss E |W x + b - y|^2 from the moment tuple."""
    mu_x, mu_y, sxx, syx, syy = mm
    second_x = sxx + np.outer(mu_x, mu_x)
    cross = syx + np.outer(mu_y, mu_x)
    return float(
        np.einsum("ij,ij->", w @ second_x, w)
        - 2.0 * np.einsum("ij,ij->", cross, w)
        + b @ b
        + 2.0 * b @ (w @ mu_x - mu_y)
        + np.trace(syy)
        + mu_y @ mu_y
    )


def loss_gradients(w, b, mm):
    """Analytic gradients of loss_value; cross-checked by finite differences."""
    mu_x, mu_y, sxx, syx, syy = mm
    grad_b = 2.0 * (w @ mu_x + b - mu_y)
    grad_w = 2.0 * (w @ sxx - syx) + np.outer(grad_b, mu_x)
    return grad_w, grad_b


def _augmented_moments(mm):
    """A = E[x~ x~^T] and C = E[y x~^T] with x~ = [x; 1], so dL/d[W | b] = 2([W | b] A - C)."""
    mu_x, mu_y, sxx, syx, _ = mm
    a = np.block([[sxx + np.outer(mu_x, mu_x), mu_x[:, None]], [mu_x[None, :], np.ones((1, 1))]])
    c = np.hstack([syx + np.outer(mu_y, mu_x), mu_y[:, None]])
    return a, c


def gradient_flow_full(
    moments: DataMoments,
    s,
    eta: float,
    w0: np.ndarray,
    b0: np.ndarray,
    tau_grid,
    variant: LossVariant = LossVariant.edm(),
    parametrization: str = "one-layer",
    half_width: int | None = None,
    adaptive: bool = False,
):
    """Integrate exact full-batch gradient flow on raw parameter matrices.

    parametrization: 'one-layer' (state [W | b]), 'two-layer-symmetric'
    (state [P | b] with W = P P^T), 'circulant' (state = N filter taps),
    or 'patch' (taps restricted to |offset| <= half_width, 2r+1 <= N).
    Every right-hand side is one product with the augmented moments of
    x~ = [x; 1]: d[W | b]/dtau = -eta dL/d[W | b] = [W | b] (-2 eta A) - (-2 eta C)
    with A = E[x~ x~^T] and C = E[y x~^T], built once from the raw moments
    of the loss variant.  The two-layer flow applies the chain rule
    dP/dtau = (G_W + G_W^T) P to that product's W block; the convolutional
    flows sum its W block over the cells that share a tap.
    Every flow is integrated by adaptive Cash-Karp RK45 at ``_RTOL`` /
    ``_ATOL``, except the one-layer flow without ``adaptive``: it takes
    fixed-step RK4 at its spectral rate, 2 eta lambda_max of E[x x^T].
    The other flows ignore ``adaptive``.
    The dense flows (one-layer, two-layer) also take ``s`` as a 1-D sequence
    of S noise levels and integrate them as one flow whose state has a
    leading sigma axis: RK4 steps at the largest sigma's rate, and RK45's
    error norm spans the batch, so each sigma is stepped at least as finely
    as alone.  ``w0`` is then shared by every sigma or given per sigma.
    Returns (Ws, bs) with Ws[i] the dense weight matrix at tau_grid[i], or
    Ws[i, j] the one of sigma s[j] for a sequence ``s``.
    """
    tau_grid = np.asarray(tau_grid, float)
    if np.ndim(s) > 1 or (np.ndim(s) and parametrization in ("circulant", "patch")):
        raise ValueError(f"{parametrization} takes one noise level s, not {np.shape(s)}")
    d = moments.dim
    per_sigma = [_augmented_moments(variant_moments(variant, moments, x)) for x in np.ravel(s).tolist()]
    aug_a, aug_c = (np.stack(m).reshape(np.shape(s) + m[0].shape) for m in zip(*per_sigma))
    a, c = -2.0 * eta * aug_a, -2.0 * eta * aug_c

    if parametrization in ("one-layer", "two-layer-symmetric"):
        y0 = np.empty(c.shape)  # [W | b], or [P | b] with W = P P^T, for every sigma
        y0[..., :d] = w0
        y0[..., d] = b0

    if parametrization == "one-layer":
        def rhs(_t, y):
            return y @ a - c

        rate = None if adaptive else 2.0 * eta * float(np.linalg.eigvalsh(aug_a[..., :d, :d]).max())
        path = _solve(rhs, y0, tau_grid, rate)
        return path[..., :d], path[..., d]

    if parametrization == "two-layer-symmetric":
        work = np.empty(c.shape)  # [P P^T | b], overwritten on every call

        def rhs(_t, y):
            p = y[..., :d]
            np.matmul(p, p.swapaxes(-1, -2), out=work[..., :d])
            work[..., d] = y[..., d]
            g = work @ a - c
            gw = g[..., :d]
            gw[...] = (gw + gw.swapaxes(-1, -2)) @ p
            return g

        path = _solve(rhs, y0, tau_grid)
        ps = path[..., :d]
        return np.einsum("...ij,...kj->...ik", ps, ps), path[..., d]

    if parametrization in ("circulant", "patch"):
        if parametrization == "circulant":
            offsets = np.arange(d)
        else:
            if half_width is None:
                raise ValueError("patch parametrization needs half_width")
            if half_width < 0:
                raise ValueError("patch half_width must be >= 0")
            if 2 * half_width + 1 > d:
                raise ValueError("patch must fit in the signal (2r+1 <= N)")
            offsets = np.arange(-half_width, half_width + 1)
        k = len(offsets)
        idx = np.arange(d)[:, None]
        slot = np.full((d, d), k)  # slot[i, j]: the tap on cell (i, j); k off the band
        slot[idx, (idx + offsets) % d] = np.arange(k)
        flat = slot.ravel()
        a_w, c_w = a[:d, :d].copy(), c[:, :d].copy()  # b = 0: only the W blocks enter

        def rhs(_t, taps):
            w = np.append(taps, 0.0)[slot]
            return np.bincount(flat, (w @ a_w - c_w).ravel(), k + 1)[:k]

        path = _solve(rhs, np.asarray(w0, float), tau_grid)
        ws = np.pad(path, ((0, 0), (0, 1)))[:, slot]
        return ws, np.zeros((len(tau_grid), d))

    raise ValueError(f"unknown parametrization {parametrization!r}")


def _solve(rhs, y0, tau_grid, rate: float | None = None):
    """Fixed-step RK4 at the stiffness bound ``rate``, or RK45 when it is None;
    each call of ``rhs`` adds one to ``rhs_evaluations``."""

    def counted(t, y):
        global rhs_evaluations
        rhs_evaluations += 1
        return rhs(t, y)

    if rate is None:
        return rk45_path(counted, y0, tau_grid, rtol=_RTOL, atol=_ATOL)
    return rk4_path(counted, y0, tau_grid, max_rate=rate)


def discrete_gd_full(
    moments: DataMoments,
    s: float,
    eta: float,
    w0: np.ndarray,
    b0: np.ndarray,
    steps: int,
    variant: LossVariant = LossVariant.edm(),
):
    """Plain gradient descent iterates on (W, b); divergence left to the caller."""
    mm = variant_moments(variant, moments, s)
    w, b = np.asarray(w0, float).copy(), np.asarray(b0, float).copy()
    ws, bs = [w.copy()], [b.copy()]
    for _ in range(steps):
        gw, gb = loss_gradients(w, b, mm)
        w = w - eta * gw
        b = b - eta * gb
        ws.append(w.copy())
        bs.append(b.copy())
    return np.stack(ws), np.stack(bs)


def mc_dsm_loss(w, b, moments: DataMoments, sigma: float, n: int, seed: int):
    """Monte Carlo denoising loss E |W(x0 + sigma z) + b - x0|^2.

    Returns (estimate, standard_error).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    evals, evecs = np.linalg.eigh(moments.covariance)
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))
    x0 = moments.mean + rng.standard_normal((n, moments.dim)) @ root.T
    z = rng.standard_normal((n, moments.dim))
    resid = (x0 + sigma * z) @ w.T + b - x0
    per_sample = np.sum(resid**2, axis=1)
    est = float(per_sample.mean())
    sem = float(per_sample.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return est, sem


def dense_dft_diag(sigma_mat: np.ndarray) -> np.ndarray:
    """diag(F* Sigma F) by explicit dense complex products; N <= 512 guard."""
    sigma_mat = np.asarray(sigma_mat, dtype=float)
    n = sigma_mat.shape[0]
    if n > 512:
        raise ValueError("dense DFT oracle is guarded to N <= 512")
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    f = np.exp(-2j * np.pi * j * k / n) / np.sqrt(n)
    return np.diagonal(f.conj().T @ sigma_mat @ f).copy()


def heun_affine_dense(weight_matrix_fn, bias_fn, sigma_grid, x_start: np.ndarray):
    """Heun integration of dx/dsigma = -[(W(s) - I) x + b(s)] / s on dense W."""
    eye = np.eye(np.shape(x_start)[-1])

    def drift(s, xv):
        w = weight_matrix_fn(s)
        b = bias_fn(s) if bias_fn is not None else 0.0
        return -((w - eye) @ xv + b) / s

    return heun(drift, x_start, sigma_grid)
