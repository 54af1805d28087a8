"""Gaussian data models: covariance construction, sampling, empirical moments.

Everything downstream works in the eigenbasis of the data covariance
Sigma = U diag(lambda) U^T, so the central object is a CovarianceModel
holding an orthonormal basis and a descending spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import os
import warnings

import numpy as np

__all__ = [
    "CovarianceModel",
    "DataMoments",
    "SpectrumSpec",
    "make_covariance",
    "sample_gaussian",
    "empirical_moments",
    "project_variances",
    "read_samples",
]

_ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class CovarianceModel:
    """Ground-truth covariance as orthonormal basis + descending spectrum."""

    dim: int
    basis: np.ndarray  # (d, d), columns are eigenvectors u_k
    spectrum: np.ndarray  # (d,), lambda_k >= 0, descending

    def __post_init__(self) -> None:
        basis = np.asarray(self.basis, dtype=float)
        spectrum = np.asarray(self.spectrum, dtype=float)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "spectrum", spectrum)
        if self.dim < 1 or basis.shape != (self.dim, self.dim):
            raise ValueError("basis must be a dim x dim matrix")
        if spectrum.shape != (self.dim,):
            raise ValueError("spectrum must have length dim")
        gram = basis.T @ basis
        if np.max(np.abs(gram - np.eye(self.dim))) > 1e-10:
            raise ValueError("basis columns are not orthonormal")
        if np.any(spectrum < 0):
            raise ValueError("eigenvalues must be nonnegative")
        if np.any(np.diff(spectrum) > 1e-15):
            raise ValueError("spectrum must be sorted descending")

    def covariance(self) -> np.ndarray:
        """Dense Sigma = U diag(lambda) U^T."""
        return (self.basis * self.spectrum) @ self.basis.T


@dataclass(frozen=True)
class DataMoments:
    """First two moments of a dataset; all a linear denoiser can see."""

    mean: np.ndarray  # (d,)
    covariance: np.ndarray  # (d, d) symmetric PSD

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ValueError("covariance shape does not match mean")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean and covariance must be finite")
        if np.max(np.abs(cov - cov.T)) > _ORTHO_TOL * max(1.0, np.max(np.abs(cov))):
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() < -1e-10:
            raise ValueError("covariance must be PSD to numerical tolerance")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def eigenmodel(self) -> CovarianceModel:
        """Eigendecompose into a CovarianceModel (descending, sign-fixed).

        Eigenvalues below max(evals) * dim * eps, the rank tolerance of
        np.linalg.matrix_rank, are round-off of a rank-deficient covariance
        and are set to zero.
        """
        evals, evecs = np.linalg.eigh(self.covariance)
        order = np.argsort(evals)[::-1]
        evals = evals[order]
        evals[evals < evals[0] * self.dim * np.finfo(float).eps] = 0.0
        evecs = _fix_signs(evecs[:, order])
        return CovarianceModel(self.dim, evecs, evals)


@dataclass(frozen=True)
class SpectrumSpec:
    """Synthetic spectrum recipe.

    kind: 'log-normal' (params: mu, sd of the underlying normal; defaults
    to the standard normal exponent), 'log-spaced' (params: lo, hi), or
    'explicit' (params: values).
    """

    kind: str
    params: dict = field(default_factory=dict)
    normalize_mean_to_one: bool = False

    _KINDS = ("log-normal", "log-spaced", "explicit")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown spectrum kind {self.kind!r}")

    def generate(self, dim: int, rng: np.random.Generator) -> np.ndarray:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind == "log-normal":
            mu = float(self.params.get("mu", 0.0))
            sd = float(self.params.get("sd", 1.0))
            if sd <= 0:
                raise ValueError("log-normal sd must be positive")
            lam = np.exp(mu + sd * rng.standard_normal(dim))
        elif self.kind == "log-spaced":
            lo = float(self.params["lo"])
            hi = float(self.params["hi"])
            if lo <= 0 or hi <= 0:
                raise ValueError("log-spaced bounds must be positive")
            lam = np.geomspace(max(lo, hi), min(lo, hi), dim)
        else:
            lam = np.asarray(self.params["values"], dtype=float)
            if lam.shape != (dim,):
                raise ValueError("explicit spectrum length must equal dim")
            if np.any(lam <= 0):
                raise ValueError("explicit spectrum must be strictly positive")
        lam = np.sort(lam)[::-1]
        if self.normalize_mean_to_one:
            lam = lam / lam.mean()
        return lam


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[idx, np.arange(basis.shape[1])])
    signs[signs == 0] = 1.0
    return basis * signs


def make_covariance(spec: SpectrumSpec, dim: int, seed: int) -> CovarianceModel:
    """Random orthonormal basis (QR of an i.i.d. normal matrix) + spectrum."""
    rng = np.random.default_rng(seed)
    lam = spec.generate(dim, rng)
    a = rng.standard_normal((dim, dim))
    return CovarianceModel(dim, _fix_signs(np.linalg.qr(a)[0]), lam)


def sample_gaussian(
    model: CovarianceModel, mean: np.ndarray, n: int, seed: int
) -> np.ndarray:
    """n i.i.d. draws from N(mean, U diag(lambda) U^T), one per row."""
    if n < 1:
        raise ValueError("n must be >= 1")
    mean = np.broadcast_to(np.asarray(mean, dtype=float), (model.dim,))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, model.dim))
    return mean + (z * np.sqrt(model.spectrum)) @ model.basis.T


def empirical_moments(samples: np.ndarray) -> DataMoments:
    """Sample mean and unbiased (n-1) covariance, symmetrized."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need at least two samples to estimate moments")
    bad = samples.size - np.count_nonzero(np.isfinite(samples))
    if bad:
        raise ValueError(f"{bad} of {samples.size} sample values are not finite")
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / (samples.shape[0] - 1)
    cov = 0.5 * (cov + cov.T)
    return DataMoments(mean, cov)


def project_variances(sigma_hat: np.ndarray, model: CovarianceModel) -> np.ndarray:
    """Per-mode variances u_k^T Sigma_hat u_k of a covariance estimate."""
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    if sigma_hat.shape != (model.dim, model.dim):
        raise ValueError("shape mismatch between matrix and model")
    return np.einsum("ik,ij,jk->k", model.basis, sigma_hat, model.basis)


def read_samples(path: str) -> np.ndarray:
    """Read a sample matrix from CSV or the raw binary format.

    Binary files start with a one-line JSON header {"rows": n, "cols": d}
    terminated by a newline, followed by exactly rows*cols little-endian
    float64 values; n and d must be JSON integers.  Anything else is parsed
    as headerless CSV, one sample per row.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        try:
            meta = json.loads(head.decode("ascii"))
            # TypeError unless meta is an object: a one-column CSV's "1" is JSON too
            rows, cols = meta["rows"], meta["cols"]
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            with warnings.catch_warnings():
                # an empty file reads as zero samples, which empirical_moments rejects
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                return np.loadtxt(path, delimiter=",", ndmin=2)
        # bool is an int subclass, so JSON true would pass isinstance(_, int)
        if not all(type(n) is int and n >= 0 for n in (rows, cols)):
            raise ValueError(f"binary header needs integer rows and cols >= 0, got {rows!r} and {cols!r} in {path}")
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != 8 * rows * cols:
            raise ValueError(f"binary payload holds {size} bytes, header says {rows}*{cols} float64 values in {path}")
        return np.fromfile(fh, dtype="<f8", count=rows * cols).reshape(rows, cols)
