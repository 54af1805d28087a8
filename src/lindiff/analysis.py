"""Emergence-time extraction and inverse-variance power-law fitting.

A mode's emergence time is the first passage of its generated-variance
trajectory through the geometric (or harmonic) mean of its initial and
target values, interpolated log-linearly between grid points (this
module's choice of interpolation).  Modes whose initial variance is
already within the gray zone of the target are excluded from fits, and
rising/decaying modes are fit separately on (log lambda, log tau*).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EmergenceCriterion",
    "GrayZone",
    "PowerLawFit",
    "InsufficientDataError",
    "emergence_time",
    "power_law_fit",
]

# The kinds of EmergenceCriterion; the config key analysis.criterion reads them too.
CRITERIA = ("geometric", "harmonic")


class InsufficientDataError(ValueError):
    """Fewer than two usable modes survived exclusion."""


@dataclass(frozen=True)
class EmergenceCriterion:
    """Threshold between initial and target values (scalars or broadcasting
    arrays): their geometric or harmonic mean."""

    kind: str = "geometric"

    def __post_init__(self) -> None:
        if self.kind not in CRITERIA:
            raise ValueError(f"criterion kind must be one of {', '.join(CRITERIA)}")

    def threshold(self, v0, v_inf):
        if np.any(v0 <= 0) or np.any(v_inf <= 0):
            raise ValueError("criterion values must be positive")
        if self.kind == "geometric":
            return np.sqrt(v0 * v_inf)
        return 2.0 * v0 * v_inf / (v0 + v_inf)


@dataclass(frozen=True)
class GrayZone:
    """Ratio band around the target within which tau* is unreliable; ``excludes``
    takes scalars or broadcasting arrays."""

    lower: float = 0.5
    upper: float = 2.0

    def __post_init__(self) -> None:
        if not (0 < self.lower < 1 < self.upper):
            raise ValueError("need 0 < lower < 1 < upper")

    def excludes(self, v0, target):
        r = v0 / target
        return (self.lower <= r) & (r <= self.upper)


@dataclass(frozen=True)
class PowerLawFit:
    """tau* ~ const * lambda^(-alpha), fit by least squares in log-log."""

    alpha: float
    intercept: float
    r_squared: float
    n_used: int


def emergence_time(taus, values, v0, v_inf, crit: EmergenceCriterion):
    """First passage of each series through its criterion threshold.

    ``values`` is (..., n_tau) over the 1-D ``taus``, and ``v0`` and
    ``v_inf`` broadcast over its leading axes.  Returns the interpolated
    tau of each series (a scalar for one series), or NaN where the
    threshold is never crossed or v0 == v_inf (degenerate).  A series that
    starts beyond the threshold gives the first grid tau; a multi-crossing
    series gives its FIRST crossing (first-passage semantics).
    """
    taus = np.asarray(taus, float)
    values = np.asarray(values, float)
    if values.shape[-1:] != taus.shape or taus.size < 2:
        raise ValueError("need matching tau/value series of length >= 2")
    v0, v_inf = np.asarray(v0, float)[..., None], np.asarray(v_inf, float)[..., None]
    theta = crit.threshold(v0, v_inf)
    values = np.broadcast_to(values, np.broadcast_shapes(values.shape, theta.shape))
    crossed = np.where(v_inf > v0, values >= theta, values <= theta) & (v0 != v_inf)
    i = np.argmax(crossed, axis=-1)[..., None]  # the first crossing, or 0 for none
    prev = np.maximum(i - 1, 0)
    lo, hi = np.take_along_axis(values, prev, -1), np.take_along_axis(values, i, -1)
    tau0, tau1 = taus[prev], taus[i]
    # interpolate in (ln tau, ln v); fall back to linear where signs prevent logs
    with np.errstate(all="ignore"):
        t = (np.log(theta) - np.log(lo)) / (np.log(hi) - np.log(lo))
        log_tau = np.exp(np.log(tau0) + t * (np.log(tau1) - np.log(tau0)))
        t = (theta - lo) / (hi - lo)
        tau = np.where((lo > 0) & (hi > 0) & (tau0 > 0), log_tau, tau0 + t * (tau1 - tau0))
    tau = np.where(i == 0, taus[0], tau)
    return np.where(crossed.any(axis=-1, keepdims=True), tau, np.nan)[..., 0][()]


def power_law_fit(lambdas, taus, gz: GrayZone, v0s, targets) -> dict[str, PowerLawFit]:
    """Per-branch OLS of ln tau* on ln lambda with gray-zone exclusion.

    Modes with v0/target inside the gray zone, or without a crossing
    (tau* NaN or None), are dropped.  ``v0s`` is one value per mode or one
    for all.  Branches are split by the sign of target - v0; a branch whose
    survivors hold fewer than two distinct eigenvalues raises
    InsufficientDataError naming it.
    """
    lambdas = np.asarray(lambdas, float)
    taus = np.array(taus, float)  # None reads as NaN
    v0s = np.asarray(v0s, float)
    targets = np.asarray(targets, float)

    keep = ~gz.excludes(v0s, targets)
    keep &= np.isfinite(taus) & (taus > 0) & (lambdas > 0)
    if not keep.any():
        raise InsufficientDataError("all modes excluded (branches increasing, decreasing)")

    fits: dict[str, PowerLawFit] = {}
    rising = targets > v0s
    for branch, mask in (("increasing", keep & rising), ("decreasing", keep & ~rising)):
        n = int(mask.sum())
        if n == 0:
            continue
        # counted on the sorted values: np.unique would import numpy.ma
        used = np.sort(lambdas[mask])
        distinct = 1 + np.count_nonzero(used[1:] != used[:-1])
        if distinct < 2:
            raise InsufficientDataError(
                f"branch {branch!r} has {distinct} distinct eigenvalue(s) among {n} usable mode(s), need >= 2"
            )
        fits[branch] = _ols_loglog(lambdas[mask], taus[mask])
    return fits


def _ols_loglog(lam, tau) -> PowerLawFit:
    x, y = np.log(lam), np.log(tau)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return PowerLawFit(-float(slope), float(intercept), r2, len(x))
