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


class InsufficientDataError(ValueError):
    """Fewer than two usable modes survived exclusion."""


@dataclass(frozen=True)
class EmergenceCriterion:
    """Threshold between initial and target value: geometric or harmonic mean."""

    kind: str = "geometric"

    def __post_init__(self) -> None:
        if self.kind not in ("geometric", "harmonic"):
            raise ValueError("criterion kind must be 'geometric' or 'harmonic'")

    def threshold(self, v0: float, v_inf: float) -> float:
        if v0 <= 0 or v_inf <= 0:
            raise ValueError("criterion values must be positive")
        if self.kind == "geometric":
            return float(np.sqrt(v0 * v_inf))
        return 2.0 * v0 * v_inf / (v0 + v_inf)


@dataclass(frozen=True)
class GrayZone:
    """Ratio band around the target within which tau* is unreliable."""

    lower: float = 0.5
    upper: float = 2.0

    def __post_init__(self) -> None:
        if not (0 < self.lower < 1 < self.upper):
            raise ValueError("need 0 < lower < 1 < upper")

    def excludes(self, v0: float, target: float) -> bool:
        r = v0 / target
        return self.lower <= r <= self.upper


@dataclass(frozen=True)
class PowerLawFit:
    """tau* ~ const * lambda^(-alpha), fit by least squares in log-log."""

    alpha: float
    intercept: float
    r_squared: float
    n_used: int
    branch: str  # 'increasing' | 'decreasing' | 'pooled'


def emergence_time(taus, values, v0: float, v_inf: float, crit: EmergenceCriterion):
    """First passage of the series through the criterion threshold.

    Returns the interpolated tau, or None when the threshold is never
    crossed or v0 == v_inf (degenerate).  A series that starts beyond the
    threshold returns the first grid tau.  Multi-crossing series return
    the FIRST crossing (first-passage semantics).
    """
    taus = np.asarray(taus, float)
    values = np.asarray(values, float)
    if taus.shape != values.shape or taus.size < 2:
        raise ValueError("need matching tau/value series of length >= 2")
    if v0 == v_inf:
        return None
    theta = crit.threshold(v0, v_inf)
    rising = v_inf > v0
    crossed = values >= theta if rising else values <= theta
    if not crossed.any():
        return None
    i = int(np.argmax(crossed))
    if i == 0:
        return float(taus[0])
    lo, hi = values[i - 1], values[i]
    # interpolate in (ln tau, ln v); fall back to linear if signs prevent logs
    if lo > 0 and hi > 0 and taus[i - 1] > 0:
        t = (np.log(theta) - np.log(lo)) / (np.log(hi) - np.log(lo))
        return float(np.exp(np.log(taus[i - 1]) + t * (np.log(taus[i]) - np.log(taus[i - 1]))))
    t = (theta - lo) / (hi - lo)
    return float(taus[i - 1] + t * (taus[i] - taus[i - 1]))


def power_law_fit(lambdas, taus, gz: GrayZone, v0s, targets) -> dict[str, PowerLawFit]:
    """Per-branch OLS of ln tau* on ln lambda with gray-zone exclusion.

    Modes with v0/target inside the gray zone, or without a crossing
    (tau* None/nan), are dropped.  Branches are split by the sign of
    target - v0; a branch whose survivors hold fewer than two distinct
    eigenvalues raises InsufficientDataError naming it.
    """
    lambdas = np.asarray(lambdas, float)
    taus = np.array([np.nan if t is None else float(t) for t in taus])
    v0s = np.asarray(v0s, float)
    targets = np.asarray(targets, float)

    keep = ~np.array([gz.excludes(v, t) for v, t in zip(v0s, targets)])
    keep &= np.isfinite(taus) & (taus > 0) & (lambdas > 0)
    if not keep.any():
        raise InsufficientDataError("all modes excluded (branches increasing, decreasing)")

    fits: dict[str, PowerLawFit] = {}
    rising = targets > v0s
    for branch, mask in (("increasing", keep & rising), ("decreasing", keep & ~rising)):
        n = int(mask.sum())
        if n == 0:
            continue
        distinct = np.unique(lambdas[mask]).size
        if distinct < 2:
            raise InsufficientDataError(
                f"branch {branch!r} has {distinct} distinct eigenvalue(s) among {n} usable mode(s), need >= 2"
            )
        fits[branch] = _ols_loglog(lambdas[mask], taus[mask], branch)
    return fits


def _ols_loglog(lam, tau, branch: str) -> PowerLawFit:
    x, y = np.log(lam), np.log(tau)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return PowerLawFit(-float(slope), float(intercept), r2, len(x), branch)
