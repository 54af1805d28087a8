"""Closed-form flow-matching training dynamics and sampling integrals.

The one-layer velocity field trains exactly like the denoiser case with
per-mode rate 2 eta (t^2 lam + (1-t)^2) and optimum
(t lam - (1-t)) / (t^2 lam + (1-t)^2).  Sampling t: 0 -> 1 with the
converged field scales mode k by sqrt(t^2 lam + (1-t)^2); during training
the scaling integral evaluates to exponential integrals plus an erf
bracket.  The two-layer product can only reach optima that are positive,
which splits the time axis at t = 1/(lam + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import LossVariant, convergence_rate, optimal_mode_weight
from .special import expint_ei

__all__ = [
    "FmTwoLayerState",
    "fm_one_layer_weight",
    "fm_sampling_converged",
    "fm_generated_variance_ratio",
    "fm_two_layer_weight",
]

# Below this value of 2 eta tau / (lam + 1) the erf bracket is evaluated
# by its small-argument limit (the tau^-1/2 prefactor times erf ~ tau^1/2
# is finite; the series avoids 0 * inf at tau -> 0).
_SERIES_CROSSOVER = 1e-8


def fm_one_layer_weight(tau, t, lam, q, eta):
    """psi(tau) = w* + (Q - w*) exp(-2 eta tau (t^2 lam + (1-t)^2))."""
    tau, t, lam, q = np.broadcast_arrays(
        np.asarray(tau, float), np.asarray(t, float), np.asarray(lam, float), np.asarray(q, float)
    )
    if np.any((t <= 0) | (t > 1)):
        raise ValueError("t must lie in (0, 1]")
    variant = LossVariant.flow_match()
    rate, w_star = convergence_rate(variant, lam, t), optimal_mode_weight(variant, lam, t)
    return w_star + (q - w_star) * np.exp(-2.0 * eta * tau * rate)


def fm_sampling_converged(lam, t):
    """Mode scaling c(t)/c(0) = sqrt(t^2 lam + (1-t)^2) of the optimal flow."""
    lam = np.asarray(lam, float)
    t = np.asarray(t, float)
    if np.any(lam < 0):
        raise ValueError("lam must be nonnegative")
    return np.sqrt(t * t * lam + (1.0 - t) ** 2)


def fm_generated_variance_ratio(tau: float, lam: float, q: float, eta: float) -> float:
    """Generated-to-target variance ratio of one mode at training time tau.

    ratio = exp[ Ei(-2 eta tau) - Ei(-2 eta tau lam)
                 + sqrt(pi / (2 eta tau (lam+1))) Q e^(-2 eta tau lam/(lam+1))
                   (erf(sqrt(2 eta tau/(lam+1))) + erf(lam sqrt(2 eta tau/(lam+1)))) ]

    Approaches e^(2Q)/lam as tau -> 0 and 1 as tau -> infinity.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    x = 2.0 * eta * tau
    if x / (lam + 1.0) < _SERIES_CROSSOVER:
        # erf bracket -> 2Q, Ei difference -> -log(lam)
        return math.exp(2.0 * q) / lam
    ei_term = expint_ei(-x) - expint_ei(-x * lam)
    arg = math.sqrt(x / (lam + 1.0))
    bracket = math.erf(arg) + math.erf(lam * arg)
    pref = math.sqrt(math.pi / (x * (lam + 1.0))) * q * math.exp(-x * lam / (lam + 1.0))
    return math.exp(ei_term + pref * bracket)


@dataclass(frozen=True)
class FmTwoLayerState:
    """Weight value plus whether the optimum is reachable at this t."""

    value: float
    attainable: bool
    target: float


def fm_two_layer_weight(tau: float, t: float, lam: float, q: float, eta: float) -> FmTwoLayerState:
    """Two-layer flow-matching mode weight |q_k|^2 at training time tau.

    psi(tau) = Q* Q / (Q + (Q* - Q) e^(-4 eta tau (t lam - (1-t)))) with
    Q* = (t lam - (1-t)) / (t^2 lam + (1-t)^2).  For t > 1/(lam+1) the
    trajectory converges to Q*; for t < 1/(lam+1) the optimum is negative
    and unreachable by a squared norm, so the weight decays to 0 (reported
    via ``attainable``).  At t = 1/(lam+1) the limit is the algebraic
    decay Q / (1 + B Q tau).
    """
    if q <= 0:
        raise ValueError("Q must be positive (zero is a fixed point)")
    if not (0 < t <= 1):
        raise ValueError("t must lie in (0, 1]")
    a = 4.0 * eta * (t * lam - (1.0 - t))
    b = 4.0 * eta * (t * t * lam + (1.0 - t) ** 2)
    q_star = a / b
    attainable = a > 0
    if abs(a) * max(tau, 1.0) < 1e-14:
        value = q / (1.0 + b * q * tau)
    elif -a * tau > 700.0:
        value = 0.0  # exponential blow-down underflows
    else:
        value = q_star * q / (q + (q_star - q) * math.exp(-a * tau))
    return FmTwoLayerState(value, attainable, q_star if attainable else 0.0)
