"""Closed-form flow-matching training dynamics and sampling integrals.

The one-layer velocity field trains exactly like the denoiser case with
per-mode rate 2 eta (t^2 lam + (1-t)^2) and optimum
(t lam - (1-t)) / (t^2 lam + (1-t)^2).  Sampling t: 0 -> 1 with the
converged field scales mode k by sqrt(t^2 lam + (1-t)^2); during training
the scaling integral evaluates to exponential integrals plus an erf
bracket at every tau > 0.  The two-layer product can only reach optima
that are positive, which splits the time axis at t = 1/(lam + 1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import LossVariant, convergence_rate, optimal_mode_weight
from .special import ein

__all__ = [
    "FmTwoLayerState",
    "fm_one_layer_weight",
    "fm_sampling_converged",
    "fm_generated_variance_ratio",
    "fm_two_layer_weight",
]

def fm_one_layer_weight(tau, t, lam, q, eta):
    """psi(tau) = w* + (Q - w*) e^z with z = -2 eta tau (t^2 lam + (1-t)^2), formed as
    Q e^z - w* expm1(z), as in ``dynamics.one_layer_psi``: no cancellation where psi ~ Q << w*."""
    tau, t, lam, q = np.broadcast_arrays(*(np.asarray(x, float) for x in (tau, t, lam, q)))
    if np.any((t <= 0) | (t > 1)):
        raise ValueError("t must lie in (0, 1]")
    variant = LossVariant.flow_match()
    rate, w_star = convergence_rate(variant, lam, t), optimal_mode_weight(variant, lam, t)
    z = -2.0 * eta * tau * rate
    return q * np.exp(z) - w_star * np.expm1(z)


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

    Approaches 1 as tau -> infinity.  Where 2 eta tau/(lam+1) is below the
    smallest normal double (tau = 0, or underflow) it returns the limit
    e^(2Q)/lam: there the tau^-1/2 prefactor overflows against erf ~ tau^1/2.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    x = 2.0 * eta * tau
    if x / (lam + 1.0) < sys.float_info.min:
        return math.exp(2.0 * q) / lam
    ei_term = ein(x * lam) - ein(x) - math.log(lam)  # Ei(-x) - Ei(-x lam), without gamma + ln x
    arg = math.sqrt(x / (lam + 1.0))
    bracket = math.erf(arg) + math.erf(lam * arg)
    pref = math.sqrt(math.pi / (x * (lam + 1.0))) * q * math.exp(-x * lam / (lam + 1.0))
    return math.exp(ei_term + pref * bracket)


@dataclass(frozen=True)
class FmTwoLayerState:
    """Weight value plus whether the optimum is reachable at this t."""

    value: float
    attainable: bool


def fm_two_layer_weight(tau: float, t: float, lam: float, q: float, eta: float) -> FmTwoLayerState:
    """Two-layer flow-matching mode weight |q_k|^2 at training time tau.

    With a = 8 eta (t lam - (1-t)) and b = 8 eta (t^2 lam + (1-t)^2) the
    weight solves dpsi/dtau = (a - b psi) psi, the symmetric-product
    gradient flow W = P P^T on the flow-matching loss (the 8 eta tau clock
    of ``dynamics.two_layer_psi``).  With E = e^(-|a| tau) and
    g = (1 - E)/|a| (tau at a = 0) it is Q / (E + Q b g) for a >= 0 and
    Q E / (1 + Q b g) for a < 0, so nothing overflows.  For t > 1/(lam+1)
    the trajectory converges to Q* = a/b; for t < 1/(lam+1) the optimum is
    negative and unreachable by a squared norm, so the weight decays to 0
    (reported via ``attainable``).  At t = 1/(lam+1) it is the algebraic
    decay Q / (1 + b Q tau).
    """
    if q <= 0:
        raise ValueError("Q must be positive (zero is a fixed point)")
    if not (0 < t <= 1):
        raise ValueError("t must lie in (0, 1]")
    a = 8.0 * eta * (t * lam - (1.0 - t))
    b = 8.0 * eta * (t * t * lam + (1.0 - t) ** 2)
    decay = math.exp(-abs(a) * tau)
    grown = -math.expm1(-abs(a) * tau) / abs(a) if a else tau
    value = q / (decay + q * b * grown) if a >= 0 else q * decay / (1.0 + q * b * grown)
    return FmTwoLayerState(value, a > 0)
