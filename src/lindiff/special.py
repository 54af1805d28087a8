"""Exponential integral Ei at double precision.

The closed-form sampling trajectories need Ei on the negative real axis
(arguments of the form -2*eta*tau*sigma^2).  Target accuracy is 1e-12
relative on the negative axis, which is what the downstream formulas
require, and a combined absolute/relative 1e-12 on the positive axis.

Ei is evaluated by the standard three-regime split:

* power series  Ei(x) = gamma + ln|x| + sum_n x^n / (n * n!)
  on -2 <= x < 0 and 0 < x <= 40 (all-positive terms for x > 0, mild
  alternating cancellation on the negative side, summed with fsum);
* continued fraction for E1(-x) (modified Lentz) for x < -2, using
  Ei(x) = -E1(-x);
* divergent asymptotic series e^x/x * sum_n n!/x^n, truncated at the
  smallest term, for x > 40 (no continued fraction exists on the
  positive axis; the series/CF crossover at |x| = 2 applies to the
  negative axis only).
The alternating series cancels to about 1e-11 relative on [-6, -3]; past
|x| = 2 the continued fraction converges in at most 53 steps.
"""

from __future__ import annotations

import math

__all__ = ["expint_ei", "EULER_GAMMA"]

EULER_GAMMA = 0.57721566490153286060651209008240243


# Termination control for the series / continued-fraction loops.
_ABS_TOL = 1e-17
_REL_TOL = 1e-16
_MAX_TERMS = 500

# Negative-axis series/continued-fraction crossover.
_CF_CROSSOVER = 2.0
# Positive-axis series/asymptotic crossover.
_ASYMPTOTIC_CROSSOVER = 40.0


def _ei_series(x: float) -> float:
    """Power series around 0; valid for any x != 0, used for |x| moderate."""
    terms = []
    p = 1.0
    run = 0.0
    for n in range(1, _MAX_TERMS + 1):
        p *= x / n
        t = p / n
        terms.append(t)
        run += t
        if n > abs(x) and abs(t) <= _ABS_TOL + _REL_TOL * abs(run):
            break
    return EULER_GAMMA + math.log(abs(x)) + math.fsum(terms)


def _e1_continued_fraction(x: float) -> float:
    """E1(x) for x > 0 via the modified Lentz continued fraction.

    E1(x) = e^-x / (x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...)))
    """
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS + 1):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _REL_TOL:
            break
    return math.exp(-x) * h


def _ei_asymptotic(x: float) -> float:
    """Asymptotic series e^x/x * (1 + 1!/x + 2!/x^2 + ...), x large."""
    s = 1.0
    t = 1.0
    for n in range(1, _MAX_TERMS + 1):
        t_next = t * n / x
        if t_next >= t:
            break  # past the smallest term of the divergent series
        t = t_next
        s += t
        if t <= _REL_TOL * s:
            break
    # e^x alone overflows before e^x/x * s does only marginally; split safely.
    return math.exp(x - math.log(x)) * s


def expint_ei(x: float) -> float:
    """Exponential integral Ei(x) for real x != 0.

    Raises ValueError at x = 0 (logarithmic singularity).  Ei(x) -> 0-
    as x -> -inf and grows like e^x/x as x -> +inf.
    """
    x = float(x)
    if x == 0.0:
        raise ValueError("Ei has a logarithmic singularity at x = 0")
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        if x < -745.0:
            return -0.0  # |Ei(x)| < e^x underflows
        if x < -_CF_CROSSOVER:
            return -_e1_continued_fraction(-x)
        return _ei_series(x)
    if x <= _ASYMPTOTIC_CROSSOVER:
        return _ei_series(x)
    if x > 716.0:
        return math.inf  # e^x/x overflows double precision
    return _ei_asymptotic(x)
