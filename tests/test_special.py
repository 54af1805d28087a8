"""Exponential integral and error function against independent series oracles.

The oracles sum the defining power series in 60-digit mpmath arithmetic,
so they share no code (and no precision limits) with the implementation.
"""

import math
from math import erf  # the erf that flow_matching calls

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from lindiff.special import EULER_GAMMA, _e1_continued_fraction, ein, expint_ei

mp.mp.dps = 60


def ei_series_oracle(x: float) -> float:
    """Ei(x) = gamma + ln|x| + sum_n x^n / (n n!), summed exactly."""
    xm = mp.mpf(x)
    total = mp.euler + mp.log(abs(xm))
    term = mp.mpf(1)
    for n in range(1, 400):
        term *= xm / n
        total += term / n
        if abs(term) < mp.mpf(10) ** (-45) and n > abs(x):
            break
    return float(total)


def ein_series_oracle(x: float) -> mp.mpf:
    """Ein(x) = sum_n (-1)^(n+1) x^n / (n n!), summed exactly."""
    xm = mp.mpf(x)
    total = mp.mpf(0)
    term = mp.mpf(-1)
    for n in range(1, 400):
        term *= -xm / n
        total += term / n
        if abs(term) < mp.mpf(10) ** (-45) * abs(total) and n > abs(x):
            break
    return total


def erf_series_oracle(x: float) -> float:
    """Maclaurin series (2/sqrt(pi)) sum_n (-1)^n x^(2n+1) / (n! (2n+1))."""
    xm = mp.mpf(x)
    total = mp.mpf(0)
    term = xm
    for n in range(0, 300):
        total += term / (2 * n + 1)
        term *= -xm * xm / (n + 1)
        if abs(term) < mp.mpf(10) ** (-45):
            break
    return float(2 / mp.sqrt(mp.pi) * total)


def combined_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(b))


class TestExpintEi:
    def test_series_oracle_200_points(self):
        for x in -np.geomspace(1e-3, 60.0, 100):
            assert combined_close(expint_ei(float(x)), ei_series_oracle(float(x)))

    def test_negative_axis_relative_to_mpmath(self):
        # |Ei| < 1 past x = -0.38, so the combined tolerance above is absolute
        # there; the sampler needs Ei to 1e-12 of its own size
        xs = -np.geomspace(1e-12, 700.0, 400)
        worst = max(abs(expint_ei(float(x)) / float(mp.ei(x)) - 1.0) for x in xs)
        assert worst < 1e-12

    def test_reference_values(self):
        assert combined_close(expint_ei(-1.0), -0.21938393439552026)

    def test_far_negative_magnitude_bound(self):
        # |Ei(x)| < e^x / |x| for x < 0
        assert abs(expint_ei(-50.0)) < math.exp(-50.0) / 50.0
        assert abs(expint_ei(-50.0)) < 1e-20

    def test_zero_is_domain_error(self):
        with pytest.raises(ValueError):
            expint_ei(0.0)

    @pytest.mark.parametrize("x", [1.0, math.nan])
    def test_positive_axis_and_nan_are_domain_errors(self, x):
        with pytest.raises(ValueError):
            expint_ei(x)

    def test_limit_to_minus_infinity(self):
        assert expint_ei(-800.0) == 0.0

    def test_derivative_identity(self):
        # d/dx Ei(x) = e^x / x by central differences
        for x in np.linspace(-10, -0.1, 25):
            h = 1e-6 * max(1.0, abs(x))
            fd = (expint_ei(x + h) - expint_ei(x - h)) / (2 * h)
            exact = math.exp(x) / x
            assert abs(fd - exact) <= 1e-6 * abs(exact)

    @pytest.mark.parametrize("x", [2.146580129740876, 2.3709882378242617])
    def test_continued_fraction_past_53_steps_matches_mpmath(self, x):
        # the Lentz loop stops on the first delta of exactly 1.0: 68 and 87 steps here
        assert abs(_e1_continued_fraction(x) / float(mp.e1(x)) - 1.0) < 1e-14

    def test_continued_fraction_stop_test_accepts_only_one(self):
        # delta == 1.0 accepts what |delta - 1| < 1e-16 accepts: the doubles next to 1 are farther off
        assert 1.0 - math.nextafter(1.0, 0.0) > 1e-16 and math.nextafter(1.0, 2.0) - 1.0 > 1e-16

    def test_continued_fraction_matches_series_at_crossover(self):
        # both representations are accurate near the crossover |x| = 2 and beyond
        for x in (-1.999, -2.0, -2.001, -5.999, -6.001, -6.5, -7.0):
            assert combined_close(expint_ei(x), ei_series_oracle(x))


class TestEin:
    def test_series_oracle_400_points(self):
        xs = np.geomspace(1e-300, 2.0, 400)
        worst = max(float(abs(ein(float(x)) / ein_series_oracle(float(x)) - 1)) for x in xs)
        assert worst < 1e-14

    def test_log_plus_e1_beyond_the_series(self):
        xs = np.geomspace(2.0, 1e4, 400)
        worst = max(float(abs(ein(float(x)) / (mp.euler + mp.log(x) + mp.e1(x)) - 1)) for x in xs)
        assert worst < 1e-12


class TestErf:
    def test_series_oracle_200_points(self):
        for x in np.linspace(-6, 6, 200):
            assert combined_close(erf(float(x)), erf_series_oracle(float(x)))

    def test_reference_values(self):
        assert erf(0.0) == 0.0
        assert combined_close(erf(1.0), 0.8427007929497149)

    @given(st.floats(-30, 30, allow_nan=False))
    def test_odd_function(self, x):
        assert erf(-x) == -erf(x)

    def test_saturation(self):
        assert abs(erf(8.0) - 1.0) < 1e-12
        assert abs(erf(-8.0) + 1.0) < 1e-12

    def test_derivative_identity(self):
        for x in np.linspace(-3, 3, 50):
            h = 1e-6
            fd = (erf(x + h) - erf(x - h)) / (2 * h)
            exact = 2.0 / math.sqrt(math.pi) * math.exp(-x * x)
            assert abs(fd - exact) <= 1e-6 * abs(exact)


def test_euler_gamma_constant():
    assert abs(EULER_GAMMA - float(mp.euler)) < 1e-16
