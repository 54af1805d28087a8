"""Every per-mode closed form against mpmath, over the accepted config space.

Cells are drawn inside the ``ExperimentConfig`` bounds: schedule endpoints in
[1e-50, 1e50], Q with a tau = 0 variance in [1e-150, 1e150] (and Q > 0 for two
layers), lambda = 0 or in [1e-12, 1e12], and tau = 0 or set by x = 2 eta tau
sigma_min^2 from below the smallest double to deep in the late regime.  The
references are the same closed forms evaluated in 50-digit arithmetic.
"""

import math
import sys
import warnings

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lindiff.dynamics import LossVariant, convergence_rate, one_layer_psi, optimal_mode_weight, two_layer_psi
from lindiff.experiment import SIGMA_LOG10_BOUND, V0_LOG10_BOUND
from lindiff.flow_matching import fm_generated_variance_ratio, fm_one_layer_weight, fm_two_layer_weight
from lindiff.sampler import NoiseSchedule, PhiFactor, generated_variance

SETTINGS = settings(max_examples=150, derandomize=True, deadline=None)
DPS = 50
# relative errors are taken against at least the smallest normal double: a reference
# below it rounds to a denormal or to 0
TINY = sys.float_info.min


@st.composite
def cells(draw):
    """(arch, lam, q, eta, tau, sigma_min, sigma_max) inside the config bounds."""
    arch = draw(st.sampled_from(["one-layer", "two-layer"]))
    lo = draw(st.floats(-SIGMA_LOG10_BOUND, SIGMA_LOG10_BOUND - 0.01))
    hi = min(lo + draw(st.floats(0.01, 2 * SIGMA_LOG10_BOUND)), SIGMA_LOG10_BOUND)
    s0, s_t = 10.0**lo, 10.0**hi
    # the config's tau = 0 variance bound, solved for Q
    log_t, log_ratio = 2.0 * math.log10(s_t), 2.0 * math.log10(s0 / s_t)
    q_lo, q_hi = sorted(1.0 + (sign * V0_LOG10_BOUND + log_t) / log_ratio for sign in (1, -1))
    if arch == "two-layer":
        q_lo = max(q_lo, 0.0)
    q = q_lo + draw(st.floats(0.0, 1.0)) * (q_hi - q_lo)
    q = draw(st.sampled_from([q, min(max(0.1, q_lo), q_hi)]))
    assume(arch == "one-layer" or q > 0)
    lam = draw(st.one_of(st.just(0.0), st.floats(-12, 12).map(lambda e: 10.0**e)))
    eta = 10.0 ** draw(st.floats(-3, 3))
    # log10 of x = 2 eta tau sigma_min^2: underflow, early, transition, late
    log_x = draw(st.one_of(st.floats(-345, -308), st.floats(-308, -4), st.floats(-4, 1.5), st.floats(1.5, 6)))
    log_tau = log_x - math.log10(2.0 * eta) - 2.0 * lo
    tau = 0.0 if draw(st.booleans()) and draw(st.booleans()) else 10.0 ** min(log_tau, 300.0)
    return arch, lam, q, eta, tau, s0, s_t


def log_phi_ratio_mp(arch, lam, q, eta, tau, a, b):
    """ln Phi(a)/Phi(b) of ``sampler.log_phi_ratio`` in mpmath."""
    lam, q, eta, tau, a, b = map(mp.mpf, (lam, q, eta, tau, a, b))
    if arch == "two-layer":
        decay = mp.exp(-8 * eta * tau * lam)
        grown = -mp.expm1(-8 * eta * tau * lam) / lam if lam else 8 * eta * tau
        c = (1 - q) * decay / (q * lam * grown + decay)
        bracket = lambda s: decay + q * grown * (lam + s * s)
        return c * mp.log(a / b) + (1 - c) / 2 * mp.log(bracket(a) / bracket(b))
    if tau == 0:
        return (1 - q) * mp.log(a / b)
    x_a, x_b, u = 2 * eta * tau * a * a, 2 * eta * tau * b * b, 2 * eta * tau * lam
    return (
        mp.log((lam + a * a) / (lam + b * b)) / 2
        + (1 - q) / 2 * mp.exp(-u) * (mp.ei(-x_a) - mp.ei(-x_b))
        - (mp.ei(-x_a - u) - mp.ei(-x_b - u)) / 2
    )


@SETTINGS
@given(cells())
@example(("one-layer", 5549.0, 4.66, 1.3, 1.26e-6, 4.9e-5, 4.2e-4))  # off by 0.33 under the old early asymptote
@example(("one-layer", 1e12, 0.1, 1.0, 1e-17, 0.002, 80.0))
@example(("two-layer", 0.0, 0.1, 1.0, 10.0, 0.002, 80.0))
@example(("one-layer", 0.7, 0.1, 1.0, 0.0, 0.002, 80.0))
@example(("one-layer", 0.7, 0.1, 1.0, 1e-320, 0.002, 80.0))  # x = 2 eta tau sigma_min^2 underflows to 0
@example(("one-layer", 23974.58, 3.17, 0.00663, 4.336e-271, 3.288e-26, 340.11))  # x is a denormal
@example(("one-layer", 0.7, 0.1, 1.0, 1e8, 0.002, 80.0))
def test_generated_variance_and_psi_match_mpmath(cell):
    arch, lam, q, eta, tau, s0, s_t = cell
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = generated_variance(PhiFactor(arch, lam, q, eta, tau), NoiseSchedule(s0, s_t))
        psi = one_layer_psi if arch == "one-layer" else two_layer_psi
        weights = [(s, psi(lam, s, q, eta, tau)) for s in (s0, math.sqrt(s0 * s_t), s_t)]
    with mp.workdps(DPS):
        ref = mp.mpf(s_t) ** 2 * mp.exp(2 * log_phi_ratio_mp(arch, lam, q, eta, tau, s0, s_t))
        # d ln lambda_gen / d ln sigma is 2 (1 - psi) at sigma_min and 2 psi at sigma_max, and psi
        # lies between Q and w*: rounding the endpoints alone moves lambda_gen by this factor times eps
        condition = max(1.0, abs(q), abs(1.0 - q))
        assert float(abs(got / ref - 1)) < 1e-12 * condition, (got, ref)
        for s, val in weights:
            lam_m, s2, q_m, rate = mp.mpf(lam), mp.mpf(s) ** 2, mp.mpf(q), mp.mpf(eta) * mp.mpf(tau)
            w_star = lam_m / (lam_m + s2)
            if arch == "two-layer":
                # the logistic Q w* / (Q + (w* - Q) E), with Q (1 - E) from expm1
                z = 8 * rate * lam_m
                den = w_star * mp.exp(-z) - q_m * mp.expm1(-z)
                ref_psi = q_m * w_star / den if lam else q_m / (1 + 8 * rate * q_m * s2)
                assert float(abs(val - ref_psi) / max(ref_psi, TINY)) < 1e-12, (s, val, ref_psi)
            else:
                decay = mp.exp(-2 * rate * (s2 + lam_m))
                ref_psi = w_star + (q_m - w_star) * decay
                # relative to the terms w* and (Q - w*) e^(-z), which cancel where psi crosses zero
                scale = abs(w_star) + abs(q_m - w_star) * decay
                assert float(abs(val - ref_psi) / max(scale, TINY)) < 1e-12, (s, val, ref_psi)


@SETTINGS
@given(
    st.one_of(st.just(0.0), st.floats(-330, 8).map(lambda e: 10.0**e)),
    st.floats(-6, 6).map(lambda e: 10.0**e),
    st.floats(-2.0, 2.0),
    st.floats(-3, 3).map(lambda e: 10.0**e),
)
@example(0.0, 2.0, 0.3, 1.0)
@example(1e-312, 3.0, -1.0, 1.0)  # 2 eta tau / (lam + 1) is a denormal: the prefactor would overflow
# 0.94 off under the old series crossover
@example(2.970131130788736e-05, 169568.04168036245, -0.8420089589638486, 0.38396182017132285)
def test_fm_generated_variance_ratio_matches_mpmath(tau, lam, q, eta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fm_generated_variance_ratio(tau, lam, q, eta)
    with mp.workdps(DPS):
        lam_m, q_m = mp.mpf(lam), mp.mpf(q)
        if tau == 0:
            ref = mp.exp(2 * q_m) / lam_m
        else:
            x = 2 * mp.mpf(eta) * mp.mpf(tau)
            arg = mp.sqrt(x / (lam_m + 1))
            pref = mp.sqrt(mp.pi / (x * (lam_m + 1))) * q_m * mp.exp(-x * lam_m / (lam_m + 1))
            ref = mp.exp(mp.ei(-x) - mp.ei(-x * lam_m) + pref * (mp.erf(arg) + mp.erf(lam_m * arg)))
        assert float(abs(got / ref - 1)) < 1e-12, (got, ref)


@SETTINGS
@given(
    st.floats(-3, 3).map(lambda e: 10.0**e),
    st.one_of(st.floats(-16, -0.5).map(lambda e: 10.0**e), st.floats(-16, -0.5).map(lambda e: -(10.0**e))),
    st.booleans(),
    st.floats(1e-3, 1.0),
    st.floats(-3, 3).map(lambda e: 10.0**e),
    st.floats(-6, 2).map(lambda e: 10.0**e),
    st.one_of(st.just(0.0), st.floats(-6, 3).map(lambda e: 10.0**e)),
)
@example(1.0, 0.0, True, 1.0, 1.0, 0.05, 3.0)  # t = 1/(lam + 1) exactly: algebraic decay
def test_fm_two_layer_weight_matches_mpmath(lam, offset, near, t_any, eta, q, tau):
    # t on or near the reachability boundary 1/(lam + 1), or anywhere in (0, 1]
    t = min(1.0, (1.0 + offset) / (lam + 1.0)) if near else t_any
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fm_two_layer_weight(tau, t, lam, q, eta).value
    # the reference takes a = 8 eta (t lam - (1 - t)) and b as rounded in double: near a = 0
    # that rounding moves psi by 8 eta (lam + 1) t tau eps, far more than the closed form's own error
    a, b = 8.0 * eta * (t * lam - (1.0 - t)), 8.0 * eta * (t * t * lam + (1.0 - t) ** 2)
    with mp.workdps(DPS):
        a_m, q_m, tau_m = mp.mpf(a), mp.mpf(q), mp.mpf(tau)
        grown = mp.expm1(a_m * tau_m) / a_m if a else tau_m
        ref = q_m * mp.exp(a_m * tau_m) / (1 + q_m * b * grown)
        assert float(abs(got - ref) / max(ref, TINY)) < 1e-11, (got, ref)


@SETTINGS
@given(
    st.one_of(st.just(0.0), st.floats(-14, 6).map(lambda e: 10.0**e)),
    st.floats(1e-3, 1.0),
    st.floats(-6, 6).map(lambda e: 10.0**e),
    st.one_of(st.just(0.0), st.floats(-12, 2).map(lambda e: 10.0**e), st.floats(-12, 2).map(lambda e: -(10.0**e))),
    st.floats(-3, 3).map(lambda e: 10.0**e),
)
@example(1e-12, 1.0, 1.0, 1e-8, 1.0)  # 6.0e-10 off as w* + (Q - w*) e^z
@example(1e-9, 0.9, 2.0, 1e-6, 1.0)  # 8.8e-11 off as w* + (Q - w*) e^z
def test_fm_one_layer_weight_matches_mpmath(tau, t, lam, q, eta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = float(fm_one_layer_weight(tau, t, lam, q, eta))
    # the reference takes the rate and w* as rounded in double, as the two-layer test takes a and b:
    # near t = 1/(lam + 1) the rounding of w* moves psi far more than the closed form's own error
    variant = LossVariant.flow_match()
    rate, w_star = convergence_rate(variant, lam, t), optimal_mode_weight(variant, lam, t)
    with mp.workdps(DPS):
        z = -2 * mp.mpf(eta) * mp.mpf(tau) * mp.mpf(rate)
        decay, grown = mp.mpf(q) * mp.exp(z), -mp.mpf(w_star) * mp.expm1(z)
        # relative to the size of the two terms, which is |psi| where Q and w* share a sign
        scale = max(abs(decay) + abs(grown), TINY)
        assert float(abs(got - (decay + grown)) / scale) < 1e-12, (got, decay + grown)


def test_one_layer_psi_is_relative_to_mpmath_at_small_q():
    q, tau = 1e-8, 1e-12
    with mp.workdps(DPS):
        decay = mp.exp(-2 * mp.mpf(tau) * 2)
        ref = 0.5 + (mp.mpf(q) - 0.5) * decay
        assert float(abs(one_layer_psi(1.0, 1.0, q, 1.0, tau) / ref - 1)) < 1e-12


@pytest.mark.parametrize("lam", [1e-3, 1.0, 10.0])
def test_one_layer_lambda_gen_is_flat_in_ln_x(lam):
    # x_a = 2 eta tau sigma_min^2 ~ 1e-136: Ei(-x_a) - Ei(-x_b) as a difference of
    # two values near gamma + ln x carries |1 - Q| |ln x| eps, about 1.2e-11 here
    q, tau, s0, s_t = 326.0, 1e-64, 8.1e-37, 1.4e-36
    got = generated_variance(PhiFactor("one-layer", lam, q, 1.0, tau), NoiseSchedule(s0, s_t))
    with mp.workdps(60):
        ref = mp.mpf(s_t) ** 2 * mp.exp(2 * log_phi_ratio_mp("one-layer", lam, q, 1.0, tau, s0, s_t))
        assert float(abs(got / ref - 1)) < 1e-12, (got, ref)
