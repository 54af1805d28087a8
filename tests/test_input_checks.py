"""Input checks in ``src/`` that no other test reaches, each driven by a
minimal bad input with its message matched."""

import numpy as np
import pytest

from lindiff import integrate
from lindiff.analysis import EmergenceCriterion, emergence_time
from lindiff.convolution import PatchCovariance, dft_mode_variance, patch_filter_trajectory
from lindiff.dynamics import LossVariant, deep_linear_mode, discrete_gd_trajectory, mean_coupled_trajectory
from lindiff.flow_matching import fm_two_layer_weight
from lindiff.gaussian import CovarianceModel, DataMoments, SpectrumSpec, sample_gaussian
from lindiff.integrate import IntegrationError, rk4_path, rk45_path
from lindiff.oracle import gradient_flow_full, mc_dsm_loss
from lindiff.sampler import NoiseSchedule, pf_mode_scaling

EYE2 = np.eye(2)
MODEL2 = CovarianceModel(EYE2, np.ones(2))
MOMENTS2 = DataMoments(np.zeros(2), EYE2)
MOMENTS4 = DataMoments(np.zeros(4), np.eye(4))
# symmetric to dft_mode_variance's 1e-8, but not to its 1e-10 bound on the imaginary residue
NEARLY_SYMMETRIC = np.eye(4) + np.outer([1, 0, 0, 0], [0, 1, 0, 0]) * 1e-9

CASES = {
    # integrate
    "rk45-step-underflow": (lambda: rk45_path(lambda t, y: y * np.nan, np.ones(2), [1.0]), IntegrationError, "step underflow"),
    "rk4-non-finite-state": (
        lambda: rk4_path(lambda t, y: np.full_like(y, np.inf), np.ones(2), [1.0], max_rate=1.0),
        IntegrationError,
        "non-finite state",
    ),
    # gaussian
    "covariance-basis-shape": (lambda: CovarianceModel(np.eye(3)[:, :2], np.ones(2)), ValueError, "basis must be a dim x dim"),
    "covariance-spectrum-length": (lambda: CovarianceModel(EYE2, np.ones(1)), ValueError, "spectrum must have length dim"),
    "covariance-negative": (lambda: CovarianceModel(EYE2, [1.0, -1.0]), ValueError, "eigenvalues must be nonnegative"),
    "moments-shape": (lambda: DataMoments(np.zeros(2), np.eye(3)), ValueError, "covariance shape does not match mean"),
    "moments-symmetry": (lambda: DataMoments(np.zeros(2), [[1.0, 0.5], [0.0, 1.0]]), ValueError, "must be symmetric"),
    "moments-psd": (lambda: DataMoments(np.zeros(2), [[1.0, 2.0], [2.0, 1.0]]), ValueError, "must be PSD"),
    "spectrum-dim": (lambda: SpectrumSpec("log-spaced", {"lo": 1.0, "hi": 2.0}).generate(0, 0), ValueError, "dim must be >= 1"),
    "spectrum-log-normal-sd": (lambda: SpectrumSpec("log-normal", {"sd": 0.0}).generate(3, 0), ValueError, "sd must be positive"),
    "spectrum-explicit-length": (
        lambda: SpectrumSpec("explicit", {"values": [1.0, 2.0]}).generate(3, 0),
        ValueError,
        "length must equal dim",
    ),
    "sample-count": (lambda: sample_gaussian(MODEL2, np.zeros(2), 0, seed=0), ValueError, "n must be >= 1"),
    # convolution
    "patch-shape": (lambda: PatchCovariance(np.ones((3, 2))), ValueError, "matrix must be square"),
    "patch-symmetry": (lambda: PatchCovariance([[1.0, 1.0], [0.0, 1.0]]), ValueError, "must be symmetric"),
    "patch-psd": (lambda: PatchCovariance([[1.0, 2.0], [2.0, 1.0]]), ValueError, "must be PSD"),
    "dft-non-square": (lambda: dft_mode_variance(np.ones((2, 3))), ValueError, "covariance must be square"),
    "dft-imaginary-residue": (lambda: dft_mode_variance(NEARLY_SYMMETRIC), ValueError, "imaginary residue"),
    "patch-filter-w0": (
        lambda: patch_filter_trajectory(PatchCovariance(np.eye(3)), 0.5, 1.0, 8, np.zeros(2), [1.0]),
        ValueError,
        "w0 must match the patch size",
    ),
    # dynamics
    "loss-variant-tag": (lambda: LossVariant("NoSuchTarget"), ValueError, "unknown loss variant"),
    "mean-coupled-sigma": (
        lambda: mean_coupled_trajectory(MOMENTS2, 0.0, 1.0, EYE2, np.zeros(2), [1.0]),
        ValueError,
        "sigma must be positive",
    ),
    "deep-linear-depth": (lambda: deep_linear_mode(0, 1.0, 1.0, 0.5, 1.0, [1.0]), ValueError, "depth must be >= 1"),
    "discrete-gd-step": (lambda: discrete_gd_trajectory(np.ones(2), 1.0, 0.1, 0.0, 5), ValueError, "step must be positive"),
    # oracle
    "patch-half-width": (
        lambda: gradient_flow_full(MOMENTS4, 1.0, 1.0, np.zeros(3), np.zeros(4), [1.0], parametrization="patch"),
        ValueError,
        "needs half_width",
    ),
    "parametrization": (
        lambda: gradient_flow_full(MOMENTS2, 1.0, 1.0, EYE2, np.zeros(2), [1.0], parametrization="three-layer"),
        ValueError,
        "unknown parametrization 'three-layer'",
    ),
    "mc-sample-count": (lambda: mc_dsm_loss(EYE2, np.zeros(2), MOMENTS2, 1.0, 0, seed=0), ValueError, "n must be >= 1"),
    # analysis
    "criterion-kind": (lambda: EmergenceCriterion("median"), ValueError, "criterion kind must be one of"),
    "criterion-threshold": (lambda: EmergenceCriterion().threshold(0.0, 1.0), ValueError, "values must be positive"),
    "emergence-series": (
        lambda: emergence_time([1.0, 2.0, 3.0], [1.0, 2.0], 1.0, 2.0, EmergenceCriterion()),
        ValueError,
        "matching tau/value series",
    ),
    # sampler and flow matching
    "pf-non-finite-weight": (
        lambda: pf_mode_scaling(lambda s: np.nan, NoiseSchedule()),
        IntegrationError,
        "non-finite weight evaluation",
    ),
    "fm-two-layer-t": (lambda: fm_two_layer_weight(1.0, 1.5, 1.0, 0.1, 1.0), ValueError, r"t must lie in \(0, 1\]"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_bad_input_raises_its_message(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_rk45_stops_at_its_step_budget(monkeypatch):
    monkeypatch.setattr(integrate, "_RK45_MAX_STEPS", 3)
    with pytest.raises(IntegrationError, match="max step count exceeded"):
        rk45_path(lambda t, y: -y, np.ones(1), [100.0])
