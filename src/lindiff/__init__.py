"""Closed-form training and sampling dynamics of linear diffusion denoisers.

The package solves, in closed form, how linear / deep-linear /
convolutional denoisers evolve under full-batch gradient flow, what
distribution the probability-flow ODE generates at every training time,
and validates every closed form against independent brute-force oracles.
"""

__version__ = "0.1.0"

from .analysis import (
    EmergenceCriterion,
    GrayZone,
    InsufficientDataError,
    PowerLawFit,
    emergence_time,
    power_law_fit,
)
from .convolution import (
    PatchCovariance,
    circulant_matrix,
    dft_mode_variance,
    patch_covariance,
    patch_filter_trajectory,
)
from .dynamics import (
    LossVariant,
    Residual,
    convergence_rate,
    deep_linear_mode,
    discrete_gd_trajectory,
    linear_flow,
    mean_coupled_trajectory,
    one_layer_bias,
    one_layer_psi,
    optimal_mode_weight,
    two_layer_overlap_simulation,
    two_layer_psi,
)
from .flow_matching import (
    fm_generated_variance_ratio,
    fm_one_layer_weight,
    fm_sampling_converged,
    fm_two_layer_weight,
)
from .gaussian import (
    CovarianceModel,
    DataMoments,
    SpectrumSpec,
    empirical_moments,
    make_covariance,
    project_variances,
    read_samples,
    sample_gaussian,
)
from .metrics import ModeKL, denoiser_error, kl_shared_basis, score_error, training_loss
from .oracle import (
    dense_dft_diag,
    discrete_gd_full,
    gradient_flow_full,
    heun_affine_dense,
    mc_dsm_loss,
)
from .sampler import (
    NoiseSchedule,
    PhiFactor,
    generated_variance,
    mean_transport,
    pf_mode_scaling,
    pf_ode_numeric,
    phi_one_layer,
    phi_two_layer,
)
from .special import expint_ei
