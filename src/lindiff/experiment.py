"""Experiment orchestration: config parsing, sweeps, file emission.

Configs are flat ``section.key = value`` text files, overridable by
command-line ``--set`` flags.  A run produces deterministic data files
(trajectories, emergence table, power-law fit, manifest); plotting is
left to downstream tooling.  Each table is a NumPy structured array,
written a fixed number of rows at a time, each chunk one join of cell
texts encoded column by column from its dtypes (a numeric column from its
distinct values), so a run's memory does not grow with a table's text.
A JSON table holds one compact object per row, one row a line.
A table of many chunks is formatted by two processes, a forked worker taking
every second chunk; the bytes are the same as one process writes.
Only the oracle check and a data file's eigendecomposition build the
covariance eigenbasis; every table, kl's included, reads only the spectrum.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from itertools import product, repeat
from pathlib import Path

import numpy as np

from . import __version__, oracle
from .analysis import CRITERIA, EmergenceCriterion, GrayZone, emergence_time, power_law_fit
from .dynamics import one_layer_psi, two_layer_psi
from .gaussian import (
    CovarianceModel,
    DataMoments,
    SpectrumSpec,
    empirical_moments,
    make_covariance,
    read_samples,
)
from .integrate import rk4_steps
from .oracle import gradient_flow_full
from .sampler import NoiseSchedule, PhiFactor, generated_variance

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_text", "run_experiment", "oracle_deviation"]

# The values of arch.kind and run.format; the CLI's --arch and --format read them too.
ARCHS = ("one-layer", "two-layer")
FORMATS = ("csv", "json")
# Relative tolerance of --validate-with-oracle and of validate's flow suites.
ORACLE_TOLERANCE = 1e-6
# --validate-with-oracle integrates over this part of the tau window only.
ORACLE_TAU_WINDOW = (1e-3, 10.0)
# Bounds on |log10| of the schedule endpoints and of the tau = 0 generated
# variance v0: targets lie in [sigma_min^2, sigma_max^2], so every product
# or ratio of v0 and a target that the sweep forms stays within 1e+-250.
# The report sigmas share the first bound, so that psi's sigma^2 neither
# overflows nor underflows next to an eigenvalue.
SIGMA_LOG10_BOUND = 50
V0_LOG10_BOUND = 150
# --validate-with-oracle refuses a flow whose estimated work exceeds ORACLE_MAX_WORK
# multiply-adds; each right-hand-side call counts _ORACLE_CALL_WORK more for its
# Python and NumPy dispatch (2-7 us).  On a 2-vCPU VM at about 3e10 multiply-adds
# per second the bound is 30-40 s.
ORACLE_MAX_WORK = 1e12
_ORACLE_CALL_WORK = 1e5
# The stable step of the two-layer flow's RK45 times its largest rate 8 eta
# lambda_max, from its step counts at lambda_max = 1e2, 1e3 and 1e4.
_RK45_STABLE_STEP = 3.2


class ConfigError(ValueError):
    """Invalid configuration; message carries the dotted field path."""


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment; blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _floats(raw: str) -> tuple:
    return tuple(_float(tok) for tok in raw.split(",") if tok.strip())


def _bool(raw: str) -> bool:
    value = raw.lower()
    if value not in ("true", "false", "1", "0", "yes", "no"):
        raise ValueError("expected true or false")
    return value in ("true", "1", "yes")


def _choice(*options: str):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return raw

    return parse


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated sweep configuration; ``_KEYS`` maps each config key to a field."""

    model_kind: str = "log-spaced"
    dim: int = 16
    # spectrum parameters: lo/hi (log-spaced), mu/sd (log-normal), values (explicit)
    lo: float = 1e-3
    hi: float = 10.0
    mu: float = 0.0
    sd: float = 1.0
    values: tuple | None = None
    normalize: bool = False
    data_path: str | None = None
    arch: str = "one-layer"
    q_init: float = 0.1
    eta: float = 1.0
    tau_min: float = 1e-4
    tau_max: float = 1e6
    tau_points: int = 241
    tau_override: tuple | None = None
    report_sigmas: tuple = (0.1, 1.0, 10.0)
    schedule: NoiseSchedule = NoiseSchedule()
    criterion: str = "geometric"
    gray_lower: float = 0.5
    gray_upper: float = 2.0
    seed: int = 0
    out_dir: str = "out"
    fmt: str = "csv"
    validate_with_oracle: bool = False

    def __post_init__(self) -> None:
        if self.model_kind == "explicit" and self.values is None:
            raise ConfigError("model.values: required for explicit spectra")
        if self.model_kind == "data" and not self.data_path:
            raise ConfigError("model.data: required when model.kind = data")
        # spectrum parameters are checked for the chosen model.kind only
        if self.model_kind != "data" and self.dim < 1:
            raise ConfigError("model.dim: must be >= 1")
        if self.model_kind == "log-spaced":
            for key, bound in (("model.lo", self.lo), ("model.hi", self.hi)):
                if bound <= 0:
                    raise ConfigError(f"{key}: log-spaced bounds must be positive")
        if self.model_kind == "log-normal" and self.sd <= 0:
            raise ConfigError("model.sd: log-normal sd must be positive")
        if self.model_kind == "explicit" and len(self.values) != self.dim:
            raise ConfigError(f"model.values: need model.dim = {self.dim} values, got {len(self.values)}")
        if self.model_kind == "explicit" and min(self.values) <= 0:
            raise ConfigError("model.values: explicit spectrum must be strictly positive")
        if not 0 < self.gray_lower < 1:
            raise ConfigError("analysis.gray_zone.lower: must lie in (0, 1)")
        if self.gray_upper <= 1:
            raise ConfigError("analysis.gray_zone.upper: must exceed 1")
        if self.arch == "two-layer" and self.q_init <= 0:
            raise ConfigError("arch.q_init: two-layer requires Q > 0")
        s0, s_t = self.schedule.sigma_min, self.schedule.sigma_max
        if max(abs(math.log10(s0)), abs(math.log10(s_t))) > SIGMA_LOG10_BOUND:
            raise ConfigError(f"schedule.sigma_min/schedule.sigma_max: must lie in [1e-{SIGMA_LOG10_BOUND}, 1e{SIGMA_LOG10_BOUND}]")
        # log10 of v0 = sigma_max^2 (sigma_min/sigma_max)^(2(1-Q)), the generated variance at tau = 0
        log_t, log_ratio = 2.0 * math.log10(s_t), 2.0 * math.log10(s0 / s_t)
        if abs(log_t + (1.0 - self.q_init) * log_ratio) > V0_LOG10_BOUND:
            q_lo, q_hi = (1.0 + (sign * V0_LOG10_BOUND + log_t) / log_ratio for sign in (1, -1))
            raise ConfigError(
                f"arch.q_init: need Q in [{q_lo:.4g}, {q_hi:.4g}] for this schedule, so that the tau = 0 generated "
                f"variance sigma_max^2 (sigma_min/sigma_max)^(2(1-Q)) lies in [1e-{V0_LOG10_BOUND}, 1e{V0_LOG10_BOUND}]"
            )
        if self.seed < 0:
            raise ConfigError("run.seed: must be a nonnegative integer")
        if self.eta <= 0:
            raise ConfigError("dynamics.eta: must be positive")
        if not 0 < self.tau_min < self.tau_max:
            raise ConfigError("dynamics.tau_min: need 0 < tau_min < tau_max")
        if self.tau_override is not None and (not self.tau_override or min(self.tau_override) < 0):
            raise ConfigError("dynamics.tau: need one or more nonnegative values")
        if self.tau_override is not None and any(b <= a for a, b in zip(self.tau_override, self.tau_override[1:])):
            raise ConfigError("dynamics.tau: values must be strictly increasing")
        if self.tau_override is None and self.tau_points < 1:
            raise ConfigError("dynamics.tau_points: must be >= 1")
        explicit = self.tau_override is not None
        # the one-layer Ein argument 2 eta tau sigma_max^2 and the two-layer rate 8 eta tau, at the largest tau
        tau_key, tau_top = ("dynamics.tau", max(self.tau_override)) if explicit else ("dynamics.tau_max", self.tau_max)
        if not (math.isfinite(2.0 * self.eta * tau_top * s_t**2) and math.isfinite(8.0 * self.eta * tau_top)):
            raise ConfigError(
                f"dynamics.eta/{tau_key}: need eta tau <= {sys.float_info.max / max(2.0 * s_t**2, 8.0):.4g} at the "
                f"largest tau, so that 2 eta tau sigma_max^2 and 8 eta tau are finite"
            )
        if not self.report_sigmas or min(self.report_sigmas) <= 0:
            raise ConfigError("report.sigmas: need one or more positive values")
        if max(abs(math.log10(s)) for s in self.report_sigmas) > SIGMA_LOG10_BOUND:
            raise ConfigError(f"report.sigmas: must lie in [1e-{SIGMA_LOG10_BOUND}, 1e{SIGMA_LOG10_BOUND}]")
        lo, hi = ORACLE_TAU_WINDOW
        if self.validate_with_oracle and explicit and not len(self.oracle_taus()):
            raise ConfigError(f"dynamics.tau: the oracle check needs a value in [{lo:g}, {hi:g}]")
        if self.validate_with_oracle and not explicit and max(self.tau_min, lo) > min(self.tau_max, hi):
            raise ConfigError(
                f"dynamics.tau_min/dynamics.tau_max: the oracle check needs [tau_min, tau_max] "
                f"to overlap [{lo:g}, {hi:g}]"
            )

    def taus(self) -> np.ndarray:
        if self.tau_override is not None:
            return np.asarray(self.tau_override, dtype=float)
        return np.geomspace(self.tau_min, self.tau_max, self.tau_points)

    def oracle_taus(self) -> np.ndarray:
        """The run's tau values inside ORACLE_TAU_WINDOW: the explicit ``dynamics.tau``
        values there, else 8 points on the part of [tau_min, tau_max] inside it."""
        lo, hi = ORACLE_TAU_WINDOW
        if self.tau_override is not None:
            return np.array([t for t in self.tau_override if lo <= t <= hi])
        return np.geomspace(max(self.tau_min, lo), min(self.tau_max, hi), 8)

    @staticmethod
    def from_flat(cfg: dict[str, str]) -> "ExperimentConfig":
        fields: dict = {}
        schedule: dict = {}
        for key, raw in cfg.items():
            if key not in _KEYS:
                raise ConfigError(f"{key}: unknown key")
            name, parse = _KEYS[key]
            try:
                (schedule if key.startswith("schedule.") else fields)[name] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from exc
        try:
            fields["schedule"] = NoiseSchedule(**schedule)
        except ValueError as exc:
            raise ConfigError(f"schedule.sigma_min/schedule.sigma_max: {exc}") from exc
        return ExperimentConfig(**fields)


# The values of model.kind, each with the ``model.*`` keys that draw its spectrum.
# Apart from ``data``, each key is also a SpectrumSpec parameter and an ExperimentConfig field.
_SPECTRUM_KEYS = {"log-spaced": ("lo", "hi"), "log-normal": ("mu", "sd"), "explicit": ("values",), "data": ("data",)}


# Every config key, declared once: dotted key -> (field, parser).  A
# ``schedule.*`` key sets a NoiseSchedule field, every other key an
# ExperimentConfig field; defaults are the dataclass defaults.
_KEYS = {
    "model.kind": ("model_kind", _choice(*_SPECTRUM_KEYS)),
    "model.dim": ("dim", int),
    "model.lo": ("lo", _float),
    "model.hi": ("hi", _float),
    "model.mu": ("mu", _float),
    "model.sd": ("sd", _float),
    "model.values": ("values", _floats),
    "model.normalize": ("normalize", _bool),
    "model.data": ("data_path", str),
    "arch.kind": ("arch", _choice(*ARCHS)),
    "arch.q_init": ("q_init", _float),
    "dynamics.eta": ("eta", _float),
    "dynamics.tau_min": ("tau_min", _float),
    "dynamics.tau_max": ("tau_max", _float),
    "dynamics.tau_points": ("tau_points", int),
    "dynamics.tau": ("tau_override", _floats),
    "report.sigmas": ("report_sigmas", _floats),
    "schedule.sigma_min": ("sigma_min", _float),
    "schedule.sigma_max": ("sigma_max", _float),
    "analysis.criterion": ("criterion", _choice(*CRITERIA)),
    "analysis.gray_zone.lower": ("gray_lower", _float),
    "analysis.gray_zone.upper": ("gray_upper", _float),
    "run.seed": ("seed", int),
    "run.out": ("out_dir", str),
    "run.format": ("fmt", _choice(*FORMATS)),
    "run.validate_with_oracle": ("validate_with_oracle", _bool),
}


def _load_spectrum(cfg: ExperimentConfig) -> tuple[np.ndarray, CovarianceModel | None]:
    """The run's spectrum, and its CovarianceModel when a data file is read or
    the oracle check runs.  A synthetic spectrum is ``spec.generate(dim, seed)``,
    the one make_covariance returns, so the O(d^3) QR basis is built only for
    the oracle check, its one reader.  Data file errors are ``model.data``
    config errors."""
    if cfg.model_kind == "data":
        try:
            model = empirical_moments(read_samples(cfg.data_path)).eigenmodel()
        except (OSError, ValueError) as exc:
            raise ConfigError(f"model.data: {exc}") from exc
        return model.spectrum, model
    params = {key: getattr(cfg, key) for key in _SPECTRUM_KEYS[cfg.model_kind]}
    spec = SpectrumSpec(cfg.model_kind, params, cfg.normalize)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite draw is reported below
        model = make_covariance(spec, cfg.dim, cfg.seed) if cfg.validate_with_oracle else None
        lam = spec.generate(cfg.dim, cfg.seed) if model is None else model.spectrum
    bad = lam.size - np.count_nonzero(np.isfinite(lam))
    if bad:
        raise ConfigError(f"{_spectrum_keys(cfg)}: {bad} of {lam.size} eigenvalues are not finite")
    return lam, model


def _spectrum_keys(cfg: ExperimentConfig) -> str:
    """The dotted keys that draw the spectrum of the run's model.kind, for error messages."""
    return "/".join(f"model.{key}" for key in _SPECTRUM_KEYS[cfg.model_kind])


def _oracle_work(cfg: ExperimentConfig, lam_max: float, dim: int) -> tuple[int, float]:
    """Estimated right-hand-side calls and multiply-adds of the run's oracle check.

    One-layer: RK4 takes ``rk4_steps`` over ``oracle_taus()`` at the rate
    2 eta (lambda_max + max sigma^2), four calls a step, each the (S, d, d+1)
    by (d+1, d+1) moment product.  Two-layer: RK45 is held to a step of
    _RK45_STABLE_STEP / (8 eta lambda_max) by stability, six calls a step,
    each about three such products (P P^T, the moment product, (G + G^T) P);
    its accuracy-limited steps, a few hundred, are not counted.
    """
    taus, sigmas = cfg.oracle_taus(), cfg.report_sigmas
    product_work = len(sigmas) * dim * (dim + 1) ** 2
    if cfg.arch == "one-layer":
        calls = 4 * rk4_steps(taus, 2.0 * cfg.eta * (lam_max + max(sigmas) ** 2))
    else:
        calls = 6 * math.ceil(float(taus.max()) * 8.0 * cfg.eta * lam_max / _RK45_STABLE_STEP)
        product_work *= 3
    return calls, calls * (product_work + _ORACLE_CALL_WORK)


def oracle_deviation(
    model: CovarianceModel, arch: str, sigmas, q: float, eta: float, taus, adaptive: bool = False
) -> float:
    """Max relative gap between closed-form mode weights and raw gradient flow.

    The flow starts from Q times the identity in the model's eigenbasis
    (one-layer W0, or two-layer P0 with W0 = P0 P0^T) on zero-mean data;
    every sigma is integrated in one batched flow call.  ``adaptive`` selects
    gradient_flow_full's RK45 route over fixed-step RK4 for the one-layer
    flow; the two-layer flow is always integrated by RK45.
    """
    moments = DataMoments(np.zeros(model.dim), model.covariance())
    sigmas = np.asarray(sigmas, float)
    if arch == "one-layer":
        w0, parametrization, psi = (model.basis * q) @ model.basis.T, "one-layer", one_layer_psi
    else:
        w0, parametrization, psi = model.basis * np.sqrt(q), "two-layer-symmetric", two_layer_psi
    _, ws, _ = gradient_flow_full(
        moments, sigmas, eta, w0, np.zeros(model.dim), taus, parametrization=parametrization, adaptive=adaptive
    )
    numeric = np.einsum("ik,tsij,jk->tsk", model.basis, ws, model.basis)
    closed = psi(model.spectrum, sigmas[:, None], q, eta, taus[:, None, None])
    scale = np.maximum(np.abs(closed), 1e-12)
    return float(np.max(np.abs(numeric - closed) / scale))


def run_experiment(cfg: ExperimentConfig, stages: frozenset = frozenset({"trajectories", "emergence"})) -> dict:
    """Run the sweep and write the requested output files; returns the manifest.

    Stages: 'trajectories' (weights + generated variances), 'emergence'
    (first-passage table + power-law fit), 'kl' (per-mode KL over tau).
    The manifest's ``stage_seconds`` times each stage that ran, from the
    end of the one before it.
    """
    t_start = time.perf_counter()
    stage_seconds, t_stage = {}, t_start

    def lap(stage: str) -> None:
        nonlocal t_stage
        now = time.perf_counter()
        stage_seconds[stage], t_stage = now - t_stage, now

    taus = cfg.taus()
    if "emergence" in stages and len(taus) < 2:
        key = "dynamics.tau" if cfg.tau_override is not None else "dynamics.tau_points"
        raise ConfigError(f"{key}: emergence extraction needs >= 2 tau points")
    lam, model = _load_spectrum(cfg)
    if "kl" in stages and lam.min() <= 0:  # each mode's KL divides by its eigenvalue; the fit drops zeros
        raise ConfigError(f"{_spectrum_keys(cfg)}: kl needs positive eigenvalues, {np.count_nonzero(lam <= 0)} of {lam.size} are zero")
    if cfg.validate_with_oracle:
        calls, work = _oracle_work(cfg, float(lam.max()), lam.size)
        if work > ORACLE_MAX_WORK:
            raise ConfigError(
                f"report.sigmas/model.dim: the {cfg.arch} oracle check needs about {calls:.3g} right-hand-side evaluations on "
                f"{len(cfg.report_sigmas)} sigma(s) at dim {lam.size}, {work:.3g} multiply-adds against a bound of "
                f"{ORACLE_MAX_WORK:.0e}; it grows with the number of sigmas, with dim^3 and with eta lambda_max"
                + (" + eta max sigma^2" if cfg.arch == "one-layer" else "")
            )
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    s0, s_t = cfg.schedule.sigma_min, cfg.schedule.sigma_max
    lap("spectrum")

    # Ein(2 eta tau sigma^2), the lambda-free term of each (tau, sigma), shared by
    # every mode.  The run owns it, so each run makes the same calls.
    ei_memo: dict = {}
    arch, q, eta, tau_list = cfg.arch, cfg.q_init, cfg.eta, taus.tolist()  # arch.kind names the Phi case
    phis = map(PhiFactor._make, product((arch,), lam.tolist(), (q,), (eta,), tau_list))  # (mode, tau) order
    cells = map(generated_variance, phis, repeat(cfg.schedule), repeat(ei_memo))
    lam_gen = np.fromiter(cells, float, lam.size * len(tau_list)).reshape(lam.size, len(tau_list))
    v0 = s_t**2 * (s0 / s_t) ** (2.0 * (1.0 - cfg.q_init))
    targets = s_t**2 * (lam + s0**2) / (lam + s_t**2)
    lap("lambda_gen")

    written, diagnostics = [], {}
    fit_payload = None
    if "trajectories" in stages:
        written.append(_emit_trajectories(cfg, out, lam, taus, lam_gen))
        lap("trajectories")
    if "emergence" in stages:
        crit = EmergenceCriterion(cfg.criterion)
        gz = GrayZone(cfg.gray_lower, cfg.gray_upper)
        tau_stars = emergence_time(taus, lam_gen, v0, targets, crit)
        branches = np.where(targets > v0, "increasing", "decreasing")
        excluded = gz.excludes(v0, targets)
        diagnostics["no_crossing_modes"] = int(np.count_nonzero(np.isnan(tau_stars)))
        diagnostics["gray_zone_modes"] = int(np.count_nonzero(excluded))
        fits, fit_error = {}, None
        try:
            fits = power_law_fit(lam, tau_stars, gz, v0, targets)
        except ValueError as exc:
            fit_error = str(exc)
        written.append(_emit_emergence(cfg, out, lam, tau_stars, branches, excluded))
        fit_payload = {
            "criterion": cfg.criterion,
            "gray_zone": {"lower": cfg.gray_lower, "upper": cfg.gray_upper},
            "branches": {name: asdict(fit) for name, fit in fits.items()},
        }
        if fit_error:
            fit_payload["error"] = fit_error
        _write_json(out / "fit.json", fit_payload)
        written.append("fit.json")
        lap("emergence")
    if "kl" in stages:
        name, diagnostics["kl_clamped_modes"] = _emit_kl(cfg, out, lam, taus, lam_gen)
        written.append(name)
        lap("kl")

    manifest = {
        "config": {
            key: getattr(cfg.schedule if key.startswith("schedule.") else cfg, name)
            for key, (name, _) in _KEYS.items()
            if key != "run.out"  # so that reruns into other directories echo the same config
        }
        | {"model.dim": lam.size},  # a data file's column count, not the unused default
        "seed": cfg.seed,
        "versions": {
            "lindiff": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "outputs": sorted(written + ["manifest.json"]),
    }
    if diagnostics:
        manifest["diagnostics"] = diagnostics
    if cfg.validate_with_oracle:
        calls = oracle.rhs_evaluations
        dev = oracle_deviation(model, cfg.arch, cfg.report_sigmas, cfg.q_init, cfg.eta, cfg.oracle_taus())
        lap("oracle")
        manifest["oracle"] = {
            "max_rel_deviation": dev,
            "tolerance": ORACLE_TOLERANCE,
            "passed": bool(dev < ORACLE_TOLERANCE),
            "seconds": stage_seconds["oracle"],
            "rhs_evaluations": oracle.rhs_evaluations - calls,
        }
    manifest["stage_seconds"] = stage_seconds
    manifest["wall_clock_s"] = time.perf_counter() - t_start
    _write_json(out / "manifest.json", manifest)
    return manifest


def _emit_trajectories(cfg, out: Path, spectrum, taus, lam_gen) -> str:
    psi = one_layer_psi if cfg.arch == "one-layer" else two_layer_psi
    q, eta, sigmas = cfg.q_init, cfg.eta, cfg.report_sigmas
    header = ["mode_index", "lambda_target", "tau", "sigma", "psi", "lambda_gen"]
    table = np.empty(lam_gen.size * len(sigmas), dtype={"names": header, "formats": [int] + [float] * 5})
    grid = table.reshape(len(spectrum), len(taus), len(sigmas))  # a view: rows in (mode, tau, sigma) order
    grid["mode_index"] = np.arange(len(spectrum))[:, None, None]
    grid["lambda_target"] = spectrum[:, None, None]
    grid["tau"] = taus[:, None]
    grid["sigma"] = sigmas
    grid["lambda_gen"] = lam_gen[:, :, None]
    cells = (psi(lam, sigma, q, eta, tau) for lam in spectrum.tolist() for tau in taus.tolist() for sigma in sigmas)
    table["psi"] = np.fromiter(cells, float, len(table))
    return _emit_table(cfg, out, "trajectories", header, table)


def _emit_emergence(cfg, out: Path, spectrum, tau_stars, branches, excluded) -> str:
    header = ["mode_index", "lambda_target", "tau_star", "branch", "excluded_flag"]
    table = np.empty(len(spectrum), dtype={"names": header, "formats": [int, float, object, object, int]})
    table["mode_index"] = np.arange(len(spectrum))
    table["lambda_target"] = spectrum
    table["tau_star"] = np.where(np.isnan(tau_stars), None, tau_stars)  # None where a mode never crosses
    table["branch"] = branches
    table["excluded_flag"] = excluded
    return _emit_table(cfg, out, "emergence", header, table)


def _emit_kl(cfg, out: Path, spectrum, taus, lam_gen) -> tuple[str, int]:
    """Write the per-mode KL table; returns its name and the number of
    (mode, tau) variances clamped to the KL floor.  Both Gaussians are centred
    and share the data eigenbasis, so a mode's KL reads only lambda_gen / lambda."""
    from .metrics import kl_shared_basis

    kl = kl_shared_basis(np.maximum(lam_gen.T, 1e-300), spectrum)
    header = ["mode_index", "lambda_target", "tau", "lambda_gen", "kl"]
    grid = np.empty((len(taus), len(spectrum)), dtype={"names": header, "formats": [int] + [float] * 4})  # (tau, mode) rows
    grid["mode_index"] = np.arange(len(spectrum))
    grid["lambda_target"] = spectrum
    grid["tau"] = taus[:, None]
    grid["lambda_gen"] = lam_gen.T
    grid["kl"] = kl.per_mode
    return _emit_table(cfg, out, "kl", header, grid.reshape(-1)), kl.clamped


def _cell(value) -> str:
    """The CSV text of one value: empty for None, ``str`` for a string or an
    integer, and otherwise ``repr`` of the float, the shortest text that
    parses back to its bits (the digits JSON writes)."""
    if value is None:
        return ""
    if isinstance(value, (str, int, np.integer)):
        return str(value)
    return repr(float(value))


def _column_texts(column: np.ndarray, encode, encode_one) -> list[str]:
    """The text of each value of ``column``.

    An int, bool or float column gets its texts from one ``encode`` call on
    its distinct values, indexed back to the rows; floats are told apart by
    their bits, so 0.0 and -0.0 keep their own text.  An object column's
    scalars (None, str or float) go one at a time through ``encode_one``.
    """
    kind = column.dtype.kind
    if kind not in "biuf":
        return list(map(encode_one, column.tolist()))
    distinct, inverse = np.unique(column.view(np.uint64) if kind == "f" else column, return_inverse=True)
    texts = encode((distinct.view(float) if kind == "f" else distinct).tolist())
    return np.array(texts, dtype=object)[inverse].tolist()


def _reprs(values) -> list[str]:
    return list(map(repr, values))


def _json_list(values) -> list[str]:
    return json.dumps(values)[1:-1].split(", ")


def _chunk_text(keys, chunk, row, lead, encode, encode_one) -> str:
    """The text of ``chunk``'s rows from one join of a flat list: ``row``
    once per row, its first item ``lead`` in the first row, and each None
    slot filled with a ``keys`` column's texts as that column is encoded,
    so one column's text list is held at a time."""
    parts = row * len(chunk)
    parts[0] = lead
    for j, key in enumerate(keys):
        parts[1 + 2 * j :: len(row)] = _column_texts(chunk[key], encode, encode_one)
    return "".join(parts)


# Rows formatted per write: a table's text is held one chunk at a time.
_CHUNK_ROWS = 8192
# A table of at least this many chunks is formatted by two processes.  At 3
# chunks the fork and the copy-on-write faults cost what the worker's one chunk
# saves; see DECISIONS.md.
_SPLIT_CHUNKS = 4
# Pipe capacity asked for the worker's chunks, so that it rarely waits on the
# parent; Linux caps it at /proc/sys/fs/pipe-max-size (1 MiB by default).
_PIPE_BYTES = 1 << 20


def _write_split(fh, starts, text, name: str) -> None:
    """Write ``text(i)`` for each ``i`` of ``starts`` to ``fh`` in order,
    with a forked worker formatting every second chunk (``starts[1::2]``).

    The worker sends each chunk's UTF-8 bytes through a pipe behind an
    8-byte length and leaves by ``os._exit``, so it never flushes ``fh`` or
    stdout and runs no ``atexit`` hook.  The parent closes the read end
    before it reaps the worker, so on an error in the parent a worker
    blocked on a full pipe gets EPIPE and exits.  A failed worker or a short
    read raises OSError naming the table.
    """
    import fcntl  # POSIX only, like os.fork

    rfd, wfd = os.pipe()
    pid = received = 0
    try:
        with open(rfd, "rb") as pipe, open(wfd, "wb") as sink:
            with contextlib.suppress(AttributeError, OSError):  # not Linux, or above pipe-max-size
                fcntl.fcntl(wfd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    pipe.close()
                    for i in starts[1::2]:
                        data = text(i).encode()
                        sink.write(len(data).to_bytes(8, "little"))
                        sink.write(data)
                    sink.flush()
                    status = 0
                finally:
                    os._exit(status)
            sink.close()
            for k, i in enumerate(starts):
                if k % 2 == 0:
                    fh.write(text(i))
                    continue
                head = pipe.read(8)
                size = int.from_bytes(head, "little") if len(head) == 8 else 0
                data = pipe.read(size)
                if not size or len(data) < size:  # a short read: no chunk is empty
                    break
                fh.write(data.decode())
                received += 1
    finally:
        status = os.waitpid(pid, 0)[1] if pid else 0
    if status or received < len(starts) // 2:
        raise OSError(
            f"{name}: the worker formatting every second chunk exited with status "
            f"{os.waitstatus_to_exitcode(status)} after sending {received} of {len(starts) // 2} chunks"
        )


def _emit_table(cfg, out: Path, name: str, header, table) -> str:
    """Write ``table`` as CSV (None -> empty cell) or JSON (None -> null);
    returns the file name.  A JSON table is ``[``, then each row on its own
    line as ``json.dumps(row, sort_keys=True, separators=(",", ":"))`` writes
    it, the rows joined by ``,`` and a newline, then ``]``; an empty one is
    ``[]``.

    ``table`` is a NumPy structured array with a field per ``header`` name;
    ``len(table)`` is its row count, which perfbench's tracer reads.  The
    rows are written _CHUNK_ROWS at a time through one open file, each chunk
    one join of its cells and the separators between them (``_chunk_text``).
    A cell is the text ``_cell`` (CSV) or ``json.dumps`` (JSON) writes for its
    value: a float, int or bool column's from its distinct values, an object
    column's one value at a time.  Both write a finite float as ``repr``
    does, so the two formats carry the same digits.  A table of at least
    _SPLIT_CHUNKS chunks is formatted by two processes where ``os.fork``
    exists (``_write_split``): the same bytes, with a forked worker formatting
    every second chunk from the columns already built.  Elsewhere, and for a
    smaller table, one process writes every chunk.
    """
    path = out / f"{name}.{cfg.fmt}"
    if cfg.fmt == "csv":
        keys, encode, encode_one, start, end = header, _reprs, _cell, ",".join(header) + "\n", ""
        lead, seps = "", [","] * (len(header) - 1) + ["\n"]
    else:  # one row a line, each json.dumps(row, sort_keys=True, separators=(",", ":"))
        keys, encode, encode_one, start, end = sorted(header), _json_list, json.dumps, "[\n", "\n]\n"
        names = [json.dumps(key) for key in keys]
        lead, seps = f",\n{{{names[0]}:", [f",{key}:" for key in names[1:]] + ["}"]
        if not len(table):
            start, end = "[]\n", ""
    row = [lead] + [text for sep in seps for text in (None, sep)]

    def text(i: int) -> str:
        first = lead if i else lead.removeprefix(",\n")  # no JSON row comes before the first
        return _chunk_text(keys, table[i : i + _CHUNK_ROWS], row, first, encode, encode_one)

    starts = range(0, len(table), _CHUNK_ROWS)
    with path.open("w") as fh:
        fh.write(start)
        if len(starts) >= _SPLIT_CHUNKS and hasattr(os, "fork"):
            _write_split(fh, starts, text, path.name)
        else:
            for i in starts:
                fh.write(text(i))
        fh.write(end)
    return path.name


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
