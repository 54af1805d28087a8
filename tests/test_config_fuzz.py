"""A seeded config fuzz of the table commands, run in process through ``cli.main``.

Each seed draws one command line: ``emergence``, ``kl`` or ``simulate`` on
either arch and in either format, at dim <= 6 with <= 25 tau values, on a
log-spaced, log-normal, explicit or ``--data`` spectrum, and with
``--validate-with-oracle`` on about a quarter of the ``emergence`` draws.
A run may end in one of two ways:

- exit 0: every table cell is finite, stderr is empty, the manifest's
  ``model.dim`` is the tables' mode count, and each diagnostics count lies
  between 0 and the number of cells it counts;
- exit 1: stderr is exactly one ``config error:`` or ``error:`` line.

Anything else fails.  The oracle draws keep eta <= 1, sigma <= 10,
eigenvalues <= 10 and tau <= 1, so that no check takes more than about
0.1 s.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from lindiff.analysis import CRITERIA
from lindiff.cli import main
from lindiff.experiment import ARCHS, FORMATS

N_DRAWS = 40
KINDS = ("log-spaced", "log-normal", "explicit", "data")
# Draws whose one-layer oracle check exceeds its tolerance on fixed-step RK4
# away from the default Q (ROADMAP item 3; DECISIONS.md).  Seed 22 reads
# 2.432e-6 at Q = 0.50 and sigma = 7.6 on a rank-one data covariance; RK45
# would read 1.121e-6 there, at a zero mode decayed to 8.4e-15, under the
# 1e-12 floor of the check's relative scale.
RK4_FLOOR_SEEDS = frozenset({22})


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def _draw(seed: int, tmp_path) -> tuple[list[str], bool]:
    """The argv of draw ``seed`` and whether it runs the oracle check."""
    rng = random.Random(seed)
    command = rng.choice(("emergence", "kl", "simulate"))
    oracle = command == "emergence" and rng.random() < 0.25
    dim = rng.randint(1, 6)
    kind = rng.choice(KINDS)
    # log10 bounds of the eigenvalues; the oracle check's cost grows with eta (lambda_max + sigma^2) tau
    low, top = (-3, 1) if oracle else (-14, 10)
    sets = {"model.dim": dim, "model.normalize": rng.choice(("true", "false"))}
    argv = [command, "--arch", rng.choice(ARCHS), "--format", rng.choice(FORMATS), "--seed", str(seed)]
    if kind == "data":
        rows = rng.randint(1, 8)
        scale = 1.0 if oracle else _log_uniform(rng, -7, 5)
        path = tmp_path / "samples.csv"
        path.write_text("".join(",".join(repr(scale * rng.gauss(0.0, 1.0)) for _ in range(dim)) + "\n" for _ in range(rows)))
        argv += ["--data", str(path)]
    elif kind == "log-spaced":
        sets |= {"model.kind": kind, "model.lo": _log_uniform(rng, low, top), "model.hi": _log_uniform(rng, low, top)}
    elif kind == "log-normal":
        sets |= {"model.kind": kind, "model.mu": rng.uniform(-2.0, -1.0 if oracle else 5.0), "model.sd": rng.uniform(-0.2, 1.0 if oracle else 3.0)}
    else:
        values = [_log_uniform(rng, low, top) for _ in range(dim + (rng.random() < 0.1))]
        sets |= {"model.kind": kind, "model.values": ",".join(map(repr, values))}
    # Q inside the tau = 0 variance bound most of the time
    sets["arch.q_init"] = rng.uniform(0.05, 1.5) if rng.random() < 0.8 else rng.uniform(-2.0, 3.0)
    sets["dynamics.eta"] = rng.uniform(0.1, 1.0) if oracle else _log_uniform(rng, -6, 6)
    sigma_min = _log_uniform(rng, -3 if oracle else -8, -1 if oracle else 2)
    sets["schedule.sigma_min"] = sigma_min
    sets["schedule.sigma_max"] = sigma_min * _log_uniform(rng, 0.5, 2 if oracle else 8)
    sets["report.sigmas"] = ",".join(repr(_log_uniform(rng, -2, 1 if oracle else 2)) for _ in range(rng.randint(1, 3)))
    sets["analysis.criterion"] = rng.choice(CRITERIA)
    tau_hi = 1.0 if oracle else _log_uniform(rng, -2, 8)
    if rng.random() < 0.3:
        taus = sorted(rng.uniform(0.0, tau_hi) for _ in range(rng.randint(1, 25)))
        if rng.random() < 0.5:
            taus[0] = 0.0
        sets["dynamics.tau"] = ",".join(map(repr, taus))
    else:
        sets["dynamics.tau_max"] = tau_hi
        sets["dynamics.tau_min"] = tau_hi * _log_uniform(rng, -8, -0.5)
        sets["dynamics.tau_points"] = rng.randint(1, 25)
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    if oracle:
        argv.append("--validate-with-oracle")
    return argv, oracle


def _table_rows(path) -> list[dict]:
    """The rows of a CSV or JSON table, each a dict of header -> value (a CSV cell as text)."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def _is_finite_cell(value) -> bool:
    """False for a NaN or infinite number, true for any other cell: an empty
    CSV cell or JSON null is a mode that never crosses, and ``branch`` is text."""
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            return True
    return not isinstance(value, float) or math.isfinite(value)


@pytest.mark.parametrize(
    "seed",
    [
        pytest.param(s, marks=pytest.mark.xfail(strict=True, reason="one-layer RK4 oracle floor; ROADMAP item 3"))
        if s in RK4_FLOOR_SEEDS
        else s
        for s in range(N_DRAWS)
    ],
)
def test_a_drawn_config_runs_or_fails_with_one_error_line(seed, tmp_path, capfd):
    argv, _ = _draw(seed, tmp_path)
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    stdout, stderr = capfd.readouterr()
    if rc == 1:
        assert stderr.count("\n") == 1 and stderr.startswith(("config error: ", "error: ")), (stdout, stderr)
        return
    assert rc == 0, (stdout, stderr)
    assert stderr == ""
    manifest = json.loads((out / "manifest.json").read_text())
    dim = manifest["config"]["model.dim"]
    kl_cells = 0
    for name in manifest["outputs"]:
        if name in ("manifest.json", "fit.json"):
            continue
        rows = _table_rows(out / name)
        assert all(_is_finite_cell(v) for row in rows for v in row.values()), name
        assert {int(row["mode_index"]) for row in rows} == set(range(dim)), name
        if name.startswith("kl."):
            kl_cells = len(rows)
    counts = manifest.get("diagnostics", {})
    for key in ("no_crossing_modes", "gray_zone_modes"):
        assert 0 <= counts.get(key, 0) <= dim, key
    assert 0 <= counts.get("kl_clamped_modes", 0) <= kl_cells


def test_the_draws_cover_every_command_arch_format_and_kind(tmp_path):
    seen = set()
    oracle_runs = emergence_runs = 0
    for seed in range(N_DRAWS):
        argv, oracle = _draw(seed, tmp_path)
        kind = "data" if "--data" in argv else next(a for a in argv if a.startswith("model.kind=")).split("=")[1]
        seen |= {argv[0], argv[argv.index("--arch") + 1], argv[argv.index("--format") + 1], kind}
        emergence_runs += argv[0] == "emergence"
        oracle_runs += oracle
    assert {"emergence", "kl", "simulate", *ARCHS, *FORMATS, *KINDS} <= seen
    assert 0.15 * emergence_runs <= oracle_runs <= 0.4 * emergence_runs
