"""The benchmark's workloads: the `lindiff` command lines each one runs.

A closed loop: one client runs one command at a time and waits for it
to exit before starting the next.  See README.md for why each workload
was chosen and which layers it is expected to move.
"""

from __future__ import annotations

from dataclasses import dataclass

SEED = "{seed}"
OUT = "{out}"


@dataclass(frozen=True)
class Command:
    """One `lindiff` invocation.

    ``args`` may contain the placeholders ``{seed}`` and ``{out}``.
    ``tables`` names the data tables the command writes; ``oracle`` says
    whether it prints an oracle check line that must end in ``ok``;
    ``cells`` is the number of lambda_gen cells (modes x tau) it computes.
    """

    args: tuple[str, ...]
    tables: tuple[str, ...] = ()
    oracle: bool = False
    cells: int = 0

    def argv(self, seed: int, out: str) -> list[str]:
        return [a.format(seed=seed, out=out) for a in self.args]

    @property
    def label(self) -> str:
        return "lindiff " + " ".join(self.args)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    warmup: Command
    # True when the seed changes the tables' contents, so the reference
    # captured at DEFAULT_SEED only applies at that seed.
    tables_depend_on_seed: bool


# lindiff's own default for run.seed.
DEFAULT_SEED = 0

# Sized so that one pass takes 1-6 s and a 40-s run holds several passes;
# see README.md.
_SWEEP_DIM, _SWEEP_TAUS = 1024, 61
_KL_DIM, _KL_TAUS = 128, 481
_ORACLE_DIM, _ORACLE_TAU_MAX, _ORACLE_TAUS = 16, 1, 241

WORKLOADS = {
    w.name: w
    for w in (
        # Mode-heavy grid at the ROADMAP's dim-1024 target: Ei, the scalar
        # lambda_gen loop, per-cell psi, 187,392 CSV rows and a 1024^2 QR.
        # The seed reaches only the eigenbasis; the tables do not use it.
        Workload(
            "sweep-1l",
            (
                Command(
                    (
                        "emergence", "--set", f"model.dim={_SWEEP_DIM}",
                        "--set", f"dynamics.tau_points={_SWEEP_TAUS}", "--seed", SEED, "--out", OUT,
                    ),
                    tables=("trajectories.csv", "emergence.csv"),
                    cells=_SWEEP_DIM * _SWEEP_TAUS,
                ),
            ),
            warmup=Command(("emergence", "--set", "model.dim=8", "--set", "dynamics.tau_points=16", "--out", OUT)),
            tables_depend_on_seed=False,
        ),
        # Tau-heavy, about as many lambda_gen cells as sweep-1l but no Ei,
        # no psi and JSON emission; the seed draws the log-normal spectrum.
        Workload(
            "kl-2l-json",
            (
                Command(
                    (
                        "kl", "--arch", "two-layer", "--format", "json",
                        "--set", "model.kind=log-normal",
                        "--set", f"model.dim={_KL_DIM}",
                        "--set", f"dynamics.tau_points={_KL_TAUS}",
                        "--seed", SEED, "--out", OUT,
                    ),
                    tables=("kl.json",),
                    cells=_KL_DIM * _KL_TAUS,
                ),
            ),
            warmup=Command(
                (
                    "kl", "--arch", "two-layer", "--format", "json", "--set", "model.kind=log-normal",
                    "--set", "model.dim=8", "--set", "dynamics.tau_points=16", "--out", OUT,
                )
            ),
            tables_depend_on_seed=True,
        ),
        # Oracle-bound: adaptive RK45 in `validate`, fixed-step RK4 in
        # --validate-with-oracle (tau_max=1 keeps a pass near 5 s).  The
        # seed draws the basis of the dense flow; the tables do not use it.
        Workload(
            "oracle",
            (
                Command(("validate", "--suite", "all")),
                Command(
                    (
                        "emergence", "--validate-with-oracle", "--arch", "one-layer",
                        "--set", f"model.dim={_ORACLE_DIM}", "--set", f"dynamics.tau_max={_ORACLE_TAU_MAX}",
                        "--seed", SEED, "--out", OUT,
                    ),
                    tables=("trajectories.csv", "emergence.csv"),
                    oracle=True,
                    cells=_ORACLE_DIM * _ORACLE_TAUS,
                ),
                Command(
                    (
                        "emergence", "--validate-with-oracle", "--arch", "two-layer",
                        "--set", f"model.dim={_ORACLE_DIM}", "--set", f"dynamics.tau_max={_ORACLE_TAU_MAX}",
                        "--seed", SEED, "--out", OUT,
                    ),
                    tables=("trajectories.csv", "emergence.csv"),
                    oracle=True,
                    cells=_ORACLE_DIM * _ORACLE_TAUS,
                ),
            ),
            warmup=Command(("validate", "--suite", "variants")),
            tables_depend_on_seed=False,
        ),
    )
}
