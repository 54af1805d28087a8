"""Command-line entry point.

Subcommands: simulate (weight trajectories and generated variances over
tau), emergence (first-passage times + power-law fits; the full
pipeline), kl (per-mode KL over tau), validate (oracle cross-checks).
Exit codes: 0 success, 1 validation/tolerance failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiment import ConfigError, ExperimentConfig, parse_config_text, run_experiment
from .integrate import IntegrationError

_STAGES = {
    "simulate": frozenset({"trajectories"}),
    "emergence": frozenset({"trajectories", "emergence"}),
    "kl": frozenset({"kl"}),
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--format", choices=["csv", "json"], default=None, help="table format")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lindiff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("simulate", "closed-form weight trajectories and generated variances"),
        ("emergence", "emergence times and power-law fits (full pipeline)"),
        ("kl", "per-mode KL divergence over training time"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.add_argument("--data", type=str, default=None, help="CSV or binary sample matrix")
        p.add_argument("--arch", choices=["one-layer", "two-layer"], default=None)
        if name == "emergence":
            p.add_argument(
                "--validate-with-oracle",
                action="store_true",
                help="cross-check closed forms against gradient-flow integration",
            )
        p.set_defaults(handler=_run_pipeline, stages=_STAGES[name])

    v = sub.add_parser("validate", help="closed-form vs oracle cross-check suites")
    v.add_argument("--suite", default="all", help="one-layer|two-layer|mean-cov|conv|variants|all")
    v.set_defaults(handler=_run_validate)
    return parser


def _flat_config(args) -> dict[str, str]:
    flat: dict[str, str] = {}
    if args.config:
        flat.update(parse_config_text(Path(args.config).read_text()))
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        flat[key.strip()] = value.strip()
    if args.seed is not None:
        flat["run.seed"] = str(args.seed)
    if args.out is not None:
        flat["run.out"] = args.out
    if args.format is not None:
        flat["run.format"] = args.format
    if getattr(args, "data", None):
        flat["model.kind"] = "data"
        flat["model.data"] = args.data
    if getattr(args, "arch", None):
        flat["arch.kind"] = args.arch
    if getattr(args, "validate_with_oracle", False):
        flat["run.validate_with_oracle"] = "true"
    return flat


def _run_pipeline(args) -> int:
    cfg = ExperimentConfig.from_flat(_flat_config(args))
    manifest = run_experiment(cfg, stages=args.stages)
    oracle = manifest.get("oracle")
    if oracle is not None:
        status = "ok" if oracle["passed"] else "tolerance exceeded"
        print(
            f"oracle check: max relative deviation {oracle['max_rel_deviation']:.3e} "
            f"(tolerance {oracle['tolerance']:.1e}) -> {status}"
        )
        if not oracle["passed"]:
            return 1
    print(f"wrote {', '.join(manifest['outputs'])} to {cfg.out_dir}")
    return 0


def _run_validate(args) -> int:
    from .validation import run_suite  # only validate compiles the suites

    try:
        results = run_suite(args.suite)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<12} max deviation {r.deviation:.3e}  (tolerance {r.tolerance:.1e})  {status}")
        failed |= not r.passed
    print("seconds: " + ", ".join(f"{r.name} {r.seconds:.3f}" for r in results))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
