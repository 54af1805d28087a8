"""Benchmark runner for `lindiff`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/``.  With ``--trace 0`` each workload command runs in a fresh
child process, one at a time, and the end-to-end metrics are printed.
With ``--trace 1`` one untraced pass runs in children, then one traced
pass runs in this process and the per-layer metrics are printed.  Every
command goes through the correctness gate in gate.py.  The last line of
stdout is the JSON result; the lines before it record each command and
the run environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import gate
from workloads import DEFAULT_SEED, WORKLOADS, Command, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE_DIR = HERE / "reference"
SCRATCH = ROOT / ".perfbench_out"
OUT = SCRATCH / "out"
IO = SCRATCH / "io"

# Set-up probes after each pass: children that only import lindiff.cli.
SETUP_PROBES = 2
# Untraced passes whose median is the baseline of trace.overhead_s.
UNTRACED_PASSES = 3
# A run must end within 180 s; children still running by then are killed.
RUN_LIMIT_S = 170.0


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class CommandRun:
    label: str
    wall_s: float
    setup_s: float | None
    rss_mib: float
    out_bytes: int
    returncode: int
    stdout: str = field(repr=False)
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def spawn(argv: list[str], deadline: float) -> tuple[int, float, float | None, float, str, str]:
    """Run one child to its exit.

    Returns (exit code, wall seconds, set-up seconds or None, peak RSS in
    MiB, stdout, stderr).  Peak RSS comes from ``wait4`` on this child
    alone, not from RUSAGE_CHILDREN, which is a maximum over all children.
    """
    IO.mkdir(parents=True, exist_ok=True)
    stamp = IO / "stamp"
    stamp.unlink(missing_ok=True)
    with open(IO / "stdout", "w+") as so, open(IO / "stderr", "w+") as se:
        t0 = now()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = now() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        so.seek(0)
        se.seek(0)
        stdout, stderr = so.read(), se.read()
    setup = float(stamp.read_text()) - t0 if stamp.is_file() else None
    return proc.returncode, wall, setup, usage.ru_maxrss / 1024.0, stdout, stderr


def fresh_out() -> Path:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    return OUT


def out_bytes() -> int:
    return sum(f.stat().st_size for f in OUT.rglob("*") if f.is_file())


def run_command(cmd: Command, seed: int, reference: dict | None, deadline: float) -> CommandRun:
    """One command in a fresh child, then the gate on its outputs."""
    out = fresh_out()
    argv = [sys.executable, str(CHILD), str(IO / "stamp"), *cmd.argv(seed, str(out))]
    rc, wall, setup, rss, stdout, stderr = spawn(argv, deadline)
    problems = gate.check(cmd, rc, stdout, stderr, out, reference)
    return CommandRun(cmd.label, wall, setup, rss, out_bytes(), rc, stdout, problems)


def setup_probe(deadline: float) -> float | None:
    rc, _, setup, _, _, stderr = spawn([sys.executable, str(CHILD), str(IO / "stamp")], deadline)
    return setup if rc == 0 and not stderr else None


def references(workload: Workload, seed: int) -> list[dict | None]:
    """The reference tables of each command, or None where none applies."""
    if workload.tables_depend_on_seed and seed != DEFAULT_SEED:
        return [None] * len(workload.commands)
    path = REFERENCE_DIR / f"{workload.name}.json"
    captured = json.loads(path.read_text())["commands"]
    if [c["label"] for c in captured] != [c.label for c in workload.commands]:
        raise SystemExit(f"error: {path} was captured for other commands; run perfbench/capture.py")
    return [c["tables"] for c in captured]


def report(run: CommandRun, phase: str) -> None:
    record = {k: v for k, v in asdict(run).items() if k != "stdout"}
    record["phase"] = phase
    record["ok"] = run.ok
    print(json.dumps(record))


def warm_up(workload: Workload, seed: int, deadline: float) -> CommandRun:
    """One untimed command, so that .pyc compilation is not timed."""
    run = run_command(workload.warmup, seed, None, deadline)
    report(run, "warmup")
    return run


def run_pass(workload: Workload, seed: int, refs: list, deadline: float, phase: str) -> list[CommandRun]:
    done = [run_command(c, seed, r, deadline) for c, r in zip(workload.commands, refs)]
    for r in done:
        report(r, phase)
    return done


def measure(workload: Workload, seed: int, seconds: float, deadline: float) -> tuple[list[CommandRun], dict]:
    """Untraced run: a warm-up, then whole passes for ``seconds``, each
    followed by set-up probes."""
    refs = references(workload, seed)
    runs = [warm_up(workload, seed, deadline)]
    setups: list[float | None] = []
    passes: list[list[CommandRun]] = []
    start = now()
    while True:
        passes.append(run_pass(workload, seed, refs, deadline, f"pass{len(passes)}"))
        setups += [setup_probe(deadline) for _ in range(SETUP_PROBES)]
        elapsed = now() - start
        per_pass = elapsed / len(passes)
        if elapsed + per_pass > seconds or now() + per_pass > deadline:
            break
    runs += [r for p in passes for r in p]
    setups = [s for s in setups + [r.setup_s for r in runs[1:]] if s is not None]
    if not setups:
        raise SystemExit("error: no child finished importing lindiff.cli")
    cells = sum(c.cells for c in workload.commands)
    wall = statistics.median(sum(r.wall_s for r in p) for p in passes)
    metrics = {
        "wall_s": (wall, "s"),
        "cells_per_s": (cells / wall, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(max(r.rss_mib for r in p) for p in passes), "MiB"),
        "out_mb": (statistics.median(sum(r.out_bytes for r in p) / 1e6 for p in passes), "MB"),
        "pass_frac": (sum(r.ok for r in runs) / len(runs), "ratio"),
    }
    return runs, metrics


def traced_pass(workload: Workload, seed: int, refs: list) -> tuple[list[CommandRun], dict, float]:
    """All commands in this process under the tracer."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lindiff.cli
    from tracer import Tracer, layer_metrics

    runs, wall = [], 0.0
    with Tracer() as tracer:
        for cmd, ref in zip(workload.commands, refs):
            out = fresh_out()
            stdout, stderr = io.StringIO(), io.StringIO()
            t0 = now()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    rc = lindiff.cli.main(cmd.argv(seed, str(out)))
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash fails the gate; the run goes on
                    traceback.print_exc()
                    rc = 1
            dt = now() - t0
            wall += dt
            problems = gate.check(cmd, rc, stdout.getvalue(), stderr.getvalue(), out, ref)
            runs.append(CommandRun(cmd.label, dt, None, 0.0, out_bytes(), rc, stdout.getvalue(), problems))
    if tracer.trace.absent or tracer.trace.unobserved:
        print(json.dumps({"absent": tracer.trace.absent, "unobserved": sorted(tracer.trace.unobserved)}))
    return runs, layer_metrics(tracer.trace), wall


def trace_run(workload: Workload, seed: int, deadline: float) -> tuple[list[CommandRun], dict]:
    """Traced run: a warm-up, UNTRACED_PASSES passes in children, then
    one pass in this process under the tracer."""
    refs = references(workload, seed)
    runs = [warm_up(workload, seed, deadline)]
    baselines = []
    for i in range(UNTRACED_PASSES):
        done = run_pass(workload, seed, refs, deadline, f"untraced{i}")
        runs += done
        # Interpreter start-up is left out on both sides: the children are
        # timed from the import of lindiff.cli to exit.
        baselines.append(sum(r.wall_s - (r.setup_s or 0.0) for r in done))
    traced, metrics, traced_wall = traced_pass(workload, seed, refs)
    for r in traced:
        report(r, "traced")
    runs += traced
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(baselines), "s")
    devs = [gate.oracle_deviation(r.stdout) for r in traced]
    metrics["oracle.max_rel_dev"] = (max([d for d in devs if d is not None], default=0.0), "ratio")
    return runs, metrics


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "commit": "unknown (not a git checkout)",
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError, ValueError):
        env["blas"] = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            env["commit"] = git.stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            env["commit"] = "unknown"
    return env


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lindiff" / "cli.py").is_file():
        print(f"error: no lindiff sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    deadline = now() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        if args.trace:
            runs, metrics = trace_run(workload, args.seed, deadline)
        else:
            runs, metrics = measure(workload, args.seed, args.seconds, deadline)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    failed = sum(not r.ok for r in runs)
    print(json.dumps({"workload": workload.name, "seed": args.seed, "environment": environment()}))
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
