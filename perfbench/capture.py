"""Capture the compact table references that the gate compares against.

    python3 perfbench/capture.py

Run from the root of a checkout whose outputs are trusted.  Each
workload's commands run once at lindiff's default seed, and for every
table the header, the row count and a fixed sample of rows are written
to ``perfbench/reference/<workload>.json``.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
from run import OUT, REFERENCE_DIR, RUN_LIMIT_S, SCRATCH, now, run_command
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for workload in WORKLOADS.values():
            commands = []
            for cmd in workload.commands:
                run = run_command(cmd, DEFAULT_SEED, None, now() + RUN_LIMIT_S)
                if not run.ok:
                    print(f"error: {cmd.label}: {run.problems}", file=sys.stderr)
                    return 1
                tables = {name: gate.capture(gate.read_table(OUT / name)[0]) for name in cmd.tables}
                commands.append({"label": cmd.label, "tables": tables})
            payload = {"workload": workload.name, "seed": DEFAULT_SEED, "commands": commands}
            path = REFERENCE_DIR / f"{workload.name}.json"
            path.write_text(json.dumps(payload, indent=1) + "\n")
            print(f"wrote {path}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
