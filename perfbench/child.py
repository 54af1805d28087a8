"""Run one `lindiff` command the way the console script does.

    python3 perfbench/child.py STAMP [lindiff arguments...]

Imports ``lindiff.cli`` from the checkout's ``src/``, writes the
CLOCK_MONOTONIC time at which that import finished to the file STAMP,
then calls the CLI entry with the remaining arguments and exits with
its code.  With no lindiff arguments it stops after the import, which
makes it a set-up probe.
"""

import sys
import time
from pathlib import Path

stamp, argv = sys.argv[1], sys.argv[2:]
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lindiff.cli  # noqa: E402

Path(stamp).write_text(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
if argv:
    sys.exit(lindiff.cli.main(argv))
