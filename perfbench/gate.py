"""Correctness gate for one `lindiff` command, and the compact table
references it compares against.

A command passes only if it exits 0, writes nothing to stderr, every
numeric cell of its tables is finite, an oracle check line (when
expected) ends in ``ok``, every ``validate`` suite passes, and, where a
reference applies, its tables match the reference: same header, same
row count and the same sampled rows.  Float cells must agree to
``REL_TOL`` relative; integer and text cells must match exactly.
"""

from __future__ import annotations

import json
import math
import random
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# ROADMAP's bound for a faster path against the path it replaces.
REL_TOL = 1e-12
INT_COLUMNS = frozenset({"mode_index", "excluded_flag"})
TEXT_COLUMNS = frozenset({"branch"})

ORACLE_LINE = re.compile(r"^oracle check: max relative deviation (\S+) \(tolerance \S+\) -> (.+)$", re.M)
SUITE_LINE = re.compile(r"^(\S+)\s+max deviation \S+\s+\(tolerance \S+\)\s+(PASS|FAIL)$", re.M)


@dataclass
class Table:
    header: list[str]
    rows: list  # CSV: one text line per row; JSON: one dict per row
    is_json: bool

    def row(self, i: int) -> list:
        if self.is_json:
            return [self.rows[i].get(h) for h in self.header]
        return self.rows[i].split(",")


def read_table(path: Path) -> tuple[Table, list[str]]:
    """Load a table and list its non-finite or unparsable cells."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        if not isinstance(payload, list) or not payload or not isinstance(payload[0], dict):
            return Table([], [], True), [f"{path.name}: not a non-empty list of rows"]
        table = Table(list(payload[0]), payload, True)
        return table, _json_problems(table, path.name)
    lines = path.read_text().splitlines()
    table = Table(lines[0].split(",") if lines else [], lines[1:], False)
    return table, _csv_problems(table, path.name)


def _csv_problems(table: Table, name: str) -> list[str]:
    width = len(table.header)
    if width == 0 or not table.rows:
        return [f"{name}: empty table"]
    if not TEXT_COLUMNS.intersection(table.header):
        # Every column is numeric: parse all cells at once.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = np.fromstring(",".join(table.rows), sep=",")
            except (DeprecationWarning, ValueError):
                values = np.empty(0)
        if values.size != width * len(table.rows):
            return [f"{name}: {width * len(table.rows) - values.size} cells missing or unparsable"]
        bad = int(np.count_nonzero(~np.isfinite(values)))
        return [f"{name}: {bad} non-finite cells"] if bad else []
    problems = []
    numeric = [i for i, h in enumerate(table.header) if h not in TEXT_COLUMNS]
    for r, line in enumerate(table.rows):
        cells = line.split(",")
        if len(cells) != width:
            problems.append(f"{name}: row {r} has {len(cells)} cells, header has {width}")
            continue
        for i in numeric:
            # An empty cell is a missing value (a mode that never crosses).
            if cells[i] and not _finite_text(cells[i]):
                problems.append(f"{name}: row {r} {table.header[i]}={cells[i]!r} is not finite")
    return problems[:10]


def _finite_text(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _json_problems(table: Table, name: str) -> list[str]:
    problems = []
    for r, row in enumerate(table.rows):
        if list(row) != table.header:
            problems.append(f"{name}: row {r} has keys {sorted(row)}")
            continue
        for key, v in row.items():
            if isinstance(v, float) and not math.isfinite(v):
                problems.append(f"{name}: row {r} {key}={v} is not finite")
    return problems[:10]


def nonfinite_numbers(payload) -> int:
    """Count non-finite floats anywhere in a parsed JSON document."""
    if isinstance(payload, float):
        return 0 if math.isfinite(payload) else 1
    if isinstance(payload, dict):
        return sum(nonfinite_numbers(v) for v in payload.values())
    if isinstance(payload, list):
        return sum(nonfinite_numbers(v) for v in payload)
    return 0


def sample_index(n_rows: int) -> list[int]:
    """Fixed rows to keep in a reference: evenly spaced plus a seeded draw."""
    idx = set(np.linspace(0, n_rows - 1, min(n_rows, 40)).round().astype(int).tolist())
    idx |= set(random.Random(2503).sample(range(n_rows), min(n_rows, 24)))
    return sorted(idx)


def capture(table: Table) -> dict:
    """Compact reference of a table: header, row count and sampled rows."""
    index = sample_index(len(table.rows))
    return {
        "header": table.header,
        "rows": len(table.rows),
        "index": index,
        "sample": [table.row(i) for i in index],
    }


def cells_match(column: str, expected, got) -> bool:
    if column in TEXT_COLUMNS:
        return str(expected) == str(got)
    if column in INT_COLUMNS:
        try:
            return int(expected) == int(got)
        except (TypeError, ValueError):
            return False
    if expected in ("", None) or got in ("", None):
        return expected == got
    try:
        a, b = float(expected), float(got)
    except (TypeError, ValueError):
        return False
    if a == b:
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare(table: Table, ref: dict, name: str) -> list[str]:
    """Differences between a table and its reference; empty when they match."""
    if table.header != ref["header"]:
        return [f"{name}: header {table.header} != reference {ref['header']}"]
    if len(table.rows) != ref["rows"]:
        return [f"{name}: {len(table.rows)} rows, reference has {ref['rows']}"]
    problems = []
    for i, expected in zip(ref["index"], ref["sample"]):
        got = table.row(i)
        if len(got) != len(expected):
            problems.append(f"{name}: row {i} has {len(got)} cells, reference has {len(expected)}")
            continue
        for column, e, g in zip(table.header, expected, got):
            if not cells_match(column, e, g):
                problems.append(f"{name}: row {i} {column}={g!r}, reference {e!r}")
    return problems[:10]


def check(cmd, returncode: int, stdout: str, stderr: str, out_dir: Path, reference: dict | None) -> list[str]:
    """Every reason this command's run fails the gate; empty when it passes.

    ``reference`` maps table names to captured references, or is None
    when no reference applies to this run.
    """
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if stderr:
        problems.append(f"stderr: {stderr.strip()[:200]!r}")
    if cmd.oracle:
        m = ORACLE_LINE.search(stdout)
        if m is None or m.group(2) != "ok":
            problems.append(f"oracle check not ok: {m.group(0) if m else 'no oracle line'}")
    if cmd.args[0] == "validate":
        suites = SUITE_LINE.findall(stdout)
        if not suites or any(status != "PASS" for _, status in suites):
            problems.append(f"validate suites not all PASS: {suites}")
    for name in cmd.tables:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: not written")
            continue
        table, bad = read_table(path)
        problems += bad
        if reference is not None and not bad:
            problems += compare(table, reference[name], name)
    fit = out_dir / "fit.json"
    if fit.is_file() and nonfinite_numbers(json.loads(fit.read_text())):
        problems.append("fit.json: non-finite numbers")
    return problems


def oracle_deviation(stdout: str) -> float | None:
    m = ORACLE_LINE.search(stdout)
    return float(m.group(1)) if m else None
