"""Tests of the benchmark itself: trace determinism and robustness, the
reference comparator's tolerance, the stderr rule of the gate, and the
metric names against BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import gate
import run
from tracer import DIRECT_CHILDREN
from workloads import WORKLOADS, Command, Workload

SMALL_SWEEPS = Workload(
    "small-sweeps",
    (
        Command(("emergence", "--set", "model.dim=24", "--set", "dynamics.tau_points=31", "--out", "{out}"),
                tables=("trajectories.csv", "emergence.csv"), cells=24 * 31),
        Command(("kl", "--arch", "two-layer", "--format", "json", "--set", "model.kind=log-normal",
                 "--set", "model.dim=12", "--set", "dynamics.tau_points=40", "--seed", "{seed}", "--out", "{out}"),
                tables=("kl.json",), cells=12 * 40),
    ),
    warmup=Command(("validate", "--suite", "variants")),
    tables_depend_on_seed=True,
)
SMALL_ORACLE = Workload(
    "small-oracle",
    (
        Command(("validate", "--suite", "one-layer")),
        Command(("emergence", "--validate-with-oracle", "--set", "model.dim=4", "--set", "report.sigmas=1",
                 "--set", "dynamics.tau_max=0.1", "--seed", "{seed}", "--out", "{out}"),
                tables=("trajectories.csv", "emergence.csv"), oracle=True),
    ),
    warmup=Command(("validate", "--suite", "variants")),
    tables_depend_on_seed=True,
)


@pytest.fixture(autouse=True)
def scratch(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "IO", tmp_path / "io")


def _counts(metrics: dict) -> dict:
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "B")}


@pytest.mark.parametrize("workload", [SMALL_SWEEPS, SMALL_ORACLE], ids=lambda w: w.name)
def test_traced_counts_repeat_exactly(workload):
    first_runs, first, _ = run.traced_pass(workload, 5, [None] * len(workload.commands))
    second_runs, second, _ = run.traced_pass(workload, 5, [None] * len(workload.commands))
    assert all(r.ok for r in first_runs + second_runs), [r.problems for r in first_runs + second_runs]
    assert _counts(first) == _counts(second)
    counts = _counts(first)
    if workload is SMALL_SWEEPS:
        for key in ("special.ei_series_calls", "special.ei_cf_calls", "special.ei_underflow_calls",
                    "sampler.gv_ei_cells", "dynamics.psi_cells", "metrics.kl_calls", "experiment.emit_rows"):
            assert counts[key] > 0, key
        assert counts["sampler.gv_calls"] == 24 * 31 + 12 * 40
        assert counts["experiment.emit_bytes"] > 0
    else:
        assert counts["integrate.rk4_rhs_evals"] > 0
        assert counts["integrate.rk45_rhs_evals"] > 0


def test_root_span_is_self_time_plus_direct_children():
    _, metrics, _ = run.traced_pass(SMALL_SWEEPS, 0, [None, None])
    children = sum(metrics[k][0] for k in DIRECT_CHILDREN)
    assert metrics["experiment.self_s"][0] > 0
    assert children + metrics["experiment.self_s"][0] == pytest.approx(metrics["experiment.run_s"][0], rel=1e-9)


def _csv_table(rows):
    header = ["mode_index", "lambda_target", "tau", "branch"]
    return gate.Table(header, [",".join(r) for r in rows], is_json=False)


def _perturbed(value: float, rel: float) -> str:
    return f"{value * (1.0 + rel):.17g}"


@pytest.mark.parametrize("rel, accepted", [(1e-11, False), (1e-13, True)])
def test_comparator_tolerance(rel, accepted):
    rows = [[str(k), f"{0.37 * (k + 1):.17g}", f"{1e-4 * 3.1**k:.17g}", "increasing"] for k in range(50)]
    ref = json.loads(json.dumps(gate.capture(_csv_table(rows))))
    k = ref["index"][3]
    rows[k][2] = _perturbed(1e-4 * 3.1**k, rel)
    assert (gate.compare(_csv_table(rows), ref, "t.csv") == []) is accepted

    json_rows = [{"kl": 0.25 * (k + 1), "mode_index": k} for k in range(50)]
    ref = gate.capture(gate.Table(["kl", "mode_index"], json_rows, is_json=True))
    json_rows[k] = {"kl": 0.25 * (k + 1) * (1.0 + rel), "mode_index": k}
    assert (gate.compare(gate.Table(["kl", "mode_index"], json_rows, is_json=True), ref, "t.json") == []) is accepted


def test_comparator_integer_and_text_columns_are_exact():
    rows = [[str(k), "1", "2", "increasing"] for k in range(10)]
    ref = gate.capture(_csv_table(rows))
    rows[ref["index"][1]][3] = "decreasing"
    assert gate.compare(_csv_table(rows), ref, "t.csv")


def test_child_writing_to_stderr_fails_the_gate():
    code = "import sys; sys.stderr.write('warning\\n')"
    rc, _, _, _, stdout, stderr = run.spawn([sys.executable, "-c", code], run.now() + 60)
    assert rc == 0
    problems = gate.check(Command(("simulate",)), rc, stdout, stderr, run.OUT, None)
    assert problems and problems[0].startswith("stderr")


def test_references_cover_every_workload_command():
    for workload in WORKLOADS.values():
        refs = run.references(workload, 0)
        for cmd, ref in zip(workload.commands, refs):
            assert sorted(ref) == sorted(cmd.tables), cmd.label


def _declared(kind: str) -> dict:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_untraced_run_reports_every_end_to_end_metric():
    runs, metrics = run.measure(SMALL_SWEEPS, 5, 0.0, run.now() + 120)
    assert all(r.ok for r in runs), [r.problems for r in runs]
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_run_reports_every_per_layer_metric():
    runs, metrics = run.trace_run(SMALL_ORACLE, 5, run.now() + 120)
    assert all(r.ok for r in runs), [r.problems for r in runs]
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("per_layer")
    assert metrics["oracle.max_rel_dev"][0] > 0


def test_trace_survives_a_deleted_name_and_a_failing_hook(monkeypatch, capsys):
    import lindiff.experiment
    import tracer

    monkeypatch.delattr(lindiff.experiment, "two_layer_psi")  # one-layer runs never look it up
    monkeypatch.setattr(tracer.Tracer, "_observe_crossing", lambda self, args, out: 1 / 0)
    workload = Workload("one-layer", SMALL_SWEEPS.commands[:1], SMALL_SWEEPS.warmup, True)
    runs, metrics, _ = run.traced_pass(workload, 0, [None])
    assert all(r.ok for r in runs), [r.problems for r in runs]
    notes = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert notes == {"absent": ["experiment.two_layer_psi"], "unobserved": ["experiment.emergence_time"]}
    assert metrics["dynamics.psi_calls"][0] == 24 * 31 * 3
