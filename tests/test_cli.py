import argparse
import contextlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lindiff import cli, experiment, oracle, sampler
from lindiff.analysis import CRITERIA
from lindiff.cli import build_parser, main
from lindiff.experiment import (
    _CHUNK_ROWS,
    _SPLIT_CHUNKS,
    ARCHS,
    FORMATS,
    ConfigError,
    ExperimentConfig,
    _cell,
    _emit_table,
    _oracle_work,
    parse_config_text,
    run_experiment,
)
from lindiff.gaussian import SpectrumSpec, make_covariance
from lindiff.integrate import IntegrationError
from lindiff.sampler import NoiseSchedule
from lindiff.special import ein, expint_ei


def _count_flow_calls(monkeypatch) -> list:
    """A list that gains one entry for each right-hand-side call of every
    oracle flow, counted by wrapping ``f`` on its way into the integrator."""
    calls = []

    def counted(path):
        return lambda f, *args, **kwargs: path(lambda t, y: calls.append(t) or f(t, y), *args, **kwargs)

    monkeypatch.setattr(oracle, "rk4_path", counted(oracle.rk4_path))
    monkeypatch.setattr(oracle, "rk45_path", counted(oracle.rk45_path))
    return calls


class TestConfigParsing:
    def test_flat_key_values_with_comments(self):
        text = """
        # a comment
        model.kind = log-spaced
        model.dim = 8   # trailing comment
        dynamics.eta = 2.0
        """
        flat = parse_config_text(text)
        assert flat["model.kind"] == "log-spaced"
        assert flat["model.dim"] == "8"
        cfg = ExperimentConfig.from_flat(flat)
        assert cfg.dim == 8 and cfg.eta == 2.0

    @pytest.mark.parametrize(
        "key, values",
        [("analysis.criterion", CRITERIA), ("model.kind", tuple(experiment._SPECTRUM_KEYS))],
    )
    def test_key_values_are_the_declared_vocabulary(self, key, values):
        # explicit and data spectra also need their own model.* keys
        companions = {"model.dim": "2", "model.values": "1,2", "model.data": "samples.npy"}
        field = experiment._KEYS[key][0]
        for value in values:
            assert getattr(ExperimentConfig.from_flat({key: value, **companions}), field) == value
        with pytest.raises(ConfigError, match=rf"^{key}: .*\(expected one of {', '.join(values)}\)$"):
            ExperimentConfig.from_flat({key: "other"})

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("not a key value pair")

    def test_field_path_in_errors(self):
        with pytest.raises(ConfigError, match="analysis.gray_zone.lower"):
            ExperimentConfig.from_flat({"analysis.gray_zone.lower": "1.5"})
        with pytest.raises(ConfigError, match="arch.kind"):
            ExperimentConfig.from_flat({"arch.kind": "three-layer"})
        with pytest.raises(ConfigError, match="dynamics.eta"):
            ExperimentConfig.from_flat({"dynamics.eta": "-1"})
        with pytest.raises(ConfigError, match="model.values"):
            ExperimentConfig.from_flat({"model.kind": "explicit"})
        for key, value in [
            ("model.dimm", "64"),
            ("schedule.rho", "5"),
            ("schedule.steps", "40"),
            ("arch.q_init", "nan"),
            ("dynamics.eta", "nan"),
            ("dynamics.tau_max", "inf"),
            ("report.sigmas", "abc"),
            ("report.sigmas", "-1"),
            ("model.dim", "0"),
            ("model.lo", "-1"),
            ("model.hi", "0"),
            ("dynamics.tau_points", "0"),
            ("dynamics.tau_points", "-3"),
        ]:
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig.from_flat({key: value})
        for flat, key in [
            ({"model.kind": "log-normal", "model.sd": "0"}, "model.sd"),
            ({"model.kind": "explicit", "model.dim": "3", "model.values": "1,2"}, "model.values"),
            ({"model.kind": "explicit", "model.dim": "2", "model.values": "1,-2"}, "model.values"),
            ({"dynamics.tau": "10,1,100,0.1"}, "dynamics.tau"),
            ({"dynamics.tau": "0,1,1,2"}, "dynamics.tau"),
            ({"run.validate_with_oracle": "true", "dynamics.tau_min": "100", "dynamics.tau_max": "1e6"},
             "dynamics.tau_min/dynamics.tau_max"),
            ({"run.validate_with_oracle": "true", "dynamics.tau_max": "1e-4", "dynamics.tau_min": "1e-6"},
             "dynamics.tau_min/dynamics.tau_max"),
            ({"run.validate_with_oracle": "true", "dynamics.tau": "1e-5,1e-4,1e3"}, "dynamics.tau:"),
        ]:
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig.from_flat(flat)
        # parameters of another spectrum kind are not checked
        ExperimentConfig.from_flat({"model.kind": "log-normal", "model.lo": "-1"})
        # a tau window that touches the oracle's [1e-3, 10] still gives a valid oracle grid
        ExperimentConfig.from_flat({"run.validate_with_oracle": "true", "dynamics.tau_min": "10"})
        # an explicit dynamics.tau is checked at its own values inside [1e-3, 10]
        cfg = ExperimentConfig.from_flat({"run.validate_with_oracle": "true", "dynamics.tau": "1e-5,1e-3,1,10,1e3"})
        assert cfg.oracle_taus().tolist() == [1e-3, 1.0, 10.0]
        with pytest.raises(ConfigError, match="dynamics.tau_points"):
            run_experiment(ExperimentConfig(tau_points=1), stages=frozenset({"emergence"}))
        with pytest.raises(ConfigError, match="dynamics.tau:"):
            run_experiment(ExperimentConfig(tau_override=(1.0,)), stages=frozenset({"emergence"}))


class TestRunExperiment:
    def test_minimal_run_emits_four_files(self, tmp_path):
        cfg = ExperimentConfig(dim=8, out_dir=str(tmp_path), tau_points=61)
        manifest = run_experiment(cfg)
        names = {"trajectories.csv", "emergence.csv", "fit.json", "manifest.json"}
        assert names == set(manifest["outputs"])
        for name in names:
            assert (tmp_path / name).exists()
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert 0.9 <= fit["branches"]["increasing"]["alpha"] <= 1.1

    def test_schema_headers(self, tmp_path):
        cfg = ExperimentConfig(dim=4, out_dir=str(tmp_path), tau_points=21)
        run_experiment(cfg)
        traj = (tmp_path / "trajectories.csv").read_text().splitlines()
        assert traj[0] == "mode_index,lambda_target,tau,sigma,psi,lambda_gen"
        emer = (tmp_path / "emergence.csv").read_text().splitlines()
        assert emer[0] == "mode_index,lambda_target,tau_star,branch,excluded_flag"
        assert len(traj) == 1 + 4 * 21 * 3  # modes x taus x sigmas

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cfg = ExperimentConfig(dim=6, out_dir=str(out), tau_points=41, seed=123)
            run_experiment(cfg)
        for name in ("trajectories.csv", "emergence.csv", "fit.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        for m in (m1, m2):
            m.pop("wall_clock_s"), m.pop("stage_seconds")
        assert m1 == m2

    @pytest.mark.parametrize(
        "stages, oracle, timed",
        [
            (("trajectories",), False, ["spectrum", "lambda_gen", "trajectories"]),
            (("trajectories", "emergence"), True, ["spectrum", "lambda_gen", "trajectories", "emergence", "oracle"]),
            (("kl",), False, ["spectrum", "lambda_gen", "kl"]),
        ],
        ids=["simulate", "emergence-oracle", "kl"],
    )
    def test_manifest_times_each_stage_that_ran(self, tmp_path, stages, oracle, timed):
        cfg = ExperimentConfig(dim=4, out_dir=str(tmp_path), tau_points=11, tau_max=10.0, validate_with_oracle=oracle)
        manifest = run_experiment(cfg, stages=frozenset(stages))
        seconds = manifest["stage_seconds"]
        assert list(seconds) == timed
        assert all(s > 0 for s in seconds.values())
        assert sum(seconds.values()) <= manifest["wall_clock_s"]
        if oracle:
            assert manifest["oracle"]["seconds"] == seconds["oracle"]
        assert json.loads((tmp_path / "manifest.json").read_text())["stage_seconds"] == seconds

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["simulate", "emergence", "kl"])
    def test_each_table_length_is_its_written_row_count(self, tmp_path, monkeypatch, command, fmt):
        # perfbench's tracer counts experiment.emit_rows as len() of _emit_table's fifth argument
        lengths = {}

        def recording(*args):
            lengths[args[2]] = len(args[4])
            return _emit_table(*args)

        monkeypatch.setattr(experiment, "_emit_table", recording)
        rc = main([command, "--format", fmt, "--out", str(tmp_path), "--set", "model.kind=log-normal",
                   "--set", "model.dim=5", "--set", "dynamics.tau_points=7"])
        assert rc == 0
        assert set(lengths) == {"simulate": {"trajectories"}, "emergence": {"trajectories", "emergence"},
                                "kl": {"kl"}}[command]
        for name, length in lengths.items():
            text = (tmp_path / f"{name}.{fmt}").read_text()
            rows = len(text.splitlines()) - 1 if fmt == "csv" else len(json.loads(text))
            assert length == rows == {"trajectories": 5 * 7 * 3, "emergence": 5, "kl": 5 * 7}[name]

    def test_simulate_holds_no_python_object_per_row(self, tmp_path):
        # The table costs 48 B per row and one chunk's text a fixed amount; a
        # Python tuple per row adds about 150 B (194 B per row measured so).
        cfg = ExperimentConfig(dim=64, tau_points=241, out_dir=str(tmp_path))
        tracemalloc.start()
        try:
            run_experiment(cfg, stages=frozenset({"trajectories"}))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = 64 * 241 * 3
        assert peak < 150 * rows, f"peak {peak / rows:.0f} B per row"

    def test_each_run_computes_the_lambda_free_ei_terms_again(self, tmp_path, monkeypatch):
        # Every cell takes the Ei branch: 2 eta tau sigma_max^2 >= 128 and
        # 2 eta tau sigma_min^2 <= 8e-4.  Each cell makes two lambda-dependent
        # Ei calls; each (tau, sigma) one lambda-free Ein call, in each run.
        calls = {"ein": [], "expint_ei": []}

        def counted(name, fn):
            def wrapped(x):
                calls[name].append(x)
                return fn(x)
            return wrapped

        monkeypatch.setattr(sampler, "ein", counted("ein", ein))
        monkeypatch.setattr(sampler, "expint_ei", counted("expint_ei", expint_ei))
        dim, taus = 6, (1e-2, 1.0, 100.0)
        tables = []
        for run in ("a", "b"):
            for made in calls.values():
                made.clear()
            run_experiment(ExperimentConfig(dim=dim, tau_override=taus, out_dir=str(tmp_path / run)))
            assert len(calls["ein"]) == 2 * len(taus)
            assert len(calls["expint_ei"]) == 2 * dim * len(taus)
            tables.append({name: (tmp_path / run / name).read_bytes() for name in ("trajectories.csv", "emergence.csv")})
        assert tables[0] == tables[1]

    def test_validate_with_oracle_records_deviation(self, tmp_path):
        cfg = ExperimentConfig(
            dim=4, out_dir=str(tmp_path), tau_points=11, tau_max=10.0,
            report_sigmas=(1.0,), validate_with_oracle=True,
        )
        manifest = run_experiment(cfg)
        assert manifest["oracle"]["passed"]
        assert manifest["oracle"]["max_rel_deviation"] < 1e-6
        assert manifest["oracle"]["seconds"] > 0

    @pytest.mark.parametrize("arch", ARCHS)
    def test_oracle_check_counts_its_flow_calls(self, tmp_path, monkeypatch, arch):
        calls = _count_flow_calls(monkeypatch)
        cfg = ExperimentConfig(arch=arch, dim=3, out_dir=str(tmp_path), tau_points=5, validate_with_oracle=True)
        manifest = run_experiment(cfg)
        assert manifest["oracle"]["rhs_evaluations"] == len(calls) > 0
        assert json.loads((tmp_path / "manifest.json").read_text())["oracle"]["rhs_evaluations"] == len(calls)

    def test_two_layer_oracle_check_is_adaptive(self, tmp_path):
        # 1e-9 separates the adaptive two-layer flow (about 8e-12) from fixed-step RK4 (1.8e-9)
        proc = subprocess.run(
            [sys.executable, "-m", "lindiff.cli", "emergence", "--validate-with-oracle", "--arch", "two-layer",
             "--set", "model.dim=16", "--set", "dynamics.tau_max=1", "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        oracle = json.loads((tmp_path / "manifest.json").read_text())["oracle"]
        assert oracle["passed"]
        assert oracle["max_rel_deviation"] < 1e-9

    def test_two_layer_arch(self, tmp_path):
        cfg = ExperimentConfig(dim=4, arch="two-layer", out_dir=str(tmp_path), tau_points=31)
        manifest = run_experiment(cfg)
        assert "fit.json" in manifest["outputs"]

    def test_json_format(self, tmp_path):
        cfg = ExperimentConfig(dim=3, out_dir=str(tmp_path), tau_points=11, fmt="json")
        run_experiment(cfg)
        rows = json.loads((tmp_path / "trajectories.json").read_text())
        assert rows[0].keys() == {"mode_index", "lambda_target", "tau", "sigma", "psi", "lambda_gen"}

    def test_data_ingestion_path(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(500, 3)) @ np.diag([2.0, 1.0, 0.5])
        path = tmp_path / "data.csv"
        np.savetxt(path, data, delimiter=",")
        cfg = ExperimentConfig(
            model_kind="data", data_path=str(path), out_dir=str(tmp_path / "out"), tau_points=21
        )
        manifest = run_experiment(cfg)
        assert manifest["config"]["model.data"] == str(path)

    @pytest.mark.parametrize("command", ["emergence", "simulate", "kl"])
    def test_data_run_echoes_its_mode_count_as_model_dim(self, tmp_path, command):
        # a data run's mode count is its file's column count, not model.dim's unused default
        data, out = tmp_path / "x.csv", tmp_path / "o"
        data.write_text("1,2,3\n2,4,6\n1,1,1\n3,0,1\n")
        assert main([command, "--arch", "two-layer", "--data", str(data), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        table = next(name for name in manifest["outputs"] if name.startswith(("trajectories", "kl")))
        rows = np.genfromtxt(out / table, delimiter=",", names=True)
        assert manifest["config"]["model.dim"] == len(set(rows["mode_index"])) == 3

    def test_manifest_echoes_every_key_but_the_output_directory(self, tmp_path):
        flat = {
            "model.kind": "explicit", "model.dim": "3", "model.lo": "0.01", "model.hi": "5",
            "model.mu": "0.5", "model.sd": "2", "model.values": "1,2,3", "model.normalize": "yes",
            "model.data": "unused.csv", "arch.kind": "two-layer", "arch.q_init": "0.2",
            "dynamics.eta": "2", "dynamics.tau_min": "0.01", "dynamics.tau_max": "10",
            "dynamics.tau_points": "5", "dynamics.tau": "1,2", "report.sigmas": "0.5",
            "schedule.sigma_min": "0.01", "schedule.sigma_max": "50", "analysis.criterion": "harmonic",
            "analysis.gray_zone.lower": "0.4", "analysis.gray_zone.upper": "3",
            "run.seed": "4", "run.out": str(tmp_path), "run.format": "json",
            "run.validate_with_oracle": "false",
        }
        run_experiment(ExperimentConfig.from_flat(flat), stages=frozenset({"kl"}))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["config"]) == set(flat) - {"run.out"}
        assert manifest["config"]["dynamics.tau"] == [1.0, 2.0]
        assert manifest["config"]["schedule.sigma_max"] == 50.0

    def test_emergence_json_cells_are_numbers_or_null(self, tmp_path):
        cfg = ExperimentConfig(dim=6, out_dir=str(tmp_path), tau_min=1e-4, tau_max=1e-1, tau_points=11, fmt="json")
        run_experiment(cfg)
        rows = json.loads((tmp_path / "emergence.json").read_text())
        for column in ("lambda_target", "tau_star"):
            assert all(isinstance(row[column], float) or row[column] is None for row in rows), column
        assert any(row["tau_star"] is None for row in rows)
        assert any(isinstance(row["tau_star"], float) for row in rows)


def _table(columns: dict) -> np.ndarray:
    """The writer's input: a structured array with one field per
    ``name: (dtype, values)`` entry, filled one field at a time."""
    n = len(next(iter(columns.values()))[1])
    table = np.empty(n, dtype=[(name, dtype) for name, (dtype, _) in columns.items()])
    for name, (dtype, values) in columns.items():
        table[name] = np.fromiter(values, dtype, n)  # fromiter keeps each list one object
    return table


def _rows(columns: dict) -> list[tuple]:
    """The rows of the ``name: (dtype, values)`` columns, as the Python values given."""
    return list(zip(*(values for _, values in columns.values())))


def _json_text(payload: list) -> str:
    """A JSON table's text for ``payload``, a list of dicts: ``[``, each row's
    compact ``json.dumps`` with sorted keys on a line of its own, ``]``."""
    if not payload:
        return "[]\n"
    return "[\n" + ",\n".join(json.dumps(row, sort_keys=True, separators=(",", ":")) for row in payload) + "\n]\n"


class TestCsvWriter:
    def test_rows_match_cell_by_cell_formatting_byte_for_byte(self, tmp_path):
        specials = [-0.0, 5e-324, 1e308, float("nan"), float("inf"), -float("inf"), 0.1, 1 / 3, -2.5e-300]
        n = len(specials)
        columns = {
            "int": (int, [k - 3 for k in range(n)]),
            "int64": (np.int64, [np.int64(-(2**62) + k) for k in range(n)]),
            "bool": (bool, [k % 2 == 0 for k in range(n)]),
            "str": (object, ["increasing" if k % 2 else "decreasing" for k in range(n)]),
            "float": (float, specials),
            "float64": (float, [np.float64(v) for v in reversed(specials)]),
            "none": (object, [None if k % 3 == 0 else specials[k] for k in range(n)]),
            "mixed": (object, [k if k % 2 else specials[k] for k in range(n)]),
        }
        header = list(columns)
        table, rows = _table(columns), _rows(columns)
        cfg = ExperimentConfig(out_dir=str(tmp_path))
        assert _emit_table(cfg, tmp_path, "t", header, table) == "t.csv"
        want = "\n".join([",".join(header)] + [",".join(map(_cell, row)) for row in rows]) + "\n"
        assert (tmp_path / "t.csv").read_bytes() == want.encode()
        first = (tmp_path / "t.csv").read_text().splitlines()[1].split(",")
        assert first[2] == "True" and first[4] == "-0.0" and first[6] == ""
        assert _emit_table(cfg, tmp_path, "empty", header, table[:0]) == "empty.csv"
        assert (tmp_path / "empty.csv").read_text() == ",".join(header) + "\n"

    def test_repeated_floats_keep_their_own_text(self, tmp_path):
        values = _repeated_floats(_CHUNK_ROWS + 5)
        cfg = ExperimentConfig(out_dir=str(tmp_path))
        _emit_table(cfg, tmp_path, "t", ["x"], _table({"x": (float, values)}))
        want = "\n".join(["x"] + [_cell(v) for v in values]) + "\n"
        assert (tmp_path / "t.csv").read_bytes() == want.encode()
        assert (tmp_path / "t.csv").read_text().splitlines()[1 + _CHUNK_ROWS : 3 + _CHUNK_ROWS] == ["-0.0", "0.0"]

    def test_every_float_cell_is_the_shortest_text_of_its_bits(self, tmp_path):
        specials = [-0.0, 0.0, 5e-324, 1e308, -2.5e-300, 0.1, 1 / 3, 100.0, float("nan"), float("inf"), -float("inf")]
        bits = np.random.default_rng(0).integers(0, 2**64, 2000, dtype=np.uint64, endpoint=False)
        drawn = bits.view(float)[np.isfinite(bits.view(float))]  # every exponent, both signs
        values = np.concatenate([specials, drawn, np.random.default_rng(1).lognormal(size=500)])
        n = len(values)
        columns = {"float": (float, values), "none": (object, [None if k % 7 == 0 else v for k, v in enumerate(values.tolist())])}
        _emit_table(ExperimentConfig(out_dir=str(tmp_path)), tmp_path, "t", list(columns), _table(columns))
        header, *lines = (tmp_path / "t.csv").read_text().splitlines()
        assert header == "float,none" and len(lines) == n
        for j, (_, column) in enumerate(columns.values()):
            for line, value in zip(lines, column):
                cell = line.split(",")[j]
                if value is None:
                    assert cell == ""
                    continue
                assert np.float64(cell).tobytes() == np.float64(value).tobytes(), cell
                if math.isfinite(value):  # no text with fewer significant digits parses back to these bits
                    digits = len(cell.split("e")[0].lstrip("-").replace(".", "").strip("0")) or 1
                    fewest = next(k for k in range(1, 18) if np.float64(f"{value:.{k}g}").tobytes() == np.float64(value).tobytes())
                    assert digits == fewest, cell

    def test_simulate_csv_and_json_write_the_same_float_text(self, tmp_path):
        tables = {}
        for fmt in ("csv", "json"):
            rc = main(["simulate", "--format", fmt, "--out", str(tmp_path / fmt), "--set", "model.dim=3",
                       "--set", "dynamics.tau=0,1e-3,1,1e3", "--set", "report.sigmas=0.1,1,80"])
            assert rc == 0
            tables[fmt] = (tmp_path / fmt / f"trajectories.{fmt}").read_text()
        header, *lines = tables["csv"].splitlines()
        rows = json.loads(tables["json"], parse_float=str)  # each float as the text the file holds
        assert len(rows) == len(lines) == 3 * 4 * 3
        for line, row in zip(lines, rows):
            assert line.split(",") == [str(row[key]) for key in header.split(",")]
        assert "0.1" in tables["csv"].split(",") and "0.0" in tables["csv"].split(",")


def _repeated_floats(n: int) -> list:
    """A float column of repeated values: both zeros in both orders, two NaN
    objects, and equal float and np.float64 values; the chunk after the
    first starts with -0.0 so that each chunk meets the zeros in its own order."""
    values = [0.0, -0.0, -0.0, 0.0, 1 / 3, np.float64(1 / 3), float("nan"), float("nan"), 2.5, 2.5, np.float64(0.0)]
    column = [values[k % len(values)] for k in range(n)]
    column[_CHUNK_ROWS : _CHUNK_ROWS + 2] = [-0.0, 0.0]
    return column


class TestJsonWriter:
    def test_rows_match_json_dumps_byte_for_byte(self, tmp_path):
        specials = [-0.0, 5e-324, 1e308, float("nan"), float("inf"), -float("inf"), 0.1, 1 / 3, -2.5e-300]
        n = len(specials)
        texts = ['say "hi"', "back\\slash", "100% sure", "caf\u00e9 \u03c4*", "", "tab\tnew\nline", "%s", "a", "z"]
        columns = {
            "int": (int, [k - 3 for k in range(n)]),
            "str": (object, texts),
            "float": (float, specials),
            "float64": (float, [np.float64(v) for v in reversed(specials)]),
            "none": (object, [None if k % 3 == 0 else specials[k] for k in range(n)]),
            "%d \"key\" \u00e9": (float, [k / 7 for k in range(n)]),
        }
        header = list(columns)
        table, rows = _table(columns), _rows(columns)
        cfg = ExperimentConfig(out_dir=str(tmp_path), fmt="json")
        assert _emit_table(cfg, tmp_path, "t", header, table) == "t.json"
        want = _json_text([dict(zip(header, row)) for row in rows])
        assert (tmp_path / "t.json").read_bytes() == want.encode()
        first = json.loads((tmp_path / "t.json").read_text())[0]
        assert first["int"] == -3 and first["none"] is None and first["str"] == 'say "hi"'
        assert _emit_table(cfg, tmp_path, "empty", header, table[:0]) == "empty.json"
        assert (tmp_path / "empty.json").read_text() == "[]\n"

    @pytest.mark.parametrize("command, table", [("simulate", "trajectories"), ("emergence", "emergence"), ("kl", "kl")])
    def test_cli_tables_hold_one_compact_row_per_line(self, tmp_path, command, table):
        # tau up to 0.1 only: some modes never cross, so the emergence table holds nulls
        settings = ["--set", "model.dim=6", "--set", "dynamics.tau_min=1e-4", "--set", "dynamics.tau_max=1e-1",
                    "--set", "dynamics.tau_points=11"]
        texts = {}
        for fmt in FORMATS:
            assert main([command, "--format", fmt, "--out", str(tmp_path / fmt), *settings]) == 0
            texts[fmt] = (tmp_path / fmt / f"{table}.{fmt}").read_text()
        rows = json.loads(texts["json"])
        lines = texts["json"].splitlines()
        assert texts["json"] == _json_text(rows) and len(lines) == len(rows) + 2
        assert [json.loads(line.removesuffix(",")) for line in lines[1:-1]] == rows
        header, *csv_lines = texts["csv"].splitlines()
        assert len(csv_lines) == len(rows)
        for line, row in zip(csv_lines, rows):
            for cell, value in zip(line.split(","), (row[key] for key in header.split(","))):
                if isinstance(value, float):  # the same bits
                    assert np.float64(cell).tobytes() == np.float64(value).tobytes(), (cell, value)
                else:
                    assert cell == ("" if value is None else str(value)), (cell, value)
        assert ('"tau_star":null' in texts["json"]) is (command == "emergence")
        empty = _table({key: (float, []) for key in header.split(",")})
        cfg = ExperimentConfig(out_dir=str(tmp_path), fmt="json")
        assert (tmp_path / _emit_table(cfg, tmp_path, "empty", header.split(","), empty)).read_text() == "[]\n"

    def test_repeated_floats_keep_their_own_text(self, tmp_path):
        values = _repeated_floats(_CHUNK_ROWS + 5)
        cfg = ExperimentConfig(out_dir=str(tmp_path), fmt="json")
        _emit_table(cfg, tmp_path, "t", ["x"], _table({"x": (float, values)}))
        want = _json_text([{"x": v} for v in values])
        assert (tmp_path / "t.json").read_bytes() == want.encode()


def _boundary_columns(n: int) -> dict:
    """n rows of the cell kinds the program writes: int, float64, and object
    cells holding None, str or float.  "late-float" holds strs in the first
    chunk and floats after it, "late-none" a None in the last row only, so
    that a later chunk of an object column holds other kinds than the first."""
    specials = [-0.0, 5e-324, 1e308, float("nan"), float("inf"), -float("inf"), 0.1, 1 / 3, -2.5e-300]
    return {
        "int": (int, [k - 3 for k in range(n)]),
        "float": (float, [specials[k % 9] for k in range(n)]),
        "float64": (float, [np.float64(specials[-1 - k % 9]) for k in range(n)]),
        "none": (object, [None if k % 3 == 0 else specials[k % 9] for k in range(n)]),
        "late-float": (object, [str(k) if k < _CHUNK_ROWS else specials[k % 9] for k in range(n)]),
        "late-none": (object, [None if k == n - 1 else k / 7 for k in range(n)]),
    }


# the last two are 4 and 5 chunks, which two processes write
_BOUNDARY_SIZES = [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 3, 3 * _CHUNK_ROWS + 1, 4 * _CHUNK_ROWS + 1]


class TestChunkedTables:
    @pytest.mark.parametrize("n", _BOUNDARY_SIZES)
    def test_csv_chunk_boundaries_match_cell_by_cell_formatting(self, tmp_path, n):
        columns = _boundary_columns(n)
        columns["str"] = (object, ["increasing" if k % 2 else "decreasing" for k in range(n)])
        header = list(columns)
        cfg = ExperimentConfig(out_dir=str(tmp_path))
        assert _emit_table(cfg, tmp_path, "t", header, _table(columns)) == "t.csv"
        want = "\n".join([",".join(header)] + [",".join(map(_cell, row)) for row in _rows(columns)]) + "\n"
        assert (tmp_path / "t.csv").read_bytes() == want.encode()

    @pytest.mark.parametrize("n", _BOUNDARY_SIZES)
    def test_json_chunk_boundaries_match_json_dumps(self, tmp_path, n):
        texts = ['say "hi"', "back\\slash", "100% sure", "caf\u00e9 \u03c4*", "", "tab\tnew\nline", "%s", "a", "z"]
        columns = _boundary_columns(n)
        columns["str"] = (object, [texts[k % 9] for k in range(n)])
        columns["%d \"key\" \u00e9"] = (float, [k / 7 for k in range(n)])
        header = list(columns)
        cfg = ExperimentConfig(out_dir=str(tmp_path), fmt="json")
        assert _emit_table(cfg, tmp_path, "t", header, _table(columns)) == "t.json"
        want = _json_text([dict(zip(header, row)) for row in _rows(columns)])
        assert (tmp_path / "t.json").read_bytes() == want.encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_repeated_ints_and_bools_across_a_chunk_boundary(self, tmp_path, fmt):
        # runs of 3: rows C-2..C share one value and the rows after them hold new ones, so each
        # chunk maps its own distinct values back to its rows
        n = _CHUNK_ROWS + 5
        ints = [-(2**62), 2**62, -7, 0, 1, 2**62 - 1, -1]
        columns = {
            "int": (int, [ints[k // 3 % len(ints)] - k // 3 for k in range(n)]),
            "bool": (bool, [k // 3 % 2 == 0 for k in range(n)]),
            "float": (float, [k // 3 / 7 for k in range(n)]),
        }
        header, rows = list(columns), _rows(columns)
        cfg = ExperimentConfig(out_dir=str(tmp_path), fmt=fmt)
        name = _emit_table(cfg, tmp_path, "t", header, _table(columns))
        if fmt == "csv":
            want = "\n".join([",".join(header)] + [",".join(map(_cell, row)) for row in rows]) + "\n"
        else:
            want = _json_text([dict(zip(header, row)) for row in rows])
        assert (tmp_path / name).read_bytes() == want.encode()
        assert rows[_CHUNK_ROWS - 1][:2] == rows[_CHUNK_ROWS][:2] != rows[_CHUNK_ROWS + 1][:2]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_emission_peaks_below_the_size_of_the_file(self, tmp_path, monkeypatch, fmt):
        # 16 chunks: a writer that held the whole table's text would peak above the file's size
        monkeypatch.setattr(experiment, "_CHUNK_ROWS", 512)
        values = np.random.default_rng(0).lognormal(size=(8192, 5))
        header = ["mode_index", "lambda_target", "tau", "sigma", "psi", "lambda_gen"]
        columns = {key: (float, values[:, j]) for j, key in enumerate(header[1:])}
        table = _table({"mode_index": (int, range(len(values)))} | columns)
        cfg = ExperimentConfig(out_dir=str(tmp_path), fmt=fmt)
        tracemalloc.start()
        try:
            name = _emit_table(cfg, tmp_path, "t", header, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / name).stat().st_size
        assert peak < size, f"peak {peak} B for a {size} B file"


# Rows per chunk in the tests that force the two-process writer on small tables.
_SMALL_CHUNK = 64


def _split_table(n: int) -> tuple[list, np.ndarray, list]:
    """The header, table and rows of ``_boundary_columns(n)`` plus the
    emergence table's object columns (``tau_star`` None or float, ``branch``)
    and a float column whose -0.0 and 0.0 sit in the second chunk, the
    first that the worker formats."""
    columns = _boundary_columns(n)
    columns["tau_star"] = (object, [None if k % 5 == 0 else k / 3 for k in range(n)])
    columns["branch"] = (object, ["increasing" if k % 3 else "decreasing" for k in range(n)])
    zeros = [k / 11 for k in range(n)]
    zeros[_SMALL_CHUNK : _SMALL_CHUNK + 4] = [-0.0, 0.0, 0.0, -0.0][: max(0, n - _SMALL_CHUNK)]
    columns["zeros"] = (float, zeros)
    return list(columns), _table(columns), _rows(columns)


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in the test if its body has not returned after ``seconds``."""

    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSplitTables:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunks", [0, 3, 4, 5, 2 * _SPLIT_CHUNKS + 1])
    def test_two_processes_write_the_bytes_of_one(self, tmp_path, monkeypatch, fmt, chunks):
        # the last chunk is partial; 0 chunks is the empty table
        n = max(0, _SMALL_CHUNK * (chunks - 1) + 5)
        header, table, rows = _split_table(n)
        monkeypatch.setattr(experiment, "_CHUNK_ROWS", _SMALL_CHUNK)
        cfg = ExperimentConfig(out_dir=str(tmp_path), fmt=fmt)
        written = {}
        for path, split_chunks in (("one", 10**9), ("two", 0), ("no-fork", 0)):
            monkeypatch.setattr(experiment, "_SPLIT_CHUNKS", split_chunks)
            if path == "no-fork":
                monkeypatch.delattr(os, "fork")
            (tmp_path / path).mkdir()
            written[path] = (tmp_path / path / _emit_table(cfg, tmp_path / path, "t", header, table)).read_bytes()
        if fmt == "csv":
            want = "\n".join([",".join(header)] + [",".join(map(_cell, row)) for row in rows]) + "\n"
        else:
            want = _json_text([dict(zip(header, row)) for row in rows])
        assert written["one"] == written["two"] == written["no-fork"] == want.encode()

    def test_a_failing_worker_raises_oserror_naming_the_table(self, tmp_path, monkeypatch, capfd):
        monkeypatch.setattr(experiment, "_CHUNK_ROWS", _SMALL_CHUNK)
        real, pid = experiment._chunk_text, os.getpid()

        def chunk_text(*args):
            if os.getpid() != pid:
                raise RuntimeError("the worker failed")
            return real(*args)

        monkeypatch.setattr(experiment, "_chunk_text", chunk_text)
        header, table, _ = _split_table(_SPLIT_CHUNKS * _SMALL_CHUNK)
        cfg = ExperimentConfig(out_dir=str(tmp_path))
        with _deadline(20), pytest.raises(OSError, match=r"^t\.csv: the worker .* exited with status 1 after sending 0 of"):
            _emit_table(cfg, tmp_path, "t", header, table)
        # 4 modes x 64 tau x 3 sigmas: 12 chunks of trajectories
        args = ["simulate", "--set", "model.dim=4", "--set", "dynamics.tau_points=64", "--out", str(tmp_path / "cli")]
        with _deadline(20):
            assert main(args) == 1
        out, err = capfd.readouterr()
        assert out == "" and err.startswith("error: trajectories.csv: the worker") and err.count("\n") == 1, err

    def test_a_failing_parent_reaps_its_worker(self, tmp_path, monkeypatch):
        # 10 chunks of 8192 rows: the worker's 5 chunks, about 4 MB, overfill the pipe
        real, pid, calls = experiment._chunk_text, os.getpid(), []

        def chunk_text(*args):
            if os.getpid() == pid:
                calls.append(args)
                if len(calls) == 2:  # the parent's second chunk, while the worker waits on a full pipe
                    time.sleep(0.2)
                    raise KeyError("the parent failed")
            return real(*args)

        monkeypatch.setattr(experiment, "_chunk_text", chunk_text)
        values = np.random.default_rng(0).lognormal(size=(10 * _CHUNK_ROWS, 5))
        table = _table({f"x{j}": (float, values[:, j]) for j in range(5)})
        cfg = ExperimentConfig(out_dir=str(tmp_path))
        with _deadline(20), pytest.raises(KeyError, match="the parent failed"):
            _emit_table(cfg, tmp_path, "t", [f"x{j}" for j in range(5)], table)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_the_worker_flushes_neither_stdout_nor_the_table(self, tmp_path, monkeypatch, capfd):
        monkeypatch.setattr(experiment, "_CHUNK_ROWS", _SMALL_CHUNK)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(fork()) or forks[-1])
        args = ["simulate", "--set", "model.dim=4", "--set", "dynamics.tau_points=64", "--out", str(tmp_path)]
        with _deadline(20):
            assert main(args) == 0
        out, err = capfd.readouterr()
        assert len(forks) == 1 and err == ""
        assert out.count("wrote ") == 1, out  # a worker that returned would go on to print it too
        text = (tmp_path / "trajectories.csv").read_text()
        assert text.count("mode_index") == 1 and len(text.splitlines()) == 1 + 4 * 64 * 3


class TestBasisUse:
    SPEC = SpectrumSpec("log-normal", {"mu": 0.0, "sd": 1.0})

    @staticmethod
    def _cfg(tmp_path, **overrides) -> ExperimentConfig:
        return ExperimentConfig(
            model_kind="log-normal", dim=5, seed=11, tau_points=11, tau_max=10.0, report_sigmas=(1.0,),
            out_dir=str(tmp_path), **overrides,
        )

    @pytest.mark.parametrize(
        "stages, table, rows",
        [(("trajectories", "emergence"), "trajectories", slice(None, None, 11)),  # 11 taus per mode
         (("trajectories",), "trajectories", slice(None, None, 11)),
         (("kl",), "kl", slice(5))],  # the first tau's 5 modes
        ids=["emergence", "simulate", "kl"],
    )
    def test_spectrum_stages_build_no_basis(self, tmp_path, monkeypatch, stages, table, rows):
        def no_basis(*args):
            raise AssertionError("make_covariance called")

        want = make_covariance(self.SPEC, 5, 11).spectrum
        monkeypatch.setattr(experiment, "make_covariance", no_basis)
        run_experiment(self._cfg(tmp_path), stages=frozenset(stages))
        lines = (tmp_path / f"{table}.csv").read_text().splitlines()[1:]
        assert [float(line.split(",")[1]) for line in lines[rows]] == want.tolist()

    # the oracle check is the one stage that reads the basis
    @pytest.mark.parametrize("stages", [("trajectories", "emergence")], ids=["validate-with-oracle"])
    def test_basis_stages_read_the_make_covariance_basis(self, tmp_path, monkeypatch, stages):
        models = []
        original = experiment.oracle_deviation

        def recording(model, *args):
            models.append(model)
            return original(model, *args)

        monkeypatch.setattr(experiment, "oracle_deviation", recording)
        run_experiment(self._cfg(tmp_path, validate_with_oracle=True), stages=frozenset(stages))
        want = make_covariance(self.SPEC, 5, 11)
        (model,) = models
        assert np.array_equal(model.basis, want.basis)
        assert np.array_equal(model.spectrum, want.spectrum)


class TestCliEntry:
    def test_emergence_subcommand(self, tmp_path):
        rc = main(
            ["emergence", "--out", str(tmp_path), "--seed", "7",
             "--set", "model.dim=4", "--set", "dynamics.tau_points=31"]
        )
        assert rc == 0
        assert (tmp_path / "fit.json").exists()

    def test_sample_tau_zero_matches_asymptote(self, tmp_path):
        rc = main(
            ["simulate", "--arch", "two-layer", "--set", "dynamics.tau=0", "--out", str(tmp_path),
             "--set", "model.dim=3"]
        )
        assert rc == 0
        lines = (tmp_path / "trajectories.csv").read_text().splitlines()[1:]
        v0 = 80.0**2 * (0.002 / 80.0) ** (2 * 0.9)
        for line in lines:
            assert float(line.split(",")[5]) == pytest.approx(v0, rel=1e-12)

    def test_kl_total_small_beyond_convergence(self, tmp_path):
        rc = main(
            ["kl", "--out", str(tmp_path), "--set", "model.dim=32",
             "--set", "dynamics.tau=1e9"]
        )
        assert rc == 0
        lines = (tmp_path / "kl.csv").read_text().splitlines()[1:]
        total = sum(float(line.split(",")[4]) for line in lines)
        assert total < 1e-4

    def test_kl_json_and_csv_write_the_same_numbers(self, tmp_path):
        tables = {}
        for fmt in ("csv", "json"):
            subprocess.run(
                [sys.executable, "-m", "lindiff.cli", "kl", "--arch", "two-layer", "--format", fmt,
                 "--out", str(tmp_path / fmt), "--set", "model.kind=log-normal", "--set", "model.dim=5",
                 "--set", "dynamics.tau_points=7", "--seed", "3"],
                check=True, capture_output=True,
            )
            tables[fmt] = (tmp_path / fmt / f"kl.{fmt}").read_text()
        header, *lines = tables["csv"].splitlines()
        columns = header.split(",")
        rows = json.loads(tables["json"])
        assert len(rows) == len(lines) == 5 * 7
        for line, row in zip(lines, rows):
            cells = line.split(",")
            assert int(cells[0]) == row["mode_index"]
            assert [float(c) for c in cells[1:]] == [row[c] for c in columns[1:]]

    def test_kl_manifest_counts_clamped_modes(self, tmp_path):
        cfg = ExperimentConfig(
            model_kind="explicit", dim=3, values=(1e-15, 1e-3, 1.0), tau_override=(0.0, 1.0, 1e9),
            schedule=NoiseSchedule(sigma_min=1e-9), out_dir=str(tmp_path),
        )
        manifest = run_experiment(cfg, stages=frozenset({"kl"}))
        lam_gen = [float(line.split(",")[3]) for line in (tmp_path / "kl.csv").read_text().splitlines()[1:]]
        clamped = sum(v < 1e-12 for v in lam_gen)
        assert clamped > 0
        assert manifest["diagnostics"] == {"kl_clamped_modes": clamped}
        assert json.loads((tmp_path / "manifest.json").read_text())["diagnostics"] == manifest["diagnostics"]
        assert "diagnostics" not in run_experiment(cfg, stages=frozenset({"trajectories"}))

    @pytest.mark.parametrize(
        "args, no_crossing, gray_zone",
        [
            (["--validate-with-oracle", "--arch", "one-layer", "--set", "dynamics.tau_max=1"], 10, 0),
            (["--set", "arch.q_init=0.59"], 0, 2),
        ],
        ids=["oracle-workload", "gray-zone"],
    )
    def test_emergence_manifest_counts_exclusions_by_reason(self, tmp_path, capsys, args, no_crossing, gray_zone):
        assert main(["emergence", "--out", str(tmp_path), "--set", "model.dim=16", *args]) == 0
        diagnostics = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]
        assert diagnostics == {"no_crossing_modes": no_crossing, "gray_zone_modes": gray_zone}
        rows = (tmp_path / "emergence.csv").read_text().splitlines()[1:]
        assert sum(row.split(",")[2] == "" for row in rows) == no_crossing
        assert sum(row.split(",")[4] == "1" for row in rows) == gray_zone

    def test_validation_error_exit_code(self, tmp_path, capsys):
        rc = main(["emergence", "--out", str(tmp_path), "--set", "analysis.gray_zone.lower=1.5"])
        assert rc == 1
        assert "analysis.gray_zone.lower" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "kl"])
    def test_zero_tau_points_exit_1_without_tables(self, tmp_path, capsys, command):
        rc = main([command, "--out", str(tmp_path / "o"), "--set", "dynamics.tau_points=0"])
        assert rc == 1
        assert "dynamics.tau_points" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "args, key",
        [
            (["--validate-with-oracle", "--set", "dynamics.tau_min=100", "--set", "dynamics.tau_max=1e6"],
             "dynamics.tau_min/dynamics.tau_max"),
            (["--set", "dynamics.tau=10,1,100,0.1"], "dynamics.tau"),
            (["--validate-with-oracle", "--set", "dynamics.tau=1e3,1e4,1e5"], "dynamics.tau"),
        ],
        ids=["oracle-window", "unsorted-tau", "oracle-explicit-tau"],
    )
    def test_bad_tau_grid_exits_1_before_writing(self, tmp_path, args, key):
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "lindiff.cli", "emergence", "--out", str(out), "--set", "model.dim=4", *args],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"config error: {key}:")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "command, setting, key",
        [
            ("emergence", "arch.q_init=36", "arch.q_init"),  # v0 overflows a float
            ("emergence", "arch.q_init=34", "arch.q_init"),  # v0 finite, v0 * target overflows
            ("kl", "arch.q_init=-36", "arch.q_init"),  # v0 underflows to zero
            ("simulate", "schedule.sigma_max=1e155", "schedule.sigma_min/schedule.sigma_max"),
            ("kl", "schedule.sigma_min=0", "schedule.sigma_min/schedule.sigma_max"),
        ],
    )
    def test_out_of_range_init_or_schedule_exits_1_before_writing(self, tmp_path, capsys, command, setting, key):
        out = tmp_path / "o"
        rc = main([command, "--out", str(out), "--set", "model.dim=4", "--set", "dynamics.tau_points=9", "--set", setting])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}:")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, args, key",
        [
            ("emergence", ["--set", "dynamics.tau_max=2e304"], "dynamics.eta/dynamics.tau_max"),  # Ein(2 eta tau sigma_max^2) = inf
            ("emergence", ["--set", "dynamics.eta=1e300"], "dynamics.eta/dynamics.tau_max"),
            ("kl", ["--set", "dynamics.eta=1e300"], "dynamics.eta/dynamics.tau_max"),
            ("simulate", ["--set", "dynamics.tau=0,1,2e304"], "dynamics.eta/dynamics.tau"),
            # the lambda = 0 mode's 8 eta tau is inf
            ("emergence", ["--arch", "two-layer", "--data", "rank-deficient", "--set", "dynamics.eta=1e303"],
             "dynamics.eta/dynamics.tau_max"),
        ],
        ids=["emergence-tau-max", "emergence-eta", "kl-eta", "simulate-tau", "two-layer-rank-deficient"],
    )
    def test_overflowing_eta_tau_exits_1_before_writing(self, tmp_path, capsys, command, args, key):
        data, out = tmp_path / "x.csv", tmp_path / "o"
        data.write_text("1,2,3\n2,4,6\n1,1,1\n")
        args = [str(data) if a == "rank-deficient" else a for a in args]
        rc = main([command, "--out", str(out), "--set", "model.dim=4", "--set", "dynamics.tau_points=5", *args])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: need eta tau <= ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "args, edge",
        [
            (["--set", "model.dim=2", "--set", "report.sigmas=1e160"], "1e50"),  # sigma^2 = inf: psi = 0 * inf at tau = 0
            (["--data", "rank-deficient", "--set", "report.sigmas=1e-200"], "1e-50"),  # sigma^2 = 0 at the lambda = 0 mode
        ],
        ids=["overflow", "underflow"],
    )
    def test_out_of_range_report_sigma_exits_1_before_writing(self, tmp_path, capsys, args, edge):
        data, out = tmp_path / "x.csv", tmp_path / "o"
        data.write_text("1,2,3\n2,4,6\n1,1,1\n")
        args = ["simulate", "--out", str(out), "--set", "dynamics.tau=0,1", *(str(data) if a == "rank-deficient" else a for a in args)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: report.sigmas: ")
        assert err.count("\n") == 1
        assert not out.exists()
        assert main([*args, "--set", f"report.sigmas={edge}"]) == 0  # the bound itself is accepted
        psi = [float(row.split(",")[4]) for row in (out / "trajectories.csv").read_text().splitlines()[1:]]
        assert psi and all(map(math.isfinite, psi))

    @pytest.mark.parametrize(
        "args",
        [["--set", "report.sigmas=1e3"],  # RK4 at the rate 2 (lambda_max + sigma^2): about 2.5e8 steps
         ["--arch", "two-layer", "--set", "model.dim=512"]],  # RK45 on three 512^3 products per call
        ids=["one-layer-sigma", "two-layer-dim"],
    )
    def test_oracle_check_beyond_its_work_bound_exits_1_before_writing(self, tmp_path, capsys, args):
        out = tmp_path / "o"
        assert main(["emergence", "--validate-with-oracle", "--out", str(out), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: report.sigmas/model.dim: ")
        assert "against a bound of 1e+12" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "arch, settings, low, high",
        [("one-layer", {"tau_max": 1.0}, 1.0, 1.0),  # the oracle workload's window: rk4_path's own rule
         ("one-layer", {}, 1.0, 1.0),
         ("two-layer", {"hi": 300.0}, 1.0, 1.01),  # stability-limited; the accuracy-limited steps are not counted
         ("two-layer", {"hi": 1000.0, "tau_max": 1.0}, 1.0, 1.06)],
        ids=["one-layer-tau-max-1", "one-layer-default", "two-layer-stiff", "two-layer-stiff-short"],
    )
    def test_oracle_work_estimate_counts_the_flow_calls(self, monkeypatch, arch, settings, low, high):
        calls = _count_flow_calls(monkeypatch)
        cfg = ExperimentConfig(arch=arch, dim=2, report_sigmas=(0.1, 1.0, 10.0), validate_with_oracle=True, **settings)
        lam, model = experiment._load_spectrum(cfg)
        estimate, _ = _oracle_work(cfg, float(lam.max()), lam.size)
        experiment.oracle_deviation(model, arch, cfg.report_sigmas, cfg.q_init, cfg.eta, cfg.oracle_taus())
        assert low <= len(calls) / estimate <= high

    def test_integration_error_exits_1_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        def fail(*_args, **_kwargs):
            raise IntegrationError("max step count exceeded")

        monkeypatch.setattr(experiment, "oracle_deviation", fail)
        args = ["emergence", "--validate-with-oracle", "--set", "model.dim=2", "--out", str(tmp_path)]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: max step count exceeded\n"

    def test_sweeps_leave_numpy_random_and_numpy_ma_unimported(self, tmp_path):
        # a log-spaced spectrum draws nothing, kl builds no basis, and the fit
        # counts distinct eigenvalues without np.unique
        code = "\n".join([
            "import json, sys",
            "from lindiff.cli import main",
            "seen = []",
            f"main(['emergence', '--set', 'model.dim=8', '--set', 'dynamics.tau_points=11', '--out', {str(tmp_path / 'e')!r}])",
            "seen.append({m: m in sys.modules for m in ('numpy.random', 'numpy.ma')})",
            f"main(['kl', '--set', 'model.dim=8', '--set', 'dynamics.tau_points=11', '--out', {str(tmp_path / 'k')!r}])",
            "seen.append({m: m in sys.modules for m in ('numpy.random', 'numpy.ma')})",
            f"main(['kl', '--set', 'model.kind=log-normal', '--set', 'model.dim=8', '--set', 'dynamics.tau_points=11', "
            f"'--out', {str(tmp_path / 'n')!r}])",
            "seen.append({m: m in sys.modules for m in ('numpy.random', 'numpy.ma')})",
            "print(json.dumps(seen))",
        ])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        after_emergence, after_kl, after_log_normal_kl = json.loads(proc.stdout.splitlines()[-1])
        assert after_emergence == after_kl == {"numpy.random": False, "numpy.ma": False}
        # only a log-normal spectrum draws from numpy.random
        assert after_log_normal_kl == {"numpy.random": True, "numpy.ma": False}

    def test_oracle_checks_leave_numpy_random_unimported(self, tmp_path):
        # make_covariance draws its basis from the standard library's random
        common = "'--set', 'model.dim=6', '--set', 'dynamics.tau_points=11', '--set', 'dynamics.tau_max=1'"
        code = "\n".join([
            "import json, sys",
            "from lindiff.cli import main",
            "seen = []",
            "assert main(['validate', '--suite', 'all']) == 0",
            "seen.append('numpy.random' in sys.modules)",
            *(
                f"assert main(['emergence', '--validate-with-oracle', '--arch', {arch!r}, {common}, "
                f"'--out', {str(tmp_path / arch)!r}]) == 0\nseen.append('numpy.random' in sys.modules)"
                for arch in ("one-layer", "two-layer")
            ),
            "print(json.dumps(seen))",
        ])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, False]

    def test_table_commands_leave_the_validation_suites_unimported(self, tmp_path):
        # only validate imports lindiff.validation, and with it lindiff.convolution
        modules = ("lindiff.validation", "lindiff.convolution")
        code = "\n".join([
            "import json, sys",
            "from lindiff.cli import main",
            "seen = []",
            f"main(['emergence', '--set', 'model.dim=8', '--set', 'dynamics.tau_points=11', '--out', {str(tmp_path / 'e')!r}])",
            f"seen.append([m in sys.modules for m in {modules!r}])",
            f"main(['kl', '--set', 'model.dim=8', '--set', 'dynamics.tau_points=11', '--out', {str(tmp_path / 'k')!r}])",
            f"seen.append([m in sys.modules for m in {modules!r}])",
            "main(['validate', '--suite', 'variants'])",
            f"seen.append([m in sys.modules for m in {modules!r}])",
            "print(json.dumps(seen))",
        ])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        after_emergence, after_kl, after_validate = json.loads(proc.stdout.splitlines()[-1])
        assert after_emergence == after_kl == [False, False]
        assert after_validate == [True, True]

    @pytest.mark.filterwarnings("error")
    def test_two_layer_oracle_check_at_a_large_sigma_prints_no_warnings(self, tmp_path, capsys):
        # RK45's first trial steps overflow at sigma = 1e4 and are rejected without a RuntimeWarning
        args = ["emergence", "--validate-with-oracle", "--arch", "two-layer", "--set", "report.sigmas=1e4"]
        assert main(args + ["--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert re.match(r"oracle check: max relative deviation \S+ \(tolerance \S+\) -> ok\n", captured.out)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["emergence", "kl"])
    @pytest.mark.parametrize("arch", ["one-layer", "two-layer"])
    def test_largest_accepted_tau_writes_finite_tables(self, tmp_path, capsys, command, arch):
        top = 1.404447761611184e304  # the largest tau with 2 tau sigma_max^2 finite at eta = 1, sigma_max = 80
        assert math.isfinite(2.0 * top * 80.0**2) and not math.isfinite(2.0 * math.nextafter(top, math.inf) * 80.0**2)
        out = tmp_path / "o"
        base = [command, "--arch", arch, "--out", str(out), "--set", "model.dim=4", "--set", "dynamics.tau_points=5"]
        assert main([*base, "--set", f"dynamics.tau_max={math.nextafter(top, math.inf)!r}"]) == 1
        assert main([*base, "--set", f"dynamics.tau_max={top!r}"]) == 0
        assert capsys.readouterr().err.startswith("config error: dynamics.eta/dynamics.tau_max: ")
        table, rows_per_cell = ("kl.csv", 1) if command == "kl" else ("trajectories.csv", 3)  # 3 report.sigmas
        rows = np.genfromtxt(out / table, delimiter=",", names=True)
        assert len(rows) == 4 * 5 * rows_per_cell
        assert all(np.all(np.isfinite(rows[key])) for key in rows.dtype.names)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "command, sigma_min, sigma_max, q, extra, table",
        [
            ("kl", 1e-50, 1e-49, 125.0, [], "kl.csv"),  # sigma^c overflowed
            ("emergence", 1e49, 1e50, 26.0, [], "trajectories.csv"),  # sigma^c overflowed
            ("simulate", 1e49, 1e50, 26.0, ["--set", "dynamics.tau=1e-300,1"], "trajectories.csv"),  # Phi(s_T) was 0
        ],
        ids=["kl-small-sigma", "emergence-large-sigma", "simulate-tiny-tau"],
    )
    def test_two_layer_lambda_gen_at_extreme_schedules(self, tmp_path, capsys, command, sigma_min, sigma_max, q, extra, table):
        out = tmp_path / "o"
        rc = main([
            command, "--arch", "two-layer", "--out", str(out), "--set", "model.dim=4",
            "--set", f"schedule.sigma_min={sigma_min}", "--set", f"schedule.sigma_max={sigma_max}",
            "--set", f"arch.q_init={q}", *extra,
        ])
        assert rc == 0
        assert capsys.readouterr().err == ""
        rows = np.genfromtxt(out / table, delimiter=",", names=True)
        assert np.all(np.isfinite(rows["lambda_gen"]))
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40

        def reference(lam, tau):  # sigma_T^2 (Phi(sigma_0) / Phi(sigma_T))^2 of the two-layer factor
            lam, tau, qq, s0, s_t = map(mp.mpf, (lam, tau, q, sigma_min, sigma_max))
            decay = mp.exp(-8 * tau * lam)
            c = (1 - qq) * decay / (qq + (1 - qq) * decay)
            phi = lambda s: s**c * (lam * decay + qq * (1 - decay) * (lam + s**2)) ** ((1 - c) / 2)
            return s_t**2 * (phi(s0) / phi(s_t)) ** 2

        cells = {(lam, tau): gen for lam, tau, gen in zip(rows["lambda_target"], rows["tau"], rows["lambda_gen"])}
        worst = max(abs(mp.mpf(gen) / reference(lam, tau) - 1) for (lam, tau), gen in cells.items())
        assert worst < 1e-12

    @pytest.mark.parametrize(
        "command, content, detail",
        [("emergence", None, ""), ("kl", "1,2\n", ""), ("emergence", "1,2\n3,nan\n5,6\n", ""),
         ("kl", "1,2\n3,inf\n5,6\n", ""), ("simulate", "", ""),
         # rank 1: both round-off eigenvalues are zero, not only the exact one
         ("kl", "1,2,3\n2,4,6\n", " kl needs positive eigenvalues, 2 of 3 are zero")],
        ids=["missing", "one-sample", "nan", "inf", "empty", "rank-deficient"],
    )
    def test_bad_data_file_exits_1_before_writing(self, tmp_path, command, content, detail):
        data, out = tmp_path / "x.csv", tmp_path / "o"
        if content is not None:
            data.write_text(content)
        proc = subprocess.run(
            [sys.executable, "-m", "lindiff.cli", command, "--data", str(data), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"config error: model.data:{detail}")
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1  # no NumPy warning either
        assert not out.exists()

    @pytest.mark.parametrize(
        "header, values",
        [(b'{"rows": 2.9, "cols": 2}', 4), (b'{"rows": true, "cols": 4}', 4),
         (b'{"rows": 2, "cols": 2}', 6), (b'{"rows": 4, "cols": 4}', 3)],
        ids=["fractional-rows", "boolean-rows", "extra-values", "truncated"],
    )
    def test_bad_binary_file_exits_1_naming_the_key(self, tmp_path, header, values):
        data, out = tmp_path / "x.bin", tmp_path / "o"
        data.write_bytes(header + b"\n" + np.arange(values, dtype="<f8").tobytes())
        proc = subprocess.run(
            [sys.executable, "-m", "lindiff.cli", "emergence", "--data", str(data), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error: model.data: binary ")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_one_column_csv_is_one_mode(self, tmp_path):
        # its first line "1" parses as JSON, but only a JSON object is a binary header
        data, out = tmp_path / "x.csv", tmp_path / "o"
        data.write_text("1\n2\n4\n7\n")
        proc = subprocess.run(
            [sys.executable, "-m", "lindiff.cli", "emergence", "--data", str(data), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        rows = np.genfromtxt(out / "emergence.csv", delimiter=",", names=True, dtype=None, encoding="ascii")
        assert rows.shape == () and rows["mode_index"] == 0
        assert rows["lambda_target"] == pytest.approx(7.0, rel=1e-15)  # the sample variance

    @pytest.mark.parametrize("args", [["--seed", "-1"], ["--set", "run.seed=-3"]])
    def test_negative_seed_exits_1_naming_the_key(self, tmp_path, capsys, args):
        rc = main(["simulate", "--out", str(tmp_path / "o"), *args])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: run.seed: ")
        assert not (tmp_path / "o").exists()

    def test_equal_eigenvalues_fail_the_fit_without_lapack_noise(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "lindiff.cli", "emergence", "--out", str(tmp_path),
             "--set", "model.kind=explicit", "--set", "model.values=1,1,1", "--set", "model.dim=3",
             "--set", "dynamics.tau_points=31"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "DLASCL" not in proc.stdout
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["error"] == "branch 'increasing' has 1 distinct eigenvalue(s) among 3 usable mode(s), need >= 2"

    @pytest.mark.parametrize("command, rc", [("kl", 1), ("emergence", 0), ("simulate", 0)])
    def test_zero_eigenvalue_fails_kl_only(self, tmp_path, command, rc):
        # exp(-800 + N(0, 1)) underflows to 0: kl divides by it, the fit drops it
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "lindiff.cli", command, "--out", str(out), "--set", "model.kind=log-normal",
             "--set", "model.mu=-800", "--set", "model.dim=4", "--set", "dynamics.tau_points=5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == rc
        if rc:
            assert proc.stderr.startswith("config error: model.mu/model.sd: kl needs positive eigenvalues")
            assert not out.exists()
        else:
            assert proc.stderr == ""

    def test_two_layer_zero_eigenvalue_has_the_finite_limit(self, tmp_path):
        # a rank-deficient data file has one zero eigenvalue; at lam = 0 the two-layer
        # ratio is (s0/s_t)^(1-Q) ((1 + 8 eta tau Q s0^2) / (1 + 8 eta tau Q s_t^2))^(Q/2)
        data, out = tmp_path / "x.csv", tmp_path / "o"
        data.write_text("1,2,3\n2,4,6\n1,1,1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "lindiff.cli", "emergence", "--arch", "two-layer", "--data", str(data), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        rows = np.genfromtxt(out / "trajectories.csv", delimiter=",", names=True)
        zero = rows[rows["lambda_target"] == 0.0]
        assert zero.size
        tau, q, s0, s_t = zero["tau"], 0.1, 0.002, 80.0
        limit = s_t**2 * (s0 / s_t) ** (2 * (1 - q)) * ((1 + 8 * tau * q * s0**2) / (1 + 8 * tau * q * s_t**2)) ** q
        assert_allclose(zero["lambda_gen"], limit, rtol=1e-12)

    def test_two_layer_oracle_check_passes_on_rank_deficient_data(self, tmp_path):
        # the lambda = 0 mode follows df/dtau = -8 eta sigma^2 f^2: psi = Q / (1 + 8 eta tau Q sigma^2)
        data, out = tmp_path / "x.csv", tmp_path / "o"
        data.write_text("1,2,3\n2,4,6\n1,1,1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "lindiff.cli", "emergence", "--arch", "two-layer", "--validate-with-oracle",
             "--data", str(data), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout
        assert proc.stderr == ""
        assert json.loads((out / "manifest.json").read_text())["oracle"]["max_rel_deviation"] < 1e-9
        rows = np.genfromtxt(out / "trajectories.csv", delimiter=",", names=True)
        zero = rows[rows["lambda_target"] == 0.0]
        assert zero.size
        q = 0.1
        assert_allclose(zero["psi"], q / (1 + 8 * zero["tau"] * q * zero["sigma"] ** 2), rtol=1e-12)

    @pytest.mark.parametrize("command", ["simulate", "kl"])
    def test_infinite_eigenvalue_exits_1_before_writing(self, tmp_path, command):
        # exp(800 + N(0, 1)) overflows to inf: every table cell would be inf or nan
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "lindiff.cli", command, "--out", str(out), "--set", "model.kind=log-normal",
             "--set", "model.mu=800", "--set", "model.dim=3", "--set", "dynamics.tau_points=3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == "config error: model.mu/model.sd: 3 of 3 eigenvalues are not finite\n"
        assert not out.exists()

    def test_unknown_subcommand_usage_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_sample_subcommand_is_gone(self):
        # `simulate --set dynamics.tau=T` writes what `sample --tau T` wrote
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--tau", "1"])
        assert exc.value.code == 2

    def test_help_text_names_every_subcommand(self):
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        listed = cli.__doc__.split("Subcommands:", 1)[1].split("Exit codes:", 1)[0]
        assert re.findall(r"(\w+) \(", listed) == list(subparsers.choices)

    @pytest.mark.parametrize("flag, key", [("--arch", "arch.kind"), ("--format", "run.format")])
    def test_flag_choices_are_the_config_key_values(self, capsys, flag, key):
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        action = next(a for a in subparsers.choices["simulate"]._actions if flag in a.option_strings)
        for value in action.choices:
            ExperimentConfig.from_flat({key: value})
        with pytest.raises(ConfigError, match=rf"^{key}: .*\(expected one of {', '.join(action.choices)}\)$"):
            ExperimentConfig.from_flat({key: "other"})
        with pytest.raises(SystemExit) as exc:
            main(["simulate", flag, "other"])
        assert exc.value.code == 2
        assert "invalid choice: 'other'" in capsys.readouterr().err

    def test_config_file_with_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("model.dim = 4\ndynamics.tau_points = 21\nrun.seed = 5\n")
        rc = main(
            ["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o"),
             "--set", "model.dim=3"]
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["model.dim"] == 3  # override wins
        assert manifest["seed"] == 5

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["emergence", "validate"])
    def test_a_closed_stdout_keeps_the_runs_exit_status(self, tmp_path, command, buffered):
        if command == "emergence":
            args = ["emergence", "--validate-with-oracle", "--set", "model.dim=4", "--set", "dynamics.tau_max=1",
                    "--out", str(tmp_path)]
        else:
            args = ["validate", "--suite", "variants"]
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "lindiff.cli", *args], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # before the command prints its first line
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0 and err == b""
        if command == "emergence":
            assert {path.name for path in tmp_path.iterdir()} >= {"trajectories.csv", "emergence.csv", "fit.json"}

    def test_installed_console_script(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "lindiff.cli", "simulate", "--out", str(tmp_path),
             "--set", "model.dim=3", "--set", "dynamics.tau_points=5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0


class TestValidateSubcommand:
    def test_validate_all_suites_pass(self):
        rc = main(["validate", "--suite", "all"])
        assert rc == 0

    def test_validate_prints_each_suite_seconds(self, capsys, monkeypatch):
        from lindiff import validation

        suite = validation.SUITES["variants"]
        # a suite slowed through the SUITES dict is timed at its slowed length
        monkeypatch.setitem(validation.SUITES, "variants", lambda: (time.sleep(0.05), suite())[1])
        [result] = validation.run_suite("variants")
        assert result.name == "variants" and result.passed and result.seconds >= 0.05
        assert main(["validate", "--suite", "variants"]) == 0
        *suites, last, evaluations = capsys.readouterr().out.splitlines()
        assert len(suites) == 1
        assert re.fullmatch(r"variants\s+max deviation \S+\s+\(tolerance \S+\)\s+PASS", suites[0])
        seconds = re.fullmatch(r"seconds: variants (\d+\.\d{3})", last)
        assert seconds and float(seconds.group(1)) >= 0.05
        assert evaluations == "rhs evaluations: variants 0"  # the variants suite integrates no flow

    def test_rhs_evaluations_are_the_flows_calls(self, capsys, monkeypatch):
        from lindiff import validation

        calls = _count_flow_calls(monkeypatch)
        wrapped = {}
        for name, suite in validation.SUITES.items():
            def run(name=name, suite=suite):
                before = len(calls)
                result = suite()
                wrapped[name] = len(calls) - before
                return result

            monkeypatch.setitem(validation.SUITES, name, run)
        assert main(["validate", "--suite", "all"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "rhs evaluations: " + ", ".join(f"{name} {n}" for name, n in wrapped.items())
        assert wrapped["variants"] == 0 and min(n for name, n in wrapped.items() if name != "variants") > 0

    def test_unknown_suite_exit_2(self, capsys):
        rc = main(["validate", "--suite", "bogus"])
        assert rc == 2
