"""Configs, the four subcommands, reproducibility, and serialization."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import extreme_gibbs
from extreme_gibbs.cli import main
from extreme_gibbs.config import AGrid, ARule, ApproxReport, ExperimentConfig, fmt17
from extreme_gibbs.errors import ConfigError


class TestConfig:
    def test_canonical_round_trip(self):
        cfg = ExperimentConfig(
            model="weibull:k=2",
            n=(8, 16),
            a=ARule("power", coeff=0.5, delta=0.5),
            a_grid=AGrid(1.0, 100.0, 7, "log"),
            grid_step=2e-3,
            seed=11,
            tol=(("normalization_weibull2", 1e-7),),
        )
        text = cfg.canonical_text()
        back = ExperimentConfig.from_text(text)
        assert back == cfg
        assert back.canonical_text() == text

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="grid_stepp"):
            ExperimentConfig.from_text("grid_stepp = 0.01\n")

    def test_bad_number_named_in_error(self):
        with pytest.raises(ConfigError, match="grid.step"):
            ExperimentConfig.from_text("grid.step = tiny\n")

    @pytest.mark.parametrize("key", ["seed", "threads", "joint_k"])
    @pytest.mark.parametrize("value", ["nan", "1e400", "-inf", "2.5"])
    def test_integer_field_rejects_non_integers(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_text(f"{key} = {value}\n")

    @pytest.mark.parametrize("key", ["seed", "threads", "joint_k"])
    def test_integer_field_accepts_integral_float(self, key):
        assert getattr(ExperimentConfig.from_text(f"{key} = 2.0\n"), key) == 2

    def test_a_rules(self):
        assert ARule.parse("3.5") == ARule("fixed", value=3.5)
        assert ARule.parse("fixed:2") == ARule("fixed", value=2.0)
        rule = ARule.parse("power:c=0.5,delta=0.5")
        assert rule.a_for(16) == pytest.approx(2.0)
        with pytest.raises(ConfigError):
            ARule.parse("power:c=1")

    def test_a_grid(self):
        grid = AGrid.parse("1:100:3:log")
        np.testing.assert_allclose(grid.values(), [1.0, 10.0, 100.0])
        with pytest.raises(ConfigError):
            AGrid.parse("5:1:3")

    def test_report_tv_range_enforced(self):
        with pytest.raises(ConfigError):
            ApproxReport(name="x", regime="moderate", n=8, a_n=1.0, tv=1.5, sup_gap=0.1)

    def test_fmt17_round_trips(self):
        for x in (math.pi, 1.0 / 3.0, 2.0**-40, 123456.789):
            assert float(fmt17(x)) == x


class TestCliCommands:
    def test_tilt_zero_at_the_mean(self, tmp_path):
        mean = math.sqrt(2.0 / math.pi)
        code = main(
            [
                "tilt",
                "--model",
                "half_gaussian",
                "--a-grid",
                f"{mean}:50:4:log",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "tilt.csv").read_text().splitlines()
        assert lines[0] == "# extreme-gibbs v0.1.0"
        header = lines[1].split(",")
        first = dict(zip(header, lines[2].split(",")))
        assert abs(float(first["t"])) < 1e-8
        assert first["status"] == "ok"

    def test_tilt_skew_column_decreases(self, tmp_path):
        code = main(
            ["tilt", "--model", "weibull:k=2", "--a-grid", "5:500:4:log", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "tilt.csv").read_text().splitlines()
        idx = lines[1].split(",").index("skew_ratio")
        skews = [abs(float(row.split(",")[idx])) for row in lines[2:]]
        assert all(b < a for a, b in zip(skews, skews[1:]))

    def test_tilt_failed_rows_reported_and_run_continues(self, tmp_path):
        # the last level overflows the doubly exponential tilt; its row gets
        # an error status while the earlier rows still solve
        code = main(
            [
                "tilt",
                "--model",
                "exp_exponential",
                "--a-grid",
                "2:800:3:log",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = (tmp_path / "tilt.csv").read_text().splitlines()[2:]
        statuses = [row.split(",")[-1] for row in rows]
        assert statuses[0] == "ok"
        assert statuses[-1].startswith("error:")

    def test_tilt_skew_underflow_is_a_typed_row_error(self, tmp_path):
        # the solver returns s2 ~ 3e-235 at this level, and s^3 underflows to
        # zero; the row must carry an error status instead of ending the run
        code = main(
            [
                "tilt",
                "--model",
                "exp_exponential",
                "--a-grid",
                "40.04641616163825:41:1:lin",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = (tmp_path / "tilt.csv").read_text().splitlines()[2:]
        assert len(rows) == 1
        status = rows[0].split(",")[-1]
        assert status == "ok" or status.startswith("error: tilted skewness undefined")

    def test_gibbs_joint_run_emits_no_warnings(self, tmp_path):
        # the pytest configuration ignores RegimeWarning; record everything here
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                [
                    "gibbs",
                    "--model",
                    "weibull:k=2",
                    "--n",
                    "16,32",
                    "--a",
                    "fixed:3",
                    "--joint-k",
                    "2",
                    "--out",
                    str(tmp_path),
                ]
            )
        assert code == 0
        assert [str(w.message) for w in caught] == []

    def test_malformed_config_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("modle = weibull:k=2\n")
        code = main(["tilt", "--config", str(cfg)])
        assert code == 2
        assert "modle" in capsys.readouterr().err

    def test_bad_model_number_exits_with_one_line(self, tmp_path, capsys):
        code = main(["tilt", "--model", "weibull:k=abc", "--a-grid", "2:10:3:log", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: model spec field 'k' must be a number, got 'abc'"
        ]

    def test_bad_tol_value_exits_with_one_line(self, tmp_path, capsys):
        code = main(["validate", "--tol", "foo=abc", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: value for 'tol.foo' is not a number: 'abc'"
        ]

    def test_negative_seed_exits_with_one_line(self, tmp_path, capsys):
        code = main(["validate", "--seed", "-1", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["config error: seed must be >= 0, got -1"]

    @pytest.mark.parametrize("source", ["cli", "file"])
    def test_nan_tolerance_exits_with_one_line(self, tmp_path, capsys, source):
        if source == "cli":
            argv = ["validate", "--tol", "normalization_weibull2=nan"]
        else:
            cfg = tmp_path / "nan.cfg"
            cfg.write_text("tol.normalization_weibull2 = nan\n")
            argv = ["validate", "--config", str(cfg)]
        code = main(argv + ["--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: tolerance 'normalization_weibull2' must be finite and >= 0, got nan"
        ]
        assert not (tmp_path / "validate.json").exists()

    def test_unsupported_joint_k_exits_with_one_line(self, tmp_path, capsys):
        code = main(["gibbs", "--joint-k", "3", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["config error: joint_k must be 0 or 2, got 3"]
        assert list(tmp_path.iterdir()) == []

    def test_gibbs_reproducible_byte_identical(self, tmp_path):
        args = [
            "gibbs",
            "--model",
            "weibull:k=2",
            "--n",
            "4,8",
            "--a",
            "fixed:2",
            "--grid-step",
            "0.005",
            "--out",
        ]
        code = main(args + [str(tmp_path / "run1")])
        assert code == 0
        code = main(args + [str(tmp_path / "run2")])
        assert code == 0
        for name in ("gibbs.csv", "curve_tilted_n4.csv", "curve_fast_growth_n8.csv"):
            assert (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()

    def test_gibbs_json_format(self, tmp_path):
        code = main(
            [
                "gibbs",
                "--model",
                "weibull:k=2",
                "--n",
                "4",
                "--a",
                "fixed:2",
                "--grid-step",
                "0.005",
                "--format",
                "json",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "gibbs.json").read_text())
        assert payload["version"] == "0.1.0"
        assert {row["name"] for row in payload["rows"]} == {"tilted", "fast_growth"}

    def test_exceed_outputs(self, tmp_path):
        code = main(
            [
                "exceed",
                "--model",
                "weibull:k=2",
                "--n",
                "8",
                "--a",
                "fixed:2",
                "--grid-step",
                "0.005",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "exceed.csv").read_text().splitlines()
        assert lines[1].startswith("name,regime,n,a_n,tv,sup_gap")
        assert "tail_ratio" in lines[2]

    def test_env_thread_cap_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXTREME_GIBBS_THREADS", "1")
        code = main(
            ["tilt", "--model", "half_gaussian", "--a-grid", "1:10:3:log", "--out", str(tmp_path)]
        )
        assert code == 0


class TestValidate:
    def test_default_suite_passes(self, tmp_path):
        code = main(["validate", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "validate.json").read_text())
        assert summary["passed"] is True
        assert summary["version"] == "0.1.0"
        for check in summary["checks"]:
            assert set(check) == {"name", "passed", "measured", "tolerance"}

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        # scipy's import costs about 0.6 s; the built-in models never need it
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None  # any import of scipy now raises\n"
            "import extreme_gibbs.cli as cli\n"
            "out = sys.argv[1]\n"
            "runs = [\n"
            "    ['tilt', '--model', 'weibull:k=4', '--a-grid', '2:1e4:20:log'],\n"
            "    ['gibbs', '--n', '16,32', '--a', 'fixed:3', '--joint-k', '2'],\n"
            "    ['exceed', '--n', '8,16', '--a', 'fixed:2'],\n"
            "    ['validate'],\n"
            "]\n"
            "codes = [cli.main(run + ['--out', out + '/' + run[0]]) for run in runs]\n"
            "print(codes, sorted(m for m in sys.modules if m.startswith('scipy') and sys.modules[m] is not None))\n"
        )
        src = os.path.dirname(os.path.dirname(extreme_gibbs.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, env=env, check=True
        )
        assert done.stdout.strip() == "[0, 0, 0, 0] []"

    def test_broken_tolerance_fails_and_names_check(self, tmp_path):
        code = main(
            [
                "validate",
                "--tol",
                "solver_roundtrip_weibull2=1e-30",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1
        summary = json.loads((tmp_path / "validate.json").read_text())
        failed = [c["name"] for c in summary["checks"] if not c["passed"]]
        assert failed == ["solver_roundtrip_weibull2"]
