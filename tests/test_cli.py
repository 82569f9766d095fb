"""Configs, the four subcommands, reproducibility, and serialization."""

import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extreme_gibbs
from extreme_gibbs.cli import _config_from_args, _write_table, build_parser, main
from extreme_gibbs.config import _FIELDS, AGrid, ARule, ApproxReport, ExperimentConfig, fmt17
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

    def test_float_array_rows_write_the_bytes_of_fmt17(self, tmp_path):
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e300, -1e-300]
        mags = np.geomspace(1e-300, 1e300, 600) * np.resize([1.0, -1.0, 1.0 / 3.0], 600)
        rows = np.concatenate([special, mags]).reshape(-1, 3)
        header = ["y", "exact", "approx"]
        _write_table(str(tmp_path / "array.csv"), header, rows, "csv")
        _write_table(str(tmp_path / "cells.csv"), header, [list(r) for r in rows], "csv")
        assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


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


def _run(argv, capsys):
    """Exit code and stderr lines of one ``main`` call."""
    code = main(argv)
    return code, capsys.readouterr().err.splitlines()


class TestInputErrors:
    """Inputs that once ended in a traceback or were accepted without a word."""

    def test_log_grid_through_zero(self, tmp_path, capsys):
        assert _run(["tilt", "--a-grid", "0:10:5:log", "--out", str(tmp_path)], capsys) == (
            2,
            ["config error: a log a-grid needs lo > 0: '0:10:5:log'"],
        )

    def test_expression_syntax_error_names_the_key(self, tmp_path, capsys):
        spec = tmp_path / "model.spec"
        spec.write_text("kind = custom\ng = x**\n")
        assert _run(["tilt", "--model", str(spec), "--out", str(tmp_path)], capsys) == (
            2,
            ["config error: model spec field 'g' is not an expression: 'x**'"],
        )

    def test_expression_arithmetic_error_names_the_expression(self, tmp_path, capsys):
        spec = tmp_path / "model.spec"
        spec.write_text("kind = custom\ng = x**2\nh = 1/0\n")
        assert _run(["tilt", "--model", str(spec), "--out", str(tmp_path)], capsys) == (
            1,
            ["error: expression '1/0' failed: division by zero"],
        )

    def test_table_model_without_scipy(self, tmp_path, capsys, monkeypatch):
        table = tmp_path / "table.csv"
        table.write_text("x,g\n0,0\n1,0.5\n2,2\n")
        spec = tmp_path / "model.spec"
        spec.write_text(f"kind = custom\ntable = {table}\n")
        monkeypatch.setitem(sys.modules, "scipy.interpolate", None)  # the import now fails
        assert _run(["tilt", "--model", str(spec), "--out", str(tmp_path)], capsys) == (
            2,
            ["config error: a tabulated model ('table = ...') needs scipy, which is not installed"],
        )

    def test_float_overflow_at_a_huge_level_is_a_row_error(self, tmp_path, capsys, recwarn):
        assert main(["tilt", "--a-grid", "1:1e300:3", "--out", str(tmp_path)]) == 0
        rows = [row.split(",") for row in (tmp_path / "tilt.csv").read_text().splitlines()[2:]]
        statuses = [row[-1] for row in rows]
        # the saddle-offset integrand solves a = 1e150 (t * x is 2e300); t * x overflows at 1e300
        assert statuses[:2] == ["ok", "ok"]
        assert float(rows[1][2]) == pytest.approx(float(rows[1][0]), rel=1e-12)
        assert statuses[2].startswith("error:")
        assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []

    def test_float_overflow_and_unwritable_out_end_in_one_line(self, tmp_path, capsys):
        code, lines = _run(["gibbs", "--n", "4", "--a", "fixed:1e150", "--out", str(tmp_path)], capsys)
        # the tilt solves a = 1e150; the modulated normalizer, in x, cannot resolve its width there
        assert (code, lines) == (1, ["error: invalid quadrature scale 0.7071067811865476 at center 1e+150"])
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        code, lines = _run(["tilt", "--a-grid", "2:4:2", "--out", str(blocker)], capsys)
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["--model", "weibull:q=2"], "config error: model kind 'weibull' takes no key 'q'"),
            (["--model", "weibull:k=2,k=3"], "config error: repeated model spec key 'k'"),
            (["--n", "8,,"], "config error: value for 'n' has an empty entry: '8,,'"),
            (["--threads", "-2"], "config error: threads must be >= 0, got -2"),
            (["--grid-step", "0"], "config error: grid.step must be finite and > 0, got 0.0"),
            (["--bogus", "1"], "config error: unrecognized arguments: --bogus 1"),
        ],
    )
    def test_rejected_flags(self, tmp_path, capsys, argv, line):
        assert _run(["tilt"] + argv + ["--out", str(tmp_path)], capsys) == (2, [line])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "text, line",
        [
            ("seed = 1\nseed = 2\n", "config error: repeated config key 'seed'"),
            ("seed 1\n", "config error: malformed config line 'seed 1'"),
            ("= 1\n", "config error: malformed config line '= 1'"),
            ("model = weibull:k=2\nn = 4,\n", "config error: value for 'n' has an empty entry: '4,'"),
        ],
    )
    def test_rejected_config_lines(self, tmp_path, capsys, text, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert _run(["tilt", "--config", str(cfg), "--out", str(tmp_path / "out")], capsys) == (2, [line])

    @pytest.mark.parametrize(
        "key, value",
        [("out", "v#x"), ("out", "v\nx"), ("out", "v\rx"), ("model", "weibull:k=2#x")],
    )
    def test_value_that_cannot_round_trip(self, tmp_path, capsys, monkeypatch, key, value):
        # canonical_text writes each value on one line, where '#' opens a comment
        monkeypatch.chdir(tmp_path)
        line = f"config error: {key} must not contain '#' or a line break: {value!r}"
        assert _run(["validate", _flag(key), value], capsys) == (2, [line])
        assert list(tmp_path.iterdir()) == []


# one good and one bad value text per config key; None where no text is invalid
_FIELD_VALUES = {
    "model": ("weibull:k=3", "weibull:k=abc"),
    "n": ("4,8", "4,x"),
    "a": ("power:c=1,delta=0.5", "power:c=1"),
    "a_grid": ("1:10:4:lin", "0:10:4:log"),
    "regime": ("fast", "bogus"),
    "grid.step": ("0.002", "tiny"),
    "grid.pad": ("10", "nan"),
    "seed": ("2.0", "2.5"),
    "threads": ("3", "-2"),
    "out": ("results", None),
    "format": ("json", "xml"),
    "joint_k": ("2", "1"),
}


def _flag(key):
    return "--" + key.replace(".", "-").replace("_", "-")


class TestFlagFileParity:
    """A flag and a config line are one input: same config, same error line."""

    def test_every_key_has_values(self):
        assert set(_FIELD_VALUES) == set(_FIELDS)

    @pytest.mark.parametrize("key", sorted(_FIELD_VALUES))
    def test_good_value(self, key):
        good = _FIELD_VALUES[key][0]
        from_flag = _config_from_args(build_parser().parse_args(["tilt", _flag(key), good]))
        assert from_flag == ExperimentConfig.from_text(f"{key} = {good}\n")
        assert from_flag != ExperimentConfig()

    @pytest.mark.parametrize("key", sorted(k for k, v in _FIELD_VALUES.items() if v[1] is not None))
    def test_bad_value(self, key, tmp_path, capsys):
        bad = _FIELD_VALUES[key][1]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {bad}\n")
        out = ["--a-grid", "2:4:2", "--out", str(tmp_path / "out")]
        if key == "a_grid":
            out = out[2:]
        by_flag = _run(["tilt", _flag(key), bad] + out, capsys)
        by_file = _run(["tilt", "--config", str(cfg)] + out, capsys)
        assert by_flag == by_file
        assert by_flag[0] == 2 and len(by_flag[1]) == 1 and by_flag[1][0].startswith("config error: ")
        assert not (tmp_path / "out").exists()


# -- fuzz ----------------------------------------------------------------------
#
# Small grammars of argv flags, config lines, inline and file model specs,
# expressions and table files, each mixing good and bad pieces.  Only tilt
# and gibbs are run: exceed and validate take 0.5-1.5 s per call and read
# their input through the same config and model-spec code.

_FLAG_TEXT = {
    "--n": ["4", "4,6", "8,,", "x", "2.0", "0", "-3", ""],
    "--a": ["fixed:2", "3", "power:c=1,delta=0.5", "power:c=1", "power:c=1,c=2", "fixed:nan", "bogus"],
    "--a-grid": ["2:5:2", "1:10:3:lin", "0:10:3:log", "5:1:3", "2:5:x", "2:5", "2:5:2:sqrt", "1:1e300:2"],
    "--regime": ["auto", "fast", "bogus"],
    "--grid-pad": ["10", "nan", "0"],
    "--seed": ["0", "2.0", "-1", "1e400", "x"],
    "--threads": ["1", "2", "-2", "0.5"],
    "--format": ["csv", "json", "xml"],
    "--joint-k": ["0", "2", "3"],
    "--tol": ["foo=1", "foo=x", "foo", "=1"],
    "--bogus": ["1"],
}
_CONFIG_LINES = [
    "model = half_gaussian",
    "n = 4",
    "seed = 1",
    "regime = bogus",
    "bogus = 1",
    "no equals sign",
    "# a comment",
    "tol.x = 1",
    "threads = -2",
    "= 3",
    "format = json",
    "a = fixed:2.5",
]
_INLINE_MODELS = [
    "weibull:k=2",
    "weibull:k=3",
    "half_gaussian",
    "exp_exponential",
    "weibull:k=abc",
    "weibull:q=2",
    "weibull:k=2,k=3",
    "weibull:k=0.5",
    "weibull:k",
    "cauchy",
    "",
]
_EXPRESSIONS = ["x**2", "x**2 - log(x)", "exp(x - 1)", "2*x", "x**", "1/0", "e(x)", "x[0]", "exp", "y", "(", "-x**2"]
_SPEC_LINES = [
    "h = 2*x",
    "h_prime = 2",
    "variation = regular:1",
    "variation = rapid",
    "variation = bogus",
    "epsilon = 1/x",
    "support_lo = 0",
    "support_lo = zero",
    "q = 0",
    "q_bound = 0",
    "name = fuzz",
    "foo = 1",
    "no equals sign",
]
_TABLE_ROWS = ["0,0", "0.5,0.125,0", "1,0.5", "2,2,0", "3,4.5", "3,4.5", "a,b", "1", "nan,1"]

_HAVE_SCIPY = importlib.util.find_spec("scipy") is not None


@st.composite
def _invocations(draw):
    """(argv, files to write, whether the model reads a table); paths are relative to a run directory."""
    files = {}
    argv = [draw(st.sampled_from(["tilt", "gibbs"]))]
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAG_TEXT)), max_size=3, unique=True)):
        argv += [flag, draw(st.sampled_from(_FLAG_TEXT[flag]))]
    model_form = draw(st.sampled_from(["default", "inline", "expressions", "table"]))
    if model_form == "inline":
        argv += ["--model", draw(st.sampled_from(_INLINE_MODELS))]
    elif model_form != "default":
        lines = ["kind = custom"]
        if model_form == "table":
            rows = draw(st.lists(st.sampled_from(_TABLE_ROWS), max_size=4))
            files["table.csv"] = "\n".join(["x,g,q"] + rows) + "\n"
            lines.append("table = table.csv")
        else:
            lines.append("g = " + draw(st.sampled_from(_EXPRESSIONS)))
        lines += draw(st.lists(st.sampled_from(_SPEC_LINES), max_size=2, unique=True))
        files["model.spec"] = "\n".join(lines) + "\n"
        argv += ["--model", "model.spec"]
    if draw(st.booleans()):
        files["run.cfg"] = "\n".join(draw(st.lists(st.sampled_from(_CONFIG_LINES), max_size=2))) + "\n"
        argv += ["--config", "run.cfg"]
    # keep the gibbs oracle small unless the drawn flags say otherwise
    if "--n" not in argv and "--config" not in argv:
        argv += ["--n", "4"]
    return argv + ["--grid-step", "0.02", "--out", "out"], files, model_form == "table"


@settings(max_examples=80)
@given(_invocations())
def test_fuzzed_inputs_end_in_one_line(invocation):
    argv, files, uses_table = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        cwd = os.getcwd()
        err = io.StringIO()
        try:
            os.chdir(tmp)
            # a warning the CLI would print counts as a stderr line
            with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert len(lines) == 1 and not caught, (lines, [str(w.message) for w in caught])
    if uses_table and not _HAVE_SCIPY:
        assert code == 2
