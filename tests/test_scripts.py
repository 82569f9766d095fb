"""The scripts under ``scripts/`` run to the end on small inputs and write
their CSV tables: the header and one row of numbers per t or row size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import extreme_gibbs

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script, *args):
    path = [str(Path(extreme_gibbs.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    argv = [sys.executable, str(SCRIPTS / script), *args]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _table(path):
    head, *rows = path.read_text().splitlines()
    rows = [row.split(",") for row in rows]
    assert all(len(row) == head.count(",") + 1 for row in rows)
    return head, [[float(v) for v in row] for row in rows]


def test_tilt_asymptotics_writes_a_table_per_model(tmp_path):
    _run("tilt_asymptotics.py", "--points", "3", "--out", str(tmp_path))
    for key in ("weibull2", "half_gaussian", "exp_exponential"):
        head, rows = _table(tmp_path / f"{key}.csv")
        assert head == "t,m,psi,s2,psi_d1,mu3,psi_d2,skew"
        assert [row[0] for row in rows] == pytest.approx([1.0, 10**1.5, 1e3], rel=1e-15)


@pytest.mark.parametrize(
    "script,head",
    [
        ("gibbs_convergence.py", "n,a,tv_tilted,tv_fast_growth,tv_joint2"),
        ("exceedance_window.py", "n,a,eta,tv,tail_ratio,raw_prefactor,p2_over_p1"),
    ],
)
def test_row_size_sweep_writes_a_row_per_n(tmp_path, script, head):
    out = tmp_path / "results" / "sweep.csv"  # the script makes the directory
    _run(script, "--n", "8,16", "--out", str(out))
    got, rows = _table(out)
    assert got == head
    assert [row[0] for row in rows] == [8.0, 16.0]
    tv = head.split(",").index("tv_tilted" if "tv_tilted" in head else "tv")
    assert all(0.0 < row[tv] < 1.0 for row in rows)
