"""CLI outputs stay byte-identical under refactoring.

Small ``tilt``, ``gibbs``, ``exceed`` and ``validate`` runs go through
``cli.main``, and the sha256 of every file they write must equal the digest
recorded below.  A change that is meant to move numbers has to say so, state
its tolerance, test it, and re-record these digests:
``PYTHONPATH=src python tests/test_golden.py`` prints the current ones in the
layout of ``DIGESTS``.

The digests were recorded with Python 3.11.7 and numpy 2.4.6 on x86-64;
other library builds may round differently in the last digit.  scipy is not
on the path these runs take: its brentq and bounded minimize_scalar are
bitwise ports in ``quad``, the oracle's FFT is ``numpy.fft``, and the normal
cdf comes from ``math.erfc``, so the digests hold with or without scipy
installed.  The ``validate`` digest was re-recorded when the stdlib log of
the normal cdf replaced ``scipy.special.log_ndtr``: its
``half_gaussian_log_mgf_closed`` measurement moved from 4.4e-16 to 1.1e-16.
The ``exceed`` digest was re-recorded when the exceedance window moved from
level nodes to tilt nodes: the curves moved by at most 1e-12 relative where
they are at least 1e-6 of their peak, and ``raw_prefactor`` and
``p2_over_p1`` by at most 1e-10 relative (``tests/test_exceedance.py``,
``TestWindowOverTilt``).  It was re-recorded again when the tail beyond the
window moved from a panel walk to a 24-node Gauss-Laguerre rule: only
``p2_over_p1`` moved, by 1.2e-12 relative, and the rule is held to the
default panel walk within 1e-10 relative
(``tests/test_exceedance.py::test_laguerre_tail_matches_panel_walk``).

Every digest was re-recorded when one fixed double-exponential rule replaced
the panel walk of ``quad.log_integral`` and the tilt moved to saddle
offsets.  ``tests/test_quad.py`` keeps the one-panel walk as the reference
and tests each move: the ``gibbs`` and ``exceed`` curves and reports stay
within 1e-10 relative of the walk (measured: 7.3e-11 for ``sup_gap`` in
``gibbs.csv``, 3e-14 or less elsewhere); in ``tilt.csv``, ``t``, ``m``,
``psi`` and ``psi_d1`` stay within 1e-9 of the walk, while ``s2``, ``V``,
``mu3`` and ``skew_ratio`` are held to mpmath (1e-9 and 1e-6 relative),
because the panel walk was off by up to 342% in ``s2`` at a = 1e4.  The
``validate`` digest moved with its wider ``solver_roundtrip`` grids (Weibull
k=2 up to 1e8, exp_exponential up to 300) and with the measured values of
the rule; every check still passes at its old tolerance.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from extreme_gibbs.cli import main

RUNS = {
    "tilt": ["tilt", "--model", "weibull:k=4", "--a-grid", "2:1e4:20:log"],
    "gibbs": ["gibbs", "--n", "16,32", "--a", "fixed:3", "--joint-k", "2"],
    "exceed": ["exceed", "--n", "8,16", "--a", "fixed:2"],
    "validate": ["validate"],
}

DIGESTS = {
    "tilt": {
        "tilt.csv": "dd18270e8259d06dee95d42993acb94eee0e3aa48a360b743a0e2c0762f187b7",
    },
    "gibbs": {
        "curve_fast_growth_n16.csv": "e2b7415b4467d4187a289ae932e1e5a6e5bc498a17a3a11c2445a6e2dbdfd44f",
        "curve_fast_growth_n32.csv": "78df20462e860b9c9c9971e44185e550372d38f4ddf5beccfaf383e60b39c2df",
        "curve_tilted_n16.csv": "a2701534091c332746b3ccb99dd0f91bb5bb3c3b1978b10e86d9ce80c28ce081",
        "curve_tilted_n32.csv": "6dc1f9ba45b4025075bfc4e6c1216121eee5863b29e8cbd1064bbc05ca16b3d9",
        "gibbs.csv": "1cffce47efbfc53ebc4535a4ba4365ed3c3fbc1fdabd4017d949d16438c27649",
    },
    "exceed": {
        "curve_exceed_n16.csv": "3beb1ffe2e2d88c6c48ec2d6ef2439ce2f829e4dc1ed83b2e5d81b007d890d69",
        "curve_exceed_n8.csv": "6cee16dc4812e42e379e53f515b19d5adae3349164f14b4bbe0c03a02f19ee5b",
        "exceed.csv": "8a4e32655e83a3fcb34a3baaf540e9248c5e4de66c6fb7bbc2ff360d65fad737",
    },
    "validate": {
        "validate.json": "45869776876e3cf9f632cbacd199be6ac2620e5c8b4296f8da63d80414c338b5",
    },
}


def _digests(command: str, out: Path) -> dict[str, str]:
    assert main(RUNS[command] + ["--out", str(out)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("command", sorted(RUNS))
def test_outputs_match_recorded_digests(command, tmp_path):
    assert _digests(command, tmp_path) == DIGESTS[command]


if __name__ == "__main__":
    lines = ["DIGESTS = {"]
    for command in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            digests = _digests(command, Path(tmp))
        lines.append(f'    "{command}": {{')
        lines.extend(f'        "{name}": "{digest}",' for name, digest in digests.items())
        lines.append("    },")
    lines.append("}")
    sys.stdout.write("\n".join(lines) + "\n")
