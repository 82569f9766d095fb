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
        "tilt.csv": "7938bebc030ba8b6d4e0b9b4178fa3c0a447be8f4d07af08db2bd523175df69f",
    },
    "gibbs": {
        "curve_fast_growth_n16.csv": "365b4abc026b00724aea4ee8329fc5b6e5e8efd482e32209ab0838074afdae6a",
        "curve_fast_growth_n32.csv": "a3451478a19aa9ba77e464742b97c54674453df9c327fea617981b1320b1aace",
        "curve_tilted_n16.csv": "e23637dd02ca9b8d2866eb2ad5880d420ae33d6215bc7891f99c9e8b5375a487",
        "curve_tilted_n32.csv": "d33521896f32919f0eb3380f96a275a7f3375a462718c27a0c7dfc1d64fcddf3",
        "gibbs.csv": "265086320020187a8add225014ca75336761216ef1271dcbcf900236c9212cd8",
    },
    "exceed": {
        "curve_exceed_n16.csv": "b7bb88bef3cd1539dd7135cc85c8e8761044918c16b81c0dbf01f8b3d64433fc",
        "curve_exceed_n8.csv": "da9b7381b1c349616d91e7e7e300608c78cc15804921dc969b1cb88623eeb15a",
        "exceed.csv": "c2793dce1f0e4a7beab80b109727a26b84fbc9a73eb3371275df8c41be3fcbee",
    },
    "validate": {
        "validate.json": "ca3a98d63329a104318dfdcf92d3a06061d73c9b46543acbc70d664e59a0df9e",
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
