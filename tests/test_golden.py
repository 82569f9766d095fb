"""CLI outputs stay byte-identical under refactoring.

Small ``tilt``, ``gibbs``, ``exceed`` and ``validate`` runs go through
``cli.main``, and the sha256 of every file they write must equal the digest
recorded below.  A change that is meant to move numbers has to say so, state
its tolerance, test it, and re-record these digests:
``PYTHONPATH=src python tests/test_golden.py`` prints the current ones in the
layout of ``DIGESTS``.

The digests were recorded with Python 3.11.7 and numpy 2.4.6 on x86-64;
other library builds may round differently in the last digit.  scipy is not
on the path these runs take (its brentq and bounded minimize_scalar were
ported bitwise into ``quad`` until ``quad._root`` and ``quad._locate``
replaced them; see the last two re-records below), the oracle's FFT is
``numpy.fft``, and the normal cdf comes from ``math.erfc``, so the digests
hold with or without scipy installed.  The ``validate`` digest was re-recorded when the stdlib log of
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

Every digest was re-recorded once more when one safeguarded Newton
(``quad._root``) replaced the port of scipy's ``brentq`` in the slope
inverse psi, the tilt solver's bracket phase and the modulated normalizer's
saddle.  psi moved to within a few ulps of the true root (brentq's absolute
``xtol = 2e-12`` was coarse next to small roots), and everything downstream
moved with it.  Measured against the parent's files, relative: in
``tilt.csv`` ``t`` 9.6e-15, ``m`` and ``psi`` 1.5e-15, ``psi_d1`` 2.8e-15,
``s2`` and ``V`` 3.5e-15, while ``mu3`` and ``skew_ratio`` (2.4e-8, at a
skewness of 1e-8) stay held to mpmath; the ``gibbs`` curves 8.5e-14,
``gibbs.csv`` 9e-12 (``tv``) and 3e-11 (``sup_gap``); the ``exceed``
curves 1.4e-14 and ``exceed.csv`` 1.1e-14.  In ``validate.json``,
``h_inverse_roundtrip_weibull2`` went from 1.5e-13 to 1.1e-16 and
``rate_zero_at_mean`` from 4.1e-16 to 4.0e-16; every check passes at its
tolerance.  ``tests/test_root.py`` holds the ``psi`` column to mpmath.

The ``validate`` digest was re-recorded when the rule's own nodes
(``quad._locate``) replaced the peak search and the port of bounded
``minimize_scalar`` in centring the integrals without a known saddle.
Only ``solver_roundtrip_exp_exponential`` moved, from 1.5e-16 to 3.0e-16,
through validate's ``tilt_moments(exp_exponential, 0)``, which lies below
the range of h; the ``tilt``, ``gibbs`` and ``exceed`` digests did not
move.  ``tests/test_locate.py`` holds the relocated integrals to closed
forms and mpmath.

The ``tilt`` digest was re-recorded when ``cmd_tilt`` moved to the batch
solver ``tilt.solve_tilt_many``, which sums each level's 173 nodes with the
nodes a row drops masked to -inf, so only the pairwise-sum grouping changes.
Measured against the parent's file, relative: ``t`` 8.1e-16, ``m`` 2.0e-16,
``s2`` and ``V`` 6.4e-16, ``psi`` 2.8e-16, ``psi_d1`` 6.2e-16; ``mu3`` and
``skew_ratio`` move by at most 1.7e-16 s^3 (1.0e-12 relative in ``mu3`` at a
skewness of 1.1e-4); ``t`` is bitwise equal in 18 of the 20 rows.
``tests/test_tilt_many.py`` holds the batch to the scalar solver within
1e-14.  The ``gibbs``, ``exceed`` and ``validate`` digests did not move.
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
        "tilt.csv": "b86a9c7dcad2cc5a48de7bfccf431b97d62d3c9e82c0f3f7beaec189e3970fa0",
    },
    "gibbs": {
        "curve_fast_growth_n16.csv": "bfbeacf982846d4756a1801f0694e98d5a0a38c23239d4a5c0b048b893e98c2c",
        "curve_fast_growth_n32.csv": "095abac8144fdfd3a74e0fd5e025e208cea25ffffb52ee6999ec242b029db0cd",
        "curve_tilted_n16.csv": "43eab06d21f91439ba1ac1afa7202482f9247d54f6f38c9e8d82577472c09b86",
        "curve_tilted_n32.csv": "3d30c49fe01185ce17a735923fc5e7e3d278231f996c75af166c7f4e5e3ecdd4",
        "gibbs.csv": "e1c9c209962e07a3eaddfdac3f9df184a12a7bfa67e0fc69d6b54f047b04c9d4",
    },
    "exceed": {
        "curve_exceed_n16.csv": "5b8b16ecf8a529bbe8d6f27b845ebabec8b9be9ef70ddb5055cbc4bd49083082",
        "curve_exceed_n8.csv": "d90e90626cddb7aad682304775f5a3aeae6882de7c86f2a124bd5f60fa79a592",
        "exceed.csv": "985ca33f93feb323976782e1ca017cb99215a60221df5203f5c6f8597d628f7e",
    },
    "validate": {
        "validate.json": "65dec6a1201e9e401399bb529f6c762c991b7f342f7f488f30cf62b395b048b7",
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
