"""CLI outputs stay byte-identical under refactoring.

Small ``tilt``, ``gibbs``, ``exceed`` and ``validate`` runs go through
``cli.main``, and the sha256 of every file they write must equal the digest
recorded below.  A change that is meant to move numbers has to say so, state
its tolerance, test it, and re-record these digests.

The digests were recorded with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1
on x86-64; other library builds may round differently in the last digit.
"""

import hashlib

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
        "curve_fast_growth_n16.csv": "77e1aa774d7dfe089266dec8761a25887764f2778f2acfe37b5e1b2da1e90730",
        "curve_fast_growth_n32.csv": "50bab6115082d31e59d454478f4c110d6b5c9c5066220937edfbbd10dedd2654",
        "curve_tilted_n16.csv": "4eddb4a1f6b07bc8198b9c06baf456204a98468cc19b7b46e1f84ed348e6d0de",
        "curve_tilted_n32.csv": "db43b82b4de7ee5f4547d2e05cf66fb6d0feaaaa5aad25220daee762b3498b7f",
        "gibbs.csv": "fdabfa2de84931a2bae32993972879e4b133b474e35dbf62926022e5959b6ea9",
    },
    "exceed": {
        "curve_exceed_n16.csv": "d7ac4b87246d4f192e656236be76f2c11295726ade77317cad0dae6617b36769",
        "curve_exceed_n8.csv": "df4735c8db5817bb8dfb22dd33fcc9685a0a64864d01356cb0efae4dd5b34780",
        "exceed.csv": "6706f4a91f009a07364e6b7769acb3da8c7eeb54e8d33ea9a048c1ffb6fd7ad6",
    },
    "validate": {
        "validate.json": "ecd0446b56ba6b2f286da34f082c40fcf83fa1b0f8209487f7d7ba51150ede53",
    },
}


@pytest.mark.parametrize("command", sorted(RUNS))
def test_outputs_match_recorded_digests(command, tmp_path):
    assert main(RUNS[command] + ["--out", str(tmp_path)]) == 0
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(tmp_path.iterdir())
    }
    assert written == DIGESTS[command]
