"""The scipy-free numerics agree with the scipy routines they replace.

``oracle._convolve_pair`` uses numpy's pocketfft at scipy's real-transform
fast length, and must give bitwise-equal numbers; ``model._log_ndtr`` is a
stdlib log of the normal cdf, and must agree with
``scipy.special.log_ndtr`` to rounding.  (The root-finder that replaced the
port of ``brentq``, and the locator that replaced the port of bounded
``minimize_scalar``, are tested without scipy, in ``tests/test_root.py`` and
``tests/test_locate.py``.)
"""

import numpy as np
import pytest
from scipy import fft as sp_fft
from scipy.special import log_ndtr

from extreme_gibbs import oracle
from extreme_gibbs.model import _log_ndtr


def test_fast_len_is_scipys_real_fast_length():
    assert [oracle._fast_len(n) for n in range(1, 20000)] == [
        sp_fft.next_fast_len(n, True) for n in range(1, 20000)
    ]
    for n in (253_001, 6_400_001, 40_000_000):
        assert oracle._fast_len(n) == sp_fft.next_fast_len(n, True)


def _bump(n: int, lo: float, step: float) -> oracle.GridDensity:
    x = np.arange(n) / (n - 1)
    values = np.exp(-0.5 * ((x - 0.4) / 0.08) ** 2) * (1.0 + x)
    return oracle.GridDensity(lo, lo + step * (n - 1), step, values, 1.0)


@pytest.mark.parametrize(
    "na,nb", [(2, 2), (17, 1000), (4097, 4096), (12345, 6789), (60000, 60001), (126500, 126501)]
)
def test_convolve_pair_is_bitwise_scipy_fft(na, nb, monkeypatch):
    a, b = _bump(na, 0.5, 1e-3), _bump(nb, 1.25, 1e-3)
    got = oracle._convolve_pair(a, b)
    monkeypatch.setattr(oracle, "_fast_len", lambda n: sp_fft.next_fast_len(n, True))
    monkeypatch.setattr(oracle.np.fft, "rfft", sp_fft.rfft)
    monkeypatch.setattr(oracle.np.fft, "irfft", sp_fft.irfft)
    ref = oracle._convolve_pair(a, b)
    assert (got.lo, got.hi, got.step) == (ref.lo, ref.hi, ref.step)
    assert got.values.tobytes() == ref.values.tobytes()


def test_log_ndtr_matches_scipy_to_rounding():
    ts = np.concatenate(
        [np.linspace(-40.0, 40.0, 16001), -np.geomspace(1e-6, 40.0, 500), np.geomspace(1e-6, 1e6, 2000)]
    )
    got = np.array([_log_ndtr(float(t)) for t in ts])
    ref = log_ndtr(ts)
    # relative error where log Phi is a normal float; beyond t ~ 37.5 it is
    # subnormal, carries fewer significant bits, and is compared absolutely
    normal = np.abs(ref) >= np.finfo(float).tiny
    assert np.max(np.abs(got - ref)[normal] / np.abs(ref[normal])) <= 1e-12
    assert np.max(np.abs(got - ref)[~normal]) <= np.finfo(float).tiny


def test_log_ndtr_at_validate_points():
    # the t values of validate's half_gaussian_log_mgf_closed and moments checks
    for t in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0):
        assert abs(_log_ndtr(t) - float(log_ndtr(t))) <= 1e-15
