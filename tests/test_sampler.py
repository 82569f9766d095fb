"""The Monte Carlo sampler's guide-table inverse CDF against ``np.interp``.

No scipy: ``validate`` runs this sampler on the default path.
"""

import math
import tracemalloc

import numpy as np
import pytest

from extreme_gibbs import oracle
from extreme_gibbs.errors import DomainError
from extreme_gibbs.model import make_exp_exponential, make_half_gaussian, make_weibull
from extreme_gibbs.tilt import solve_tilt_cached

G = oracle._GUIDE_CELLS


def _reference_sample(model, n, a_n, epsilon, n_draws, seed, proposal="tilted"):
    """The sampler loop as it was before the guide table: one np.interp per batch."""
    tp = solve_tilt_cached(model, float(a_n))
    xs, cdf = oracle._inverse_cdf_table(model, tp if proposal == "tilted" else None)

    kept = []
    done = 0
    batch_index = 0
    n_acc = 0
    while done < n_draws:
        rows = min(oracle._MC_BATCH, n_draws - done)
        rng = np.random.default_rng([seed, batch_index])
        u = rng.random((rows, n))
        draws = np.interp(u, cdf, xs)
        means = draws.mean(axis=1)
        mask = np.abs(means - a_n) <= epsilon
        kept.append(draws[mask, 0])
        n_acc += int(mask.sum())
        done += rows
        batch_index += 1
    return np.concatenate(kept), n_acc / n_draws, n_draws


# (model, level) of each tilted table; level None is the raw-proposal table
TABLES = [
    ("weibull1.5", make_weibull(1.5), 2.0),
    ("weibull1.5", make_weibull(1.5), 40.0),
    ("weibull2", make_weibull(2.0), 3.0),
    ("weibull2", make_weibull(2.0), 16.0),
    ("weibull4", make_weibull(4.0), 2.0),
    ("weibull4", make_weibull(4.0), 30.0),
    ("exp_exponential", make_exp_exponential(), 3.0),
    ("exp_exponential", make_exp_exponential(), 12.0),
    ("half_gaussian", make_half_gaussian(), 1.0),
    ("half_gaussian", make_half_gaussian(), 50.0),
    ("weibull2", make_weibull(2.0), None),
    ("exp_exponential", make_exp_exponential(), None),
]


def _table(model, a):
    tp = None if a is None else solve_tilt_cached(model, a)
    return oracle._inverse_cdf_table(model, tp)


def _adversarial_u(cdf):
    """Cell edges, cdf nodes and their float neighbours.

    The nodes include every flat run of cdf; the Weibull k=2, a=16 table
    has 4,472 of them.
    """
    nodes = cdf[cdf < 1.0]
    u = np.concatenate(
        [
            [0.0, np.nextafter(1.0, 0.0)],
            np.arange(G) / G,
            nodes,
            np.nextafter(nodes, 0.0),
            np.nextafter(nodes, 1.0),
        ]
    )
    return u[u < 1.0]


@pytest.mark.parametrize("name,model,a", TABLES, ids=[f"{t[0]}-a{t[2]}" for t in TABLES])
def test_guide_table_is_bitwise_interp(name, model, a):
    xs, cdf = _table(model, a)
    lookup = oracle._GuideTable(xs, cdf)
    # both paths are taken: cells with one interval and sentinel cells
    assert (lookup.code == lookup.miss).any() and (lookup.code != lookup.miss).any()
    u_random = np.random.default_rng(17).random((4000, 50))
    for u in (_adversarial_u(cdf), u_random):
        got = lookup(u)
        assert got.shape == u.shape
        assert got.tobytes() == np.interp(u, cdf, xs).tobytes()


# n_draws = 70,001 is one full batch and a partial one that ends inside a
# lookup chunk
@pytest.mark.parametrize("n", [1, 8, 32])
@pytest.mark.parametrize("proposal,a_n,epsilon", [("tilted", 3.0, 0.05), ("raw", 1.0, 0.1)])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_sample_matches_reference_loop(weibull2, n, proposal, a_n, epsilon, seed):
    mc = oracle.mc_conditional_sample(weibull2, n, a_n, epsilon, 70_001, seed=seed, proposal=proposal)
    x1, rate, n_proposals = _reference_sample(weibull2, n, a_n, epsilon, 70_001, seed, proposal)
    assert mc.x1.size > 0
    assert mc.x1.tobytes() == x1.tobytes()
    assert mc.acceptance_rate == rate
    assert mc.n_proposals == n_proposals


def test_chunked_lookup_peak_memory(weibull2):
    # the lookup works on chunks of a batch, so its temporaries never
    # outgrow those of one np.interp call on the whole batch
    eps = solve_tilt_cached(weibull2, 3.0).s / (2 * math.sqrt(32))
    peaks = []
    for sample in (oracle.mc_conditional_sample, _reference_sample):
        tracemalloc.start()
        try:
            sample(weibull2, 32, 3.0, eps, 200_000, 4)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.1 * peaks[1], peaks


@pytest.mark.parametrize("chunk", [1 << 10, 1 << 17], ids=["2^10", "2^17"])
def test_chunk_size_leaves_the_sample_bitwise_equal(weibull2, chunk, monkeypatch):
    # the chunks read each batch's random stream in order, so the chunk size
    # changes only the cache footprint of the lookup, never a draw
    eps = solve_tilt_cached(weibull2, 3.0).s / (2 * math.sqrt(32))
    default = oracle.mc_conditional_sample(weibull2, 32, 3.0, eps, 100_000, seed=4)
    monkeypatch.setattr(oracle, "_MC_CHUNK", chunk)
    other = oracle.mc_conditional_sample(weibull2, 32, 3.0, eps, 100_000, seed=4)
    assert other.x1.size > 0
    assert other.x1.tobytes() == default.x1.tobytes()


@pytest.mark.parametrize(
    "bad",
    [{"n_draws": 1000.0}, {"n": 8.0}, {"n": 0}, {"seed": -1}, {"seed": 1.5}],
    ids=["n_draws-float", "n-float", "n-zero", "seed-negative", "seed-float"],
)
def test_bad_counts_are_domain_errors(weibull2, bad):
    (name,) = bad
    args = {"n": 8, "n_draws": 1000, "seed": 1} | bad
    with pytest.raises(DomainError, match=rf"^{name} must"):
        oracle.mc_conditional_sample(weibull2, args["n"], 3.0, 0.3, args["n_draws"], seed=args["seed"])
