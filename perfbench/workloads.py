"""Workload inputs and their execution inside a worker process.

A workload is a list of steps.  A CLI step is an argv for
``extreme_gibbs.cli.main`` with its own output directory; the ``fast_api``
step calls the library directly.  Inputs are derived from the benchmark
seed: levels are jittered by at most ``JITTER`` (relative) while row sizes,
grid lengths and counts stay fixed, so the work volume is comparable from
seed to seed.

The benchmark process imports this module for ``plan()`` without the
library on its path, so the library is imported only inside the functions
that a worker runs.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("tilt_sweep", "gibbs_oracle", "exceed_window", "fast_api")

# Why each workload is in the benchmark (also in BENCHMARK.json).
WHY = {
    "tilt_sweep": "distinct far-apart levels through the CLI tilt solver and validate; "
    "bypasses the solve cache and the oracle, keeps the solver's failing levels",
    "gibbs_oracle": "large-n convolution oracle, joint k=2 grid and curve writer; "
    "tilt work is about 1%",
    "exceed_window": "clustered window levels through the solve cache, window masses "
    "and the oracle suffix-tail path",
    "fast_api": "library calls in the fast-growth regime: modulated normalizers, "
    "f-tilt solver, joint products and Monte Carlo",
}

# Relative half-width of the level jitter.  Small enough that every TV value
# moves far less than its check tolerance (see README.md).
JITTER = 0.005

# Seed held out for claim checks: never used while tuning a change.
HELD_OUT_SEED = 7919

CLI_THREADS = 2

# Workloads whose time is mostly interpreter work (tilt, quad, gibbs layers).
# Their wall and CPU times are scaled to the nominal host speed by the probe
# (see speed.py).  gibbs_oracle spends 85% of its time in the convolution
# FFTs on both pool threads; its speed does not follow the one-thread probe,
# and scaling widened its spread instead of narrowing it (README), so its
# times are reported as measured.  Set-up is scaled on every workload.
PROBE_SCALED = frozenset({"tilt_sweep", "exceed_window", "fast_api"})

# tilt_sweep grids: (model, lo, hi, count, scale).  Row counts are fixed.
TILT_GRIDS = (
    ("weibull:k=2", 2.0, 1e6, 200, "log"),
    ("weibull:k=4", 2.0, 1e6, 100, "log"),
    ("exp_exponential", 2.0, 60.0, 100, "lin"),
    ("half_gaussian", 1.0, 1e4, 100, "log"),
)

# Levels past which the solver is documented to fail (typed NumericError).
# Every jittered grid must still cross them, so the failures stay measured.
KNOWN_FAILURE_LEVELS = {"weibull:k=4": 1.1e5, "exp_exponential": 38.0}

GIBBS_N = (32, 128, 512)
GIBBS_A = 3.0
EXCEED_RUNS = (
    ("weibull:k=2", (8, 16, 24, 32, 48, 64), 2.0),
    ("exp_exponential", (16, 32, 64), 4.0),
)

# fast_api sizes
FAST_N = 32
FAST_A = 16.0
FAST_JOINT_HALF = 247  # y1 = a_n + 0.02 * (-247 .. 246): 494 grid points
FAST_JOINT_MARK_EVERY = 100  # grid points between speed marks (about 1.4 s)
FAST_SWEEP_N = (16, 32, 64, 128, 256)
FAST_SWEEP_A = (4.0, 8.0, 16.0, 32.0)
FAST_F_A = 3.0
FAST_MC_DRAWS = 400_000
FAST_MC_EPS_SD = 0.3  # epsilon in units of s / sqrt(n): acceptance ~0.23
FAST_MC_BINS = 50


def _factor(rng: random.Random | None) -> float:
    return 1.0 if rng is None else 1.0 + rng.uniform(-JITTER, JITTER)


def plan(workload: str, seed: int | None) -> dict:
    """Inputs of one workload.  ``seed=None`` gives the unjittered inputs
    that the reference values in ``reference.json`` were recorded on."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = None if seed is None else random.Random(f"{workload}:{seed}")
    stream = 0 if seed is None else seed % 2**32  # numpy seeds must be non-negative
    steps: list[dict] = []
    if workload == "tilt_sweep":
        for i, (model, lo, hi, count, scale) in enumerate(TILT_GRIDS):
            lo, hi = lo * _factor(rng), hi * _factor(rng)
            edge = KNOWN_FAILURE_LEVELS.get(model)
            if edge is not None and not lo < edge < hi:
                raise AssertionError(f"{model} grid {lo}..{hi} misses the failure level {edge}")
            steps.append(
                {
                    "name": f"tilt{i}",
                    "kind": "tilt",
                    "model": model,
                    "rows": count,
                    "argv": ["tilt", "--model", model, "--a-grid", f"{lo!r}:{hi!r}:{count}:{scale}"],
                }
            )
        steps.append(
            {
                "name": "validate",
                "kind": "validate",
                "argv": ["validate", "--seed", str(stream)],
            }
        )
    elif workload == "gibbs_oracle":
        a = GIBBS_A * _factor(rng)
        steps.append(
            {
                "name": "gibbs",
                "kind": "gibbs",
                "n": list(GIBBS_N),
                "argv": ["gibbs", "--model", "weibull:k=2", "--n", ",".join(map(str, GIBBS_N)),
                         "--a", f"fixed:{a!r}", "--joint-k", "2"],
            }
        )
    elif workload == "exceed_window":
        for i, (model, ns, a) in enumerate(EXCEED_RUNS):
            a = a * _factor(rng)
            steps.append(
                {
                    "name": f"exceed{i}",
                    "kind": "exceed",
                    "n": list(ns),
                    "argv": ["exceed", "--model", model, "--n", ",".join(map(str, ns)), "--a", f"fixed:{a!r}"],
                }
            )
    else:
        steps.append(
            {
                "name": "fast_api",
                "kind": "fast_api",
                "a_n": FAST_A * _factor(rng),
                "sweep_a": [a * _factor(rng) for a in FAST_SWEEP_A],
                "f_a": FAST_F_A * _factor(rng),
                "mc_seed": stream,
            }
        )
    return {"workload": workload, "seed": seed, "steps": steps}


# ---------------------------------------------------------------------------
# execution (worker process only)
# ---------------------------------------------------------------------------


def execute(inputs: dict, out_root: str, mark) -> list[dict]:
    """Run every step; return one record per step.  Output files go to
    ``out_root/<step name>/``.  ``mark()`` is called after each step, and
    inside ``fast_api`` between its call groups and every
    ``FAST_JOINT_MARK_EVERY`` joint grid points."""
    records = []
    for step in inputs["steps"]:
        out = os.path.join(out_root, step["name"])
        os.makedirs(out, exist_ok=True)
        if step["kind"] == "fast_api":
            records.append(_run_fast_api(step, out, mark))
        else:
            records.append(_run_cli(step["argv"] + ["--out", out]))
        mark()
    return records


def _run_cli(argv: list[str]) -> dict:
    from extreme_gibbs import cli

    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed invocation, not a crash of the benchmark
        return {"exit": -1, "error": f"{type(exc).__name__}: {exc}"}
    return {"exit": code}


def _run_fast_api(step: dict, out: str, mark) -> dict:
    """Library calls in the fast-growth regime on Weibull k=2.

    Each call group is one operation; its outputs are written as JSON arrays
    (floats in repr form, so reruns are byte-identical) and checked by the
    parent process.
    """
    import math

    import numpy as np

    from extreme_gibbs import exceedance, gibbs, model, oracle, tilt

    wb = model.make_weibull(2.0)
    n, a_n = FAST_N, step["a_n"]
    results: dict = {}
    errors: dict = {}

    def attempt(name, fn):
        try:
            results[name] = fn()
        except Exception as exc:  # recorded as a failed operation
            errors[name] = f"{type(exc).__name__}: {exc}"

    s = tilt.solve_tilt_cached(wb, a_n).s

    def joint():
        ys1 = a_n + 0.02 * np.arange(-FAST_JOINT_HALF, FAST_JOINT_HALF)
        vals = []
        for i, y in enumerate(ys1):
            if i and i % FAST_JOINT_MARK_EVERY == 0:
                mark()
            vals.append(gibbs.joint_fast_approx(wb, n, a_n, [y, a_n]))
        fp = gibbs.fast_growth_params(wb, n, a_n)
        marg = gibbs.fast_growth_approx(fp, wb, ys1)
        return {"y": ys1.tolist(), "joint": vals, "marginal": marg.tolist()}

    def sweep():
        rows = []
        for nn in FAST_SWEEP_N:
            for a in step["sweep_a"]:
                fp = gibbs.fast_growth_params(wb, nn, a)
                rows.append({"n": nn, "a": a, "alpha": fp.alpha, "beta": fp.beta, "logC": fp.logC})
        return rows

    def f_tilt():
        xs = np.arange(0.0, 6.0, 1e-3)
        square = lambda x: x * x  # noqa: E731
        til = gibbs.f_tilted_approx(wb, square, n, step["f_a"], xs)
        mod = gibbs.f_tilted_approx(wb, square, n, step["f_a"], xs, variant="gaussian_modulated")
        return {"x": xs.tolist(), "tilted": til.tolist(), "modulated": mod.tolist()}

    def mixture():
        ys = np.arange(a_n - 7.0 * s, a_n + 7.0 * s, 1e-3)
        mod = exceedance.ExceedanceMixture(wb, n, a_n, variant="gaussian_modulated")
        til = exceedance.ExceedanceMixture(wb, n, a_n)
        return {"y": ys.tolist(), "modulated": mod.density(ys).tolist(), "tilted": til.density(ys).tolist()}

    def mc():
        eps = FAST_MC_EPS_SD * s / math.sqrt(n)
        sample = oracle.mc_conditional_sample(wb, n, a_n, eps, FAST_MC_DRAWS, seed=step["mc_seed"])
        edges = np.linspace(a_n - 5.0 * s, a_n + 5.0 * s, FAST_MC_BINS + 1)
        counts, _ = np.histogram(sample.x1, bins=edges)
        fine = np.linspace(edges[0], edges[-1], 8 * FAST_MC_BINS + 1)
        fp = gibbs.fast_growth_params(wb, n, a_n)
        return {
            "acceptance": sample.acceptance_rate,
            "edges": edges.tolist(),
            "counts": counts.tolist(),
            "fine_y": fine.tolist(),
            "fine_density": gibbs.fast_growth_approx(fp, wb, fine).tolist(),
        }

    groups = (("joint", joint), ("sweep", sweep), ("f_tilt", f_tilt), ("mixture", mixture), ("mc", mc))
    for i, (name, fn) in enumerate(groups):
        if i:
            mark()
        attempt(name, fn)
    with open(os.path.join(out, "fast_api.json"), "w", encoding="utf-8") as fh:
        json.dump({"results": results, "errors": errors}, fh)
        fh.write("\n")
    return {"exit": 0}
