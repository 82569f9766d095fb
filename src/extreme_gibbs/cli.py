"""Command-line front door.

Four subcommands:

* ``tilt``      sweep the tilt solver over a grid of levels, emit a table.
* ``gibbs``     score conditional approximations against the exact oracle.
* ``exceed``    score the exceedance mixture and the tail formula.
* ``validate``  run the invariant suite; exit 0 iff every check passes.

Outputs are CSV (default) or JSON, every float serialized with 17
significant digits, each file opening with a ``# extreme-gibbs v<semver>``
version line.  Runs are reproducible: a config plus a seed yields
byte-identical files, which is why wall-clock timings go to stderr only.
``gibbs`` and ``exceed`` rows execute in a small thread pool capped by the
``EXTREME_GIBBS_THREADS`` environment variable; results are written in
declaration order regardless of completion order.  ``tilt`` solves its whole
grid in one batch (``tilt.solve_tilt_many``) and does not use the pool.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from . import exceedance as exc
from . import gibbs
from . import oracle
from . import tilt
from .config import _FIELDS, ApproxReport, ExperimentConfig, fmt17
from .errors import ConfigError, ExtremeGibbsError
from .model import make_exp_exponential, make_half_gaussian, make_weibull, model_from_spec

__all__ = ["main", "cmd_tilt", "cmd_gibbs", "cmd_exceed", "cmd_validate", "run_validation"]


def _pool_size(cfg: ExperimentConfig) -> int:
    env = os.environ.get("EXTREME_GIBBS_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"EXTREME_GIBBS_THREADS must be an integer, got {env!r}") from None
    if cfg.threads > 0:
        return cfg.threads
    return min(4, os.cpu_count() or 1)


def _run_rows(cfg: ExperimentConfig, jobs):
    """Run callables in a pool, return results in declaration order."""
    with ThreadPoolExecutor(max_workers=_pool_size(cfg)) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]


def _write_table(path: str, header: list[str], rows: list[list] | np.ndarray, fmt: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if fmt == "json":
        payload = {
            "version": __version__,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_json_num)
            fh.write("\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# extreme-gibbs v{__version__}\n")
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            # %.17g writes the bytes of fmt17; one format call covers the block
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            fh.write((line * rows.shape[0]) % tuple(rows.ravel().tolist()))
            return
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def _cell(v) -> str:
    if isinstance(v, float):
        return fmt17(v)
    if isinstance(v, dict):
        return '"' + json.dumps(v, sort_keys=True, default=_json_num).replace('"', "'") + '"'
    return str(v)


def _json_num(v):
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    raise TypeError(f"not serializable: {type(v)}")


# ---------------------------------------------------------------------------
# tilt
# ---------------------------------------------------------------------------

_TILT_HEADER = ["a", "t", "m", "s2", "mu3", "skew_ratio", "psi", "psi_d1", "V", "status"]


def cmd_tilt(cfg: ExperimentConfig) -> list[list]:
    """Sweep the tilt solver over the level grid; one row per level."""
    model = model_from_spec(cfg.model)
    if cfg.a_grid is not None:
        levels = cfg.a_grid.values()
    elif cfg.a.kind == "fixed":
        levels = np.asarray([cfg.a.value])
    else:
        levels = np.asarray([cfg.a.a_for(n) for n in cfg.n])

    def row(a: float, tp) -> list:
        try:
            if isinstance(tp, Exception):
                raise tp
            return [a, tp.t, tp.a, tp.s2, tp.mu3, tp.skew, tp.psi_val, tp.psi_d1, tp.s2, "ok"]
        except (ExtremeGibbsError, ArithmeticError) as err:  # e.g. s^3 past float range in the skew
            return [a, *[math.nan] * 8, "error: " + str(err).replace(",", ";").replace("\n", " ")]

    rows = [row(a, tp) for a, tp in zip(np.asarray(levels, dtype=float).tolist(), tilt.solve_tilt_many(model, levels))]
    ext = "json" if cfg.fmt == "json" else "csv"
    _write_table(os.path.join(cfg.out, f"tilt.{ext}"), _TILT_HEADER, rows, cfg.fmt)
    return rows


# ---------------------------------------------------------------------------
# gibbs
# ---------------------------------------------------------------------------

_REPORT_HEADER = ["name", "regime", "n", "a_n", "tv", "sup_gap", "extra"]
_CURVE_HEADER = ["y", "exact", "approx"]


def _report_rows(reports: list[ApproxReport]) -> list[list]:
    return [[r.name, r.regime, r.n, r.a_n, r.tv, r.sup_gap, r.extra] for r in reports]


def cmd_gibbs(cfg: ExperimentConfig) -> list[ApproxReport]:
    """Score tilted, modulated and joint approximations against the oracle."""
    model = model_from_spec(cfg.model)
    reports: list[ApproxReport] = []

    def one_n(n: int) -> list[ApproxReport]:
        a_n = cfg.a.a_for(n)
        started = time.perf_counter()
        orc = oracle.get_oracle(model, n, a_n, step=cfg.grid_step, pad=cfg.grid_pad)
        regime = cfg.regime if cfg.regime != "auto" else gibbs.classify_regime(model, n, a_n).kind
        ys = orc.default_ygrid()
        exact = orc.conditional_curve(ys)

        # the tilted curve is scored in every regime, so it is evaluated
        # directly, without gibbs.tilted_approx's regime warning
        out: list[ApproxReport] = []
        tilted = np.exp(tilt.log_tilted_density(model, orc.tp, ys))
        fp = gibbs.fast_growth_params(model, n, a_n, tp=orc.tp)
        fast = gibbs.fast_growth_approx(fp, model, ys)
        zs = gibbs.z_statistics(model, n, a_n, np.full(max(1, min(8, n // 4)), a_n))
        elapsed = (time.perf_counter() - started) * 1e3
        for name, vals in (("tilted", tilted), ("fast_growth", fast)):
            r = oracle.tv_distance(vals, exact, ys)
            out.append(
                ApproxReport(
                    name=name,
                    regime=regime,
                    n=n,
                    a_n=float(a_n),
                    tv=r.tv,
                    sup_gap=r.sup_gap,
                    runtime_ms=elapsed,
                    extra={"ratio": float(a_n / (orc.tp.s * math.sqrt(n))), "max_z2": float(np.max(zs**2))},
                )
            )
            path = os.path.join(cfg.out, f"curve_{name}_n{n}.csv")
            _write_table(path, _CURVE_HEADER, np.column_stack((ys, exact, vals)), "csv")
        if cfg.joint_k == 2 and n > 8:
            started = time.perf_counter()
            s = orc.tp.s
            grid = np.arange(max(model.support_lo, a_n - 8 * s), a_n + 8 * s, 10 * cfg.grid_step)
            exact2 = orc.joint2_grid(grid, grid)
            marg = np.exp(tilt.log_tilted_density(model, orc.tp, grid))
            r = oracle._joint_tv(exact2, marg, (10 * cfg.grid_step) ** 2)
            out.append(
                ApproxReport(
                    name="joint_common_k2",
                    regime=regime,
                    n=n,
                    a_n=float(a_n),
                    tv=r.tv,
                    sup_gap=r.sup_gap,
                    runtime_ms=(time.perf_counter() - started) * 1e3,
                    extra={},
                )
            )
        return out

    for chunk in _run_rows(cfg, [lambda n=n: one_n(n) for n in cfg.n]):
        reports.extend(chunk)
    ext = "json" if cfg.fmt == "json" else "csv"
    _write_table(os.path.join(cfg.out, f"gibbs.{ext}"), _REPORT_HEADER, _report_rows(reports), cfg.fmt)
    return reports


# ---------------------------------------------------------------------------
# exceed
# ---------------------------------------------------------------------------


def cmd_exceed(cfg: ExperimentConfig) -> list[ApproxReport]:
    """Score the exceedance mixture and the saddlepoint tail formula."""
    model = model_from_spec(cfg.model)

    def one_n(n: int) -> ApproxReport:
        a_n = cfg.a.a_for(n)
        started = time.perf_counter()
        orc = oracle.get_oracle(model, n, a_n, step=cfg.grid_step, pad=cfg.grid_pad)
        mix = exc._mixture_cached(model, n, a_n, "tilted", None)
        ys = orc.default_ygrid()
        exact = orc.exceedance_curve(ys)
        approx = mix.density(ys)
        r = oracle.tv_distance(exact, approx, ys)
        tail_ratio = math.exp(exc.tail_probability(model, n, a_n) - orc.log_tail())
        lp1, lp2 = exc.window_tail_masses(model, n, a_n)
        path = os.path.join(cfg.out, f"curve_exceed_n{n}.csv")
        _write_table(path, _CURVE_HEADER, np.column_stack((ys, exact, approx)), "csv")
        regime = cfg.regime if cfg.regime != "auto" else gibbs.classify_regime(model, n, a_n).kind
        return ApproxReport(
            name="exceedance_mixture",
            regime=regime,
            n=n,
            a_n=float(a_n),
            tv=r.tv,
            sup_gap=r.sup_gap,
            runtime_ms=(time.perf_counter() - started) * 1e3,
            extra={
                "tail_ratio": tail_ratio,
                "p2_over_p1": math.exp(lp2 - lp1),
                "raw_prefactor": mix.raw_prefactor,
                "eta": mix.eta,
            },
        )

    reports = _run_rows(cfg, [lambda n=n: one_n(n) for n in cfg.n])
    ext = "json" if cfg.fmt == "json" else "csv"
    _write_table(os.path.join(cfg.out, f"exceed.{ext}"), _REPORT_HEADER, _report_rows(reports), cfg.fmt)
    return reports


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _builtin_models():
    return {
        "weibull2": make_weibull(2.0),
        "half_gaussian": make_half_gaussian(),
        "exp_exponential": make_exp_exponential(),
    }


def run_validation(cfg: ExperimentConfig) -> dict:
    """Run the invariant suite; returns the JSON-ready summary."""
    from .edgeworth import EdgeworthSpec, edgeworth_density
    from .model import model_diagnostics

    tols = cfg.tolerances()
    models = _builtin_models()
    checks: list[dict] = []

    def record(name: str, measured: float, tol: float, smaller_is_better: bool = True) -> None:
        tol = tols.get(name, tol)
        passed = measured <= tol if smaller_is_better else measured >= tol
        checks.append(
            {"name": name, "passed": bool(passed), "measured": measured, "tolerance": tol}
        )

    for key, model in models.items():
        diag = model_diagnostics(model)
        record(f"normalization_{key}", abs(diag["normalization"] - 1.0), 1e-8)
        errs = [abs(model.h(model.psi(t)) - t) / t for t in (1.0, 10.0, 100.0, 1000.0) if t >= model.h_min]
        record(f"h_inverse_roundtrip_{key}", max(errs), 1e-10)
        m0 = tilt.tilt_moments(model, 0.0).a
        hi = {"weibull2": 1e8, "half_gaussian": 1e3, "exp_exponential": 300.0}[key]
        tps = tilt.solve_tilt_many(model, levels := np.geomspace(2 * m0, hi, 6))
        if failed := [tp for tp in tps if isinstance(tp, Exception)]:
            raise failed[0]
        record(f"solver_roundtrip_{key}", max(abs(tp.a - a) / a for tp, a in zip(tps, levels)), 1e-9)

    hg = models["half_gaussian"]
    cf = hg.closed_forms
    err = max(
        abs(tilt.log_mgf(hg, t) - cf.log_mgf(t)) for t in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)
    )
    record("half_gaussian_log_mgf_closed", err, 1e-8)
    tpm = tilt.tilt_moments(hg, 3.0)
    record(
        "half_gaussian_moments_closed",
        max(abs(tpm.a - cf.mean(3.0)), abs(tpm.s2 - cf.variance(3.0))),
        1e-8,
    )

    wb = models["weibull2"]
    tp100 = tilt.tilt_moments(wb, 100.0)
    record("theorem_moment_band", abs(tp100.s2 / tp100.psi_d1 - 1.0), 0.15)
    sk = [abs(tilt.skewness_ratio(m, t)) for m in (wb, models["exp_exponential"]) for t in (10.0, 100.0)]
    record("skewness_decreasing", 1.0 if (sk[0] > sk[1] and sk[2] > sk[3]) else 0.0, 0.5, smaller_is_better=False)

    spec = EdgeworthSpec(n=16, tp=tp100)
    xs = np.arange(-12.0, 12.0, 1e-3)
    vals = edgeworth_density(spec, xs)
    record("edgeworth_unit_mass", abs(float(np.trapezoid(vals, xs)) - 1.0), 1e-9)
    record("edgeworth_zero_mean", abs(float(np.trapezoid(xs * vals, xs))), 1e-9)

    def normal_pdf(x):
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    xs = np.arange(-8.0, 8.1 + 0.5e-3, 1e-3)
    r = oracle.tv_distance(normal_pdf(xs), normal_pdf(xs - 0.1), xs)
    closed = math.erfc(-0.05 / math.sqrt(2.0)) - 1.0  # 2 Phi(0.05) - 1
    record("tv_shifted_normals", abs(r.tv - closed), 2e-4)

    base = oracle.discretize(hg, 0.0, 12.0, 1e-3)
    conv4 = oracle.ConvolutionTable(base).power(4)
    record("conv_variance_linearity", abs(conv4.var() / (4 * base.var()) - 1.0), 1e-4)

    ratios = [gibbs.classify_regime(wb, 64, a).ratio for a in (1.0, 2.0, 4.0, 8.0)]
    record("regime_ratio_monotone", 1.0 if all(np.diff(ratios) > 0) else 0.0, 0.5, smaller_is_better=False)

    etas = [exc.eta_window(wb, n, 2.0) for n in (8, 16, 32, 64)]
    record("eta_window_monotone", 1.0 if all(np.diff(etas) < 0) else 0.0, 0.5, smaller_is_better=False)

    m0 = tilt.tilt_moments(wb, 0.0).a
    record("rate_zero_at_mean", abs(exc.rate_function(wb, m0).I), 1e-8)
    xs3 = (1.5, 2.5, 4.0)
    mids = [
        exc.rate_function(wb, 0.5 * (x1 + x2)).I - 0.5 * (exc.rate_function(wb, x1).I + exc.rate_function(wb, x2).I)
        for x1, x2 in zip(xs3, xs3[1:])
    ]
    record("rate_convexity", max(mids), 1e-12)

    mix = exc.ExceedanceMixture(wb, 16, 2.0)
    wv = mix.weight_values()
    record("mixture_weights_decreasing", 1.0 if all(np.diff(wv) < 0) else 0.0, 0.5, smaller_is_better=False)

    mc1 = oracle.mc_conditional_sample(wb, 8, 2.0, 0.2, 4096, seed=cfg.seed)
    mc2 = oracle.mc_conditional_sample(wb, 8, 2.0, 0.2, 4096, seed=cfg.seed)
    record("mc_seeded_determinism", 0.0 if np.array_equal(mc1.x1, mc2.x1) else 1.0, 0.5)

    rt = ExperimentConfig.from_text(cfg.canonical_text())
    record("config_roundtrip", 0.0 if rt == cfg else 1.0, 0.5)

    return {
        "version": __version__,
        "passed": bool(all(c["passed"] for c in checks)),
        "checks": checks,
    }


def cmd_validate(cfg: ExperimentConfig) -> dict:
    summary = run_validation(cfg)
    os.makedirs(cfg.out or ".", exist_ok=True)
    path = os.path.join(cfg.out, "validate.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_json_num)
        fh.write("\n")
    return summary


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a config error: one stderr line, exit 2."""

    def error(self, message: str):
        raise ConfigError(message)


_HELP = {
    "model": "model spec: weibull:k=2, half_gaussian, or a file",
    "n": "comma-separated row sizes, e.g. 8,16,32,64",
    "a": "level rule: fixed:<v> or power:c=<c>,delta=<d>",
    "a_grid": "tilt sweep grid lo:hi:count[:log|lin]",
    "regime": "auto, moderate or fast",
    "out": "output directory",
    "format": "csv or json",
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="config file (flags override file values)")
    # one flag per config key, kept as text: --grid-step sets grid.step
    for key in _FIELDS:
        flag = "--" + key.replace(".", "-").replace("_", "-")
        sub.add_argument(flag, dest=key, help=_HELP.get(key))
    sub.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a validation tolerance (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="extreme-gibbs",
        description="Tilted, Edgeworth and mixture approximations of sum-conditioned laws, with oracles.",
    )
    parser.add_argument("--version", action="version", version=f"extreme-gibbs {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("tilt", "sweep the tilt solver over levels"),
        ("gibbs", "score conditional approximations against the exact oracle"),
        ("exceed", "score the exceedance mixture and tail formula"),
        ("validate", "run the invariant suite"),
    ):
        sub = subs.add_parser(name, help=helptext)
        _add_common(sub)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    fields = {key: val for key, val in vars(args).items() if key in _FIELDS and val is not None}
    for item in args.tol:
        name, _, value = item.partition("=")
        if not value:
            raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
        fields["tol." + name.strip()] = value
    return cfg._with_fields(fields)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        started = time.perf_counter()
        if args.command == "tilt":
            rows = cmd_tilt(cfg)
            bad = [r for r in rows if r[-1] != "ok"]
            print(
                f"tilt: {len(rows)} rows ({len(bad)} failed) in "
                f"{time.perf_counter() - started:.2f}s -> {cfg.out}",
                file=sys.stderr,
            )
            return 0
        if args.command == "gibbs":
            reports = cmd_gibbs(cfg)
            print(
                f"gibbs: {len(reports)} rows in {time.perf_counter() - started:.2f}s -> {cfg.out}",
                file=sys.stderr,
            )
            return 0
        if args.command == "exceed":
            reports = cmd_exceed(cfg)
            print(
                f"exceed: {len(reports)} rows in {time.perf_counter() - started:.2f}s -> {cfg.out}",
                file=sys.stderr,
            )
            return 0
        summary = cmd_validate(cfg)
        failed = [c["name"] for c in summary["checks"] if not c["passed"]]
        status = "ok" if summary["passed"] else "FAILED: " + ", ".join(failed)
        print(
            f"validate: {len(summary['checks'])} checks, {status} "
            f"({time.perf_counter() - started:.2f}s) -> {cfg.out}/validate.json",
            file=sys.stderr,
        )
        return 0 if summary["passed"] else 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (ExtremeGibbsError, ArithmeticError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
