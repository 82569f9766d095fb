"""Output checks, run in the benchmark process on a worker's output files.

Every operation gets a status:

* ``ok``      - the output passed every check;
* ``failed``  - the program produced no result: a tilt row whose status
  column carries a typed error, an API call that raised, or a CLI
  invocation that exited nonzero (with every row it owed);
* ``wrong``   - an output that was produced is missing, malformed, or
  disagrees with an independent check or the recorded reference.  Any
  ``wrong`` operation makes the run incorrect.

The checks are independent of the library: they re-derive what they can
with their own numpy code (tilted means, TV distances, normalizer masses)
and compare the rest with ``reference.json``, recorded on the unjittered
inputs.  TV tolerances are no tighter than the library's own acceptance
gates (criterion 7 allows 0.01 between TV values, criterion 12 a histogram
TV of 0.05).
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

ROUND_TRIP_RTOL = 1e-9  # the solver's own round-trip gate
TV_RECOMPUTE_RTOL = 1e-6  # reported TV vs TV recomputed from the curve file
TOLERANCE = {"tv": 0.01, "mc_tv": 0.05, "acceptance": 0.02}  # vs reference, absolute
MASS_ATOL = {"sweep": 1e-8, "mixture": 1e-6, "f_tilt": 1e-4}

# the file each step writes last
OUTPUT = {
    "tilt": "tilt.csv",
    "validate": "validate.json",
    "gibbs": "gibbs.csv",
    "exceed": "exceed.csv",
    "fast_api": "fast_api.json",
}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def operation(op_id: str, status: str = "ok", detail: str = "", observed: dict | None = None) -> dict:
    return {"id": op_id, "status": status, "detail": detail, "observed": observed or {}}


def _table(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# extreme-gibbs v"):
        raise ValueError(f"{path}: missing version line")
    rows = list(csv.reader(lines[1:]))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# numerics shared by the checks
# ---------------------------------------------------------------------------


def _gl_nodes(lo: float, hi: float, panels: int, order: int = 16) -> tuple[np.ndarray, np.ndarray]:
    u, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * u).ravel(), (half * w).ravel()


def _log_mass(logf: np.ndarray, weights: np.ndarray) -> float:
    v = logf + np.log(weights)
    top = np.max(v)
    return float(top + np.log(np.sum(np.exp(v - top))))


def _g_increment(model: str, x0: float, d: np.ndarray) -> np.ndarray:
    """g(x0 + d) - g(x0) for the built-in models, free of cancellation."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if model.startswith("weibull:k="):
            k = float(model.split("=", 1)[1])
            r = np.log1p(d / x0)
            return x0**k * np.expm1(k * r) - (k - 1.0) * r
        if model == "exp_exponential":
            return math.exp(x0 - 1.0) * np.expm1(d)
        if model == "half_gaussian":
            return x0 * d + 0.5 * d * d
    raise ValueError(f"no independent check for model {model!r}")


def _g_second(model: str, x0: float) -> float:
    if model.startswith("weibull:k="):
        k = float(model.split("=", 1)[1])
        return k * (k - 1.0) * x0 ** (k - 2.0) + (k - 1.0) / x0**2
    if model == "exp_exponential":
        return math.exp(x0 - 1.0)
    return 1.0


def tilted_mean(model: str, t: float, x0: float) -> float:
    """Mean of the density proportional to exp(t x - g(x)) on x >= 0,
    integrated in offsets from ``x0`` over +-40 Laplace widths."""
    sd = 1.0 / math.sqrt(_g_second(model, x0))
    lo = max(0.0, x0 - 40.0 * sd)
    x, w = _gl_nodes(lo, x0 + 40.0 * sd, 200)
    d = x - x0
    logf = t * d - _g_increment(model, x0, d)
    p = np.exp(logf - np.max(logf)) * w
    return x0 + float(np.sum(p * d) / np.sum(p))


def tv(x: np.ndarray, f: np.ndarray, g: np.ndarray) -> float:
    """Half the L1 distance after renormalizing both curves (trapezoid)."""
    f = f / np.trapezoid(f, x)
    g = g / np.trapezoid(g, x)
    return float(0.5 * np.trapezoid(np.abs(f - g), x))


# ---------------------------------------------------------------------------
# per-step checks
# ---------------------------------------------------------------------------


def check_step(step: dict, record: dict, out: str) -> list[dict]:
    """Operations of one step; a CLI invocation is itself one of them."""
    ops = []
    if step["kind"] != "fast_api":
        code = record.get("exit")
        detail = "" if code == 0 else f"exit {code} {record.get('error', '')}".strip()
        ops.append(operation(f"{step['name']}/exit", "ok" if code == 0 else "failed", detail))
        if code != 0 and not os.path.exists(os.path.join(out, OUTPUT[step["kind"]])):
            # the invocation died before writing: every row it owed failed
            return ops + [operation(op_id, "failed", "not produced") for op_id in _owed(step)]
    try:
        ops += CHECKS[step["kind"]](step, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        ops.append(operation(f"{step['name']}/outputs", "wrong", f"{type(exc).__name__}: {exc}"))
    return ops


def _owed(step: dict) -> list[str]:
    """Ids of the row operations a step writes (validate's checks are not
    known before it runs)."""
    if step["kind"] == "tilt":
        return [f"{step['name']}/row{i}" for i in range(step["rows"])]
    if step["kind"] in ("gibbs", "exceed"):
        return [f"{step['name']}/{name}/{n}" for name, n in _report_rows(step)]
    return []


def _check_tilt(step: dict, out: str) -> list[dict]:
    header, rows = _table(os.path.join(out, OUTPUT["tilt"]))
    col = {name: i for i, name in enumerate(header)}
    ops = []
    for i, row in enumerate(rows):
        op_id = f"{step['name']}/row{i}"
        status = row[col["status"]]
        if status != "ok":
            ops.append(operation(op_id, "failed" if status.startswith("error: ") else "wrong", status))
            continue
        a, t = float(row[col["a"]]), float(row[col["t"]])
        m = tilted_mean(step["model"], t, float(row[col["m"]]))
        err = abs(m - a) / a
        ok = err <= ROUND_TRIP_RTOL
        ops.append(operation(op_id, "ok" if ok else "wrong", "" if ok else f"a={a!r}: independent m(t) off by {err:.3e}"))
    for i in range(len(rows), step["rows"]):
        ops.append(operation(f"{step['name']}/row{i}", "wrong", "row missing"))
    return ops


def _check_validate(step: dict, out: str) -> list[dict]:
    with open(os.path.join(out, OUTPUT["validate"]), encoding="utf-8") as fh:
        summary = json.load(fh)
    ops = [
        operation(f"validate/{c['name']}", "ok" if c["passed"] else "wrong", "" if c["passed"] else json.dumps(c))
        for c in summary["checks"]
    ]
    if summary["passed"] is not True or not summary["checks"]:
        ops.append(operation("validate/passed", "wrong", "validate.json does not report passed: true"))
    return ops


def _curve_tv(path: str) -> float:
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    return tv(data[:, 0], data[:, 1], data[:, 2])


def _report_rows(step: dict) -> list[tuple[str, int]]:
    """(name, n) of every report row a gibbs or exceed step writes."""
    if step["kind"] == "exceed":
        return [("exceedance_mixture", n) for n in step["n"]]
    rows = [(name, n) for n in step["n"] for name in ("tilted", "fast_growth")]
    return rows + [("joint_common_k2", n) for n in step["n"] if n > 8]  # the CLI skips n <= 8


def _curve_file(step: dict, name: str, n: int) -> str | None:
    if step["kind"] == "exceed":
        return f"curve_exceed_n{n}.csv"
    return None if name == "joint_common_k2" else f"curve_{name}_n{n}.csv"


def _check_reports(step: dict, out: str) -> list[dict]:
    header, rows = _table(os.path.join(out, OUTPUT[step["kind"]]))
    col = {name: i for i, name in enumerate(header)}
    got = {(r[col["name"]], int(r[col["n"]])): float(r[col["tv"]]) for r in rows}
    ops = []
    for name, n in _report_rows(step):
        op_id = f"{step['name']}/{name}/{n}"
        if (name, n) not in got:
            ops.append(operation(op_id, "wrong", "report row missing"))
            continue
        value = got[name, n]
        problem = "" if 0.0 <= value <= 1.0 else f"tv {value!r} outside [0, 1]"
        path = _curve_file(step, name, n)
        if not problem and path is not None:
            again = _curve_tv(os.path.join(out, path))
            if abs(again - value) > TV_RECOMPUTE_RTOL * value:
                problem = f"reported tv {value!r} but the curve file gives {again!r}"
        ops.append(operation(op_id, "wrong" if problem else "ok", problem, {"tv": value}))
    return ops


def _weibull2_log_density(y: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return math.log(2.0) + np.log(y) - y * y


def _check_fast_api(step: dict, out: str) -> list[dict]:
    with open(os.path.join(out, OUTPUT["fast_api"]), encoding="utf-8") as fh:
        payload = json.load(fh)
    res, errors = payload["results"], payload["errors"]
    ops = []

    def add(name: str, problem: str, observed: dict | None = None) -> None:
        ops.append(operation(f"fast_api/{name}", "wrong" if problem else "ok", problem, observed))

    for name in ("joint", "sweep", "f_tilt", "mixture", "mc"):
        if name in errors:
            ops.append(operation(f"fast_api/{name}", "failed", errors[name]))
            continue
        if name not in res:
            add(name, "no result")
            continue
        r = res[name]
        if name == "joint":
            y, joint = np.asarray(r["y"]), np.asarray(r["joint"])
            bad = not (np.all(np.isfinite(joint)) and np.all(joint > 0))
            add(name, "joint values not finite and positive" if bad else "", None if bad else {"tv": tv(y, joint, np.asarray(r["marginal"]))})
        elif name == "sweep":
            worst = 0.0
            for row in r:
                mu = row["alpha"] * row["beta"] + row["a"]
                y, w = _gl_nodes(1e-12, row["a"] + 40.0, 400)
                logf = row["logC"] + _weibull2_log_density(y) - 0.5 * math.log(2 * math.pi * row["beta"]) - (y - mu) ** 2 / (2 * row["beta"])
                worst = max(worst, abs(math.exp(_log_mass(logf, w)) - 1.0))
            add(name, f"modulated density mass off by {worst:.3e}" if worst > MASS_ATOL["sweep"] else "")
        elif name in ("f_tilt", "mixture"):
            x = np.asarray(r["x" if name == "f_tilt" else "y"])
            f, g = np.asarray(r["tilted"]), np.asarray(r["modulated"])
            worst = max(abs(np.trapezoid(f, x) - 1.0), abs(np.trapezoid(g, x) - 1.0))
            add(name, f"mass off by {worst:.3e}" if worst > MASS_ATOL[name] else "", {"tv": tv(x, f, g)})
        else:
            counts = np.asarray(r["counts"], dtype=float)
            fy, fd = np.asarray(r["fine_y"]), np.asarray(r["fine_density"])
            cells = 0.5 * (fd[1:] + fd[:-1]) * np.diff(fy)
            q = cells.reshape(len(counts), -1).sum(axis=1)
            mc_tv = 0.5 * float(np.sum(np.abs(counts / counts.sum() - q / q.sum())))
            add(name, "", {"mc_tv": mc_tv, "acceptance": r["acceptance"]})
    return ops


CHECKS = {
    "tilt": _check_tilt,
    "validate": _check_validate,
    "gibbs": _check_reports,
    "exceed": _check_reports,
    "fast_api": _check_fast_api,
}


def compare_reference(ops: list[dict], reference: dict) -> None:
    """Mark operations whose observed values leave the reference tolerance."""
    for op in ops:
        for key, value in op["observed"].items():
            ref = reference.get(op["id"], {}).get(key)
            if ref is None:
                op["status"], op["detail"] = "wrong", f"no reference for {op['id']} {key}"
            elif abs(value - ref) > TOLERANCE[key]:
                op["status"] = "wrong"
                op["detail"] = f"{key} {value!r} vs reference {ref!r} (tolerance {TOLERANCE[key]})"


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
