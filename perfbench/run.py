"""extreme-gibbs benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition of a workload runs in a fresh interpreter, with every cache
cold, as a CLI user pays for it.  ``--trace 0`` measures the end-to-end
metrics: set-up is the import of ``extreme_gibbs.cli`` (the median over an
import-only interpreter and one sample per repetition), and wall time, CPU
time and peak RSS are medians over the repetitions that fit in ``--seconds``.
Set-up, and wall and CPU time of the workloads in ``workloads.PROBE_SCALED``,
are reported at a nominal host speed (see speed.py).
``--trace 1`` runs the workload once untraced and once with spans around the
public functions of every layer, checks that both runs wrote byte-identical
files, and reports the per-layer metrics.

Every run checks the program's outputs (see checks.py).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  A fuller
record, with machine facts and every span, is written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

# import-only interpreters per untraced run, on top of one sample per repetition
SETUP_SAMPLES = 1
# a median needs at least three samples, even when the machine is slow
MIN_REPETITIONS = 3
# a whole run must end inside the 180 s it is allowed
RUN_DEADLINE = time.monotonic() + 170.0

# spans reported with call count and self time, and with self time only
CALLS_AND_SELF = (
    "quad.log_integral",
    "quad.find_peak",
    "model.psi",
    "tilt.tilt_moments",
    "gibbs.fast_growth_params",
    "exceedance.ExceedanceMixture",
    "oracle.ConditionalOracle",
    "oracle.ConvolutionTable.power",
    "oracle.tv_distance",
    "config.fmt17",
)
SELF_ONLY = (
    "edgeworth.edgeworth_density",
    "gibbs.joint_fast_approx",
    "gibbs.f_tilted_approx",
    "exceedance.window_tail_masses",
    "oracle.conditional_curve",
    "oracle.joint2_grid",
    "oracle.exceedance_curve",
    "oracle.mc_conditional_sample",
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # numpy's BLAS pool stays at one thread; only the CLI row pool is sized
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["EXTREME_GIBBS_THREADS"] = str(workloads.CLI_THREADS)
    return env


def _worker(spec: dict, env: dict, scratch: str) -> dict:
    spec = dict(spec, result=os.path.join(scratch, f"result-{time.monotonic_ns()}.json"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=max(1.0, RUN_DEADLINE - time.monotonic()),
    )
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(spec["result"])
    return result


def _tree_digest(root: str) -> tuple[str, int, int]:
    """sha256 over relative paths and contents, file count, byte count."""
    h = hashlib.sha256()
    files = nbytes = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, root).encode() + b"\0" + data)
            files += 1
            nbytes += len(data)
    return h.hexdigest(), files, nbytes


def _repetition(inputs: dict, env: dict, scratch: str, out: str, trace: bool) -> tuple[dict, list[dict]]:
    spec = {"mode": "run", "inputs": inputs, "out": out, "trace": trace}
    result = _worker(spec, env, scratch)
    ops = []
    for step, record in zip(inputs["steps"], result["steps"]):
        ops += checks.check_step(step, record, os.path.join(out, step["name"]))
    result["digest"], result["files"], result["bytes"] = _tree_digest(out)
    return result, ops


def _q(values: list[float], p: float) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(p * len(values)))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rep: dict, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced repetition, each with its unit."""
    tr = rep["trace"]
    spans, counts, caches = tr["spans"], tr["counts"], tr["caches"]

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    def hit_ratio(name: str) -> float:
        c = caches[name]
        return _ratio(c["hits"], c["hits"] + c["misses"])

    m: dict[str, tuple[float, str]] = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = (span(name, "calls"), "count")
        m[f"{name}.self_s"] = (span(name, "self_s"), "s")
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = (span(name, "self_s"), "s")
    solves = span("tilt.solve_tilt", "calls")
    m["quad.panels"] = (counts.get("quad.panels", 0), "count")
    m["quad.nodes"] = (counts.get("quad.nodes", 0), "count")
    m["tilt.solve_tilt.calls"] = (solves, "count")
    m["tilt.solve_tilt.s"] = (span("tilt.solve_tilt", "total_s"), "s")
    m["tilt.solve_tilt.p50_ms"] = (_q(tr["solve_ms"], 0.5), "ms")
    m["tilt.solve_tilt.p90_ms"] = (_q(tr["solve_ms"], 0.9), "ms")
    m["tilt.moments_per_solve"] = (_ratio(counts.get("tilt.moments_in_solve", 0), solves), "ratio")
    m["tilt.relaxed_exits"] = (counts.get("tilt.relaxed_exits", 0), "count")
    m["tilt.solve_tilt_cached.hit_ratio"] = (hit_ratio("tilt.solve_tilt_cached"), "ratio")
    m["exceedance.sum_density.calls"] = (span("exceedance.sum_density", "calls"), "count")
    m["oracle.get_oracle.hit_ratio"] = (hit_ratio("oracle.get_oracle"), "ratio")
    nodes = counts.get("oracle.grid_nodes", 0)
    m["oracle.grid_nodes"] = (nodes, "count")
    m["oracle.grid_mb"] = (nodes * 8 / 1e6, "MB")
    m["oracle.useful_node_frac"] = (_ratio(counts.get("oracle.useful_nodes", 0), nodes), "ratio")
    m["oracle.mc_acceptance"] = (_ratio(counts.get("oracle.mc_accepted", 0), counts.get("oracle.mc_proposals", 0)), "ratio")
    m["cli.bytes_written"] = (rep["bytes"], "bytes")
    m["cli.files_written"] = (rep["files"], "count")
    m["cli.pool_wait_s"] = (span(tracing.POOL_WAIT, "self_s"), "s")
    for layer, busy in layer_self_times(spans).items():
        m[f"layer.{layer}.self_s"] = (busy, "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def layer_self_times(spans: dict) -> dict[str, float]:
    """Self time per layer, summed over threads; the pool wait is not work."""
    return {
        layer: sum(v["self_s"] for k, v in spans.items() if k.startswith(layer + ".") and k != tracing.POOL_WAIT)
        for layer in tracing.LAYERS
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "extreme_gibbs", "cli.py")):
        print(f"perfbench: no extreme_gibbs sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2

    inputs = workloads.plan(args.workload, args.seed)
    reference = checks.load_reference()
    env = _env()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    scratch = os.path.join(OUT_ROOT, "work", run_id)
    os.makedirs(scratch, exist_ok=True)
    try:
        reps, ops, setup = _measure(args, inputs, env, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    checks.compare_reference(ops, reference)

    attempted = len(ops)
    failed = sum(op["status"] != "ok" for op in ops)
    wrong = [op for op in ops if op["status"] == "wrong"]
    # wall and CPU time at the nominal host speed where the probe follows the
    # workload (see workloads.PROBE_SCALED); raw medians go to the record
    wall, cpu = ("wall_nominal_s", "cpu_nominal_s") if args.workload in workloads.PROBE_SCALED else ("wall_s", "cpu_s")
    if args.trace:
        metrics = per_layer(reps[1], reps[1]["wall_s"] - reps[0]["wall_s"])
    else:
        metrics = {
            "setup_s": (statistics.median(s["setup_nominal_s"] for s in setup), "s"),
            "wall_s": (statistics.median(r[wall] for r in reps), "s"),
            "cpu_s": (statistics.median(r[cpu] for r in reps), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }

    facts = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "level_jitter": workloads.JITTER,
        "seconds": args.seconds,
        "repetitions": len(reps),
        "setup_samples": len(setup),
        "nominal_probe_s": speed.NOMINAL_PROBE_S,
        "probe_scaled": args.workload in workloads.PROBE_SCALED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "cli_threads": workloads.CLI_THREADS if args.workload != "fast_api" else None,
        "cache_maxsize": reps[0]["caches"],
    }
    if not args.trace:
        facts["raw_median_s"] = {
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>16.6g} {unit}")
    print(f"operations: {attempted} attempted, {failed} failed, {len(wrong)} wrong")
    for op in wrong[:20]:
        print(f"  WRONG {op['id']}: {op['detail']}")
    if args.trace:
        top = sorted(layer_self_times(reps[1]["trace"]["spans"]).items(), key=lambda kv: -kv[1])[:3]
        facts["top_layers_by_self_s"] = [name for name, _ in top]
        print("top layers by self time: " + ", ".join(f"{k} {v:.3f}s" for k, v in top))
    print("facts: " + json.dumps(facts, sort_keys=True))

    record = {
        "facts": facts,
        "metrics": {
            k: {"value": v, "unit": u, "kind": "count" if u in ("count", "bytes") else ("timing" if u in ("s", "ms") else "derived")}
            for k, (v, u) in metrics.items()
        },
        "operations": {"attempted": attempted, "failed": failed, "not_ok": [op for op in ops if op["status"] != "ok"]},
        "repetitions": [{k: v for k, v in r.items() if k != "steps"} for r in reps],
    }
    os.makedirs(os.path.join(OUT_ROOT, "results"), exist_ok=True)
    with open(os.path.join(OUT_ROOT, "results", run_id + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    final = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(final))
    return 0


def _measure(args, inputs: dict, env: dict, scratch: str):
    """Run the repetitions; return (results, operations, set-up samples)."""
    # The operations are those of the first repetition, plus one that checks
    # every later repetition against it.  The counts then depend only on the
    # inputs, never on how many repetitions the machine had time for.
    reps: list[dict] = []
    ops: list[dict] = []
    differ: list[str] = []

    def repeat(traced: bool) -> float:
        out = os.path.join(scratch, f"rep{len(reps)}")
        t0 = time.perf_counter()
        rep, rep_ops = _repetition(inputs, env, scratch, out, traced)
        shutil.rmtree(out, ignore_errors=True)
        if not reps:
            ops.extend(rep_ops)
        elif rep["digest"] != reps[0]["digest"] or [o["status"] for o in rep_ops] != [o["status"] for o in ops]:
            differ.append(f"rep{len(reps)}")
        reps.append(rep)
        return time.perf_counter() - t0

    if args.trace:
        repeat(False)
        repeat(True)
        check_id, problem = "trace/byte_identical", "traced outputs differ"
        setup: list[dict] = []
    else:
        setup = [_worker({"mode": "import"}, env, scratch) for _ in range(SETUP_SAMPLES)]
        started = time.perf_counter()
        durations: list[float] = []
        while True:
            durations.append(repeat(False))
            setup.append(reps[-1])
            elapsed = time.perf_counter() - started
            if len(reps) >= MIN_REPETITIONS and elapsed + statistics.median(durations) > args.seconds:
                break
        check_id, problem = "repetitions/byte_identical", "outputs differ between repetitions"
    ops.append(checks.operation(check_id, "wrong" if differ else "ok", f"{problem}: {', '.join(differ)}" if differ else ""))
    return reps, ops, setup


if __name__ == "__main__":
    raise SystemExit(main())
