"""One workload repetition in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the mode (``import`` or ``run``), the workload inputs, the
output directory, whether to trace, and the result file.  The import of
``extreme_gibbs.cli`` is timed first, while every cache is still cold; the
workload span starts after it (and after the tracer is installed) and ends
when the last output file has been written.  A speed probe runs after the
import and at every mark of the workload (see speed.py); its time is not
part of the span.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import extreme_gibbs.cli  # noqa: F401  (the timed set-up)

    setup_s = time.perf_counter() - t0
    probe_s = speed.probe()
    result: dict = {"setup_s": setup_s, "setup_nominal_s": setup_s * speed.NOMINAL_PROBE_S / probe_s}
    if spec["mode"] == "run":
        import workloads

        tracer = None
        if spec["trace"]:
            import tracing

            tracer = tracing.install()
        clock = speed.SpeedClock(probe_s)
        result["steps"] = workloads.execute(spec["inputs"], spec["out"], clock.mark)
        result.update(clock.totals())
        result["segments"] = clock.segments
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["caches"] = _cache_sizes()
        if tracer is not None:
            result["trace"] = tracer.report()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _cache_sizes() -> dict:
    from extreme_gibbs import exceedance, gibbs, oracle, tilt

    caches = {
        "tilt.solve_tilt_cached": tilt.solve_tilt_cached,
        "gibbs._fast_factor": gibbs._fast_factor,
        "oracle.get_oracle": oracle.get_oracle,
        "exceedance._mixture_cached": exceedance._mixture_cached,
    }
    # a traced run sees the span wrapper; the lru_cache sits behind it
    return {
        name: (fn if hasattr(fn, "cache_parameters") else fn.__wrapped__).cache_parameters()["maxsize"]
        for name, fn in caches.items()
    }


if __name__ == "__main__":
    raise SystemExit(main())
