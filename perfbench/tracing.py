"""Spans around the library's public functions, installed from outside.

``install()`` replaces every public function and method of the layer modules
with a timing wrapper, in every module namespace of the package that binds
it (``solve_tilt`` is imported by name into ``oracle`` and ``exceedance``,
``fmt17`` into ``cli``, and so on).  Nothing inside the library changes, so
the traced run must write byte-identical outputs.

Spans are kept per thread, because the CLI pool runs rows on worker threads.
A span's self time is its duration minus the time of its child spans on the
same thread.  Per-span aggregates stay in memory and are returned by
``Tracer.report()`` at the end of the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import threading
import time

LAYERS = ("model", "quad", "tilt", "edgeworth", "gibbs", "exceedance", "oracle", "config", "cli")

# The pool helper is private, but the main thread waits inside it while the
# workers compute; that wait gets its own span so it is not booked as CLI work.
POOL_WAIT = "cli.pool_wait"

# solve_tilt returns through a relaxed floor when it cannot reach rtol*a.
SOLVE_RTOL = 1e-12
# share of a convolution power's nodes that lie within this many sd of its mean
USEFUL_SD = 14.0


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[float] = []  # child time accumulated by each open span
        self.open: dict[str, int] = {}  # names of open spans, with depth
        self.stats: dict[str, list] = {}
        self.registered = False


class Tracer:
    def __init__(self):
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._per_thread: list[dict[str, list]] = []  # one per thread that ran a span
        self.counts: dict[str, float] = {}  # exact counts, plus the hooks' own time
        self.solve_ms: list[float] = []
        self.originals: dict[str, object] = {}
        self._powers: dict[int, object] = {}

    def _state(self) -> _ThreadState:
        st = self._local
        if not st.registered:
            with self._lock:
                self._per_thread.append(st.stats)
            st.registered = True
        return st

    def _count(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, hook=None):
        state = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            st = state()
            st.stack.append(0.0)
            st.open[name] = st.open.get(name, 0) + 1
            failed = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                dt = clock() - t0
                child = st.stack.pop()
                st.open[name] -= 1
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                rec[3] += failed
                hidden = 0.0
                if hook is not None and not failed:
                    h0 = clock()
                    hook(st, args, kwargs, result, dt)
                    hidden = clock() - h0
                if st.stack:
                    st.stack[-1] += dt + hidden
                if hidden:
                    self._count("trace.hook_s", hidden)

        return span

    # -- hooks: counts measured at the span boundary ---------------------------

    def _on_log_integral(self, st, args, kwargs, res, dt):
        self._count("quad.panels", res.panels)
        self._count("quad.nodes", res.nodes.size)

    def _on_solve_tilt(self, st, args, kwargs, tp, dt):
        a = float(args[1] if len(args) > 1 else kwargs["a"])
        with self._lock:
            self.solve_ms.append(dt * 1e3)
        if abs(tp.a - a) > SOLVE_RTOL * abs(a):
            self._count("tilt.relaxed_exits")

    def _on_tilt_moments(self, st, args, kwargs, tp, dt):
        if st.open.get("tilt.solve_tilt"):
            self._count("tilt.moments_in_solve")

    def _on_power(self, st, args, kwargs, grid, dt):
        import numpy as np

        with self._lock:
            if id(grid) in self._powers:
                return
            self._powers[id(grid)] = grid  # holds the grid so its id stays unique
        v = grid.values
        x = grid.lo + grid.step * np.arange(v.size)
        mass = v.sum()
        mean = (x * v).sum() / mass
        sd = np.sqrt(((x - mean) ** 2 * v).sum() / mass)
        self._count("oracle.grid_nodes", v.size)
        self._count("oracle.useful_nodes", int(np.count_nonzero(np.abs(x - mean) <= USEFUL_SD * sd)))

    def _on_mc(self, st, args, kwargs, sample, dt):
        self._count("oracle.mc_proposals", sample.n_proposals)
        self._count("oracle.mc_accepted", round(sample.acceptance_rate * sample.n_proposals))

    # -- report ----------------------------------------------------------------

    def report(self) -> dict:
        spans: dict[str, list] = {}
        for stats in self._per_thread:
            for name, rec in stats.items():
                agg = spans.setdefault(name, [0, 0.0, 0.0, 0])
                for i in range(4):
                    agg[i] += rec[i]
        caches = {}
        for name in ("tilt.solve_tilt_cached", "oracle.get_oracle"):
            info = self.originals[name].cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        return {
            "spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2], "errors": v[3]} for k, v in spans.items()},
            "threads": len(self._per_thread),
            "counts": self.counts,
            "solve_ms": self.solve_ms,
            "caches": caches,
        }


def _public_callables(mod):
    """(qualified name, owner, attribute, function) for each public function
    and method defined in ``mod``.  ``owner`` is None for module functions."""
    layer = mod.__name__.rsplit(".", 1)[-1]
    for attr, obj in sorted(vars(mod).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            for meth, fn in sorted(vars(obj).items()):
                if not inspect.isfunction(fn):
                    continue  # properties, static and class methods
                if meth == "__init__" and not dataclasses.is_dataclass(obj):
                    yield f"{layer}.{attr}", obj, meth, fn
                elif not meth.startswith("_"):
                    yield f"{layer}.{attr}.{meth}", obj, meth, fn
        elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield f"{layer}.{attr}", None, attr, obj


# Method spans reported under a shorter name.
_ALIASES = {
    "model.DensityModel.psi": "model.psi",
    "oracle.ConditionalOracle.conditional_curve": "oracle.conditional_curve",
    "oracle.ConditionalOracle.joint2_grid": "oracle.joint2_grid",
    "oracle.ConditionalOracle.exceedance_curve": "oracle.exceedance_curve",
}


def install() -> Tracer:
    """Wrap the public API of every layer module; return the live tracer."""
    tracer = Tracer()
    hooks = {
        "quad.log_integral": tracer._on_log_integral,
        "tilt.solve_tilt": tracer._on_solve_tilt,
        "tilt.tilt_moments": tracer._on_tilt_moments,
        "oracle.ConvolutionTable.power": tracer._on_power,
        "oracle.mc_conditional_sample": tracer._on_mc,
    }
    package = importlib.import_module("extreme_gibbs")
    modules = [package] + [importlib.import_module(f"extreme_gibbs.{layer}") for layer in LAYERS]
    replaced: dict[int, object] = {}
    for mod in modules[1:]:
        for name, owner, attr, fn in _public_callables(mod):
            name = _ALIASES.get(name, name)
            tracer.originals[name] = fn
            wrapper = tracer.wrap(name, fn, hooks.get(name))
            if owner is None:
                replaced[id(fn)] = wrapper
            else:
                setattr(owner, attr, wrapper)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
    cli = modules[-1]
    cli._run_rows = tracer.wrap(POOL_WAIT, cli._run_rows)
    return tracer
