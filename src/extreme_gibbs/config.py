"""Experiment configuration: parsing, canonical text form, report rows.

Configs are plain ``key = value`` text with ``#`` comments.  Parsing and
:meth:`ExperimentConfig.canonical_text` round-trip exactly, so a config can
be archived next to its outputs and replayed byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .errors import ConfigError

__all__ = ["ARule", "AGrid", "ExperimentConfig", "ApproxReport", "fmt17"]


def fmt17(x) -> str:
    """Serialize a float with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ARule:
    """Conditioning-level rule: a fixed level or a power law c * n^delta."""

    kind: str
    value: float = math.nan
    coeff: float = math.nan
    delta: float = math.nan

    @staticmethod
    def parse(text: str) -> "ARule":
        text = text.strip()
        if text.startswith("fixed:"):
            return ARule("fixed", value=_parse_float(text[6:], "a"))
        if text.startswith("power:"):
            coeff = delta = math.nan
            for part in text[6:].split(","):
                key, _, val = part.partition("=")
                key = key.strip()
                if key == "c":
                    coeff = _parse_float(val, "a.c")
                elif key == "delta":
                    delta = _parse_float(val, "a.delta")
                else:
                    raise ConfigError(f"unknown key {key!r} in a-rule {text!r}")
            if math.isnan(coeff) or math.isnan(delta):
                raise ConfigError(f"power rule needs c and delta: {text!r}")
            return ARule("power", coeff=coeff, delta=delta)
        try:
            return ARule("fixed", value=float(text))
        except ValueError:
            raise ConfigError(f"cannot parse a-rule {text!r}") from None

    def canonical(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{fmt17(self.value)}"
        return f"power:c={fmt17(self.coeff)},delta={fmt17(self.delta)}"

    def a_for(self, n: int) -> float:
        if self.kind == "fixed":
            return self.value
        return self.coeff * float(n) ** self.delta


@dataclass(frozen=True)
class AGrid:
    """Sweep grid for the tilt command: lo:hi:count:scale."""

    lo: float
    hi: float
    count: int
    scale: str = "log"

    @staticmethod
    def parse(text: str) -> "AGrid":
        parts = text.strip().split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"a-grid must be lo:hi:count[:scale], got {text!r}")
        lo = _parse_float(parts[0], "a_grid.lo")
        hi = _parse_float(parts[1], "a_grid.hi")
        try:
            count = int(parts[2])
        except ValueError:
            raise ConfigError(f"a-grid count must be an integer, got {parts[2]!r}") from None
        scale = parts[3] if len(parts) == 4 else "log"
        if scale not in ("log", "lin"):
            raise ConfigError(f"a-grid scale must be log or lin, got {scale!r}")
        if not (hi > lo and count >= 1):
            raise ConfigError(f"a-grid needs hi > lo and count >= 1: {text!r}")
        return AGrid(lo, hi, count, scale)

    def canonical(self) -> str:
        return f"{fmt17(self.lo)}:{fmt17(self.hi)}:{self.count}:{self.scale}"

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise ConfigError(f"value for {key!r} is not a number: {text!r}") from None


def _parse_int(text: str, key: str) -> int:
    """An integer field; integral floats such as ``2.0`` are accepted."""
    value = _parse_float(text, key)
    if not (math.isfinite(value) and value == int(value)):
        raise ConfigError(f"value for {key!r} is not an integer: {text!r}")
    return int(value)


_KNOWN_KEYS = {
    "model",
    "n",
    "a",
    "a_grid",
    "regime",
    "grid.step",
    "grid.pad",
    "seed",
    "threads",
    "out",
    "format",
    "joint_k",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model, row sizes, level rule, grids, seeds, outputs."""

    model: str = "weibull:k=2"
    n: tuple[int, ...] = (8, 16, 32, 64)
    a: ARule = field(default_factory=lambda: ARule("fixed", value=3.0))
    a_grid: AGrid | None = None
    regime: str = "auto"
    grid_step: float = 1e-3
    grid_pad: float = 14.0
    seed: int = 0
    threads: int = 0
    out: str = "out"
    fmt: str = "csv"
    joint_k: int = 0
    tol: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if self.joint_k not in (0, 2):
            raise ConfigError(f"joint_k must be 0 or 2, got {self.joint_k!r}")
        for name, val in self.tol:
            if not (math.isfinite(val) and val >= 0.0):
                raise ConfigError(f"tolerance {name!r} must be finite and >= 0, got {val!r}")

    @staticmethod
    def from_text(text: str) -> "ExperimentConfig":
        cfg = ExperimentConfig()
        updates: dict = {}
        tol: dict[str, float] = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"malformed config line {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key.startswith("tol."):
                tol[key[4:]] = _parse_float(val, key)
                continue
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            if key == "model":
                updates["model"] = val
            elif key == "n":
                try:
                    updates["n"] = tuple(int(p.strip()) for p in val.split(",") if p.strip())
                except ValueError:
                    raise ConfigError(f"value for 'n' must be integers: {val!r}") from None
            elif key == "a":
                updates["a"] = ARule.parse(val)
            elif key == "a_grid":
                updates["a_grid"] = AGrid.parse(val)
            elif key == "regime":
                if val not in ("auto", "moderate", "fast"):
                    raise ConfigError(f"regime must be auto, moderate or fast: {val!r}")
                updates["regime"] = val
            elif key == "grid.step":
                updates["grid_step"] = _parse_float(val, key)
            elif key == "grid.pad":
                updates["grid_pad"] = _parse_float(val, key)
            elif key == "seed":
                updates["seed"] = _parse_int(val, key)
            elif key == "threads":
                updates["threads"] = _parse_int(val, key)
            elif key == "out":
                updates["out"] = val
            elif key == "format":
                if val not in ("csv", "json"):
                    raise ConfigError(f"format must be csv or json: {val!r}")
                updates["fmt"] = val
            elif key == "joint_k":
                updates["joint_k"] = _parse_int(val, key)
        if tol:
            updates["tol"] = tuple(sorted(tol.items()))
        return replace(cfg, **updates)

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return ExperimentConfig.from_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc

    def canonical_text(self) -> str:
        lines = [
            f"# extreme-gibbs v{__version__} experiment config",
            f"model = {self.model}",
            "n = " + ",".join(str(v) for v in self.n),
            f"a = {self.a.canonical()}",
        ]
        if self.a_grid is not None:
            lines.append(f"a_grid = {self.a_grid.canonical()}")
        lines.extend(
            [
                f"regime = {self.regime}",
                f"grid.step = {fmt17(self.grid_step)}",
                f"grid.pad = {fmt17(self.grid_pad)}",
                f"seed = {self.seed}",
                f"threads = {self.threads}",
                f"out = {self.out}",
                f"format = {self.fmt}",
                f"joint_k = {self.joint_k}",
            ]
        )
        lines.extend(f"tol.{name} = {fmt17(val)}" for name, val in self.tol)
        return "\n".join(lines) + "\n"

    def tolerances(self) -> dict[str, float]:
        return dict(self.tol)


@dataclass
class ApproxReport:
    """One comparison row: approximation vs oracle at one (n, a_n) pair.

    ``runtime_ms`` is kept in memory for logging but never serialized into
    result files, which must be byte-identical across reruns.
    """

    name: str
    regime: str
    n: int
    a_n: float
    tv: float
    sup_gap: float
    runtime_ms: float = math.nan
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 <= self.tv <= 1.0 or math.isnan(self.tv)):
            raise ConfigError(f"tv must lie in [0, 1], got {self.tv!r}")
