"""Experiment configuration: parsing, canonical text form, report rows.

Configs are plain ``key = value`` text with ``#`` comments, read by the same
``_read_kv`` as model specs; each key is also a CLI flag.  Parsing and
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
            fields = _read_kv(text[6:].replace(",", "\n"), "a-rule")
            unknown = sorted(fields.keys() - {"c", "delta"})
            if unknown:
                raise ConfigError(f"unknown key {unknown[0]!r} in a-rule {text!r}")
            if len(fields) < 2:
                raise ConfigError(f"power rule needs c and delta: {text!r}")
            coeff = _parse_float(fields["c"], "a.c")
            return ARule("power", coeff=coeff, delta=_parse_float(fields["delta"], "a.delta"))
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
        count = _parse_int(parts[2], "a_grid.count")
        scale = parts[3] if len(parts) == 4 else "log"
        if scale not in ("log", "lin"):
            raise ConfigError(f"a-grid scale must be log or lin, got {scale!r}")
        if not (hi > lo and count >= 1):
            raise ConfigError(f"a-grid needs hi > lo and count >= 1: {text!r}")
        if scale == "log" and not lo > 0:
            raise ConfigError(f"a log a-grid needs lo > 0: {text!r}")
        return AGrid(lo, hi, count, scale)

    def canonical(self) -> str:
        return f"{fmt17(self.lo)}:{fmt17(self.hi)}:{self.count}:{self.scale}"

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


def _read_kv(text: str, what: str) -> dict[str, str]:
    """``key = value`` lines with ``#`` comments; ``what`` names the input in errors."""
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ConfigError(f"malformed {what} line {raw!r}")
        if key in out:
            raise ConfigError(f"repeated {what} key {key!r}")
        out[key] = val.strip()
    return out


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise ConfigError(f"value for {key!r} is not a number: {text!r}") from None


def _parse_int(text: str, key: str) -> int:
    """An integer field; integral floats such as ``2.0`` are accepted."""
    try:
        return int(text)
    except ValueError:
        value = _parse_float(text, key)
    if not (math.isfinite(value) and value == int(value)):
        raise ConfigError(f"value for {key!r} is not an integer: {text!r}")
    return int(value)


def _parse_ints(text: str, key: str) -> tuple[int, ...]:
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise ConfigError(f"value for {key!r} has an empty entry: {text!r}")
    return tuple(_parse_int(p, key) for p in parts)


def _text(text: str, key: str) -> str:
    return text


# config key -> (ExperimentConfig field, parser of the value text)
_FIELDS = {
    "model": ("model", _text),
    "n": ("n", _parse_ints),
    "a": ("a", lambda text, key: ARule.parse(text)),
    "a_grid": ("a_grid", lambda text, key: AGrid.parse(text)),
    "regime": ("regime", _text),
    "grid.step": ("grid_step", _parse_float),
    "grid.pad": ("grid_pad", _parse_float),
    "seed": ("seed", _parse_int),
    "threads": ("threads", _parse_int),
    "out": ("out", _text),
    "format": ("fmt", _text),
    "joint_k": ("joint_k", _parse_int),
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
        for name, val in (("model", self.model), ("out", self.out)):  # one canonical_text line each
            if "#" in val or "".join(val.splitlines()) != val:
                raise ConfigError(f"{name} must not contain '#' or a line break: {val!r}")
        if self.regime not in ("auto", "moderate", "fast"):
            raise ConfigError(f"regime must be auto, moderate or fast: {self.regime!r}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json: {self.fmt!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if self.joint_k not in (0, 2):
            raise ConfigError(f"joint_k must be 0 or 2, got {self.joint_k!r}")
        for name, val in (("grid.step", self.grid_step), ("grid.pad", self.grid_pad)):
            if not (math.isfinite(val) and val > 0.0):
                raise ConfigError(f"{name} must be finite and > 0, got {val!r}")
        if self.threads < 0:
            raise ConfigError(f"threads must be >= 0, got {self.threads!r}")
        for name, val in self.tol:
            if not (math.isfinite(val) and val >= 0.0):
                raise ConfigError(f"tolerance {name!r} must be finite and >= 0, got {val!r}")

    @staticmethod
    def from_text(text: str) -> "ExperimentConfig":
        return ExperimentConfig()._with_fields(_read_kv(text, "config"))

    def _with_fields(self, fields: dict[str, str]) -> "ExperimentConfig":
        """This config with ``{key: value text}`` applied; ``tol.NAME`` keys add tolerances."""
        updates: dict = {}
        tol = dict(self.tol)
        for key, text in fields.items():
            if key.startswith("tol."):
                tol[key[4:]] = _parse_float(text, key)
            elif key in _FIELDS:
                name, parse = _FIELDS[key]
                updates[name] = parse(text, key)
            else:
                raise ConfigError(f"unknown config key {key!r}")
        return replace(self, tol=tuple(sorted(tol.items())), **updates)

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
