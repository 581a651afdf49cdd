"""Run configuration: truncation level, basis literals, defaults for checks.

Configuration is a single JSON object, read from --config or the
SKEWTORUS_CONFIG environment variable.  A basis has at most MAX_SYMBOLS
symbols, and its values must be ASCII decimals ``[0-9]*.[0-9]+`` in (0, 1)
with 30 to MAX_PLACES fractional digits; they are kept exact and only
rounded inside the unit-circle projection.  The default basis uses
sqrt(2)-1 and sqrt(3)-1 to 40 places.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections.abc import Callable, Mapping
from dataclasses import dataclass, replace
from typing import Any

from .circle import Angle, BasisDecl, int_literal
from .dynamics import BasicSystem
from .endo import TruncationContext
from .errors import ConfigurationError, ParseError, shown
from .factor_lab import FactorConfig

DEFAULT_BASIS: dict[str, str] = {
    "b1": "0.4142135623730950488016887242096980785697",
    "b2": "0.7320508075688772935274463415058723669428",
}

_MIN_FRACTIONAL_DIGITS = 30


@dataclass(frozen=True)
class Config:
    level: int = 6
    basis_decimals: tuple[tuple[str, str], ...] = tuple(DEFAULT_BASIS.items())
    seed: int | None = None
    shifts: tuple[int, ...] = (0, 1_000, 1_000_000, 1_000_000_000)
    tol: float = 0.02
    N: int = 200_000
    system_m: int = 2
    system_x0: str = "1*b1"
    x_symbol: str = "b1"
    factor_m: int = 3

    def basis(self) -> BasisDecl:
        if len(self.basis_decimals) > MAX_SYMBOLS:
            raise ConfigurationError(
                f"basis must have at most MAX_SYMBOLS = {MAX_SYMBOLS} symbols, "
                f"got {len(self.basis_decimals)}"
            )
        decl = BasisDecl.from_decimals(dict(self.basis_decimals))
        for name, text in self.basis_decimals:
            digits = len(text.partition(".")[2])  # text matched [0-9]*.[0-9]+
            if not _MIN_FRACTIONAL_DIGITS <= digits <= MAX_PLACES:
                raise ConfigurationError(
                    f"basis value for {name} has {digits} fractional digits, "
                    f"need {_MIN_FRACTIONAL_DIGITS} to MAX_PLACES = {MAX_PLACES}"
                )
        return decl

    def context(self) -> TruncationContext:
        return TruncationContext(self.level, self.basis())

    def system(self) -> BasicSystem:
        try:
            x0 = Angle.parse(self.system_x0)
        except ParseError as exc:
            raise ConfigurationError(f"bad system x0: {exc}") from exc
        default = " (the default)" if self.system_x0 == Config.system_x0 else ""
        self.basis().require_declared("system.x0", self.system_x0, (x0,), default)
        return BasicSystem(self.system_m, x0)

    def factor(self) -> FactorConfig:
        return FactorConfig(self.context(), self.x_symbol, self.factor_m)


# Largest truncation level.  Exact work grows with the size of L!:
# `check ellis.group --seed 1` takes about 0.5 s at level 6 and 8-10 s at
# 400 on 2 vCPUs with Python 3.11; README lists the curve.
MAX_LEVEL = 400

# Largest factor_m.  `factor-lab demo` work grows about as factor_m**3: at
# level 400 and factor_m 16 it takes 0.16 s (2 vCPUs). `factor-lab kernel`
# and the kernel, subgroup and coset suites draw in dimension 3 at most.
FACTOR_MAX_M = 16

# Most basis symbols.  A map has a row and a column per symbol, so group
# work grows about as the square of the count: `factor-lab kernel --samples
# 1000` at level 400 and factor_m 16 took 1.6-1.8 s with 2 symbols, 3.1-3.2 s
# with 3, 5.5-5.9 s with 4, 9.2 s with 5 and 14 s with 6 (2 vCPUs).
MAX_SYMBOLS = 4

# Most fractional digits of a basis value.  The common denominator D of
# the phases grows with them, and a Weyl sample costs one % D and one
# division by D: at degree 2 a sample took 0.49 us at 40 places, 0.50-0.54
# at 100, 0.61-0.64 at 200, 0.91-0.96 at 400 and 6.4-6.5 at 4000 (2 vCPUs),
# so a report at weyl.MAX_SAMPLES stays near its 40-place time.
MAX_PLACES = 100


def _int_from(lo: float) -> Callable[[Any, Config], bool]:
    return lambda v, _: isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _is_str(v: object, _: Config) -> bool:
    return isinstance(v, str)


def _is_decimals(v: object, _: Config) -> bool:
    return isinstance(v, Mapping) and bool(v) and all(isinstance(t, str) for t in v.values())


def _is_tol(v: object, _: Config) -> bool:
    # the upper bound rejects inf and ints too large for a float; NaN fails
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    return number and 0 < v <= sys.float_info.max


# config key -> (Config field, accepts(value, cfg), what it must be,
# conversion or None); cfg holds the keys above it in the table.  The keys
# of the system object appear as system.m and system.x0.
_SCHEMA: dict[str, tuple[str, Callable[[Any, Config], bool], str, Callable | None]] = {
    "level": ("level", _int_from(2), "an integer >= 2", None),
    "basis": ("basis_decimals", _is_decimals, "a nonempty object of decimal strings",
              lambda v: tuple(v.items())),
    "seed": ("seed", lambda v, c: v is None or _int_from(-math.inf)(v, c),
             "an integer or null", None),
    "shifts": ("shifts", lambda v, c: isinstance(v, list) and bool(v)
               and all(_int_from(0)(x, c) for x in v),
               "a nonempty list of nonnegative integers", tuple),
    "tol": ("tol", _is_tol, "a positive finite number", float),
    "N": ("N", _int_from(1), "a positive integer", None),
    "system.m": ("system_m", _int_from(1), "a positive integer", None),
    "system.x0": ("system_x0", _is_str, "an angle string", None),
    "x_symbol": ("x_symbol", lambda v, c: isinstance(v, str) and v in dict(c.basis_decimals),
                 "a symbol of the basis", None),
    "factor_m": ("factor_m", lambda v, c: _int_from(2)(v, c) and v <= c.level,
                 "an integer from 2 to the level", None),
}


def config_from_dict(data: Mapping) -> Config:
    system = data.get("system", {})
    if not isinstance(system, Mapping):
        raise ConfigurationError(
            f"system must be an object with m and x0, got {shown(system)}"
        )
    flat = {k: v for k, v in data.items() if k != "system"}
    flat.update((f"system.{k}", v) for k, v in system.items())
    unknown = set(flat) - set(_SCHEMA)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {shown(sorted(unknown))}")
    cfg = Config()
    for key, (field, accepts, what, convert) in _SCHEMA.items():
        if key not in flat:
            continue
        value = flat[key]
        if not accepts(value, cfg):
            raise ConfigurationError(f"{key} must be {what}, got {shown(value)}")
        cfg = replace(cfg, **{field: convert(value) if convert else value})
    _, accepts, what, _ = _SCHEMA["x_symbol"]  # a given basis may lack the default
    if not accepts(cfg.x_symbol, cfg):
        raise ConfigurationError(f"x_symbol must be {what}, got {cfg.x_symbol!r} (the default)")
    if cfg.level > MAX_LEVEL:
        raise ConfigurationError(
            f"level must be at most MAX_LEVEL = {MAX_LEVEL}, got {cfg.level}"
        )
    if cfg.factor_m > FACTOR_MAX_M:
        raise ConfigurationError(
            f"factor_m must be at most FACTOR_MAX_M = {FACTOR_MAX_M}, got {cfg.factor_m}"
        )
    cfg.basis()  # validate digits and ranges eagerly
    cfg.system()
    return cfg


def load_config(path: str | None = None) -> Config:
    """Read configuration from path, else $SKEWTORUS_CONFIG, else defaults.

    An empty path is refused; an empty $SKEWTORUS_CONFIG counts as unset."""
    if path == "":
        raise ConfigurationError("config path is empty; omit --config to use the defaults")
    path = path or os.environ.get("SKEWTORUS_CONFIG")
    if not path:
        return Config()
    return config_from_dict(read_json_object(f"config {path}", None, path))


def read_json_object(source: str, text: str | None, path: str | None = None) -> dict:
    """The JSON object in the UTF-8 file at path if given, else in text; each
    failure raises a ConfigurationError naming source ("--a", "config <path>")."""
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read {source}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{source}: {path!r} is not UTF-8 ({exc})") from None
    try:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{source} is not valid JSON: {exc}") from exc
        except ValueError:  # past int()'s digit limit; a hook on every read would slow each one
            data = json.loads(text, parse_int=lambda t: int_literal(t, source))
    except RecursionError:
        raise ConfigurationError(f"{source} nests too deeply to decode") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"{source} must hold a JSON object")
    return data
