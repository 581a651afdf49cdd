"""Run configuration: truncation level, basis literals, defaults for checks.

Configuration is a single JSON object, read from --config or the
SKEWTORUS_CONFIG environment variable.  Basis values must be decimal
literals with at least 30 fractional digits in (0, 1); they are kept
exact and only ever rounded inside the unit-circle projection.  The
default basis uses sqrt(2)-1 and sqrt(3)-1 to 40 places.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping

from .circle import Angle, BasisDecl
from .dynamics import BasicSystem
from .endo import TruncationContext
from .errors import ConfigurationError, ParseError
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
        decl = BasisDecl.from_decimals(dict(self.basis_decimals))
        for name, text in self.basis_decimals:
            frac = text.split(".", 1)[1] if "." in text else ""
            if len(frac) < _MIN_FRACTIONAL_DIGITS:
                raise ConfigurationError(
                    f"basis value for {name} has {len(frac)} fractional digits, "
                    f"need at least {_MIN_FRACTIONAL_DIGITS}"
                )
        return decl

    def context(self) -> TruncationContext:
        return TruncationContext(self.level, self.basis())

    def system(self) -> BasicSystem:
        try:
            x0 = Angle.parse(self.system_x0)
        except ParseError as exc:
            raise ConfigurationError(f"bad system x0: {exc}") from exc
        return BasicSystem(self.system_m, x0)

    def factor(self) -> FactorConfig:
        return FactorConfig(self.context(), self.x_symbol, self.factor_m)


def _int_from(lo: float) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _is_str(v: object) -> bool:
    return isinstance(v, str)


def _is_decimals(v: object) -> bool:
    return isinstance(v, Mapping) and bool(v) and all(map(_is_str, v.values()))


def _is_tol(v: object) -> bool:
    # the upper bound rejects inf and ints too large for a float; NaN fails
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    return number and 0 < v <= sys.float_info.max


# config key -> (Config field, accepts, what it must be, conversion or None);
# the keys of the system object appear as system.m and system.x0
_SCHEMA: dict[str, tuple[str, Callable[[Any], bool], str, Callable | None]] = {
    "level": ("level", _int_from(2), "an integer >= 2", None),
    "basis": ("basis_decimals", _is_decimals, "a nonempty object of decimal strings",
              lambda v: tuple(v.items())),
    "seed": ("seed", lambda v: v is None or _int_from(-math.inf)(v),
             "an integer or null", None),
    "shifts": ("shifts", lambda v: isinstance(v, list) and all(map(_int_from(0), v)),
               "a list of nonnegative integers", tuple),
    "tol": ("tol", _is_tol, "a positive finite number", float),
    "N": ("N", _int_from(1), "a positive integer", None),
    "system.m": ("system_m", _int_from(1), "a positive integer", None),
    "system.x0": ("system_x0", _is_str, "an angle string", None),
    "x_symbol": ("x_symbol", _is_str, "a string", None),
    "factor_m": ("factor_m", _int_from(2), "an integer >= 2", None),
}


def config_from_dict(data: Mapping) -> Config:
    system = data.get("system", {})
    if not isinstance(system, Mapping):
        raise ConfigurationError(
            f"system must be an object with m and x0, got {system!r}"
        )
    flat = {k: v for k, v in data.items() if k != "system"}
    flat.update((f"system.{k}", v) for k, v in system.items())
    unknown = set(flat) - set(_SCHEMA)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    fields = {}
    for key, (field, accepts, what, convert) in _SCHEMA.items():
        if key not in flat:
            continue
        value = flat[key]
        if not accepts(value):
            raise ConfigurationError(f"{key} must be {what}, got {value!r}")
        fields[field] = convert(value) if convert else value
    cfg = replace(Config(), **fields)
    cfg.basis()  # validate digits and ranges eagerly
    cfg.system()
    return cfg


def load_config(path: str | None = None) -> Config:
    """Read configuration from path, else $SKEWTORUS_CONFIG, else defaults."""
    if path is None:
        path = os.environ.get("SKEWTORUS_CONFIG")
    if not path:
        return Config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"config {path} must hold a JSON object")
    return config_from_dict(data)
