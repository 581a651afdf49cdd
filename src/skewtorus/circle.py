"""Exact circle-group arithmetic over a declared irrational basis.

An :class:`Angle` represents an element of R/Z of the form

    rat + sum_i c_i * b_i   (mod 1)

with ``rat`` and every coefficient ``c_i`` rational, and the b_i drawn
from a finite list of declared irrational basis symbols.  The symbols
together with 1 are assumed rationally independent (a modeling
assumption recorded with the basis declaration, never checked), so the
normal form with rat in [0, 1) is unique and equality is decided
componentwise.  Only the rational part reduces mod 1; the coefficients
live in Q and carry no relations.

Numeric values of the symbols enter through :func:`angle_to_unit`
alone.  No equality, membership, or group decision consults a float.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Sequence, Union

from .errors import ConfigurationError, ParseError

RationalLike = Union[int, Fraction]
CoeffsLike = Union[Mapping[str, RationalLike], Iterable[tuple[str, RationalLike]]]

_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"([0-9]+)(?:[ \t]*/[ \t]*([0-9]+))?")
_STAR_RE = re.compile(r"[ \t]*\*[ \t]*")

# Largest k in a binomial marker C(n,k).  A parse allocates one
# coefficient per k up to the largest, so the cap bounds that work.
MAX_BINOM_K = 64


@dataclass(frozen=True)
class BasisDecl:
    """Ordered declaration of irrational basis symbols with numeric values.

    Values are exact rationals read from decimal literals; they are used
    only when projecting to the unit circle.  Together with 1 they are
    assumed rationally independent.
    """

    symbols: tuple[str, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) != len(set(self.symbols)):
            raise ConfigurationError(f"duplicate basis symbols in {self.symbols}")
        for name in self.symbols:
            if not _SYMBOL_RE.fullmatch(name):
                raise ConfigurationError(f"invalid basis symbol name {name!r}")
        if len(self.values) != len(self.symbols):
            raise ConfigurationError("basis symbols and values differ in length")
        for name, value in zip(self.symbols, self.values):
            if not 0 < value < 1:
                raise ConfigurationError(
                    f"basis value for {name} must lie in (0, 1), got {value}"
                )

    @classmethod
    def from_decimals(cls, decls: Mapping[str, str]) -> "BasisDecl":
        values = []
        for name, text in decls.items():
            try:
                values.append(Fraction(text))
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigurationError(
                    f"basis value for {name} is not a decimal literal: {text!r}"
                ) from exc
        return cls(tuple(decls), tuple(values))

    def index_of(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ConfigurationError(f"unknown basis symbol {symbol!r}") from None

    def value_of(self, symbol: str) -> Fraction:
        return self.values[self.index_of(symbol)]


def _exact(x: RationalLike) -> Fraction:
    """x as a Fraction; floats and other non-rationals are refused."""
    if type(x) is Fraction:
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(f"angle entries must be int or Fraction, got {type(x).__name__} {x!r}")


def _combine(
    xs: tuple[tuple[str, Fraction], ...],
    ys: tuple[tuple[str, Fraction], ...],
    sub: bool,
) -> tuple[tuple[str, Fraction], ...]:
    """Coefficients of x + y (or x - y with ``sub``) from two normal-form
    tuples: one merge pass, adding only on shared symbols, zeros dropped."""
    if not ys:
        return xs
    if not xs and not sub:
        return ys
    out = []
    i, nx = 0, len(xs)
    for t, d in ys:
        while i < nx and xs[i][0] < t:
            out.append(xs[i])
            i += 1
        if i < nx and xs[i][0] == t:
            c = xs[i][1] - d if sub else xs[i][1] + d
            i += 1
            if c:
                out.append((t, c))
        else:
            out.append((t, -d) if sub else (t, d))
    out.extend(xs[i:])
    return tuple(out)


class Angle:
    """Immutable exact circle element, written additively.

    The normal form is ``rat`` a Fraction in [0, 1) and ``coeffs`` a
    tuple of (symbol, nonzero Fraction) strictly sorted by symbol.  The
    public constructor normalises any input; the arithmetic combines
    operands already in normal form and builds its result through
    :meth:`_make`, reducing ``rat`` with at most one step.
    """

    __slots__ = ("rat", "coeffs")

    rat: Fraction
    coeffs: tuple[tuple[str, Fraction], ...]

    def __init__(self, rat: RationalLike = 0, coeffs: CoeffsLike = ()) -> None:
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        merged: dict[str, Fraction] = {}
        for sym, c in items:
            c = _exact(c)
            if c:
                acc = merged.get(sym, 0) + c
                if acc:
                    merged[sym] = acc
                elif sym in merged:
                    del merged[sym]
        rat = _exact(rat)
        if not 0 <= rat < 1:
            rat %= 1
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "coeffs", tuple(sorted(merged.items())))

    @classmethod
    def _make(
        cls, rat: Fraction, coeffs: tuple[tuple[str, Fraction], ...]
    ) -> "Angle":
        """Trusted constructor: the arguments are already in normal form."""
        a = object.__new__(cls)
        object.__setattr__(a, "rat", rat)
        object.__setattr__(a, "coeffs", coeffs)
        return a

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Angle is immutable")

    def __reduce__(self) -> tuple:
        return Angle, (self.rat, self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Angle):
            return NotImplemented
        return self.rat == other.rat and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.rat, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.rat) or bool(self.coeffs)

    def __add__(self, other: "Angle") -> "Angle":
        if not isinstance(other, Angle):
            return NotImplemented
        rat = self.rat + other.rat
        if rat >= 1:
            rat -= 1
        return Angle._make(rat, _combine(self.coeffs, other.coeffs, False))

    def __neg__(self) -> "Angle":
        rat = 1 - self.rat if self.rat else self.rat
        return Angle._make(rat, tuple([(s, -c) for s, c in self.coeffs]))

    def __sub__(self, other: "Angle") -> "Angle":
        if not isinstance(other, Angle):
            return NotImplemented
        rat = self.rat - other.rat
        if rat < 0:
            rat += 1
        return Angle._make(rat, _combine(self.coeffs, other.coeffs, True))

    def __rmul__(self, n: int) -> "Angle":
        # Z-module structure only; rational scaling is ill-defined on torsion
        if not isinstance(n, int):
            return NotImplemented
        if not n:
            return ZERO
        return Angle._make(n * self.rat % 1, tuple([(s, n * c) for s, c in self.coeffs]))

    __mul__ = __rmul__

    def coeff(self, symbol: str) -> Fraction:
        for s, c in self.coeffs:
            if s == symbol:
                return c
        return Fraction(0)

    @property
    def is_torsion(self) -> bool:
        return not self.coeffs

    def torsion_order(self) -> int | None:
        """Order in the circle group, or None for non-torsion elements."""
        if self.coeffs:
            return None
        return self.rat.denominator

    def denominators(self) -> list[int]:
        return [self.rat.denominator, *(c.denominator for _, c in self.coeffs)]

    def __str__(self) -> str:
        parts: list[str] = []
        if self.rat or not self.coeffs:
            parts.append(str(self.rat))
        for sym, c in self.coeffs:
            body = f"{abs(c)}*{sym}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Angle({str(self)!r})"

    @classmethod
    def parse(cls, text: str, base_offset: int = 0) -> "Angle":
        sums, _ = _read_sum(text, 0, base_offset, None, False)
        return _angle(sums[0])


ZERO = Angle()


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in " \t":
        pos += 1
    return pos


def _expect(text: str, pos: int, base: int, token: str, message: str) -> int:
    pos = _skip_ws(text, pos)
    if not text.startswith(token, pos):
        raise ParseError(message, base + pos)
    return pos + len(token)


def _literal(m: re.Match, group: int, base: int) -> int:
    try:
        return int(m.group(group))
    except ValueError:  # longer than int()'s digit limit
        raise ParseError(
            f"integer literal of {len(m.group(group))} digits is too long",
            base + m.start(group),
        ) from None


def _read_binom(text: str, pos: int, base: int) -> tuple[int, int]:
    """`C(n,k)` at pos, blanks allowed inside; returns (k, end)."""
    pos = _expect(text, pos, base, "C(", "expected C(n,k)")
    pos = _expect(text, pos, base, "n", "expected literal 'n' in C(n,k)")
    pos = _skip_ws(text, _expect(text, pos, base, ",", "expected ',' in C(n,k)"))
    m = _NUMBER_RE.match(text, pos)
    if not m or m.group(2) is not None:
        raise ParseError("expected integer k in C(n,k)", base + pos)
    k = _literal(m, 1, base)
    if k > MAX_BINOM_K:
        raise ParseError(f"k = {k} exceeds the cap {MAX_BINOM_K} in C(n,k)", base + pos)
    return k, _expect(text, m.end(), base, ")", "expected ')' closing C(n,k)")


def _read_term(
    text: str, pos: int, base: int, binom: bool
) -> tuple[int, Iterable[tuple[str | None, Fraction]], int]:
    """One term as (k, [(symbol or None for the rational part, value)], end).

    Angle terms are `p`, `p/q`, `p/q*sym` and `sym`.  With ``binom`` a
    term may also be `(angle)`, and any of these may be followed by
    `*C(n,k)`.  A bare `C(n,k)` is rejected: its coefficient 1 is 0 on
    the circle, so it most likely means something else.
    """
    if binom and text[pos] == "(":
        inner, end = _read_sum(text, pos + 1, base, ")", False)
        end = _expect(text, end, base, ")", "expected ')' closing '('")
        k, end = _read_times_binom(text, end, base)
        return k, inner[0].items(), end
    value = Fraction(1)
    m = _NUMBER_RE.match(text, pos)
    if m:
        num = _literal(m, 1, base)
        den = 1 if m.group(2) is None else _literal(m, 2, base)
        if den == 0:
            raise ParseError("zero denominator", base + m.start(2))
        value = Fraction(num, den)
        star = _STAR_RE.match(text, m.end())
        if star is None:
            return 0, [(None, value)], m.end()
        pos = star.end()
    if binom and text.startswith("C(", pos):
        if not m:
            raise ParseError(
                "C(n,k) needs a coefficient: a bare C(n,k) is 1*C(n,k) = 0",
                base + pos,
            )
        k, end = _read_binom(text, pos, base)
        return k, [(None, value)], end
    sm = _SYMBOL_RE.match(text, pos)
    if not sm:
        if m:
            raise ParseError("expected basis symbol after '*'", base + pos)
        raise ParseError(f"expected rational or symbol, found {text[pos]!r}", base + pos)
    k, end = _read_times_binom(text, sm.end(), base) if binom else (0, sm.end())
    return k, [(sm.group(), value)], end


def _read_times_binom(text: str, pos: int, base: int) -> tuple[int, int]:
    """An optional `*C(n,k)` after a coefficient; k = 0 without one."""
    star = _STAR_RE.match(text, pos)
    return (0, pos) if star is None else _read_binom(text, star.end(), base)


def _read_sum(
    text: str, pos: int, base: int, stop: str | None, binom: bool
) -> tuple[dict[int, dict[str | None, Fraction]], int]:
    """Signed terms from pos up to the end of text or the stop character.

    Returns the per-k sums {k: {symbol or None: value}} and the position
    of the stop character (len(text) at the end).  Error offsets are
    ``base`` plus the position in ``text``.
    """
    sums: dict[int, dict[str | None, Fraction]] = {}
    n = len(text)
    pos = _skip_ws(text, pos)
    if pos == n or text[pos] == stop:
        raise ParseError(f"empty {'polynomial' if binom else 'angle'}", base + pos)
    sign = 1
    if text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos = _skip_ws(text, pos + 1)
    while True:
        if pos == n or text[pos] == stop:
            raise ParseError("expected a term", base + pos)
        k, parts, pos = _read_term(text, pos, base, binom)
        acc = sums.setdefault(k, {})
        for sym, value in parts:
            acc[sym] = acc.get(sym, 0) + sign * value
        pos = _skip_ws(text, pos)
        if pos == n or text[pos] == stop:
            return sums, pos
        if text[pos] not in "+-":
            raise ParseError(f"expected '+' or '-', found {text[pos]!r}", base + pos)
        sign = -1 if text[pos] == "-" else 1
        pos = _skip_ws(text, pos + 1)


def _angle(parts: dict[str | None, Fraction]) -> Angle:
    return Angle(parts.pop(None, 0), parts)  # type: ignore[arg-type]


def parse_point(text: str, base_offset: int = 0) -> tuple[Angle, ...]:
    """Comma-separated list of angles; offsets in errors are global."""
    out: list[Angle] = []
    pos = 0
    while True:
        sums, pos = _read_sum(text, pos, base_offset, ",", False)
        out.append(_angle(sums[0]))
        if pos == len(text):
            return tuple(out)
        pos += 1


def parse_binomial_sum(text: str) -> list[Angle]:
    """Coefficients c_0, ..., c_d of `sum_k c_k*C(n,k)` written as text.

    The grammar is the README's polynomial grammar; k is at most
    MAX_BINOM_K.  Trailing zero coefficients are not trimmed.
    """
    sums, _ = _read_sum(text, 0, 0, None, True)
    return [_angle(sums.get(k, {})) for k in range(max(sums) + 1)]


def format_point(point: Sequence[Angle]) -> str:
    return ", ".join(str(a) for a in point)


def angle_to_unit(a: Angle, basis: BasisDecl) -> complex:
    """Project to the unit circle: e(a) = exp(2 pi i a).

    The phase is accumulated exactly in Q using the declared rational
    basis values and converted to float once, correctly rounded, so the
    result matches the exact phase to the last bit of a double.
    """
    theta = a.rat
    for sym, c in a.coeffs:
        theta += c * basis.value_of(sym)
    theta %= 1
    t = 2.0 * math.pi * (theta.numerator / theta.denominator)
    return complex(math.cos(t), math.sin(t))
