"""Exact circle-group arithmetic over a declared irrational basis.

An :class:`Angle` represents an element of R/Z of the form

    rat + sum_i c_i * b_i   (mod 1)

with ``rat`` and every coefficient ``c_i`` rational, and the b_i drawn
from a finite list of declared irrational basis symbols.  The symbols
together with 1 are assumed rationally independent (a modeling
assumption recorded with the basis declaration, never checked), so the
normal form with rat in [0, 1) is unique and equality is decided
componentwise.  Only the rational part reduces mod 1; the coefficients
live in Q and carry no relations.  The normal form is held in integers
over one common denominator (see :class:`Angle`).

Numeric values of the symbols enter through :meth:`BasisDecl.phase`
alone (behind :func:`angle_to_unit` and the Weyl phase streams).  No
equality, membership, or group decision consults a float.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from math import gcd, lcm
from numbers import Rational
from typing import Union

from .errors import ConfigurationError, ParseError, SkewtorusError, shown

RationalLike = Union[int, Rational]
CoeffsLike = Union[Mapping[str, RationalLike], Iterable[tuple[str, RationalLike]]]

_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"([0-9]+)(?:[ \t]*/[ \t]*([0-9]+))?")
_STAR_RE = re.compile(r"[ \t]*\*[ \t]*")
_DECIMAL_RE = re.compile(r"([0-9]*)\.([0-9]+)")  # a basis value such as 0.4142
_INTEGER_RE = re.compile(r"-?[0-9]+")  # int() alone also takes "١٢", "1_0" and blanks

# Largest k in a binomial marker C(n,k).  A parse allocates one
# coefficient per k up to the largest, so the cap bounds that work.
MAX_BINOM_K = 64

# Longest basis symbol name.  Messages and printed angles carry a symbol
# whole, so the cap bounds them; a basis checks it before reading a value.
MAX_SYMBOL_LENGTH = 64


def _check_name_lengths(names: Iterable[str]) -> None:
    for name in names:
        if len(name) > MAX_SYMBOL_LENGTH:
            raise ConfigurationError(
                f"basis symbol names must have at most MAX_SYMBOL_LENGTH = "
                f"{MAX_SYMBOL_LENGTH} characters, got one of {len(name)}"
            )


@dataclass(frozen=True)
class BasisDecl:
    """Ordered declaration of irrational basis symbols with numeric values.

    Each value is an exact (numerator, denominator) pair, read from an
    ASCII decimal literal ``digits.digits`` as (digits, 10**fractional
    digits); values are used only when projecting to the unit circle.
    Together with 1 they are assumed rationally independent.
    """

    symbols: tuple[str, ...]
    values: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_name_lengths(self.symbols)
        if len(self.symbols) != len(set(self.symbols)):
            raise ConfigurationError(f"duplicate basis symbols in {self.symbols}")
        for name in self.symbols:
            if not _SYMBOL_RE.fullmatch(name):
                raise ConfigurationError(f"invalid basis symbol name {shown(name)}")
        if len(self.values) != len(self.symbols):
            raise ConfigurationError("basis symbols and values differ in length")
        for name, (n, d) in zip(self.symbols, self.values):
            if not 0 < n < d:
                raise ConfigurationError(
                    f"basis value for {name} must lie in (0, 1), got {_fraction_text(n, d)}"
                )

    @classmethod
    def from_decimals(cls, decls: Mapping[str, str]) -> "BasisDecl":
        _check_name_lengths(decls)
        values = []
        for name, text in decls.items():
            m = _DECIMAL_RE.fullmatch(text)
            if m is None:
                raise ConfigurationError(
                    f"basis value for {name} is not a decimal literal: {shown(text)}"
                )
            values.append((int_literal(m[1] + m[2], f"basis value for {name}"), 10 ** len(m[2])))
        return cls(tuple(decls), tuple(values))

    def index_of(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ConfigurationError(f"unknown basis symbol {shown(symbol)}") from None

    def require_declared(
        self, what: str, text: str | None, angles: Iterable[Angle], note: str = ""
    ) -> None:
        """Refuse angles, read for what from text, that use an undeclared
        symbol; note ends the message."""
        if any(sym not in self.symbols for a in angles for sym, _ in a.cs):
            raise ConfigurationError(f"{what} must use only basis symbols, got {shown(text)}{note}")

    def value_of(self, symbol: str) -> tuple[int, int]:
        return self.values[self.index_of(symbol)]

    def phase(self, a: Angle) -> tuple[int, int]:
        """The exact real value of a under the declared values, as a
        numerator and a positive denominator, neither reduced nor taken mod 1."""
        n, d = 0, 1  # sum of c * value over the symbols, as n / d
        for sym, c in a.cs:
            vn, vd = self.value_of(sym)
            n, d = n * vd + c * vn * d, d * vd
        return a.num * d + n, a.den * d


# (symbol or None for the torsion part, numerator, denominator > 0)
Term = tuple[Union[str, None], int, int]


def _ratio(x: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of x; floats and other non-rationals are refused."""
    if isinstance(x, Rational):
        return x.numerator, x.denominator
    raise TypeError(f"angle entries must be int or Fraction, got {type(x).__name__} {x!r}")


class Angle:
    """Immutable exact circle element, written additively.

    The normal form is a common denominator ``den >= 1``, a torsion
    numerator ``0 <= num < den`` and ``cs``, a tuple of (symbol, nonzero
    int) strictly sorted by symbol, with ``gcd(den, num, *cs) == 1``: the
    angle is ``(num + sum c * symbol) / den``.  A level-L row is the same
    data with ``den | L!``.  The public constructor normalises int and
    other ``numbers.Rational`` input; the arithmetic merges integer
    numerators and divides by one gcd.
    """

    __slots__ = ("den", "num", "cs")

    den: int
    num: int
    cs: tuple[tuple[str, int], ...]

    def __init__(self, rat: RationalLike = 0, coeffs: CoeffsLike = ()) -> None:
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        a = _from_terms([(sym, *_ratio(c)) for sym, c in items] + [(None, *_ratio(rat))])
        _set_den(self, a.den)
        _set_num(self, a.num)
        _set_cs(self, a.cs)

    @staticmethod
    def _make(den: int, num: int, cs: tuple[tuple[str, int], ...]) -> "Angle":
        """Trusted constructor: the arguments are already in normal form."""
        a = _new(Angle)
        _set_den(a, den)
        _set_num(a, num)
        _set_cs(a, cs)
        return a

    @staticmethod
    def _reduce(den: int, num: int, cs: list[tuple[str, int]]) -> "Angle":
        """(num + sum c * symbol) / den for cs sorted by symbol with nonzero
        c: num is taken mod den and all are divided by their gcd."""
        num %= den
        g = gcd(den, num, *[c for _, c in cs])
        if g > 1:
            den, num, cs = den // g, num // g, [(s, c // g) for s, c in cs]
        return _make(den, num, tuple(cs))

    @staticmethod
    def _from_terms(terms: Sequence[Term]) -> "Angle":
        """The sum of n/d * symbol over the terms (symbol, n, d), with
        symbol None for the torsion part."""
        den = lcm(*[d for _, _, d in terms])
        acc: dict = {}
        for sym, n, d in terms:
            acc[sym] = acc.get(sym, 0) + n * (den // d)
        num = acc.pop(None, 0)
        return _reduce(den, num, [(s, c) for s, c in sorted(acc.items()) if c])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Angle is immutable")

    def __reduce__(self) -> tuple:
        return _make, (self.den, self.num, self.cs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Angle):
            return NotImplemented
        return self.den == other.den and self.num == other.num and self.cs == other.cs

    def __hash__(self) -> int:
        return hash((self.den, self.num, self.cs))

    def __bool__(self) -> bool:
        return bool(self.num or self.cs)

    def _sum(self, other: "Angle", sign: int) -> "Angle":
        """self + sign * other over the lcm of the two denominators."""
        den = self.den if self.den == other.den else lcm(self.den, other.den)
        sx, sy = den // self.den, sign * (den // other.den)
        acc = {s: sx * c for s, c in self.cs}
        for s, c in other.cs:
            acc[s] = acc.get(s, 0) + sy * c
        cs = [(s, c) for s, c in sorted(acc.items()) if c]
        return _reduce(den, sx * self.num + sy * other.num, cs)

    def __add__(self, other: "Angle") -> "Angle":
        return self._sum(other, 1) if isinstance(other, Angle) else NotImplemented

    def __sub__(self, other: "Angle") -> "Angle":
        return self._sum(other, -1) if isinstance(other, Angle) else NotImplemented

    def __neg__(self) -> "Angle":
        return _make(self.den, -self.num % self.den, tuple([(s, -c) for s, c in self.cs]))

    def __rmul__(self, n: int) -> "Angle":
        # Z-module structure only; rational scaling is ill-defined on torsion
        if not isinstance(n, int):
            return NotImplemented
        if not n:
            return ZERO
        # the numerators are coprime to den, so gcd(den, n) is the whole gcd
        g = gcd(self.den, n)
        den, n = self.den // g, n // g
        return _make(den, n * self.num % den, tuple([(s, n * c) for s, c in self.cs]))

    __mul__ = __rmul__

    @property
    def is_torsion(self) -> bool:
        return not self.cs

    def torsion_order(self) -> int | None:
        """Order in the circle group, or None for non-torsion elements."""
        return None if self.cs else self.den

    def __str__(self) -> str:
        parts: list[str] = []
        if self.num or not self.cs:
            parts.append(_fraction_text(self.num, self.den))
        for sym, c in self.cs:
            body = f"{_fraction_text(abs(c), self.den)}*{sym}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Angle({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "Angle":
        return _from_terms(parse_terms(text))


_new = object.__new__
_set_den = Angle.den.__set__  # type: ignore[attr-defined]
_set_num = Angle.num.__set__  # type: ignore[attr-defined]
_set_cs = Angle.cs.__set__  # type: ignore[attr-defined]
_make, _reduce, _from_terms = Angle._make, Angle._reduce, Angle._from_terms
ZERO = Angle()


def _fraction_text(n: int, d: int) -> str:
    """n/d in lowest terms: p/q, or p alone when q is 1."""
    g = gcd(n, d)
    try:
        return str(n // g) if g == d else f"{n // g}/{d // g}"
    except ValueError:  # past str()'s digit limit, which _literal keeps on input
        x = max(n, d) // g
        k = int((x.bit_length() - 1) * math.log10(2)) + 1  # 10**(k - 1) <= x
        raise SkewtorusError(f"cannot print a {k + (x >= 10**k)}-digit integer: "
                             f"the limit is {sys.get_int_max_str_digits()} digits") from None


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in " \t":
        pos += 1
    return pos


def _expect(text: str, pos: int, token: str, message: str) -> int:
    pos = _skip_ws(text, pos)
    if not text.startswith(token, pos):
        raise ParseError(message, pos)
    return pos + len(token)


def int_literal(text: str, where: str, error: type[Exception] = ConfigurationError) -> int:
    """The integer that text writes as ASCII digits after an optional '-'.
    Other text raises error(f"{where} {shown(text)}"), and a literal past int()'s
    digit limit an error that gives its length in place of its digits."""
    if not _INTEGER_RE.fullmatch(text):
        raise error(f"{where} {shown(text)}")
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("-"))
        raise error(f"{where}: integer literal of {digits} digits is too long") from None


def _literal(m: re.Match, group: int) -> int:
    try:
        return int(m.group(group))
    except ValueError:  # longer than int()'s digit limit
        raise ParseError(
            f"integer literal of {len(m.group(group))} digits is too long", m.start(group)
        ) from None


def _read_binom(text: str, pos: int) -> tuple[int, int]:
    """`C(n,k)` at pos, blanks allowed inside; returns (k, end)."""
    pos = _expect(text, pos, "C(", "expected C(n,k)")
    pos = _expect(text, pos, "n", "expected literal 'n' in C(n,k)")
    pos = _skip_ws(text, _expect(text, pos, ",", "expected ',' in C(n,k)"))
    m = _NUMBER_RE.match(text, pos)
    if not m or m.group(2) is not None:
        raise ParseError("expected integer k in C(n,k)", pos)
    k = _literal(m, 1)
    if k > MAX_BINOM_K:
        raise ParseError(f"k = {k} exceeds the cap {MAX_BINOM_K} in C(n,k)", pos)
    return k, _expect(text, m.end(), ")", "expected ')' closing C(n,k)")


def _read_term(text: str, pos: int, binom: bool) -> tuple[int, list[Term], int]:
    """One term as (k, [(symbol or None, numerator, denominator)], end).

    Angle terms are `p`, `p/q`, `p/q*sym` and `sym`.  With ``binom`` a
    term may also be `(angle)`, and any of these may be followed by
    `*C(n,k)`.  A bare `C(n,k)` is rejected: its coefficient 1 is 0 on
    the circle, so it most likely means something else.
    """
    if binom and text[pos] == "(":
        inner, end = _read_sum(text, pos + 1, ")", False)
        end = _expect(text, end, ")", "expected ')' closing '('")
        k, end = _read_times_binom(text, end)
        return k, inner[0], end
    num, den = 1, 1
    m = _NUMBER_RE.match(text, pos)
    if m:
        num = _literal(m, 1)
        den = 1 if m.group(2) is None else _literal(m, 2)
        if den == 0:
            raise ParseError("zero denominator", m.start(2))
        star = _STAR_RE.match(text, m.end())
        if star is None:
            return 0, [(None, num, den)], m.end()
        pos = star.end()
    if binom and text.startswith("C(", pos):
        if not m:
            raise ParseError(
                "C(n,k) needs a coefficient: a bare C(n,k) is 1*C(n,k) = 0", pos
            )
        k, end = _read_binom(text, pos)
        return k, [(None, num, den)], end
    sm = _SYMBOL_RE.match(text, pos)
    if not sm:
        if m:
            raise ParseError("expected basis symbol after '*'", pos)
        raise ParseError(f"expected rational or symbol, found {text[pos]!r}", pos)
    k, end = _read_times_binom(text, sm.end()) if binom else (0, sm.end())
    return k, [(sm.group(), num, den)], end


def _read_times_binom(text: str, pos: int) -> tuple[int, int]:
    """An optional `*C(n,k)` after a coefficient; k = 0 without one."""
    star = _STAR_RE.match(text, pos)
    return (0, pos) if star is None else _read_binom(text, star.end())


def _read_sum(
    text: str, pos: int, stop: str | None, binom: bool
) -> tuple[dict[int, list[Term]], int]:
    """Signed terms from pos up to the end of text or the stop character.

    Returns the signed terms of each k, {k: [(symbol or None, numerator,
    denominator)]}, and the position of the stop character (len(text) at
    the end).  Error offsets are positions in ``text``.
    """
    sums: dict[int, list[Term]] = {}
    n = len(text)
    pos = _skip_ws(text, pos)
    if pos == n or text[pos] == stop:
        raise ParseError(f"empty {'polynomial' if binom else 'angle'}", pos)
    sign = 1
    if text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos = _skip_ws(text, pos + 1)
    while True:
        if pos == n or text[pos] == stop:
            raise ParseError("expected a term", pos)
        k, parts, pos = _read_term(text, pos, binom)
        acc = sums.setdefault(k, [])
        acc.extend(parts if sign > 0 else [(sym, -p, q) for sym, p, q in parts])
        pos = _skip_ws(text, pos)
        if pos == n or text[pos] == stop:
            return sums, pos
        if text[pos] not in "+-":
            raise ParseError(f"expected '+' or '-', found {text[pos]!r}", pos)
        sign = -1 if text[pos] == "-" else 1
        pos = _skip_ws(text, pos + 1)


def parse_terms(text: str) -> list[Term]:
    """The signed terms of an angle written as text, in order and not
    reduced: ``1/2 - b1`` is [(None, 1, 2), ('b1', -1, 1)]."""
    sums, _ = _read_sum(text, 0, None, False)
    return sums[0]


def parse_point(text: str) -> tuple[Angle, ...]:
    """Comma-separated list of angles; offsets in errors are global."""
    out: list[Angle] = []
    pos = 0
    while True:
        sums, pos = _read_sum(text, pos, ",", False)
        out.append(_from_terms(sums[0]))
        if pos == len(text):
            return tuple(out)
        pos += 1


def parse_binomial_sum(text: str) -> list[Angle]:
    """Coefficients c_0, ..., c_d of `sum_k c_k*C(n,k)` written as text.

    The grammar is the README's polynomial grammar; k is at most
    MAX_BINOM_K.  Trailing zero coefficients are not trimmed.
    """
    sums, _ = _read_sum(text, 0, None, True)
    return [_from_terms(sums.get(k, ())) for k in range(max(sums) + 1)]


def format_point(point: Sequence[Angle]) -> str:
    return ", ".join(str(a) for a in point)


def angle_to_unit(a: Angle, basis: BasisDecl) -> complex:
    """Project to the unit circle: e(a) = exp(2 pi i a).

    The phase is accumulated exactly as one integer numerator over one
    integer denominator, using the declared rational basis values, and
    converted to float by one correctly rounded division, so the result
    matches the exact phase to the last bit of a double.
    """
    num, den = basis.phase(a)
    t = 2.0 * math.pi * (num % den / den)
    return complex(math.cos(t), math.sin(t))
