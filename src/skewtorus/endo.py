"""Truncated circle endomorphisms, stored as integer rows.

Fix a level L >= 2 and put M = L!.  The working subgroup of the circle
is

    A_L = (1/M)Z/Z  +  sum_i Q_i,   Q_i = Z * (b_i / M),

that is, all angles whose denominators divide M.  Each element of A_L is
one integer row (p mod M, c_1, ..., c_d) standing for
p/M + sum_i c_i b_i/M.  Only the torsion entry p reduces: the b_i and 1
are rationally independent, so the coefficients c_i carry no relations.

An endomorphism of the ambient group restricted to A_L is determined by
a residue r mod M (its action on torsion: p/M -> r p/M) and one row per
declared symbol i, the image (p_i, c_i1, ..., c_id) of the generator
b_i/M.  A :class:`TruncEndo` stores that (``ctx``, ``residue``, ``rows``)
and nothing else; :func:`stack` lays it out as columns, a matrix with the
torsion row on top.  The one row kernel, :func:`kernel`, applies it to
the row (p, c),

    torsion  r p + sum_i c_i p_i  (mod M),   coefficient j  sum_i c_i c_ij,

and over several matrices stacked side by side (:func:`stack`) it sums
each map's image of its own block of the row: evaluation, ``compose`` and
the group law of :mod:`skewtorus.ellis` all run it.  The pointwise sum
``*`` and ``conj`` act entrywise, reducing only the torsion column.

These maps form a ring: the pointwise sum of circle-valued maps is its
addition, written ``*`` here (the group of maps is the ambient container
for the transformation groups built on top), and ``compose`` is its
multiplication.  ``power(n)`` is multiplication by n, the image of n
under the canonical ring map from Z.

``Angle`` appears only at the edges.  The public constructor and
``__call__`` read angles through :func:`decompose`; ``images`` and the
result of ``__call__`` turn rows back into angles for formatting and
JSON.  ``from_dict`` reads image text straight into rows through
:meth:`TruncationContext.terms_row`: each parsed term n/d * symbol adds
n * (M // d) to its column, and only a sum with a term outside A_L goes
through an ``Angle`` and :func:`decompose`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cache
from math import factorial, gcd
from itertools import repeat
from operator import add, mul

from .circle import Angle, BasisDecl, Term, parse_terms
from .errors import ConfigurationError, TruncationError, shown

Row = tuple[int, ...]  # (p mod M, c_1, ..., c_d)
LEVEL_SEARCH_BOUND = 1_000  # minimal_level's last try; 406 is the level of 1/(7 * 400!)


@dataclass(frozen=True)
class TruncationContext:
    """Level L with its modulus L! and the declared basis."""

    level: int
    basis: BasisDecl
    modulus: int = field(init=False, repr=False, compare=False)
    # the row column of the torsion part (None), 0, then of each declared
    # symbol, in symbol order
    _column_of: dict[str | None, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.level < 2:
            raise ConfigurationError(
                f"truncation level must be >= 2, got {self.level}"
            )
        object.__setattr__(self, "modulus", factorial(self.level))
        columns = sorted((s, j) for j, s in enumerate(self.basis.symbols, start=1))
        object.__setattr__(self, "_column_of", {None: 0, **dict(columns)})

    def generator(self, symbol: str) -> Angle:
        """The represented generator b/L! for a declared symbol."""
        self.basis.index_of(symbol)
        return Angle._make(self.modulus, 0, ((symbol, 1),))

    def torsion_generator(self) -> Angle:
        return Angle._make(self.modulus, 1, ())

    def row(self, a: Angle) -> Row:
        """The integer row of a; raises as :func:`decompose` does."""
        p, coords = decompose(a, self)
        return (p, *(coords.get(s, 0) for s in self.basis.symbols))

    def terms_row(self, terms: Sequence[Term]) -> Row:
        """The integer row of the sum of the terms (symbol or None, n, d),
        each added into its column as n * (M // d).  A term whose d does
        not divide M, or whose symbol is undeclared, sends the sum through
        :meth:`row`: it may still fit once reduced (1/1440 + 1/1440 at
        level 6), and otherwise raises as :func:`decompose` does."""
        M, column_of = self.modulus, self._column_of
        row = [0] * len(column_of)
        for sym, n, d in terms:
            j = column_of.get(sym)
            if j is None or M % d:
                return self.row(Angle._from_terms(terms))
            row[j] += n * (M // d)
        row[0] %= M
        return tuple(row)

    def angle(self, row: Sequence[int]) -> Angle:
        """The angle that an integer row stands for: row / L!, reduced by one gcd."""
        M = self.modulus
        g = gcd(M, *row)
        cs = tuple([(s, row[j] // g) for s, j in self._column_of.items() if j and row[j]])
        return Angle._make(M // g, row[0] % M // g, cs)


def minimal_level(a: Angle) -> int | None:
    """Smallest level L >= 2 whose modulus L! is a multiple of a's denominator,
    or None past LEVEL_SEARCH_BOUND (a prime factor p would take p steps)."""
    rest = 1  # L! mod the denominator
    for level in range(2, LEVEL_SEARCH_BOUND + 1):
        rest = rest * level % a.den
        if not rest:
            return level
    return None


def decompose(a: Angle, ctx: TruncationContext) -> tuple[int, dict[str, int]]:
    """Write a = p/L! + sum_s c_s (b_s/L!) with integer p in [0, L!) and c_s.

    Raises TruncationError (carrying the smallest sufficient level) when
    some denominator does not divide L!, and ConfigurationError when the
    angle uses an undeclared symbol.
    """
    M = ctx.modulus
    if M % a.den:
        level = minimal_level(a)
        past = "" if level else f"; no level up to {LEVEL_SEARCH_BOUND} is sufficient"
        raise TruncationError(
            f"angle {a} is not representable at level {ctx.level}{past}",
            level,
        )
    scale = M // a.den
    coords: dict[str, int] = {}
    for sym, c in a.cs:
        ctx.basis.index_of(sym)
        coords[sym] = c * scale
    return a.num * scale, coords


@dataclass(frozen=True, slots=True, init=False, repr=False)
class TruncEndo:
    """Endomorphism of the level-L subgroup: residue mod L! plus rows.

    ``rows[i]`` is the row of the image of the generator b_i/L! for the
    i-th declared symbol.  ``TruncEndo(ctx, residue, images)`` reads the
    images as angles and raises TruncationError for one outside the
    subgroup; :meth:`make` also takes a symbol -> angle mapping, and
    :meth:`from_dict` reads the JSON form that user-facing input uses.
    """

    ctx: TruncationContext
    residue: int
    rows: tuple[Row, ...]

    def __init__(
        self, ctx: TruncationContext, residue: int, images: Sequence[Angle]
    ) -> None:
        if len(images) != len(ctx.basis.symbols):
            raise ConfigurationError(
                f"expected {len(ctx.basis.symbols)} images, got {len(images)}"
            )
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "residue", residue % ctx.modulus)
        object.__setattr__(self, "rows", tuple(map(ctx.row, images)))

    @classmethod
    def _from_rows(
        cls, ctx: TruncationContext, residue: int, rows: tuple[Row, ...]
    ) -> "TruncEndo":
        """Trusted constructor: residue in [0, M), torsion entries reduced."""
        endo = object.__new__(cls)
        object.__setattr__(endo, "ctx", ctx)
        object.__setattr__(endo, "residue", residue)
        object.__setattr__(endo, "rows", rows)
        return endo

    @classmethod
    def make(
        cls,
        ctx: TruncationContext,
        residue: int,
        images: Mapping[str, Angle],
    ) -> "TruncEndo":
        """The map with this residue and these generator images, by symbol;
        a symbol left out maps to zero."""
        for sym in images:
            ctx.basis.index_of(sym)
        imgs = [images.get(s, Angle()) for s in ctx.basis.symbols]
        return cls(ctx, residue, tuple(imgs))

    def validate(self) -> "TruncEndo":
        """Return self; kept for API compatibility and checks nothing.

        Every map is valid once built: the constructor reads each image
        through :func:`decompose`, and the arithmetic keeps the torsion
        column reduced."""
        return self

    @property
    def images(self) -> tuple[Angle, ...]:
        """The image angle of each generator, in basis order."""
        return tuple(map(self.ctx.angle, self.rows))

    @classmethod
    def power(cls, ctx: TruncationContext, n: int) -> "TruncEndo":
        """Multiplication by the integer n."""
        identity = identity_rows(len(ctx.basis.symbols))
        rows = tuple([tuple([n * x for x in row]) for row in identity])
        return cls._from_rows(ctx, n % ctx.modulus, rows)

    def is_zero_map(self) -> bool:
        return self.residue == 0 and not any(map(any, self.rows))

    def __repr__(self) -> str:
        return (
            f"TruncEndo(ctx={self.ctx!r}, residue={self.residue!r}, "
            f"images={self.images!r})"
        )

    def _require_ctx(self, other: "TruncEndo") -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ConfigurationError("operands live in different contexts")

    def __call__(self, a: Angle) -> Angle:
        ctx = self.ctx
        return ctx.angle(kernel(ctx.row(a), stack((self,)), ctx.modulus))

    def __mul__(self, other: "TruncEndo") -> "TruncEndo":
        """Pointwise sum of circle-valued maps (the ambient group law)."""
        if not isinstance(other, TruncEndo):
            return NotImplemented
        self._require_ctx(other)
        M = self.ctx.modulus
        rows = tuple([(t % M, *cs) for t, *cs in map(map, repeat(add), self.rows, other.rows)])
        return TruncEndo._from_rows(self.ctx, (self.residue + other.residue) % M, rows)

    def conj(self) -> "TruncEndo":
        """Pointwise inverse (negation of the map's values)."""
        M = self.ctx.modulus
        rows = tuple((-x[0] % M, *[-c for c in x[1:]]) for x in self.rows)
        return TruncEndo._from_rows(self.ctx, -self.residue % M, rows)

    def compose(self, other: "TruncEndo") -> "TruncEndo":
        """self after other: the kernel of self over the rows of other."""
        self._require_ctx(other)
        M, cols = self.ctx.modulus, stack((self,))
        rows = tuple([kernel(row, cols, M) for row in other.rows])
        return TruncEndo._from_rows(self.ctx, self.residue * other.residue % M, rows)

    def to_dict(self) -> dict:
        return {
            "residue": self.residue,
            "images": {
                s: str(img)
                for s, img in zip(self.ctx.basis.symbols, self.images)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping, ctx: TruncationContext) -> "TruncEndo":
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"an endomorphism must be an object, got {shown(data)}")
        residue = data.get("residue")
        if not isinstance(residue, int) or isinstance(residue, bool):
            raise ConfigurationError(f"residue must be an integer, got {shown(residue)}")
        raw = data.get("images", {})
        if not isinstance(raw, Mapping):
            raise ConfigurationError("images must map symbols to angle strings")
        # every image is read before any is folded, so a parse error comes
        # before a truncation error whatever the order of the keys
        images: dict[str, list[Term] | Angle] = {}
        for sym, text in raw.items():
            ctx.basis.index_of(sym)
            if not isinstance(text, (str, Angle)):
                raise ConfigurationError(f"image of {sym} must be an angle string, got {shown(text)}")
            images[sym] = parse_terms(text) if isinstance(text, str) else text
        rows = tuple([
            ctx.row(img) if isinstance(img, Angle) else ctx.terms_row(img)
            for img in (images.get(s, ()) for s in ctx.basis.symbols)
        ])
        return cls._from_rows(ctx, residue % ctx.modulus, rows)


@cache
def identity_rows(d: int) -> tuple[Row, ...]:
    """The rows (0, e_i) of the identity map on d symbols."""
    return tuple([(0, *[int(j == i) for j in range(d)]) for i in range(d)])


def stack(maps: Iterable[TruncEndo]) -> list[Row]:
    """The columns of the maps' matrices, each laid end to end over the maps."""
    matrices: list[Row] = []
    for f in maps:
        matrices.append((f.residue,) + (0,) * len(f.rows))
        matrices += f.rows
    return list(zip(*matrices))


def kernel(vec: Sequence[int], cols: Sequence[Row], M: int) -> Row:
    """The row vec times the columns cols, torsion reduced mod M.  The dot
    products stop at the shorter operand, so a vec of k blocks meets the
    first k blocks of the stacked columns."""
    dots = [sum(map(mul, vec, col)) for col in cols]
    dots[0] %= M
    return tuple(dots)
