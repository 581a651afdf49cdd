"""Skew-product tower dynamics with exact closed-form iteration.

The m-dimensional tower over rotation by x0 is

    T(x_1, ..., x_m) = (x_0 + x_1, x_1 + x_2, ..., x_{m-1} + x_m),

with the constant x_0 feeding the first coordinate.  Writing g for the
ambient point (x_0, x_1, ..., x_m), the n-th iterate is the binomial
convolution

    (T^n x)_k = sum_{j=0}^{k} binom(n, k - j) * g_j,

valid for every integer n, which the orbit-polynomial machinery reuses:
a character index v (a finite multiplicative combination of coordinate
characters) pulled back along the orbit of x gives an angle-valued
polynomial in the binomial basis,

    p(n) = sum_k binom(n, k) * c_k,

whose coefficient c_i collects e * g_{k-i} for every (k, e) in v.  The
evaluation map q pairing index vectors with group elements,

    q(v)(phi) = sum_k phi_k(v_k),

intertwines translation with the index-vector shift v -> Sv + v, and the
integer points tilde(0), ..., tilde(m) already separate index vectors
(the Pascal matrix binom(n, k), 0 <= n, k <= m, is unimodular).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from .circle import Angle, ZERO, parse_binomial_sum
from .combinatorics import binom, binomial_shift
from .ellis import HmElement
from .errors import ConfigurationError, RelationError


@dataclass(frozen=True)
class BasicSystem:
    """The m-dimensional tower over rotation by x0."""

    m: int
    x0: Angle

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ConfigurationError(f"system dimension must be >= 1, got {self.m}")

    def _check_len(self, x: Sequence[Angle]) -> None:
        if len(x) != self.m:
            raise ValueError(
                f"point has {len(x)} coordinates, system needs {self.m}"
            )

    def step(self, x: Sequence[Angle]) -> tuple[Angle, ...]:
        self._check_len(x)
        prev = self.x0
        out = []
        for xi in x:
            out.append(prev + xi)
            prev = xi
        return tuple(out)

    def inverse_step(self, y: Sequence[Angle]) -> tuple[Angle, ...]:
        self._check_len(y)
        prev = self.x0
        out = []
        for yi in y:
            cur = yi - prev
            out.append(cur)
            prev = cur
        return tuple(out)

    def iterate(self, x: Sequence[Angle], n: int) -> tuple[Angle, ...]:
        """T^n x in closed form; n may be any integer."""
        self._check_len(x)
        return ambient_iterate((self.x0, *x), n)[1:]

    @property
    def minimal_base(self) -> bool:
        """The rotation part is minimal iff x0 is not torsion."""
        return self.x0.torsion_order() is None


def ambient_iterate(g: Sequence[Angle], n: int) -> tuple[Angle, ...]:
    """Binomial convolution of the ambient point (coordinate 0 is constant).

    Read backwards, the point is the coefficient vector of a polynomial
    in the binomial basis, and the iterate is that polynomial shifted by n.
    """
    return tuple(reversed(binomial_shift(g[::-1], n)))


@dataclass(frozen=True)
class CharacterIndex:
    """Finite product of coordinate characters: entries (index >= 1, exponent)."""

    entries: tuple[tuple[int, int], ...]

    @classmethod
    def make(
        cls,
        spec: Union[Mapping[int, int], Iterable[tuple[int, int]]],
    ) -> "CharacterIndex":
        items = spec.items() if isinstance(spec, Mapping) else spec
        merged: dict[int, int] = {}
        for idx, e in items:
            if idx < 1:
                raise ValueError(f"coordinate indices start at 1, got {idx}")
            merged[idx] = merged.get(idx, 0) + e
        return cls(tuple(sorted((i, e) for i, e in merged.items() if e)))

    @classmethod
    def basis(cls, k: int) -> "CharacterIndex":
        return cls.make({k: 1})

    @property
    def top(self) -> int:
        """Largest coordinate in the support (0 for the trivial character)."""
        return self.entries[-1][0] if self.entries else 0

    def eval(self, point: Sequence[Angle]) -> Angle:
        if self.top > len(point):
            raise ValueError(
                f"character reads coordinate {self.top}, point has {len(point)}"
            )
        val = ZERO
        for idx, e in self.entries:
            val = val + e * point[idx - 1]
        return val


class PolyAngle:
    """Angle-valued polynomial in the binomial basis: sum_k binom(n,k) c_k.

    Coefficients are normalized so the last one is nonzero (degree-0
    zero polynomial excepted).
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Angle, ...]

    def __init__(self, coeffs: Iterable[Angle]) -> None:
        cs = list(coeffs)
        while len(cs) > 1 and not cs[-1]:
            cs.pop()
        if not cs:
            cs = [ZERO]
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PolyAngle is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Angle:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyAngle):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def evaluate(self, n: int) -> Angle:
        val = ZERO
        for k, c in enumerate(self.coeffs):
            b = binom(n, k)
            if b and c:
                val = val + b * c
        return val

    def difference(self) -> "PolyAngle":
        """p(n+1) - p(n); drops the binomial-basis coefficients one slot."""
        return PolyAngle(self.coeffs[1:])

    def shift(self, t: int) -> "PolyAngle":
        """p(n + t) in the same basis, via Vandermonde convolution."""
        return PolyAngle(binomial_shift(self.coeffs, t))

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c and self.degree > 0:
                continue
            body = str(c) if k == 0 else f"({c})*C(n,{k})"
            parts.append(body)
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"PolyAngle({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "PolyAngle":
        return cls(parse_binomial_sum(text))


def orbit_polynomial(
    sys: BasicSystem, v: CharacterIndex, x: Sequence[Angle]
) -> PolyAngle:
    """The polynomial n -> v(T^n x) in the binomial basis."""
    if v.top > sys.m:
        raise ValueError(
            f"character reads coordinate {v.top}, system has {sys.m}"
        )
    if len(x) != sys.m:
        raise ValueError(f"point has {len(x)} coordinates, system needs {sys.m}")
    g = (sys.x0, *x)
    coeffs = [ZERO] * (v.top + 1)
    for idx, e in v.entries:
        for i in range(idx + 1):
            coeffs[i] = coeffs[i] + e * g[idx - i]
    return PolyAngle(coeffs)


def diagonal_representation(
    sys: BasicSystem, v: CharacterIndex
) -> list[CharacterIndex]:
    """Triangular chain carrying a canonical generator e_k.

    Returns [e_1, ..., e_k] after verifying the pull-back relation
    step*(e_j) = e_{j-1} + e_j (with e_0 read as the constant x0): the
    chain closes under the dynamics, one new coordinate per level.
    Only canonical generators are supported; general characters are
    products of these.
    """
    if not v.entries:
        return []
    if v.entries != ((v.top, 1),):
        raise ValueError(
            "only canonical coordinate characters e_k have a diagonal chain; "
            "decompose general characters into these"
        )
    chain = [CharacterIndex.basis(j) for j in range(1, v.top + 1)]
    for j, f in enumerate(chain, start=1):
        pulled, const = _step_pullback(sys, f)
        expected = (
            CharacterIndex.basis(1)
            if j == 1
            else CharacterIndex.make({j - 1: 1, j: 1})
        )
        expected_const = sys.x0 if j == 1 else ZERO
        if pulled != expected or const != expected_const:
            raise RelationError(f"pull-back relation fails at chain level {j}")
    return chain


def _step_pullback(
    sys: BasicSystem, v: CharacterIndex
) -> tuple[CharacterIndex, Angle]:
    """Character of x -> v(step(x)): linear part plus constant."""
    acc: dict[int, int] = {}
    const = ZERO
    for idx, e in v.entries:
        acc[idx] = acc.get(idx, 0) + e
        if idx == 1:
            const = const + e * sys.x0
        else:
            acc[idx - 1] = acc.get(idx - 1, 0) + e
    return CharacterIndex.make(acc), const


def q_eval(v: Sequence[Angle], phi: HmElement) -> Angle:
    """Pair an index vector (v_0, ..., v_m) with a group element."""
    if len(v) > phi.m + 1 and any(v[phi.m + 1 :]):
        raise ValueError(
            f"index vector reads past coordinate {phi.m}"
        )
    val = ZERO
    for k, a in enumerate(v[: phi.m + 1]):
        if a:
            val = val + phi.comps[k](a)
    return val


def index_shift(v: Sequence[Angle]) -> tuple[Angle, ...]:
    """The vector Sv + v with (Sv)_k = v_{k+1}: pairs with translation.

    q(v)(tilde(1) * phi) == q(Sv + v)(phi) for every phi, the exact
    shadow of the translation intertwining relation.  As a binomial-basis
    coefficient vector, Sv + v is v shifted by one.
    """
    return tuple(binomial_shift(v, 1))
