"""Finite-level transformation groups acting on skew-product towers.

An element is a tuple (phi_0, ..., phi_m) of truncated endomorphisms
subject to two membership conditions:

    (level 0)   phi_0 is the identity (multiplication by 1);
    (coherence) k! * residue(phi_k) == k! * binom(residue(phi_1), k)
                (mod L!)  for 1 <= k <= m,

the residue shadow of the constraint tying every component to the first
one on torsion.  The group law is the convolution

    (phi * psi)_k = sum_{j=0}^{k} phi_{k-j} o psi_j,

where the sum is the pointwise addition of circle-valued maps and o is
composition.  The integer points tilde(n) have binom(n, k) in slot k
and embed (Z, +); elements act on (m+1)-tuples of angles by the same
triangular convolution, and the tower's extension law ast_mul glues an
m-dimensional element to a circle coordinate via a correction cocycle
evaluated at the tower's base point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Mapping, Sequence

from .circle import Angle
from .combinatorics import binom
from .endo import TruncationContext, TruncEndo
from .errors import ConfigurationError, MembershipError


def _inner_sum(
    a: Sequence[TruncEndo], b: Sequence[TruncEndo], k: int, acc: TruncEndo
) -> TruncEndo:
    """acc times every group-law term a_{k-j} o b_j, 0 < j < k, under ``*``."""
    for j in range(1, k):
        f, g = a[k - j], b[j]
        if not (f.is_zero_map() or g.is_zero_map()):
            acc = acc * f.compose(g)
    return acc


@dataclass(frozen=True)
class HmElement:
    """Group element: components (phi_0, ..., phi_m), phi_0 = id."""

    ctx: TruncationContext
    comps: tuple[TruncEndo, ...]

    @property
    def m(self) -> int:
        return len(self.comps) - 1

    @classmethod
    def validate(
        cls, ctx: TruncationContext, comps: Sequence[TruncEndo]
    ) -> "HmElement":
        """Construct with full membership checking."""
        comps = tuple(comps)
        m = len(comps) - 1
        if m < 1:
            raise ConfigurationError("an element needs components 0..m with m >= 1")
        if m > ctx.level:
            raise ConfigurationError(
                f"dimension m={m} exceeds truncation level {ctx.level}"
            )
        for e in comps:
            if e.ctx != ctx:
                raise ConfigurationError("component built for a different context")
            e.validate()
        if comps[0] != TruncEndo.power(ctx, 1):
            raise MembershipError(0, "must be the identity map")
        M = ctx.modulus
        r1 = comps[1].residue
        for k in range(2, m + 1):
            kf = factorial(k)
            if (kf * comps[k].residue - kf * binom(r1, k)) % M:
                raise MembershipError(
                    k,
                    f"residue {comps[k].residue} breaks the coherence congruence "
                    f"k!*r_k == k!*binom(r_1, k) mod L! (r_1={r1})",
                )
        return cls(ctx, comps)

    @classmethod
    def tilde(cls, ctx: TruncationContext, n: int, m: int) -> "HmElement":
        """The integer point: binom(n, k) in slot k."""
        if not 1 <= m <= ctx.level:
            raise ConfigurationError(f"need 1 <= m <= level, got m={m}")
        return cls(
            ctx, tuple(TruncEndo.power(ctx, binom(n, k)) for k in range(m + 1))
        )

    @classmethod
    def identity(cls, ctx: TruncationContext, m: int) -> "HmElement":
        return cls.tilde(ctx, 0, m)

    def _require_compatible(self, other: "HmElement") -> None:
        if self.ctx != other.ctx:
            raise ConfigurationError("operands live in different contexts")
        if self.m != other.m:
            raise ConfigurationError(
                f"operands have different dimensions {self.m} and {other.m}"
            )

    def __mul__(self, other: "HmElement") -> "HmElement":
        if not isinstance(other, HmElement):
            return NotImplemented
        self._require_compatible(other)
        a, b = self.comps, other.comps
        out = [a[0]]
        for k in range(1, self.m + 1):
            # the j = 0 and j = k terms are a_k and b_k, as a_0 = b_0 = id
            out.append(_inner_sum(a, b, k, a[k]) * b[k])
        return HmElement(self.ctx, tuple(out))

    def inverse(self) -> "HmElement":
        """Two-sided inverse, built by triangular back-substitution."""
        a = self.comps
        out = [a[0]]
        for k in range(1, self.m + 1):
            out.append(_inner_sum(a, out, k, a[k]).conj())
        return HmElement(self.ctx, tuple(out))

    def truncate(self, new_m: int) -> "HmElement":
        if not 1 <= new_m <= self.m:
            raise ConfigurationError(
                f"truncation dimension must be in 1..{self.m}, got {new_m}"
            )
        return HmElement(self.ctx, self.comps[: new_m + 1])

    def central_level(self) -> int:
        """Depth of the trivial prefix: largest d with phi_1..phi_d all zero."""
        d = 0
        for k in range(1, self.m + 1):
            if not self.comps[k].is_zero_map():
                break
            d += 1
        return d

    def is_iterate(self) -> int | None:
        """Return n when self == tilde(n), else None.

        The candidate n is read off the first component's image of the
        first declared generator; everything is then compared exactly.
        """
        syms = self.ctx.basis.symbols
        if not syms:
            raise ConfigurationError("is_iterate needs a nonempty basis")
        c = self.comps[1].images[0].coeff(syms[0])
        scaled = c * self.ctx.modulus
        if scaled.denominator != 1:
            return None
        n = int(scaled)
        return n if self == HmElement.tilde(self.ctx, n, self.m) else None

    def act(self, point: Sequence[Angle]) -> tuple[Angle, ...]:
        """Triangular action on an ambient point (coordinates 0..m)."""
        if len(point) != self.m + 1:
            raise ConfigurationError(
                f"point needs {self.m + 1} coordinates, got {len(point)}"
            )
        out = []
        for k in range(self.m + 1):
            val = Angle()
            for j in range(k + 1):
                x = point[j]
                if not x:
                    continue
                f = self.comps[k - j]
                if f.is_zero_map():
                    continue
                val = val + f(x)
            out.append(val)
        return tuple(out)

    def to_dict(self) -> dict:
        return {
            "level": self.ctx.level,
            "basis": list(self.ctx.basis.symbols),
            "m": self.m,
            "comps": [e.to_dict() for e in self.comps],
        }

    @classmethod
    def from_dict(cls, data: Mapping, ctx: TruncationContext) -> "HmElement":
        if "level" in data and data["level"] != ctx.level:
            raise ConfigurationError(
                f"element was written at level {data['level']}, "
                f"context is at {ctx.level}"
            )
        if "basis" in data and list(data["basis"]) != list(ctx.basis.symbols):
            raise ConfigurationError("element basis does not match the context")
        raw = data.get("comps")
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise ConfigurationError("comps must be a list of endomorphisms")
        comps = [TruncEndo.from_dict(c, ctx) for c in raw]
        if "m" in data and data["m"] != len(comps) - 1:
            raise ConfigurationError(
                f"declared m={data['m']} does not match {len(comps) - 1} components"
            )
        return cls.validate(ctx, comps)


def commutator(a: HmElement, b: HmElement) -> HmElement:
    return a.inverse() * b.inverse() * a * b


def predicted_commutator(a: HmElement, b: HmElement, k: int) -> HmElement:
    """Closed form of commutator(a, b) when a is trivial through index k.

    Valid coordinates stop at k+2, so the result lives in dimension
    min(m, k+2): trivial through index k+1, and slot k+2 (when present)
    equals -(psi_1 o phi_{k+1}) + (phi_{k+1} o psi_1).
    """
    a._require_compatible(b)
    if k < 0:
        raise ValueError(f"prefix length must be >= 0, got {k}")
    for j in range(1, min(k, a.m) + 1):
        if not a.comps[j].is_zero_map():
            raise ValueError(
                f"left element is not trivial at index {j} <= {k}"
            )
    new_m = min(a.m, k + 2)
    zero = TruncEndo.power(a.ctx, 0)
    comps = [a.comps[0]] + [zero] * new_m
    if k + 2 <= a.m:
        phi_next = a.comps[k + 1]
        psi1 = b.comps[1]
        comps[k + 2] = psi1.compose(phi_next).conj() * phi_next.compose(psi1)
    return HmElement(a.ctx, tuple(comps))


def ast_mul(
    a: tuple[HmElement, Angle],
    b: tuple[HmElement, Angle],
    x0: Angle,
) -> tuple[HmElement, Angle]:
    """Extension law on pairs (element of dimension m-1, circle coordinate).

    The circle parts add up to a correction cocycle: the convolution
    terms that would land in slot m, evaluated at the base point x0.
    """
    phi, x = a
    psi, y = b
    phi._require_compatible(psi)
    # evaluation is additive, so the slot-m sum is evaluated once
    zero = TruncEndo.power(phi.ctx, 0)
    corr = _inner_sum(phi.comps, psi.comps, phi.m + 1, zero)(x0)
    return phi * psi, x + y + corr
