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
element to a circle coordinate via a correction cocycle, slot m of the
group law one dimension up at the tower's base point.  The members trivial
in slots 1..s-1 form N_s, and [N_i, N_j] lies in N_{i+j} with slot i+j the
bracket phi_i o psi_j - psi_j o phi_i: :func:`predicted_commutator` reads
it off both operands' depths.  Products, solves of phi * z = psi and the
cocycle run :func:`skewtorus.endo.kernel` once per output row.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from math import factorial
from operator import mul, neg

from .circle import Angle
from .combinatorics import binom
from .endo import TruncationContext, TruncEndo, identity_rows, kernel, stack
from .errors import ConfigurationError, MembershipError, shown


def _convolve(
    a: Sequence[TruncEndo], b: Sequence[TruncEndo], solve: bool = False
) -> tuple[TruncEndo, ...]:
    """Components of a * b or, with solve, of the z with a * z = b.  Row i
    of slot k is one kernel call: row i of b_k, ..., b_1, b_0 = id end to
    end, against stack(a), the columns of a_0 = id, a_1, ... end to end, so
    block j of the rows meets block j of the columns.  Slot 1 of a product
    is the pointwise sum a_1 * b_1 (a_0 o b_1 + a_1 o b_0).  Solve runs
    z_k = b_k - sum_{j<k} a_{k-j} o z_j the same way, with the columns of
    a_1, ... negated, as (-f) o g = -(f o g), and each z_k written over b_k
    in the rows."""
    ctx = a[0].ctx
    M, w = ctx.modulus, 1 + len(ctx.basis.symbols)
    cols = stack(a)
    if solve:
        cols = [c[:w] + tuple(map(neg, c[w:])) for c in cols]
    out = [a[0]]
    # the residues and rows of b_k, ..., b_1, b_0 = id, the latest first
    residues = [1]
    vecs = list(map(list, identity_rows(w - 1)))
    for k in range(1, len(a)):
        residues.insert(0, b[k].residue)
        for v, row in zip(vecs, b[k].rows):
            v[:0] = row
        if k == 1 and not solve:
            out.append(a[1] * b[1])
            continue
        residue = sum(map(mul, residues, cols[0][::w])) % M
        rows = tuple([kernel(v, cols, M) for v in vecs])
        out.append(TruncEndo._from_rows(ctx, residue, rows))
        if solve:
            residues[0] = residue
            for v, row in zip(vecs, rows):
                v[:w] = row
    return tuple(out)


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
            e.validate()  # checks nothing on rows; perfbench traces this call
        if comps[0].residue != 1 or comps[0].rows != identity_rows(len(comps[0].rows)):
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
        return HmElement(self.ctx, _convolve(self.comps, other.comps))

    def inverse(self) -> "HmElement":
        """Two-sided inverse: the solve of self * z = id = (id, 0, ..., 0)."""
        zero = TruncEndo.power(self.ctx, 0)
        return HmElement(self.ctx, _convolve(self.comps, [self.comps[0]] + [zero] * self.m, True))

    def truncate(self, new_m: int) -> "HmElement":
        if not 1 <= new_m <= self.m:
            raise ConfigurationError(
                f"truncation dimension must be in 1..{self.m}, got {new_m}"
            )
        return HmElement(self.ctx, self.comps[: new_m + 1])

    def central_level(self) -> int:
        """Depth of the trivial prefix: largest d with phi_1..phi_d all zero,
        so that self lies in N_{d+1}."""
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
        if not self.ctx.basis.symbols:
            raise ConfigurationError("is_iterate needs a nonempty basis")
        n = self.comps[1].rows[0][1]
        return n if self == HmElement.tilde(self.ctx, n, self.m) else None

    def act(self, point: Sequence[Angle]) -> tuple[Angle, ...]:
        """Triangular action on an ambient point (coordinates 0..m)."""
        if len(point) != self.m + 1:
            raise ConfigurationError(
                f"point needs {self.m + 1} coordinates, got {len(point)}"
            )
        ctx, cols = self.ctx, stack(self.comps)
        vec: list[int] = []  # slot k: x_k, ..., x_0 against phi_0, ..., phi_k
        out = []
        for x in point:
            vec[:0] = ctx.row(x)
            out.append(ctx.angle(kernel(vec, cols, ctx.modulus)))
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
        for key in ("level", "m"):
            if type(data.get(key, 0)) is not int:  # 0 stands for an absent key; bool is no int
                raise ConfigurationError(f"{key} must be an integer, got {shown(data[key])}")
        if "level" in data and data["level"] != ctx.level:
            raise ConfigurationError(
                f"element was written at level {data['level']}, "
                f"context is at {ctx.level}"
            )
        basis = data.get("basis", ctx.basis.symbols)
        if not isinstance(basis, Sequence) or list(basis) != list(ctx.basis.symbols):
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
    """a^-1 * b^-1 * a * b, the z with (b * a) * z = a * b: two stars and a solve."""
    ba = b * a
    return HmElement(a.ctx, _convolve(ba.comps, (a * b).comps, True))


def predicted_commutator(a: HmElement, b: HmElement) -> HmElement:
    """Closed form of commutator(a, b) from the depths of both operands.

    With i = a.central_level() + 1 and j = b.central_level() + 1, a lies in
    N_i and b in N_j, and [N_i, N_j] lies in N_{i+j}.  So the result lives
    in dimension min(m, i+j): trivial through index i+j-1, and slot i+j
    (when present) holds the bracket phi_i o psi_j - psi_j o phi_i.
    """
    a._require_compatible(b)
    i, j = a.central_level() + 1, b.central_level() + 1
    zero = TruncEndo.power(a.ctx, 0)
    comps = [a.comps[0]] + [zero] * min(a.m, i + j)
    if i + j <= a.m:
        phi, psi = a.comps[i], b.comps[j]
        comps[i + j] = psi.compose(phi).conj() * phi.compose(psi)
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
    # one dimension up with zero m-th components, slot m of the product is
    # the cocycle sum_{0<j<m} phi_{m-j} o psi_j; evaluation is additive
    zero = (TruncEndo.power(phi.ctx, 0),)
    *comps, top = _convolve(phi.comps + zero, psi.comps + zero)
    return HmElement(phi.ctx, tuple(comps)), x + y + top(x0)
