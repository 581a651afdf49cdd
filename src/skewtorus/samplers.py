"""Seeded random angles, maps and group elements.

Every sampler draws only from the random.Random it is given, in a fixed
order, so the check suites and `factor-lab kernel` reproduce for a seed.
Maps are built straight from integer rows, with no angle in between;
:func:`rand_angle` turns the same row draw into an angle.
"""

from __future__ import annotations

import random
from math import factorial

from .circle import Angle
from .combinatorics import binom
from .ellis import HmElement
from .endo import Row, TruncEndo, TruncationContext
from .factor_lab import FactorConfig, KernelSpec


def _rand_row(rng: random.Random, ctx: TruncationContext) -> Row:
    """Random row: each coefficient drawn first, then the torsion entry."""
    M = ctx.modulus
    cs = [
        rng.randrange(-2 * M, 2 * M + 1) if rng.random() < 0.7 else 0
        for _ in ctx.basis.symbols
    ]
    return (rng.randrange(M), *cs)


def rand_angle(rng: random.Random, ctx: TruncationContext) -> Angle:
    """Random angle with all denominators dividing the modulus."""
    return ctx.angle(_rand_row(rng, ctx))


def rand_free_angle(rng: random.Random, ctx: TruncationContext) -> Angle:
    """Random angle with unconstrained small denominators."""
    den = rng.choice([1, 2, 3, 5, 7, 12, 30])
    terms = [
        (s, rng.randint(-20, 20), rng.choice([1, 2, 3, 7]))
        for s in ctx.basis.symbols
        if rng.random() < 0.6
    ]
    return Angle._from_terms(terms + [(None, rng.randrange(den), den)])


def rand_endo(
    rng: random.Random, ctx: TruncationContext, residue: int | None = None
) -> TruncEndo:
    """Random map; the residue is drawn first, unless one is given (reduced mod M)."""
    M = ctx.modulus
    residue = rng.randrange(M) if residue is None else residue % M
    rows = tuple(_rand_row(rng, ctx) for _ in ctx.basis.symbols)
    return TruncEndo._from_rows(ctx, residue, rows)


def rand_element(
    rng: random.Random,
    ctx: TruncationContext,
    m: int,
    trivial_prefix: int = 0,
) -> HmElement:
    """Random member: residues drawn from the coherence solution sets."""
    M = ctx.modulus
    comps = [TruncEndo.power(ctx, 1)]
    r1 = 0 if trivial_prefix >= 1 else rng.randrange(M)
    for k in range(1, m + 1):
        if k <= trivial_prefix:
            comps.append(TruncEndo.power(ctx, 0))
        else:
            kf = factorial(k)
            r = r1 if k == 1 else binom(r1, k) + rng.randrange(kf) * (M // kf)
            comps.append(rand_endo(rng, ctx, r))
    return HmElement(ctx, tuple(comps))


def rand_g1(rng: random.Random, fac: FactorConfig, in_g: bool = False) -> HmElement:
    """Member of the outer subgroup, or with in_g of the inner one, which
    also kills x at degree 2; see the coset module docstring.

    Every component is drawn with residue 0, as G1 requires.  The degree-2
    image of x is drawn even when in_g replaces it, so both draw alike.
    """
    ctx = fac.ctx
    zero = (0,) * (len(ctx.basis.symbols) + 1)
    half_turn = (ctx.modulus // 2, *zero[1:])
    comps = [TruncEndo.power(ctx, 1)]
    for k in range(1, fac.m + 1):
        rows = []
        for s in ctx.basis.symbols:
            if k == 1 and s == fac.x_symbol:
                rows.append(half_turn if rng.random() < 0.5 else zero)
            else:
                row = _rand_row(rng, ctx)
                rows.append(zero if in_g and k == 2 and s == fac.x_symbol else row)
        comps.append(TruncEndo._from_rows(ctx, 0, tuple(rows)))
    return HmElement(ctx, tuple(comps))


def rand_kernel_member(
    rng: random.Random, ctx: TruncationContext, spec: KernelSpec
) -> HmElement:
    """Kernel member of dimension spec.m: trivial below it, top kills the generators."""
    M = ctx.modulus
    comps = [TruncEndo.power(ctx, 1)] + [TruncEndo.power(ctx, 0)] * (spec.m - 1)
    kf = factorial(spec.m)
    gamma = [ctx.row(g) for g in spec.gamma]
    torsion = [p for p, *cs in gamma if not any(cs)]
    residues = [
        r
        for r in (j * (M // kf) % M for j in range(kf))
        if all(r * t % M == 0 for t in torsion)
    ]
    zero = (0,) * (len(ctx.basis.symbols) + 1)
    rows = tuple(
        zero if any(g[j] for g in gamma) else _rand_row(rng, ctx)
        for j in range(1, len(zero))
    )
    comps.append(TruncEndo._from_rows(ctx, rng.choice(residues), rows))
    return HmElement(ctx, tuple(comps))
