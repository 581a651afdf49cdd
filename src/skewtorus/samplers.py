"""Seeded random angles, maps and group elements.

Every sampler draws only from the random.Random it is given, in a fixed
order, so the check suites and `factor-lab kernel` reproduce for a seed.
"""

from __future__ import annotations

import random
from math import factorial

from .circle import Angle, ZERO
from .combinatorics import binom
from .ellis import HmElement
from .endo import TruncEndo, TruncationContext
from .factor_lab import HALF_TURN, FactorConfig, KernelSpec


def rand_angle(rng: random.Random, ctx: TruncationContext, span: int = 2) -> Angle:
    """Random angle with all denominators dividing the modulus."""
    M = ctx.modulus
    cs = [
        rng.randrange(-span * M, span * M + 1) if rng.random() < 0.7 else 0
        for _ in ctx.basis.symbols
    ]
    return ctx.angle((rng.randrange(M), *cs))


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
    """Random map; the residue is drawn first unless one is given."""
    if residue is None:
        residue = rng.randrange(ctx.modulus)
    imgs = tuple(rand_angle(rng, ctx) for _ in ctx.basis.symbols)
    return TruncEndo(ctx, residue, imgs)


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

    Degree >= 2 components are drawn torsion-trivial (residue 0): at a
    finite level the coherence congruence alone would admit "ghost"
    residues that no infinite-level member shadows.  The degree-2 image of
    x is drawn even when in_g replaces it, so both draw alike.
    """
    ctx = fac.ctx
    comps = [TruncEndo.power(ctx, 1)]
    for k in range(1, fac.m + 1):
        imgs = []
        for s in ctx.basis.symbols:
            if k == 1 and s == fac.x_symbol:
                imgs.append(HALF_TURN if rng.random() < 0.5 else ZERO)
            else:
                img = rand_angle(rng, ctx)
                imgs.append(ZERO if in_g and k == 2 and s == fac.x_symbol else img)
        comps.append(TruncEndo(ctx, 0, tuple(imgs)))
    return HmElement(ctx, tuple(comps))


def rand_kernel_member(
    rng: random.Random, ctx: TruncationContext, spec: KernelSpec, m: int
) -> HmElement:
    """Sample from a kernel: trivial below spec.m, top kills the generators."""
    M = ctx.modulus
    comps = [TruncEndo.power(ctx, 1)] + [TruncEndo.power(ctx, 0)] * (spec.m - 1)
    kf = factorial(spec.m)
    torsion = [g.num * M // g.den for g in spec.gamma if g.is_torsion]
    residues = [
        r
        for r in (j * (M // kf) % M for j in range(kf))
        if all(r * t % M == 0 for t in torsion)
    ]
    killed = {s for g in spec.gamma for s, _ in g.cs}
    imgs = tuple(
        ZERO if s in killed else rand_angle(rng, ctx)
        for s in ctx.basis.symbols
    )
    comps.append(TruncEndo(ctx, rng.choice(residues), imgs))
    for k in range(spec.m + 1, m + 1):
        kf = factorial(k)
        comps.append(rand_endo(rng, ctx, rng.randrange(kf) * (M // kf)))
    return HmElement(ctx, tuple(comps))
