"""Integer-row maps against an Angle oracle.

The oracle keeps a map as (residue, image angles) and evaluates
f(a) = p*r/M + sum_i c_i * images[i] with Angle additions, where
(p, c) = decompose(a).  Group elements are lists of such maps, multiplied,
inverted and applied by the triangular convolution written out directly.
Every seeded case compares the row-based TruncEndo and HmElement results
with the oracle's angles.
"""

import random
from fractions import Fraction

import pytest

from skewtorus.circle import Angle, BasisDecl, ZERO
from skewtorus.ellis import HmElement, ast_mul, commutator
from skewtorus.endo import TruncEndo, TruncationContext, decompose, minimal_level
from skewtorus.errors import TruncationError

F = Fraction
SYMBOLS = ("b1", "b2", "b3")
DECIMALS = (
    "0.4142135623730950488016887242096980785697",
    "0.7320508075688772935274463415058723669428",
    "0.2360679774997896964091736687312762354406",
)
CASES = 1000


def context(level, d):
    return TruncationContext(level, BasisDecl.from_decimals(dict(zip(SYMBOLS[:d], DECIMALS))))


# ------------------------------------------------------------------ oracle


def ev(f, a, ctx):
    r, images = f
    p, coords = decompose(a, ctx)
    out = Angle(F(p * r, ctx.modulus))
    for sym, img in zip(ctx.basis.symbols, images):
        if sym in coords:
            out = out + coords[sym] * img
    return out


def o_compose(f, g, ctx):
    return f[0] * g[0] % ctx.modulus, tuple(ev(f, img, ctx) for img in g[1])


def o_mul(f, g, ctx):
    return (f[0] + g[0]) % ctx.modulus, tuple(x + y for x, y in zip(f[1], g[1]))


def o_conj(f, ctx):
    return -f[0] % ctx.modulus, tuple(-x for x in f[1])


def o_power(n, ctx):
    return n % ctx.modulus, tuple(n * ctx.generator(s) for s in ctx.basis.symbols)


def o_star(a, b, ctx):
    out = []
    for k in range(len(a)):
        acc = o_power(0, ctx)
        for j in range(k + 1):
            acc = o_mul(acc, o_compose(a[k - j], b[j], ctx), ctx)
        out.append(acc)
    return out


def o_inverse(a, ctx):
    out = [a[0]]
    for k in range(1, len(a)):
        acc = o_power(0, ctx)
        for j in range(k):
            acc = o_mul(acc, o_compose(a[k - j], out[j], ctx), ctx)
        out.append(o_conj(acc, ctx))
    return out


def o_act(a, x, ctx):
    return tuple(
        sum((ev(a[k - j], x[j], ctx) for j in range(k + 1)), ZERO) for k in range(len(a))
    )


def o_ast_correction(a, b, x0, ctx):
    """The circle part of ast_mul beyond x + y: slot m+1 of the star at x0."""
    top = len(a)
    return sum((ev(a[top - j], ev(b[j], x0, ctx), ctx) for j in range(1, top)), ZERO)


# --------------------------------------------------------------- sampling


def rand_angle(rng, ctx):
    M = ctx.modulus
    coeffs = {s: F(rng.randint(-3 * M, 3 * M), M) for s in ctx.basis.symbols if rng.random() < 0.7}
    return Angle(F(rng.randrange(M), M), coeffs)


def rand_oracle_endo(rng, ctx):
    if rng.random() < 0.15:
        return o_power(rng.choice([0, 0, 1, -1, rng.randint(-50, 50)]), ctx)
    r = rng.randint(-2 * ctx.modulus, 2 * ctx.modulus)
    return r, tuple(rand_angle(rng, ctx) for _ in ctx.basis.symbols)


def rand_oracle_element(rng, ctx, m):
    return [o_power(1, ctx)] + [rand_oracle_endo(rng, ctx) for _ in range(m)]


def endo_of(f, ctx):
    return TruncEndo(ctx, f[0], f[1])


def element_of(a, ctx):
    return HmElement(ctx, tuple(endo_of(f, ctx) for f in a))


def same(endo, f, ctx):
    """The row-based map reads back as the oracle map, and equals (with an
    equal hash) the map built from the oracle's angles."""
    built = endo_of(f, ctx)
    return endo.images == f[1] and endo == built and hash(endo) == hash(built)


def same_element(el, a, ctx):
    return len(el.comps) == len(a) and all(same(e, f, ctx) for e, f in zip(el.comps, a))


# ------------------------------------------------------------------ tests


def test_rows_match_the_angle_oracle():
    rng = random.Random(20141204)
    for case in range(CASES):
        level, d = rng.randint(2, 8), rng.randint(1, 3)
        ctx = context(level, d)
        m = rng.randint(1, min(level, 3))
        f, g = rand_oracle_endo(rng, ctx), rand_oracle_endo(rng, ctx)
        ef, eg = endo_of(f, ctx), endo_of(g, ctx)
        a = rand_angle(rng, ctx)
        assert same(ef, f, ctx), case
        assert same(ef.compose(eg), o_compose(f, g, ctx), ctx), case
        assert same(ef * eg, o_mul(f, g, ctx), ctx), case
        assert same(ef.conj(), o_conj(f, ctx), ctx), case
        assert ef(a) == ev(f, a, ctx), case
        assert ef.is_zero_map() == (f[0] % ctx.modulus == 0 and not any(f[1])), case

        # the same map built from angles and from rows
        rows = tuple((int(img.rat * ctx.modulus), *(int(img.coeff(s) * ctx.modulus)
                      for s in ctx.basis.symbols)) for img in f[1])
        from_rows = TruncEndo._from_rows(ctx, f[0] % ctx.modulus, rows)
        assert from_rows == ef and hash(from_rows) == hash(ef), case

        x, y = rand_oracle_element(rng, ctx, m), rand_oracle_element(rng, ctx, m)
        ex, ey = element_of(x, ctx), element_of(y, ctx)
        point = [rand_angle(rng, ctx) if rng.random() < 0.8 else ZERO for _ in range(m + 1)]
        xy = o_star(x, y, ctx)
        assert same_element(ex * ey, xy, ctx), case
        x_inv = o_inverse(x, ctx)
        assert same_element(ex.inverse(), x_inv, ctx), case
        assert ex.act(point) == o_act(x, point, ctx), case
        com = o_star(o_star(o_star(x_inv, o_inverse(y, ctx), ctx), x, ctx), y, ctx)
        assert same_element(commutator(ex, ey), com, ctx), case
        u, v, x0 = rand_angle(rng, ctx), rand_angle(rng, ctx), rand_angle(rng, ctx)
        el, angle = ast_mul((ex, u), (ey, v), x0)
        assert same_element(el, xy, ctx), case
        assert angle == u + v + o_ast_correction(x, y, x0, ctx), case


@pytest.mark.parametrize("bad, level", [
    (Angle(F(1, 7)), 7),
    (Angle(F(1, 32)), 8),
    (Angle(F(1, 3), {"b2": F(1, 11)}), 11),
])
def test_unrepresentable_angles_raise_with_the_required_level(bad, level):
    ctx = context(6, 2)
    assert minimal_level(bad) == level
    attempts = [
        lambda: TruncEndo.make(ctx, 0, {"b1": bad}),
        lambda: TruncEndo(ctx, 0, (ZERO, bad)).validate(),
        lambda: TruncEndo.from_dict({"residue": 1, "images": {"b2": str(bad)}}, ctx),
        lambda: TruncEndo.power(ctx, 3)(bad),
        lambda: HmElement.tilde(ctx, 2, 2).act((ZERO, bad, ZERO)),
    ]
    for attempt in attempts:
        with pytest.raises(TruncationError) as info:
            attempt()
        assert info.value.required_level == level
