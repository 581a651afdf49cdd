"""Integer-row maps against an Angle oracle.

The oracle keeps a map as (residue, image angles) and evaluates
f(a) = p*r/M + sum_i c_i * images[i] with Angle additions, where
(p, c) = decompose(a).  Group elements are lists of such maps, multiplied,
inverted and applied by the triangular convolution written out directly.
Every seeded case compares the row-based TruncEndo and HmElement results
with the oracle's angles.  The samplers build maps straight from integer
rows; there the Angle constructor, fed the same residue and images, is the
oracle.
"""

import random
from fractions import Fraction

from math import factorial

import pytest

from skewtorus import samplers
from skewtorus.checks import _swap
from skewtorus.circle import Angle, BasisDecl, ZERO, parse_terms
from skewtorus.ellis import HmElement, ast_mul, commutator
from skewtorus.endo import TruncEndo, TruncationContext, decompose, minimal_level
from skewtorus.errors import ConfigurationError, ParseError, TruncationError
from skewtorus.factor_lab import FactorConfig, default_kernel_specs

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


def rand_oracle_element(rng, ctx, m, prefix=0):
    """Random components; the first prefix after the identity are zero maps."""
    zero = o_power(0, ctx)
    rest = [zero if k < prefix else rand_oracle_endo(rng, ctx) for k in range(m)]
    return [o_power(1, ctx)] + rest


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


def normal_form(el):
    """Every component holds a residue in [0, M) and a tuple of integer
    rows, one per symbol, whose torsion entries lie in [0, M)."""
    M, d = el.ctx.modulus, len(el.ctx.basis.symbols)
    for e in el.comps:
        assert type(e.residue) is int and 0 <= e.residue < M, e
        assert type(e.rows) is tuple and len(e.rows) == d, e
        for row in e.rows:
            assert type(row) is tuple and len(row) == d + 1, e
            assert all(type(c) is int for c in row) and 0 <= row[0] < M, e
    return True


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
        rows = tuple((int(F(img.num, img.den) * ctx.modulus),
                      *(int(F(dict(img.cs).get(s, 0), img.den) * ctx.modulus)
                        for s in ctx.basis.symbols)) for img in f[1])
        from_rows = TruncEndo._from_rows(ctx, f[0] % ctx.modulus, rows)
        assert from_rows == ef and hash(from_rows) == hash(ef), case

        x, y = rand_oracle_element(rng, ctx, m), rand_oracle_element(rng, ctx, m)
        ex, ey = element_of(x, ctx), element_of(y, ctx)
        point = [rand_angle(rng, ctx) if rng.random() < 0.8 else ZERO for _ in range(m + 1)]
        xy = o_star(x, y, ctx)
        star, x_inv, inv = ex * ey, o_inverse(x, ctx), ex.inverse()
        assert normal_form(star) and same_element(star, xy, ctx), case
        assert normal_form(inv) and same_element(inv, x_inv, ctx), case
        assert ex.act(point) == o_act(x, point, ctx), case
        com = o_star(o_star(o_star(x_inv, o_inverse(y, ctx), ctx), x, ctx), y, ctx)
        ex_ey = commutator(ex, ey)
        assert normal_form(ex_ey) and same_element(ex_ey, com, ctx), case
        u, v, x0 = rand_angle(rng, ctx), rand_angle(rng, ctx), rand_angle(rng, ctx)
        el, angle = ast_mul((ex, u), (ey, v), x0)
        assert normal_form(el) and same_element(el, xy, ctx), case
        assert angle == u + v + o_ast_correction(x, y, x0, ctx), case


def test_group_law_matches_the_oracle_at_higher_dimension():
    """m = 4..6 and up to three symbols: trivial prefixes on either side,
    zero point coordinates, and the normal form of every product, inverse,
    commutator and ast_mul."""
    rng = random.Random(20260401)
    for case in range(150):
        level, d = rng.randint(4, 7), rng.randint(1, 3)
        ctx = context(level, d)
        m = rng.randint(4, min(level, 6))
        x = rand_oracle_element(rng, ctx, m, prefix=rng.choice([0, 0, 1, 2, m]))
        y = rand_oracle_element(rng, ctx, m, prefix=rng.choice([0, 0, 1, 3]))
        ex, ey = element_of(x, ctx), element_of(y, ctx)
        point = [rand_angle(rng, ctx) if rng.random() < 0.6 else ZERO for _ in range(m + 1)]
        xy = o_star(x, y, ctx)
        x_inv, y_inv = o_inverse(x, ctx), o_inverse(y, ctx)
        star, inv = ex * ey, ex.inverse()
        assert normal_form(star) and same_element(star, xy, ctx), case
        assert normal_form(inv) and same_element(inv, x_inv, ctx), case
        assert same_element(ey.inverse(), y_inv, ctx), case
        assert ex.act(point) == o_act(x, point, ctx), case
        com = commutator(ex, ey)
        expected = o_star(o_star(o_star(x_inv, y_inv, ctx), x, ctx), y, ctx)
        assert normal_form(com) and same_element(com, expected, ctx), case
        u, v, x0 = rand_angle(rng, ctx), rand_angle(rng, ctx), rand_angle(rng, ctx)
        el, angle = ast_mul((ex, u), (ey, v), x0)
        assert normal_form(el) and same_element(el, xy, ctx), case
        assert angle == u + v + o_ast_correction(x, y, x0, ctx), case


def rebuilt(maps):
    """Each map equals the one the Angle constructor builds from its residue
    and images."""
    return all(TruncEndo(f.ctx, f.residue, f.images) == f for f in maps)


@pytest.mark.parametrize("level", [2, 6, 12, 400])
def test_sampled_rows_match_the_angle_constructor(level):
    """Every sampler, and each way the check suites perturb a sample, builds
    maps in normal form that the Angle constructor rebuilds exactly; every
    sampled element passes the membership check."""
    rng = random.Random(f"sampled rows at {level}")
    ctx = context(level, 3)
    M, gen = ctx.modulus, ctx.generator("b2")
    fac = FactorConfig(ctx, "b1", min(level, 3))
    m = min(level, 4)
    for case in range(100 if level < 400 else 20):
        assert rebuilt([samplers.rand_endo(rng, ctx)]), case
        elements = [samplers.rand_element(rng, ctx, m, prefix) for prefix in range(m + 1)]
        elements += [samplers.rand_g1(rng, fac, in_g) for in_g in (False, True)]
        kernel = [(spec, samplers.rand_kernel_member(rng, ctx, spec))
                  for spec in default_kernel_specs(fac)]
        assert all(g.m == spec.m for spec, g in kernel), case
        for el in elements + [g for _, g in kernel]:
            assert normal_form(el) and rebuilt(el.comps), case
            HmElement.validate(ctx, el.comps)
        swapped = []
        for el in elements[:m + 1]:
            k = rng.randint(1, m)
            swapped.append(_swap(el, k, el.comps[k].residue + M // factorial(k) - 1))
            swapped.append(_swap(el, k, images={0: el.comps[k].images[0] + gen}))
        for spec, g in kernel:
            top = g.comps[spec.m]
            moved = {i: img + gen for i, img in enumerate(top.images)}
            swapped.append(_swap(g, spec.m, top.residue + 1, moved))
        for el in swapped:
            assert normal_form(el) and rebuilt(el.comps), case


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


# ------------------------------------------------------------- row reader


def rand_image_text(rng, M):
    """A seeded angle text over b1, b2 and the undeclared b3: mixed
    denominators (some dividing M, some not), repeated symbols, signs and
    blanks, and pairs of terms that fit at level L only once summed."""
    blank = lambda: rng.choice(["", "", " ", "\t", "  "])
    terms = []
    for _ in range(rng.randint(1, 5)):
        sym = rng.choice([None, None, "b1", "b1", "b2", "b3"])
        d = rng.choice([1, 2, 3, 5, 12, M, M, 2 * M, 7 * M, 11])
        n = rng.choice([1, rng.randint(0, 3 * d + 2)])
        star = f"{blank()}*{blank()}"
        if sym is None:
            text = f"{n}" if d == 1 else f"{n}{blank()}/{blank()}{d}"
        elif n == 1 and d == 1 and rng.random() < 0.5:
            text = sym
        else:
            text = f"{n}/{d}{star}{sym}"
        terms.append(text)
        if d > M and rng.random() < 0.5:
            terms.append(text)  # twice n/(kM) may reduce into A_L
        if sym and rng.random() < 0.1:
            terms += [text, text]  # a symbol repeated
    signs = [rng.choice(["+", "-"]) for _ in terms]
    out = ("-" if signs[0] == "-" else rng.choice(["", "+"])) + blank() + terms[0]
    for sign, text in zip(signs[1:], terms[1:]):
        out += f"{blank()}{sign}{blank()}{text}"
    if rng.random() < 0.15:  # a cancelling pair, of b3 too
        sym = rng.choice(["b1", "b3"])
        out += f" + 1/{M * 3}*{sym} - 1/{M * 3}*{sym}"
    if rng.random() < 0.08:  # a syntax error somewhere
        k = rng.randrange(len(out) + 1)
        out = out[:k] + rng.choice(["?", "+", "*", "/0", "/", ""]) + out[k:]
    return out + blank()


def angle_route(data, ctx):
    """from_dict by way of Angle: read every image in key order, checking
    its symbol and type and parsing it, then build the map with make."""
    images = {}
    for sym, text in data["images"].items():
        ctx.basis.index_of(sym)
        if not isinstance(text, (str, Angle)):
            raise ConfigurationError(f"image of {sym} must be an angle string, got {text!r}")
        images[sym] = Angle.parse(text) if isinstance(text, str) else text
    return TruncEndo.make(ctx, data["residue"], images)


def outcome(fn, *args):
    """The result, or the error as (class, message, offset, required level)."""
    try:
        return fn(*args)
    except (ConfigurationError, ParseError, TruncationError) as exc:
        return (type(exc), str(exc), getattr(exc, "offset", None),
                getattr(exc, "required_level", None))


@pytest.mark.parametrize("level", [2, 6, 12, 400])
def test_row_reader_matches_the_angle_route(level):
    """terms_row and from_dict read text to the rows, or raise the errors,
    that the Angle route gives; the maps that build equal the Angle
    constructor's."""
    rng = random.Random(f"row reader at {level}")
    ctx = context(level, 2)
    M = ctx.modulus
    built, errors = 0, set()
    for case in range(400 if level < 400 else 60):
        texts = [rand_image_text(rng, M) for _ in range(3)]
        for text in texts:
            assert outcome(lambda t: ctx.terms_row(parse_terms(t)), text) == outcome(
                lambda t: ctx.row(Angle.parse(t)), text), (case, text)
        keys = rng.sample(["b1", "b2", "b3"] if rng.random() < 0.1 else ["b1", "b2"],
                          rng.randint(0, 2))
        images = dict(zip(keys, texts))
        if images and rng.random() < 0.1:  # an Angle image, or one of the wrong type
            key = rng.choice(keys)
            angle = outcome(Angle.parse, images[key])
            images[key] = rng.choice([angle if isinstance(angle, Angle) else ZERO, 3, None])
        data = {"residue": rng.randint(-3 * M, 3 * M), "images": images}
        got, want = outcome(TruncEndo.from_dict, data, ctx), outcome(angle_route, data, ctx)
        assert got == want, (case, data)
        if isinstance(got, TruncEndo):  # want came from the Angle constructor
            assert hash(got) == hash(want), case
            assert normal_form(HmElement(ctx, (TruncEndo.power(ctx, 1), got))), case
            built += 1
        else:
            errors.add(got[0])
    # maps build, and each kind of error is met
    assert built > 20 and errors == {ConfigurationError, ParseError, TruncationError}


def test_row_reader_keeps_the_error_precedence():
    """Every image is parsed before any is read into a row, so a parse
    error in a later image comes before a truncation error in an earlier
    one, as on the Angle route; sums that reduce into A_L still build."""
    ctx = context(6, 2)
    data = {"residue": 1, "images": {"b1": "1/7", "b2": "1/2 +"}}
    with pytest.raises(ParseError, match=r"^expected a term \(at offset 5\)$") as info:
        TruncEndo.from_dict(data, ctx)
    assert info.value.offset == 5
    assert outcome(TruncEndo.from_dict, data, ctx) == outcome(angle_route, data, ctx)
    for images, error in [
        ({"b2": "1/2", "b1": "1/7"}, TruncationError),  # basis order decides
        ({"b1": "1/7", "b2": "1*b3"}, TruncationError),
        ({"b1": "1*b3", "b2": "1/7"}, ConfigurationError),
        ({"b1": "1/7", "b3": "0"}, ConfigurationError),
        ({"b1": "1/7", "b2": 5}, ConfigurationError),
    ]:
        data = {"residue": 0, "images": images}
        got = outcome(TruncEndo.from_dict, data, ctx)
        assert got == outcome(angle_route, data, ctx) and got[0] is error, images
    reduced = TruncEndo.from_dict(
        {"residue": 7, "images": {"b1": "1/1440 + 1/1440", "b2": "b3 - b3 + 1/720*b1"}}, ctx)
    assert reduced == TruncEndo(ctx, 7, (Angle.parse("1/720"), ctx.generator("b1")))
    assert ctx.terms_row(parse_terms("1/1440 + 1/1440")) == (1, 0, 0)
