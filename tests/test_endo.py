"""Endomorphisms of the finite-level circle subgroup.

Frozen values were worked out by hand from the definitions: a map is a
residue r acting on torsion p/M -> r p/M together with one image per
basis generator b/M, extended additively.
"""

from fractions import Fraction
from math import factorial

import pytest

from skewtorus.circle import Angle, BasisDecl, ZERO
from skewtorus.endo import (
    LEVEL_SEARCH_BOUND,
    TruncEndo,
    TruncationContext,
    decompose,
    identity_rows,
    minimal_level,
)
from skewtorus.errors import ConfigurationError, TruncationError

F = Fraction

BASIS = BasisDecl.from_decimals(
    {
        "b1": "0.4142135623730950488016887242096980785697",
        "b2": "0.7320508075688772935274463415058723669428",
    }
)
CTX = TruncationContext(6, BASIS)
M = CTX.modulus
GX = CTX.generator("b1")


def test_context_basics():
    assert M == 720
    assert CTX.torsion_generator() == Angle(F(1, 720))
    assert GX == Angle(0, {"b1": F(1, 720)})
    with pytest.raises(ConfigurationError):
        CTX.generator("nope")
    with pytest.raises(ConfigurationError):
        TruncationContext(1, BASIS)


def test_minimal_level_frozen():
    assert minimal_level(Angle(F(1, 7))) == 7
    assert minimal_level(Angle(F(1, 6), {"b1": F(1, 4)})) == 4
    assert minimal_level(ZERO) == 2
    assert minimal_level(Angle(F(1, 5040))) == 7
    # the search stops at LEVEL_SEARCH_BOUND; 997 and 1009 are the primes on
    # either side of it, and 2**994 divides 1000! but not 999!
    assert LEVEL_SEARCH_BOUND == 1000
    assert minimal_level(Angle(F(1, 997))) == 997
    assert minimal_level(Angle(F(1, 2**994))) == 1000
    assert minimal_level(Angle(F(1, 2**995))) is None
    assert minimal_level(Angle(F(1, 7 * factorial(400)))) == 406
    assert minimal_level(Angle(F(1, 1009))) is None
    assert minimal_level(Angle(0, {"b1": F(1, 720 * 1009)})) is None


def test_decompose_frozen():
    a = Angle(F(1, 6), {"b1": F(25, 720)})
    assert decompose(a, CTX) == (120, {"b1": 25})
    assert decompose(ZERO, CTX) == (0, {})

    with pytest.raises(TruncationError) as info:
        decompose(Angle(F(1, 7)), CTX)
    assert info.value.required_level == 7

    with pytest.raises(TruncationError) as info:
        decompose(Angle(F(1, 1009)), CTX)
    assert info.value.required_level is None
    assert str(info.value) == (
        "angle 1/1009 is not representable at level 6; no level up to 1000 is sufficient"
    )

    with pytest.raises(ConfigurationError):
        decompose(Angle(0, {"zz": 1}), CTX)


def test_power_maps():
    five = TruncEndo.power(CTX, 5)
    assert five.residue == 5
    samples = [
        CTX.torsion_generator(),
        GX,
        Angle(F(7, 720), {"b1": F(3, 720), "b2": F(-2, 720)}),
    ]
    for a in samples:
        assert five(a) == 5 * a
    assert TruncEndo.power(CTX, -1).residue == M - 1
    assert TruncEndo.power(CTX, 0).is_zero_map()
    # multiplication by the modulus kills torsion but not the generators:
    # coefficients never reduce mod 1
    full = TruncEndo.power(CTX, M)
    assert not full.is_zero_map()
    assert full(CTX.torsion_generator()) == ZERO
    assert full(GX) == Angle(0, {"b1": 1})


def test_power_scales_the_identity_rows():
    """power(ctx, n) is the map with residue n and images n * b_i/L!, for
    1 to 4 symbols declared out of alphabetical order."""
    for d in range(1, 5):
        decimals = {f"b{5 - i}": f"0.{3 * i + 1}" + "7" * 30 for i in range(1, d + 1)}
        ctx = TruncationContext(6, BasisDecl.from_decimals(decimals))
        assert identity_rows(d) == TruncEndo.power(ctx, 1).rows
        for n in (0, 1, -1, ctx.modulus, -ctx.modulus - 1, 10**30):
            want = TruncEndo(ctx, n, [n * ctx.generator(s) for s in ctx.basis.symbols])
            got = TruncEndo.power(ctx, n)
            assert got == want and hash(got) == hash(want), (d, n)


def test_evaluation_is_additive():
    f = TruncEndo.make(CTX, 17, {"b1": Angle(F(1, 2)), "b2": 3 * GX})
    a = Angle(F(5, 720), {"b1": 2})
    b = Angle(F(699, 720), {"b2": F(-7, 720)})
    assert f(a + b) == f(a) + f(b)
    assert f(ZERO) == ZERO


def test_noncommutativity_witness():
    # alpha doubles torsion and sends the b1 generator to three times itself;
    # beta kills torsion and sends the b1 generator to the half turn
    alpha = TruncEndo.make(CTX, 2, {"b1": 3 * GX})
    beta = TruncEndo.make(CTX, 0, {"b1": Angle(F(1, 2))})

    ab = alpha.compose(beta)
    ba = beta.compose(alpha)
    assert ab.is_zero_map()
    assert ba(GX) == Angle(F(1, 2))
    assert ab != ba

    # and both orders agree with pointwise evaluation
    assert ab(GX) == alpha(beta(GX)) == ZERO
    assert ba(GX) == beta(alpha(GX))


def test_ring_laws_structurally():
    f = TruncEndo.make(CTX, 3, {"b1": Angle(F(1, 4)), "b2": GX})
    g = TruncEndo.make(CTX, 10, {"b1": 2 * GX})
    h = TruncEndo.make(CTX, 0, {"b2": Angle(F(1, 2), {"b1": F(1, 720)})})

    assert f.compose(g).compose(h) == f.compose(g.compose(h))
    assert f.compose(g * h) == f.compose(g) * f.compose(h)
    assert (f * g).compose(h) == f.compose(h) * g.compose(h)
    assert f * g == g * f
    assert (f * f.conj()).is_zero_map()
    assert f.compose(TruncEndo.power(CTX, 1)) == f

    zero = TruncEndo.power(CTX, 0)
    assert f.compose(zero).is_zero_map()
    assert zero.compose(f).is_zero_map()


def test_composition_matches_evaluation():
    f = TruncEndo.make(CTX, 7, {"b1": Angle(F(1, 6)), "b2": Angle(0, {"b2": F(2, 720)})})
    g = TruncEndo.make(CTX, 100, {"b1": GX, "b2": Angle(F(1, 2))})
    fg = f.compose(g)
    for a in [CTX.torsion_generator(), GX, Angle(F(3, 8), {"b2": 5})]:
        assert fg(a) == f(g(a))


def test_validation_rules():
    # image outside the level subgroup
    with pytest.raises(TruncationError):
        TruncEndo.make(CTX, 0, {"b1": Angle(F(1, 7))})
    with pytest.raises(ConfigurationError):
        TruncEndo.make(CTX, 0, {"mystery": ZERO})
    with pytest.raises(ConfigurationError):
        TruncEndo(CTX, 0, (ZERO,))  # wrong arity
    other = TruncationContext(5, BASIS)
    with pytest.raises(ConfigurationError):
        TruncEndo.power(CTX, 1).compose(TruncEndo.power(other, 1))
    with pytest.raises(ConfigurationError):
        TruncEndo.power(CTX, 1) * TruncEndo.power(other, 1)


def test_residue_normalizes_mod_modulus():
    f = TruncEndo(CTX, -1, (ZERO, ZERO))
    assert f.residue == M - 1
    assert f(CTX.torsion_generator()) == Angle(F(719, 720))


def test_dict_round_trip():
    f = TruncEndo.make(CTX, 42, {"b1": Angle(F(1, 2), {"b2": F(3, 720)})})
    d = f.to_dict()
    assert d["residue"] == 42
    assert d["images"]["b1"] == "1/2 + 1/240*b2"
    assert TruncEndo.from_dict(d, CTX) == f

    # omitted symbols default to the zero image
    g = TruncEndo.from_dict({"residue": 3}, CTX)
    assert g.images == (ZERO, ZERO)

    with pytest.raises(ConfigurationError):
        TruncEndo.from_dict({"residue": True}, CTX)
    with pytest.raises(ConfigurationError):
        TruncEndo.from_dict({"residue": "3"}, CTX)
    with pytest.raises(ConfigurationError):
        TruncEndo.from_dict({"residue": 0, "images": ["0"]}, CTX)
    with pytest.raises(ConfigurationError):
        TruncEndo.from_dict({"residue": 0, "images": {"zz": "0"}}, CTX)
    with pytest.raises(ConfigurationError, match="image of b1 must be an angle string, got 7"):
        TruncEndo.from_dict({"residue": 0, "images": {"b1": 7}}, CTX)
    with pytest.raises(ConfigurationError, match="must be an object, got None"):
        TruncEndo.from_dict(None, CTX)
