"""Group structure on component tuples: membership, convolution, action.

Frozen elements below were worked out by hand.  The recurring witness
pair is

    a = (id, 0, E, 0)      E sends the b1 generator to itself,
    b = (id, p, 0, 0)      p doubles nothing: residue 1, b1 gen -> 1/2,

whose commutator is trivial up to the top slot, where it sends the b1
generator to the half turn.
"""

import random
from fractions import Fraction

import pytest

from skewtorus.circle import Angle, BasisDecl, ZERO
from skewtorus.ellis import HmElement, _convolve, ast_mul, commutator, predicted_commutator
from skewtorus.endo import TruncEndo, TruncationContext
from skewtorus.samplers import rand_element
from skewtorus.errors import ConfigurationError, MembershipError

F = Fraction

BASIS = BasisDecl.from_decimals(
    {
        "b1": "0.4142135623730950488016887242096980785697",
        "b2": "0.7320508075688772935274463415058723669428",
    }
)
CTX = TruncationContext(6, BASIS)
GX = CTX.generator("b1")
HALF = Angle(F(1, 2))


def zero_map():
    return TruncEndo.power(CTX, 0)


def witness_pair():
    ident = TruncEndo.power(CTX, 1)
    e = TruncEndo.make(CTX, 0, {"b1": GX})
    p = TruncEndo.make(CTX, 1, {"b1": HALF})
    a = HmElement.validate(CTX, (ident, zero_map(), e, zero_map()))
    b = HmElement.validate(CTX, (ident, p, zero_map(), zero_map()))
    return a, b


def test_integer_points_embed_the_integers():
    for n, k in [(3, 4), (-5, 12), (0, 0), (20, -20)]:
        lhs = HmElement.tilde(CTX, n, 3) * HmElement.tilde(CTX, k, 3)
        assert lhs == HmElement.tilde(CTX, n + k, 3)
    assert HmElement.tilde(CTX, 5, 4).inverse() == HmElement.tilde(CTX, -5, 4)
    assert HmElement.identity(CTX, 2) == HmElement.tilde(CTX, 0, 2)


def test_membership_coherence_frozen():
    # with first residue 5 the congruences pin slot 2 mod 360 and slot 3
    # mod 120; 370 and 250 are admissible lifts, 11 is not
    ident = TruncEndo.power(CTX, 1)
    good = HmElement.validate(
        CTX,
        (ident, TruncEndo.make(CTX, 5, {}), TruncEndo.make(CTX, 370, {}),
         TruncEndo.make(CTX, 250, {})),
    )
    assert good.m == 3

    with pytest.raises(MembershipError) as info:
        HmElement.validate(
            CTX,
            (ident, TruncEndo.make(CTX, 5, {}), TruncEndo.make(CTX, 11, {}),
             TruncEndo.make(CTX, 250, {})),
        )
    assert info.value.index == 2

    with pytest.raises(MembershipError) as info:
        HmElement.validate(CTX, (TruncEndo.power(CTX, 2), ident))
    assert info.value.index == 0

    with pytest.raises(ConfigurationError):
        HmElement.validate(CTX, (ident,))  # m = 0
    with pytest.raises(ConfigurationError):
        HmElement.tilde(CTX, 1, 7)  # above the truncation level


def test_group_laws_on_witnesses():
    a, b = witness_pair()
    e = HmElement.identity(CTX, 3)
    assert a * e == a and e * a == a
    assert a * a.inverse() == e
    assert a.inverse() * a == e
    c = HmElement.tilde(CTX, -4, 3)
    assert (a * b) * c == a * (b * c)
    # products of valid elements stay valid
    HmElement.validate(CTX, (a * b).comps)
    HmElement.validate(CTX, a.inverse().comps)


def test_dimension_and_context_guards():
    with pytest.raises(ConfigurationError):
        HmElement.tilde(CTX, 1, 2) * HmElement.tilde(CTX, 1, 3)
    other = TruncationContext(5, BASIS)
    with pytest.raises(ConfigurationError):
        HmElement.tilde(CTX, 1, 2) * HmElement.tilde(other, 1, 2)


def test_central_level_frozen():
    assert HmElement.identity(CTX, 4).central_level() == 4
    assert HmElement.tilde(CTX, 1, 4).central_level() == 0
    top_only = HmElement.validate(
        CTX,
        (TruncEndo.power(CTX, 1), zero_map(), zero_map(), zero_map(),
         TruncEndo.make(CTX, 0, {"b1": HALF})),
    )
    assert top_only.central_level() == 3
    a, _ = witness_pair()
    assert a.central_level() == 1


def test_commutator_frozen_value():
    a, b = witness_pair()
    c = commutator(a, b)
    assert c.comps[1].is_zero_map()
    assert c.comps[2].is_zero_map()
    assert c.comps[3](GX) == HALF
    assert c.central_level() == 2

    # closed form agrees with the computed commutator
    assert predicted_commutator(a, b) == c
    assert c.truncate(2) == HmElement.identity(CTX, 2)


def test_commutator_prediction_reads_both_depths():
    # b lies in N_1 and a in N_2, so [b, a] lies in N_3 with slot 3 the
    # bracket p o E - E o p, whichever operand is the deeper one
    a, b = witness_pair()
    p = predicted_commutator(b, a)
    assert p.m == min(a.m, 3)
    assert p == commutator(b, a)
    assert p.comps[3](GX) == HALF


def test_iterate_detection():
    assert HmElement.tilde(CTX, 7, 3).is_iterate() == 7
    assert HmElement.tilde(CTX, -12, 2).is_iterate() == -12
    a, _ = witness_pair()
    assert a.is_iterate() is None

    # coherent lift that shadows tilde(3) in slot 1 but not in slot 2
    p3 = TruncEndo.power(CTX, 3)
    lifted = TruncEndo.make(
        CTX, 363,
        {s: Angle(0, {s: F(3, 720)}) for s in BASIS.symbols},
    )
    shadow = HmElement.validate(
        CTX, (TruncEndo.power(CTX, 1), p3, lifted),
    )
    assert shadow.is_iterate() is None

    bare = TruncationContext(6, BasisDecl((), ()))
    with pytest.raises(ConfigurationError):
        HmElement.tilde(bare, 2, 2).is_iterate()


def test_action_frozen_point():
    h = HmElement.tilde(CTX, 3, 2)
    point = (Angle(F(1, 720)), GX, HALF)
    moved = h.act(point)
    assert moved == (
        Angle(F(1, 720)),
        Angle(F(1, 240), {"b1": F(1, 720)}),
        Angle(F(121, 240), {"b1": F(1, 240)}),
    )
    assert HmElement.identity(CTX, 2).act(point) == point

    a, b = witness_pair()
    pt = (Angle(F(1, 6)), GX, HALF, Angle(0, {"b2": F(5, 720)}))
    assert (a * b).act(pt) == a.act(b.act(pt))

    with pytest.raises(ConfigurationError):
        h.act(point[:2])


def test_extension_law_frozen():
    x0 = GX
    a = (HmElement.tilde(CTX, 2, 1), Angle(F(1, 4)))
    b = (HmElement.tilde(CTX, 3, 1), Angle(F(1, 3)))
    prod = ast_mul(a, b, x0)
    assert prod[0] == HmElement.tilde(CTX, 5, 1)
    assert prod[1] == Angle(F(7, 12), {"b1": F(1, 120)})

    ident = (HmElement.identity(CTX, 1), ZERO)
    assert ast_mul(a, ident, x0) == a
    assert ast_mul(ident, a, x0) == a

    phi = HmElement.validate(
        CTX,
        (TruncEndo.power(CTX, 1), TruncEndo.make(CTX, 1, {"b1": HALF})),
    )
    c = (phi, Angle(0, {"b2": 1}))
    lhs = ast_mul(ast_mul(a, b, x0), c, x0)
    rhs = ast_mul(a, ast_mul(b, c, x0), x0)
    assert lhs == rhs


def test_truncate():
    t = HmElement.tilde(CTX, 5, 4)
    assert t.truncate(2) == HmElement.tilde(CTX, 5, 2)
    assert t.truncate(4) == t
    with pytest.raises(ConfigurationError):
        t.truncate(0)
    with pytest.raises(ConfigurationError):
        t.truncate(5)


def test_serialization_round_trip():
    a, b = witness_pair()
    elem = a * b
    data = elem.to_dict()
    assert data["level"] == 6
    assert data["m"] == 3
    assert HmElement.from_dict(data, CTX) == elem

    with pytest.raises(ConfigurationError):
        HmElement.from_dict({**data, "level": 5}, CTX)
    for basis in (["b1"], 5):
        with pytest.raises(ConfigurationError, match="basis does not match"):
            HmElement.from_dict({**data, "basis": basis}, CTX)
    with pytest.raises(ConfigurationError):
        HmElement.from_dict({**data, "m": 2}, CTX)
    with pytest.raises(ConfigurationError):
        HmElement.from_dict({"comps": "nope"}, CTX)


def test_from_dict_requires_integer_level_and_m():
    data = HmElement.tilde(CTX, 1, 1).to_dict()
    for key, value in [("m", "1"), ("m", True), ("m", 1.0), ("level", "6"),
                       ("level", 6.0), ("level", None)]:
        with pytest.raises(ConfigurationError) as info:
            HmElement.from_dict({**data, key: value}, CTX)
        assert str(info.value) == f"{key} must be an integer, got {value!r}"


# ------------------------------------------- the convolution's three modes


def termwise_star(a, b):
    """(a * b)_k = b_k * sum_{j<k} a_{k-j} o b_j, one compose and one * per term."""
    comps = []
    for k in range(a.m + 1):
        s = b.comps[k]
        for j in range(k):
            s = s * a.comps[k - j].compose(b.comps[j])
        comps.append(s)
    return HmElement(a.ctx, tuple(comps))


def solve(a, b):
    """The z with a * z = b, by the convolution's solve mode."""
    return HmElement(a.ctx, _convolve(a.comps, b.comps, True))


DECIMALS = {  # fractional parts of sqrt(2), sqrt(3) and sqrt(5)
    "b1": "0.4142135623730950488016887242096980785697",
    "b2": "0.7320508075688772935274463415058723669428",
    "b3": "0.2360679774997896964091736687312762354406",
}


def seeded_pairs():
    """Members at four shapes with trivial prefixes 0, 1, m-1 and m on the
    left (each prefix also on the right once), plus m = 1."""
    rng = random.Random(20261019)
    shapes = [(6, 4, 2), (6, 6, 2), (6, 4, 3), (8, 4, 2), (6, 1, 2), (7, 1, 1)]
    for level, m, d in shapes:
        basis = BasisDecl.from_decimals(dict(list(DECIMALS.items())[:d]))
        ctx = TruncationContext(level, basis)
        for p in sorted({0, 1, m - 1, m}):
            for q in (0, 0, p):
                yield rand_element(rng, ctx, m, p), rand_element(rng, ctx, m, q)


def test_product_matches_the_termwise_oracle():
    for case, (a, b) in enumerate(seeded_pairs()):
        assert a * b == termwise_star(a, b), case
        assert b * a == termwise_star(b, a), case


def test_solve_mode_inverts_the_left_factor():
    for case, (a, b) in enumerate(seeded_pairs()):
        z = solve(a, b)
        assert a * z == b, case
        assert z == a.inverse() * b, case
        assert solve(a, HmElement.identity(a.ctx, a.m)) == a.inverse(), case


def test_commutator_is_the_four_factor_product():
    for case, (a, b) in enumerate(seeded_pairs()):
        assert commutator(a, b) == a.inverse() * b.inverse() * a * b, case
        assert commutator(b, a) == b.inverse() * a.inverse() * b * a, case


@pytest.mark.parametrize("level", [*range(6, 13), 400])
def test_prediction_matches_the_commutator_at_every_pair_of_depths(level):
    """[N_i, N_j] lies in N_{i+j} with slot i+j the bracket, for every
    1 <= i, j <= m + 1 (N_{m+1} holds only the identity) and 2 <= m <= 8."""
    rng = random.Random(level)
    ctx = TruncationContext(level, BASIS)
    for m in range(2, min(level, 8) + 1):
        for i0 in range(1, m + 2):
            for j0 in range(1, m + 2):
                a = rand_element(rng, ctx, m, trivial_prefix=i0 - 1)
                b = rand_element(rng, ctx, m, trivial_prefix=j0 - 1)
                i, j = a.central_level() + 1, b.central_level() + 1
                p = predicted_commutator(a, b)
                case = (m, i0, j0)
                assert p.m == min(m, i + j), case
                assert commutator(a, b).truncate(p.m) == p, case
