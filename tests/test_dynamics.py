"""Tower dynamics: stepping oracle vs closed form, characters, q pairing.

The stepping loop is the oracle throughout: it applies the one-step map
repeatedly and never touches a binomial.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from skewtorus.circle import MAX_BINOM_K, Angle, BasisDecl, ZERO
from skewtorus.dynamics import (
    MAX_SYSTEM_M,
    BasicSystem,
    CharacterIndex,
    PolyAngle,
    ambient_iterate,
    diagonal_representation,
    index_shift,
    orbit_polynomial,
    q_eval,
)
from skewtorus.ellis import HmElement
from skewtorus.endo import TruncationContext
from skewtorus.errors import ConfigurationError, ParseError
from skewtorus.combinatorics import binom

F = Fraction
B1 = Angle(0, {"b1": 1})


def stepping_oracle(sys: BasicSystem, x, n: int):
    out = tuple(x)
    for _ in range(abs(n)):
        out = sys.step(out) if n >= 0 else sys.inverse_step(out)
    return out


def test_step_frozen_from_origin():
    sys = BasicSystem(2, B1)
    x = (ZERO, ZERO)
    assert sys.step(x) == (B1, ZERO)
    assert sys.iterate(x, 3) == (3 * B1, 3 * B1)
    assert sys.iterate(x, -1) == (-1 * B1, B1)
    assert sys.inverse_step(sys.step(x)) == x


def test_iterate_matches_stepping_oracle():
    sys = BasicSystem(3, Angle(F(1, 5), {"b2": F(2, 3)}))
    x = (Angle(F(1, 7)), ZERO, Angle(F(1, 2), {"b1": 4}))
    for n in range(-6, 7):
        assert sys.iterate(x, n) == stepping_oracle(sys, x, n)
        assert sys.steps(x, n) == stepping_oracle(sys, x, n)
    # flow property
    assert sys.iterate(sys.iterate(x, 9), -4) == sys.iterate(x, 5)

    # the integer stepper on seeded points: torsion and irrational x0, two
    # and three symbols, denominators that differ from coordinate to coordinate
    rng = random.Random(2014)

    def angle(symbols, lead=None):
        d = rng.choice([1, 2, 5, 6, 7, 12, 35])
        cs = {s: F(rng.randint(-9, 9), rng.choice([1, 3, 4, 10])) for s in symbols}
        if lead is not None:
            cs[lead] = F(rng.randint(1, 9), rng.choice([2, 3, 11]))
        return Angle(F(rng.randrange(d), d), cs)

    for m in [*range(1, 9), 64]:
        for symbols in (("b1", "b2"), ("b1", "b2", "b3")):
            for x0 in (angle(()), angle((), lead=symbols[-1])):
                sys = BasicSystem(m, x0)
                x = tuple(angle(rng.sample(symbols, rng.randint(0, len(symbols))))
                          for _ in range(m))
                for n in (0, rng.randint(1, 300), -rng.randint(1, 300)):
                    got = sys.steps(x, n)
                    assert got == stepping_oracle(sys, x, n), (m, symbols, x0, n)
                    assert got == sys.iterate(x, n)


def test_iterate_frozen_coordinates():
    sys = BasicSystem(3, Angle(F(1, 5)))
    x = (Angle(F(1, 7)), ZERO, Angle(F(1, 2)))
    got = sys.iterate(x, 4)
    assert got == (
        Angle(F(33, 35)),
        Angle(F(27, 35)),
        Angle(F(11, 70)),
    )


def test_ambient_iterate_keeps_the_constant():
    g = (Angle(F(1, 5)), Angle(F(1, 7)))
    assert ambient_iterate(g, 0) == g
    assert ambient_iterate(g, 10)[0] == g[0]


def test_system_guards():
    sys = BasicSystem(2, B1)
    with pytest.raises(ValueError):
        sys.step((ZERO,))
    with pytest.raises(ValueError):
        sys.iterate((ZERO, ZERO, ZERO), 1)
    with pytest.raises(ConfigurationError):
        BasicSystem(0, B1)
    with pytest.raises(ConfigurationError):
        BasicSystem(MAX_SYSTEM_M + 1, B1)
    assert BasicSystem(MAX_SYSTEM_M, B1).m == MAX_SYSTEM_M
    assert sys.minimal_base
    assert not BasicSystem(2, Angle(F(1, 4))).minimal_base


def test_character_index_normalization():
    v = CharacterIndex.make({1: 2, 2: 0})
    assert v.entries == ((1, 2),)
    assert CharacterIndex.make([(2, 1), (2, -1)]).entries == ()
    assert CharacterIndex.basis(3).top == 3
    with pytest.raises(ValueError):
        CharacterIndex.make({0: 1})

    point = (Angle(F(1, 3)), Angle(F(1, 7)))
    w = CharacterIndex.make({1: 1, 2: 2})
    assert w.eval(point) == Angle(F(1, 3)) + 2 * Angle(F(1, 7))
    with pytest.raises(ValueError):
        CharacterIndex.basis(3).eval(point)


def test_poly_evaluate_frozen():
    p = PolyAngle([ZERO, ZERO, Angle(F(1, 4))])
    assert p.degree == 2
    assert p.evaluate(0) == ZERO
    assert p.evaluate(1) == ZERO
    assert p.evaluate(2) == Angle(F(1, 4))
    assert p.evaluate(3) == Angle(F(3, 4))
    assert p.evaluate(-2) == Angle(F(3, 4))


def test_poly_normalization_difference_shift():
    assert PolyAngle([Angle(F(1, 3)), ZERO]).degree == 0
    assert PolyAngle([]).coeffs == (ZERO,)

    p = PolyAngle([ZERO, ZERO, Angle(F(1, 4))])
    d = p.difference()
    assert d == PolyAngle([ZERO, Angle(F(1, 4))])
    for n in range(-5, 6):
        assert d.evaluate(n) == p.evaluate(n + 1) - p.evaluate(n)

    s = p.shift(2)
    assert s == PolyAngle([Angle(F(1, 4)), Angle(F(1, 2)), Angle(F(1, 4))])
    for n in range(-5, 6):
        assert s.evaluate(n) == p.evaluate(n + 2)
    assert p.shift(0) == p
    assert p.shift(3).shift(-3) == p


def test_poly_angle_copies_and_pickles():
    for p in (PolyAngle([ZERO]), PolyAngle.parse("1/3 + (1/2*b1 - 2/5)*C(n,2)")):
        dups = [copy.copy(p), copy.deepcopy(p)]
        dups += [pickle.loads(pickle.dumps(p, v)) for v in range(pickle.HIGHEST_PROTOCOL + 1)]
        for dup in dups:
            assert dup == p and hash(dup) == hash(p) and str(dup) == str(p)
            with pytest.raises(AttributeError):
                dup.coeffs = ()


def test_poly_parse_and_str():
    p = PolyAngle([ZERO, ZERO, Angle(F(1, 4))])
    assert str(p) == "(1/4)*C(n,2)"
    assert PolyAngle.parse(str(p)) == p
    assert PolyAngle.parse("1/3*C(n,2)") == PolyAngle([ZERO, ZERO, Angle(F(1, 3))])
    assert PolyAngle.parse("b1*C(n,1) - 1/6") == PolyAngle(
        [Angle(F(-1, 6)), B1]
    )
    assert PolyAngle.parse("(1/2 + 3*b2)*C(n,3)").coefficient(3) == Angle(
        F(1, 2), {"b2": 3}
    )
    assert str(PolyAngle([Angle(F(1, 2))])) == "1/2"
    assert str(PolyAngle([ZERO])) == "0"

    # a bare C(n,k) has coefficient 1, which is 0 on the circle: rejected
    with pytest.raises(ParseError) as info:
        PolyAngle.parse("b1*C(n,1) - C(n,3)")
    assert info.value.offset == len("b1*C(n,1) - ")
    assert PolyAngle.parse(f"b1*C(n,{MAX_BINOM_K})").degree == MAX_BINOM_K

    for text in ["", "(1/2", "1*C(x,1)", "(1/2)*Q", "1/2 $",
                 f"1/2*C(n,{MAX_BINOM_K + 1})", "1/2*C(n, 1000000000)"]:
        with pytest.raises(ParseError):
            PolyAngle.parse(text)
    with pytest.raises(ParseError) as info:
        PolyAngle.parse(f"b1 + 1/2*C(n,{MAX_BINOM_K + 1})")
    assert info.value.offset == len("b1 + 1/2*C(n,")


def test_orbit_polynomial_frozen():
    sys = BasicSystem(2, B1)
    x = (Angle(F(1, 3)), Angle(F(1, 7)))
    p = orbit_polynomial(sys, CharacterIndex.basis(2), x)
    assert p == PolyAngle([Angle(F(1, 7)), Angle(F(1, 3)), B1])
    assert p.degree == 2
    assert p.coefficient(2) == sys.x0

    mixed = orbit_polynomial(sys, CharacterIndex.make({1: 1, 2: 1}), x)
    assert mixed == PolyAngle(
        [Angle(F(10, 21)), Angle(F(1, 3), {"b1": 1}), B1]
    )


def test_orbit_polynomial_tracks_the_orbit():
    sys = BasicSystem(3, Angle(F(2, 9), {"b2": F(1, 5)}))
    x = (Angle(F(1, 2)), Angle(0, {"b1": F(1, 3)}), Angle(F(5, 7)))
    for v in [CharacterIndex.basis(1), CharacterIndex.basis(3),
              CharacterIndex.make({1: -2, 2: 1, 3: 4})]:
        p = orbit_polynomial(sys, v, x)
        for n in range(-10, 11):
            assert p.evaluate(n) == v.eval(sys.iterate(x, n))

    with pytest.raises(ValueError):
        orbit_polynomial(sys, CharacterIndex.basis(4), x)
    with pytest.raises(ValueError):
        orbit_polynomial(sys, CharacterIndex.basis(1), x[:2])


def test_degree_law_for_canonical_characters():
    sys = BasicSystem(4, B1)
    x = tuple(Angle(F(1, k + 2)) for k in range(4))
    for k in range(1, 5):
        p = orbit_polynomial(sys, CharacterIndex.basis(k), x)
        assert p.degree == k
        assert p.coefficient(k) == sys.x0


def test_diagonal_chain():
    sys = BasicSystem(3, B1)
    chain = diagonal_representation(sys, CharacterIndex.basis(3))
    assert chain == [CharacterIndex.basis(j) for j in (1, 2, 3)]
    assert diagonal_representation(sys, CharacterIndex.make({})) == []
    with pytest.raises(ValueError):
        diagonal_representation(sys, CharacterIndex.make({1: 2}))
    with pytest.raises(ValueError):
        diagonal_representation(sys, CharacterIndex.make({1: 1, 2: 1}))


BASIS = BasisDecl.from_decimals(
    {
        "b1": "0.4142135623730950488016887242096980785697",
        "b2": "0.7320508075688772935274463415058723669428",
    }
)
CTX = TruncationContext(6, BASIS)
GX = CTX.generator("b1")


def test_q_eval_frozen():
    phi = HmElement.tilde(CTX, 2, 2)
    v = (Angle(F(1, 2)), GX, Angle(F(1, 720)))
    assert q_eval(v, phi) == Angle(F(361, 720), {"b1": F(1, 360)})

    # trailing zeros are tolerated, reading past the top is not
    assert q_eval((*v, ZERO), phi) == q_eval(v, phi)
    with pytest.raises(ValueError):
        q_eval((ZERO, ZERO, ZERO, Angle(F(1, 2))), phi)


def test_q_eval_additive_in_the_vector():
    phi = HmElement.tilde(CTX, 5, 2)
    v = (Angle(F(1, 2)), GX, ZERO)
    w = (Angle(F(1, 720)), ZERO, 3 * GX)
    s = tuple(a + b for a, b in zip(v, w))
    assert q_eval(s, phi) == q_eval(v, phi) + q_eval(w, phi)


def test_index_shift_intertwines_translation():
    v = (Angle(F(1, 2)), GX, Angle(F(5, 720)))
    assert index_shift(v) == (
        Angle(F(1, 2)) + GX,
        GX + Angle(F(5, 720)),
        Angle(F(5, 720)),
    )
    one = HmElement.tilde(CTX, 1, 2)
    for n in (-3, 0, 2, 7):
        phi = HmElement.tilde(CTX, n, 2)
        assert q_eval(v, one * phi) == q_eval(index_shift(v), phi)


def test_integer_points_separate_index_vectors():
    # the Pascal matrix is unimodular, so probing with tilde(0..m) splits
    # any two distinct torsion vectors; frozen two-vector demo
    v = (ZERO, Angle(F(1, 2)), ZERO)
    w = (ZERO, ZERO, Angle(F(1, 2)))
    probes = [HmElement.tilde(CTX, n, 2) for n in range(3)]
    assert any(q_eval(v, t) != q_eval(w, t) for t in probes)
    vals_v = [q_eval(v, t) for t in probes]
    assert vals_v == [ZERO, Angle(F(1, 2)), ZERO]
    vals_w = [q_eval(w, t) for t in probes]
    assert vals_w == [ZERO, ZERO, Angle(F(1, 2))]
