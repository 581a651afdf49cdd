"""Exact circle arithmetic, parsing, and the single float boundary."""

import cmath
import copy
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest

from skewtorus.circle import (
    MAX_SYMBOL_LENGTH,
    Angle,
    BasisDecl,
    ZERO,
    angle_to_unit,
    format_point,
    parse_point,
)
from skewtorus.errors import ConfigurationError, ParseError

F = Fraction


def test_parse_and_format_round_trip():
    for text in [
        "1/3 + 1/2*b1",
        "-1/2*b1",
        "0",
        "5/6",
        "1/720 + 3*b1 - 2/7*b2",
        "- 1/4 - b1",
    ]:
        a = Angle.parse(text)
        assert Angle.parse(str(a)) == a


def rat(a):
    """The torsion part of a as a Fraction."""
    return F(a.num, a.den)


def coeffs(a):
    """The (symbol, Fraction coefficient) pairs of a."""
    return tuple((s, F(c, a.den)) for s, c in a.cs)


def test_parse_frozen_forms():
    a = Angle.parse("1/3 + 1/2*b1")
    assert rat(a) == F(1, 3)
    assert coeffs(a) == (("b1", F(1, 2)),)
    assert str(a) == "1/3 + 1/2*b1"

    assert rat(Angle.parse("7/3")) == F(1, 3)
    assert Angle.parse("b2 - b2") == ZERO
    assert str(ZERO) == "0"

    merged = Angle.parse("2*b1 + 1/6 + 1*b1")
    assert merged == Angle(F(1, 6), {"b1": 3})

    # bare symbol means coefficient one
    assert Angle.parse("b2") == Angle(0, {"b2": 1})
    assert str(Angle.parse("-1*b1")) == "-1*b1"


def test_parse_error_offsets():
    cases = [
        ("", "empty angle", 0),
        ("1//2", "expected '+' or '-'", 1),
        ("1 b1", "expected '+' or '-'", 2),
        ("1\n/ 2", "expected '+' or '-'", 1),  # blanks are space and tab only
        ("1/0*b1", "zero denominator", 2),
        ("1 + ?", "expected rational or symbol", 4),
        ("\u0661/\u0663", "expected rational or symbol", 0),  # Arabic-Indic 1/3
        ("1" * 5000, "5000 digits is too long", 0),
        ("1/" + "2" * 5000, "5000 digits is too long", 2),
    ]
    for text, fragment, offset in cases:
        with pytest.raises(ParseError) as info:
            Angle.parse(text)
        assert fragment in str(info.value)
        assert info.value.offset == offset
        assert f"(at offset {offset})" in str(info.value)


def test_point_parse_offsets_are_global():
    point = parse_point("1/2, 3*b1")
    assert point == (Angle(F(1, 2)), Angle(0, {"b1": 3}))
    assert format_point(point) == "1/2, 3*b1"

    with pytest.raises(ParseError) as info:
        parse_point("0, 1 + ?")
    assert info.value.offset == 7


def test_group_laws_and_normalization():
    a = Angle(F(3, 4), {"b1": F(1, 2)})
    b = Angle(F(1, 2), {"b1": F(-1, 2), "b2": 2})
    assert a + b == Angle(F(1, 4), {"b2": 2})
    assert a - a == ZERO
    assert -(a + b) == (-a) + (-b)
    assert Angle(F(9, 4)) == Angle(F(1, 4))
    assert Angle(F(-1, 4)) == Angle(F(3, 4))
    # coefficients never reduce mod 1, only the rational part does
    assert coeffs(Angle(0, {"b1": F(5, 4)})) == (("b1", F(5, 4)),)


def test_integer_scaling_only():
    a = Angle(F(1, 6), {"b1": F(2, 3)})
    assert 5 * a == Angle(F(5, 6), {"b1": F(10, 3)})
    assert a * (-2) == Angle(F(2, 3), {"b1": F(-4, 3)})
    assert 0 * a == ZERO
    with pytest.raises(TypeError):
        F(1, 2) * a  # rational scaling is ill-defined on torsion


def test_torsion_predicates():
    assert Angle(F(1, 6)).torsion_order() == 6
    assert ZERO.torsion_order() == 1
    assert Angle(0, {"b1": 1}).torsion_order() is None
    assert Angle(F(1, 2)).is_torsion
    assert not Angle(F(1, 2), {"b2": F(1, 7)}).is_torsion
    a = Angle(F(1, 2), {"b2": F(1, 7)})
    assert [rat(a).denominator, dict(coeffs(a))["b2"].denominator] == [2, 7]
    assert (a.den, a.num, a.cs) == (14, 7, (("b2", 2),))  # (7 + 2*b2) / 14


def test_angle_is_hashable_value_object():
    a = Angle(F(1, 3), {"b1": 2})
    b = Angle(F(1, 3), [("b1", 1), ("b1", 1)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    with pytest.raises(AttributeError):
        a.num = 0


def test_float_entries_are_refused():
    # Fraction(0.1) would silently be 3602879701896397/36028797018963968
    for bad in (0.1, 0.5, 0.0, float("nan"), Decimal("0.1"), "1/2"):
        with pytest.raises(TypeError):
            Angle(bad)
        with pytest.raises(TypeError):
            Angle(0, {"b1": bad})
        with pytest.raises(TypeError):
            Angle(F(1, 2), [("b1", 1), ("b2", bad)])
    assert Angle(True, {"b1": F(1, 2)}) == Angle(0, {"b1": F(1, 2)})


def test_angle_copies_and_pickles():
    for a in (ZERO, Angle(F(1, 3), {"b1": F(-2, 7), "b2": 5})):
        dups = [copy.copy(a), copy.deepcopy(a)]
        dups += [pickle.loads(pickle.dumps(a, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for dup in dups:
            assert dup == a and hash(dup) == hash(a) and str(dup) == str(a)
            assert (dup.den, dup.num, dup.cs) == (a.den, a.num, a.cs)
            with pytest.raises(AttributeError):
                dup.num = 0
        state = a.__reduce__()[1]  # the pickled state is the integer fields
        assert [type(x) for x in state[:2]] == [int, int]
        assert all(type(s) is str and type(c) is int for s, c in state[2])


@pytest.fixture()
def basis():
    return BasisDecl.from_decimals(
        {
            "b1": "0.4142135623730950488016887242096980785697",
            "b2": "0.7320508075688772935274463415058723669428",
        }
    )


def test_unit_circle_frozen_values(basis):
    assert angle_to_unit(ZERO, basis) == complex(1.0, 0.0)
    assert abs(angle_to_unit(Angle(F(1, 4)), basis) - 1j) < 1e-15
    assert abs(angle_to_unit(Angle(F(1, 2)), basis) + 1.0) < 1e-15
    third = angle_to_unit(Angle(F(1, 3)), basis)
    assert abs(third - cmath.exp(2j * cmath.pi / 3)) < 1e-15


def test_unit_circle_matches_exact_phase(basis):
    # oracle: exact rational phase, folded into [0, 1), exponentiated
    samples = [
        Angle(F(1, 720), {"b1": 3}),
        Angle(F(5, 7), {"b1": F(-2, 3), "b2": F(1, 2)}),
        Angle(0, {"b2": 41}),
        Angle(F(699, 720)),
    ]
    for a in samples:
        theta = rat(a) + sum(c * F(*basis.value_of(s)) for s, c in coeffs(a))
        theta %= 1
        want = cmath.exp(2j * cmath.pi * (theta.numerator / theta.denominator))
        got = angle_to_unit(a, basis)
        assert abs(got - want) < 1e-15
        assert abs(abs(got) - 1.0) < 1e-15


def test_unit_circle_is_homomorphism(basis):
    a = Angle(F(1, 6), {"b1": F(3, 5)})
    b = Angle(F(3, 4), {"b2": F(-1, 3)})
    lhs = angle_to_unit(a + b, basis)
    rhs = angle_to_unit(a, basis) * angle_to_unit(b, basis)
    assert abs(lhs - rhs) < 1e-12


def test_basis_validation():
    with pytest.raises(ConfigurationError):
        BasisDecl(("b1", "b1"), ((1, 3), (1, 4)))
    with pytest.raises(ConfigurationError):
        BasisDecl(("2bad",), ((1, 3),))
    with pytest.raises(ConfigurationError):
        BasisDecl(("b1",), ((0, 1),))
    with pytest.raises(ConfigurationError):
        BasisDecl(("b1",), ((7, 5),))
    with pytest.raises(ConfigurationError):
        BasisDecl.from_decimals({"b1": "not a number"})
    decl = BasisDecl(("b1",), ((2, 5),))
    assert decl.value_of("b1") == (2, 5)
    assert BasisDecl.from_decimals({"b1": "0.40"}).value_of("b1") == (40, 100)
    with pytest.raises(ConfigurationError):
        decl.index_of("b9")
    # a symbol name is capped by length, checked before duplicates and values
    name = "b" * MAX_SYMBOL_LENGTH
    assert BasisDecl((name,), ((1, 3),)).symbols == (name,)
    message = (f"basis symbol names must have at most MAX_SYMBOL_LENGTH = {MAX_SYMBOL_LENGTH} "
               f"characters, got one of {MAX_SYMBOL_LENGTH + 1}")
    for make in (lambda n: BasisDecl((n, n), ((1, 3), (1, 4))),
                 lambda n: BasisDecl((n,), ((7, 5),)),
                 lambda n: BasisDecl.from_decimals({n: "not a number"})):
        with pytest.raises(ConfigurationError) as info:
            make(name + "b")
        assert str(info.value) == message
