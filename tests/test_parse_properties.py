"""Property tests for the angle, point and polynomial grammar.

Generated values must survive format -> parse, and any text over the
grammar's alphabet must either parse or raise ParseError with an offset
inside the text; no other exception may escape.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from skewtorus.circle import Angle, format_point, parse_point  # noqa: E402
from skewtorus.dynamics import PolyAngle  # noqa: E402
from skewtorus.errors import ParseError  # noqa: E402

SYMBOLS = ["b1", "b2", "x", "C", "C1", "_y"]
ALPHABET = "0123456789/+-*(), \tnCbxy_1?$١"

rationals = st.fractions(max_denominator=10**6).filter(lambda f: abs(f) < 10**9)
angles = st.builds(
    Angle, rationals, st.dictionaries(st.sampled_from(SYMBOLS), rationals, max_size=3)
)
points = st.lists(angles, min_size=1, max_size=4).map(tuple)
polys = st.lists(angles, min_size=1, max_size=6).map(PolyAngle)

PARSERS = [Angle.parse, parse_point, PolyAngle.parse]

relaxed = settings(deadline=None)


@relaxed
@given(angles)
def test_angle_round_trip(a):
    assert Angle.parse(str(a)) == a


@relaxed
@given(points)
def test_point_round_trip(p):
    assert parse_point(format_point(p)) == p


@relaxed
@given(polys)
def test_poly_round_trip(p):
    assert PolyAngle.parse(str(p)) == p


@relaxed
@given(st.sampled_from(PARSERS), st.text(alphabet=ALPHABET, max_size=40))
def test_text_parses_or_raises_parse_error_inside_it(parse, text):
    try:
        parse(text)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(text)
