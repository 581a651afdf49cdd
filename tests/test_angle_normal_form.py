"""The trusted arithmetic paths against the normalising constructor.

`+`, `-`, negation, integer scaling and `TruncationContext.angle` build
their results without renormalising.  Each result must equal what the
public `Angle(...)` makes of the unreduced rational part and the
concatenated coefficients, and must already be in normal form.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from skewtorus.circle import Angle, BasisDecl  # noqa: E402
from skewtorus.endo import TruncationContext  # noqa: E402

SYMBOLS = ["a", "b1", "b2", "z"]
BIG = 10**30

integers = st.one_of(st.integers(-2000, 2000), st.integers(-BIG, BIG))
rationals = st.builds(
    Fraction, integers, st.one_of(st.integers(1, 720), st.integers(1, BIG))
)
angles = st.builds(
    Angle, rationals, st.lists(st.tuples(st.sampled_from(SYMBOLS), rationals), max_size=4)
)
scales = st.one_of(st.sampled_from([0, 1, -1, 10**12, -10**12]), st.integers(-50, 50))

relaxed = settings(deadline=None)


@st.composite
def pairs(draw) -> tuple[Angle, Angle]:
    """Two angles; b's rational part may complete a's to exactly 1, and b
    may cancel any of a's coefficients.  Overlapping and disjoint symbol
    sets come from the small symbol pool."""
    a, b = draw(angles), draw(angles)
    if draw(st.booleans()):
        b = Angle(1 - a.rat, b.coeffs)
    cancel = draw(st.lists(st.booleans(), min_size=len(a.coeffs), max_size=len(a.coeffs)))
    extra = [(s, -c - b.coeff(s)) for (s, c), k in zip(a.coeffs, cancel) if k]
    return a, Angle(b.rat, [*b.coeffs, *extra])


def assert_normal(x: Angle) -> None:
    assert type(x.rat) is Fraction and 0 <= x.rat < 1
    assert type(x.coeffs) is tuple
    symbols = [s for s, _ in x.coeffs]
    assert symbols == sorted(set(symbols))
    assert all(type(c) is Fraction and c for _, c in x.coeffs)


def negated(coeffs):
    return tuple((s, -c) for s, c in coeffs)


@relaxed
@given(pairs())
def test_sum_and_difference_match_the_normalising_constructor(ab):
    a, b = ab
    assert_normal(a)
    assert_normal(b)
    for got, want in (
        (a + b, Angle(a.rat + b.rat, a.coeffs + b.coeffs)),
        (a - b, Angle(a.rat - b.rat, a.coeffs + negated(b.coeffs))),
        (b - a, Angle(b.rat - a.rat, b.coeffs + negated(a.coeffs))),
    ):
        assert_normal(got)
        assert got == want


@relaxed
@given(angles, scales)
def test_negation_and_scaling_match_the_normalising_constructor(a, n):
    got = -a
    assert_normal(got)
    assert got == Angle(-a.rat, negated(a.coeffs))
    want = Angle(n * a.rat, [(s, n * c) for s, c in a.coeffs])
    for got in (n * a, a * n):
        assert_normal(got)
        assert got == want


@st.composite
def rows(draw) -> tuple[TruncationContext, list[int]]:
    """A context whose symbols are declared in any order, and a row of
    unreduced integers for it."""
    symbols = draw(st.lists(st.sampled_from(SYMBOLS), unique=True, max_size=4))
    values = tuple(Fraction(k, 7) for k in range(1, len(symbols) + 1))
    ctx = TruncationContext(draw(st.integers(2, 6)), BasisDecl(tuple(symbols), values))
    row = draw(st.lists(integers, min_size=1 + len(symbols), max_size=1 + len(symbols)))
    return ctx, row


@relaxed
@given(rows())
def test_row_to_angle_matches_the_normalising_constructor(ctx_row):
    ctx, row = ctx_row
    M = ctx.modulus
    a = ctx.angle(row)
    assert_normal(a)
    coeffs = [(s, Fraction(c, M)) for s, c in zip(ctx.basis.symbols, row[1:])]
    assert a == Angle(Fraction(row[0], M), coeffs)
    assert ctx.row(a) == (row[0] % M, *row[1:])
