"""The integer normal form of Angle against a pure-Fraction model.

The model below keeps an angle as (rat, {symbol: coefficient}): rat a
Fraction in [0, 1) and nonzero Fraction coefficients, with all of its
arithmetic done in Fraction.  It shares no code with skewtorus.circle.
Each Angle is read through its integer fields (den, num, cs), which must
satisfy the invariant 0 <= num < den, cs strictly sorted by symbol with
nonzero int entries, and gcd(den, num, *cs) == 1.  Constructor, `+`,
`-`, negation, integer scaling, `Angle.parse`, `str` and
`TruncationContext.angle`/`row` are each checked against the model.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from skewtorus.circle import Angle, BasisDecl  # noqa: E402
from skewtorus.endo import TruncationContext  # noqa: E402

SYMBOLS = ["a", "b1", "b2", "z"]
BIG = 10**30

# ------------------------------------------------------------------ model


def model(rat, terms):
    """rat + sum of c * symbol over the terms, in normal form."""
    coeffs = {}
    for s, c in terms:
        coeffs[s] = coeffs.get(s, 0) + c
    return rat % 1, {s: c for s, c in coeffs.items() if c}


def m_sum(x, y, sign=1):
    return model(x[0] + sign * y[0], [*x[1].items(), *((s, sign * c) for s, c in y[1].items())])


def m_scale(n, x):
    return model(n * x[0], [(s, n * c) for s, c in x[1].items()])


def m_str(x):
    """The output form: the rational part unless it is 0 with coefficients
    present, then `+ c*s` or `- c*s` by symbol, first sign attached."""
    rat, coeffs = x
    parts = [str(rat)] if rat or not coeffs else []
    for s in sorted(coeffs):
        c = coeffs[s]
        body = f"{abs(c)}*{s}"
        if parts:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts)


def view(a: Angle):
    """The model of a, read from its integer fields once they pass the invariant."""
    den, num, cs = a.den, a.num, a.cs
    assert type(den) is int and type(num) is int and 0 <= num < den
    assert type(cs) is tuple
    symbols = [s for s, _ in cs]
    assert symbols == sorted(set(symbols))
    assert all(type(c) is int and c for _, c in cs)
    assert math.gcd(den, num, *(c for _, c in cs)) == 1
    return Fraction(num, den), {s: Fraction(c, den) for s, c in cs}


# ------------------------------------------------------------- strategies

integers = st.one_of(st.integers(-2000, 2000), st.integers(-BIG, BIG))
rationals = st.builds(
    Fraction, integers, st.one_of(st.integers(1, 720), st.integers(1, BIG))
)
inputs = st.tuples(rationals, st.lists(st.tuples(st.sampled_from(SYMBOLS), rationals), max_size=4))
scales = st.one_of(st.sampled_from([0, 1, -1, 10**12, -10**12]), st.integers(-50, 50))

relaxed = settings(deadline=None)


@st.composite
def pairs(draw):
    """Inputs of two angles.  b's rational part may complete a's to
    exactly 1, and b may cancel any of a's coefficients.  Overlapping and
    disjoint symbol sets come from the small symbol pool."""
    (ra, ta), (rb, tb) = draw(inputs), draw(inputs)
    ma, mb = model(ra, ta), model(rb, tb)
    if draw(st.booleans()):
        rb = 1 - ma[0]
    for s, c in ma[1].items():
        if draw(st.booleans()):
            tb = tb + [(s, -c - mb[1].get(s, 0))]
    return (ra, ta), (rb, tb)


def text_of(rat, terms) -> str:
    """The inputs written in the angle grammar, term by term, unmerged."""
    out = []
    for s, c in [(None, rat), *terms]:
        sign = "-" if c < 0 else "+"
        c = abs(c)
        body = str(c) if s is None else s if c == 1 else f"{c.numerator}/{c.denominator}*{s}"
        out.append(f"{sign} {body}")
    return " ".join(out)


# ------------------------------------------------------------------ tests


@relaxed
@given(inputs)
def test_constructor_parse_and_str_match_the_model(x):
    rat, terms = x
    want = model(rat, terms)
    a = Angle(rat, terms)
    assert view(a) == want
    assert str(a) == m_str(want)
    assert view(Angle.parse(text_of(rat, terms))) == want
    assert Angle.parse(str(a)) == a


@relaxed
@given(pairs())
def test_sum_and_difference_match_the_model(xy):
    (ra, ta), (rb, tb) = xy
    a, b = Angle(ra, ta), Angle(rb, tb)
    ma, mb = model(ra, ta), model(rb, tb)
    assert view(a + b) == m_sum(ma, mb)
    assert view(a - b) == m_sum(ma, mb, -1)
    assert view(b - a) == m_sum(mb, ma, -1)


@relaxed
@given(inputs, scales)
def test_negation_and_scaling_match_the_model(x, n):
    a, ma = Angle(*x), model(*x)
    assert view(-a) == m_scale(-1, ma)
    for got in (n * a, a * n):
        assert view(got) == m_scale(n, ma)


@st.composite
def rows(draw) -> tuple[TruncationContext, list[int]]:
    """A context whose symbols are declared in any order, and a row of
    unreduced integers for it."""
    symbols = draw(st.lists(st.sampled_from(SYMBOLS), unique=True, max_size=4))
    values = tuple((k, 7) for k in range(1, len(symbols) + 1))
    ctx = TruncationContext(draw(st.integers(2, 6)), BasisDecl(tuple(symbols), values))
    row = draw(st.lists(integers, min_size=1 + len(symbols), max_size=1 + len(symbols)))
    return ctx, row


@relaxed
@given(rows())
def test_rows_match_the_model(ctx_row):
    ctx, row = ctx_row
    M = ctx.modulus
    a = ctx.angle(row)
    assert view(a) == model(Fraction(row[0], M), [(s, Fraction(c, M)) for s, c in zip(ctx.basis.symbols, row[1:])])
    assert ctx.row(a) == (row[0] % M, *row[1:])
