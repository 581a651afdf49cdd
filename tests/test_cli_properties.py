"""Property test for the CLI contract on `weyl --poly`.

Any polynomial text, any small N and shift 0 must end in exit code 0, 2
or 3, with no exception escaping main(), which a user would see as a
traceback.  Denominators up to 10^12 and k up to MAX_BINOM_K reach the
period cap, the parser's bounds and aperiodic polynomials alike.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from skewtorus.circle import MAX_BINOM_K  # noqa: E402
from skewtorus.cli import main  # noqa: E402

numbers = st.integers(0, 10**6).map(str)
fractions = st.builds("{}/{}".format, numbers, st.integers(0, 10**12))
coefficients = st.one_of(
    numbers,
    fractions,
    st.sampled_from(["b1", "b2", "b3", "1/3*b1", "(1/2 + b2)"]),
)
terms = st.builds(
    "{}*C(n,{})".format, coefficients, st.integers(0, MAX_BINOM_K + 1)
) | coefficients
polys = st.lists(
    st.tuples(terms, st.sampled_from([" + ", " - ", "+", " ? "])),
    min_size=1,
    max_size=4,
).map(lambda ts: "".join(t + sep for t, sep in ts[:-1]) + ts[-1][0])


@settings(deadline=None)
@given(polys, st.integers(-1, 50))
def test_weyl_exits_0_2_or_3_without_a_traceback(poly, N):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["weyl", f"--poly={poly}", "--N", str(N), "--shifts", "0"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
