"""Property tests for the CLI contract: exit 0, 2 or 3, never a traceback.

`weyl --poly`: any polynomial text, any small N and shift 0 must end in
exit code 0, 2 or 3, with no exception escaping main(), which a user would
see as a traceback.  Denominators up to 10^12 and k up to MAX_BINOM_K reach
the period cap, the parser's bounds and aperiodic polynomials alike.

`iterate --oracle`, `ellis` on mutated element JSON and `factor-lab kernel`
draw their integer flags as ASCII, non-ASCII, underscored and blank text.
main() must return 0, 2 or 3, or stop with SystemExit(3) on a usage error.

A config file mutated from a valid one must give the same: exit 0, 2 or
3, no traceback, and a few seconds at most, on `iterate`, `weyl --char`,
`check`, `factor-lab demo` and `factor-lab kernel`.

So must hostile JSON: an `ellis` element, inline or in an @file, and a
config file given by --config or by $SKEWTORUS_CONFIG, with one value (or
the whole text) replaced by deep nesting, an integer literal near or past
int()'s digit limit or a value of the wrong JSON type, and sometimes bytes
that are not UTF-8.
"""

import contextlib
import functools
import io
import json
import operator
import os
import sys
import tempfile
import time
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from skewtorus.circle import MAX_BINOM_K  # noqa: E402
from skewtorus.cli import main  # noqa: E402
from skewtorus.config import DEFAULT_BASIS, Config  # noqa: E402
from skewtorus.ellis import HmElement  # noqa: E402

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


def _run(argv: list) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 3, argv  # a usage error; no argv here asks for --help
        else:
            assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue()


@settings(deadline=None)
@given(polys, st.integers(-1, 50))
def test_weyl_exits_0_2_or_3_without_a_traceback(poly, N):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["weyl", f"--poly={poly}", "--N", str(N), "--shifts", "0"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


_SCRIPTS = ["٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "०१२३४५६७८९"]  # Arabic-Indic, fullwidth, Devanagari


def int_texts(lo: int, hi: int):
    """An integer in [lo, hi] written in ASCII, in another script's digits,
    with an underscore (which int() accepts), or a blank or signed text."""
    ints = st.integers(lo, hi)
    other = st.one_of(
        st.builds(
            lambda n, digits: str(n).translate(str.maketrans("0123456789", digits)),
            ints, st.sampled_from(_SCRIPTS),
        ),
        ints.map("{}_0".format),
        st.sampled_from(["", " ", " 2", "2 ", "+2", "-"]),
    )
    # half ASCII, so that most draws of two flags reach the command itself
    return st.booleans().flatmap(lambda ascii: ints.map(str) if ascii else other)


points = st.sampled_from(["", "0", "1/2", "1/7, 1/3*b1", "0,0,0", "1/6,1/5,1/4,1/3", "?"])


@settings(deadline=None, max_examples=60)
@given(int_texts(-30, 30), st.one_of(st.none(), int_texts(-1, 4)), st.one_of(st.none(), points))
def test_iterate_oracle_exits_0_2_or_3(n, m, point):
    argv = ["iterate", "--oracle", f"--n={n}"]
    argv += [] if m is None else [f"--m={m}"]
    argv += [] if point is None else [f"--point={point}"]
    _run(argv)


CTX = Config().context()

json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=True),
    st.text(max_size=6),
    st.sampled_from(["1/2", "1/720*b1", "b1", "b3", "0", "1/3 + ?"]),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def _paths(obj, prefix=()):
    yield prefix
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


@st.composite
def element_json(draw):
    """A valid element (a power of the tower map) with up to three edits:
    a value replaced by arbitrary JSON, or a key or list entry deleted."""
    el = json.loads(json.dumps(HmElement.tilde(CTX, draw(st.integers(-20, 20)), draw(st.integers(1, 3))).to_dict()))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(el))))
        if not path:
            el = draw(json_values)
            continue
        parent = functools.reduce(operator.getitem, path[:-1], el)
        if draw(st.booleans()):
            parent[path[-1]] = draw(json_values)
        else:
            del parent[path[-1]]
    return json.dumps(el)


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from(["star", "inv", "comm", "act", "is-iterate"]),
    element_json(),
    st.one_of(st.none(), element_json()),
    st.one_of(st.none(), points),
)
def test_ellis_on_mutated_elements_exits_0_2_or_3(op, a, b, point):
    argv = ["ellis", op, "--a", a]
    argv += [] if b is None else ["--b", b]
    argv += [] if point is None else ["--point", point]
    _run(argv)


@settings(deadline=None, max_examples=30)
@given(int_texts(1, 3), int_texts(-5, 5))
def test_factor_kernel_exits_0_2_or_3(samples, seed):
    _run(["factor-lab", "kernel", f"--samples={samples}", f"--seed={seed}"])


BASE_CONFIG = {
    "level": 6, "basis": DEFAULT_BASIS, "seed": 3, "shifts": [0, 7], "tol": 0.5, "N": 50,
    "system": {"m": 2, "x0": "1*b1"}, "x_symbol": "b1", "factor_m": 3,
}
config_values = st.one_of(
    json_values,
    st.sampled_from([0, 1, 2, 400, 401, -1, 10**20, 1e300, float("inf"), "0.5", "b2", "1/2"]),
)


@st.composite
def config_json(draw):
    """A valid config with up to three edits: a value replaced by arbitrary
    JSON, a key or list entry deleted, or an unknown key added."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(cfg))))
        edit = draw(st.sampled_from(["replace", "delete", "add"]))
        if not path:
            cfg = draw(config_values)
            continue
        parent = functools.reduce(operator.getitem, path[:-1], cfg)
        if edit == "delete":
            del parent[path[-1]]
        elif edit == "add" and isinstance(parent, dict):
            parent[draw(st.text(max_size=4))] = draw(config_values)
        else:
            parent[path[-1]] = draw(config_values)
    return json.dumps(cfg)


@settings(deadline=None, max_examples=80)
@given(
    config_json(),
    st.sampled_from([["iterate", "--n", "3"], ["weyl", "--char", "1", "--N", "20"],
                     ["check", "comb.pascal"], ["factor-lab", "demo"],
                     ["factor-lab", "kernel", "--samples", "1"]]),
)
def test_mutated_configs_exit_0_2_or_3_in_bounded_time(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        start = time.perf_counter()
        _run([*argv, "--config", path])
    assert time.perf_counter() - start < 10, (argv, text)


_LIMIT = sys.get_int_max_str_digits()
_BAD_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xc0\xaf", b"\xed\xa0\x80"]  # last two: overlong, surrogate


def _nested(depth: int, array: bool, closed: bool) -> str:
    """depth nested arrays or objects, closed or cut off."""
    opener, inner, closer = ("[", "", "]") if array else ('{"a":', "0", "}")
    return opener * depth + (inner + closer * depth if closed else "")


hostile_values = st.one_of(
    # nesting: shallow, about the decoder's recursion limit, and far past it
    st.builds(
        _nested,
        st.one_of(st.integers(1, 30), st.integers(850, 1100), st.integers(1100, 100_000)),
        st.booleans(),
        st.booleans(),
    ),
    # integer literals about int()'s digit limit, bare, signed, in floats and in strings
    st.builds(
        lambda digits, form: form.format("9" * digits),
        st.integers(_LIMIT - 2, _LIMIT + 2_000),
        st.sampled_from(["{}", "-{}", "{}.5", "0.{}", "{}e3", '"{}"', '"0.{}"', '"{}*b1"']),
    ),
    # the wrong JSON type
    json_values.map(json.dumps),
)


@st.composite
def hostile_json(draw, bases):
    """A valid JSON object drawn from bases, as bytes, with one value or the
    whole text replaced by a hostile one, and half the time one byte
    sequence that is not UTF-8 inserted."""
    obj = json.loads(json.dumps(draw(bases)))
    path = draw(st.sampled_from(list(_paths(obj))))
    raw = draw(hostile_values)
    if path:
        functools.reduce(operator.getitem, path[:-1], obj)[path[-1]] = "@@hostile@@"
        raw = json.dumps(obj).replace('"@@hostile@@"', raw)
    data = raw.encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_BAD_UTF8)) + data[at:]
    return data


elements = st.builds(
    lambda n, m: HmElement.tilde(CTX, n, m).to_dict(), st.integers(-20, 20), st.integers(1, 3)
)


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(["inv", "is-iterate", "star"]), hostile_json(elements), st.booleans())
def test_hostile_element_json_exits_0_2_or_3(op, data, at_file):
    with tempfile.TemporaryDirectory() as tmp:
        if at_file:
            path = os.path.join(tmp, "element.json")
            with open(path, "wb") as fh:
                fh.write(data)
            a = f"@{path}"
        else:
            a = data.decode("utf-8", "surrogateescape")  # as Python decodes argv
        b = json.dumps(HmElement.tilde(CTX, 1, 3).to_dict())
        _run(["ellis", op, "--a", a] + (["--b", b] if op == "star" else []))


@settings(deadline=None, max_examples=80)
@given(
    hostile_json(st.just(BASE_CONFIG)),
    st.booleans(),
    st.sampled_from([["iterate", "--n", "3"], ["weyl", "--char", "1", "--N", "20"],
                     ["check", "comb.pascal"], ["factor-lab", "demo"]]),
)
def test_hostile_config_files_exit_0_2_or_3_in_bounded_time(data, from_env, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "wb") as fh:
            fh.write(data)
        start = time.perf_counter()
        if from_env:
            with mock.patch.dict(os.environ, {"SKEWTORUS_CONFIG": path}):
                _run(argv)
        else:
            _run([*argv, "--config", path])
    assert time.perf_counter() - start < 10, argv
