"""Seeded inputs, timed operations and output checks for each workload.

Inputs are generated from the seed alone as plain JSON data (integers and
fraction strings), so one seed gives byte-identical inputs whatever the
version of the program.  ``build`` turns that data into program objects
through the public constructors before any timing starts.

Every workload is a list of rounds.  A round has a fixed multiset of
operation shapes; the seed chooses the values inside each shape.  The
timed loop only ever stops between rounds, so every run measures the same
mix and the percentiles land inside groups of like operations.

Each built operation is an :class:`Op`: ``call`` is the timed call into
the program, ``canon`` renders its output canonically (digested for the
committed reference, compared on repeats), and ``check`` tests the output
against identities that hold for any seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd
from typing import Any, Callable

from skewtorus import circle, cli, dynamics, ellis, endo, factor_lab, weyl

# sqrt(2)-1, sqrt(3)-1 (the program's defaults) and sqrt(5)-2, to 40 places
BASIS_DECIMALS = {
    "b1": "0.4142135623730950488016887242096980785697",
    "b2": "0.7320508075688772935274463415058723669428",
    "b3": "0.2360679774997896964091736687312762354406",
}
SYMBOLS = tuple(BASIS_DECIMALS)

WORKLOADS = ("algebra", "weyl-stream", "weyl-periodic", "cli")


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    canon: Callable[[Any], str]
    check: Callable[[Any], bool]
    units: int = 0  # Weyl samples (weyl-*), for the detail line


# ------------------------------------------------------------- plain data
#
# angle   = [rational, [[symbol, rational], ...]]   rationals as "p/q" text
# endo    = [residue, [angle per symbol]]
# element = {"level": L, "d": d, "comps": [endo, ...]}


def _gen_angle(rng: random.Random, M: int, d: int, nonzero_rat: bool = False) -> list:
    lo = 1 if nonzero_rat else 0
    coeffs = []
    for s in SYMBOLS[:d]:
        if rng.random() < 0.7:
            c = rng.randrange(-2 * M, 2 * M + 1)
            if c:
                coeffs.append([s, str(Fraction(c, M))])
    return [str(Fraction(rng.randrange(lo, M), M)), coeffs]


def _zero_angle() -> list:
    return ["0", []]


def _power_endo(M: int, d: int, n: int) -> list:
    """Multiplication by n: residue n mod M, generator b/M goes to n*b/M."""
    c = Fraction(n, M)
    return [n % M, [["0", [[s, str(c)]] if c else []] for s in SYMBOLS[:d]]]


def _gen_element(
    rng: random.Random, L: int, m: int, d: int, prefix: int = 0,
    nonzero_r1: bool = False,
) -> dict:
    """Random group member; residues solve the coherence congruence."""
    M = factorial(L)
    r1 = 0 if prefix else rng.randrange(1 if nonzero_r1 else 0, M)
    comps = [_power_endo(M, d, 1)]
    for k in range(1, m + 1):
        if k <= prefix:
            comps.append(_power_endo(M, d, 0))
            continue
        r = r1 if k == 1 else (comb(r1, k) + rng.randrange(factorial(k)) * (M // factorial(k))) % M
        nonzero = k == 1 and nonzero_r1
        images = [_gen_angle(rng, M, d, nonzero_rat=nonzero) for _ in range(d)]
        comps.append([r, images])
    return {"level": L, "d": d, "comps": comps}


def _gen_point(rng: random.Random, L: int, d: int, size: int) -> list:
    M = factorial(L)
    return [_gen_angle(rng, M, d) for _ in range(size)]


def _gen_g1(rng: random.Random, L: int, m: int, in_g: bool) -> dict:
    """Member of G1 (or of G when in_g) for the designated symbol b1."""
    M = factorial(L)
    comps = [_power_endo(M, 2, 1)]
    for k in range(1, m + 1):
        images = []
        for s in SYMBOLS[:2]:
            if s == "b1" and k == 1:
                images.append(["1/2", []] if rng.random() < 0.5 else _zero_angle())
            elif s == "b1" and k == 2 and in_g:
                images.append(_zero_angle())
            else:
                images.append(_gen_angle(rng, M, 2))
        comps.append([0, images])
    return {"level": L, "d": 2, "comps": comps}


def _gen_kernel_member(rng: random.Random, L: int, m: int, spec_m: int) -> dict:
    """Member of default kernel spec spec_m (1: kills 1/M, 2: kills x, 3: both)."""
    M = factorial(L)
    comps = [_power_endo(M, 2, 1)] + [_power_endo(M, 2, 0)] * (spec_m - 1)
    kills_x = spec_m >= 2
    top = [
        _zero_angle() if (s == "b1" and kills_x) else _gen_angle(rng, M, 2)
        for s in SYMBOLS[:2]
    ]
    comps.append([0, top])  # every kernel spec with torsion forces residue 0
    for k in range(spec_m + 1, m + 1):
        kf = factorial(k)
        r = rng.randrange(kf) * (M // kf) % M
        comps.append([r, [_gen_angle(rng, M, 2) for _ in range(2)]])
    return {"level": L, "d": 2, "comps": comps}


def _is_zero_angle(a: list) -> bool:
    return Fraction(a[0]) % 1 == 0 and not any(Fraction(c) for _, c in a[1])


def _angle_text(a: list) -> str:
    """Angle in the README grammar: 'p/q + c/d*b1 - e/f*b2'."""
    text = str(Fraction(a[0]))
    for sym, c in a[1]:
        f = Fraction(c)
        if f:
            text += f" {'+' if f > 0 else '-'} {abs(f)}*{sym}"
    return text


def _element_json(el: dict) -> str:
    syms = list(SYMBOLS[: el["d"]])
    comps = [
        {"residue": r, "images": {s: _angle_text(a) for s, a in zip(syms, imgs)}}
        for r, imgs in el["comps"]
    ]
    return json.dumps(
        {"level": el["level"], "basis": syms, "m": len(comps) - 1, "comps": comps}
    )


def _poly_text(coeffs: list) -> str:
    return " + ".join(f"({_angle_text(c)})*C(n,{k})" for k, c in enumerate(coeffs))


def _log_shift(rng: random.Random, top: int = 12) -> int:
    return 0 if rng.random() < 0.1 else int(10 ** rng.uniform(0, top))


# ------------------------------------------------------------ generation

# (kind, (level, m, symbols, trivial prefix), count); 40 ops per round
ALGEBRA_ROUND = (
    ("star", (6, 4, 2, 0), 8),
    ("inverse", (6, 4, 2, 0), 5),
    ("act", (6, 4, 2, 0), 5),
    ("commutator", (6, 4, 2, 0), 2),
    ("ast_mul", (6, 3, 2, 0), 3),
    ("coset_equal", (6, 3, 2, 0), 3),
    ("g_member", (6, 3, 2, 0), 2),
    ("kernel_member", (6, 3, 2, 0), 3),
    ("star", (8, 4, 2, 0), 2),
    ("inverse", (8, 4, 2, 0), 1),
    ("star", (6, 6, 2, 0), 2),
    ("star", (6, 4, 3, 0), 2),
    ("star", (6, 4, 2, 2), 1),
    ("commutator", (6, 4, 2, 2), 1),
)
ALGEBRA_ROUNDS = 8

WEYL_STREAM_KINDS = ("orbit", "quadratic", "cubic")
WEYL_STREAM_PER_KIND = 3
WEYL_STREAM_N = 10_000
WEYL_STREAM_ROUNDS = 12

# minimal periods (odd, prime to 6 for degree 3, several prime-power
# factors) and degrees.  The median lands among the degree-2 periods near
# 10^3.  Periods stop near 1.3*10^3 so that an op takes well under 0.1 s
# and is timed again ~30 times a run; longer ops drifted with the machine.
WEYL_PERIODIC_ROUND = (
    (143, 2), (175, 3), (187, 2), (245, 3), (209, 2), (221, 3),
    (1001, 2), (1105, 3), (935, 2), (1225, 3), (1045, 2),
    (1183, 3), (1015, 2), (1085, 3), (1155, 2), (1295, 3),
)
WEYL_PERIODIC_ROUNDS = 1

# (command, m, variant); see _gen_cli_op.  20 commands per round
CLI_ROUND = (
    ("star", 3, 0), ("star", 3, 0), ("star", 4, 0), ("star", 4, 0),
    ("inv", 3, 0), ("inv", 4, 0), ("inv", 4, 0),
    ("act", 3, 0), ("act", 4, 0), ("act", 4, 0),
    ("comm", 4, 0), ("comm", 4, 1),
    ("is-iterate", 4, 1), ("is-iterate", 4, 0),
    ("iterate", 2, 120), ("iterate", 3, 240),
    ("demo", 3, 0),
    ("weyl-poly", 0, 1), ("weyl-poly", 0, 0), ("weyl-char", 2, 0),
)
CLI_ROUNDS = 8
CLI_WEYL_N = 1000


def _gen_algebra_op(rng: random.Random, kind: str, shape: tuple) -> dict:
    L, m, d, prefix = shape
    op: dict = {"kind": kind, "shape": list(shape)}
    if kind in ("star", "inverse", "act", "commutator"):
        op["a"] = _gen_element(rng, L, m, d, prefix)
        op["b"] = _gen_element(rng, L, m, d)
        op["x"] = _gen_point(rng, L, d, m + 1)
    elif kind == "ast_mul":
        for key in ("a", "b", "c"):
            op[key] = _gen_element(rng, L, m, d)
        op["angles"] = _gen_point(rng, L, d, 4)  # x, y, z, x0
    elif kind == "coset_equal":
        op["a"] = _gen_g1(rng, L, m, in_g=False)
        op["same_coset"] = rng.random() < 0.5
        op["b"] = _gen_g1(rng, L, m, in_g=op["same_coset"])
    elif kind == "g_member":
        op["in_g"] = rng.random() < 0.5
        op["a"] = _gen_g1(rng, L, m, in_g=op["in_g"])
    elif kind == "kernel_member":
        op["spec"] = rng.randrange(3)
        op["member"] = rng.random() < 0.5
        op["a"] = (
            _gen_kernel_member(rng, L, m, op["spec"] + 1)
            if op["member"]
            else _gen_element(rng, L, m, d, nonzero_r1=True)
        )
    return op


def _gen_weyl_stream_op(rng: random.Random, kind: str) -> dict:
    small = lambda: str(Fraction(rng.randrange(-12, 13), rng.choice((1, 2, 3, 5, 7, 12))))
    if kind == "orbit":
        start = [[small(), [["b2", small()]]], ["0", []]]  # orbit start (x1, x2)
        return {"kind": kind, "point": start, "N": WEYL_STREAM_N, "shift": _log_shift(rng)}
    if kind == "quadratic":
        coeffs = [[small(), []], [small(), [["b2", small()]]], ["0", [["b1", "1"]]]]
    else:
        coeffs = [
            [small(), [["b1", small()]]],
            [small(), []],
            ["0", [["b1", small()]]],
            [small(), [["b2", str(Fraction(rng.randrange(1, 6), rng.choice((1, 2, 3))))]]],
        ]
    return {"kind": kind, "coeffs": coeffs, "N": WEYL_STREAM_N, "shift": _log_shift(rng)}


def _gen_weyl_periodic_op(rng: random.Random, D: int, deg: int) -> dict:
    a = rng.randrange(1, D)
    while gcd(a, D) != 1:
        a = rng.randrange(1, D)
    # every coefficient nonzero over D: the cost then depends on (D, degree) only
    coeffs = [[str(Fraction(rng.randrange(1, D), D)), []] for _ in range(deg)]
    coeffs.append([str(Fraction(a, D)), []])
    return {"kind": f"deg{deg}", "period": D, "coeffs": coeffs, "shift": rng.randrange(10**6)}


def _gen_cli_op(rng: random.Random, kind: str, m: int, variant: int) -> dict:
    """One CLI command; (kind, m, variant) is the slot, the rest is seeded.

    variant: trivial prefix for comm, 1 for a genuine iterate in is-iterate,
    |n| for iterate, 1 for an irrational polynomial in weyl-poly.
    """
    L, M = 6, 720
    if kind in ("star", "comm"):
        a = _gen_element(rng, L, m, 2, variant if kind == "comm" else 0)
        b = _gen_element(rng, L, m, 2)
        argv = ["ellis", kind, "--a", _element_json(a), "--b", _element_json(b)]
        return {"kind": kind, "argv": argv}
    if kind == "inv":
        a = _gen_element(rng, L, m, 2)
        return {"kind": kind, "argv": ["ellis", "inv", "--a", _element_json(a)]}
    if kind == "act":
        a = _gen_element(rng, L, m, 2)
        point = ",".join(_angle_text(x) for x in _gen_point(rng, L, 2, m + 1))
        return {"kind": kind, "argv": ["ellis", "act", "--a", _element_json(a), "--point", point]}
    if kind == "is-iterate":
        if variant:
            n = rng.randrange(-500, 501)
            el = {"level": L, "d": 2, "comps": [_power_endo(M, 2, _binom(n, k)) for k in range(m + 1)]}
            expected = n
        else:
            el = _gen_element(rng, L, m, 2, nonzero_r1=True)
            expected = None
        argv = ["ellis", "is-iterate", "--a", _element_json(el)]
        return {"kind": kind, "argv": argv, "expected": expected}
    if kind == "iterate":
        x0 = _angle_text(_gen_angle(rng, M, 2))
        point = ", ".join(_angle_text(x) for x in _gen_point(rng, L, 2, m))
        n = variant * rng.choice((1, -1))
        argv = ["iterate", "--m", str(m), "--x0", x0, "--point", point, "--n", str(n), "--oracle"]
        return {"kind": kind, "argv": argv}
    if kind == "demo":
        return {"kind": kind, "argv": ["factor-lab", "demo"]}
    shifts = f"0,{_log_shift(rng)}"
    tail = ["--N", str(CLI_WEYL_N), "--shifts", shifts, "--tol", "3"]
    if kind == "weyl-poly":
        if variant:
            coeffs = [_gen_angle(rng, 12, 2), _gen_angle(rng, 12, 2), ["0", [["b1", "1"]]]]
        else:  # degree 3 over 11: period 11
            coeffs = [[str(Fraction(rng.randrange(1, 11), 11)), []] for _ in range(4)]
        return {"kind": kind, "argv": ["weyl", "--poly", _poly_text(coeffs)] + tail}
    point = ",".join(_angle_text(x) for x in _gen_point(rng, L, 2, 2))
    return {"kind": kind, "argv": ["weyl", "--char", "1", "--point", point] + tail}


def _binom(n: int, k: int) -> int:
    """binom(n, k) for any integer n; negative n via (-1)^k binom(k - n - 1, k)."""
    return comb(n, k) if n >= 0 else (-1) ** k * comb(k - n - 1, k)


def _expand(spec: tuple) -> list:
    return [(kind, shape) for kind, shape, count in spec for _ in range(count)]


def generate(workload: str, seed: int) -> dict:
    """Plain-data inputs of one workload; depends on (workload, seed) only."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    rounds = []
    if workload == "algebra":
        slots = _expand(ALGEBRA_ROUND)
        for _ in range(ALGEBRA_ROUNDS):
            rng.shuffle(slots)
            rounds.append([_gen_algebra_op(rng, k, s) for k, s in slots])
    elif workload == "weyl-stream":
        slots = [k for k in WEYL_STREAM_KINDS for _ in range(WEYL_STREAM_PER_KIND)]
        for _ in range(WEYL_STREAM_ROUNDS):
            rng.shuffle(slots)
            rounds.append([_gen_weyl_stream_op(rng, k) for k in slots])
    elif workload == "weyl-periodic":
        slots = list(WEYL_PERIODIC_ROUND)
        for _ in range(WEYL_PERIODIC_ROUNDS):
            rng.shuffle(slots)
            rounds.append([_gen_weyl_periodic_op(rng, D, deg) for D, deg in slots])
    elif workload == "cli":
        slots = list(CLI_ROUND)
        for _ in range(CLI_ROUNDS):
            rng.shuffle(slots)
            rounds.append([_gen_cli_op(rng, *slot) for slot in slots])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "rounds": rounds}


# --------------------------------------------------------------- building


class _Contexts:
    """One TruncationContext per (level, symbols), shared by all ops."""

    def __init__(self) -> None:
        self._ctx: dict = {}

    def basis(self, d: int) -> circle.BasisDecl:
        return circle.BasisDecl.from_decimals({s: BASIS_DECIMALS[s] for s in SYMBOLS[:d]})

    def get(self, level: int, d: int) -> endo.TruncationContext:
        key = (level, d)
        if key not in self._ctx:
            self._ctx[key] = endo.TruncationContext(level, self.basis(d))
        return self._ctx[key]


def _angle(a: list) -> circle.Angle:
    return circle.Angle(Fraction(a[0]), [(s, Fraction(c)) for s, c in a[1]])


def _element(el: dict, ctxs: _Contexts) -> ellis.HmElement:
    ctx = ctxs.get(el["level"], el["d"])
    comps = tuple(
        endo.TruncEndo(ctx, r, tuple(_angle(a) for a in imgs)) for r, imgs in el["comps"]
    )
    return ellis.HmElement(ctx, comps)


def _element_canon(el: ellis.HmElement) -> str:
    return json.dumps(el.to_dict(), sort_keys=True)


def _build_algebra(op: dict, ctxs: _Contexts) -> Op:
    kind = op["kind"]
    L, m, _, _ = op["shape"]
    if kind in ("star", "inverse", "act", "commutator"):
        a, b = _element(op["a"], ctxs), _element(op["b"], ctxs)
        x = tuple(_angle(v) for v in op["x"])
        ident = ellis.HmElement.identity(a.ctx, m)
        if kind == "star":
            return Op(kind, lambda: a * b, _element_canon,
                      lambda out: out.act(x) == a.act(b.act(x)))
        if kind == "inverse":
            return Op(kind, lambda: a.inverse(), _element_canon,
                      lambda out: a * out == ident and out * a == ident)
        if kind == "act":
            return Op(kind, lambda: a.act(x), lambda out: ", ".join(map(str, out)),
                      lambda out: a.inverse().act(out) == x)
        return Op(kind, lambda: ellis.commutator(a, b), _element_canon,
                  lambda out: out * ellis.commutator(b, a) == ident)
    if kind == "ast_mul":
        els = [_element(op[k], ctxs) for k in ("a", "b", "c")]
        x, y, z, x0 = (_angle(v) for v in op["angles"])
        pa, pb, pc = (els[0], x), (els[1], y), (els[2], z)

        def assoc(out: tuple) -> bool:
            lhs = ellis.ast_mul(out, pc, x0)
            rhs = ellis.ast_mul(pa, ellis.ast_mul(pb, pc, x0), x0)
            return out[0] == els[0] * els[1] and lhs == rhs

        return Op(kind, lambda: ellis.ast_mul(pa, pb, x0),
                  lambda out: _element_canon(out[0]) + " " + str(out[1]), assoc)
    fcfg = factor_lab.FactorConfig(ctxs.get(L, 2), "b1", m)
    a = _element(op["a"], ctxs)
    if kind == "coset_equal":
        g = _element(op["b"], ctxs)
        b = a * g if op["same_coset"] else g  # a * (member of G) shares a's coset
        expect = True if op["same_coset"] else None

        def coset_ok(out: bool) -> bool:
            if expect is not None and out != expect:
                return False
            return out == factor_lab.g_member(a.inverse() * b, fcfg)

        return Op(kind, lambda: factor_lab.coset_equal(a, b, fcfg), str, coset_ok)
    if kind == "g_member":
        # phi_1 kills 2x and has residue 0 by construction; phi_2(x) is the b1 image
        expect = _is_zero_angle(op["a"]["comps"][2][1][0])
        return Op(kind, lambda: factor_lab.g_member(a, fcfg), str, lambda out: out == expect)
    spec = factor_lab.default_kernel_specs(fcfg)[op["spec"]]
    expect = op["member"]
    return Op(kind, lambda: factor_lab.kernel_member(a, spec), str, lambda out: out == expect)


def _build_weyl_stream(op: dict, ctxs: _Contexts) -> Op:
    basis = ctxs.basis(2)
    if op["kind"] == "orbit":
        system = dynamics.BasicSystem(2, circle.Angle(0, {"b1": 1}))  # default system
        start = [_angle(x) for x in op["point"]]
        poly = dynamics.orbit_polynomial(system, dynamics.CharacterIndex.basis(1), start)
    else:
        poly = dynamics.PolyAngle([_angle(c) for c in op["coeffs"]])
    N, shift = op["N"], op["shift"]

    def pointwise(out: complex) -> bool:
        # one sample must equal the exact pointwise phase, bit for bit
        first = weyl.weyl_average(poly, 1, shift, basis)
        exact = circle.angle_to_unit(poly.evaluate(shift + 1), basis)
        return repr(first) == repr(exact) and math.isfinite(abs(out)) and abs(out) <= 1 + 1e-12

    return Op(op["kind"], lambda: weyl.weyl_average(poly, N, shift, basis), repr, pointwise, N)


def _build_weyl_periodic(op: dict, ctxs: _Contexts) -> Op:
    basis = ctxs.basis(2)
    poly = dynamics.PolyAngle([_angle(c) for c in op["coeffs"]])
    period, shift = op["period"], op["shift"]

    def call() -> tuple:
        target = weyl.equidistribution_target(poly, basis)
        return target, weyl.weyl_average(poly, period, shift, basis)

    def check(out: tuple) -> bool:
        target, avg = out
        return abs(avg - target) < 1e-10 and weyl.minimal_period(poly) == period

    return Op(op["kind"], call, lambda out: f"{out[0]!r} {out[1]!r}", check, period)


def _run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _json_lines(text: str) -> list | None:
    try:
        rows = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError:
        return None
    return rows if rows and all(isinstance(r, dict) for r in rows) else None


def _build_cli(op: dict, ctxs: _Contexts) -> Op:
    kind, argv = op["kind"], op["argv"]
    ctx = ctxs.get(6, 2)

    def from_arg(flag: str) -> ellis.HmElement:
        return ellis.HmElement.from_dict(json.loads(argv[argv.index(flag) + 1]), ctx)

    def semantic(row: dict) -> bool:
        if kind == "star":
            return row == (from_arg("--a") * from_arg("--b")).to_dict()
        if kind == "inv":
            return row == from_arg("--a").inverse().to_dict()
        if kind == "comm":
            return row["predicted_agrees"] is True
        if kind == "is-iterate":
            return row == {"n": op["expected"]}
        if kind == "iterate":
            return row["agrees"] is True
        if kind == "demo":
            return row["report"]["pass"] is True
        if kind.startswith("weyl"):
            return row["pass"] is True and len(row["rows"]) == 2
        return "point" in row

    def check(out: tuple) -> bool:
        code, text = out
        rows = _json_lines(text)
        return code == 0 and rows is not None and semantic(rows[-1])

    return Op(kind, lambda: _run_cli(argv), lambda out: f"{out[0]}\n{out[1]}", check)


_BUILDERS = {
    "algebra": _build_algebra,
    "weyl-stream": _build_weyl_stream,
    "weyl-periodic": _build_weyl_periodic,
    "cli": _build_cli,
}


def build(data: dict) -> list[list[Op]]:
    """Program objects for each round of generated inputs."""
    ctxs = _Contexts()
    make = _BUILDERS[data["workload"]]
    return [[make(op, ctxs) for op in rnd] for rnd in data["rounds"]]


def trace_selection(workload: str, data: dict) -> list[tuple[int, int]]:
    """(round, index) of the ops a traced run executes, in order: every
    distinct op once for algebra and cli, the first round for the Weyl
    workloads (a few hundred thousand spans at most)."""
    rounds = data["rounds"]
    if workload in ("weyl-stream", "weyl-periodic"):
        rounds = rounds[:1]
    return [(r, i) for r in range(len(rounds)) for i in range(len(rounds[r]))]


# ------------------------------------------------------------------ probe

_PROBE_A = '{"level": 6, "basis": ["b1", "b2"], "m": 3, "comps": [' \
    '{"residue": 1, "images": {"b1": "1/720*b1", "b2": "1/720*b2"}}, ' \
    '{"residue": 5, "images": {"b1": "1/3 + 1/144*b1", "b2": "1/144*b2"}}, ' \
    '{"residue": 10, "images": {"b1": "1/72*b1", "b2": "1/4 - 1/72*b2"}}, ' \
    '{"residue": 10, "images": {"b1": "1/72*b1 + 1/72*b2", "b2": "1/72*b2"}}]}'
_PROBE_ARGVS = (
    ["ellis", "comm", "--a", _PROBE_A, "--b", _PROBE_A],
    ["ellis", "act", "--a", _PROBE_A, "--point", "0, 1/4, 1/720*b1, 0"],
    ["iterate", "--n", "7", "--point", "1/6, 1/7 + 2*b2", "--oracle"],
    ["weyl", "--poly", "1/7*C(n,2)", "--N", "50", "--shifts", "0", "--tol", "3"],
    ["weyl", "--char", "1", "--N", "50", "--shifts", "0", "--tol", "3"],
    ["factor-lab", "demo"],
    ["factor-lab", "kernel", "--samples", "1", "--seed", "1"],
)


def probe() -> Op:
    """Fixed op touching every traced function at least once.

    Runs first in every traced run so that each per-layer metric has a
    call on every workload; its counts are the same on every workload.
    """
    ctxs = _Contexts()
    ctx = ctxs.get(6, 2)
    rng = random.Random("perfbench:probe")
    pairs = [(_element(_gen_element(rng, 6, 2, 2), ctxs), _angle(_gen_angle(rng, 720, 2)))
             for _ in range(2)]
    x0 = _angle(_gen_angle(rng, 720, 2))
    fcfg = factor_lab.FactorConfig(ctx, "b1", 3)
    g1 = _element(_gen_g1(rng, 6, 3, in_g=True), ctxs)

    def call() -> tuple:
        codes = tuple(_run_cli(argv)[0] for argv in _PROBE_ARGVS)
        return codes, ellis.ast_mul(pairs[0], pairs[1], x0), factor_lab.g_member(g1, fcfg)

    def canon(out: tuple) -> str:
        codes, (el, angle), member = out
        return f"{codes} {_element_canon(el)} {angle} {member}"

    return Op("probe", call, canon, lambda out: set(out[0]) == {0} and out[2] is True)
