"""Seeded property-check suites behind the `check` CLI command.

Each suite is a named function drawing randomness from its own
random.Random seeded with "<seed>:<suite-name>", so any suite reruns in
isolation and `check all` output is byte-reproducible for a fixed seed.
Suites draw elements in the dimension their checks read and record their
cases in a SuiteResult; the runner times them, runs them sorted by suite
id, and refuses a selection whose declared dimension or minimum level the
level cannot hold, before any suite starts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import islice
from math import factorial, gcd
from typing import Callable, Iterator

from .circle import Angle, ZERO, angle_to_unit, format_point, parse_point
from .combinatorics import binom, stirling1
from .config import Config
from .dynamics import (
    BasicSystem,
    CharacterIndex,
    PolyAngle,
    ambient_iterate,
    diagonal_representation,
    index_shift,
    orbit_polynomial,
    q_eval,
)
from .ellis import HmElement, ast_mul, commutator, predicted_commutator
from .endo import TruncEndo, decompose, minimal_level
from .errors import ConfigurationError, MembershipError, TruncationError, shown
from .factor_lab import (
    FactorConfig,
    coset_equal,
    default_kernel_specs,
    g1_member,
    g_member,
    kernel_member,
    nonseparation_witness,
    pair_correction,
    qef_coset_constant,
    qef_index_family,
)
from .samplers import (
    rand_angle,
    rand_element,
    rand_endo,
    rand_free_angle,
    rand_g1,
    rand_kernel_member,
)
from .weyl import (
    _units,
    equidistribution_report,
    equidistribution_target,
    minimal_period,
    unique_ergodicity_check,
    weyl_average,
)


@dataclass
class SuiteResult:
    """A suite's case count, failure count and first few failure texts."""

    suite: str
    cases: int = 0
    failures: int = 0
    samples: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def check(self, ok: bool, describe: str, *args: object) -> None:
        """Count one case; a failure records describe.format(*args)."""
        self.cases += 1
        if not ok:
            self.failures += 1
            if len(self.samples) < 3:
                self.samples.append(describe.format(*args))

    def to_dict(self, reproducible: bool = False) -> dict:
        out: dict = {
            "suite": self.suite,
            "cases": self.cases,
            "failures": self.failures,
            "samples": self.samples,
            "pass": self.passed,
        }
        if not reproducible:
            out["elapsed_s"] = round(self.elapsed, 3)
        return out


class CheckEnv:
    """Configuration, a per-suite RNG and the element dimension m."""

    def __init__(self, cfg: Config, rng: random.Random, m: int) -> None:
        self.cfg = cfg
        self.rng = rng
        self.ctx = cfg.context()
        self.basis = self.ctx.basis
        self.m = m


SuiteFn = Callable[[CheckEnv, SuiteResult], None]
REGISTRY: dict[str, tuple[SuiteFn, int | str | None, int]] = {}


def suite(
    name: str, dim: int | str | None = None, level: int = 2
) -> Callable[[SuiteFn], SuiteFn]:
    """Register a suite whose checks read elements up to dimension dim: a
    number, a Config field name, or None for min(4, level), which always
    fits.  ``level`` is the lowest level the suite's fixed angles need."""

    def register(fn: SuiteFn) -> SuiteFn:
        REGISTRY[name] = (fn, dim, level)
        return fn

    return register


def _dimension(name: str, cfg: Config) -> int:
    _, dim, min_level = REGISTRY[name]
    if cfg.level < min_level:
        raise ConfigurationError(
            f"check suite {name} cannot run at level {cfg.level}: "
            f"needs level >= {min_level}"
        )
    if dim is None:
        return min(4, cfg.level)
    m = getattr(cfg, dim) if isinstance(dim, str) else dim
    if not 1 <= m <= cfg.level:
        raise ConfigurationError(
            f"check suite {name} cannot run at level {cfg.level}: "
            f"need 1 <= m <= level, got m={m}"
        )
    return m


def run_suites(
    cfg: Config, seed: int, selector: str = "all"
) -> Iterator[SuiteResult]:
    """Run the selected suites in name order, yielding each result as it
    finishes, so a later suite that raises loses none of the earlier ones.
    A selection with a suite the level cannot hold raises before any runs."""
    names = sorted(
        n
        for n in REGISTRY
        if selector == "all" or n == selector or n.startswith(selector + ".")
    )
    if not names:
        raise ConfigurationError(f"no check suite matches {shown(selector)}")
    dims = {name: _dimension(name, cfg) for name in names}
    for name in names:
        env = CheckEnv(cfg, random.Random(f"{seed}:{name}"), dims[name])
        rec = SuiteResult(name)
        t0 = time.perf_counter()
        REGISTRY[name][0](env, rec)
        rec.elapsed = time.perf_counter() - t0
        yield rec


def _raises(exc: type[Exception], fn: Callable, *args) -> bool:
    """Whether fn(*args) raises exc."""
    try:
        fn(*args)
    except exc:
        return True
    return False


def _swap(
    el: HmElement, k: int, residue: int | None = None,
    images: dict[int, Angle] | None = None,
) -> HmElement:
    """el with component k rebuilt: a new residue mod M, images replaced by index."""
    ctx, comp = el.ctx, el.comps[k]
    rows = list(comp.rows)
    for i, img in (images or {}).items():
        rows[i] = ctx.row(img)
    residue = comp.residue if residue is None else residue % ctx.modulus
    comps = list(el.comps)
    comps[k] = TruncEndo._from_rows(ctx, residue, tuple(rows))
    return HmElement(ctx, tuple(comps))


# ------------------------------------------------------------ combinatorics


@suite("comb.pascal")
def _comb_pascal(env: CheckEnv, rec: SuiteResult) -> None:
    for n in range(-100, 101):
        for k in range(0, 21):
            if k == 0:
                rec.check(binom(n, 0) == 1, f"binom({n},0) != 1")
            else:
                ok = binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)
                rec.check(ok, f"pascal fails at n={n}, k={k}")


@suite("comb.vandermonde")
def _comb_vandermonde(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    for _ in range(5000):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        k = rng.randint(0, 12)
        total = sum(binom(a, j) * binom(b, k - j) for j in range(k + 1))
        rec.check(
            binom(a + b, k) == total, f"vandermonde fails at a={a}, b={b}, k={k}"
        )


@suite("comb.stirling")
def _comb_stirling(env: CheckEnv, rec: SuiteResult) -> None:
    for n in range(-30, 31):
        for k in range(0, 13):
            lhs = factorial(k) * binom(n, k)
            rhs = sum(stirling1(k, j) * n**j for j in range(k + 1))
            rec.check(lhs == rhs, f"stirling identity fails at n={n}, k={k}")


@suite("comb.negation")
def _comb_negation(env: CheckEnv, rec: SuiteResult) -> None:
    for n in range(-50, 1):
        for k in range(0, 13):
            ok = binom(n, k) == (-1) ** k * binom(-n + k - 1, k)
            rec.check(ok, f"negation identity fails at n={n}, k={k}")


# ------------------------------------------------------------------ circle


@suite("circle.group")
def _circle_group(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    for _ in range(10_000):
        a = rand_free_angle(rng, env.ctx)
        b = rand_free_angle(rng, env.ctx)
        c = rand_free_angle(rng, env.ctx)
        rec.check((a + b) + c == a + (b + c), "assoc fails: {}, {}, {}", a, b, c)
        rec.check(a + b == b + a, "commutativity fails: {}, {}", a, b)
        rec.check(not (a + (-a)), "inverse fails: {}", a)
        rec.check(Angle.parse(str(a)) == a, "round-trip fails: {}", a)


@suite("circle.unit-hom")
def _circle_unit_hom(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    for _ in range(2000):
        a = rand_free_angle(rng, env.ctx)
        b = rand_free_angle(rng, env.ctx)
        lhs = angle_to_unit(a + b, env.basis)
        rhs = angle_to_unit(a, env.basis) * angle_to_unit(b, env.basis)
        rec.check(
            abs(lhs - rhs) < 1e-12, "unit morphism drift at {}, {}", a, b
        )


@suite("circle.scaling")
def _circle_scaling(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    for _ in range(2000):
        a = rand_free_angle(rng, env.ctx)
        b = rand_free_angle(rng, env.ctx)
        n = rng.randint(-30, 30)
        p = rng.randint(-30, 30)
        rec.check(n * (a + b) == n * a + n * b, "scaling additivity: {}, {}, {}", n, a, b)
        rec.check((n + p) * a == n * a + p * a, "scalar addition: {}, {}, {}", n, p, a)
        k = rng.randrange(1, 60)
        t = Angle.parse(f"{k}/60")
        rec.check(t.torsion_order() == 60 // gcd(k, 60), "torsion order: {}", t)
        # the order kills a and no proper divisor of it does; den does not
        # kill a non-torsion angle
        order = a.torsion_order()
        if order is None:
            torsion_ok = bool(a.cs) and a.den * a != ZERO
        else:
            torsion_ok = order * a == ZERO and all(
                d * a != ZERO for d in range(1, order) if order % d == 0
            )
        rec.check(torsion_ok, "torsion classification: {}", a)


# -------------------------------------------------------------------- endo


@suite("endo.evaluation")
def _endo_eval(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    ctx = env.ctx
    for _ in range(2000):
        phi = rand_endo(rng, ctx)
        a = rand_angle(rng, ctx)
        b = rand_angle(rng, ctx)
        rec.check(phi(a + b) == phi(a) + phi(b), "additivity: {}, {}", a, b)
        n = rng.randint(-50, 50)
        rec.check(
            TruncEndo.power(ctx, n)(a) == n * a, "power map at n={}: {}", n, a
        )
    for i, s in enumerate(ctx.basis.symbols):
        phi = rand_endo(rng, ctx)
        rec.check(
            phi(ctx.generator(s)) == phi.images[i],
            f"generator image mismatch at {s}",
        )


@suite("endo.compose")
def _endo_compose(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    ctx = env.ctx
    ident = TruncEndo.power(ctx, 1)
    for _ in range(1000):
        f = rand_endo(rng, ctx)
        g = rand_endo(rng, ctx)
        h = rand_endo(rng, ctx)
        a = rand_angle(rng, ctx)
        rec.check(f.compose(g)(a) == f(g(a)), "compose/eval compatibility")
        rec.check(
            f.compose(g).compose(h) == f.compose(g.compose(h)),
            "compose associativity",
        )
        rec.check(f.compose(ident) == f and ident.compose(f) == f,
                  "identity laws")


@suite("endo.module")
def _endo_module(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    ctx = env.ctx
    zero = TruncEndo.power(ctx, 0)
    for _ in range(1000):
        f = rand_endo(rng, ctx)
        g = rand_endo(rng, ctx)
        h = rand_endo(rng, ctx)
        a = rand_angle(rng, ctx)
        rec.check((f * g)(a) == f(a) + g(a), "pointwise sum evaluation")
        rec.check(f * g == g * f, "pointwise sum commutativity")
        rec.check(f * f.conj() == zero, "pointwise inverse")
        rec.check(
            (f * g).compose(h) == f.compose(h) * g.compose(h),
            "right distributivity",
        )
        rec.check(
            f.compose(g * h) == f.compose(g) * f.compose(h),
            "left distributivity (additivity of f)",
        )


@suite("endo.closure")
def _endo_closure(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    ctx = env.ctx
    M = ctx.modulus
    for _ in range(500):
        f = rand_endo(rng, ctx)
        g = rand_endo(rng, ctx)
        for out in (f.compose(g), f * g, f.conj()):
            rec.check(TruncEndo(ctx, out.residue, out.images) == out, "closure violated")
        a = rand_angle(rng, ctx)
        p, coords = decompose(a, ctx)
        rebuilt = p * ctx.torsion_generator() + sum(
            (c * ctx.generator(s) for s, c in coords.items()), ZERO
        )
        rec.check(rebuilt == a, "decompose round-trip: {}", a)
    # minimal-level reporting
    bad = Angle.parse(f"1/{7 * M}")
    try:
        decompose(bad, ctx)
        rec.check(False, "decompose accepted an unrepresentable angle")
    except TruncationError as exc:
        lvl = exc.required_level
        ok = factorial(lvl) % (7 * M) == 0 and factorial(lvl - 1) % (7 * M) != 0
        rec.check(ok, f"reported level {lvl} is not minimal")
        rec.check(lvl == minimal_level(bad), "minimal_level mismatch")


# ------------------------------------------------------------------- ellis


@suite("ellis.membership")
def _ellis_membership(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    ctx = env.ctx
    for _ in range(300):
        m = rng.randint(2, env.m)
        el = rand_element(rng, ctx, m)
        rec.check(
            not _raises(MembershipError, HmElement.validate, ctx, el.comps),
            "sampled element fails membership",
        )
        # tamper: bump a residue off its solution set (none at k = L)
        k = rng.randint(2, m)
        if k == ctx.level:
            continue
        bad = _swap(el, k, el.comps[k].residue + ctx.modulus // factorial(k) - 1)
        rec.check(
            _raises(MembershipError, HmElement.validate, ctx, bad.comps),
            f"tampered residue at k={k} accepted",
        )
    for n in (-7, -1, 0, 1, 2, 13):
        tilde = HmElement.tilde(ctx, n, env.m)
        rec.check(
            not _raises(MembershipError, HmElement.validate, ctx, tilde.comps),
            f"tilde({n}) fails membership",
        )


@suite("ellis.group")
def _ellis_group(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    ctx = env.ctx
    m = env.m
    ident = HmElement.identity(ctx, m)
    for _ in range(1000):
        a = rand_element(rng, ctx, m)
        b = rand_element(rng, ctx, m)
        c = rand_element(rng, ctx, m)
        ab = a * b
        rec.check((ab * c) == a * (b * c), "star associativity")
        rec.check(a * ident == a and ident * a == a, "identity laws")
        inv = a.inverse()
        rec.check(inv * a == ident and a * inv == ident, "inverse laws")
        for out in (ab, inv):
            rec.check(
                not _raises(MembershipError, HmElement.validate, ctx, out.comps),
                "closure violated",
            )


@suite("ellis.tilde-hom")
def _ellis_tilde_hom(env: CheckEnv, rec: SuiteResult) -> None:
    ctx = env.ctx
    m = env.m
    cache = {n: HmElement.tilde(ctx, n, m) for n in range(-40, 41)}
    for a in range(-20, 21):
        for b in range(-20, 21):
            rec.check(
                cache[a] * cache[b] == cache[a + b],
                f"tilde hom fails at {a}, {b}",
            )
    for a in range(-20, 21):
        rec.check(cache[a].inverse() == cache[-a], f"tilde inverse at {a}")
        rec.check(cache[a].is_iterate() == a, f"is_iterate misses {a}")


@suite("ellis.iterate-detect")
def _ellis_iterate_detect(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    ctx = env.ctx
    for _ in range(200):
        n = rng.randint(-100, 100)
        m = rng.randint(2, env.m)
        el = HmElement.tilde(ctx, n, m)
        rec.check(el.is_iterate() == n, f"tilde({n}) not detected")
        # perturb one image off the integer-point pattern
        k = rng.randint(1, m)
        nudge = ctx.generator(ctx.basis.symbols[0])
        off = _swap(el, k, images={0: el.comps[k].images[0] + nudge})
        rec.check(off.is_iterate() is None, f"perturbed tilde({n}) still detected")
        el2 = rand_element(rng, ctx, m)
        found = el2.is_iterate()
        rec.check(
            found is None or el2 == HmElement.tilde(ctx, found, m),
            "is_iterate returned a wrong index",
        )


@suite("ellis.commutator")
def _ellis_commutator(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    ctx = env.ctx
    m = env.m
    for k in (0, 1, 2):
        for _ in range(200):
            a = rand_element(rng, ctx, m, trivial_prefix=k)
            b = rand_element(rng, ctx, m)
            com = commutator(a, b)
            n = a.central_level()
            rec.check(
                com.central_level() >= min(m, n + 1),
                f"escalation fails at prefix {k}",
            )
            pred = predicted_commutator(a, b)
            rec.check(
                com.truncate(pred.m) == pred,
                f"predicted form disagrees at prefix {k}",
            )


@suite("ellis.central")
def _ellis_central(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    ctx = env.ctx
    m = env.m
    rec.check(HmElement.identity(ctx, m).central_level() == m, "identity level")
    rec.check(HmElement.tilde(ctx, 1, m).central_level() == 0, "tilde(1) level")
    gens = {i: ctx.generator(s) for i, s in enumerate(ctx.basis.symbols)}
    only_top = _swap(HmElement.identity(ctx, m), m, images=gens)
    rec.check(only_top.central_level() == m - 1, "only-top level")
    for _ in range(300):
        k = rng.randint(0, m)
        a = rand_element(rng, ctx, m, trivial_prefix=k)
        b = rand_element(rng, ctx, m, trivial_prefix=rng.randint(0, m))
        la, lb = a.central_level(), b.central_level()
        rec.check(la >= k, f"sampler broke prefix {k}")
        rec.check(
            (a * b).central_level() >= min(la, lb), "product prefix drops"
        )
        rec.check(a.inverse().central_level() == la, "inverse prefix moved")


@suite("ellis.action", dim=3)
def _ellis_action(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    ctx = env.ctx
    m = env.m
    for _ in range(500):
        a = rand_element(rng, ctx, m)
        b = rand_element(rng, ctx, m)
        pt = tuple(rand_angle(rng, ctx) for _ in range(m + 1))
        rec.check(
            (a * b).act(pt) == a.act(b.act(pt)), "action homomorphism"
        )
        n = rng.randint(-30, 30)
        rec.check(
            HmElement.tilde(ctx, n, m).act(pt) == ambient_iterate(pt, n),
            f"integer point action != closed-form iterate at n={n}",
        )
        rec.check(
            HmElement.identity(ctx, m).act(pt) == pt, "identity action"
        )


@suite("ellis.extension")
def _ellis_extension(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    ctx = env.ctx
    x0 = env.cfg.system().x0
    m = 3  # pairs live one dimension down
    ident = (HmElement.identity(ctx, m - 1), ZERO)
    for _ in range(500):
        a = (rand_element(rng, ctx, m - 1), rand_angle(rng, ctx))
        b = (rand_element(rng, ctx, m - 1), rand_angle(rng, ctx))
        c = (rand_element(rng, ctx, m - 1), rand_angle(rng, ctx))
        lhs = ast_mul(ast_mul(a, b, x0), c, x0)
        rhs = ast_mul(a, ast_mul(b, c, x0), x0)
        rec.check(lhs == rhs, "extension law associativity")
        rec.check(
            ast_mul(ident, a, x0) == a and ast_mul(a, ident, x0) == a,
            "extension identity",
        )


@suite("ellis.roundtrip")
def _ellis_roundtrip(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    ctx = env.ctx
    for _ in range(100):
        el = rand_element(rng, ctx, rng.randint(2, env.m))
        rec.check(
            HmElement.from_dict(el.to_dict(), ctx) == el,
            "element JSON round-trip",
        )
        f = rand_endo(rng, ctx)
        rec.check(
            TruncEndo.from_dict(f.to_dict(), ctx) == f, "endo JSON round-trip"
        )


# ---------------------------------------------------------------- dynamics


@suite("dynamics.step")
def _dynamics_step(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    ctx = env.ctx
    for _ in range(500):
        m = rng.randint(1, 5)
        sys = BasicSystem(m, rand_free_angle(rng, ctx))
        x = tuple(rand_free_angle(rng, ctx) for _ in range(m))
        rec.check(sys.inverse_step(sys.step(x)) == x, "inverse after step")
        rec.check(sys.step(sys.inverse_step(x)) == x, "step after inverse")
        rec.check(sys.iterate(x, 1) == sys.step(x), "iterate at n=1")
        rec.check(sys.iterate(x, -1) == sys.inverse_step(x), "iterate at n=-1")
        rec.check(sys.iterate(x, 0) == x, "iterate at n=0")


@suite("dynamics.iterate")
def _dynamics_iterate(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    ctx = env.ctx
    for _ in range(100):
        m = rng.randint(1, 5)
        sys = BasicSystem(m, rand_free_angle(rng, ctx))
        x = tuple(rand_free_angle(rng, ctx) for _ in range(m))
        n = rng.randint(-50, 50)
        rec.check(sys.iterate(x, n) == sys.steps(x, n), f"closed form differs at n={n}")
        t = rng.randint(-10, 10)
        rec.check(
            sys.iterate(sys.iterate(x, n), t) == sys.iterate(x, n + t),
            "iterate flow law",
        )


@suite("dynamics.orbit-poly")
def _dynamics_orbit_poly(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    ctx = env.ctx
    sys = env.cfg.system()
    m = sys.m
    for _ in range(200):
        x = tuple(rand_free_angle(rng, ctx) for _ in range(m))
        k = rng.randint(1, m)
        e = rng.choice([-3, -2, -1, 1, 2, 3])
        v = CharacterIndex.make({k: e})
        p = orbit_polynomial(sys, v, x)
        rec.check(p.degree == k, f"degree law fails for e_{k}^{e}")
        rec.check(
            p.coefficient(k) == e * sys.x0, "leading coefficient is not e*x0"
        )
        for n in range(-20, 21):
            rec.check(
                p.evaluate(n) == v.eval(sys.iterate(x, n)),
                f"orbit value differs at n={n}",
            )
        t = rng.randint(-15, 15)
        n = rng.randint(-15, 15)
        rec.check(
            p.shift(t).evaluate(n) == p.evaluate(n + t), "shift law"
        )
        rec.check(
            p.difference().evaluate(n) == p.evaluate(n + 1) - p.evaluate(n),
            "difference law",
        )
        rec.check(
            orbit_polynomial(sys, v, sys.iterate(x, t)) == p.shift(t),
            "orbit polynomial of a shifted point",
        )


@suite("dynamics.q-map")
def _dynamics_q_map(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    ctx = env.ctx
    m = env.m
    one = HmElement.tilde(ctx, 1, m)
    for _ in range(100):
        phi = rand_element(rng, ctx, m)
        v = tuple(rand_angle(rng, ctx) for _ in range(m + 1))
        w = tuple(rand_angle(rng, ctx) for _ in range(m + 1))
        rec.check(
            q_eval(v, one * phi) == q_eval(index_shift(v), phi),
            "translation/shift intertwining",
        )
        rec.check(
            q_eval(tuple(a + b for a, b in zip(v, w)), phi)
            == q_eval(v, phi) + q_eval(w, phi),
            "q additivity in the index vector",
        )
        if v != w:
            probes = [
                q_eval(v, HmElement.tilde(ctx, n, m))
                == q_eval(w, HmElement.tilde(ctx, n, m))
                for n in range(m + 1)
            ]
            rec.check(
                not all(probes), "integer probes fail to separate v != w"
            )


@suite("dynamics.diagonal")
def _dynamics_diagonal(env: CheckEnv, rec: SuiteResult) -> None:
    ctx = env.ctx
    sys = env.cfg.system()
    for k in range(1, sys.m + 1):
        chain = diagonal_representation(sys, CharacterIndex.basis(k))
        rec.check(
            chain == [CharacterIndex.basis(j) for j in range(1, k + 1)],
            f"chain for e_{k}",
        )
    rec.check(
        diagonal_representation(sys, CharacterIndex.make({})) == [],
        "trivial character chain",
    )
    rec.check(
        _raises(ValueError, diagonal_representation, sys, CharacterIndex.make({1: 2})),
        "non-canonical character accepted",
    )


# -------------------------------------------------------------------- weyl


@suite("weyl.phase-exact")
def _weyl_phase_exact(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    ctx = env.ctx
    basis = env.basis
    for _ in range(50):
        deg = rng.randint(0, 4)
        coeffs = [rand_free_angle(rng, ctx) for _ in range(deg + 1)]
        p = PolyAngle(coeffs)
        shift = rng.choice([0, 17, 10**3, 10**9, 10**12])
        for i, got in enumerate(islice(_units(p, basis, shift + 1), 40), 1):
            want = angle_to_unit(p.evaluate(shift + i), basis)
            rec.check(
                got == want,
                f"phase mismatch at position {i} (shift {shift})",
            )


@suite("weyl.determinism")
def _weyl_determinism(env: CheckEnv, rec: SuiteResult) -> None:
    basis = env.basis
    p = PolyAngle.parse("1*b1*C(n,2)")
    for N in (1, 7, 4095, 4096, 4097, 10_000):
        rec.check(
            weyl_average(p, N, 0, basis) == weyl_average(p, N, 0, basis),
            f"rerun differs at N={N}",
        )
    for k1, k2 in ((0, 10**3), (5, 10**6), (123, 10**9)):
        lhs = weyl_average(p, 2000, k1 + k2, basis)
        rhs = weyl_average(p.shift(k2), 2000, k1, basis)
        rec.check(
            abs(lhs - rhs) < 1e-12, f"shift consistency at {k1}+{k2}"
        )


@suite("weyl.irrational-null")
def _weyl_irrational_null(env: CheckEnv, rec: SuiteResult) -> None:
    cfg = env.cfg
    basis = env.basis
    p = PolyAngle([ZERO, ZERO, Angle(0, {cfg.x_symbol: 1})])
    rep = equidistribution_report(p, cfg.N, cfg.shifts, cfg.tol, basis)
    rec.check(rep.target == 0j, "irrational quadratic target is not 0")
    for row in rep.rows():
        rec.check(
            row["abs"] < cfg.tol,
            f"average at shift {row['k']} is {row['abs']:.4f}",
        )
    rec.check(rep.passed, "report does not pass")


@suite("weyl.rational-exact")
def _weyl_rational_exact(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    basis = env.basis
    for _ in range(8):
        deg = rng.randint(2, 3)
        coeffs = [Angle.parse(f"{rng.randrange(12)}/12")]
        coeffs += [
            Angle.parse(f"{rng.randrange(6)}/{rng.choice([2, 3, 4, 6])}")
            for _ in range(deg)
        ]
        p = PolyAngle(coeffs)
        t = minimal_period(p)
        rec.check(t is not None and p.shift(t) == p, "period does not fix p")
        assert t is not None
        s = next((s for s in range(1, t) if p.shift(s) == p), None)
        rec.check(s is None, f"period {t} is not minimal ({s} works)")
        N = t * max(1, 1000 // t)
        avg = weyl_average(p, N, 0, basis)
        target = equidistribution_target(p, basis)
        rec.check(
            abs(avg - target) < 1e-10,
            f"periodic average off target by {abs(avg - target):.2e}",
        )


@suite("weyl.decay")
def _weyl_decay(env: CheckEnv, rec: SuiteResult) -> None:
    basis = env.basis
    p = PolyAngle.parse("1*b1*C(n,2)")
    small = abs(weyl_average(p, 1000, 0, basis))
    big = abs(weyl_average(p, env.cfg.N, 0, basis))
    rec.check(
        big < small, f"no decay evidence: {big:.4f} at N={env.cfg.N} "
        f"vs {small:.4f} at N=1000"
    )


@suite("weyl.targets")
def _weyl_targets(env: CheckEnv, rec: SuiteResult) -> None:
    basis = env.basis
    cfg = env.cfg
    const = PolyAngle([Angle.parse("1/3")])
    rec.check(
        abs(
            equidistribution_target(const, basis)
            - angle_to_unit(Angle.parse("1/3"), basis)
        )
        < 1e-15,
        "constant target",
    )
    lin = PolyAngle([ZERO, Angle.parse("1/2")])
    rec.check(
        equidistribution_target(lin, basis) == 0j, "rational linear target"
    )
    rec.check(minimal_period(lin) == 2, "rational linear period")
    irr = PolyAngle([ZERO, Angle(0, {cfg.x_symbol: 1})])
    rec.check(minimal_period(irr) is None, "irrational polynomial period")
    sys = cfg.system()
    rep = unique_ergodicity_check(
        sys, CharacterIndex.basis(sys.m), (ZERO,) * sys.m, 20_000, (0, 10**6),
        cfg.tol, basis,
    )
    rec.check(rep.target == 0j, "orbit character target")
    rec.check(rep.passed, "orbit character report fails")
    periodic = BasicSystem(2, Angle.parse("1/5"))
    rep2 = unique_ergodicity_check(
        periodic, CharacterIndex.basis(2), (ZERO, ZERO), 1000, (0,), cfg.tol, basis
    )
    rec.check(abs(rep2.target) > 0.1, "torsion base target should be nonzero")
    rec.check(rep2.passed, "torsion base report fails")


# ------------------------------------------------------------------ factor


@suite("factor.membership", dim=2, level=3)
def _factor_membership(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    fac = FactorConfig(env.ctx, env.cfg.x_symbol, env.m)
    xi = fac.ctx.basis.index_of(fac.x_symbol)
    for _ in range(500):
        for in_g, member, sub in (False, g1_member, "outer"), (True, g_member, "inner"):
            a = rand_g1(rng, fac, in_g)
            b = rand_g1(rng, fac, in_g)
            rec.check(member(a, fac), f"sampler misses the {sub} subgroup")
            rec.check(member(a * b, fac), f"{sub} subgroup not closed under star")
            rec.check(
                member(a.inverse(), fac), f"{sub} subgroup not closed under inverse"
            )
    # perturbations break membership
    el = rand_g1(rng, fac, in_g=True)
    # a third-turn is representable at level >= 3
    third = el.comps[1].images[xi] + Angle.parse("1/3")
    rec.check(
        not g1_member(_swap(el, 1, images={xi: third}), fac),
        "third-turn at x accepted in the outer subgroup",
    )
    rec.check(
        not g_member(_swap(el, 2, images={xi: Angle.parse("1/2")}), fac),
        "half-turn of x at degree 2 accepted in the inner subgroup",
    )


@suite("factor.cosets", dim=2)
def _factor_cosets(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    fac = FactorConfig(env.ctx, env.cfg.x_symbol, env.m)
    half = Angle.parse("1/2")
    for _ in range(300):
        phi = rand_element(rng, fac.ctx, fac.m)
        if rng.random() < 0.5:
            psi = phi * rand_g1(rng, fac, in_g=True)  # same coset by construction
        else:
            psi = rand_element(rng, fac.ctx, fac.m)
        rec.check(
            coset_equal(phi, psi, fac)
            == g_member(phi.inverse() * psi, fac),
            "coset test disagrees with subgroup membership",
        )
        rec.check(coset_equal(phi, phi, fac), "coset reflexivity")
        g1a = rand_g1(rng, fac)
        g1b = rand_g1(rng, fac)
        a = pair_correction(g1a, g1b, fac)
        rec.check(a == ZERO or a == half, "pair correction is {}", a)
        rec.check(
            pair_correction(g1a, g1a, fac) == ZERO, "self correction nonzero"
        )


@suite("factor.coset-constancy", dim="factor_m")
def _factor_constancy(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    fac = env.cfg.factor()
    family = qef_index_family(fac)
    constant = [v for v in family if qef_coset_constant(v, fac)]
    rec.check(len(constant) >= 20, "family has too few constant vectors")
    fails_on = "constancy fails on " + ", ".join(["{}"] * (fac.m + 1))  # format_point
    for _ in range(50):
        phi = rand_element(rng, fac.ctx, fac.m)
        psi = phi * rand_g1(rng, fac, in_g=True)
        for v in constant:
            rec.check(
                q_eval(v, phi) == q_eval(v, psi),
                fails_on, *v,
            )
    # tightness: a classified-nonconstant vector with a same-coset pair
    # that q separates (odd x-multiple at index 2)
    ctx = fac.ctx
    x = fac.point
    v = [ZERO] * (fac.m + 1)
    v[2] = x
    rec.check(not qef_coset_constant(v, fac), "control vector misclassified")
    phi = HmElement.tilde(ctx, 1, fac.m)
    psi1 = TruncEndo.make(
        ctx, 1, {fac.x_symbol: x + Angle.parse("1/2")}
    )
    psi2 = TruncEndo.make(ctx, 0, {fac.x_symbol: Angle.parse("1/2")})
    comps = [TruncEndo.power(ctx, 1), psi1, psi2]
    comps += [TruncEndo.power(ctx, 0)] * (fac.m - 2)
    psi = HmElement.validate(ctx, comps)
    rec.check(coset_equal(phi, psi, fac), "control pair not in one coset")
    rec.check(
        q_eval(v, phi) != q_eval(v, psi),
        "control vector fails to separate the control pair",
    )


@suite("factor.nonseparation", dim="factor_m")
def _factor_nonseparation(env: CheckEnv, rec: SuiteResult) -> None:
    fac = env.cfg.factor()
    witness, report = nonseparation_witness(fac)
    rec.check(report.witness_valid, "witness fails membership")
    rec.check(report.cosets_distinct, "witness coset equals the identity coset")
    rec.check(not report.disagreements, "q separates a constant vector")
    rec.check(report.control_separates, "control vector separates nothing")
    rec.check(not report.control_constant, "control vector misclassified")
    rec.check(report.degenerate_equal, "degenerate twin left the coset")
    rec.check(report.passed, "report does not pass")
    rec.check(g1_member(witness, fac), "witness left the outer subgroup")
    rec.check(not g_member(witness, fac), "witness is in the inner subgroup")


@suite("kernel.membership", dim="factor_m")
def _kernel_membership(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    gen = env.ctx.generator(env.basis.symbols[0])
    for spec in default_kernel_specs(env.cfg.factor()):
        for _ in range(100):
            g = rand_kernel_member(rng, env.ctx, spec)
            rec.check(
                kernel_member(g, spec), f"sampler misses kernel m={spec.m}"
            )
            if spec.m >= 2:  # component 1 is the zero map
                rec.check(
                    not kernel_member(_swap(g, 1, images={0: gen}), spec),
                    f"nontrivial low component accepted, m={spec.m}",
                )
            if spec.gamma:
                top = g.comps[spec.m]
                moved = {i: img + gen for i, img in enumerate(top.images)}
                rec.check(
                    not kernel_member(_swap(g, spec.m, top.residue + 1, moved), spec),
                    f"perturbed top component accepted, m={spec.m}",
                )


@suite("kernel.normality", dim="factor_m")
def _kernel_normality(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    for spec in default_kernel_specs(env.cfg.factor()):
        for _ in range(200):
            g = rand_kernel_member(rng, env.ctx, spec)
            h = rand_element(rng, env.ctx, spec.m)
            rec.check(
                kernel_member(h.inverse() * g * h, spec),
                f"conjugation leaves the kernel, m={spec.m}",
            )


# --------------------------------------------------------------------- cli


@suite("cli.roundtrip")
def _cli_roundtrip(env: CheckEnv, rec: SuiteResult) -> None:
    rng = env.rng
    ctx = env.ctx
    for _ in range(300):
        a = rand_free_angle(rng, ctx)
        rec.check(Angle.parse(str(a)) == a, "angle round-trip: {}", a)
        deg = rng.randint(0, 4)
        p = PolyAngle([rand_free_angle(rng, ctx) for _ in range(deg + 1)])
        rec.check(PolyAngle.parse(str(p)) == p, "poly round-trip: {}", p)
        pt = tuple(rand_free_angle(rng, ctx) for _ in range(rng.randint(1, 4)))
        rec.check(parse_point(format_point(pt)) == pt, "point round-trip")
