"""Seeded property-check suites behind the `check` CLI command.

Each suite is a named function drawing randomness from its own
random.Random seeded with "<seed>:<suite-name>", so any suite can be
rerun in isolation and `check all` output is byte-reproducible for a
fixed seed.  Suites return (cases, failures, samples); the runner
wraps them with timing and stable ordering (sorted by suite id).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

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
from .endo import TruncEndo, TruncationContext, decompose, minimal_level
from .errors import ConfigurationError, MembershipError, TruncationError
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
from .weyl import (
    _PhaseStream,
    equidistribution_report,
    equidistribution_target,
    minimal_period,
    unique_ergodicity_check,
    weyl_average,
)


@dataclass
class SuiteResult:
    suite: str
    cases: int
    failures: int
    samples: tuple[str, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self, reproducible: bool = False) -> dict:
        out: dict = {
            "suite": self.suite,
            "cases": self.cases,
            "failures": self.failures,
            "samples": list(self.samples),
            "pass": self.passed,
        }
        if not reproducible:
            out["elapsed_s"] = round(self.elapsed, 3)
        return out


class Recorder:
    """Counts cases; keeps the first few failure descriptions."""

    def __init__(self) -> None:
        self.cases = 0
        self.failures = 0
        self.samples: list[str] = []

    def check(self, ok: bool, describe: str = "") -> None:
        self.cases += 1
        if not ok:
            self.failures += 1
            if len(self.samples) < 3:
                self.samples.append(describe)


class CheckEnv:
    """Configuration plus a per-suite RNG."""

    def __init__(self, cfg: Config, rng: random.Random) -> None:
        self.cfg = cfg
        self.rng = rng
        self.ctx = cfg.context()
        self.basis = self.ctx.basis
        self.m = min(4, self.ctx.level)  # element dimension of the suites

    def system(self) -> BasicSystem:
        return self.cfg.system()

    def factor(self) -> FactorConfig:
        return FactorConfig(self.ctx, self.cfg.x_symbol, self.cfg.factor_m)


SuiteFn = Callable[[CheckEnv, Recorder], None]
REGISTRY: dict[str, SuiteFn] = {}


def suite(name: str) -> Callable[[SuiteFn], SuiteFn]:
    def register(fn: SuiteFn) -> SuiteFn:
        REGISTRY[name] = fn
        return fn

    return register


def run_suites(
    cfg: Config, seed: int, selector: str = "all"
) -> list[SuiteResult]:
    names = sorted(
        n
        for n in REGISTRY
        if selector == "all" or n == selector or n.startswith(selector + ".")
    )
    if not names:
        raise ConfigurationError(f"no check suite matches {selector!r}")
    results = []
    for name in names:
        rng = random.Random(f"{seed}:{name}")
        env = CheckEnv(cfg, rng)
        rec = Recorder()
        t0 = time.perf_counter()
        REGISTRY[name](env, rec)
        results.append(
            SuiteResult(
                name, rec.cases, rec.failures, tuple(rec.samples),
                time.perf_counter() - t0,
            )
        )
    return results


# ---------------------------------------------------------------- samplers


def rand_angle(rng: random.Random, ctx: TruncationContext, span: int = 2) -> Angle:
    """Random angle with all denominators dividing the modulus."""
    M = ctx.modulus
    coeffs = {}
    for s in ctx.basis.symbols:
        if rng.random() < 0.7:
            coeffs[s] = Fraction(rng.randrange(-span * M, span * M + 1), M)
    return Angle(Fraction(rng.randrange(M), M), coeffs)


def rand_free_angle(rng: random.Random, ctx: TruncationContext) -> Angle:
    """Random angle with unconstrained small denominators."""
    den = rng.choice([1, 2, 3, 5, 7, 12, 30])
    coeffs = {}
    for s in ctx.basis.symbols:
        if rng.random() < 0.6:
            coeffs[s] = Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 7]))
    return Angle(Fraction(rng.randrange(den), den), coeffs)


def rand_endo(rng: random.Random, ctx: TruncationContext) -> TruncEndo:
    return TruncEndo(
        ctx,
        rng.randrange(ctx.modulus),
        tuple(rand_angle(rng, ctx) for _ in ctx.basis.symbols),
    )


def rand_element(
    rng: random.Random,
    ctx: TruncationContext,
    m: int,
    trivial_prefix: int = 0,
) -> HmElement:
    """Random member: residues drawn from the coherence solution sets."""
    M = ctx.modulus
    comps = [TruncEndo.power(ctx, 1)]
    r1 = 0 if trivial_prefix >= 1 else rng.randrange(M)
    for k in range(1, m + 1):
        if k <= trivial_prefix:
            comps.append(TruncEndo.power(ctx, 0))
            continue
        if k == 1:
            r = r1
        else:
            kf = factorial(k)
            r = (binom(r1, k) + rng.randrange(kf) * (M // kf)) % M
        comps.append(
            TruncEndo(
                ctx, r, tuple(rand_angle(rng, ctx) for _ in ctx.basis.symbols)
            )
        )
    return HmElement(ctx, tuple(comps))


def rand_g1(rng: random.Random, fac: FactorConfig) -> HmElement:
    """Member of the outer subgroup; see the coset module docstring.

    Degree >= 2 components are drawn torsion-trivial (residue 0): at a
    finite level the coherence congruence alone would admit "ghost"
    residues that no infinite-level member shadows.
    """
    ctx = fac.ctx
    comps = [TruncEndo.power(ctx, 1)]
    for k in range(1, fac.m + 1):
        imgs = []
        for s in ctx.basis.symbols:
            if k == 1 and s == fac.x_symbol:
                imgs.append(
                    Angle(Fraction(1, 2)) if rng.random() < 0.5 else ZERO
                )
            else:
                imgs.append(rand_angle(rng, ctx))
        comps.append(TruncEndo(ctx, 0, tuple(imgs)))
    return HmElement(ctx, tuple(comps))


def rand_g(rng: random.Random, fac: FactorConfig) -> HmElement:
    """Member of the inner subgroup: additionally kills x at degree 2."""
    el = rand_g1(rng, fac)
    comps = list(el.comps)
    xi = fac.ctx.basis.index_of(fac.x_symbol)
    imgs = list(comps[2].images)
    imgs[xi] = ZERO
    comps[2] = TruncEndo(fac.ctx, 0, tuple(imgs))
    return HmElement(fac.ctx, tuple(comps))


def rand_kernel_member(
    rng: random.Random, ctx: TruncationContext, spec, m: int
) -> HmElement:
    """Sample from a kernel: trivial below spec.m, top kills the generators."""
    M = ctx.modulus
    comps = [TruncEndo.power(ctx, 1)] + [TruncEndo.power(ctx, 0)] * (spec.m - 1)
    kf = factorial(spec.m)
    candidates = [(j * (M // kf)) % M for j in range(kf)]
    torsion = [g for g in spec.gamma if g.is_torsion]
    residues = [
        r
        for r in candidates
        if all((r * int(g.rat * M)) % M == 0 for g in torsion)
    ]
    killed = {s for g in spec.gamma for s, _ in g.coeffs}
    imgs = tuple(
        ZERO if s in killed else rand_angle(rng, ctx)
        for s in ctx.basis.symbols
    )
    comps.append(TruncEndo(ctx, rng.choice(residues), imgs))
    for k in range(spec.m + 1, m + 1):
        kf = factorial(k)
        r = rng.randrange(kf) * (M // kf) % M
        comps.append(
            TruncEndo(
                ctx, r, tuple(rand_angle(rng, ctx) for _ in ctx.basis.symbols)
            )
        )
    return HmElement(ctx, tuple(comps))


# ------------------------------------------------------------ combinatorics


@suite("comb.pascal")
def _comb_pascal(env: CheckEnv, rec: Recorder) -> None:
    for n in range(-100, 101):
        for k in range(0, 21):
            if k == 0:
                rec.check(binom(n, 0) == 1, f"binom({n},0) != 1")
            else:
                ok = binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)
                rec.check(ok, f"pascal fails at n={n}, k={k}")


@suite("comb.vandermonde")
def _comb_vandermonde(env: CheckEnv, rec: Recorder) -> None:
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
def _comb_stirling(env: CheckEnv, rec: Recorder) -> None:
    for n in range(-30, 31):
        for k in range(0, 13):
            lhs = factorial(k) * binom(n, k)
            rhs = sum(stirling1(k, j) * n**j for j in range(k + 1))
            rec.check(lhs == rhs, f"stirling identity fails at n={n}, k={k}")


@suite("comb.negation")
def _comb_negation(env: CheckEnv, rec: Recorder) -> None:
    for n in range(-50, 1):
        for k in range(0, 13):
            ok = binom(n, k) == (-1) ** k * binom(-n + k - 1, k)
            rec.check(ok, f"negation identity fails at n={n}, k={k}")


# ------------------------------------------------------------------ circle


@suite("circle.group")
def _circle_group(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    for _ in range(10_000):
        a = rand_free_angle(rng, env.ctx)
        b = rand_free_angle(rng, env.ctx)
        c = rand_free_angle(rng, env.ctx)
        rec.check((a + b) + c == a + (b + c), f"assoc fails: {a}, {b}, {c}")
        rec.check(a + b == b + a, f"commutativity fails: {a}, {b}")
        rec.check(not (a + (-a)), f"inverse fails: {a}")
        rec.check(Angle.parse(str(a)) == a, f"round-trip fails: {a}")


@suite("circle.unit-hom")
def _circle_unit_hom(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    for _ in range(2000):
        a = rand_free_angle(rng, env.ctx)
        b = rand_free_angle(rng, env.ctx)
        lhs = angle_to_unit(a + b, env.basis)
        rhs = angle_to_unit(a, env.basis) * angle_to_unit(b, env.basis)
        rec.check(
            abs(lhs - rhs) < 1e-12, f"unit morphism drift at {a}, {b}"
        )


@suite("circle.scaling")
def _circle_scaling(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    for _ in range(2000):
        a = rand_free_angle(rng, env.ctx)
        b = rand_free_angle(rng, env.ctx)
        n = rng.randint(-30, 30)
        p = rng.randint(-30, 30)
        rec.check(n * (a + b) == n * a + n * b, f"scaling additivity: {n}, {a}, {b}")
        rec.check((n + p) * a == n * a + p * a, f"scalar addition: {n}, {p}, {a}")
        t = Angle(Fraction(rng.randrange(1, 60), 60))
        rec.check(
            t.torsion_order() == t.rat.denominator, f"torsion order: {t}"
        )
        rec.check(a.torsion_order() == (None if a.coeffs else a.rat.denominator),
                  f"torsion classification: {a}")


# -------------------------------------------------------------------- endo


@suite("endo.evaluation")
def _endo_eval(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    ctx = env.ctx
    for _ in range(2000):
        phi = rand_endo(rng, ctx)
        a = rand_angle(rng, ctx)
        b = rand_angle(rng, ctx)
        rec.check(phi(a + b) == phi(a) + phi(b), f"additivity: {a}, {b}")
        n = rng.randint(-50, 50)
        rec.check(
            TruncEndo.power(ctx, n)(a) == n * a, f"power map at n={n}: {a}"
        )
    for i, s in enumerate(ctx.basis.symbols):
        phi = rand_endo(rng, ctx)
        rec.check(
            phi(ctx.generator(s)) == phi.images[i],
            f"generator image mismatch at {s}",
        )


@suite("endo.compose")
def _endo_compose(env: CheckEnv, rec: Recorder) -> None:
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
def _endo_module(env: CheckEnv, rec: Recorder) -> None:
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
def _endo_closure(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    ctx = env.ctx
    M = ctx.modulus
    for _ in range(500):
        f = rand_endo(rng, ctx)
        g = rand_endo(rng, ctx)
        for out in (f.compose(g), f * g, f.conj()):
            try:
                out.validate()
                rec.check(True)
            except TruncationError:
                rec.check(False, "closure violated")
        a = rand_angle(rng, ctx)
        p, coords = decompose(a, ctx)
        rebuilt = Angle(Fraction(p, M)) + sum(
            (c * ctx.generator(s) for s, c in coords.items()), ZERO
        )
        rec.check(rebuilt == a, f"decompose round-trip: {a}")
    # minimal-level reporting
    bad = Angle(Fraction(1, 7 * M))
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
def _ellis_membership(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    ctx = env.ctx
    for _ in range(300):
        m = rng.randint(2, env.m)
        el = rand_element(rng, ctx, m)
        try:
            HmElement.validate(ctx, el.comps)
            rec.check(True)
        except MembershipError:
            rec.check(False, "sampled element fails membership")
        # tamper: bump a residue off its solution set (none at k = L)
        k = rng.randint(2, m)
        if k == ctx.level:
            continue
        bad = list(el.comps)
        bumped = (bad[k].residue + ctx.modulus // factorial(k) - 1) % ctx.modulus
        bad[k] = TruncEndo(ctx, bumped, bad[k].images)
        try:
            HmElement.validate(ctx, bad)
            rec.check(False, f"tampered residue at k={k} accepted")
        except MembershipError:
            rec.check(True)
    for n in (-7, -1, 0, 1, 2, 13):
        try:
            HmElement.validate(ctx, HmElement.tilde(ctx, n, env.m).comps)
            rec.check(True)
        except MembershipError:
            rec.check(False, f"tilde({n}) fails membership")


@suite("ellis.group")
def _ellis_group(env: CheckEnv, rec: Recorder) -> None:
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
            try:
                HmElement.validate(ctx, out.comps)
                rec.check(True)
            except MembershipError:
                rec.check(False, "closure violated")


@suite("ellis.tilde-hom")
def _ellis_tilde_hom(env: CheckEnv, rec: Recorder) -> None:
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
def _ellis_iterate_detect(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    ctx = env.ctx
    for _ in range(200):
        n = rng.randint(-100, 100)
        m = rng.randint(2, env.m)
        el = HmElement.tilde(ctx, n, m)
        rec.check(el.is_iterate() == n, f"tilde({n}) not detected")
        # perturb one image off the integer-point pattern
        k = rng.randint(1, m)
        comps = list(el.comps)
        imgs = list(comps[k].images)
        imgs[0] = imgs[0] + Angle(0, {ctx.basis.symbols[0]: Fraction(1, ctx.modulus)})
        comps[k] = TruncEndo(ctx, comps[k].residue, tuple(imgs))
        rec.check(
            HmElement(ctx, tuple(comps)).is_iterate() is None,
            f"perturbed tilde({n}) still detected",
        )
        el2 = rand_element(rng, ctx, m)
        found = el2.is_iterate()
        if found is not None:
            rec.check(
                el2 == HmElement.tilde(ctx, found, m),
                "is_iterate returned a wrong index",
            )
        else:
            rec.check(True)


@suite("ellis.commutator")
def _ellis_commutator(env: CheckEnv, rec: Recorder) -> None:
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
            pred = predicted_commutator(a, b, k)
            rec.check(
                com.truncate(pred.m) == pred,
                f"predicted form disagrees at prefix {k}",
            )


@suite("ellis.central")
def _ellis_central(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    ctx = env.ctx
    m = env.m
    rec.check(HmElement.identity(ctx, m).central_level() == m, "identity level")
    rec.check(HmElement.tilde(ctx, 1, m).central_level() == 0, "tilde(1) level")
    only_top = [TruncEndo.power(ctx, 1)] + [TruncEndo.power(ctx, 0)] * m
    only_top[m] = TruncEndo(
        ctx, 0, tuple(ctx.generator(s) for s in ctx.basis.symbols)
    )
    rec.check(
        HmElement(ctx, tuple(only_top)).central_level() == m - 1,
        "only-top level",
    )
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


@suite("ellis.action")
def _ellis_action(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    ctx = env.ctx
    m = 3
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
def _ellis_extension(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    ctx = env.ctx
    x0 = env.system().x0
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
def _ellis_roundtrip(env: CheckEnv, rec: Recorder) -> None:
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
def _dynamics_step(env: CheckEnv, rec: Recorder) -> None:
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
def _dynamics_iterate(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    ctx = env.ctx
    for _ in range(100):
        m = rng.randint(1, 5)
        sys = BasicSystem(m, rand_free_angle(rng, ctx))
        x = tuple(rand_free_angle(rng, ctx) for _ in range(m))
        n = rng.randint(-50, 50)
        y = x
        for _ in range(abs(n)):
            y = sys.step(y) if n > 0 else sys.inverse_step(y)
        rec.check(sys.iterate(x, n) == y, f"closed form differs at n={n}")
        t = rng.randint(-10, 10)
        rec.check(
            sys.iterate(sys.iterate(x, n), t) == sys.iterate(x, n + t),
            "iterate flow law",
        )


@suite("dynamics.orbit-poly")
def _dynamics_orbit_poly(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    ctx = env.ctx
    sys = env.system()
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
def _dynamics_q_map(env: CheckEnv, rec: Recorder) -> None:
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
def _dynamics_diagonal(env: CheckEnv, rec: Recorder) -> None:
    ctx = env.ctx
    sys = env.system()
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
    try:
        diagonal_representation(sys, CharacterIndex.make({1: 2}))
        rec.check(False, "non-canonical character accepted")
    except ValueError:
        rec.check(True)


# -------------------------------------------------------------------- weyl


@suite("weyl.phase-exact")
def _weyl_phase_exact(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    ctx = env.ctx
    basis = env.basis
    for _ in range(50):
        deg = rng.randint(0, 4)
        coeffs = [rand_free_angle(rng, ctx) for _ in range(deg + 1)]
        p = PolyAngle(coeffs)
        shift = rng.choice([0, 17, 10**3, 10**9, 10**12])
        stream = _PhaseStream(p, basis, shift + 1)
        for i in range(1, 41):
            got = stream.next_phase()
            want = angle_to_unit(p.evaluate(shift + i), basis)
            have = complex(
                math.cos(2.0 * math.pi * got), math.sin(2.0 * math.pi * got)
            )
            rec.check(
                have == want,
                f"phase mismatch at position {i} (shift {shift})",
            )


@suite("weyl.determinism")
def _weyl_determinism(env: CheckEnv, rec: Recorder) -> None:
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
def _weyl_irrational_null(env: CheckEnv, rec: Recorder) -> None:
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
def _weyl_rational_exact(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    basis = env.basis
    for _ in range(8):
        deg = rng.randint(2, 3)
        coeffs = [Angle(Fraction(rng.randrange(12), 12))]
        coeffs += [
            Angle(Fraction(rng.randrange(6), rng.choice([2, 3, 4, 6])))
            for _ in range(deg)
        ]
        p = PolyAngle(coeffs)
        t = minimal_period(p)
        rec.check(t is not None and p.shift(t) == p, "period does not fix p")
        assert t is not None
        for s in range(1, t):
            if p.shift(s) == p:
                rec.check(False, f"period {t} is not minimal ({s} works)")
                break
        else:
            rec.check(True)
        N = t * max(1, 1000 // t)
        avg = weyl_average(p, N, 0, basis)
        target = equidistribution_target(p, basis)
        rec.check(
            abs(avg - target) < 1e-10,
            f"periodic average off target by {abs(avg - target):.2e}",
        )


@suite("weyl.decay")
def _weyl_decay(env: CheckEnv, rec: Recorder) -> None:
    basis = env.basis
    p = PolyAngle.parse("1*b1*C(n,2)")
    small = abs(weyl_average(p, 1000, 0, basis))
    big = abs(weyl_average(p, env.cfg.N, 0, basis))
    rec.check(
        big < small, f"no decay evidence: {big:.4f} at N={env.cfg.N} "
        f"vs {small:.4f} at N=1000"
    )


@suite("weyl.targets")
def _weyl_targets(env: CheckEnv, rec: Recorder) -> None:
    basis = env.basis
    cfg = env.cfg
    const = PolyAngle([Angle(Fraction(1, 3))])
    rec.check(
        abs(
            equidistribution_target(const, basis)
            - angle_to_unit(Angle(Fraction(1, 3)), basis)
        )
        < 1e-15,
        "constant target",
    )
    lin = PolyAngle([ZERO, Angle(Fraction(1, 2))])
    rec.check(
        equidistribution_target(lin, basis) == 0j, "rational linear target"
    )
    rec.check(minimal_period(lin) == 2, "rational linear period")
    irr = PolyAngle([ZERO, Angle(0, {cfg.x_symbol: 1})])
    rec.check(minimal_period(irr) is None, "irrational polynomial period")
    sys = env.system()
    rep = unique_ergodicity_check(
        sys,
        CharacterIndex.basis(sys.m),
        (ZERO,) * sys.m,
        20_000,
        (0, 10**6),
        cfg.tol,
        basis,
    )
    rec.check(rep.target == 0j, "orbit character target")
    rec.check(rep.passed, "orbit character report fails")
    periodic = BasicSystem(2, Angle(Fraction(1, 5)))
    rep2 = unique_ergodicity_check(
        periodic,
        CharacterIndex.basis(2),
        (ZERO, ZERO),
        1000,
        (0,),
        cfg.tol,
        basis,
    )
    rec.check(abs(rep2.target) > 0.1, "torsion base target should be nonzero")
    rec.check(rep2.passed, "torsion base report fails")


# ------------------------------------------------------------------ factor


@suite("factor.membership")
def _factor_membership(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    fac = env.factor()
    ctx = fac.ctx
    xi = ctx.basis.index_of(fac.x_symbol)
    for _ in range(500):
        g1a = rand_g1(rng, fac)
        g1b = rand_g1(rng, fac)
        rec.check(g1_member(g1a, fac), "sampler misses the outer subgroup")
        rec.check(
            g1_member(g1a * g1b, fac), "outer subgroup not closed under star"
        )
        rec.check(
            g1_member(g1a.inverse(), fac), "outer subgroup not closed under inverse"
        )
        ga = rand_g(rng, fac)
        gb = rand_g(rng, fac)
        rec.check(g_member(ga, fac), "sampler misses the inner subgroup")
        rec.check(g_member(ga * gb, fac), "inner subgroup not closed under star")
        rec.check(
            g_member(ga.inverse(), fac), "inner subgroup not closed under inverse"
        )
    # perturbations break membership
    el = rand_g(rng, fac)
    comps = list(el.comps)
    imgs = list(comps[1].images)
    imgs[xi] = imgs[xi] + Angle(Fraction(1, 4))
    comps[1] = TruncEndo(ctx, 0, tuple(imgs))
    rec.check(
        not g1_member(HmElement(ctx, tuple(comps)), fac),
        "quarter-turn at x accepted in the outer subgroup",
    )
    comps = list(el.comps)
    imgs = list(comps[2].images)
    imgs[xi] = Angle(Fraction(1, 2))
    comps[2] = TruncEndo(ctx, 0, tuple(imgs))
    rec.check(
        not g_member(HmElement(ctx, tuple(comps)), fac),
        "half-turn of x at degree 2 accepted in the inner subgroup",
    )


@suite("factor.cosets")
def _factor_cosets(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    fac = env.factor()
    half = Angle(Fraction(1, 2))
    for _ in range(300):
        phi = rand_element(rng, fac.ctx, fac.m)
        if rng.random() < 0.5:
            psi = phi * rand_g(rng, fac)  # same coset by construction
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
        rec.check(a == ZERO or a == half, f"pair correction is {a}")
        rec.check(
            pair_correction(g1a, g1a, fac) == ZERO, "self correction nonzero"
        )


@suite("factor.coset-constancy")
def _factor_constancy(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    fac = env.factor()
    family = qef_index_family(fac)
    constant = [v for v in family if qef_coset_constant(v, fac)]
    rec.check(len(constant) >= 20, "family has too few constant vectors")
    for _ in range(50):
        phi = rand_element(rng, fac.ctx, fac.m)
        psi = phi * rand_g(rng, fac)
        for v in constant:
            rec.check(
                q_eval(v, phi) == q_eval(v, psi),
                f"constancy fails on {format_point(v)}",
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
        ctx, 1, {fac.x_symbol: x + Angle(Fraction(1, 2))}
    )
    psi2 = TruncEndo.make(ctx, 0, {fac.x_symbol: Angle(Fraction(1, 2))})
    comps = [TruncEndo.power(ctx, 1), psi1, psi2]
    comps += [TruncEndo.power(ctx, 0)] * (fac.m - 2)
    psi = HmElement.validate(ctx, comps)
    rec.check(coset_equal(phi, psi, fac), "control pair not in one coset")
    rec.check(
        q_eval(v, phi) != q_eval(v, psi),
        "control vector fails to separate the control pair",
    )


@suite("factor.nonseparation")
def _factor_nonseparation(env: CheckEnv, rec: Recorder) -> None:
    fac = env.factor()
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


@suite("kernel.membership")
def _kernel_membership(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    fac = env.factor()
    ctx = fac.ctx
    for spec in default_kernel_specs(fac):
        for _ in range(100):
            g = rand_kernel_member(rng, ctx, spec, fac.m)
            rec.check(
                kernel_member(g, spec), f"sampler misses kernel m={spec.m}"
            )
            if spec.m >= 2:
                comps = list(g.comps)
                comps[1] = TruncEndo.make(
                    ctx, 0, {ctx.basis.symbols[0]: ctx.generator(
                        ctx.basis.symbols[0])}
                )
                rec.check(
                    not kernel_member(HmElement(ctx, tuple(comps)), spec),
                    f"nontrivial low component accepted, m={spec.m}",
                )
            if spec.gamma:
                comps = list(g.comps)
                bumped = (comps[spec.m].residue + 1) % ctx.modulus
                imgs = tuple(
                    img + ctx.generator(ctx.basis.symbols[0])
                    for img in comps[spec.m].images
                )
                comps[spec.m] = TruncEndo(ctx, bumped, imgs)
                rec.check(
                    not kernel_member(HmElement(ctx, tuple(comps)), spec),
                    f"perturbed top component accepted, m={spec.m}",
                )


@suite("kernel.normality")
def _kernel_normality(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    fac = env.factor()
    ctx = fac.ctx
    for spec in default_kernel_specs(fac):
        for _ in range(200):
            g = rand_kernel_member(rng, ctx, spec, fac.m)
            h = rand_element(rng, ctx, fac.m)
            conj = h.inverse() * g * h
            rec.check(
                kernel_member(conj, spec),
                f"conjugation leaves the kernel, m={spec.m}",
            )


# --------------------------------------------------------------------- cli


@suite("cli.roundtrip")
def _cli_roundtrip(env: CheckEnv, rec: Recorder) -> None:
    rng = env.rng
    ctx = env.ctx
    for _ in range(300):
        a = rand_free_angle(rng, ctx)
        rec.check(Angle.parse(str(a)) == a, f"angle round-trip: {a}")
        deg = rng.randint(0, 4)
        p = PolyAngle([rand_free_angle(rng, ctx) for _ in range(deg + 1)])
        rec.check(PolyAngle.parse(str(p)) == p, f"poly round-trip: {p}")
        pt = tuple(rand_free_angle(rng, ctx) for _ in range(rng.randint(1, 4)))
        rec.check(parse_point(format_point(pt)) == pt, "point round-trip")
