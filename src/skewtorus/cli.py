"""Command-line interface.

One JSON object per line on stdout; diagnostics on stderr.  Exit codes:
0 all requested properties hold, 2 a checked property fails, 3 the
input or configuration is unusable (parse errors, truncation errors,
bad flags).  Configuration comes from --config or $SKEWTORUS_CONFIG.

Reproducibility: every random draw is seeded, and --reproducible drops
the timestamp and wall-clock fields so two runs with the same seed emit
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from datetime import datetime, timezone
from functools import lru_cache

from .circle import Angle, ZERO, int_literal, parse_point
from .config import Config, load_config, read_json_object
from .dynamics import BasicSystem, CharacterIndex, PolyAngle, orbit_polynomial
from .ellis import HmElement, commutator, predicted_commutator
from .errors import ConfigurationError, SkewtorusError, shown
from .factor_lab import default_kernel_specs, kernel_member, nonseparation_witness
from .weyl import MAX_SAMPLES, equidistribution_report

# `iterate --oracle` re-runs the orbit one step at a time on integer
# columns (BasicSystem.steps).  Both |n| and the number of coordinate steps
# |n|*m are capped, so a whole run takes about 0.3 s at most with two
# symbols (Python 3.11, 2 vCPUs) and a larger one exits 3; at the default
# m = 2 the two caps coincide.
ORACLE_MAX_STEPS = 100_000
ORACLE_MAX_COORD_STEPS = 2 * ORACLE_MAX_STEPS

# `factor-lab kernel` conjugates in each spec's own dimension s <= 3, which
# tests what dimension factor_m would: truncation to s is a homomorphism and
# the spec reads only slots 1..s.  So the cost does not grow with factor_m.
KERNEL_MAX_SAMPLES = 1_000


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; that code is reserved for
    property failures here, so usage problems exit 3 instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _note(text: str) -> None:
    sys.stderr.write(f"# {text}\n")


def _element(flag: str, text: str, ctx) -> HmElement:
    path = text[1:] if text.startswith("@") else None
    return HmElement.from_dict(read_json_object(flag, text, path), ctx)


# float() alone would also take other scripts' digits ("١٢"), underscores,
# blanks, "nan" and "inf"
_DECIMAL = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def _int(text: str) -> int:
    return int_literal(text, "bad integer value", argparse.ArgumentTypeError)


def _parse_shifts(text: str) -> tuple[int, ...]:
    out = []
    for part in text.split(","):
        k = int_literal(part.strip(), "bad shift value")
        if k < 0:
            raise ConfigurationError(f"shifts must be nonnegative, got {k}")
        out.append(k)
    return tuple(out)


def _parse_tol(text: str) -> float:
    if _DECIMAL.fullmatch(text):
        return float(text)
    raise ConfigurationError(f"bad tolerance {shown(text)}: need a positive finite decimal such as 0.02")


def _need_seed(args: argparse.Namespace, cfg: Config) -> int:
    seed = args.seed if args.seed is not None else cfg.seed
    if seed is None:
        raise ConfigurationError(
            "a seed is required: pass --seed or set one in the config"
        )
    return seed


# ---------------------------------------------------------------- commands


def _cmd_iterate(args: argparse.Namespace) -> int:
    if args.oracle and abs(args.n) > ORACLE_MAX_STEPS:
        raise ConfigurationError(
            f"--oracle takes |n| single steps; |n| = {abs(args.n)} exceeds "
            f"the cap of {ORACLE_MAX_STEPS}"
        )
    cfg = load_config(args.config)
    m = args.m if args.m is not None else cfg.system_m
    if args.oracle and abs(args.n) * m > ORACLE_MAX_COORD_STEPS:
        raise ConfigurationError(
            f"--oracle takes |n| steps of m coordinates; |n|*m = {abs(args.n)}*{m} "
            f"= {abs(args.n) * m} exceeds the cap of {ORACLE_MAX_COORD_STEPS}"
        )
    x0 = Angle.parse(args.x0) if args.x0 is not None else cfg.system().x0
    sys_ = BasicSystem(m, x0)
    point = parse_point(args.point) if args.point is not None else (ZERO,) * m
    basis = cfg.basis()
    basis.require_declared("--x0", args.x0, (x0,))
    basis.require_declared("--point", args.point, point)
    result = sys_.iterate(point, args.n)
    if sys_.minimal_base:
        _note("base rotation is minimal: x0 is not torsion")
    else:
        _note(
            "base rotation is not minimal: "
            f"x0 is torsion of order {x0.torsion_order()}"
        )
    out: dict = {"point": [str(a) for a in result]}
    if args.oracle:
        out["agrees"] = result == sys_.steps(point, args.n)
    _emit(out)
    if args.oracle and not out["agrees"]:
        return 2
    return 0


def _cmd_weyl(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    basis = cfg.basis()
    if (args.poly is None) == (args.char is None):
        raise ConfigurationError("exactly one of --poly or --char is required")
    if args.poly is not None:
        poly = PolyAngle.parse(args.poly)
        basis.require_declared("--poly", args.poly, poly.coeffs)
    else:
        sys_ = cfg.system()
        point = parse_point(args.point) if args.point is not None else (ZERO,) * sys_.m
        basis.require_declared("--point", args.point, point)
        poly = orbit_polynomial(sys_, CharacterIndex.basis(args.char), point)
    N = args.N if args.N is not None else cfg.N
    shifts = _parse_shifts(args.shifts) if args.shifts is not None else cfg.shifts
    tol = _parse_tol(args.tol) if args.tol is not None else cfg.tol
    report = equidistribution_report(poly, N, shifts, tol, basis)
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        _emit(report.to_dict())
    return 0 if report.passed else 2


def _cmd_ellis(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    ctx = cfg.context()
    if args.op in ("star", "comm") and args.b is None:
        raise ConfigurationError(f"--b is required for {args.op}")
    if args.op == "act" and args.point is None:
        raise ConfigurationError("--point is required for act")
    a = _element("--a", args.a, ctx)
    if args.op == "star":
        b = _element("--b", args.b, ctx)
        _emit((a * b).to_dict())
        return 0
    if args.op == "inv":
        _emit(a.inverse().to_dict())
        return 0
    if args.op == "comm":
        b = _element("--b", args.b, ctx)
        com = commutator(a, b)
        prefix = a.central_level()
        predicted = predicted_commutator(a, b)
        agrees = com.truncate(predicted.m) == predicted
        _emit(
            {
                "element": com.to_dict(),
                "left_prefix": prefix,
                "central_level": com.central_level(),
                "predicted_agrees": agrees,
            }
        )
        return 0 if agrees else 2
    if args.op == "act":
        point = parse_point(args.point)
        ctx.basis.require_declared("--point", args.point, point)
        _emit({"point": [str(x) for x in a.act(point)]})
        return 0
    _emit({"n": a.is_iterate()})  # is-iterate: argparse refuses any other op
    return 0


def _cmd_factor_demo(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    witness, report = nonseparation_witness(cfg.factor())
    _emit({"witness": witness.to_dict(), "report": report.to_dict()})
    return 0 if report.passed else 2


def _cmd_factor_kernel(args: argparse.Namespace) -> int:
    import random
    from .samplers import rand_element, rand_kernel_member
    if args.samples < 1:
        raise ConfigurationError(f"--samples must be >= 1, got {args.samples}")
    if args.samples > KERNEL_MAX_SAMPLES:
        raise ConfigurationError(
            f"--samples = {args.samples} exceeds the cap of {KERNEL_MAX_SAMPLES}"
        )
    cfg = load_config(args.config)
    seed = _need_seed(args, cfg)
    fac = cfg.factor()
    ok = True
    for spec in default_kernel_specs(fac):
        s = spec.m
        rng = random.Random(f"{seed}:kernel:{s}")
        member_bad = 0
        normal_bad = 0
        for _ in range(args.samples):
            g = rand_kernel_member(rng, fac.ctx, spec)
            if not kernel_member(g, spec):
                member_bad += 1
            h = rand_element(rng, fac.ctx, s)
            if not kernel_member(h.inverse() * g * h, spec):
                normal_bad += 1
        passed = member_bad == 0 and normal_bad == 0
        ok = ok and passed
        _emit(
            {
                "spec_m": s,
                "gamma": [str(g) for g in spec.gamma],
                "subgroup": f"slot {s} is additive on N_{s}",
                "normal": f"[G, N_{s}] <= N_{s + 1}, so conjugation fixes slots 1..{s}",
                "samples": args.samples,
                "member_violations": member_bad,
                "normality_violations": normal_bad,
                "pass": passed,
            }
        )
    _emit({"summary": True, "pass": ok, "seed": seed})
    return 0 if ok else 2


def _cmd_check(args: argparse.Namespace) -> int:
    from .checks import run_suites
    cfg = load_config(args.config)
    seed = _need_seed(args, cfg)
    results = []
    for r in run_suites(cfg, seed, args.selector):
        _emit(r.to_dict(reproducible=args.reproducible))
        sys.stdout.flush()
        results.append(r)
    summary: dict = {
        "summary": True,
        "suites": len(results),
        "cases": sum(r.cases for r in results),
        "failures": sum(r.failures for r in results),
        "failed": [r.suite for r in results if not r.passed],
        "pass": all(r.passed for r in results),
        "seed": seed,
    }
    if not args.reproducible:
        summary["timestamp"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
    _emit(summary)
    return 0 if summary["pass"] else 2


# ------------------------------------------------------------------ parser


def _add_config(p: _Parser) -> None:
    p.add_argument(
        "--config",
        default=None,
        help="config JSON path (default: $SKEWTORUS_CONFIG or built-ins)",
    )


def _add_iterate(p: _Parser) -> None:
    _add_config(p)
    p.add_argument("--m", type=_int, default=None, help="tower dimension")
    p.add_argument("--x0", default=None, help="base rotation angle")
    p.add_argument(
        "--point", default=None, help="comma-separated start coordinates"
    )
    p.add_argument("--n", type=_int, required=True, help="iterate count (any sign)")
    p.add_argument(
        "--oracle",
        action="store_true",
        help=f"recompute by stepping and report agreement (|n| <= {ORACLE_MAX_STEPS}, "
        f"|n|*m <= {ORACLE_MAX_COORD_STEPS})",
    )
    p.set_defaults(func=_cmd_iterate)


def _add_weyl(p: _Parser) -> None:
    _add_config(p)
    p.add_argument("--poly", default=None, help="polynomial, e.g. '1*b1*C(n,2)'")
    p.add_argument(
        "--char",
        type=_int,
        default=None,
        help="coordinate character index (orbit polynomial of the config system)",
    )
    p.add_argument("--point", default=None, help="orbit start for --char")
    p.add_argument(
        "--N",
        type=_int,
        default=None,
        help=f"sample count per shift (N * shifts <= {MAX_SAMPLES})",
    )
    p.add_argument("--shifts", default=None, help="comma-separated start shifts")
    p.add_argument("--tol", default=None, help="pass tolerance")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_weyl)


def _add_ellis(p: _Parser) -> None:
    _add_config(p)
    p.add_argument(
        "op", choices=("star", "inv", "comm", "act", "is-iterate"),
        help="operation",
    )
    p.add_argument("--a", required=True, help="element JSON (inline or @file)")
    p.add_argument("--b", default=None, help="second element for star/comm")
    p.add_argument("--point", default=None, help="ambient point for act")
    p.set_defaults(func=_cmd_ellis)


def _add_factor_lab(p: _Parser) -> None:
    lab = p.add_subparsers(dest="lab_op", parser_class=_Parser)
    d = lab.add_parser("demo", help="witness construction with controls")
    _add_config(d)
    d.set_defaults(func=_cmd_factor_demo)
    k = lab.add_parser("kernel", help="kernel normality proof with a conjugation spot-check")
    _add_config(k)
    k.add_argument(
        "--samples", type=_int, default=50,
        help=f"samples per spec (1 to {KERNEL_MAX_SAMPLES})",
    )
    k.add_argument("--seed", type=_int, default=None)
    k.set_defaults(func=_cmd_factor_kernel)


def _add_check(p: _Parser) -> None:
    _add_config(p)
    p.add_argument(
        "selector",
        nargs="?",
        default="all",
        help="suite id, module prefix, or 'all'",
    )
    p.add_argument("--seed", type=_int, default=None)
    p.add_argument(
        "--reproducible",
        action="store_true",
        help="drop timestamp and timing fields for byte-identical output",
    )
    p.set_defaults(func=_cmd_check)


# command name -> (help text, function that adds the command's arguments)
COMMANDS = {
    "iterate": ("closed-form tower iteration", _add_iterate),
    "weyl": ("Weyl averages against the predicted target", _add_weyl),
    "ellis": ("group element operations", _add_ellis),
    "factor-lab": ("coset non-separation laboratory", _add_factor_lab),
    "check": ("seeded property suites", _add_check),
}


def build_parser() -> _Parser:
    """The parser with every command; `main` parses with it only to report
    a usage error that the invoked command's own parser lets through."""
    parser = _Parser(
        prog="skewtorus",
        description=(
            "Exact truncated transformation groups of skew-product torus "
            "towers, with Weyl-sum equidistribution checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (help_text, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


# Safe to reuse: a parse fills a new Namespace, messages are formatted when printed, defaults are immutable
@lru_cache(maxsize=None)
def _command_parser(name: str) -> _Parser:
    """The parser the full one builds for the command name, built on its
    first call in a process; `main` asks only for names in COMMANDS."""
    parser = _Parser(prog=f"skewtorus {name}")
    COMMANDS[name][1](parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, rest = None, None
    if argv and argv[0] in COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
    func = getattr(args, "func", None)
    if rest or func is None:
        parser = build_parser()
        args = parser.parse_args(argv)
        func = getattr(args, "func", None)
        if func is None:
            parser.error("a command is required")
    try:
        return func(args)
    except (SkewtorusError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
