"""skewtorus benchmark harness.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One single-threaded process, one workload, a closed loop with one caller.

--trace 0 measures the end-to-end metrics untraced.  --trace 1 runs a
fixed op list untraced and under the span tracer, alternately, and reports
per-layer call counts, self times and ratios.  Either way the last line of
stdout is one JSON object: correct, attempted, failed, metrics.

Every op output is verified; a failed check counts the op as failed and
the run goes on.  ``--write-reference`` regenerates the committed output
digests (reference.json) for the reference seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0

SETUP_RUNS = 11
SETUP_SNIPPET = (
    "import skewtorus.cli, skewtorus.config as c; c.Config().context(); "
    "print(skewtorus.cli.__file__)"
)
WARMUP_S = 1.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing the CLI and
    building the default Config context (one unmeasured run first)."""
    env = {k: v for k, v in os.environ.items() if k != "SKEWTORUS_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        elapsed = time.perf_counter() - t0
        loaded = Path(proc.stdout.strip() or ".").resolve()
        if proc.returncode != 0 or SRC not in loaded.parents:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip() or proc.stdout}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


class Verifier:
    """Checks op outputs: committed digests at the reference seed, the
    op's own identities on first sight, equality with that first output
    on every repeat."""

    def __init__(self, reference: list | None) -> None:
        self.reference = reference
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0

    def __call__(self, key: tuple, op, out, error: Exception | None) -> bool:
        self.attempted += 1
        ok = error is None and self._ok(key, op, out)
        self.failed += not ok
        return ok

    def _ok(self, key: tuple, op, out) -> bool:
        try:
            canon = op.canon(out)
            if key in self.first:
                return canon == self.first[key]
            if self.reference is not None and key[0] != "probe":
                if digest(canon) != self.reference[key[0]][key[1]]:
                    return False
            if not op.check(out):
                return False
        except Exception:  # a malformed output is a failed op, not a crash
            return False
        self.first[key] = canon
        return True


def run_op(op) -> tuple:
    t0 = time.perf_counter()
    try:
        out, error = op.call(), None
    except Exception as exc:  # the program failing an op is a result to count
        out, error = None, exc
    return time.perf_counter() - t0, out, error


def percentile(sorted_vals: list, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def warm_up(rounds: list, verify: Verifier) -> None:
    """Untimed: round 0, cheapest ops first, for about WARMUP_S."""
    order = sorted(range(len(rounds[0])), key=lambda i: rounds[0][i].units)
    deadline = time.perf_counter() + WARMUP_S
    for i in order:
        _, out, error = run_op(rounds[0][i])
        verify((0, i), rounds[0][i], out, error)
        if time.perf_counter() >= deadline:
            break


def untraced(workload: str, rounds: list, seconds: float, verify: Verifier) -> dict:
    """Cycle through every distinct op until ``seconds`` have passed.

    Each op keeps its best time over its repetitions (the timeit
    convention): on a shared machine the slower repetitions mostly measure
    other tenants.  The timed phase stops only after a whole cycle, so
    every op runs equally often.
    """
    warm_up(rounds, verify)
    best: dict[tuple, float] = {}
    lat: list[float] = []
    cycles = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for k, rnd in enumerate(rounds):
            for i, op in enumerate(rnd):
                dt, out, error = run_op(op)
                lat.append(dt)
                best[k, i] = min(dt, best.get((k, i), dt))
                verify((k, i), op, out, error)
        cycles += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    best_s = sum(best.values())
    metrics = {
        "ops_per_s": (len(best) / best_s, "1/s"),
        "op_p50_ms": (percentile(sorted(best.values()), 0.50) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    srt = sorted(lat)
    detail = {
        "workload": workload,
        "distinct_ops": len(best),
        "repetitions": cycles,
        "raw_ops_per_s": len(lat) / sum(lat),
        "raw_op_p50_ms": percentile(srt, 0.50) * 1e3,
        "raw_op_p90_ms": percentile(srt, 0.90) * 1e3,
        "raw_op_p99_ms": percentile(srt, 0.99) * 1e3,
        "raw_ops_beyond_p99": len(lat) - math.ceil(0.99 * len(lat)),
        "failed_ratio": verify.failed / max(1, verify.attempted),
    }
    units = sum(rounds[k][i].units for k, i in best)
    if units:
        key = "period_terms_per_s" if workload == "weyl-periodic" else "samples_per_s"
        detail[key] = units / best_s
    return {"metrics": metrics, "detail": detail}


def traced(workload: str, data: dict, rounds: list, verify: Verifier) -> dict:
    import tracer
    import workloads

    keys = [("probe",)] + workloads.trace_selection(workload, data)
    probe = workloads.probe()
    ops = [probe if key[0] == "probe" else rounds[key[0]][key[1]] for key in keys]

    def one_pass(t: tracer.Tracer | None) -> float:
        t0 = time.perf_counter()
        for n, (key, op) in enumerate(zip(keys, ops)):
            if t is not None:
                t.op_id = n
            _, out, error = run_op(op)
            verify(key, op, out, error)
        return time.perf_counter() - t0

    one_pass(None)  # warm-up and first-sight verification
    # untraced and traced passes alternate; the overhead is best over best,
    # and the counts come from the first traced pass
    plain, traced_runs, tr = [], [], None
    for _ in range(3):
        plain.append(one_pass(None))
        t = tracer.Tracer()
        with t:
            traced_runs.append(one_pass(t))
        tr = tr or t
    plain_s, traced_s = min(plain), min(traced_runs)
    totals = tr.totals()

    metrics: dict = {}
    for name, row in totals.items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    star = "ellis.HmElement.__mul__"
    target = "weyl.equidistribution_target"
    period_terms = tr.child_calls(target, "dynamics.PolyAngle.evaluate")
    min_period = "weyl.minimal_period"
    metrics["ellis.star.compose_per_star"] = (
        tr.child_calls(star, "endo.TruncEndo.compose") / totals[star]["calls"], "ratio")
    metrics["weyl.weyl_average.ns_per_sample"] = (
        totals["weyl.weyl_average"]["total_s"] / tr.samples * 1e9, "ns")
    metrics["weyl.equidistribution_target.us_per_period_term"] = (
        totals[target]["total_s"] / period_terms * 1e6, "us")
    metrics["weyl.minimal_period.shift_trials_per_call"] = (
        tr.child_calls(min_period, "dynamics.PolyAngle.shift") / totals[min_period]["calls"], "ratio")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    detail = {"workload": workload, "ops": len(ops), "spans": tr.spans(),
              "untraced_s": plain_s, "traced_s": traced_s}
    return {"metrics": metrics, "detail": detail}


def write_reference() -> None:
    import workloads

    out = {"seed": REFERENCE_SEED, "digests": {}}
    for name in workloads.WORKLOADS:
        rounds = workloads.build(workloads.generate(name, REFERENCE_SEED))
        verify = Verifier(None)
        table = []
        for k, rnd in enumerate(rounds):
            row = []
            for i, op in enumerate(rnd):
                _, result, error = run_op(op)
                if not verify((k, i), op, result, error):
                    raise SystemExit(f"{name} op {k}/{i} ({op.kind}) fails its own checks")
                row.append(digest(op.canon(result)))
            table.append(row)
        out["digests"][name] = table
        print(f"{name}: {sum(map(len, table))} digests", file=sys.stderr)
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("algebra", "weyl-stream", "weyl-periodic", "cli"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "skewtorus" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/skewtorus", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("SKEWTORUS_CONFIG", None)
    import skewtorus
    import workloads

    if SRC not in Path(skewtorus.__file__).resolve().parents:
        print(f"perfbench: skewtorus imported from {skewtorus.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0

    setup_s = measure_setup() if args.trace == 0 else None
    data = workloads.generate(args.workload, args.seed)
    rounds = workloads.build(data)
    reference = None
    if args.seed == REFERENCE_SEED:
        reference = json.loads(REFERENCE.read_text())["digests"][args.workload]
    verify = Verifier(reference)
    if args.trace:
        result = traced(args.workload, data, rounds, verify)
    else:
        result = untraced(args.workload, rounds, args.seconds, verify)
        result["metrics"]["setup_s"] = (setup_s, "s")
    print(json.dumps({"detail": result["detail"]}))
    print(json.dumps({
        "correct": verify.failed == 0,
        "attempted": verify.attempted,
        "failed": verify.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
