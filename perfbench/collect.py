"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 0-9 --workloads algebra,cli --out runs.json

Runs ``run.py`` once per (workload, seed), one at a time, with the
``run_seconds`` from BENCHMARK.json, and prints for each end-to-end metric
the median, the quartiles and the quartile spread as a share of the
median (``statistics.quantiles(values, n=4)``).  This is how the bounds
in BENCHMARK.json and the figures in BASELINE.json were obtained.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def provenance() -> dict:
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git.stdout.strip() if git.returncode == 0 else None,
    }


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "min": min(values), "max": max(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report: dict = {"provenance": provenance(), "run_seconds": bench["run_seconds"],
                    "trace": args.trace, "runs": {}, "summary": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
            runs.append({"seed": seed, "result": result, "detail": detail})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(workload, seed, result["correct"], result["failed"], values if not args.trace else "",
                  file=sys.stderr, flush=True)
        report["runs"][workload] = runs
        if args.trace:
            counts: dict = {}
            for r in runs:
                calls = {k: v["value"] for k, v in r["result"]["metrics"].items() if k.endswith(".calls")}
                counts.setdefault(r["seed"], []).append(calls)
            same = all(all(c == cs[0] for c in cs) for cs in counts.values())
            report["summary"][workload] = {"identical_calls_per_seed": same}
            print(f"  {workload:14s} identical .calls at each seed: {same}", file=sys.stderr)
        elif len(runs) >= 2:
            summary = {}
            for name in runs[0]["result"]["metrics"]:
                s = summarise([r["result"]["metrics"][name]["value"] for r in runs])
                s["bound"] = bounds.get(name)
                summary[name] = s
                print(f"  {workload:14s} {name:12s} median {s['median']:.5g} spread {s['spread']:.3f}"
                      f" (bound {s['bound']})", file=sys.stderr)
            report["summary"][workload] = summary
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
