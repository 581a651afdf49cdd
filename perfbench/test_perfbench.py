"""Self-tests of the benchmark: seeded inputs, the output verifier, the tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from skewtorus import combinatorics, ellis  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = json.dumps(workloads.generate(workload, 7))
    assert json.dumps(workloads.generate(workload, 7)) == first
    assert json.dumps(workloads.generate(workload, 8)) != first


def _corrupt(out):
    """A wrong result of the same type as ``out``."""
    if isinstance(out, ellis.HmElement):
        return out * out
    if isinstance(out, complex):
        return complex(math.nextafter(out.real, 2.0), out.imag)
    if isinstance(out, tuple) and isinstance(out[0], complex):  # (target, average)
        return out[0], out[1] + 1e-6
    if isinstance(out, tuple) and isinstance(out[0], int):  # (exit code, stdout)
        return 3, out[1]
    raise TypeError(type(out))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_verifier_flags_a_corrupted_result(workload):
    rounds = workloads.build(workloads.generate(workload, run.REFERENCE_SEED))
    kinds = [op.kind for op in rounds[0]]
    i = kinds.index("star") if workload == "algebra" else min(
        range(len(kinds)), key=lambda j: rounds[0][j].units)
    op = rounds[0][i]
    good = op.call()
    bad = _corrupt(good)
    reference = json.loads(run.REFERENCE.read_text())["digests"][workload]

    by_digest = run.Verifier(reference)
    assert not by_digest((0, i), op, bad, None)
    assert by_digest((0, i), op, good, None)
    assert (by_digest.attempted, by_digest.failed) == (2, 1)

    on_repeat = run.Verifier(None)
    assert on_repeat((0, i), op, good, None)
    assert not on_repeat((0, i), op, bad, None)

    if workload != "weyl-stream":  # a 1-ulp change there shows only on repeats
        assert not run.Verifier(None)((0, i), op, bad, None)


def test_verifier_counts_a_raised_error_as_failed():
    op = workloads.build(workloads.generate("algebra", 1))[0][0]
    verify = run.Verifier(None)
    assert not verify((0, 0), op, None, ValueError("boom"))
    assert (verify.attempted, verify.failed) == (1, 1)


def test_tracer_counts_calls_through_a_by_name_import():
    ctx = workloads._Contexts().get(6, 2)
    el = ellis.HmElement.tilde(ctx, 5, 4)
    binom = combinatorics.binom
    star = ellis.HmElement.__dict__["__mul__"]
    tr = tracer.Tracer()
    with tr:
        assert ellis.binom is not binom  # ellis bound it by name; patched there too
        ellis.HmElement.validate(ctx, el.comps)
        el * el
    # validate calls binom(r1, k) for k = 2..m through ellis' own binding
    assert tr.child_calls("ellis.HmElement.validate", "combinatorics.binom") == 3
    assert tr.totals()["ellis.HmElement.__mul__"]["calls"] == 1
    assert ellis.binom is binom and combinatorics.binom is binom
    assert ellis.HmElement.__dict__["__mul__"] is star


def test_tracer_restores_originals_after_an_error():
    star = ellis.HmElement.__dict__["__mul__"]
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            1 / 0
    assert ellis.HmElement.__dict__["__mul__"] is star


def test_self_time_excludes_children():
    ctx = workloads._Contexts().get(6, 2)
    el = ellis.HmElement.tilde(ctx, 3, 4)
    tr = tracer.Tracer()
    with tr:
        el * el
    totals = tr.totals()
    row = totals["ellis.HmElement.__mul__"]
    assert 0 < row["self_s"] < row["total_s"]
    inner = sum(r["total_s"] for name, r in totals.items()
                if name in ("endo.TruncEndo.compose", "endo.TruncEndo.__mul__"))
    assert row["self_s"] == pytest.approx(row["total_s"] - inner, abs=1e-6)


def test_two_traced_runs_count_the_same_calls():
    data = workloads.generate("cli", 3)

    def counts():
        result = run.traced("cli", data, workloads.build(data), run.Verifier(None))
        return {k: v for k, (v, _) in result["metrics"].items() if k.endswith(".calls")}

    first = counts()
    assert first == counts()
    assert all(first.values())  # the probe reaches every traced function


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algebra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
