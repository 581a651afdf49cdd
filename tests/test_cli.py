"""End-to-end CLI behavior: JSON lines, exit codes, configuration.

main() is invoked in-process; stdout must stay machine-readable (one
JSON object per line) with all prose on stderr.  Exit codes: 0 pass,
2 checked property failed, 3 unusable input.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import skewtorus
from skewtorus import cli
from skewtorus.circle import MAX_SYMBOL_LENGTH, Angle, format_point
from skewtorus.cli import (
    COMMANDS,
    KERNEL_MAX_SAMPLES,
    ORACLE_MAX_COORD_STEPS,
    ORACLE_MAX_STEPS,
    build_parser,
    main,
)
from skewtorus.config import FACTOR_MAX_M, MAX_LEVEL, MAX_PLACES, MAX_SYMBOLS, Config
from skewtorus.dynamics import MAX_SYSTEM_M
from skewtorus.ellis import HmElement
from skewtorus.endo import LEVEL_SEARCH_BOUND
from skewtorus.errors import shown
from skewtorus.samplers import rand_element
from skewtorus.weyl import MAX_SAMPLES, MAX_SHIFTS


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("SKEWTORUS_CONFIG", raising=False)


def lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.strip().splitlines()]


def tilde_json(n: int, m: int) -> str:
    return json.dumps(HmElement.tilde(Config().context(), n, m).to_dict())


def test_iterate_default_system(capsys):
    assert main(["iterate", "--n", "3"]) == 0
    out, err = capsys.readouterr()
    assert lines(out) == [{"point": ["3*b1", "3*b1"]}]
    assert "minimal" in err
    assert err.startswith("# ")


def test_iterate_oracle_agreement(capsys):
    code = main(
        ["iterate", "--n", "-7", "--point", "1/6, 1/7 + 2*b2", "--oracle"]
    )
    assert code == 0
    (row,) = lines(capsys.readouterr().out)
    assert row["agrees"] is True


def test_iterate_oracle_is_capped(capsys):
    cap = ORACLE_MAX_STEPS
    assert main(["iterate", "--n", str(-cap - 1), "--oracle"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"|n| = {cap + 1} exceeds the cap of {cap}" in err
    # the work is bounded by coordinate steps too: |n|*m <= 2 * cap
    assert ORACLE_MAX_COORD_STEPS == 2 * cap
    for n in (cap, ORACLE_MAX_COORD_STEPS // 64 + 1):
        assert main(["iterate", "--m", "64", "--n", str(-n), "--oracle"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"|n|*m = {n}*64 = {n * 64} exceeds the cap of {ORACLE_MAX_COORD_STEPS}" in err
    # closed-form iteration alone has no cap on n, only on the dimension
    assert main(["iterate", "--n", str(10**12)]) == 0
    capsys.readouterr()
    assert main(["iterate", "--m", str(MAX_SYSTEM_M + 1), "--n", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"at most MAX_SYSTEM_M = {MAX_SYSTEM_M}, got {MAX_SYSTEM_M + 1}" in err


def test_iterate_torsion_base_notes_period(capsys):
    assert main(["iterate", "--x0", "1/4", "--n", "2"]) == 0
    err = capsys.readouterr().err
    assert "not minimal" in err
    assert "order 4" in err


def test_iterate_rejects_bad_angle(capsys):
    assert main(["iterate", "--n", "1", "--x0", "1 + ?"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "(at offset 4)" in err
    # an empty --point is an empty angle, not the zero point
    assert main(["iterate", "--n", "1", "--point", ""]) == 3
    assert "empty angle (at offset 0)" in capsys.readouterr().err


def test_iterate_refuses_undeclared_symbols(tmp_path, capsys):
    """x0 and the start point use only declared symbols, whether they come
    from the config or the flags; a symbol that cancels out is no use."""
    assert main(["iterate", "--n", "3", "--x0", "1/2*b3"]) == 3
    assert "error: --x0 must use only basis symbols, got '1/2*b3'" in capsys.readouterr().err
    assert main(["iterate", "--n", "3", "--point", "1/2*b3,0"]) == 3
    assert "error: --point must use only basis symbols, got '1/2*b3,0'" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"system": {"x0": "1*b3"}}))
    for argv in (["iterate", "--n", "3"], ["check", "all", "--seed", "1"]):
        assert main(argv + ["--config", str(bad)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: system.x0 must use only basis symbols, got '1*b3'\n"
    cancelled = tmp_path / "cancelled.json"
    cancelled.write_text(json.dumps({"system": {"x0": "b3 - b3 + 1/4"}}))
    assert main(["iterate", "--n", "2", "--x0", "1/3 + b3 - b3",
                 "--point", "b3 - b3, 0", "--config", str(cancelled)]) == 0
    assert json.loads(capsys.readouterr().out) == {"point": ["2/3", "1/3"]}
    assert main(["iterate", "--n", "2", "--config", str(cancelled)]) == 0
    assert json.loads(capsys.readouterr().out) == {"point": ["1/2", "1/4"]}


def test_weyl_and_ellis_act_name_the_flag_with_an_undeclared_symbol(capsys):
    """--poly and --point are refused by name when they use a symbol the
    basis does not declare; a symbol that cancels out is accepted."""
    act = ["ellis", "act", "--a", tilde_json(2, 3)]
    for flag, argv in [
        ("--poly", ["weyl", "--poly", "1*b3*C(n,2)"]),
        ("--point", ["weyl", "--char", "1", "--point", "1/2*b3,0"]),
        ("--point", act + ["--point", "0,1/2*b3,0,0"]),
    ]:
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {flag} must use only basis symbols, got {argv[-1]!r}\n"
    assert main(["weyl", "--poly", "b3 - b3 + 1/3*C(n,1)", "--N", "30", "--shifts", "0"]) == 0
    # exit 2: the run went ahead, and 10 samples miss the target
    assert main(["weyl", "--char", "1", "--point", "b3 - b3,0", "--N", "10", "--shifts", "0"]) == 2
    assert main(act + ["--point", "b3 - b3,0,0,0"]) == 0
    assert lines(capsys.readouterr().out)[-1] == {"point": ["0", "0", "0", "0"]}


def test_weyl_rational_json(capsys):
    code = main(
        ["weyl", "--poly", "(1/3)*C(n,2)", "--N", "999",
         "--shifts", "0,1000", "--tol", "1e-6"]
    )
    assert code == 0
    (report,) = lines(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["N"] == 999
    assert [r["k"] for r in report["rows"]] == [0, 1000]
    assert report["max_abs"] < 1e-10


def test_weyl_csv_format(capsys):
    code = main(
        ["weyl", "--poly", "(1/3)*C(n,2)", "--N", "99", "--shifts", "0",
         "--tol", "0.5", "--format", "csv"]
    )
    assert code == 0
    out = capsys.readouterr().out
    rows = out.strip().splitlines()
    assert rows[0] == "N,k,re,im,abs"
    assert len(rows) == 2
    assert rows[1].startswith("99,0,")


def test_weyl_failing_tolerance_exits_two(capsys):
    code = main(
        ["weyl", "--poly", "b1*C(n,2)", "--N", "50", "--shifts", "0",
         "--tol", "1e-9"]
    )
    assert code == 2
    (report,) = lines(capsys.readouterr().out)
    assert report["pass"] is False


def test_weyl_argument_validation(capsys, monkeypatch):
    assert main(["weyl", "--N", "10"]) == 3  # neither --poly nor --char
    assert (
        main(["weyl", "--poly", "b1*C(n,1)", "--char", "1", "--N", "10"]) == 3
    )
    assert (
        main(["weyl", "--poly", "b1*C(n,1)", "--N", "10", "--shifts", "0",
              "--tol", "0"]) == 3
    )
    assert main(["weyl", "--char", "5", "--N", "10"]) == 3  # system has m=2
    capsys.readouterr()
    # a sample count below 1 is refused before the period target is summed
    targets = []
    monkeypatch.setattr(skewtorus.weyl, "equidistribution_target",
                        lambda *args: targets.append(args))
    for n in ("0", "-3"):
        assert main(["weyl", "--poly", "1/999983*C(n,64)", "--N", n, "--shifts", "0"]) == 3
        assert "sample count must be >= 1" in capsys.readouterr().err
    assert targets == []
    monkeypatch.undo()
    # shift values are ASCII digits only
    for shifts in ["١٢", "²", "--5", ""]:
        argv = ["weyl", "--poly", "b1*C(n,1)", "--N", "10", f"--shifts={shifts}"]
        assert main(argv) == 3
        assert f"bad shift value {shifts!r}" in capsys.readouterr().err
    # an empty --point is an empty angle, not the zero point
    assert main(["weyl", "--char", "1", "--point", "", "--N", "10"]) == 3
    assert "empty angle (at offset 0)" in capsys.readouterr().err
    # integer flags take ASCII digits with an optional '-' and nothing else
    for flag, value in [("--N", "1_0"), ("--N", "١٢"), ("--N", " 10"), ("--N", "+10"),
                        ("--N", ""), ("--char", "²")]:
        argv = ["weyl", "--poly", "b1*C(n,1)", "--shifts", "0", f"{flag}={value}"]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: bad integer value {value!r}" in err


def test_weyl_rejects_a_non_finite_tolerance(tmp_path, capsys):
    argv = ["weyl", "--poly", "1/3*C(n,2)", "--N", "10", "--shifts", "0"]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"tol": float("nan")}))  # json writes NaN
    for extra in (["--tol", "nan"], ["--tol", "inf"], ["--config", str(path)]):
        assert main(argv + extra) == 3, extra
        out, err = capsys.readouterr()
        assert "NaN" not in out and "Infinity" not in out
        assert "finite" in err


def test_weyl_tolerance_takes_ascii_decimals_only(capsys):
    argv = ["weyl", "--poly", "1/3*C(n,2)", "--N", "30", "--shifts", "0"]
    # float() would read these as 1.0, 10.0 and 1.0
    for tol in ["\u0661", "1_0", " 1", "1 ", "+1", "", "0x1p-3", "1e", "."]:
        assert main(argv + [f"--tol={tol}"]) == 3, tol
        out, err = capsys.readouterr()
        assert out == ""
        assert f"bad tolerance {tol!r}" in err
    for tol, want in [("0.5", 0.5), (".5", 0.5), ("5.", 5.0), ("1e-3", 0.001), ("2E+1", 20.0)]:
        assert main(argv + [f"--tol={tol}"]) in (0, 2), tol
        (report,) = lines(capsys.readouterr().out)
        assert report["tol"] == want
    # in the grammar, but not a positive finite float
    for tol in ["1e999", "-0.5", "0"]:
        assert main(argv + [f"--tol={tol}"]) == 3, tol
        assert "tolerance must be positive and finite" in capsys.readouterr().err


def test_weyl_periodic_work_is_bounded(capsys):
    # period 10^9 + 7 would take about 10^9 target terms: exit 3 at once
    start = time.perf_counter()
    assert main(["weyl", "--poly", "1/1000000007*C(n,2)", "--N", "10"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "minimal period 1000000007 exceeds the cap of 1000000" in err
    # period 32 is found without enumerating the divisors of 2 * 20!
    assert main(["weyl", "--poly", "1/2*C(n,20)", "--N", "64",
                 "--shifts", "0,5", "--tol", "1e-9"]) == 0
    (report,) = lines(capsys.readouterr().out)
    assert report["pass"] is True
    assert time.perf_counter() - start < 10


def test_weyl_sample_count_is_capped(tmp_path, capsys):
    cap = MAX_SAMPLES
    argv = ["weyl", "--poly", "1/3*C(n,2)", "--shifts", "0,1"]
    assert main(argv + ["--N", str(cap // 2 + 1)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"is {2 * (cap // 2 + 1)} samples, over the cap of {cap}" in err
    # the cap applies after the config and the flags are merged
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"N": cap + 1}))
    assert main(["weyl", "--poly", "1/3*C(n,2)", "--shifts", "0",
                 "--config", str(path)]) == 3
    assert "over the cap" in capsys.readouterr().err
    # the default config (N = 200,000 at 4 shifts) stays accepted
    assert main(["weyl", "--char", "1"]) == 0
    (report,) = lines(capsys.readouterr().out)
    assert report["N"] == 200_000 and len(report["rows"]) == 4
    # `check` reads N from the config alone; the weyl suites that sample
    # it hit the same cap, per report and per average
    start = time.perf_counter()
    for suite in ("weyl.irrational-null", "weyl.decay"):
        argv = ["check", suite, "--seed", "1", "--config", str(path)]
        assert main(argv) == 3, suite
        assert "over the cap" in capsys.readouterr().err
    assert time.perf_counter() - start < 10


def test_weyl_shift_count_is_capped_after_the_sample_count(tmp_path, capsys):
    path = tmp_path / "shifts.json"
    path.write_text(json.dumps({"N": 1, "shifts": [0] * (MAX_SHIFTS + 1)}))
    assert main(["weyl", "--poly", "1/3*C(n,2)", "--config", str(path)]) == 3
    assert capsys.readouterr() == (
        "", f"error: {MAX_SHIFTS + 1} shifts are over the cap of {MAX_SHIFTS}\n")
    # past both caps, the sample count is reported
    N = MAX_SAMPLES // MAX_SHIFTS + 1
    assert main(["weyl", "--poly", "1/3*C(n,2)", "--N", str(N), "--config", str(path)]) == 3
    assert f"is {N * (MAX_SHIFTS + 1)} samples, over the cap of {MAX_SAMPLES}" in (
        capsys.readouterr().err)


def test_weyl_character_of_config_system(capsys):
    code = main(
        ["weyl", "--char", "2", "--N", "2000", "--shifts", "0,1000",
         "--tol", "0.1"]
    )
    assert code == 0
    (report,) = lines(capsys.readouterr().out)
    assert report["target"] == {"re": 0.0, "im": 0.0}


def test_ellis_star_and_inverse(capsys):
    assert main(["ellis", "star", "--a", tilde_json(2, 3),
                 "--b", tilde_json(3, 3)]) == 0
    (prod,) = lines(capsys.readouterr().out)
    ctx = Config().context()
    assert HmElement.from_dict(prod, ctx) == HmElement.tilde(ctx, 5, 3)

    assert main(["ellis", "inv", "--a", tilde_json(4, 2)]) == 0
    (inv,) = lines(capsys.readouterr().out)
    assert HmElement.from_dict(inv, ctx) == HmElement.tilde(ctx, -4, 2)


def test_ellis_is_iterate(capsys):
    assert main(["ellis", "is-iterate", "--a", tilde_json(5, 3)]) == 0
    assert lines(capsys.readouterr().out) == [{"n": 5}]


def test_ellis_commutator_reports_prediction(capsys):
    ctx = Config().context()
    ident = json.loads(tilde_json(0, 3))
    a = {**ident, "comps": list(ident["comps"])}
    a["comps"][2] = {"residue": 0, "images": {"b1": "1/720*b1"}}
    b = json.loads(tilde_json(1, 3))
    b["comps"][1] = {"residue": 1, "images": {"b1": "1/2"}}
    code = main(
        ["ellis", "comm", "--a", json.dumps(a), "--b", json.dumps(b)]
    )
    assert code == 0
    (out,) = lines(capsys.readouterr().out)
    assert out["left_prefix"] == 1
    assert out["central_level"] == 2
    assert out["predicted_agrees"] is True
    top = HmElement.from_dict(out["element"], ctx).comps[3]
    assert str(top(ctx.generator("b1"))) == "1/2"


def test_ellis_act_frozen(capsys):
    code = main(
        ["ellis", "act", "--a", tilde_json(3, 2),
         "--point", "1/720, 1/720*b1, 1/2"]
    )
    assert code == 0
    assert lines(capsys.readouterr().out) == [
        {"point": ["1/720", "1/240 + 1/720*b1", "121/240 + 1/240*b1"]}
    ]


def test_ellis_act_stops_the_level_search_at_its_bound(capsys):
    # 1000003 is prime, so no L! up to LEVEL_SEARCH_BOUND is a multiple of
    # it; a search without the bound would run to level 1000003
    start = time.perf_counter()
    assert main(["ellis", "act", "--a", tilde_json(1, 1), "--point", "0, 1/1000003"]) == 3
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"no level up to {LEVEL_SEARCH_BOUND} is sufficient" in err
    element = json.loads(tilde_json(1, 1))
    element["comps"][1]["images"]["b1"] = "1/1000003*b1"
    assert main(["ellis", "inv", "--a", json.dumps(element)]) == 3
    assert f"no level up to {LEVEL_SEARCH_BOUND} is sufficient" in capsys.readouterr().err


def test_ellis_refuses_to_print_past_the_integer_digit_limit(tmp_path, capsys):
    # solve mode nests compositions, so at level 400 the inverse of an m = 5
    # element has a coefficient of about 4,300 digits
    el = rand_element(random.Random(0), Config(level=400).context(), 5)
    (tmp_path / "a5.json").write_text(json.dumps(el.to_dict()))
    (tmp_path / "level400.json").write_text(json.dumps({"level": 400}))
    argv = ["ellis", "inv", "--a", f"@{tmp_path / 'a5.json'}",
            "--config", str(tmp_path / "level400.json")]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"the limit is {sys.get_int_max_str_digits()} digits" in err


@pytest.mark.parametrize("source", ["flag", "shifts", "inline", "file", "config", "basis"])
def test_integers_past_the_digit_limit_name_their_source(source, tmp_path, capsys):
    """An integer too long for int() exits 3 with its length and where it
    came from, not CPython's advice to raise the limit."""
    digits = sys.get_int_max_str_digits() + 700
    big = "9" * digits
    element = json.loads(tilde_json(1, 1))
    element["comps"][1]["residue"] = "big"
    element = json.dumps(element).replace('"big"', big)
    (tmp_path / "big.json").write_text(element)
    (tmp_path / "seed.json").write_text(f'{{"seed": -{big}}}')
    (tmp_path / "basis.json").write_text(json.dumps({"basis": {"b1": f".{big}"}}))
    argv, where = {
        "flag": (["iterate", "--n", f"-{big}"], "argument --n: bad integer value"),
        "shifts": (["weyl", "--poly", "b1*C(n,1)", "--shifts", f"0,{big}"], "bad shift value"),
        "inline": (["ellis", "inv", "--a", element], "--a"),
        "file": (["ellis", "inv", "--a", f"@{tmp_path / 'big.json'}"], "--a"),
        "config": (["check", "all", "--config", str(tmp_path / "seed.json")],
                   f"config {tmp_path / 'seed.json'}"),
        "basis": (["check", "all", "--config", str(tmp_path / "basis.json")],
                  "basis value for b1"),
    }[source]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits on a bad flag
        code = exc.code
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{where}: integer literal of {digits} digits is too long\n" in err
    assert "set_int_max_str_digits" not in err and big not in err


@pytest.mark.parametrize(
    "case", ["inline", "file", "config", "env", "file-bytes", "config-bytes", "b-type", "no-file"]
)
def test_json_inputs_that_cannot_be_read_name_their_source(case, tmp_path, monkeypatch, capsys):
    """Nesting past the decoder's recursion limit, a file that is not UTF-8,
    a value that is not an object and a missing file each exit 3 with empty
    stdout and a message that names the flag or the config path."""
    deep = "[" * 3000
    (tmp_path / "deep.json").write_text(deep)
    deep_config = str(tmp_path / "deep-config.json")
    Path(deep_config).write_text('{"level":' + "[" * 100_000)
    latin1 = str(tmp_path / "latin1.json")
    Path(latin1).write_bytes(b'{"level": "\xff"}')
    too_deep = "nests too deeply to decode"
    argv, message = {
        "inline": (["ellis", "inv", "--a", deep], f"--a {too_deep}"),
        "file": (["ellis", "inv", "--a", f"@{tmp_path / 'deep.json'}"], f"--a {too_deep}"),
        "config": (["check", "all", "--config", deep_config], f"config {deep_config} {too_deep}"),
        "env": (["check", "all"], f"config {deep_config} {too_deep}"),
        "file-bytes": (["ellis", "inv", "--a", f"@{latin1}"], f"--a: {latin1!r} is not UTF-8 ("),
        "config-bytes": (["check", "all", "--config", latin1],
                         f"config {latin1}: {latin1!r} is not UTF-8 ("),
        "b-type": (["ellis", "star", "--a", tilde_json(1, 2), "--b", "[1]"],
                   "--b must hold a JSON object"),
        "no-file": (["ellis", "inv", "--a", "@/no/such/file"],
                    "cannot read --a: [Errno 2] No such file or directory: '/no/such/file'"),
    }[case]
    if case == "env":
        monkeypatch.setenv("SKEWTORUS_CONFIG", deep_config)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_ellis_element_from_file(tmp_path, capsys):
    path = tmp_path / "elem.json"
    path.write_text(tilde_json(9, 2))
    assert main(["ellis", "is-iterate", "--a", f"@{path}"]) == 0
    assert lines(capsys.readouterr().out) == [{"n": 9}]
    assert main(["ellis", "is-iterate", "--a", "@/no/such/file"]) == 3
    capsys.readouterr()


def test_ellis_usage_errors(capsys):
    assert main(["ellis", "star", "--a", tilde_json(1, 2)]) == 3  # no --b
    assert main(["ellis", "act", "--a", tilde_json(1, 2)]) == 3  # no --point
    assert main(["ellis", "inv", "--a", "{not json"]) == 3
    assert main(["ellis", "inv", "--a", '["list"]']) == 3
    bad = json.loads(tilde_json(1, 2))
    bad["comps"][0] = {"residue": 2, "images": {}}
    assert main(["ellis", "inv", "--a", json.dumps(bad)]) == 3
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["ellis", "frobnicate", "--a", tilde_json(1, 2)])
    assert info.value.code == 3
    capsys.readouterr()


def test_factor_lab_demo(capsys):
    assert main(["factor-lab", "demo"]) == 0
    (out,) = lines(capsys.readouterr().out)
    assert out["report"]["pass"] is True
    assert out["report"]["family_size"] == 114
    assert out["witness"]["m"] == 3


def test_factor_lab_kernel(capsys):
    assert main(["factor-lab", "kernel", "--seed", "5", "--samples", "5"]) == 0
    rows = lines(capsys.readouterr().out)
    assert [r.get("spec_m") for r in rows[:3]] == [1, 2, 3]
    assert all(r["member_violations"] == 0 for r in rows[:3])
    assert all(r["normality_violations"] == 0 for r in rows[:3])
    assert [(r["subgroup"], r["normal"]) for r in rows[:3]] == [
        (f"slot {s} is additive on N_{s}",
         f"[G, N_{s}] <= N_{s + 1}, so conjugation fixes slots 1..{s}")
        for s in (1, 2, 3)
    ]
    assert rows[3] == {"summary": True, "pass": True, "seed": 5}


def test_kernel_commands_run_at_factor_m_two(tmp_path, capsys):
    # only the kernels of dimension <= factor_m are built
    path = tmp_path / "m2.json"
    path.write_text(json.dumps({"level": 3, "factor_m": 2}))
    argv = ["factor-lab", "kernel", "--seed", "1", "--samples", "3", "--config", str(path)]
    assert main(argv) == 0
    rows = lines(capsys.readouterr().out)
    assert [r.get("spec_m") for r in rows[:-1]] == [1, 2]
    assert rows[-1] == {"summary": True, "pass": True, "seed": 1}
    assert main(["check", "kernel", "--seed", "1", "--config", str(path)]) == 0
    rows = lines(capsys.readouterr().out)
    assert [r["suite"] for r in rows[:-1]] == ["kernel.membership", "kernel.normality"]
    assert all(row["pass"] for row in rows)


def test_factor_lab_kernel_rejects_zero_samples(capsys):
    cap = KERNEL_MAX_SAMPLES
    for samples, message in [
        ("0", "--samples must be >= 1, got 0"),
        ("-5", "--samples must be >= 1, got -5"),
        (str(cap + 1), f"--samples = {cap + 1} exceeds the cap of {cap}"),
    ]:
        argv = ["factor-lab", "kernel", "--seed", "5", "--samples", samples]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err


def test_factor_lab_kernel_runs_the_sample_cap_at_level_400(tmp_path, capsys):
    # each spec is spot-checked in its own dimension (at most 3), so the cap
    # does not depend on factor_m; README gives about 3 s for this run with
    # two symbols, and 20 s leaves room for a slow host
    path = tmp_path / "level400.json"
    path.write_text(json.dumps({"level": 400, "factor_m": FACTOR_MAX_M}))
    argv = ["factor-lab", "kernel", "--seed", "1", "--samples", str(KERNEL_MAX_SAMPLES),
            "--config", str(path)]
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 20
    rows = lines(capsys.readouterr().out)
    assert [r["spec_m"] for r in rows[:-1]] == [1, 2, 3]
    assert all(r["samples"] == KERNEL_MAX_SAMPLES and r["pass"] for r in rows[:-1])


def test_sampled_checks_run_at_level_400_and_the_largest_factor_m(tmp_path, capsys):
    # the coset and subgroup suites draw in dimension 2 and the kernel suites
    # in each spec's own dimension, so factor_m does not scale their work;
    # drawn in dimension factor_m the three took over 200 s at these caps
    path = tmp_path / "level400.json"
    path.write_text(json.dumps({"level": 400, "factor_m": FACTOR_MAX_M}))
    start = time.perf_counter()
    for selector in ("kernel", "factor.membership", "factor.cosets"):
        assert main(["check", selector, "--seed", "1", "--config", str(path)]) == 0
    assert time.perf_counter() - start < 20
    summaries = [row for row in lines(capsys.readouterr().out) if row.get("summary")]
    assert [(row["cases"], row["pass"]) for row in summaries] == [
        (1400, True), (3002, True), (1200, True)
    ]


def test_factor_lab_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main(["factor-lab"])
    assert info.value.code == 3
    capsys.readouterr()


def test_check_runs_and_summarizes(capsys):
    assert main(["check", "comb.pascal", "--seed", "7"]) == 0
    rows = lines(capsys.readouterr().out)
    assert rows[0]["suite"] == "comb.pascal"
    assert rows[0]["failures"] == 0
    assert "elapsed_s" in rows[0]
    summary = rows[-1]
    assert summary["summary"] is True
    assert summary["pass"] is True
    assert summary["seed"] == 7
    assert "timestamp" in summary


def test_a_failing_check_formats_its_message_as_an_f_string_would():
    from skewtorus.checks import SuiteResult

    a, b = Angle.parse("1/3 + 1/2*b1"), Angle.parse("-2/7*b2")
    rec = SuiteResult("demo")
    rec.check(True, "never formatted: {}", a)
    rec.check(False, "assoc fails: {}, {}, {}", a, b, 5)
    rec.check(False, "constancy fails on {}, {}", a, b)
    rec.check(False, "a constant message")
    rec.check(False, "past the third sample: {}", a)
    assert (rec.cases, rec.failures) == (5, 4)
    assert rec.samples == [
        f"assoc fails: {a}, {b}, {5}",
        f"constancy fails on {format_point((a, b))}",
        "a constant message",
    ]


def test_check_reproducible_is_byte_identical(capsys):
    argv = ["check", "comb", "--seed", "42", "--reproducible"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "elapsed_s" not in first
    assert "timestamp" not in first


def test_check_selector_and_seed_errors(capsys):
    assert main(["check", "no.such.suite", "--seed", "1"]) == 3
    assert main(["check", "comb.pascal"]) == 3  # no seed anywhere
    err = capsys.readouterr().err
    assert "seed" in err


def test_check_prints_finished_suites_before_a_later_one_raises(tmp_path, capsys):
    # weyl.decay and weyl.determinism sample at most N = 1000 at once;
    # weyl.irrational-null takes N at every shift and hits the sample cap
    path = tmp_path / "many-shifts.json"
    path.write_text(json.dumps({"N": 1000, "shifts": [0] * (MAX_SAMPLES // 1000 + 1)}))
    assert main(["check", "weyl", "--seed", "1", "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    assert [row["suite"] for row in lines(out)] == ["weyl.decay", "weyl.determinism"]
    assert "over the cap" in err


def test_check_runs_below_level_five(tmp_path, capsys):
    # the suites build elements in dimension min(4, level), and tamper with
    # residues only below slot L, where the coherence congruence binds
    for level in (3, 4):
        path = tmp_path / f"level{level}.json"
        path.write_text(json.dumps({"level": level}))
        for suite in ("ellis.membership", "ellis.central", "dynamics.q-map",
                      "factor.membership"):
            argv = ["check", suite, "--seed", "1", "--config", str(path)]
            assert main(argv) == 0, (level, suite)
    assert all(row["pass"] for row in lines(capsys.readouterr().out))
    # level 2 is too low for the three-dimensional action suite
    path = tmp_path / "level2.json"
    path.write_text(json.dumps({"level": 2}))
    assert main(["check", "ellis.action", "--seed", "1", "--config", str(path)]) == 3
    assert "need 1 <= m <= level, got m=3" in capsys.readouterr().err
    # a selection holding such a suite is refused before any suite runs
    assert main(["check", "all", "--seed", "1", "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "ellis.action" in err
    assert "need 1 <= m <= level, got m=3" in err
    # factor.membership perturbs by a third-turn, so it declares level 3;
    # the other factor and kernel suites run at level 2 with factor_m = 2
    path.write_text(json.dumps({"level": 2, "factor_m": 2}))
    assert main(["check", "factor", "--seed", "1", "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "check suite factor.membership cannot run at level 2: needs level >= 3" in err
    for suite in ("factor.cosets", "factor.coset-constancy", "factor.nonseparation",
                  "kernel"):
        argv = ["check", suite, "--seed", "1", "--config", str(path)]
        assert main(argv) == 0, suite
    assert all(row["pass"] for row in lines(capsys.readouterr().out))


def test_config_file_and_env(tmp_path, monkeypatch, capsys):
    flagged = tmp_path / "flagged.json"
    flagged.write_text(json.dumps({"seed": 12}))
    env_cfg = tmp_path / "env.json"
    env_cfg.write_text(json.dumps({"seed": 11, "system": {"x0": "1/4"}}))

    monkeypatch.setenv("SKEWTORUS_CONFIG", str(env_cfg))
    assert main(["check", "comb.pascal"]) == 0
    rows = lines(capsys.readouterr().out)
    assert rows[-1]["seed"] == 11

    # an explicit --config wins over the environment
    assert main(["check", "comb.pascal", "--config", str(flagged)]) == 0
    rows = lines(capsys.readouterr().out)
    assert rows[-1]["seed"] == 12

    assert main(["iterate", "--n", "1"]) == 0
    out, err = capsys.readouterr()
    assert lines(out) == [{"point": ["1/4", "0"]}]
    assert "order 4" in err


def test_an_empty_config_path_is_refused(monkeypatch, capsys):
    # an explicit empty --config is an error, not the built-in defaults
    assert main(["check", "comb.pascal", "--seed", "1", "--config", ""]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "config path is empty" in err
    # an empty SKEWTORUS_CONFIG counts as unset
    monkeypatch.setenv("SKEWTORUS_CONFIG", "")
    assert main(["check", "comb.pascal", "--seed", "1"]) == 0
    capsys.readouterr()


def test_config_rejections(tmp_path, capsys):
    cases = [
        {"level": 1},
        {"basis": {"b1": "0.5"}},  # too few fractional digits
        # basis values are ASCII [0-9]*.[0-9]+: no exponent, underscore,
        # other digits or blanks padding the fractional digit count
        {"basis": {"b1": "0.4142135623730951e0000000000000000"}},
        {"basis": {"b1": "0.4_1_4_2_1_3_5_6_2_3_7_3_0_9_5_1_0"}},
        {"basis": {"b1": "0." + "\u0664" * 32}},  # Arabic-Indic digits
        {"basis": {"b1": " 0.4142135623730950488016887242096980785697"}},
        {"basis": {"b1": "0.4142135623730950488016887242096980785697\n"}},
        {"mystery": True},
        {"shifts": [-1]},
        {"shifts": []},  # a report over zero samples
        {"basis": {f"b{i}": "0." + "4" * 40 for i in range(1, MAX_SYMBOLS + 2)}},
        {"basis": {"b1": "0." + "4" * (MAX_PLACES + 1)}},
        {"system": {"x0": "??"}},
        {"system": {"m": 2, "mystery": 1}},
        {"system": {"m": MAX_SYSTEM_M + 1}},
        {"tol": -0.5},
        {"tol": 10**400},  # an int too large for a float
        {"x_symbol": "zz"},  # not a basis symbol
        {"level": 4, "factor_m": 5},
        {"level": MAX_LEVEL + 1},
        {"level": MAX_LEVEL, "factor_m": FACTOR_MAX_M + 1},
        {"basis": {"c1": "0.4142135623730950488016887242096980785697"}},  # no b1
        {"system": {"x0": "1*b3"}},  # not a basis symbol
        {"basis": {"c1": "0.4142135623730950488016887242096980785697"}, "x_symbol": "c1"},
    ]
    for i, data in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(data))
        assert main(["check", "comb.pascal", "--seed", "1",
                     "--config", str(path)]) == 3
    # one message format: <key> must be <what>, got <value>
    err = capsys.readouterr().err
    assert "level must be an integer >= 2, got 1" in err
    assert "shifts must be a nonempty list of nonnegative integers, got []" in err
    assert (f"basis must have at most MAX_SYMBOLS = {MAX_SYMBOLS} symbols, "
            f"got {MAX_SYMBOLS + 1}") in err
    assert (f"basis value for b1 has {MAX_PLACES + 1} fractional digits, "
            f"need 30 to MAX_PLACES = {MAX_PLACES}") in err
    assert "unknown config keys: ['system.mystery']" in err
    assert f"at most MAX_SYSTEM_M = {MAX_SYSTEM_M}, got {MAX_SYSTEM_M + 1}" in err
    assert "tol must be a positive finite number, got -0.5" in err
    assert "x_symbol must be a symbol of the basis, got 'zz'" in err
    assert "factor_m must be an integer from 2 to the level, got 5" in err
    assert f"level must be at most MAX_LEVEL = {MAX_LEVEL}, got {MAX_LEVEL + 1}" in err
    assert f"factor_m must be at most FACTOR_MAX_M = {FACTOR_MAX_M}, got {FACTOR_MAX_M + 1}" in err
    assert "x_symbol must be a symbol of the basis, got 'b1' (the default)" in err
    assert "system.x0 must use only basis symbols, got '1*b3'\n" in err
    assert "system.x0 must use only basis symbols, got '1*b1' (the default)" in err
    path = tmp_path / "not-json.json"
    path.write_text("{")
    assert main(["check", "comb.pascal", "--seed", "1",
                 "--config", str(path)]) == 3
    capsys.readouterr()


def test_a_basis_symbol_name_is_capped_before_its_value_is_read(tmp_path, capsys):
    path = tmp_path / "basis.json"
    b1 = dict(Config().basis_decimals)["b1"]

    def run(name: str, value: str, **extra) -> tuple:
        path.write_text(json.dumps({"basis": {name: value}, "x_symbol": name, **extra}))
        code = main(["iterate", "--n", "1", "--config", str(path)])
        return (code, *capsys.readouterr())

    # names up to the cap keep their messages byte for byte
    for name in ("b9", "b" * MAX_SYMBOL_LENGTH):
        assert run(name, "0.5x") == (
            3, "", f"error: basis value for {name} is not a decimal literal: '0.5x'\n")
    name = "b" * MAX_SYMBOL_LENGTH
    code, out, _ = run(name, b1, system={"x0": f"1*{name}"})
    assert code == 0 and lines(out) == [{"point": [f"1*{name}", "0"]}]
    # a longer name is refused by its length, whatever its value, and not echoed
    for n in (MAX_SYMBOL_LENGTH + 1, 100_000):
        for value in ("0.5x", b1):
            assert run("b" * n, value) == (
                3, "", "error: basis symbol names must have at most MAX_SYMBOL_LENGTH = "
                f"{MAX_SYMBOL_LENGTH} characters, got one of {n}\n")


def test_shown_cuts_only_a_repr_past_100_characters():
    assert shown("a" * 98) == repr("a" * 98)  # 100 characters with its quotes
    assert shown("a" * 99) == "'" + "a" * 99 + "... (a repr of 101 characters)"
    assert shown(["b1"] * 30) == repr(["b1"] * 30)[:100] + "... (a repr of 180 characters)"


def _with_comp(comp: object) -> dict:
    return {"level": 6, "m": 1, "comps": [{"residue": 0, "images": {}}, comp]}


@pytest.mark.parametrize("source, message, build, huge", [
    ("config", "tol must be a positive finite number, got ", lambda v: {"tol": v}, "x" * 100_000),
    ("config", "system must be an object with m and x0, got ", lambda v: {"system": v},
     "s" * 50_000),
    ("config", "unknown config keys: ", lambda keys: dict.fromkeys(keys, 1),
     [f"k{i}" for i in range(5_000)]),
    ("element", "level must be an integer, got ", lambda v: {"level": v, "comps": []},
     "z" * 100_000),
    ("element", "residue must be an integer, got ",
     lambda v: _with_comp({"residue": v, "images": {}}), "z" * 100_000),
    ("element", "an endomorphism must be an object, got ", _with_comp, ["z"] * 30_000),
    ("element", "image of b1 must be an angle string, got ",
     lambda v: _with_comp({"residue": 1, "images": {"b1": v}}), ["z"] * 30_000),
], ids=["tol", "system", "keys", "level", "residue", "endo", "image"])
def test_exit_3_messages_cap_a_long_value_and_give_its_length(
        tmp_path, capsys, source, message, build, huge):
    """A rejected value is echoed whole while its repr is short, and cut to
    100 characters plus the length of its repr when it is long."""
    short = ["z"] if isinstance(huge, list) else "z"
    for value in (short, huge):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(build(value)))
        if source == "config":
            argv = ["iterate", "--n", "1", "--config", str(path)]
        else:
            argv = ["ellis", "inv", "--a", f"@{path}"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        text = repr(sorted(value) if message.startswith("unknown") else value)
        if value is short:
            assert (out, err) == ("", f"error: {message}{text}\n")
        else:
            assert out == ""
            assert err == f"error: {message}{text[:100]}... (a repr of {len(text)} characters)\n"


def test_usage_errors_exit_three(capsys):
    for argv in [
        [], ["bogus"], ["iterate"], ["weyl", "--format", "xml"],
        ["iterate", "--n", "١٢"], ["iterate", "--n", "1_0"], ["iterate", "--n", "3", "--m", "٣"],
        ["factor-lab", "kernel", "--samples", "1_0"], ["factor-lab", "kernel", "--seed", "٥"],
        ["check", "comb.pascal", "--seed", "4_2"],
    ]:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 3
        assert capsys.readouterr().out == ""


def _run(parse, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_main_parses_as_the_full_parser_does():
    full = build_parser()
    (commands,) = [a for a in full._actions if a.dest == "command"]
    assert list(COMMANDS) == list(commands.choices)
    (lab_ops,) = [a for a in commands.choices["factor-lab"]._actions if a.dest == "lab_op"]
    helps = [[]] + [[c] for c in COMMANDS] + [["factor-lab", op] for op in lab_ops.choices]
    usage_errors = [["ellis"], ["iterate", "--n", "1", "extra"], ["factor-lab", "bogus"]]
    for argv in [path + ["--help"] for path in helps] + usage_errors:
        # main builds the parser for argv[0] alone
        expected = _run(lambda a: build_parser().parse_args(a), argv)
        assert expected[0] in (0, 3), argv
        assert _run(main, argv) == expected, argv


def test_a_valid_call_builds_only_its_own_parser(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cli._command_parser.cache_clear()
    assert main(["ellis", "star", "--a", tilde_json(2, 3), "--b", tilde_json(3, 3)]) == 0
    assert built == ["skewtorus ellis"]
    # a later call of the same command reuses that parser and builds none
    assert main(["ellis", "inv", "--a", tilde_json(2, 3)]) == 0
    assert built == ["skewtorus ellis"]
    capsys.readouterr()
    # a leftover argument is reported by the full parser, with its usage
    with pytest.raises(SystemExit) as info:
        main(["iterate", "--n", "1", "extra"])
    assert info.value.code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: skewtorus [-h] {iterate,weyl,ellis,factor-lab,check} ...")
    assert err.endswith("skewtorus: error: unrecognized arguments: extra\n")


def test_a_reused_parser_answers_as_a_fresh_one(monkeypatch):
    """Valid calls, type and usage errors, cap refusals and every --help,
    interleaved, give the same exit code, stdout and stderr byte for byte
    through the cached command parsers as through parsers built per call,
    also after COLUMNS changes under a filled cache."""
    elem = tilde_json(2, 3)
    helps = [[]] + [[c] for c in COMMANDS] + [["factor-lab", "demo"], ["factor-lab", "kernel"]]
    helps = [path + ["--help"] for path in helps]
    calls = [
        ["ellis", "star", "--a", elem, "--b", tilde_json(3, 3)],
        ["iterate", "--n", "x"],
        ["weyl", "--poly", "1/3*C(n,2)", "--N", "30", "--shifts", "0,7"],
        ["ellis"],
        ["factor-lab", "kernel", "--samples", "0"],
        ["iterate", "--n", "3", "--oracle"],
        ["weyl", "--char", "x"],
        ["iterate", "--n", "1", "extra"],
        ["factor-lab", "demo"],
        ["iterate", "--n", str(-ORACLE_MAX_STEPS - 1), "--oracle"],
        ["factor-lab", "bogus"],
        ["ellis", "inv", "--a", elem],
        ["weyl", "--format", "xml"],
        ["factor-lab", "kernel", "--samples", str(KERNEL_MAX_SAMPLES + 1)],
        ["bogus"],
        ["weyl", "--poly", "1/3*C(n,2)", "--N", str(MAX_SAMPLES), "--shifts", "0,1"],
        ["factor-lab", "kernel", "--samples", "2", "--seed", "5"],
        ["check", "comb.pascal", "--seed", "4_2"],
        ["check", "comb.pascal", "--seed", "1", "--reproducible"],
        ["iterate"],
        ["ellis", "comm", "--a", elem],
        ["iterate", "--n", "3", "--oracle"],
    ]
    argvs = []
    for i, argv in enumerate(calls):
        argvs += [argv, helps[i % len(helps)]]
    cli._command_parser.cache_clear()
    for columns in ("80", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        with monkeypatch.context() as m:
            m.setattr(cli, "_command_parser", cli._command_parser.__wrapped__)
            fresh = [_run(main, argv) for argv in argvs]
        assert {code for code, _, _ in fresh} == {0, 3}
        for _ in range(2):
            assert [_run(main, argv) for argv in argvs] == fresh, columns
    assert cli._command_parser.cache_info().currsize == len(COMMANDS)


def test_importing_the_cli_leaves_the_check_suites_unloaded():
    src = str(Path(skewtorus.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, skewtorus.cli; "
            "print(sorted(m for m in sys.modules if m in "
            "('skewtorus.checks', 'skewtorus.samplers', 'fractions', 'decimal')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_runtime_loads_only_the_standard_library():
    """Without site-packages, the package and its entry points import, and
    every module loaded is the standard library's or skewtorus's own."""
    src = str(Path(skewtorus.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import skewtorus, skewtorus.cli, skewtorus.checks, skewtorus.samplers; "
            "print(*sorted(m for m in sys.modules if m != '__main__' "
            "and m.partition('.')[0] not in sys.stdlib_module_names))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "skewtorus.samplers" in loaded
    assert all(m == "skewtorus" or m.startswith("skewtorus.") for m in loaded), loaded


def test_stdout_is_json_lines(capsys):
    assert main(["check", "circle.scaling", "--seed", "3"]) == 0
    out, err = capsys.readouterr()
    for line in out.strip().splitlines():
        json.loads(line)  # every stdout line is a JSON object
    for line in err.strip().splitlines():
        assert line.startswith("#") or not line
