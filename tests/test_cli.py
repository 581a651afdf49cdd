"""End-to-end CLI behavior: JSON lines, exit codes, configuration.

main() is invoked in-process; stdout must stay machine-readable (one
JSON object per line) with all prose on stderr.  Exit codes: 0 pass,
2 checked property failed, 3 unusable input.
"""

import json
import time

import pytest

from skewtorus.cli import ORACLE_MAX_STEPS, main
from skewtorus.config import Config
from skewtorus.ellis import HmElement
from skewtorus.weyl import MAX_SAMPLES


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
    # closed-form iteration alone has no cap
    assert main(["iterate", "--n", str(10**12)]) == 0
    capsys.readouterr()


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


def test_weyl_argument_validation(capsys):
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


def test_weyl_rejects_a_non_finite_tolerance(tmp_path, capsys):
    argv = ["weyl", "--poly", "1/3*C(n,2)", "--N", "10", "--shifts", "0"]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"tol": float("nan")}))  # json writes NaN
    for extra in (["--tol", "nan"], ["--tol", "inf"], ["--config", str(path)]):
        assert main(argv + extra) == 3, extra
        out, err = capsys.readouterr()
        assert "NaN" not in out and "Infinity" not in out
        assert "finite" in err


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
    assert rows[3] == {"summary": True, "pass": True, "seed": 5}


def test_factor_lab_kernel_rejects_zero_samples(capsys):
    for samples in ["0", "-5"]:
        argv = ["factor-lab", "kernel", "--seed", "5", "--samples", samples]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--samples must be >= 1, got {samples}" in err


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


def test_check_runs_below_level_five(tmp_path, capsys):
    # the suites build elements in dimension min(4, level), and tamper with
    # residues only below slot L, where the coherence congruence binds
    for level in (3, 4):
        path = tmp_path / f"level{level}.json"
        path.write_text(json.dumps({"level": level}))
        for suite in ("ellis.membership", "ellis.central", "dynamics.q-map"):
            argv = ["check", suite, "--seed", "1", "--config", str(path)]
            assert main(argv) == 0, (level, suite)
    assert all(row["pass"] for row in lines(capsys.readouterr().out))
    # level 2 is too low for the three-dimensional action suite
    path = tmp_path / "level2.json"
    path.write_text(json.dumps({"level": 2}))
    assert main(["check", "ellis.action", "--seed", "1", "--config", str(path)]) == 3
    assert "need 1 <= m <= level, got m=3" in capsys.readouterr().err


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


def test_config_rejections(tmp_path, capsys):
    cases = [
        {"level": 1},
        {"basis": {"b1": "0.5"}},  # too few fractional digits
        {"mystery": True},
        {"shifts": [-1]},
        {"system": {"x0": "??"}},
        {"system": {"m": 2, "mystery": 1}},
        {"tol": -0.5},
        {"tol": 10**400},  # an int too large for a float
    ]
    for i, data in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(data))
        assert main(["check", "comb.pascal", "--seed", "1",
                     "--config", str(path)]) == 3
    # one message format: <key> must be <what>, got <value>
    err = capsys.readouterr().err
    assert "level must be an integer >= 2, got 1" in err
    assert "unknown config keys: ['system.mystery']" in err
    assert "tol must be a positive finite number, got -0.5" in err
    path = tmp_path / "not-json.json"
    path.write_text("{")
    assert main(["check", "comb.pascal", "--seed", "1",
                 "--config", str(path)]) == 3
    capsys.readouterr()


def test_usage_errors_exit_three(capsys):
    for argv in [[], ["bogus"], ["iterate"], ["weyl", "--format", "xml"]]:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 3
        capsys.readouterr()


def test_stdout_is_json_lines(capsys):
    assert main(["check", "circle.scaling", "--seed", "3"]) == 0
    out, err = capsys.readouterr()
    for line in out.strip().splitlines():
        json.loads(line)  # every stdout line is a JSON object
    for line in err.strip().splitlines():
        assert line.startswith("#") or not line
