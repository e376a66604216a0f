import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kppspeed
from kppspeed import experiments
from kppspeed.cli import main
from kppspeed.eigen import EigenError, dk_dB_at_zero, principal_eigen_steady
from kppspeed.experiments import run_experiment
from kppspeed.fields import CoefficientSet
from kppspeed.operators import GridError, build_grid
from kppspeed.scenario import (Assertion, ExperimentReport, ScenarioError, load_scenario,
                               write_report)
from kppspeed.simulate import SimulationError
from kppspeed.speed import SpeedError, spreading_speed

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
[scenario]
experiment = growth-monotone
"""

FAST_SCENARIO = """
[scenario]
name = fast-check
experiment = growth-monotone

[coefficients]
A = 1
q = 0
mu = 1 + eps*sin(2*pi*x)

[parameters]
eps = 0.2

[grid]
n = 128

[experiment]
e = 1
margin_strict = 1e-4
"""

FAILING_SCENARIO = """
[scenario]
name = failing-check
experiment = growth-monotone

[coefficients]
mu = 1

[grid]
n = 128

[experiment]
increment = 0
margin_strict = 1e-4
"""


def _write(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_minimal_scenario_fills_defaults(tmp_path):
    sc = load_scenario(_write(tmp_path, MINIMAL))
    assert sc.geometry.period == 1.0
    assert sc.geometry.lengths == (1.0,)
    assert sc.grid.n_space == (256,)
    assert sc.grid.n_t == 256
    assert sc.coefficients.mu(0.0, 0.3) == 1.0
    assert sc.experiment == "growth-monotone"
    assert sc.output_format == "csv"


def test_unknown_parameter_named_in_error(tmp_path):
    bad = MINIMAL + "\n[coefficients]\nmu = 1 + beta*cos(2*pi*x)\n"
    with pytest.raises(ScenarioError) as exc:
        load_scenario(_write(tmp_path, bad))
    assert "beta" in str(exc.value)


def test_grid_cap_exceeded(tmp_path):
    bad = MINIMAL + "\n[grid]\nn = 4096\ncap = 1024\n"
    with pytest.raises(ScenarioError) as exc:
        load_scenario(_write(tmp_path, bad))
    assert "cap" in str(exc.value)


def test_missing_file():
    with pytest.raises(ScenarioError):
        load_scenario("/nonexistent/path.ini")


@pytest.mark.parametrize("section, key, value", [
    ("scenario", "seed", "abc"), ("geometry", "T", "abc"), ("geometry", "L", "1 abc"),
    ("grid", "n", "12.5"), ("grid", "nt", "x"), ("grid", "cap", "1e6"),
    ("experiment", "margin_strict", "abc"), ("experiment", "e", "one"),
    ("experiment", "kappa_grid", "1 2 three"), ("experiment", "pairs", "2.5"),
])
def test_non_numeric_value_names_file_section_and_key(tmp_path, section, key, value):
    path = _write(tmp_path, f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ScenarioError) as exc:
        sc = load_scenario(path)
        sc.opt_floats("e", [1.0])
        sc.opt_float("margin_strict", 1e-4)
        sc.opt_floats("kappa_grid", [1.0])
        sc.opt_int("pairs", 10)
    assert f"{path} [{section}] {key}:" in str(exc.value)


@pytest.mark.parametrize("section, key, value", [
    ("geometry", "T", "nan"), ("geometry", "L", "1 inf"), ("parameters", "eps", "-inf"),
    ("experiment", "margin_strict", "nan"), ("experiment", "e", "NaN"),
    ("experiment", "kappa_grid", "1 2 -inf"),
])
def test_non_finite_number_names_file_section_and_key(tmp_path, section, key, value):
    # every float the scenario reader parses is finite, as the CLI flags are
    path = _write(tmp_path, f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ScenarioError) as exc:
        sc = load_scenario(path)
        sc.opt_float("margin_strict", 1e-4)
        sc.opt_floats("e", [1.0])
        sc.opt_floats("kappa_grid", [1.0])
    assert str(exc.value) == f"{path} [{section}] {key}: not a finite number ({value!r})"


def test_cli_run_nan_experiment_number_exits_2_without_traceback(tmp_path):
    path = _write(tmp_path, FAST_SCENARIO.replace("margin_strict = 1e-4", "margin_strict = nan"))
    out_dir = tmp_path / "out"
    proc = _run_module("run", str(path), "--out", str(out_dir))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"kpp-speed run: {path} [experiment] margin_strict: not a finite number ('nan')"]
    assert not out_dir.exists()


@pytest.mark.parametrize("experiment, options, key, why", [
    ("growth-monotone", "e = 0", "e", "direction must be nonzero"),
    ("growth-monotone", "e = 1 0", "e", "needs 1 component(s), got 2"),
    ("shear", "e = 1", "e", "needs 2 component(s), got 1"),
    ("diffusion-monotone", "kappa_grid = 0 1", "kappa_grid", "every kappa must be positive"),
    ("derivative", "fd_step = 0", "fd_step", "must be nonzero"),
    ("shear", "b_grid = 0\nn_full = 4", "n_full", "grid needs at least 8 points per axis"),
    ("simulate-validate", "points_per_cell = 4", "points_per_cell",
     "grid needs at least 8 points per axis"),
    ("simulate-validate", "steps_per_period = 4", "steps_per_period",
     "need at least 8 time steps per period"),
    ("potential-drift", "b_grid = 1\nn_transform = 8", "n_transform",
     "grid needs at least 8 points per axis"),
    ("potential-drift", "b_grid = 0\nratio_from = 0", "ratio_from", "must be positive"),
    ("diffusion-monotone", "kappa_grid = ", "kappa_grid", "empty list"),
    ("amplitude", "b_grid =", "b_grid", "empty list"),
], ids=["e-zero", "e-too-long", "e-too-short", "kappa-zero", "fd-step-zero", "n-full",
        "points-per-cell", "steps-per-period", "n-transform", "ratio-from-zero",
        "kappa-grid-empty", "b-grid-empty"])
def test_cli_run_unusable_experiment_value_exits_2_without_traceback(
        tmp_path, experiment, options, key, why):
    # exit 1 means a FAILed assertion, so a value the experiment cannot use
    # is a scenario error like any other, named by file, section and key
    path = _write(tmp_path, f"[scenario]\nexperiment = {experiment}\n[grid]\nn = 32\n"
                            f"[experiment]\n{options}\n")
    out_dir = tmp_path / "out"
    proc = _run_module("run", str(path), "--out", str(out_dir))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"kpp-speed run: {path} [experiment] {key}: {why}"]
    assert not out_dir.exists()


@pytest.mark.parametrize("experiment, options, why", [
    ("simulate-validate", "t_end = 1", "level 0.5 never developed a trackable front"),
    ("potential-drift", "mu0 = -1", "k_0 = 1 >= 0: outside the spreading regime"),
], ids=["no-front", "no-spreading"])
def test_cli_run_failed_solve_exits_2_without_traceback(tmp_path, experiment, options, why):
    # values that no solve can use are a bad scenario too: one line naming the
    # file, exit 2, no report, and not a traceback with the FAIL code 1
    path = _write(tmp_path, f"[scenario]\nexperiment = {experiment}\n[grid]\nn = 32\n"
                            f"[experiment]\n{options}\n")
    out_dir = tmp_path / "out"
    proc = _run_module("run", str(path), "--out", str(out_dir))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"kpp-speed run: {path}: {why}"]
    assert not out_dir.exists()


@pytest.mark.parametrize("error", [EigenError, GridError, SimulationError, SpeedError])
def test_cli_run_reports_each_solve_error_in_one_line(tmp_path, capsys, monkeypatch, error):
    def failing_run(sc):
        raise error("cannot solve")

    monkeypatch.setattr(experiments, "run_experiment", failing_run)
    path = _write(tmp_path, FAST_SCENARIO)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"kpp-speed run: {path}: cannot solve\n"


@pytest.mark.parametrize("L, key", [("1", "a1"), ("1", "amp"), ("1", "a12"),
                                    ("1 1", "a13")])
def test_malformed_matrix_key_named_in_error(tmp_path, L, key):
    text = f"[scenario]\nexperiment = growth-monotone\n[geometry]\nL = {L}\n" \
           f"[coefficients]\n{key} = 2\n"
    with pytest.raises(ScenarioError, match=key):
        load_scenario(_write(tmp_path, text))


@pytest.mark.parametrize("section, key", [
    ("coefficients", "muu"), ("coefficients", "q2"), ("coefficients", "A13"),
    ("scenario", "experimnet"), ("geometry", "t"), ("grid", "nx"), ("output", "formats"),
])
def test_unknown_key_names_file_section_and_key(tmp_path, section, key):
    # a misspelt key would otherwise fall back to its default without a word
    path = _write(tmp_path, f"[{section}]\n{key} = 2\n")
    with pytest.raises(ScenarioError, match="unknown key") as exc:
        load_scenario(path)
    assert f"{path} [{section}] {key}:" in str(exc.value)


@pytest.mark.parametrize("L, keys", [
    ("1", "A a"), ("1", "mu MU"), ("1", "q q1"), ("1", "a a11"),
    ("1 1", "A A12"), ("1 1", "a22 A"), ("1 1", "q2 Q2"),
])
def test_ambiguous_coefficient_keys_name_both(tmp_path, L, keys):
    # one of the two would otherwise win without a word
    keys = keys.split()
    lines = "".join(f"{key} = {i + 2}\n" for i, key in enumerate(keys))
    path = _write(tmp_path, f"[geometry]\nL = {L}\n[coefficients]\n{lines}")
    with pytest.raises(ScenarioError, match="ambiguous") as exc:
        load_scenario(path)
    assert f"{path} [coefficients] " in str(exc.value)
    assert all(key in str(exc.value) for key in keys)


def test_unknown_key_message_lists_the_keys_read(tmp_path):
    path = _write(tmp_path, "[grid]\nnx = 64\n")
    with pytest.raises(ScenarioError, match=r"nx: unknown key \(read: n, nt, cap\)"):
        load_scenario(path)


def test_unknown_section_is_named(tmp_path):
    path = _write(tmp_path, MINIMAL + "\n[experimnet]\nmargin_strict = 10\n")
    with pytest.raises(ScenarioError, match=r"\[experimnet\]: unknown section"):
        load_scenario(path)


def test_unread_experiment_key_fails_the_run(tmp_path):
    # the verdict would otherwise be made at the default margin
    path = _write(tmp_path, FAST_SCENARIO + "margin_strikt = 10\n")
    sc = load_scenario(path)
    with pytest.raises(ScenarioError) as exc:
        run_experiment(sc)
    message = str(exc.value)
    assert f"{path} [experiment] margin_strikt: unknown key" in message
    assert "(read: margin_strict, e, increment)" in message


def test_report_inputs_hold_every_value_read(tmp_path):
    report = run_experiment(load_scenario(_write(tmp_path, FAST_SCENARIO)))
    assert report.scenario == "fast-check"
    paths = write_report(report, "json", tmp_path / "out")
    inputs = json.loads(paths[0].read_text())["inputs"]
    assert inputs == {
        "e": [1.0], "margin_strict": 1e-4, "increment": "0.1*(1 + cos(2*pi*x))",
        "seed": 0, "n": [128], "n_t": 128, "T": 1.0, "L": [1.0],
        "coefficients": {"A": "1", "q": ["0"], "mu": "1 + eps*sin(2*pi*x)"},
        "parameters": {"eps": 0.2}}


def test_cli_run_bad_scenario_is_one_line_and_no_report(tmp_path, capsys):
    bad = _write(tmp_path, FAST_SCENARIO + "margin_strikt = 10\n", "typo.ini")
    out_dir = tmp_path / "out"
    code = main(["run", str(bad), "--out", str(out_dir), "--format", "both"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"{bad} [experiment] margin_strikt: unknown key" in captured.err
    assert not out_dir.exists()
    for text, message in (("[grid]\nn = x\n", "[grid] n: not an integer"),
                          ("n = 64\n", "no section headers"),
                          ("[scenario]\nexperiment = nope\n", "unknown experiment 'nope'")):
        code = main(["run", str(_write(tmp_path, text)), "--out", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("L, line, message", [
    ("1", "mu = 1 + beta*cos(2*pi*x)", "mu: unknown identifier 'beta' at offset 5"),
    ("1", "MU = 1 + beta", "MU: unknown identifier 'beta'"),
    ("1 1", "a12 = 0.1*gamma", "a12: unknown identifier 'gamma'"),
    ("1 1", "q2 = 1 + z", "q2: unknown identifier 'z'"),
    ("1", "q1 = cos(2*pi*y)", "q1: variable 'y' is not available in a 1-dimensional cell"),
])
def test_coefficient_expression_error_names_its_key(tmp_path, L, line, message):
    path = _write(tmp_path, f"[geometry]\nL = {L}\n[coefficients]\n{line}\n")
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert str(exc.value).startswith(f"{path} [coefficients] {message}")


def test_asymmetric_matrix_error_names_the_section(tmp_path):
    # an error of two keys keeps the section-level message
    path = _write(tmp_path, "[geometry]\nL = 1 1\n[coefficients]\na12 = 0.1\na21 = 0.5\n")
    with pytest.raises(ScenarioError, match="not symmetric") as exc:
        load_scenario(path)
    assert str(exc.value).startswith(f"{path} [coefficients]: ")


def test_experiment_expression_error_names_its_key(tmp_path, capsys):
    # a bad expression in [experiment] is a bad scenario: exit 2, no report
    path = _write(tmp_path, FAST_SCENARIO + "increment = 0.1*(1 + cos(2*pi*z))\n")
    with pytest.raises(ScenarioError) as exc:
        run_experiment(load_scenario(path))
    assert str(exc.value).startswith(
        f"{path} [experiment] increment: unknown identifier 'z'")
    with pytest.raises(ScenarioError, match=r"\[experiment\] eta: variable 'y'"):
        load_scenario(path).opt_field("eta", "1 + y")
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "[experiment] increment: unknown identifier 'z'" in captured.err
    assert not out_dir.exists()


def test_derivative_check_fails_a_wrong_formula(monkeypatch):
    # the negated formula is as far from the centred quotient as the
    # derivative is large, far beyond tol_relative * |dk/dB| + 1e-9
    monkeypatch.setattr("kppspeed.experiments.dk_dB_at_zero",
                        lambda *a, **kw: -dk_dB_at_zero(*a, **kw))
    report = run_experiment(load_scenario(SCENARIOS / "derivative.ini"))
    assert len(report.assertions) == 2
    assert all(a.verdict == "FAIL" for a in report.assertions)


def test_coefficient_keys_are_case_insensitive(tmp_path):
    text = "[geometry]\nL = 1 1\n[coefficients]\nA11 = 2\nA22 = 3\nQ1 = 0.5\nMU = 4\n"
    cs = load_scenario(_write(tmp_path, text)).coefficients
    assert cs.A.eval_entry((1, 1), 0.0, 0.3, 0.2) == 3.0
    assert cs.q.eval_entry(0, 0.0, 0.3, 0.2) == 0.5
    assert cs.mu(0.0, 0.3, 0.2) == 4.0


def test_shipped_scenarios_all_load():
    names = {p.stem for p in SCENARIOS.glob("*.ini")}
    assert len(names) == 11
    for p in sorted(SCENARIOS.glob("*.ini")):
        sc = load_scenario(p)
        assert sc.experiment is not None


def test_assertion_kinds():
    assert Assertion.check("a", "ge", 1.0, 0.5, 0.0).verdict == "PASS"
    assert Assertion.check("a", "ge", 0.4, 0.5, 0.0).verdict == "FAIL"
    assert Assertion.check("a", "le", 0.4, 0.5, 0.0).verdict == "PASS"
    assert Assertion.check("a", "abs", 1.0, 1.0 + 1e-7, 1e-6,
                           equality=True).verdict == "PASS-EQUALITY"
    assert Assertion.check("a", "strict", 1.0, 0.5, 0.1).verdict == "PASS"
    assert Assertion.check("a", "strict", 0.55, 0.5, 0.1).verdict == "FAIL"
    with pytest.raises(ValueError):
        Assertion.check("a", "weird", 0.0, 0.0, 0.0)


def test_report_record_enters_speeds_and_eigenpairs():
    cs = CoefficientSet.from_expressions(A="1", mu="1 + 0.2*sin(2*pi*x)")
    grid = build_grid(cs.geometry, 32)
    speed = spreading_speed(cs, [1.0], grid)
    eig = principal_eigen_steady(cs, [0.5], grid)
    rep = ExperimentReport("growth-monotone", "probe", 0)
    assert rep.record("ray", speed) is speed
    # the minimizer, then each solve of the search
    assert len(rep.eigen_records) == 1 + len(speed.records)
    m = speed.eigen
    assert rep.eigen_records[0] == {"context": "ray:minimizer", "k": m.k,
                                    "lower": m.lower, "upper": m.upper}
    assert rep.eigen_records[1:] == [
        {"context": "ray", "k": r["k"], "lower": r["lower"], "upper": r["upper"]}
        for r in speed.records]
    assert rep.record("probe", eig) is eig
    assert len(rep.eigen_records) == 2 + len(speed.records)
    assert rep.eigen_records[-1] == {"context": "probe", "k": eig.k,
                                     "lower": eig.lower, "upper": eig.upper}


def test_report_csv_and_json_round_trip(tmp_path):
    sc = load_scenario(_write(tmp_path, FAST_SCENARIO))
    report = run_experiment(sc)
    assert report.passed
    paths = write_report(report, "both", tmp_path / "out")
    csv_path = next(p for p in paths if p.suffix == ".csv")
    json_path = next(p for p in paths if p.suffix == ".json")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(report.columns)
    assert len(lines) == 1 + len(report.rows)
    loaded = json.loads(json_path.read_text())
    assert loaded == report.to_dict()
    assert loaded["passed"] is True
    # verdicts carry left value, right value, tolerance, margin
    a = loaded["assertions"][0]
    assert {"name", "kind", "lhs", "rhs", "tolerance", "verdict", "margin"} <= set(a)


def test_identical_scenarios_produce_byte_identical_csv(tmp_path):
    sc = load_scenario(_write(tmp_path, FAST_SCENARIO))
    r1 = run_experiment(sc)
    r2 = run_experiment(load_scenario(_write(tmp_path, FAST_SCENARIO, "again.ini")))
    p1 = write_report(r1, "csv", tmp_path / "o1")[0]
    p2 = write_report(r2, "csv", tmp_path / "o2")[0]
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_run_pass_and_fail_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, FAST_SCENARIO, "good.ini")
    code = main(["run", str(good), "--out", str(tmp_path / "out"), "--format", "json"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    bad = _write(tmp_path, FAILING_SCENARIO, "bad.ini")
    code = main(["run", str(bad), "--out", str(tmp_path / "out2")])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


@pytest.mark.parametrize("argv, flag", [
    (["eig", "--param", "a=abc"], "--param a"), (["eig", "--lam", "abc"], "--lam"),
    (["speed", "--e", "1 abc"], "--e"), (["eig", "--L", "abc"], "--L"),
    (["speed", "--n", "12.5"], "--n"),
])
def test_cli_non_numeric_value_names_the_flag(argv, flag):
    with pytest.raises(SystemExit, match=f"^{flag}: not a number"):
        main(argv[:1] + ["--n", "16"] + argv[1:])


@pytest.mark.parametrize("argv, message", [
    (["eig", "--A", "1 + beta"], "--A: unknown identifier 'beta' at offset 5"),
    (["eig", "--q", "sin(2*pi*z)"], "--q: unknown identifier 'z'"),
    (["speed", "--mu", "1 + y"], "--mu: variable 'y' is not available"),
    (["eig", "--n", "4"], "--n, --nt: grid needs at least 8 points per axis"),
    (["speed", "--A", "-1"], "--A: diffusion matrix is not uniformly elliptic"),
    (["eig", "--lam", "nan"], "--lam: not a finite number ('nan')"),
    (["speed", "--e", "nan"], "--e: not a finite number ('nan')"),
    (["eig", "--L", "nan"], "--L: not a finite number ('nan')"),
    (["eig", "--param", "a=nan"], "--param a: not a finite number ('nan')"),
    (["eig", "--T", "inf"], "--T, --L: time period must be finite and strictly positive"),
])
def test_cli_bad_input_is_one_line(argv, message):
    # SystemExit with a message: one line on stderr, no traceback
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--n", "16"] + argv[1:])
    assert str(exc.value).startswith(message) and "\n" not in str(exc.value)


def _run_module(*argv):
    """`python -m kppspeed argv` in a subprocess that imports the same
    kppspeed as this test, installed or not."""
    src = str(Path(kppspeed.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "kppspeed", *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("argv, message", [
    (["eig", "--lam", "0.5 0.3"], "--lam: needs 1 component(s) in a 1D cell, got 2"),
    (["speed", "--e", "1 2"], "--e: needs 1 component(s) in a 1D cell, got 2"),
    (["speed", "--L", "1 1", "--e", "0 0"], "--e: direction must be nonzero"),
    (["speed", "--mu", "-1"], "kpp-speed speed: k_0 = 1 >= 0: outside the spreading regime"),
    (["eig", "--route", "steady", "--mu", "1+cos(2*pi*t)"],
     "kpp-speed eig: steady route requires time-independent coefficients"),
], ids=["lam-length", "e-length", "e-zero", "no-spreading", "steady-time-dependent"])
def test_cli_failure_below_the_flags_is_one_line(argv, message):
    proc = _run_module(*argv, "--n", "16")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [message]


def test_cli_eig_one_shot(capsys):
    code = main(["eig", "--A", "1", "--mu", "1", "--lam", "1", "--n", "64"])
    assert code == 0
    out = capsys.readouterr().out
    assert "k = " in out
    k = float(out.splitlines()[0].split("=")[1])
    assert abs(k + 2.0) <= 1e-8


def test_cli_eig_adjoint_flag(capsys):
    code = main(["eig", "--A", "1", "--mu", "1 + 0.5*cos(2*pi*x)", "--lam", "0",
                 "--n", "128", "--adjoint"])
    assert code == 0
    assert "adjoint k" in capsys.readouterr().out


def test_cli_speed_one_shot(capsys):
    code = main(["speed", "--A", "1", "--mu", "mu0", "--param", "mu0=1",
                 "--e", "1", "--n", "128"])
    assert code == 0
    out = capsys.readouterr().out
    c = float(out.splitlines()[0].split("=")[1])
    assert abs(c - 2.0) <= 1e-3
    assert "eigensolves = " in out


def test_cli_module_entry(tmp_path):
    good = _write(tmp_path, FAST_SCENARIO)
    proc = _run_module("run", str(good), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
