"""tools/compare_reports.py: exit codes and the named differences."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from kppspeed.scenario import Assertion, ExperimentReport, write_report

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"


def _report(c_star=2.0028719, elapsed=1.5):
    rep = ExperimentReport("growth-monotone", "probe", 0, inputs={"e": [1.0]},
                           columns=["case", "c_star"], elapsed_seconds=elapsed)
    rep.rows += [{"case": "mu2", "c_star": 2.0}, {"case": "mu1", "c_star": c_star}]
    rep.assertions.append(Assertion.check("gain", "strict", c_star, 2.0, 1e-4))
    return rep


def _compare(a, b):
    return subprocess.run([sys.executable, str(TOOL), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


def _dirs(tmp_path, rep_a, rep_b):
    a, b = tmp_path / "a", tmp_path / "b"
    write_report(rep_a, "both", a)
    write_report(rep_b, "both", b)
    return a, b


def test_identical_directories_exit_0(tmp_path):
    run = _compare(*_dirs(tmp_path, _report(), _report()))
    assert run.returncode == 0, run.stdout
    assert "0 of 2 reports differ" in run.stdout


def test_elapsed_seconds_alone_is_no_difference(tmp_path):
    a, b = _dirs(tmp_path, _report(elapsed=1.5), _report(elapsed=9.0))
    assert json.loads((a / "probe.json").read_text())["elapsed_seconds"] == 1.5
    assert json.loads((b / "probe.json").read_text())["elapsed_seconds"] == 9.0
    run = _compare(a, b)
    assert run.returncode == 0, run.stdout


def test_one_ulp_in_a_csv_cell_differs_and_names_the_column(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_report(_report(), "csv", a)
    write_report(_report(c_star=float(np.nextafter(2.0028719, 3.0))), "csv", b)
    run = _compare(a, b)
    assert run.returncode == 1
    assert "probe.csv:\n  c_star: max |a - b| = 4.441e-16" in run.stdout
    assert "1 of 1 reports differ" in run.stdout


def test_a_report_in_one_directory_only_differs(tmp_path):
    a, b = _dirs(tmp_path, _report(), _report())
    (b / "probe.json").unlink()
    run = _compare(a, b)
    assert run.returncode == 1
    assert f"probe.json: only in {a}" in run.stdout


def test_two_empty_directories_exit_nonzero(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    run = _compare(a, b)
    assert run.returncode != 0
    assert "no .csv or .json report" in run.stderr
