"""tools/run_scenarios.py: exit codes, and reports that compare_reports.py finds equal."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def _tool(name, *args):
    return subprocess.run([sys.executable, str(TOOLS / name), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_two_runs_of_a_scenario_give_the_same_reports(tmp_path):
    scenario = ROOT / "scenarios" / "growth_monotone.ini"
    for out in ("a", "b"):
        run = _tool("run_scenarios.py", tmp_path / out, scenario)
        assert run.returncode == 0, run.stderr
        assert f"{scenario}: exit 0" in run.stdout.splitlines()
    compare = _tool("compare_reports.py", tmp_path / "a", tmp_path / "b")
    assert compare.returncode == 0, compare.stdout
    assert "0 of 2 reports differ" in compare.stdout


def test_a_scenario_that_exits_2_fails_the_run(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nexperiment = no-such-experiment\n")
    run = _tool("run_scenarios.py", tmp_path / "out", bad)
    assert run.returncode == 1
    assert f"{bad}: exit 2" in run.stdout.splitlines()
