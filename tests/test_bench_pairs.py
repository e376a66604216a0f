"""tools/bench_pairs.py: what it reads from perfbench's output and how it
summarizes the runs of one side."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _output(wall, setup, ops, correct=True):
    """Text in the form perfbench/run.py prints with --trace 0."""
    metrics = {"setup_s": {"value": sorted(setup)[len(setup) // 2], "unit": "s"},
               "wall_s": {"value": sorted(wall)[len(wall) // 2], "unit": "s"}}
    lines = ["cauchy-1d homogeneous: speed 1.99 ok"]
    lines += [f"{name}: median op time {t:.4f} s" for name, t in ops.items()]
    lines.append(f"trace=0 rounds={len(wall)} wall_s={wall} setup_s={setup}")
    lines.append(json.dumps({"correct": correct, "attempted": 4, "failed": 0,
                             "metrics": metrics}))
    return "\n".join(lines) + "\n"


def test_parse_run_reads_rounds_setups_and_operation_medians():
    run = bench_pairs.parse_run(_output([0.5, 0.52, 0.49], [0.41, 0.43, 0.4, 0.39, 0.44],
                                        {"homogeneous": 0.1012, "constant-drift": 0.1934}))
    assert run["round_wall_s"] == [0.5, 0.52, 0.49]
    assert run["setup_samples_s"] == [0.41, 0.43, 0.4, 0.39, 0.44]
    assert run["op_median_s"] == {"homogeneous": 0.1012, "constant-drift": 0.1934}
    assert run["metrics"]["wall_s"]["value"] == 0.5
    assert run["correct"] is True


def test_summarize_gives_median_and_quartiles_per_metric():
    runs = [bench_pairs.parse_run(_output([w], [s], {"op": w / 4}))
            for w, s in [(1.0, 0.4), (2.0, 0.5), (3.0, 0.6), (4.0, 0.7), (5.0, 0.8)]]
    summary = bench_pairs.summarize(runs)
    assert summary["metrics"]["wall_s"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert summary["metrics"]["setup_s"]["median"] == pytest.approx(0.6)
    assert summary["op_median_s"]["op"]["median"] == 0.75
    assert summary["all_correct"] and summary["failed"] == 0


def test_dump_keeps_lists_of_values_on_one_line():
    report = {"workloads": {"w": {"runs": [{"round_wall_s": [0.5, 0.25], "names": ["a", "b"]}]}}}
    text = bench_pairs.dump(report)
    assert json.loads(text) == report
    assert '"round_wall_s": [0.5, 0.25]' in text and '"names": ["a", "b"]' in text


@pytest.mark.parametrize("parent, change, expected", [
    ([1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0], [0.8] * 10, "better"),
    ([1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0], [1.3] * 10, "worse"),
    ([1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0], [1.05] * 10, "no worse"),
    ([0.6, 1.4] * 5, [1.0] * 10, "unresolved"),
    ([0.6, 1.4] * 5, [0.1] * 10, "better"),
    ([0.6, 1.4] * 5, [0.5] * 10, "no worse"),
], ids=["better", "worse", "no-worse", "unresolved", "better-despite-spread",
        "all-change-runs-beat-all-parent-runs"])
def test_verdict_follows_pairs_spread_and_bound(parent, change, expected):
    assert bench_pairs.verdict(parent, change, 0.25, "lower")["verdict"] == expected


def test_verdict_counts_pairs_won_without_ties_and_reads_the_bound():
    runs = {side: [bench_pairs.parse_run(_output([w], [0.4], {})) for w in walls]
            for side, walls in (("parent", (1.0, 2.0, 3.0, 4.0)), ("change", (0.5, 2.0, 3.5, 3.0)))}
    end_to_end = [{"name": "wall_s", "better": "lower", "bound": 0.25},
                  {"name": "setup_s", "better": "lower", "bound": 0.25}]
    out = bench_pairs.verdicts(runs, end_to_end)
    assert out["wall_s"]["pairs_won"] == 2 and out["wall_s"]["pairs"] == 4
    assert out["wall_s"]["parent_spread"] == pytest.approx((3.25 - 1.75) / 2.5)
    assert out["wall_s"]["bound"] == 0.25 and out["wall_s"]["verdict"] == "unresolved"
    assert out["setup_s"]["pairs_won"] == 0 and out["setup_s"]["verdict"] == "no worse"
