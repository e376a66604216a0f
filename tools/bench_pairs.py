#!/usr/bin/env python3
"""Run perfbench on two checkouts in alternation and collect one JSON file.

    python tools/bench_pairs.py PARENT CHANGE --tag cauchy-step --seed 4242 \\
        --pairs 10 --seconds 20 --workload cauchy-1d --workload speed-steady-1d

PARENT and CHANGE are checkouts of the repository.  For each workload the
script runs ``python3 perfbench/run.py`` once in each, ``--pairs`` times,
with PARENT first in even pairs and CHANGE first in odd ones, so that a slow
spell of the machine hits both sides.  From each run it
keeps what run.py prints: the per-round ``wall_s`` and the ``setup_s``
samples, the per-operation median times and the final JSON object (verdict
and end-to-end metrics).  Each metric is summarized over the runs of a side
as median [q1, q3], so that a bimodal run shows as one.  Each end-to-end
metric of PARENT's BENCHMARK.json gets a verdict (see `verdict`), with the
pairs the change won, the parent's spread and the metric's bound.  The file
is written to ``BENCH_<tag>.json`` in the current directory unless ``--out``
is given, and rewritten after each workload.  After the pairs of a
workload, one ``--trace 1`` run per side records the per-layer metrics
(work counts such as ``speed.solves_per_speed``) under ``traced``.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

OP_LINE = re.compile(r"^(?P<name>.+): median op time (?P<t>\S+) s$")
ROUNDS_LINE = re.compile(r"wall_s=(?P<wall>\[.*?\]) setup_s=(?P<setup>\[.*?\])")
SIDES = ("parent", "change")


def parse_run(stdout: str) -> dict:
    """The figures of one run.py output: its final JSON object, the per-round
    wall times, the set-up samples and the per-operation median times."""
    lines = stdout.strip().splitlines()
    run = json.loads(lines[-1])
    run["op_median_s"] = {}
    for line in lines[:-1]:
        op = OP_LINE.match(line)
        if op:
            run["op_median_s"][op["name"]] = float(op["t"])
        rounds = ROUNDS_LINE.search(line)
        if rounds:
            run["round_wall_s"] = json.loads(rounds["wall"])
            run["setup_samples_s"] = json.loads(rounds["setup"])
    return run


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list) -> dict:
    metrics = {name: quartiles([r["metrics"][name]["value"] for r in runs])
               for name in runs[0]["metrics"]}
    ops = {name: quartiles([r["op_median_s"][name] for r in runs])
           for name in runs[0]["op_median_s"]}
    return {"metrics": metrics, "op_median_s": ops,
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs)}


def verdict(parent: list, change: list, bound: float, better: str) -> dict:
    """The verdict on one end-to-end metric from its values in the runs of
    each side, paired by index.

    ``better``: the change won at least nine tenths of the pairs (ties count
    for neither) and its median beats the parent's by more than the parent's
    q3 - q1.  ``worse``: its median is worse than the parent's by more than
    ``bound``, relative.  ``unresolved``: neither, and the parent's spread
    (q3 - q1)/median is wider than ``bound``, unless every run of the change
    beats every run of the parent.  ``no worse`` otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * (p - c) > 0: c beats p
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    qp, qc = quartiles(parent), quartiles(change)
    iqr = qp["q3"] - qp["q1"]
    spread = iqr / qp["median"]
    gain = sign * (qp["median"] - qc["median"])
    if won >= 0.9 * len(parent) and gain > iqr:
        result = "better"
    elif -gain > bound * qp["median"]:
        result = "worse"
    elif spread > bound and not all(sign * (p - c) > 0 for p in parent for c in change):
        result = "unresolved"
    else:
        result = "no worse"
    return {"verdict": result, "pairs_won": won, "pairs": len(parent),
            "parent_spread": spread, "bound": bound}


def verdicts(runs: dict, end_to_end: list) -> dict:
    """`verdict` per end-to-end metric of BENCHMARK.json over the runs of
    each side."""
    out = {}
    for m in end_to_end:
        parent, change = ([r["metrics"][m["name"]]["value"] for r in runs[side]]
                          for side in SIDES)
        out[m["name"]] = verdict(parent, change, m["bound"], m["better"])
    return out


def dump(report: dict) -> str:
    """Indented JSON with each list of plain values on one line."""
    text = json.dumps(report, indent=1)
    return re.sub(r"\[[^\[\]{}]*\]", lambda m: json.dumps(json.loads(m[0])), text) + "\n"


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: run.py failed in {checkout}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--tag", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    report = {"tag": args.tag, "seed": args.seed, "pairs": args.pairs,
              "seconds": args.seconds, "quartiles": "inclusive",
              "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                       "python": platform.python_version()},
              "workloads": {}}
    out = args.out or Path(f"BENCH_{args.tag}.json")
    end_to_end = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    for workload in args.workload:
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = list(zip(SIDES, (args.parent, args.change)))
            for side, checkout in order if i % 2 == 0 else order[::-1]:
                runs[side].append(run_once(checkout.resolve(), workload, args.seed,
                                           args.seconds))
            print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
        entry = {side: {"summary": summarize(runs[side]), "runs": runs[side]}
                 for side in SIDES}
        entry["median_change"] = {
            name: entry["change"]["summary"]["metrics"][name]["median"]
            / entry["parent"]["summary"]["metrics"][name]["median"] - 1.0
            for name in entry["parent"]["summary"]["metrics"]}
        entry["verdicts"] = verdicts(runs, end_to_end)
        entry["traced"] = {}
        for side, checkout in zip(SIDES, (args.parent, args.change)):
            traced = run_once(checkout.resolve(), workload, args.seed, args.seconds, trace=1)
            entry["traced"][side] = {name: m["value"] for name, m in traced["metrics"].items()}
        report["workloads"][workload] = entry
        out.write_text(dump(report))  # after each workload
    return 0


if __name__ == "__main__":
    sys.exit(main())
