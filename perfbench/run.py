"""Benchmark of kppspeed: one workload per call, checked against references.

    python3 perfbench/run.py --workload speed-floquet-1d --seed 1 --seconds 20 --trace 0

Draws the workload's coefficients from the seed, starts the program in
worker processes of its own (`worker.py`, BLAS threads pinned to 1), checks
every output against the Hill reference, closed forms and the paper's
inequalities, and prints one JSON object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
op_p50_s, peak_rss_mb); with --trace 1 they are the per-layer ones from
spans around the program's public functions (see layers.py).  The reference
is computed after the workers have exited, outside every timed region.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import statistics
import subprocess
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 4   # set-up-only workers, besides the measuring one
DEADLINE_S = 170.0  # the whole run, workers included


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], spec_json: str, timeout: float) -> dict:
    spawned_at = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), args[0], repr(spawned_at),
                           *args[1:]], input=spec_json, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 < args.seconds <= 60:
        ap.error("--seconds must be in (0, 60]")

    start = time.monotonic()
    spec = workloads.build(args.workload, args.seed)
    spec_json = json.dumps(workloads.strip_private(spec))
    try:
        setups = [_worker(["setup"], spec_json, 60.0)["setup_s"] for _ in range(SETUP_SAMPLES)]
        result = _worker(["run", str(args.seconds), str(args.trace)], spec_json,
                         DEADLINE_S - (time.monotonic() - start))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    verdict = checks.check(spec, result)
    for line in verdict.report:
        print(line)
    rounds = result["rounds"]
    op_medians = [statistics.median(r["op_s"][i] for r in rounds)
                  for i in range(len(result["names"]))]
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_medians), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for name, t in zip(result["names"], op_medians):
        print(f"{name}: median op time {t:.4f} s")
    print(f"trace={args.trace} rounds={len(rounds)} "
          f"wall_s={[round(r['wall_s'], 4) for r in rounds]} "
          f"setup_s={[round(s, 4) for s in setups]}")
    print(json.dumps({"correct": verdict.correct, "attempted": verdict.attempted,
                      "failed": verdict.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
