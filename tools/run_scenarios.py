#!/usr/bin/env python3
"""Run scenarios through this checkout's `kppspeed.cli` and keep the reports.

    python tools/run_scenarios.py OUT_DIR [SCENARIO ...]

Each scenario (default: every ``scenarios/*.ini`` of the checkout, in name
order) runs as ``kpp-speed run SCENARIO --out OUT_DIR --format both`` in a
fresh interpreter that imports ``kppspeed`` from the checkout's ``src``,
whatever else is installed.  The script prints each scenario's exit code
and exits 1 if any scenario exits 2 (a bad scenario or a failed solve) or
dies otherwise, 0 if all exit 0 or 1 (1: an assertion FAILed, which the
reports show).  With `compare_reports.py`, the bit-identity check of two
checkouts is three commands:

    python PARENT/tools/run_scenarios.py OUT_A
    python CHANGE/tools/run_scenarios.py OUT_B
    python CHANGE/tools/compare_reports.py OUT_A OUT_B

Standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(out_dir: str, scenarios: list[str]) -> list[int]:
    """Exit codes of ``kpp-speed run`` on each scenario, printed as they come."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    codes = []
    for path in scenarios:
        code = subprocess.run([sys.executable, "-m", "kppspeed", "run", path,
                               "--out", out_dir, "--format", "both"], env=env).returncode
        print(f"{path}: exit {code}", flush=True)
        codes.append(code)
    return codes


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    scenarios = argv[1:] or [str(p) for p in sorted((ROOT / "scenarios").glob("*.ini"))]
    codes = run(argv[0], scenarios)
    return 1 if any(c not in (0, 1) for c in codes) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
