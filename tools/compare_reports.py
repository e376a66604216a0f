#!/usr/bin/env python3
"""Compare two directories of scenario reports written by `kpp-speed run`.

    python tools/compare_reports.py DIR_A DIR_B

The CSV reports must be byte-identical and the JSON reports equal once
``elapsed_seconds`` (wall time) is dropped.  For every field that differs it
prints the largest absolute difference over the rows (``not numeric`` when a
value is not a number), and it exits 1 on any difference, 0 when the two
directories hold the same reports, and 2 when neither holds a ``.csv`` or
``.json`` report.  Standard library only.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

IGNORED = {"elapsed_seconds"}
ABSENT = object()


def _gap(a, b) -> float:
    """|a - b| for two numbers, inf otherwise."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    return abs(a - b) if numbers else math.inf


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def _json_diff(a, b, field: str, out: dict) -> None:
    """Largest gap per field of two JSON values; list positions are written
    [] so that a field collects its gaps over the rows."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in IGNORED:
                _json_diff(a.get(key, ABSENT), b.get(key, ABSENT),
                           f"{field}.{key}" if field else key, out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _json_diff(x, y, field + "[]", out)
    elif not _same(a, b):
        out[field] = max(out.get(field, 0.0), _gap(a, b))


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_diff(a: bytes, b: bytes, out: dict) -> None:
    """Largest gap per column of two CSV files that are not byte-identical."""
    rows_a = list(csv.DictReader(io.StringIO(a.decode())))
    rows_b = list(csv.DictReader(io.StringIO(b.decode())))
    if len(rows_a) != len(rows_b) or any(r.keys() != s.keys() for r, s in zip(rows_a, rows_b)):
        out["(rows or columns)"] = math.inf
    for r, s in zip(rows_a, rows_b):
        for key in r.keys() & s.keys():
            if r[key] != s[key]:
                out[key] = max(out.get(key, 0.0), _gap(_number(r[key]), _number(s[key])))
    if not out:  # same cells, other bytes (line ends, quoting)
        out["(bytes)"] = math.inf


def compare(dir_a: Path, dir_b: Path) -> int:
    """Print the differences of the reports in two directories; return the
    number of reports that differ."""
    names = sorted({p.name for d in (dir_a, dir_b) for p in d.iterdir()
                    if p.suffix in (".csv", ".json")})
    differing = 0
    for name in names:
        pa, pb = dir_a / name, dir_b / name
        if not (pa.is_file() and pb.is_file()):
            print(f"{name}: only in {pa.parent if pa.is_file() else pb.parent}")
            differing += 1
            continue
        out: dict = {}
        if name.endswith(".csv"):
            a, b = pa.read_bytes(), pb.read_bytes()
            if a != b:
                _csv_diff(a, b, out)
        else:
            _json_diff(json.loads(pa.read_text()), json.loads(pb.read_text()), "", out)
        if out:
            differing += 1
            print(f"{name}:")
            for field, gap in sorted(out.items()):
                text = "not numeric" if math.isinf(gap) else f"max |a - b| = {gap:.3e}"
                print(f"  {field}: {text}")
    print(f"{differing} of {len(names)} reports differ")
    return differing


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    dirs = [Path(d) for d in argv]
    if not any(p.suffix in (".csv", ".json") for d in dirs for p in d.iterdir()):
        print(f"no .csv or .json report in {argv[0]} or {argv[1]}", file=sys.stderr)
        return 2
    return 1 if compare(*dirs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
