"""Scenario files, experiment reports, and report writers.

A scenario is a flat key/value + sections text file (INI syntax, no value
interpolation); see the repository README and the shipped ``scenarios/``
directory for the format.  Coefficient entries are expression strings in the
grammar of :mod:`kppspeed.expressions`; they are parsed eagerly so bad
references fail at load time with the offending name.  So does a key that
the loader does not read, in every section but [experiment] and
[parameters].

An `ExperimentReport` carries one row per parameter point plus a list of
machine-checked assertions (name, left value, right value, tolerance,
verdict).  `experiments.run_experiment` makes it, names it and times the
run; the experiment fills it in place and enters every eigenpair or speed
it reports in its eigen ledger (`ExperimentReport.record`).  The CSV writer
emits the rows with a stable column order, the JSON writer the whole report
object except the ledger.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field
from pathlib import Path

from .eigen import EigenResult
from .expressions import ExpressionError
from .fields import CellGeometry, CoefficientSet, FieldError
from .operators import DEFAULT_CAP, Grid, GridError, build_grid

__all__ = ["Scenario", "ScenarioError", "ExperimentReport", "Assertion",
           "load_scenario", "write_report"]


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    name: str
    experiment: str | None
    geometry: CellGeometry
    coefficients: CoefficientSet
    grid: Grid
    params: dict
    options: dict            # raw [experiment] section (strings)
    seed: int
    output_dir: str
    output_format: str
    path: str | None = None

    def _where(self, key: str) -> str:
        return f"{self.path} [experiment] {key}"

    def opt_float(self, key: str, default: float) -> float:
        return _number(float, self.options.get(key, default), self._where(key))

    def opt_floats(self, key: str, default) -> list[float]:
        raw = self.options.get(key)
        if raw is None:
            return list(default)
        return list(_numbers(float, raw, self._where(key)))

    def opt_int(self, key: str, default: int) -> int:
        return _number(int, self.options.get(key, default), self._where(key))

    def opt_str(self, key: str, default: str) -> str:
        return str(self.options.get(key, default))


def _number(convert, text, where: str):
    """convert(text), float or int, for the value of a scenario key; a
    ScenarioError naming the key (``where``) when it is not a number."""
    try:
        return convert(text)
    except ValueError as exc:
        what = "an integer" if convert is int else "a number"
        raise ScenarioError(f"{where}: not {what} ({text!r})") from exc


def _numbers(convert, text, where: str) -> tuple:
    """The whitespace-separated numbers of a scenario value, as `_number`."""
    return tuple(_number(convert, tok, where) for tok in str(text).split())


# keys of the sections that `load_scenario` reads itself; [experiment] keys
# belong to the experiment and [parameters] names are free
_SECTION_KEYS = {"scenario": ("name", "experiment", "seed"), "geometry": ("T", "L"),
                 "grid": ("n", "nt", "cap"), "output": ("dir", "format")}


def _section(cp, path, name: str):
    """Section ``name`` of a parsed scenario ({} when absent); a ScenarioError
    names any key in it that the loader does not read."""
    if not cp.has_section(name):
        return {}
    for key in cp[name]:
        if key not in _SECTION_KEYS[name]:
            raise ScenarioError(f"{path} [{name}] {key}: unknown key "
                                f"(one of {', '.join(_SECTION_KEYS[name])})")
    return cp[name]


def _coefficient_keys(cp, path, dimension: int) -> dict:
    """The [coefficients] section with lower-cased keys: A (a, or aij
    entries), the drift (q in 1D, q1..qN) and mu; a ScenarioError names any
    other key."""
    if not cp.has_section("coefficients"):
        return {}
    axes = range(1, dimension + 1)
    allowed = {"a", "mu", *(f"a{i}{j}" for i in axes for j in axes),
               *(f"q{i}" for i in axes), *(("q",) if dimension == 1 else ())}
    co = {}
    for key, value in cp["coefficients"].items():
        if key.lower() not in allowed:
            raise ScenarioError(f"{path} [coefficients] {key}: unknown key in "
                                f"{dimension}D (a, aij, q or qi, mu)")
        co[key.lower()] = value
    return co


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file (expressions parsed eagerly)."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # parameter names are case-sensitive
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from exc

    sc = _section(cp, path, "scenario")
    name = sc.get("name", path.stem)
    experiment = sc.get("experiment")
    seed = _number(int, sc.get("seed", 0), f"{path} [scenario] seed")

    geo_sec = _section(cp, path, "geometry")
    T = _number(float, geo_sec.get("T", 1.0), f"{path} [geometry] T")
    L = _numbers(float, geo_sec.get("L", "1.0"), f"{path} [geometry] L")
    try:
        geometry = CellGeometry(T, L)
    except FieldError as exc:
        raise ScenarioError(f"{path} [geometry]: {exc}") from exc

    params = {}
    if cp.has_section("parameters"):
        for key, val in cp["parameters"].items():
            params[key] = _number(float, val, f"{path} [parameters] {key}")

    N = geometry.dimension
    co = _coefficient_keys(cp, path, N)
    a_keys = {k: v for k, v in co.items() if k.startswith("a") and k != "a"}
    A_spec = dict(a_keys) if a_keys else co.get("a", "1")
    if N == 1:
        q_spec = (co.get("q", co.get("q1", "0")),)
    else:
        q_spec = tuple(co.get(f"q{i + 1}", "0") for i in range(N))
    mu_spec = co.get("mu", "1")
    try:
        coefficients = CoefficientSet.from_expressions(
            A=A_spec, q=q_spec, mu=mu_spec, T=T, L=(L[0] if N == 1 else L),
            params=params)
    except (ExpressionError, FieldError) as exc:
        raise ScenarioError(f"{path} [coefficients]: {exc}") from exc

    gr = _section(cp, path, "grid")
    n_space = _numbers(int, gr.get("n", "256"), f"{path} [grid] n")
    if len(n_space) == 1 and N > 1:
        n_space = n_space * N
    n_t = gr.get("nt")
    if n_t is not None:
        n_t = _number(int, n_t, f"{path} [grid] nt")
    cap = _number(int, gr.get("cap", DEFAULT_CAP), f"{path} [grid] cap")
    try:
        grid = build_grid(geometry, n_space, n_t, cap=cap)
    except GridError as exc:
        raise ScenarioError(f"{path} [grid]: {exc}") from exc

    options = dict(cp["experiment"]) if cp.has_section("experiment") else {}
    out = _section(cp, path, "output")
    output_dir = out.get("dir", "out")
    output_format = out.get("format", "csv")
    if output_format not in ("csv", "json", "both"):
        raise ScenarioError(f"{path} [output]: format must be csv|json|both")

    return Scenario(name, experiment, geometry, coefficients, grid, params,
                    options, seed, output_dir, output_format, str(path))


# --- reports -------------------------------------------------------------------


@dataclass
class Assertion:
    name: str
    kind: str          # "ge" | "le" | "abs" | "strict"
    lhs: float
    rhs: float
    tolerance: float
    verdict: str
    margin: float

    @staticmethod
    def check(name: str, kind: str, lhs: float, rhs: float, tolerance: float,
              equality: bool = False) -> "Assertion":
        lhs, rhs, tolerance = float(lhs), float(rhs), float(tolerance)
        if kind == "ge":          # lhs >= rhs - tolerance
            margin = lhs - rhs
            ok = margin >= -tolerance
        elif kind == "le":        # lhs <= rhs + tolerance
            margin = rhs - lhs
            ok = margin >= -tolerance
        elif kind == "abs":       # |lhs - rhs| <= tolerance
            margin = tolerance - abs(lhs - rhs)
            ok = margin >= 0
        elif kind == "strict":    # lhs - rhs >= tolerance
            margin = lhs - rhs
            ok = margin >= tolerance
        else:
            raise ValueError(f"unknown assertion kind {kind!r}")
        verdict = ("PASS-EQUALITY" if equality else "PASS") if ok else "FAIL"
        return Assertion(name, kind, lhs, rhs, tolerance, verdict, float(margin))


@dataclass
class ExperimentReport:
    """The report of one experiment, filled in place: the experiment sets
    ``inputs`` and ``columns``, appends ``rows``, asserts through `check` and
    enters every reported eigenpair or speed in the eigen ledger through
    `record`; `experiments.run_experiment` makes it and times the run."""

    experiment: str
    scenario: str
    seed: int
    inputs: dict = field(default_factory=dict)
    columns: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    assertions: list = field(default_factory=list)   # list[Assertion]
    elapsed_seconds: float = 0.0
    eigen_records: list = field(default_factory=list)  # runtime-only, not serialized

    @property
    def passed(self) -> bool:
        return all(a.verdict != "FAIL" for a in self.assertions)

    def check(self, name: str, kind: str, lhs: float, rhs: float, tolerance: float,
              equality: bool = False) -> None:
        self.assertions.append(Assertion.check(name, kind, lhs, rhs, tolerance, equality))

    def record(self, context: str, result):
        """Enter the sandwich certificate of an `EigenResult` in the eigen
        ledger, or of a `SpeedResult`: its minimizer's eigenpair as
        ``context:minimizer``, then every solve of its search.  Returns
        ``result``."""
        if isinstance(result, EigenResult):
            solves = [vars(result)]
        else:
            if result.eigen is not None:
                self.record(context + ":minimizer", result.eigen)
            solves = result.records
        self.eigen_records += [{"context": context, "k": s["k"], "lower": s["lower"],
                                "upper": s["upper"]} for s in solves]
        return result

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "scenario": self.scenario,
            "inputs": self.inputs,
            "columns": list(self.columns),
            "rows": [dict(r) for r in self.rows],
            "assertions": [vars(a) for a in self.assertions],
            "seed": self.seed,
            "elapsed_seconds": self.elapsed_seconds,
            "passed": self.passed,
        }

    def summary_lines(self) -> list[str]:
        lines = [f"experiment {self.experiment} ({self.scenario}): "
                 f"{len(self.rows)} rows, seed {self.seed}, "
                 f"{self.elapsed_seconds:.2f}s"]
        for a in self.assertions:
            lines.append(f"  [{a.verdict}] {a.name}: lhs={a.lhs:.9g} rhs={a.rhs:.9g} "
                         f"tol={a.tolerance:.3g} margin={a.margin:.3g}")
        return lines


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report(report: ExperimentReport, fmt: str, out_dir) -> list[Path]:
    """Write CSV rows and/or the JSON report; returns the written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    base = report.scenario or report.experiment
    if fmt in ("csv", "both"):
        p = out_dir / f"{base}.csv"
        with open(p, "w") as fh:
            fh.write(",".join(report.columns) + "\n")
            for row in report.rows:
                fh.write(",".join(_fmt(row.get(c, "")) for c in report.columns) + "\n")
        written.append(p)
    if fmt in ("json", "both"):
        p = out_dir / f"{base}.json"
        with open(p, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        written.append(p)
    return written
